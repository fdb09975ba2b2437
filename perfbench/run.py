"""The repository benchmark: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-routing --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, each in a fresh process: once
untraced and once with span recorders around every layer's public
calls; it reports the per-layer metrics and, for each end-to-end
metric, the traced value over the untraced one.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full
record (run fingerprint, input digest, sample counts, spans) goes to
``.perfbench-out/``.  Any failed correctness check exits nonzero.

``--self-check`` runs every workload at a tiny size, untraced and
traced, with all its checks, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _require_checkout() -> None:
    """The benchmark measures the program in this checkout's ``src/``;
    without it there is nothing to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["REPRO_STORE"] = "off"  # in-process networks never touch disk


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the program's source files (identifies the code
    measured where no git metadata is available)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def fingerprint(args, passes) -> dict:
    first = passes[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": first["info"]["digest"],
        "samples": first["info"]["samples"],
        "loadgen.late_p99_ms": first["info"].get("late_p99_ms"),
    }


def _child_pass(args, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and read back its record."""
    fd, path = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--pass-traced" if traced else "--pass-plain", path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {'traced' if traced else 'untraced'} "
                             f"pass exited with {proc.returncode}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--pass-plain", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--pass-traced", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_checkout()
    import workloads

    if args.self_check:
        return self_check(workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    out = args.pass_plain or args.pass_traced
    if out:
        cfg = workloads.Config(args.workload, args.seed, args.seconds)
        result = workloads.run_pass(cfg, traced=bool(args.pass_traced))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result.as_dict(), fh)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    units = _units()
    if args.trace == 0:
        cfg = workloads.Config(args.workload, args.seed, args.seconds)
        passes = [workloads.run_pass(cfg, traced=False).as_dict()]
        metrics = dict(passes[0]["metrics"])
    else:
        passes = [_child_pass(args, traced=False), _child_pass(args, traced=True)]
        plain, traced = passes
        metrics = dict(traced["layers"])
        for name in workloads.E2E:
            metrics[f"trace.overhead_ratio.{name}"] = (
                traced["metrics"][name] / plain["metrics"][name])
    problems = [p for run in passes for p in run["problems"]]
    attempted = sum(run["attempted"] for run in passes)
    failed = sum(run["failed"] for run in passes)
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite metrics (every operation must succeed): {bad}")
    record = {"fingerprint": fingerprint(args, passes), "correct": not problems,
              "problems": problems, "attempted": attempted, "failed": failed,
              "metrics": metrics, "passes": passes}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    if args.trace == 1:
        _print_metrics("untraced end-to-end:", passes[0]["metrics"], units)
        _print_metrics("traced end-to-end:", passes[1]["metrics"], units)
    _print_metrics("metrics:", metrics, units)
    print(f"  {'failed_ratio':<40s} {failed / max(1, attempted):>16.6g} fraction")
    for name, value in passes[0]["info"]["tails"].items():
        print(f"  {name:<40s} {value:>16.6g} ms (recorded, no bound)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items() if k in units}}))
    return 0 if not problems else 1


def self_check(workloads) -> int:
    """Every workload at a tiny size, untraced then traced, checked."""
    names = sorted(workloads.WORKLOADS)
    results = {}
    for traced in (False, True):
        for name in names:
            cfg = workloads.Config(name, seed=7, seconds=0.5, setups=1, tiny=True)
            t0 = time.perf_counter()
            result = workloads.run_pass(cfg, traced=traced)
            results[(name, traced)] = result
            status = "ok" if not result.problems else "FAILED"
            print(f"{name:<16s} {'traced' if traced else 'untraced':<8s} "
                  f"{status} ({time.perf_counter() - t0:.1f} s, "
                  f"{result.attempted} ops)")
            for p in result.problems:
                print(f"  CHECK FAILED: {p}")
    problems = [p for r in results.values() for p in r.problems]
    for (name, traced), r in results.items():
        missing = [m for m in workloads.E2E if not (r.metrics.get(m, 0) > 0
                                                    and math.isfinite(r.metrics[m]))]
        if missing:
            problems.append(f"{name}: end-to-end metrics missing or not positive: {missing}")
        if traced and set(r.layers) != set(workloads.LAYERS):
            problems.append(f"{name}: per-layer metrics incomplete")
    print("self-check " + ("ok" if not problems else "FAILED"))
    for p in problems:
        print(f"  {p}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
