"""Command-line interface: run the reproduction's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli fig1 --n 48 --seed 3
    python -m repro.cli stretch --scheme stretch6 --family torus --n 36
    python -m repro.cli tables --scheme exstretch --n 36 --k 2
    python -m repro.cli covers --n 36 --k 2 --scale 8
    python -m repro.cli distributed --n 24
    python -m repro.cli traffic --n 64 --scheme stretch6,rtz --workload mixed
    python -m repro.cli schemes

Every subcommand resolves schemes through the :mod:`repro.api`
registry and builds them on a shared :class:`~repro.api.Network`, so
multi-scheme invocations (``traffic --scheme stretch6,rtz``) compute
the expensive per-graph artifacts (metric, RTZ substrate, covers)
exactly once.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.analysis.experiments import (
    assert_rows_sound,
    fig1_comparison,
    format_rows,
)
from repro.analysis.stretch import stretch_distribution
from repro.analysis.tables import breakdown
from repro.api import Network, all_specs, get_spec
from repro.api.stats import SessionStats
from repro.distributed.preprocessing import DistributedPreprocessing
from repro.exceptions import GraphError, ReproError
from repro.graph.generators import FAMILY_NAMES
from repro.graph.limits import table_storage
from repro.runtime.scheme import RoutingScheme
from repro.runtime.traffic import CHUNK_PAIRS, WORKLOAD_KINDS, generate_workload
from repro.store import (
    CACHE_DIR_ENV,
    STORE_ENV,
    default_store,
    format_bytes,
    parse_size,
)


def _configure_store(args: argparse.Namespace) -> None:
    """Apply ``--cache-dir`` / ``--no-store`` before any network is
    built: the store resolves its configuration from the environment,
    so the flags translate to the same variables a shell would set."""
    if getattr(args, "cache_dir", None):
        os.environ[CACHE_DIR_ENV] = args.cache_dir
        # an explicit root is an explicit opt-in, even under
        # REPRO_STORE=off (the test suite's hermetic default)
        os.environ[STORE_ENV] = "1"
    if getattr(args, "no_store", False):
        os.environ[STORE_ENV] = "off"


def _network(args: argparse.Namespace) -> Network:
    """The shared facade for one CLI invocation."""
    _configure_store(args)
    return Network.from_family(args.family, args.n, seed=args.seed)


def _build_scheme(
    net: Network, label: str, args: argparse.Namespace
) -> Tuple[RoutingScheme, float]:
    """Build one registered scheme (passing ``--k`` where accepted) and
    return it with its claimed stretch bound."""
    spec = get_spec(label)
    params = {"k": args.k} if spec.accepts("k") else {}
    scheme = net.build_scheme(spec.name, **params)
    return scheme, spec.stretch_bound(scheme)


def cmd_fig1(args: argparse.Namespace) -> int:
    net = _network(args)
    rows = fig1_comparison(
        net, seed=args.seed + 1, sample_pairs=args.pairs, k=args.k
    )
    print(format_rows(rows))
    assert_rows_sound(rows)
    print("\nall schemes within their claimed stretch")
    return 0


def cmd_stretch(args: argparse.Namespace) -> int:
    net = _network(args)
    scheme, bound = _build_scheme(net, args.scheme, args)
    dist = stretch_distribution(
        net.router(scheme), sample=args.pairs, rng=random.Random(args.seed)
    )
    print(f"scheme   : {scheme.name}")
    print(f"pairs    : {len(dist.samples)}")
    print(f"max      : {dist.max():.3f}   (bound {bound:.1f})")
    print(f"mean     : {dist.mean():.3f}")
    print(f"p50/p90  : {dist.percentile(50):.2f} / {dist.percentile(90):.2f}")
    return 0 if dist.max() <= bound + 1e-9 else 1


def cmd_tables(args: argparse.Namespace) -> int:
    net = _network(args)
    scheme, _bound = _build_scheme(net, args.scheme, args)
    print(f"scheme: {scheme.name} on {args.family} (n={net.n})\n")
    print(breakdown(scheme).format(net.n))
    return 0


def cmd_covers(args: argparse.Namespace) -> int:
    net = _network(args)
    dtc = net.cover(args.k, float(args.scale))
    dtc.verify()
    worst = max(t.rt_height() for t in dtc.trees)
    print(f"cover at scale {args.scale}, k={args.k} on {args.family} "
          f"(n={net.n})")
    print(f"trees        : {len(dtc.trees)}")
    print(f"max height   : {worst:.1f}  (bound {dtc.height_bound():.1f})")
    print(f"max load     : {dtc.max_vertex_load()}  "
          f"(bound {dtc.load_bound()})")
    print("all Theorem 13 properties verified")
    return 0


def cmd_distributed(args: argparse.Namespace) -> int:
    net = _network(args)
    prep = DistributedPreprocessing(net.graph, net.naming(), seed=args.seed + 2)
    prep.verify_against_oracle(net.oracle())
    print(f"{'phase':<18} {'rounds':>7} {'messages':>10}")
    for label, cost in prep.costs.items():
        print(f"{label:<18} {cost.rounds:>7} {cost.messages:>10}")
    print(f"{'total':<18} {prep.total_rounds():>7} "
          f"{prep.total_messages():>10}")
    print("verified against the centralized construction")
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    net = _network(args)
    labels = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if not labels:
        raise SystemExit("no scheme given")
    workload = generate_workload(
        args.workload,
        net.n,
        args.pairs,
        rng=random.Random(args.seed + 3),
        oracle=net.oracle(),
    )
    failures = 0
    routers = []
    for i, label in enumerate(labels):
        t0 = time.perf_counter()
        scheme, bound = _build_scheme(net, label, args)
        build_s = time.perf_counter() - t0
        router = net.router(scheme)
        routers.append(router)
        resolved = router.resolve_engine()
        summary = router.serve_workload(workload)
        if i:
            print()
        print(f"scheme     : {scheme.name} on {args.family} (n={net.n})")
        print(f"build time : {build_s * 1000:.1f} ms"
              + ("  (shared artifacts reused)" if i else ""))
        if resolved == "vectorized":
            print(f"engine     : {resolved}  (compiled decision tables, "
                  f"tables={table_storage(net.n)})")
        else:
            print(f"engine     : {resolved}")
        print(summary.format())
        if summary.pairs == 0:
            print("\nempty workload; nothing to route")
        elif summary.max_stretch <= bound + 1e-9:
            print(f"within the claimed stretch bound {bound:.1f}")
        else:
            print(f"EXCEEDED the claimed stretch bound {bound:.1f}")
            failures += 1
    if len(labels) > 1 or args.verbose_cache:
        print()
        print(SessionStats.collect(net, routers).format())
    return 1 if failures else 0


def _default_scenario_dir() -> Path:
    """The committed ``scenarios/`` directory: next to the package's
    repo root when running from a checkout, else the cwd's."""
    root = Path(__file__).resolve().parents[2] / "scenarios"
    if root.is_dir():
        return root
    return Path("scenarios")


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioError, load_scenario, run_scenario

    action = args.scenario_command
    if action == "list":
        directory = Path(args.dir) if args.dir else _default_scenario_dir()
        paths = sorted(directory.glob("*.json"))
        if not paths:
            print(f"no scenario specs under {directory}")
            return 0
        header = f"{'spec':<28} {'phases':>6} {'pairs':>6} {'cells':>5}  summary"
        print(header)
        print("-" * len(header))
        for path in paths:
            try:
                spec = load_scenario(str(path))
            except ScenarioError as exc:
                print(f"{path.name:<28} INVALID: {exc}")
                continue
            print(f"{path.name:<28} {len(spec.phases):>6} "
                  f"{spec.total_pairs:>6} {spec.matrix.cells:>5}  "
                  f"{spec.summary or spec.name}")
        return 0
    if action == "validate":
        bad = 0
        for source in args.spec:
            try:
                spec = load_scenario(source)
            except ScenarioError as exc:
                print(f"{source}: INVALID: {exc}")
                bad += 1
                continue
            print(f"{source}: ok ({spec.name}: {len(spec.phases)} phases, "
                  f"{spec.total_pairs} pairs, {spec.matrix.cells} cells)")
        return 2 if bad else 0
    if action == "show":
        import json as _json

        spec = load_scenario(args.spec)
        print(_json.dumps(spec.to_doc(), indent=2, sort_keys=True))
        return 0
    if action == "run":
        _configure_store(args)
        failures = 0
        for i, source in enumerate(args.spec):
            spec = load_scenario(source)
            if args.smoke:
                spec = spec.smoke()
            result = run_scenario(spec)
            if i:
                print()
            print(result.format())
            if not result.ok:
                failures += 1
        return 1 if failures else 0
    raise SystemExit(f"unknown scenario command {action!r}")


def cmd_schemes(args: argparse.Namespace) -> int:
    header = f"{'name':<22} {'TINN':<5} {'stretch bound':<18} {'params':<28} summary"
    print(header)
    print("-" * len(header))
    for spec in all_specs():
        params = ", ".join(
            f"{p.name}={p.default}" if p.default is not None else p.name
            for p in spec.params
        ) or "-"
        print(f"{spec.name:<22} {str(spec.name_independent):<5} "
              f"{spec.bound_text:<18} {params:<28} {spec.summary}")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    _configure_store(args)
    store = default_store()
    if store is None:
        raise SystemExit(
            "the artifact store is disabled (REPRO_STORE is falsy); "
            "unset it or pass --cache-dir"
        )
    if args.store_command == "ls":
        entries = list(store.entries())
        print(f"store at {store.root}")
        if not entries:
            print("(empty)")
            return 0
        header = f"{'kind':<18} {'digest':<14} {'size':>10}  {'build':>9}"
        print(header)
        print("-" * len(header))
        for e in entries:
            manifest = e.load_manifest() or {}
            built = float(manifest.get("build_seconds", 0.0))
            print(f"{e.kind:<18} {e.digest[:12]:<14} "
                  f"{format_bytes(e.nbytes):>10}  {built * 1000:>6.1f} ms")
        print(f"{len(entries)} entries, "
              f"{format_bytes(store.total_bytes())} total")
        return 0
    if args.store_command == "verify":
        ok, corrupt = store.verify()
        print(f"{ok} entries verified, {len(corrupt)} quarantined")
        for e in corrupt:
            print(f"  quarantined: {e.kind}/{e.digest[:12]}")
        return 1 if corrupt else 0
    if args.store_command == "gc":
        bound = None if args.max_bytes is None else parse_size(args.max_bytes)
        if bound is None and store.max_bytes is None:
            raise SystemExit(
                "gc needs a size bound: pass --max-bytes or set "
                "REPRO_STORE_MAX_BYTES"
            )
        evicted = store.gc(bound)
        print(f"evicted {evicted} entries; "
              f"{format_bytes(store.total_bytes())} remain")
        return 0
    if args.store_command == "clear":
        removed = store.clear()
        print(f"removed {removed} files from {store.root}")
        return 0
    if args.store_command == "stats":
        print(store.stats().format())
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_forever

    _configure_store(args)
    labels = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if not labels:
        raise SystemExit("no scheme given")
    schemes = [get_spec(label).name for label in labels]
    given = {
        "host": args.host,
        "port": args.port,
        "max_inflight": args.max_inflight,
        "max_queue": args.max_queue,
    }
    config = ServeConfig(
        family=args.family,
        n=args.n,
        seed=args.seed,
        schemes=tuple(schemes),
        **{name: value for name, value in given.items() if value is not None},
    )
    for flag, value in (("--max-inflight", config.max_inflight),
                        ("--max-queue", config.max_queue)):
        if value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")
    if not 0 <= config.port <= 65535:
        raise SystemExit(f"--port must be in 0..65535, got {config.port}")
    return serve_forever(config)


def _read_pair_file(path: str) -> list:
    """Parse a batch file: one ``source dest`` (or ``source,dest``)
    pair per line; blank lines and ``#`` comments ignored."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot read pair file: {exc}")
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != 2:
                raise ValueError
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise SystemExit(
                f"{path}:{lineno}: expected 'source dest', got {line!r}"
            )
    return pairs


def _format_route_line(s: int, t: int, route) -> str:
    """One per-pair output line; ``repr`` floats so online and offline
    runs diff bit-identically."""
    return (
        f"{s} {t} cost={route.cost!r} hops={route.hops} "
        f"bits={route.max_header_bits} stretch={route.stretch!r}"
    )


def cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import ProtocolError, ServeClient

    try:
        client = ServeClient(host=args.host, port=args.port,
                             timeout=args.timeout)
        action = args.client_command
        if action == "health":
            doc = client.healthz()
            print(f"status     : {doc.get('status')}")
            print(f"generation : {doc.get('generation')}")
            graph = doc.get("graph", {})
            print(f"graph      : {graph.get('family')} n={graph.get('n')} "
                  f"seed={graph.get('seed')}")
            print(f"uptime     : {doc.get('uptime_s', 0.0):.1f} s")
            return 0
        if action == "schemes":
            doc = client.schemes()
            print(f"default: {doc.get('default')}  "
                  f"loaded: {', '.join(doc.get('loaded', []))}")
            for spec in doc.get("schemes", []):
                print(f"{spec['name']:<22} {spec['stretch_bound']:<18} "
                      f"{spec['summary']}")
            return 0
        if action == "stats":
            import json as _json

            print(_json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if action == "route":
            generation, route = client.route(
                args.source, args.dest, scheme=args.scheme
            )
            print(f"generation : {generation}")
            print(f"dest name  : {route.dest_name}")
            print(f"cost       : {route.cost}")
            print(f"hops       : {route.hops}")
            print(f"hdr bits   : {route.max_header_bits}")
            print(f"stretch    : {route.stretch:.4f}")
            return 0
        if action == "batch":
            return _client_batch(args, client)
        if action == "workload":
            if getattr(args, "scenario", None):
                generation, summary = client.workload(
                    scenario=args.scenario, scheme=args.scheme
                )
            else:
                generation, summary = client.workload(
                    args.kind, args.pairs, seed=args.seed, scheme=args.scheme
                )
            print(f"generation : {generation}")
            print(summary.format())
            return 0
        if action == "reload":
            delta = None
            if getattr(args, "delta", None):
                import json as _json

                text = args.delta
                if not text.lstrip().startswith("{"):
                    try:
                        text = Path(text).read_text(encoding="utf-8")
                    except OSError as exc:
                        raise SystemExit(f"cannot read delta file: {exc}")
                try:
                    delta = _json.loads(text)
                except ValueError as exc:
                    raise SystemExit(f"delta is not valid JSON: {exc}")
            try:
                doc = client.reload(family=args.family, n=args.n,
                                    seed=args.seed, delta=delta)
            except GraphError as exc:
                raise SystemExit(f"malformed delta: {exc}")
            graph = doc.get("graph", {})
            print(f"reloaded   : generation {doc.get('old_generation')} -> "
                  f"{doc.get('generation')}")
            print(f"graph      : {graph.get('family')} n={graph.get('n')} "
                  f"seed={graph.get('seed')}")
            applied = doc.get("delta")
            if applied:
                repair = applied.get("repair") or {}
                mode = ("incremental" if repair.get("incremental")
                        else "full rebuild")
                print(f"delta      : [{','.join(applied.get('ops', []))}] "
                      f"({mode}, network generation "
                      f"{applied.get('network_generation')})")
            return 0
        raise SystemExit(f"unknown client command {action!r}")
    except ProtocolError as exc:
        detail = f"daemon rejected the request ({exc.code}): {exc}"
        choices = exc.extra.get("choices")
        if choices:
            detail += f"\nchoices: {', '.join(map(str, choices))}"
        raise SystemExit(detail)


def _client_batch(args: argparse.Namespace, client) -> int:
    """``repro client batch``: route a pair file through the daemon
    (optionally with concurrent connections, exercising coalescing) or
    — with ``--offline`` — directly through the library, printing the
    identical per-pair lines either way (the CI differential diffs the
    two outputs byte for byte)."""
    pairs = _read_pair_file(args.file)
    if not pairs:
        print("# empty batch", file=sys.stderr)
        return 0
    if args.offline:
        _configure_store(args)
        net = Network.from_family(args.family, args.n, seed=args.seed)
        results = net.router(args.scheme or "stretch6").route_many(pairs)
        for (s, t), route in zip(pairs, results):
            print(_format_route_line(s, t, route))
        return 0
    concurrency = max(1, args.concurrency)
    if concurrency == 1:
        generation, results = client.route_many(pairs, scheme=args.scheme)
        generations = {generation}
    else:
        import threading

        from repro.serve import ServeClient

        size = (len(pairs) + concurrency - 1) // concurrency
        chunks = [pairs[i:i + size] for i in range(0, len(pairs), size)]
        outcomes: list = [None] * len(chunks)

        def work(index: int) -> None:
            worker = ServeClient(host=args.host, port=args.port,
                                 timeout=args.timeout)
            try:
                outcomes[index] = worker.route_many(
                    chunks[index], scheme=args.scheme
                )
            except Exception as exc:  # surfaced after join
                outcomes[index] = exc
            finally:
                worker.close()

        threads = [
            threading.Thread(target=work, args=(i,), daemon=True)
            for i in range(len(chunks))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = []
        generations = set()
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            generation, routes = outcome
            generations.add(generation)
            results.extend(routes)
    for (s, t), route in zip(pairs, results):
        print(_format_route_line(s, t, route))
    print(f"# generation(s): {sorted(generations)}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    net = _network(args)
    print(generate_report(net, seed=args.seed + 1,
                          sample_pairs=args.pairs, k=args.k))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro.api import scheme_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compact roundtrip routing reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scheme_help = "one of: " + ", ".join(scheme_names())

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=36, help="graph size")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument(
            "--family",
            default="random",
            help="graph family (" + "/".join(FAMILY_NAMES) + ")",
        )
        p.add_argument("--k", type=int, default=2, help="tradeoff parameter")
        store_opts(p)

    def store_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="artifact-store root (default: $REPRO_CACHE_DIR, else "
            "~/.cache/repro); an explicit root also enables the store "
            "when REPRO_STORE is off",
        )
        p.add_argument(
            "--no-store",
            action="store_true",
            help="disable the on-disk artifact store for this run "
            "(equivalent to REPRO_STORE=off)",
        )

    p = sub.add_parser("fig1", help="regenerate the Fig. 1 table")
    common(p)
    p.add_argument("--pairs", type=int, default=200)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("stretch", help="stretch distribution of one scheme")
    common(p)
    p.add_argument("--scheme", default="stretch6", help=scheme_help)
    p.add_argument("--pairs", type=int, default=200)
    p.set_defaults(func=cmd_stretch)

    p = sub.add_parser("tables", help="table-composition breakdown")
    common(p)
    p.add_argument("--scheme", default="stretch6", help=scheme_help)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("covers", help="verify a Theorem 13 cover")
    common(p)
    p.add_argument("--scale", type=float, default=8.0)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser(
        "distributed", help="run the distributed construction protocol"
    )
    common(p)
    p.set_defaults(func=cmd_distributed)

    p = sub.add_parser(
        "traffic", help="route a batched traffic workload through schemes"
    )
    common(p)
    p.add_argument(
        "--scheme",
        default="stretch6",
        help="comma-separated list; " + scheme_help,
    )
    p.add_argument(
        "--workload",
        default="mixed",
        choices=WORKLOAD_KINDS,
        help="traffic shape (default: mixed, a 40/40/20 blend of "
        "uniform, hotspot and adversarial pairs)",
    )
    p.add_argument(
        "--pairs",
        type=int,
        default=1000,
        help=f"journeys to route, {CHUNK_PAIRS:,} pairs per engine call "
        "(the summary does not depend on the chunking)",
    )
    p.add_argument(
        "--verbose-cache",
        action="store_true",
        help="print artifact-cache statistics even for one scheme",
    )
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser(
        "schemes", help="list the registered schemes (names, params, bounds)"
    )
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser(
        "scenario",
        help="run, validate and inspect declarative repro-scenario/1 "
        "specs (graph + workload phases + churn + execution matrix + "
        "assertions as data)",
    )
    scen_sub = p.add_subparsers(dest="scenario_command", required=True)
    sp = scen_sub.add_parser(
        "run",
        help="execute spec files: every matrix scheme, phase "
        "workloads, churn events, and declared assertions; exits "
        "nonzero on any assertion miss",
    )
    sp.add_argument("spec", nargs="+", help="spec file path (or inline JSON)")
    sp.add_argument(
        "--smoke",
        action="store_true",
        help="clamp generator graphs and generated phases to smoke "
        "size (what the CI scenario-matrix job runs)",
    )
    store_opts(sp)
    sp.set_defaults(func=cmd_scenario)
    sp = scen_sub.add_parser(
        "validate", help="schema-check spec files without running them"
    )
    sp.add_argument("spec", nargs="+", help="spec file path (or inline JSON)")
    sp.set_defaults(func=cmd_scenario)
    sp = scen_sub.add_parser(
        "list", help="list the committed scenario zoo"
    )
    sp.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="spec directory (default: the repo's scenarios/)",
    )
    sp.set_defaults(func=cmd_scenario)
    sp = scen_sub.add_parser(
        "show", help="print one spec's normalized document (defaults filled)"
    )
    sp.add_argument("spec", help="spec file path (or inline JSON)")
    sp.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "store", help="inspect and manage the on-disk artifact store"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sp = store_sub.add_parser("ls", help="list the store's entries")
    store_opts(sp)
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "verify",
        help="re-checksum every entry; corrupt ones are quarantined "
        "and the exit status is nonzero",
    )
    store_opts(sp)
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a bound"
    )
    store_opts(sp)
    sp.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="size bound (accepts K/M/G suffixes, e.g. 512M); "
        "default: $REPRO_STORE_MAX_BYTES",
    )
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "clear", help="delete every entry (including quarantined files)"
    )
    store_opts(sp)
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "stats",
        help="aggregate statistics (entries, bytes, hit/miss counters)",
    )
    store_opts(sp)
    sp.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "serve",
        help="run the long-lived routing daemon (coalescing broker, "
        "warm artifact cache, graceful /reload)",
    )
    common(p)
    p.add_argument(
        "--scheme",
        default="stretch6",
        help="comma-separated schemes to pre-build; the first is the "
        "daemon default; " + scheme_help,
    )
    # An omitted flag keeps ServeConfig's default (read in cmd_serve,
    # so building the parser does not import the daemon).
    p.add_argument("--host", help="bind address")
    p.add_argument(
        "--port", type=int, help="bind port (0 picks an ephemeral port)"
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        help="concurrent requests admitted before shedding with 429",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        help="pending pairs queued per scheme before shedding with 429; "
        "also the largest /route_many request and coalesced batch",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client", help="talk to a running repro serve daemon"
    )
    client_sub = p.add_subparsers(dest="client_command", required=True)

    def client_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--host", default="127.0.0.1", help="daemon host")
        sp.add_argument(
            "--port", type=int, default=8577, help="daemon port"
        )
        sp.add_argument(
            "--timeout", type=float, default=120.0, help="socket timeout"
        )
        sp.set_defaults(func=cmd_client)

    sp = client_sub.add_parser("health", help="liveness / generation probe")
    client_opts(sp)
    sp = client_sub.add_parser("schemes", help="the daemon's scheme registry")
    client_opts(sp)
    sp = client_sub.add_parser(
        "stats", help="server, broker and session statistics (JSON)"
    )
    client_opts(sp)
    sp = client_sub.add_parser("route", help="route one source/dest pair")
    sp.add_argument("source", type=int)
    sp.add_argument("dest", type=int)
    sp.add_argument(
        "--scheme", default=None, help="scheme (default: daemon default)"
    )
    client_opts(sp)
    sp = client_sub.add_parser(
        "batch",
        help="route a pair file ('source dest' per line); --offline "
        "routes it directly through the library with identical output",
    )
    sp.add_argument(
        "--file", required=True, help="pair file path, or - for stdin"
    )
    sp.add_argument(
        "--scheme", default=None, help="scheme (default: daemon default)"
    )
    sp.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="split the batch over this many concurrent connections "
        "(exercises the daemon's coalescing broker)",
    )
    sp.add_argument(
        "--offline",
        action="store_true",
        help="skip the daemon: build the graph locally and route the "
        "same pairs directly (for bit-identity diffs)",
    )
    sp.add_argument("--family", default="random", help="graph family "
                    "(--offline only; must match the daemon's)")
    sp.add_argument("--n", type=int, default=64, help="graph size "
                    "(--offline only)")
    sp.add_argument("--seed", type=int, default=0, help="graph seed "
                    "(--offline only)")
    store_opts(sp)
    client_opts(sp)
    sp = client_sub.add_parser(
        "workload",
        help="replay a named workload on the daemon (summary is "
        "bit-identical to 'repro traffic' with the same seed)",
    )
    sp.add_argument(
        "--kind", default="mixed", choices=WORKLOAD_KINDS,
        help="traffic shape",
    )
    sp.add_argument("--pairs", type=int, default=200, help="journeys")
    sp.add_argument("--seed", type=int, default=0, help="workload seed")
    sp.add_argument(
        "--scheme", default=None, help="scheme (default: daemon default)"
    )
    sp.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="replay a repro-scenario/1 spec's workload phases against "
        "the daemon's loaded graph (ignores --kind/--pairs/--seed; the "
        "spec's graph/matrix blocks do not apply; event-carrying specs "
        "are rejected)",
    )
    client_opts(sp)
    sp = client_sub.add_parser(
        "reload", help="swap the daemon's graph snapshot gracefully"
    )
    sp.add_argument("--family", default=None, help="new graph family")
    sp.add_argument("--n", type=int, default=None, help="new graph size")
    sp.add_argument("--seed", type=int, default=None, help="new graph seed")
    sp.add_argument(
        "--delta",
        default=None,
        metavar="FILE",
        help="GraphDelta JSON ({\"ops\": [...]}; a file path or inline "
        "JSON): evolve the current generation's topology instead of "
        "building a fresh snapshot (mutually exclusive with "
        "--family/--n/--seed)",
    )
    client_opts(sp)

    p = sub.add_parser(
        "report", help="generate a full markdown reproduction report"
    )
    common(p)
    p.add_argument("--pairs", type=int, default=200)
    p.set_defaults(func=cmd_report)
    return parser


#: subcommands whose ``--pairs`` sizes a stretch sample; an empty
#: sample measures nothing, so they need at least one pair
_SAMPLING_COMMANDS = ("fig1", "stretch", "report")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.  A library error (any :class:`ReproError`)
    exits 1 with its message as the one line printed."""
    args = build_parser().parse_args(argv)
    least = 1 if args.command in _SAMPLING_COMMANDS else 0
    if getattr(args, "pairs", least) < least:
        raise SystemExit(f"--pairs must be >= {least}, got {args.pairs}")
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
