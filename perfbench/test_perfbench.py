"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The self-check drives every workload end to end at a tiny size; the
rest show that the checks catch wrong outputs and that inputs depend
only on the seed.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import inputs
import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_self_check_passes():
    proc = subprocess.run([sys.executable, RUN, "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-check ok"


def test_route_check_flags_cost_below_r_and_stretch_above_bound():
    r = np.array([[0.0, 4.0], [4.0, 0.0]])
    chk = workloads.Checker()
    chk.routes("ok", [0, 1], [1, 0], [4.0, 24.0], [1.0, 6.0], r, 6)
    assert chk.problems == []
    chk.routes("low", [0], [1], [3.9], [0.975], r, 6)
    chk.routes("high", [1], [0], [24.1], [6.025], r, 6)
    assert len(chk.problems) == 2
    assert "cost" in chk.problems[0] and "stretch" in chk.problems[1]


def test_failed_operations_miss_every_percentile_they_reach():
    lat = [0.001] * 98 + [math.inf] * 2
    assert workloads.percentile(lat, 50) == 0.001
    assert workloads.percentile(lat, 99) == math.inf


def test_churn_deltas_keep_the_graph_strongly_connected():
    n = 24
    quads = inputs.random_graph_quads(n, 1)
    model = inputs.EdgeModel(n, quads)
    ops = inputs.churn_ops(inputs.rng_for("churn", 3, "deltas"), model, 60)
    replay = inputs.EdgeModel(n, quads)
    for op in ops:
        inputs.apply_op(replay, op)
        for u in range(n):
            assert _reachable(replay, u) == set(range(n))
    assert replay.weights == model.weights
    assert [op[0] for op in ops[:3]] == list(inputs.CHURN_CYCLE)


def _reachable(model, u):
    seen, stack = {u}, [u]
    while stack:
        for y in model.out[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def test_inputs_depend_only_on_the_seed():
    def digest(seed):
        d = inputs.Digest()
        d.add("codes", inputs.distinct_pair_codes(seed, 16))
        z = inputs.ZipfPairs(inputs.rng_for("w", seed, "requests"),
                             inputs.rng_for("w", 1, "popularity"), 16, 1.2)
        d.add("zipf", z.draw(50))
        return d.hexdigest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_pair_codes_cover_every_ordered_pair_once():
    n = 7
    pairs = inputs.decode_pairs(inputs.distinct_pair_codes(2, n), n)
    assert sorted(pairs) == [(s, t) for s in range(n) for t in range(n) if s != t]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_every_declared_metric(name):
    root = os.path.dirname(os.path.dirname(RUN))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.E2E)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.LAYERS)
    assert name in [w["name"] for w in spec["workloads"]]
