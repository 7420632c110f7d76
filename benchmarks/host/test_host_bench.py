"""Checks of the host benchmark's own machinery.

    PYTHONPATH=src python -m pytest benchmarks/host -q
"""

from __future__ import annotations

import cProfile
import os
import pstats
import random

import numpy as np
import pytest

import compare
import repro
import run
import workloads
from layers import LAYERS, attribute, layer_of_module, module_of_path
from worker import Child

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(repro.__file__)
NAMES = [w["name"] for w in run.SPEC["workloads"]]


def test_every_repro_module_maps_to_a_named_layer():
    modules = [module_of_path(os.path.join(d, f), PACKAGE)
               for d, _, files in os.walk(PACKAGE)
               for f in files if f.endswith(".py")]
    assert len(modules) > 50
    unmapped = [m for m in modules if layer_of_module(m) == "other"]
    assert unmapped == []
    assert layer_of_module("repro.sim.engine") == "sim.engine"
    assert layer_of_module("repro.sim.trace") == "obs"
    assert layer_of_module("repro.somier.kernels") == "payload"
    assert layer_of_module("repro.somier.driver") == "app"


@pytest.mark.parametrize("n", [1, 5, 19, 20, 39, 40, 41, 99, 100, 999,
                               1000, 5000, 12000])
def test_tail_percentiles_have_ten_samples_beyond(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    tails = run.tail_percentiles(samples)
    assert tails["p50"] == pytest.approx(np.median(samples))
    for name, value in tails.items():
        if name != "p50":
            assert sum(1 for s in samples if s > value) >= 10
    if n >= 40:
        assert len(tails) == 2


def test_benchmark_json_lists_exactly_the_computed_metrics():
    counts = dict.fromkeys(workloads.runtime_counts([]), 1)
    for launch_s in ([], [1e-5]):
        child = {"run_s": [1.0, 2.0], "launch_s": launch_s, "setup_s": 1.0,
                 "peak_rss_mb": 10.0, "counts": counts, "traced_s": [2.0],
                 "traced_launch_s": [2e-5], "profiled_s": 1.0,
                 "layer_s": dict.fromkeys(LAYERS, 0.1)}
        assert set(run.end_to_end([child])) == \
            {m["name"] for m in run.SPEC["end_to_end"]}
        assert set(run.per_layer(child)) == \
            {m["name"] for m in run.SPEC["per_layer"]}
    assert set(NAMES) == {"somier-n24", "somier-n96", "spread-warm",
                          "cluster-sweep", "somier-analyze"}


@pytest.mark.parametrize("name", ["somier-n24", "spread-warm"])
def test_traced_shares_sum_to_one(name):
    w = workloads.build(name, 0)
    w.unit()
    prof = cProfile.Profile()
    w.unit(prof)
    stats = pstats.Stats(prof).stats
    seconds = attribute(stats, PACKAGE, HERE)
    total = sum(entry[2] for entry in stats.values())
    assert sum(seconds.values()) == pytest.approx(total, rel=0.02)
    assert seconds["other"] < 0.02 * total


def _flip_bit(arr: np.ndarray) -> None:
    bits = arr.reshape(-1).view(np.uint64)
    bits[bits.size // 2] ^= 1


@pytest.mark.parametrize("name", NAMES)
def test_unit_passes_and_corruption_fails(name):
    w = workloads.build(name, 1)
    result = w.unit()
    assert w.check(result) == []
    if name == "spread-warm":
        rt, b, _ = result
        _flip_bit(b)
        assert w.check(result) != []
        _flip_bit(b)
        rt.sim.now += 1e-9
        assert w.check(result) != []
    else:
        res, _report = result[-1]
        _flip_bit(res.state.grids["vel_z"])
        assert w.check(result) != []
        _flip_bit(res.state.grids["vel_z"])
        assert w.check(result) == []
        res.elapsed = np.nextafter(res.elapsed, np.inf)
        assert w.check(result) != []


def test_failed_units_are_counted():
    child = Child("spread-warm", 0)
    unit = child.workload.unit

    def corrupted(profiler=None):
        rt, b, samples = unit(profiler)
        b[0] += 1.0
        return rt, b, samples

    child.unit()
    child.workload.unit = corrupted
    child.unit()
    assert (child.attempted, child.failed) == (2, 1)


@pytest.mark.parametrize("parent,change,better,expected", [
    ([1.0] * 10, [1.0] * 10, "lower", "no change"),
    ([1.0] * 10, [1.2] * 10, "lower", "regressed"),
    ([1.0] * 10, [0.8] * 10, "lower", "improved"),
    ([1.0] * 10, [1.2] * 10, "higher", "improved"),
    ([1.0] * 3, [0.8] * 3, "lower", "no change"),
    ([1.0, 1.5, 1.0, 1.5], [1.02] * 4, "lower", "unresolved"),
    ([1.0, 1.5, 1.0, 1.5], [0.9] * 4, "lower", "no change"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1) == expected
