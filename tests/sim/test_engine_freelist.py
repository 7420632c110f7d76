"""Timeout/_Call freelist: no per-op object growth on warm launches.

The engine recycles :class:`~repro.sim.engine.Timeout` and ``_Call``
entries through small freelists.  Once the pools warm up, steady-state
execution must allocate *zero* new entries per operation — the
``*_created`` counters go flat while ``*_reused`` keeps climbing — on
the fused-timeline path and, crucially, on the generator path too (a
registered tool keeps every op on it), where every yield is a fresh
wait.
"""

import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.sim.engine import Simulator
from repro.somier.driver import run_somier
from tests.conftest import CallbackLog


class TestEngineLevelReuse:
    def test_sequential_timeouts_reuse_one_object(self):
        sim = Simulator()

        def proc():
            for _ in range(5000):
                yield sim.timeout(0.25)

        sim.run(sim.process(proc()))
        st = sim.engine_stats()
        # One live waiter at a time: the pool never needs a second entry
        # beyond warmup slack.
        assert st["timeouts_created"] <= 4
        assert st["timeouts_reused"] >= 4996
        assert st["calls_created"] <= 4

    def test_concurrent_waiters_bound_pool_growth(self):
        sim = Simulator()

        def proc():
            for _ in range(200):
                yield sim.timeout(0.5)

        for _ in range(16):
            sim.process(proc())
        sim.run()
        st = sim.engine_stats()
        # Pool demand is bounded by peak concurrency, not op count.
        assert st["timeouts_created"] <= 32
        assert st["timeouts_reused"] >= 16 * 200 - 32


def _engine_stats(steps, fused):
    topo, cm = paper_machine(4, n_functional=24)
    cfg = paper_somier_config(n_functional=24, steps=steps)
    res = run_somier("one_buffer", cfg, devices=paper_devices(4),
                     topology=topo, cost_model=cm, trace=False,
                     tools=() if fused else (CallbackLog(),))
    return res.runtime.sim.engine_stats()


class TestWarmLaunchRegression:
    @pytest.mark.parametrize("fused", [False, True],
                             ids=["generator-path", "fused-timeline"])
    def test_created_flat_across_warm_launches(self, fused):
        """Doubling the step count (all warm, plan-cache hits) must not
        grow the created counters at all: every extra op is a reuse."""
        short = _engine_stats(4, fused)
        long = _engine_stats(8, fused)
        assert long["events_scheduled"] > short["events_scheduled"]
        assert long["timeouts_created"] == short["timeouts_created"]
        assert long["calls_created"] == short["calls_created"]
        assert long["timeouts_reused"] > short["timeouts_reused"]
        assert long["calls_reused"] > short["calls_reused"]

    def test_generator_path_reuse_dominates(self):
        """Even on the generator path, reuse beats creation by orders of
        magnitude."""
        st = _engine_stats(8, False)
        assert st["fused_segments"] == 0
        assert st["timeouts_reused"] > 100 * st["timeouts_created"]
        assert st["calls_reused"] > 10 * st["calls_created"]
