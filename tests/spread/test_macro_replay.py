"""Macro-op replay engine: bit identity against the object path.

The acceptance contract of :mod:`repro.spread.macro` is the same as the
plan cache's, one level down: replaying a *compiled* macro-op program must
be observationally indistinguishable from the generic paths.  Same virtual
clock, same trace events, same results, same sanitizer/analyzer output —
against the cold ``plan_cache=False`` run with the same observers, against
a run with a tool registered (which replays cache hits through the object
path), and across seeded device-loss failover.
"""

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.depend import Dep
from repro.sim.topology import cte_power_node
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_data_spread,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread,
    target_spread_teams_distribute_parallel_for,
    target_update_spread,
)
from repro.spread import macro
from tests.conftest import CallbackLog

S, Z = omp_spread_start, omp_spread_size
N = 64
DEVICES = [0, 1, 2, 3]
ITERS = 5


pytestmark = pytest.mark.usefixtures("plain_env")


def make_rt(**kw):
    kw.setdefault("topology", cte_power_node(4, memory_bytes=1e9))
    kw.setdefault("trace", True)
    return OpenMPRuntime(**kw)


def double_kernel():
    def body(lo, hi, env):
        a, b = env["A"], env["B"]
        b[lo:hi] = a[lo:hi] * 2.0 + 1.0

    return KernelSpec("double", body)


def incr_kernel():
    def body(lo, hi, env):
        x = env["X"]
        x[lo:hi] = x[lo:hi] * 2.0 + 1.0

    return KernelSpec("incr", body)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _composite_run(plan_cache=True, tools=(), depends=False, **rt_kw):
    """One run exercising all six spread directives, ITERS times over.

    Covers ``target spread`` (bare), the combined teams directive, enter/
    exit data, the structured data region and ``target update spread``.
    Only the two kernel directives macro-replay their plan-cache hits; the
    data directives' hits go through the object path, interleaved with the
    replayed launches.  With ``depends=True`` the kernel launches carry
    depend clauses, so the replay goes through the two-phase DependTracker
    protocol.
    """
    rt = make_rt(plan_cache=plan_cache, **rt_kw)
    for tool in tools:
        rt.tools.register(tool)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)
    dbl, inc = double_kernel(), incr_kernel()
    X = np.arange(float(N))
    vX = Var("X", X)

    def program(omp):
        yield from target_enter_data_spread(
            omp, DEVICES, (0, N), None,
            [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
        for _ in range(ITERS):
            deps = [Dep.out(vB, (S, Z))] if depends else []
            yield from target_spread_teams_distribute_parallel_for(
                omp, dbl, 0, N, DEVICES,
                maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                depends=deps, nowait=True)
            yield from omp.taskwait()
            yield from target_update_spread(
                omp, DEVICES, (0, N), None, from_=[(vB, (S, Z))])
        yield from target_exit_data_spread(
            omp, DEVICES, (0, N), None,
            [Map.release(vA, (S, Z)), Map.from_(vB, (S, Z))])
        # structured data region + bare target spread inside it
        for _ in range(ITERS):
            region = yield from target_data_spread(
                omp, DEVICES, (0, N), None, [Map.tofrom(vX, (S, Z))])
            yield from target_spread(omp, inc, 0, N, DEVICES,
                                     maps=[Map.tofrom(vX, (S, Z))])
            yield from region.end()

    rt.run(program)
    return rt, A, B, X


def _expected_X(iters=ITERS):
    X = np.arange(float(N))
    for _ in range(iters):
        X = X * 2.0 + 1.0
    return X


def _assert_identical(rt_on, rt_off, results_on, results_off):
    assert rt_on.elapsed == rt_off.elapsed
    for a, b in zip(results_on, results_off):
        assert np.array_equal(a, b)
    if rt_on.trace is not None and rt_off.trace is not None:
        assert _event_tuples(rt_on.trace) == _event_tuples(rt_off.trace)


class TestBitIdentity:
    def test_macro_on_vs_off(self):
        """Replay matches the object path, which a registered tool forces
        on every plan-cache hit."""
        rt_on, A, B_on, X_on = _composite_run()
        rt_off, _, B_off, X_off = _composite_run(tools=(CallbackLog(),))
        assert rt_on.plan_cache.macro_replays > 0
        assert rt_on.plan_cache.macro_compiles > 0
        assert rt_off.plan_cache.hits > 0
        assert rt_off.plan_cache.macro_replays == 0
        assert rt_off.plan_cache.macro_compiles == 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert np.array_equal(B_on, A * 2.0 + 1.0)
        assert np.array_equal(X_on, _expected_X())

    def test_macro_on_vs_cache_off(self):
        """Replay must also match fully uncached (cold every time)."""
        rt_on, _, B_on, X_on = _composite_run()
        rt_cold, _, B_cold, X_cold = _composite_run(plan_cache=False)
        assert rt_cold.plan_cache.macro_replays == 0
        _assert_identical(rt_on, rt_cold, (B_on, X_on), (B_cold, X_cold))

    def test_depend_replay_identity(self):
        """Two-phase DependTracker replay matches submit_spread's."""
        rt_on, _, B_on, X_on = _composite_run(depends=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 depends=True)
        assert rt_on.plan_cache.macro_replays > 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))

    def test_deterministic_run_to_run(self):
        rt1, _, B1, X1 = _composite_run()
        rt2, _, B2, X2 = _composite_run()
        _assert_identical(rt1, rt2, (B1, X1), (B2, X2))
        assert rt1.plan_cache.stats == rt2.plan_cache.stats


class TestObserverGating:
    """Anything that observes per-op bookkeeping must force the object
    path — and the run must still match the cold run with the same
    observer."""

    def test_tools_disengage_macro(self):
        tool_on, tool_off = CallbackLog(), CallbackLog()
        rt_on, _, B_on, X_on = _composite_run(tools=(tool_on,))
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 tools=(tool_off,))
        assert rt_on.plan_cache.macro_replays == 0  # tools observe ops
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        for point in ("task_create", "kernel_launch", "data_op"):
            assert tool_on.counts[point] == tool_off.counts[point] > 0

    def test_sanitizer_identity(self):
        rt_on, _, B_on, X_on = _composite_run(sanitize=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 sanitize=True)
        assert rt_on.sanitizer is not None
        assert rt_on.plan_cache.macro_replays == 0  # sanitizer armed
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert rt_on.sanitizer.races == rt_off.sanitizer.races == 0

    def test_analyzer_critpath_identity(self):
        rt_on, _, B_on, X_on = _composite_run(analyze=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 analyze=True)
        assert rt_on.plan_cache.macro_replays > 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        rep_on = rt_on.analysis().report()
        rep_off = rt_off.analysis().report()
        assert rep_on == rep_off


class TestFailover:
    def test_device_loss_identity(self):
        kw = dict(faults="device@1:#2", fault_seed=7)
        rt_on, _, B_on, X_on = _composite_run(**kw)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False, **kw)
        assert rt_on.lost_devices == rt_off.lost_devices != frozenset()
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert np.array_equal(X_on, _expected_X())

    def test_device_loss_drops_compiled_programs(self):
        """Eviction is atomic: a dropped plan takes its program along."""
        rt, _, _, _ = _composite_run()
        stats = rt.plan_cache.stats
        assert stats["macro_entries"] > 0
        before = len(rt.plan_cache)
        dropped = rt.plan_cache.invalidate_devices((DEVICES[1],))
        assert dropped == before  # every plan routes to every device here
        after = rt.plan_cache.stats
        assert after["entries"] == 0
        assert after["macro_entries"] == 0
        assert after["invalidations"] == stats["invalidations"] + dropped

    def test_no_macro_engagement_after_loss(self):
        rt, _, _, X = _composite_run(faults="device@1:#1", fault_seed=3)
        assert rt.lost_devices
        assert not macro.engaged(rt)
        assert np.array_equal(X, _expected_X())


class TestCountersAndKnobs:
    def test_macro_counters(self):
        rt, _, _, _ = _composite_run()
        st = rt.plan_cache.stats
        # The teams exec, the update, the region and the bare exec each
        # repeat ITERS times (4 hits each); enter/exit run once.  Only the
        # two kernel directives compile (on their first hit) and replay:
        # data-directive hits count as plan hits but never compile.
        assert st["hits"] == 16
        assert st["macro_compiles"] == st["macro_entries"] == 2
        assert st["macro_replays"] == 8

    def test_uncompilable_plan_tried_once(self):
        """A plan the compiler rejects leaves the False sentinel so the
        attempt is not repeated on every hit."""
        from repro.spread.plan_cache import SpreadPlanCache

        cache = SpreadPlanCache()
        cache.store("k", "plan")
        cell = cache.lookup("k")
        calls = []

        def fail():
            calls.append(1)
            return None

        assert macro.program_for(cache, cell, fail) is None
        assert macro.program_for(cache, cell, fail) is None
        assert len(calls) == 1
        assert cache.macro_compiles == 0
        assert cache.stats["macro_entries"] == 0  # sentinel is not a program

    def test_program_arrays_well_formed(self):
        rt, _, _, _ = _composite_run()
        progs = [cell[1] for cell in rt.plan_cache._plans.values()
                 if cell[1] not in (None, False)]
        assert progs
        for prog in progs:
            assert prog.well_formed()
        bad = macro.MacroRecord(0, 5, 4, (), (), "k", "k", 0)
        assert not macro.MacroProgram([bad]).well_formed()
