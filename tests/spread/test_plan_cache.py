"""Launch-plan cache: replay must be bit-identical to cold lowering.

The acceptance contract of the cache is behavioural invisibility: a run
with the cache enabled (replaying plans from the second timestep on) must
produce exactly the same virtual timeline, trace events, results and
device statistics as (a) the same run with ``plan_cache=False`` and (b) a
fresh cold run.  The cache may only change *host* wall-clock cost.
"""

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.obs import ProfileReport
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.depend import Dep
from repro.sim.topology import cte_power_node
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    spread_schedule,
    target_data_spread,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread,
    target_spread_teams_distribute_parallel_for,
    target_update_spread,
)
from repro.spread import extensions as ext
from repro.spread import plan_cache as pc
from repro.spread.plan_cache import SpreadPlanCache
from tests.conftest import CallbackLog

S, Z = omp_spread_start, omp_spread_size
N = 64
DEVICES = [0, 1, 2, 3]
ITERS = 6


def make_rt(plan_cache=True, trace=True):
    return OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9),
                         trace=trace, plan_cache=plan_cache)


def double_kernel():
    def body(lo, hi, env):
        a, b = env["A"], env["B"]
        b[lo:hi] = a[lo:hi] * 2.0 + 1.0

    return KernelSpec("double", body)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _composite_run(plan_cache=True, tools=()):
    """One run exercising every cacheable directive, ITERS times over."""
    rt = make_rt(plan_cache=plan_cache)
    for tool in tools:
        rt.tools.register(tool)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)
    kern = double_kernel()

    def program(omp):
        yield from target_enter_data_spread(
            omp, DEVICES, (0, N), None,
            [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
        for _ in range(ITERS):
            yield from target_spread_teams_distribute_parallel_for(
                omp, kern, 0, N, DEVICES,
                maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                nowait=True)
            yield from omp.taskwait()
            yield from target_update_spread(
                omp, DEVICES, (0, N), None, from_=[(vB, (S, Z))])
        yield from target_exit_data_spread(
            omp, DEVICES, (0, N), None,
            [Map.release(vA, (S, Z)), Map.from_(vB, (S, Z))])

    rt.run(program)
    return rt, A, B


class TestBitIdentity:
    def test_cached_replay_matches_uncached_run(self):
        rt_on, A, B_on = _composite_run(plan_cache=True)
        rt_off, _, B_off = _composite_run(plan_cache=False)
        # the cache actually replayed (one miss per distinct directive)...
        assert rt_on.plan_cache.hits > 0
        assert rt_on.plan_cache.misses == 4  # enter, exec, update, exit
        assert rt_off.plan_cache.hits == rt_off.plan_cache.misses == 0
        # ...without changing a single bit of the run
        assert rt_on.elapsed == rt_off.elapsed
        assert np.array_equal(B_on, B_off)
        assert np.array_equal(B_on, A * 2.0 + 1.0)
        assert _event_tuples(rt_on.trace) == _event_tuples(rt_off.trace)

    def test_replay_is_deterministic_run_to_run(self):
        rt1, _, B1 = _composite_run(plan_cache=True)
        rt2, _, B2 = _composite_run(plan_cache=True)
        assert rt1.elapsed == rt2.elapsed
        assert np.array_equal(B1, B2)
        assert _event_tuples(rt1.trace) == _event_tuples(rt2.trace)
        assert rt1.plan_cache.stats == rt2.plan_cache.stats

    def test_somier_end_to_end_unchanged(self):
        from repro.bench.machines import (paper_devices, paper_machine,
                                          paper_somier_config)
        from repro.somier import run_somier

        topo, cm = paper_machine(4, n_functional=24)
        cfg = paper_somier_config(n_functional=24, steps=3)

        def run(flag):
            return run_somier("one_buffer", cfg, devices=paper_devices(4),
                              topology=topo, cost_model=cm, plan_cache=flag)

        on, off = run(True), run(False)
        assert on.stats["plan_cache_hits"] > 0
        assert off.stats["plan_cache_hits"] == 0
        assert on.elapsed == off.elapsed
        assert np.array_equal(on.centers, off.centers)
        for k in off.state.grids:
            assert np.array_equal(on.state.grids[k], off.state.grids[k])
        assert _event_tuples(on.runtime.trace) == \
            _event_tuples(off.runtime.trace)
        # identical device work either way
        for key in ("h2d_bytes", "d2h_bytes", "memcpy_calls",
                    "kernels_launched", "tasks"):
            assert on.stats[key] == off.stats[key]


class TestCacheBehaviour:
    def test_repeat_directive_hits(self):
        rt, _, _ = _composite_run(plan_cache=True)
        # enter/exit run once (1 miss, 0 hits each); exec + update run
        # ITERS times (1 miss, ITERS-1 hits each)
        assert rt.plan_cache.misses == 4
        assert rt.plan_cache.hits == 2 * (ITERS - 1)
        assert len(rt.plan_cache) == 4

    def test_data_region_cached_as_pair(self):
        rt = make_rt()
        A = np.arange(float(N))
        vA = Var("A", A)

        def program(omp):
            for _ in range(3):
                region = yield from target_data_spread(
                    omp, DEVICES, (0, N), None, [Map.tofrom(vA, (S, Z))])
                yield from region.end()

        rt.run(program)
        assert rt.plan_cache.misses == 1
        assert rt.plan_cache.hits == 2
        for env in rt.dataenvs:
            assert env.is_empty()

    def test_dynamic_schedule_never_cached(self):
        rt = make_rt()
        ext.enable(rt, schedules=True)
        A, B = np.arange(float(N)), np.zeros(N)
        vA, vB = Var("A", A), Var("B", B)
        kern = double_kernel()

        def program(omp):
            for _ in range(2):
                yield from target_spread(
                    omp, kern, 0, N, DEVICES,
                    schedule=spread_schedule("dynamic", 16),
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))])

        rt.run(program)
        assert rt.plan_cache.hits == 0
        assert rt.plan_cache.misses == 0
        assert len(rt.plan_cache) == 0
        assert np.array_equal(B, A * 2.0 + 1.0)

    def test_no_plan_cache_flag_disables_store(self):
        cache = SpreadPlanCache(enabled=False)
        cache.store(("k",), "plan")
        assert cache.lookup(("k",)) is None
        assert len(cache) == 0
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0,
                               "invalidations": 0, "macro_compiles": 0,
                               "macro_replays": 0, "macro_entries": 0}

    def test_unhashable_key_falls_back_silently(self):
        cache = SpreadPlanCache()
        key = ("exec", [1, 2])  # list: unhashable
        cache.store(key, "plan")
        assert cache.lookup(key) is None
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0,
                               "invalidations": 0, "macro_compiles": 0,
                               "macro_replays": 0, "macro_entries": 0}

    def test_none_key_not_counted(self):
        cache = SpreadPlanCache()
        assert cache.lookup(None) is None
        cache.store(None, "plan")
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0,
                               "invalidations": 0, "macro_compiles": 0,
                               "macro_replays": 0, "macro_entries": 0}


class TestKeySensitivity:
    def _key(self, kern, vA, vB, lo=0, hi=N, devices=(0, 1),
             sched=("static", None), maps=None, depends=()):
        if maps is None:
            maps = [Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))]
        return pc.exec_key(kern, lo, hi, devices, sched, maps, depends)

    def test_identical_calls_same_key(self):
        A, B = np.zeros(8), np.zeros(8)
        vA, vB = Var("A", A), Var("B", B)
        kern = double_kernel()
        assert self._key(kern, vA, vB) == self._key(kern, vA, vB)

    def test_each_component_changes_key(self):
        A, B = np.zeros(8), np.zeros(8)
        vA, vB = Var("A", A), Var("B", B)
        kern = double_kernel()
        base = self._key(kern, vA, vB)
        assert self._key(double_kernel(), vA, vB) != base  # other kernel
        assert self._key(kern, vA, vB, lo=1) != base
        assert self._key(kern, vA, vB, hi=N - 1) != base
        assert self._key(kern, vA, vB, devices=(1, 0)) != base
        assert self._key(kern, vA, vB, sched=("static", 4)) != base
        assert self._key(kern, vA, vB,
                         maps=[Map.tofrom(vA, (S, Z)),
                               Map.from_(vB, (S, Z))]) != base
        assert self._key(kern, vA, vB,
                         maps=[Map.to(vA, (S - 1, Z + 2)),
                               Map.from_(vB, (S, Z))]) != base
        assert self._key(kern, vA, vB,
                         depends=(Dep.out(vB, (S, Z)),)) != base
        # a *new* Var over the same array is a different binding
        assert self._key(kern, Var("A", A), vB) != base

    def test_dynamic_signature_yields_no_key(self):
        A, B = np.zeros(8), np.zeros(8)
        vA, vB = Var("A", A), Var("B", B)
        assert self._key(double_kernel(), vA, vB, sched=None) is None


class TestMetricsWiring:
    def test_plan_cache_and_memo_counters(self):
        log = CallbackLog("plan_cache")
        rt, _, _ = _composite_run(plan_cache=True, tools=(log,))
        hits = log.of("plan_cache", hit=True)
        assert len(hits) == rt.plan_cache.hits
        assert len(log.of("plan_cache", hit=False)) == rt.plan_cache.misses
        assert len([kw for kw in hits
                    if kw["kind"] == "target spread"]) == ITERS - 1
        # the present-table memo fired on the repeated lookups
        assert log.counts["data_op"] > 0
        assert sum(env.memo_hits for env in rt.dataenvs) > 0
        counters = ProfileReport(rt).counters()
        assert (counters["plan_cache_hits"], counters["plan_cache_misses"]) \
            == (rt.plan_cache.hits, rt.plan_cache.misses)

    def test_report_renders_plan_cache_totals(self):
        rt, _, _ = _composite_run(plan_cache=True)
        report = ProfileReport(rt)
        text = report.render_text()
        assert "plan cache:" in text
        assert f"{rt.plan_cache.hits:d} hits" in text
        assert f"{rt.plan_cache.macro_replays:d} macro replays" in text
        row = report.per_device_rows()[0]
        assert row["memo_hits"] == rt.dataenvs[0].memo_hits


class TestLossInvalidationPoisoning:
    """Device/node loss must leave stale cell holders inert.

    A directive mid-flight (or a handle adopting replay state) may hold a
    ``[plan, macro_state]`` cell looked up *before* the loss.  Invalidation
    must both drop the key from the store and poison the held cell — plan
    slot cleared, macro slot forced to the ``False`` never-compile
    sentinel — so the holder can neither replay the stale plan nor
    compile-and-adopt a macro program derived from it.
    """

    def _seeded(self):
        from repro.spread.plan_cache import SpreadPlan

        cache = SpreadPlanCache()
        plan = SpreadPlan(devices=(0, 1), chunks=(), chunk_plans=())
        cache.store("k", plan)
        return cache, cache.lookup("k")

    def test_invalidation_drops_key_and_poisons_cell(self):
        cache, cell = self._seeded()
        assert cache.invalidate_devices((1,)) == 1
        assert len(cache) == 0
        assert cell[0] is None
        assert cell[1] is False

    def test_poisoned_cell_never_compiles_macro(self):
        from repro.spread import macro

        cache, cell = self._seeded()
        cache.invalidate_devices((0,))
        calls = []
        assert macro.program_for(cache, cell,
                                 lambda: calls.append(1)) is None
        assert not calls
        assert cache.macro_compiles == 0
        assert cache.macro_replays == 0

    def test_poisoning_does_not_leak_into_fresh_cell(self):
        from repro.spread.plan_cache import SpreadPlan

        cache, stale = self._seeded()
        cache.invalidate_devices((1,))
        fresh_plan = SpreadPlan(devices=(0, 1), chunks=(), chunk_plans=())
        cache.store("k", fresh_plan)
        fresh = cache.lookup("k")
        assert fresh is not stale
        assert fresh[0] is fresh_plan and fresh[1] is None
        assert stale[0] is None and stale[1] is False

    def test_invalidate_devices_sweeps_all_node_devices_in_one_pass(self):
        from repro.spread.plan_cache import SpreadPlan
        from repro.spread.schedule import StaticSchedule

        cache = SpreadPlanCache()
        for key, devs in (("a", (0, 1)), ("b", (2, 3)), ("c", (4, 5))):
            chunks = tuple(StaticSchedule(4).chunks(0, 8, list(devs)))
            cache.store(key, SpreadPlan(devices=devs, chunks=chunks,
                                        chunk_plans=()))
        cells = {k: cache.lookup(k) for k in ("a", "b", "c")}
        assert cache.invalidate_devices((2, 3, 4)) == 2
        assert len(cache) == 1
        assert cells["a"][0] is not None
        for k in ("b", "c"):
            assert cells[k][0] is None and cells[k][1] is False

    def test_runtime_device_loss_poisons_held_cells(self):
        """Regression: seeded loss mid-run must poison every cell that
        routed work to the lost device, macro state included."""
        rt, _, _ = _composite_run(plan_cache=True)
        cache = rt.plan_cache
        held = {k: cache._plans[k] for k in list(cache._plans)}
        lost_keys = [k for k, cell in held.items()
                     if any(1 in getattr(p, "devices", ())
                            for p in (cell[0] if isinstance(cell[0], tuple)
                                      else (cell[0],)))]
        rt.mark_device_lost(1)
        assert lost_keys
        for k in lost_keys:
            assert k not in cache._plans
            assert held[k][0] is None
            assert held[k][1] is False

    def test_somier_results_unchanged_after_seeded_device_loss(self):
        from repro.somier import SomierConfig, run_somier

        cfg = SomierConfig(n=18, steps=3)
        topo = cte_power_node(4, memory_bytes=1e9)
        clean = run_somier("one_buffer", cfg, topology=topo)
        lossy = run_somier("one_buffer", cfg, topology=topo,
                           faults="device@1:#3", fault_seed=5)
        assert 1 in lossy.runtime.lost_devices
        assert lossy.runtime.plan_cache.invalidations > 0
        assert np.array_equal(clean.centers, lossy.centers)
        # no macro program derived from a pre-loss plan may replay after
        # the loss: every surviving macro entry must be a live cell
        for cell in lossy.runtime.plan_cache._plans.values():
            assert cell[0] is not None
