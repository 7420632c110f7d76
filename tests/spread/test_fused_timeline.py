"""Fused-timeline engine: bit identity against the generator path, and
the path table.

:mod:`repro.sim.timeline` executes replayed spread chunks (and the
runtime's batched section copies) as fused timeline walkers: per-chunk
virtual-time segments advanced in single dispatches instead of generator
round-trips.  The walker path must be observationally indistinguishable
from the generator path, which a run with a registered tool takes (the
object path: generator chunk bodies and copy sub-processes).  Same
``virtual_s`` to the bit, same trace events, same results, across
implementations and spread modes; under ``analyze`` also the same causal
record.  The decision table pins which path each observer selects —
macro replay and walkers, or the object path — and checks every row
against the cold ``plan_cache=False`` run with the same observers.
"""

import numpy as np
import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.timeline import TimelineProc
from repro.sim.topology import cte_power_node
from repro.somier.driver import run_somier
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_enter_data_spread,
    target_spread_teams_distribute_parallel_for,
)
from tests.conftest import CallbackLog


pytestmark = pytest.mark.usefixtures("plain_env")


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _run(impl, *, gpus=4, n=24, steps=3, devices=None, **kw):
    topo, cm = paper_machine(gpus, n_functional=n)
    cfg = paper_somier_config(n_functional=n, steps=steps)
    devs = devices if devices is not None else paper_devices(gpus)
    return run_somier(impl, cfg, devices=devs, topology=topo, cost_model=cm,
                      **kw)


def _generator_run(impl, **kw):
    """The generator-path reference: a registered tool keeps every chunk
    and copy on generator processes."""
    return _run(impl, tools=(CallbackLog(),), **kw)


def _assert_identical(a, b):
    assert a.elapsed == b.elapsed
    assert np.array_equal(a.centers, b.centers)
    t_a, t_b = a.runtime.trace, b.runtime.trace
    if t_a is not None and t_b is not None:
        assert _event_tuples(t_a) == _event_tuples(t_b)


MATRIX = [
    ("target", dict(devices=[0])),
    ("one_buffer", {}),
    ("one_buffer", dict(data_depend=True)),
    ("one_buffer", dict(fuse_transfers=True)),
    # half-buffer impls keep two chunks resident: need the larger grid
    ("two_buffers", dict(n=48)),
    ("two_buffers", dict(n=48, data_depend=True)),
    ("double_buffering", dict(n=48)),
    ("double_buffering", dict(n=48, data_depend=True)),
    # seeded transfer retries: the injector keeps the walkers off, and the
    # retries must replay alike with a tool registered or not
    ("one_buffer", dict(faults="transfer:0.05", fault_seed=7)),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "impl,kw", MATRIX,
        ids=[f"{i}-{'-'.join(k) or 'default'}" for i, k in MATRIX])
    def test_fused_on_vs_off(self, impl, kw):
        on = _run(impl, **kw)
        off = _generator_run(impl, **kw)
        if "faults" in kw:
            assert on.stats["engine_fused_segments"] == 0
            assert (on.stats["faults_injected"]
                    == off.stats["faults_injected"] > 0)
        else:
            assert on.stats["engine_fused_segments"] > 0
        assert off.stats["engine_fused_segments"] == 0
        _assert_identical(on, off)

    def test_paper_scale_double_buffering(self):
        """Regression for same-timestamp completion reordering: at paper
        scale the queue slot claimed at copy-issue time is routinely
        already processed when the walker reaches its wait, and the
        walker must continue synchronously (as ``gen.send`` does for a
        processed event) or two d2h completions on different devices swap
        trace order."""
        on = _run("double_buffering", n=48, steps=2)
        off = _generator_run("double_buffering", n=48, steps=2)
        assert on.stats["engine_fused_segments"] > 0
        assert off.stats["engine_fused_segments"] == 0
        _assert_identical(on, off)


#: (case, run_somier keywords, (macro_replays, engine_fused_segments)) on
#: Somier n=24, 12 steps, one_buffer, paper 4-GPU node
DECISION_TABLE = [
    ("plain", dict, (330, 23430)),
    ("analyze", lambda: dict(analyze=True), (330, 23430)),
    ("tool", lambda: dict(tools=(CallbackLog(),)), (0, 0)),
    ("sanitizer", lambda: dict(sanitize=True), (0, 0)),
    # injector armed, no fault ever fires
    ("faults_armed", lambda: dict(faults="transfer:0.0"), (0, 0)),
    # a spec with no rules arms no injector
    ("faults_empty", lambda: dict(faults=""), (330, 23430)),
]

#: virtual seconds of that run, on every path
DECISION_ELAPSED = 226.88128709639128


class TestDecisionTable:
    """Only what observes the run picks the warm spread path: macro replay
    with walkers (the causal recorder included), or the object path
    (tools, sanitizer, fault injector).  Every row matches the cold run
    with the same observers to the bit."""

    @pytest.mark.parametrize("kw,expected",
                             [(kw, want) for _, kw, want in DECISION_TABLE],
                             ids=[case for case, _, _ in DECISION_TABLE])
    def test_path_choice(self, kw, expected):
        warm = _run("one_buffer", steps=12, **kw())
        cold = _run("one_buffer", steps=12, plan_cache=False, **kw())
        assert (warm.stats["macro_replays"],
                warm.stats["engine_fused_segments"]) == expected
        assert warm.elapsed == DECISION_ELAPSED
        if warm.runtime.sanitizer is not None:
            assert warm.stats["sanitizer_races"] == 0
        _assert_identical(warm, cold)


def _recorded(res):
    rec = res.runtime.causal
    return (rec.ops, rec.dep_edge_count, len(rec.res_edges),
            len(rec.op_event), res.runtime.analysis().report())


class TestRecordingAcrossPaths:
    # Double Buffering queues kernels behind the other buffer's copies
    # (Fig. 4), so its contention edges also pin the kernel walker's
    # queue-request owner.
    @pytest.mark.parametrize("impl,kw", [
        ("one_buffer", dict(steps=12)),
        ("double_buffering", dict(n=48, steps=3))],
        ids=["one_buffer", "double_buffering"])
    def test_report_and_counts_match(self, impl, kw):
        """The walkers record what the generator bodies record: under
        ``analyze`` the default run, the object path (a registered tool)
        and the cold run agree on the recorder's counts and the full
        critical-path report."""
        walk = _run(impl, analyze=True, **kw)
        assert walk.stats["engine_fused_segments"] > 0
        want = _recorded(walk)
        assert _recorded(_generator_run(impl, analyze=True, **kw)) == want
        assert _recorded(_run(impl, plan_cache=False, analyze=True,
                              **kw)) == want


class TestWalkerErrors:
    def test_warm_nowait_kernel_error_surfaces_at_taskwait(self):
        """A kernel body raising on a warm, macro-replayed ``nowait``
        launch runs on a timeline walker; the walker must release the
        device queue and fail, so the original exception reaches the
        ``taskwait`` that joins it."""
        self._raise_on_a_walker(analyze=False)

    def test_error_surfaces_under_analyze(self):
        """The same with the causal recorder attached: the walkers keep
        running, and a failed op records no end."""
        rt = self._raise_on_a_walker(analyze=True)
        assert rt.causal.ops > len(rt.causal.op_event) > 0

    @staticmethod
    def _raise_on_a_walker(analyze):
        S, Z = omp_spread_start, omp_spread_size
        n, devices, warm = 64, [0, 1, 2, 3], 3
        rt = OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9),
                           trace=analyze, analyze=analyze)
        vA, vB = Var("A", np.arange(float(n))), Var("B", np.zeros(n))
        state = {"fail": False}
        failed_on, surfaced = [], []

        def body(lo, hi, env):
            if state["fail"]:
                failed_on.append(rt.sim.current_process)
                raise ZeroDivisionError("warm chunk")
            env["B"][lo:hi] = env["A"][lo:hi] * 2.0

        kern = KernelSpec("double", body)

        def program(omp):
            yield from target_enter_data_spread(
                omp, devices, (0, n), None,
                [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
            for i in range(warm + 1):
                state["fail"] = i == warm
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 0, n, devices,
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                    nowait=True)
                try:
                    yield from omp.taskwait()
                except ZeroDivisionError:
                    surfaced.append(i)
                    raise

        with pytest.raises(ZeroDivisionError, match="warm chunk"):
            rt.run(program)
        assert surfaced == [warm]
        assert rt.plan_cache.macro_replays > 0
        assert rt.sim.fused_segments > 0
        assert failed_on and all(isinstance(p, TimelineProc)
                                 for p in failed_on)
        # the failing walkers handed their device queue slots back
        assert all(p.dev.queue.in_use == 0 for p in failed_on)
        return rt


class TestKnob:
    def test_engine_stats_exposed(self):
        res = _run("one_buffer")
        st = res.stats
        assert st["engine_events_scheduled"] > 0
        assert st["engine_dispatches"] > 0
        assert st["engine_mean_batch"] > 1.0
        assert st["engine_events_dispatched"] > 0
