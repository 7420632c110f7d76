"""Unit tests for the OpenMPRuntime object."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.machines import (paper_devices, paper_machine,
                                  paper_somier_config)
from repro.device.kernel import KernelSpec
from repro.device.memory import DeviceAllocator
from repro.openmp import Map, RunOptions, Var
from repro.openmp.runtime import OpenMPRuntime
from repro.sim.timeline import TimelineProc
from repro.sim.topology import cte_power_node, uniform_node
from repro.somier.driver import run_somier
from repro.spread import (omp_spread_size, omp_spread_start,
                          target_enter_data_spread,
                          target_spread_teams_distribute_parallel_for)
from repro.util.errors import OmpDeviceError, OmpRuntimeError


class TestConstruction:
    def test_default_is_four_device_cte_power(self):
        rt = OpenMPRuntime()
        assert rt.num_devices == 4
        assert len(rt.links) == 2  # two sockets

    def test_devices_share_socket_link_resource(self):
        rt = OpenMPRuntime(topology=cte_power_node(4))
        assert rt.devices[0].link is rt.devices[1].link
        assert rt.devices[2].link is rt.devices[3].link
        assert rt.devices[0].link is not rt.devices[2].link

    def test_all_devices_share_staging(self):
        rt = OpenMPRuntime(topology=cte_power_node(4))
        assert all(d.staging is rt.staging for d in rt.devices)

    def test_device_bounds_check(self):
        rt = OpenMPRuntime(topology=uniform_node(2))
        rt.device(1)
        with pytest.raises(OmpDeviceError):
            rt.device(2)
        with pytest.raises(OmpDeviceError):
            rt.dataenv(-1)


class TestRun:
    def test_returns_program_value(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def program(omp):
            yield omp.sim.timeout(1.0)
            return "value"

        assert rt.run(program) == "value"
        assert rt.elapsed == pytest.approx(1.0)

    def test_run_twice_rejected(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def program(omp):
            yield omp.sim.timeout(0.0)

        rt.run(program)
        with pytest.raises(OmpRuntimeError, match="already ran"):
            rt.run(program)

    def test_program_args_passed(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def program(omp, x, y):
            yield omp.sim.timeout(0.0)
            return x + y

        assert rt.run(program, 2, 3) == 5

    def test_program_exception_propagates(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def program(omp):
            yield omp.sim.timeout(1.0)
            raise LookupError("bad")

        with pytest.raises(LookupError):
            rt.run(program)

    def test_deadlock_reported(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def stuck(ctx):
            yield ctx.sim.event()  # never triggers

        def program(omp):
            omp.task(stuck, name="stuck-task")
            yield omp.sim.timeout(0.0)

        with pytest.raises(Exception, match="deadlock|never completed"):
            rt.run(program)

    def test_pending_device_ops_pruned(self):
        rt = OpenMPRuntime(topology=uniform_node(1))

        def op():
            yield rt.sim.timeout(1.0)

        def program(omp):
            omp.submit(op())
            yield from omp.taskwait()
            assert rt.pending_device_ops() == []

        rt.run(program)


def _somier():
    topo, cm = paper_machine(4, n_functional=24)
    return run_somier("one_buffer", paper_somier_config(n_functional=24,
                                                        steps=2),
                      devices=paper_devices(4), topology=topo,
                      cost_model=cm)


@pytest.mark.usefixtures("plain_env")
class TestKnobContract:
    """A bad knob raises OmpRuntimeError naming its field (or variable),
    through the runtime and the driver."""

    @pytest.mark.parametrize("field,junk", [
        ("trace", "yes"), ("taskgroup_global_drain", None),
        ("plan_cache", "no"), ("faults", "warp:0.1"), ("fault_seed", "7"), ("retry", "x"),
        ("sanitize", "later"), ("analyze", "no")])
    def test_junk_field_names_itself(self, field, junk):
        with pytest.raises(OmpRuntimeError, match=field):
            OpenMPRuntime(**{field: junk})
        with pytest.raises(OmpRuntimeError, match=field):
            run_somier("one_buffer", paper_somier_config(24, 1),
                       **{field: junk})

    @pytest.mark.parametrize("var,junk", [
        ("REPRO_FAULTS", "warp:0.1"), ("REPRO_FAULT_SEED", "seven"),
        ("REPRO_SANITIZE", "later"), ("REPRO_ANALYZE", "maybe"),
        ("REPRO_MACHINE", "rack:3")])
    def test_junk_variable_names_itself(self, monkeypatch, var, junk):
        monkeypatch.setenv(var, junk)
        with pytest.raises(OmpRuntimeError, match=var):
            OpenMPRuntime()

    def test_trace_enabled_spelling_and_unknown_keywords(self):
        assert not OpenMPRuntime(trace_enabled=False).trace.enabled
        with pytest.raises(OmpRuntimeError, match="trace"):
            OpenMPRuntime(trace_enabled="yes")
        with pytest.raises(TypeError, match="plan_cashe"):
            run_somier("one_buffer", paper_somier_config(24, 1),
                       plan_cashe=False)

    @pytest.mark.parametrize("spec", ["", "  ", ",", " , "])
    def test_fault_spec_without_rules_is_none(self, spec):
        """A spec with no rules would attach an injector that injects
        nothing yet turns replay and the walkers off."""
        assert RunOptions(faults=spec).faults is None
        assert OpenMPRuntime(faults=spec).fault_injector is None

    def test_keywords_override_options(self):
        rt = OpenMPRuntime(options=RunOptions(plan_cache=False), trace=False)
        assert rt.options == RunOptions(plan_cache=False, trace=False)
        with pytest.raises(OmpRuntimeError, match="options"):
            OpenMPRuntime(options={"trace": False})


@pytest.mark.usefixtures("plain_env")
class TestFinishedRunReleasesDeviceMemory:
    """A finished run hands back the device memory it freed: no spare
    buffers, no cached replay resolutions, no views on finished walkers.
    What post-run readers use stays: counters, the trace, plan-cache
    cells, the task list and live mappings."""

    def test_no_spares_resolutions_or_walker_views(self):
        rt = _somier().runtime
        assert all(not dev.allocator._spares for dev in rt.devices)
        progs = [cell[1] for cell in rt.plan_cache._plans.values()
                 if cell[1]]
        assert progs and rt.plan_cache.macro_replays > 0
        assert all(rec.steady is None for prog in progs
                   for rec in prog.records)
        walkers = [p for p in rt._tasks if isinstance(p, TimelineProc)]
        assert walkers and all(p.triggered for p in walkers)
        assert all(p.kenv is None and p.held is None and p.steady is None
                   for p in walkers)

    def test_freed_buffer_dies_without_collection(self, monkeypatch):
        """No ``gc.collect()``, and the result still held: the runtime
        graph is cyclic (walkers and the task list refer to each other),
        but no cycle reaches a freed buffer any more, so reference
        counting frees it when ``run`` returns."""
        freed = []
        free = DeviceAllocator.free

        def recording_free(self, alloc):
            freed.append(weakref.ref(alloc.array))
            free(self, alloc)

        monkeypatch.setattr(DeviceAllocator, "free", recording_free)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            res = _somier()
            assert freed
            assert [ref for ref in freed if ref() is not None] == []
            assert res.runtime.task_count > 0
        finally:
            if was_enabled:
                gc.enable()

    def test_data_mapped_at_program_end_stays_live(self):
        S, Z = omp_spread_start, omp_spread_size
        n, devices = 64, [0, 1, 2, 3]
        rt = OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9),
                           trace=False)
        host_a = np.arange(float(n))
        vA, vB = Var("A", host_a), Var("B", np.zeros(n))

        def body(lo, hi, env):
            env["B"][lo:hi] = env["A"][lo:hi] * 2.0

        kern = KernelSpec("double", body)

        def program(omp):
            yield from target_enter_data_spread(
                omp, devices, (0, n), None,
                [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
            for _ in range(3):
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 0, n, devices,
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))])

        rt.run(program)
        assert rt.plan_cache.macro_replays > 0
        assert rt.sim.fused_segments > 0
        covered = 0
        for d in devices:
            entries = rt.dataenvs[d].entries_of(vB)
            assert len(entries) == 1
            entry = entries[0]
            sec = entry.section
            assert np.array_equal(entry.buffer[entry.local_slice(sec)],
                                  2.0 * host_a[sec.start:sec.stop])
            assert rt.devices[d].allocator.live_allocations == 2
            covered += sec.stop - sec.start
        assert covered == n
        # B never left the devices: the host copy is untouched
        assert not vB.array.any()
