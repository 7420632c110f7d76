"""Unit tests for the simulated device: copies, kernels, queue semantics."""

import numpy as np
import pytest

from repro.bench import machines
from repro.device.device import Device
from repro.device.kernel import KernelSpec, LaunchConfig
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.target import (target_enter_data, target_exit_data,
                                 target_update)
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.timeline import CopyD2H, CopyH2D
from repro.sim.topology import (DeviceSpec, HostSpec, LinkSpec,
                                cte_power_node, uniform_node)
from repro.somier import run_somier
from repro.spread import omp_spread_size as Z
from repro.spread import omp_spread_start as S
from repro.spread import target_spread
from repro.sim.trace import Trace, TraceAnalysis


def make_device(sim, bw=1e9, staging_bw=1e12, latency=0.0, device_id=0,
                link=None, staging=None, iters=1e9,
                kernel_issue_latency=0.0, alloc_sync=True):
    spec = DeviceSpec(memory_bytes=1e9, iters_per_second=iters,
                      kernel_launch_latency=0.0,
                      kernel_issue_latency=kernel_issue_latency,
                      alloc_sync=alloc_sync)
    link_spec = LinkSpec(bandwidth_bytes_per_s=bw, per_call_latency=latency)
    host = HostSpec(staging_bandwidth_bytes_per_s=staging_bw)
    link = link if link is not None else Resource(sim, 1, name="link")
    staging = staging if staging is not None else Resource(sim, 1, name="st")
    trace = Trace()
    dev = Device(sim, device_id, spec, link, link_spec, staging, host,
                 CostModel(), trace)
    return dev


class TestCopies:
    def test_h2d_functional_and_timed(self, sim):
        dev = make_device(sim, bw=1e6)
        src = np.arange(100.0)
        dst = np.zeros(100)
        sim.run(sim.process(dev.copy_h2d(src, slice(0, 100),
                                         dst, slice(0, 100))))
        assert np.array_equal(dst, src)
        # 800 bytes at 1e6 B/s wire
        assert sim.now == pytest.approx(800 / 1e6, rel=1e-3)
        assert dev.memcpy_calls == 1
        assert dev.h2d_bytes == 800

    def test_d2h_functional(self, sim):
        dev = make_device(sim)
        src = np.arange(10.0)
        dst = np.zeros(10)
        sim.run(sim.process(dev.copy_d2h(src, slice(2, 5),
                                         dst, slice(0, 3))))
        assert np.array_equal(dst[:3], src[2:5])
        assert dev.d2h_bytes == 24

    def test_h2d_snapshot_at_staging(self, sim):
        """The host value captured is the one present when staging runs,
        not when the wire completes."""
        dev = make_device(sim, bw=1.0, staging_bw=1e12)  # very slow wire
        src = np.array([1.0])
        dst = np.zeros(1)
        sim.process(dev.copy_h2d(src, slice(0, 1), dst, slice(0, 1)))

        def mutate():
            yield sim.timeout(1.0)  # during the 8-second wire
            src[0] = 99.0

        sim.process(mutate())
        sim.run()
        assert dst[0] == 1.0

    def test_d2h_snapshot_at_wire_end(self, sim):
        """The device value captured is the one present when the wire
        completes, not when the trailing staging piece drains."""
        dev = make_device(sim, bw=1e12, staging_bw=1.0)  # very slow staging
        src = np.array([1.0])
        dst = np.zeros(1)
        sim.process(dev.copy_d2h(src, slice(0, 1), dst, slice(0, 1)))

        def mutate():
            yield sim.timeout(1.0)  # during the 8-second staging piece
            src[0] = 99.0

        sim.process(mutate())
        sim.run()
        assert sim.now == pytest.approx(8.0, rel=1e-3)
        assert dst[0] == 1.0

    def test_batch_pays_latency_once(self, sim):
        dev_a = make_device(sim, bw=1e9, latency=1.0)
        pairs = [(np.zeros(10), slice(0, 10), np.zeros(10), slice(0, 10))
                 for _ in range(4)]
        sim.run(sim.process(dev_a.copy_h2d_batch(pairs)))
        t_batch = sim.now

        sim2 = Simulator()
        dev_b = make_device(sim2, bw=1e9, latency=1.0)

        def individually():
            for src, sk, dst, dk in pairs:
                yield from dev_b.copy_h2d(src, sk, dst, dk)

        sim2.run(sim2.process(individually()))
        assert t_batch == pytest.approx(1.0, rel=1e-3)
        assert sim2.now == pytest.approx(4.0, rel=1e-3)

    def test_empty_batch_noop(self, sim):
        dev = make_device(sim)
        sim.run(sim.process(dev.copy_h2d_batch([])))
        assert dev.memcpy_calls == 0

    def test_trace_records_wire_meta(self, sim):
        dev = make_device(sim, bw=1e6)
        src, dst = np.zeros(100), np.zeros(100)
        sim.run(sim.process(dev.copy_h2d(src, slice(0, 100),
                                         dst, slice(0, 100))))
        ev = dev.trace.events[0]
        assert ev.category == "h2d"
        assert "wire_start" in ev.meta and "wire_end" in ev.meta
        assert ev.meta["wire_end"] - ev.meta["wire_start"] == \
            pytest.approx(800 / 1e6, rel=1e-3)


class TestCopyWalkers:
    """The copy walkers snapshot at the same phase as the generator path
    and drop the snapshot once it is committed."""

    def test_h2d_snapshot_at_staging(self, sim):
        dev = make_device(sim, bw=1.0, staging_bw=1e12)  # very slow wire
        src = np.array([1.0])
        dst = np.zeros(1)
        walker = CopyH2D.spawn(sim, dev, src, slice(0, 1), dst, slice(0, 1),
                               "map:src")

        def mutate():
            yield sim.timeout(1.0)  # during the 8-second wire
            src[0] = 99.0

        sim.process(mutate())
        sim.run()
        assert walker._processed and walker._ok
        assert dst[0] == 1.0
        assert walker._snaps is None

    def test_d2h_snapshot_at_wire_end(self, sim):
        dev = make_device(sim, bw=1e12, staging_bw=1.0)  # very slow staging
        src = np.array([1.0])
        dst = np.zeros(1)
        walker = CopyD2H.spawn(sim, dev, src, slice(0, 1), dst, slice(0, 1),
                               "map:src")

        def mutate():
            yield sim.timeout(1.0)  # during the 8-second staging piece
            src[0] = 99.0

        sim.process(mutate())
        sim.run()
        assert sim.now == pytest.approx(8.0, rel=1e-3)
        assert walker._processed and walker._ok
        assert dst[0] == 1.0
        assert walker._snaps is None


def spawn_copy(sim, dev, body, h2d, src, dst, exclusive):
    """One ``src[0:1] -> dst[0:1]`` copy on *body*: the generator copy,
    a fused batch of it plus a second section, or the copy walker."""
    if body == "walker":
        cls = CopyH2D if h2d else CopyD2H
        return cls.spawn(sim, dev, src, slice(0, 1), dst, slice(0, 1),
                         "map:src", exclusive)
    if body == "fused":
        pairs = [(src, slice(0, 1), dst, slice(0, 1)),
                 (np.ones(1), slice(0, 1), np.zeros(1), slice(0, 1))]
        batch = dev.copy_h2d_batch if h2d else dev.copy_d2h_batch
        return sim.process(batch(pairs, exclusive=exclusive))
    copy = dev.copy_h2d if h2d else dev.copy_d2h
    return sim.process(copy(src, slice(0, 1), dst, slice(0, 1),
                            exclusive=exclusive))


@pytest.fixture
def no_snapshots(monkeypatch):
    """Fail any snapshot: exclusive copies must move their bytes once."""
    def refuse(sections):
        raise AssertionError("an exclusive copy took a snapshot")

    monkeypatch.setattr(Device, "_snapshot_sections", staticmethod(refuse))


@pytest.mark.parametrize("body", ["generator", "fused", "walker"])
class TestExclusiveCopies:
    """An exclusive copy takes no snapshot: an H2D writes the device
    buffer at staging end, a D2H reads it at commit.  Host reads and
    writes, resources and virtual time are those of a snapshot copy."""

    def test_h2d_bytes_land_at_staging_end(self, sim, body, no_snapshots):
        dev = make_device(sim, bw=1.0, staging_bw=1e12)  # very slow wire
        src = np.array([1.0])
        dst = np.zeros(1)
        proc = spawn_copy(sim, dev, body, True, src, dst, exclusive=True)
        seen = []

        def during_wire():
            yield sim.timeout(1.0)
            seen.append(dst[0])
            src[0] = 99.0

        sim.process(during_wire())
        sim.run()
        assert proc._processed and proc._ok
        assert seen == [1.0]
        assert dst[0] == 1.0

    def test_d2h_reads_the_device_at_commit(self, sim, body, no_snapshots):
        dev = make_device(sim, bw=1e12, staging_bw=1.0)  # very slow staging
        src = np.array([1.0])
        dst = np.zeros(1)
        proc = spawn_copy(sim, dev, body, False, src, dst, exclusive=True)
        seen = []

        def during_staging():
            yield sim.timeout(1.0)
            seen.append(dst[0])
            src[0] = 99.0

        sim.process(during_staging())
        sim.run()
        assert proc._processed and proc._ok
        assert seen == [0.0]  # the host is written at commit only
        assert dst[0] == 99.0

    @pytest.mark.parametrize("h2d", [True, False])
    def test_timing_and_trace_match_the_snapshot_copy(self, body, h2d):
        traces = []
        for exclusive in (False, True):
            sim = Simulator()
            dev = make_device(sim, bw=1e6, staging_bw=2e6, latency=1e-5)
            spawn_copy(sim, dev, body, h2d, np.arange(1.0, 2.0),
                       np.zeros(1), exclusive)
            sim.run()
            traces.append((sim.now, dev.trace.events, dev.memcpy_calls))
        assert traces[0] == traces[1]


class TestSnapshotsOnlyWhereShared:
    """The runtime marks its own transfers exclusive: a Somier run takes
    no snapshot at all, a ``target update`` still does."""

    @pytest.fixture
    def snapshots(self, monkeypatch):
        calls = []
        real = Device._snapshot_sections

        def counting(sections):
            calls.append(len(sections))
            return real(sections)

        monkeypatch.setattr(Device, "_snapshot_sections",
                            staticmethod(counting))
        return calls

    @pytest.mark.parametrize("spec,fuse", [("cte-power:4", False),
                                           ("cte-power:4", True),
                                           ("cluster:2x2", False)])
    def test_somier_takes_no_snapshot(self, snapshots, spec, fuse):
        topo, cm = machines.machine_for_spec(spec, n_functional=24)
        cfg = machines.paper_somier_config(n_functional=24, steps=1)
        res = run_somier("one_buffer", cfg, topology=topo, cost_model=cm,
                         fuse_transfers=fuse)
        assert res.stats["h2d_bytes"] > 0 and res.stats["d2h_bytes"] > 0
        assert snapshots == []

    def test_spread_kernel_maps_take_no_snapshot(self, snapshots):
        """A ``target spread`` with its own maps: the kernel op's implicit
        enter copies in, its implicit exit copies back."""
        rt = OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9))
        a = Var("A", np.arange(16.0))

        def double(lo, hi, env):
            env["A"][lo:hi] *= 2.0

        def program(omp):
            for _ in range(3):
                yield from target_spread(omp, KernelSpec("double", double),
                                         0, 16, [0, 1, 2, 3],
                                         maps=[Map.tofrom(a, (S, Z))])

        rt.run(program)
        assert snapshots == []
        assert np.array_equal(a.array, np.arange(16.0) * 8)

    def test_target_update_keeps_the_snapshot(self, snapshots):
        rt = OpenMPRuntime(topology=uniform_node(1, memory_bytes=1e9))
        a = Var("A", np.arange(8.0))

        def program(omp):
            yield from target_enter_data(omp, device=0, maps=[Map.to(a)])
            yield from target_update(omp, device=0, to=[(a, None)])
            yield from target_update(omp, device=0, from_=[(a, None)])
            yield from target_exit_data(omp, device=0,
                                        maps=[Map.release(a)])

        rt.run(program)
        assert snapshots == [1, 1]  # one per update; the enter takes none
        assert np.array_equal(a.array, np.arange(8.0))


class TestSharedLink:
    def test_same_link_serializes_wire(self):
        sim = Simulator()
        link = Resource(sim, 1, name="link")
        staging = Resource(sim, 1, name="st")
        d0 = make_device(sim, bw=1e6, device_id=0, link=link, staging=staging)
        d1 = make_device(sim, bw=1e6, device_id=1, link=link, staging=staging)
        src, a, b = np.zeros(1000), np.zeros(1000), np.zeros(1000)
        sim.process(d0.copy_h2d(src, slice(0, 1000), a, slice(0, 1000)))
        sim.process(d1.copy_h2d(src, slice(0, 1000), b, slice(0, 1000)))
        sim.run()
        # two 8 KB transfers at 1 MB/s on one wire = 16 ms total
        assert sim.now == pytest.approx(0.016, rel=1e-2)
        ta0 = TraceAnalysis(d0.trace)
        assert ta0.transfer_transfer_overlap([0, 1]) == 0.0

    def test_staging_pipeline_reaches_wire_speed(self):
        """Many back-to-back copies stream at wire speed: the next copy's
        staging overlaps the current one's wire time."""
        sim = Simulator()
        dev = make_device(sim, bw=1e6, staging_bw=1.5e6)

        def stream():
            src = np.zeros(1000)
            dst = np.zeros(1000)
            procs = [sim.process(dev.copy_h2d(src, slice(0, 1000),
                                              dst, slice(0, 1000)))
                     for _ in range(10)]
            yield sim.all_of(procs)

        sim.run(sim.process(stream()))
        wire_only = 10 * 8000 / 1e6
        first_stage_bubble = 8000 / 1.5e6
        assert sim.now == pytest.approx(wire_only + first_stage_bubble,
                                        rel=1e-3)


class TestKernels:
    def test_kernel_executes_and_charges(self, sim):
        dev = make_device(sim, iters=100.0)
        hits = []

        def body(lo, hi, env):
            hits.append((lo, hi, env["x"]))

        spec = KernelSpec("k", body, scalars={"x": 7})
        sim.run(sim.process(dev.launch_kernel(spec, 2, 12, {})))
        assert hits == [(2, 12, 7)]
        assert sim.now == pytest.approx(10 / 100.0)
        assert dev.kernels_launched == 1

    def test_env_overrides_scalars(self, sim):
        dev = make_device(sim)
        seen = {}

        def body(lo, hi, env):
            seen.update(env)

        spec = KernelSpec("k", body, scalars={"x": 1})
        sim.run(sim.process(dev.launch_kernel(spec, 0, 1, {"x": 2, "y": 3})))
        assert seen["x"] == 2 and seen["y"] == 3

    def test_kernel_iterations_override(self, sim):
        dev = make_device(sim, iters=1000.0)
        spec = KernelSpec("k", lambda lo, hi, env: None)
        sim.run(sim.process(dev.launch_kernel(spec, 0, 1, {},
                                              iterations=500)))
        assert sim.now == pytest.approx(0.5)

    def test_bad_range_rejected(self, sim):
        dev = make_device(sim)
        spec = KernelSpec("k", lambda lo, hi, env: None)
        with pytest.raises(ValueError):
            list(dev.launch_kernel(spec, 5, 2, {}))

    def test_queue_serializes_kernel_after_copy(self, sim):
        """In-order queue: a kernel issued after a copy waits for it even
        though they use different physical units."""
        dev = make_device(sim, bw=1e6)
        src, dst = np.zeros(1000), np.zeros(1000)
        order = []
        sim.process(dev.copy_h2d(src, slice(0, 1000), dst, slice(0, 1000)))
        spec = KernelSpec("k", lambda lo, hi, env: order.append(sim.now))
        sim.process(dev.launch_kernel(spec, 0, 1, {}))
        sim.run()
        assert order[0] >= 8000 / 1e6


class TestSynchronize:
    def test_synchronize_waits_for_queued_work(self, sim):
        dev = make_device(sim, iters=1.0)
        spec = KernelSpec("slow", lambda lo, hi, env: None)
        sim.process(dev.launch_kernel(spec, 0, 5, {}))  # 5 seconds

        def syncer():
            yield from dev.synchronize()
            return sim.now

        assert sim.run(sim.process(syncer())) == pytest.approx(5.0)


class TestBackpressure:
    def test_wait_for_free_wakes_on_free(self, sim):
        dev = make_device(sim)
        alloc = dev.allocate((10,))
        woken = []

        def waiter():
            yield dev.wait_for_free()
            woken.append(sim.now)

        sim.process(waiter())
        sim.schedule_call(2.0, lambda: dev.free(alloc))
        sim.run()
        assert woken == [2.0]
