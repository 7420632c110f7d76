"""Injected-fault resilience: retry, failover and graceful degradation.

End-to-end scenarios over the spread directives with the seeded fault
injector active: transient transfer/kernel faults are retried invisibly
(same results, honest virtual-time backoff), a lost device's chunks are
re-spread across the survivors with results identical to the fault-free
run, degradation continues down to one device, and when every device in
the clause is gone the directive fails with a clean
:class:`SpreadExecutionError` instead of hanging or corrupting state.
"""

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.obs import ProfileReport
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.faults import RetryPolicy
from repro.sim.topology import cte_power_node
from repro.spread import (
    omp_spread_size as Z,
    omp_spread_start as S,
    spread_schedule,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread,
    target_spread_teams_distribute_parallel_for,
    target_update_spread,
)
from repro.spread import extensions as ext
from repro.util.errors import (
    SpreadExecutionError,
    TransferFaultError,
)
from tests.conftest import CallbackLog

N = 64
ITERS = 3


@pytest.fixture(autouse=True)
def _hermetic_fault_env(monkeypatch):
    """Baselines here must be genuinely fault-free even under the CI
    fault-leg environment (``REPRO_FAULTS=transfer:0.01``)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)


def make_rt(n=4, **kw):
    return OpenMPRuntime(topology=cte_power_node(n, memory_bytes=1e9), **kw)


def incr_kernel():
    def body(lo, hi, env):
        x = env["X"]
        x[lo:hi] = x[lo:hi] * 2.0 + 1.0

    return KernelSpec("incr", body)


def run_iterated_spread(devices, iters=ITERS, tools=(), **rt_kw):
    """ITERS dependent spread kernels over X; returns (rt, X)."""
    rt = make_rt(max(devices) + 1, **rt_kw)
    for tool in tools:
        rt.tools.register(tool)
    X = np.arange(float(N))
    vX = Var("X", X)
    kern = incr_kernel()

    def program(omp):
        for _ in range(iters):
            yield from target_spread_teams_distribute_parallel_for(
                omp, kern, 0, N, devices,
                maps=[Map.tofrom(vX, (S, Z))])

    rt.run(program)
    return rt, X


def expected(iters=ITERS):
    X = np.arange(float(N))
    for _ in range(iters):
        X = X * 2.0 + 1.0
    return X


class TestRetryTransparency:
    def test_transient_transfer_fault_retried_to_same_result(self):
        clean_rt, clean = run_iterated_spread([0, 1, 2, 3])
        rt, X = run_iterated_spread([0, 1, 2, 3], faults="h2d:#3")
        assert np.array_equal(X, clean)
        assert np.array_equal(X, expected())
        assert rt.fault_retries == 1
        assert rt.fault_failovers == 0
        # the backoff was charged to virtual time
        assert rt.elapsed > clean_rt.elapsed

    def test_transient_kernel_fault_retried(self):
        rt, X = run_iterated_spread([0, 1], faults="kernel:#2")
        assert np.array_equal(X, expected())
        assert rt.fault_retries == 1

    def test_retry_exhaustion_surfaces_typed_error(self):
        with pytest.raises(TransferFaultError, match="injected h2d fault"):
            run_iterated_spread(
                [0, 1], faults="h2d:1.0",
                retry=RetryPolicy(max_attempts=2, backoff=10e-6))

    def test_giveup_and_retry_events_reach_tools(self):
        log = CallbackLog("fault_event")
        with pytest.raises(TransferFaultError):
            run_iterated_spread(
                [0, 1], faults="h2d:1.0", tools=(log,),
                retry=RetryPolicy(max_attempts=3, backoff=10e-6))
        # both chunks' h2d chains retry concurrently: 2 retries each
        # before the giveup on attempt 3
        retries = log.of("fault_event", kind="retry")
        assert len(retries) == 4
        assert len(log.of("fault_event", kind="giveup")) >= 1
        assert len(log.of("fault_event", kind="inject")) >= 3
        assert sum(kw["delay"] for kw in retries) > 0


class TestDeviceLossFailover:
    def test_lost_device_chunks_rerouted_same_results(self):
        _, clean = run_iterated_spread([0, 1, 2, 3])
        rt, X = run_iterated_spread([0, 1, 2, 3], faults="device@1:#1")
        assert np.array_equal(X, clean)
        assert rt.lost_devices == frozenset({1})
        assert rt.fault_failovers >= 1
        assert rt.devices[1].lost
        assert rt.dataenvs[1].is_empty()

    def test_mid_run_loss_same_results(self):
        """Loss after a full timestep: the tofrom maps have made the host
        current, so re-executed chunks see the right inputs."""
        _, clean = run_iterated_spread([0, 1, 2, 3])
        rt, X = run_iterated_spread([0, 1, 2, 3], faults="device@2:#4")
        assert np.array_equal(X, clean)
        assert 2 in rt.lost_devices

    def test_degrades_to_single_survivor(self):
        rt, X = run_iterated_spread(
            [0, 1, 2], faults="device@0:#1,device@2:#1")
        assert np.array_equal(X, expected())
        assert rt.lost_devices == frozenset({0, 2})

    def test_all_devices_lost_is_clean_spread_error(self):
        with pytest.raises(SpreadExecutionError, match="lost"):
            run_iterated_spread([0, 1], faults="device@0:#1,device@1:#1")

    def test_loss_invalidates_cached_plans(self):
        rt, X = run_iterated_spread([0, 1, 2, 3], faults="device@1:#4")
        assert np.array_equal(X, expected())
        assert rt.plan_cache.invalidations > 0

    def test_device_lost_and_failover_events_reach_tools(self):
        log = CallbackLog("fault_event")
        rt, _ = run_iterated_spread([0, 1, 2, 3], faults="device@3:#1",
                                    tools=(log,))
        assert len(log.of("fault_event", kind="device_lost")) == 1
        assert len(log.of("fault_event", kind="failover")) == \
            rt.fault_failovers > 0


class TestDataDirectiveFailover:
    def test_enter_compute_exit_survives_loss(self):
        """Spread data directives: a lost device's exit/update chunks
        become no-ops and its kernel chunks run standalone."""
        rt = make_rt(4, faults="device@1:#2")
        X = np.arange(float(N))
        vX = Var("X", X)
        kern = incr_kernel()
        devices = [0, 1, 2, 3]

        def program(omp):
            yield from target_enter_data_spread(
                omp, devices, (0, N), None, [Map.to(vX, (S, Z))])
            for _ in range(2):
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 0, N, devices,
                    maps=[Map.to(vX, (S, Z))])
                yield from target_update_spread(
                    omp, devices, (0, N), None, from_=[(vX, (S, Z))])
            yield from target_exit_data_spread(
                omp, devices, (0, N), None, [Map.release(vX, (S, Z))])

        rt.run(program)
        assert np.array_equal(X, expected(2))
        assert 1 in rt.lost_devices
        for env in rt.dataenvs:
            assert env.is_empty()

    def test_dynamic_schedule_loss_worker_retires(self):
        rt = make_rt(2, faults="device@1:#1")
        ext.enable(rt, schedules=True)
        X = np.arange(float(N))
        vX = Var("X", X)
        kern = incr_kernel()

        def program(omp):
            yield from target_spread(
                omp, kern, 0, N, [0, 1],
                schedule=spread_schedule("dynamic", 8),
                maps=[Map.tofrom(vX, (S, Z))])

        rt.run(program)
        assert np.array_equal(X, np.arange(float(N)) * 2.0 + 1.0)
        assert 1 in rt.lost_devices


class TestZeroImpact:
    def test_zero_rate_injector_is_byte_identical(self):
        base_rt, base = run_iterated_spread([0, 1, 2, 3])
        zero_rt, X = run_iterated_spread([0, 1, 2, 3],
                                         faults="transfer:0.0,kernel:0.0")
        assert np.array_equal(X, base)
        assert zero_rt.elapsed == base_rt.elapsed
        assert len(zero_rt.trace.events) == len(base_rt.trace.events)
        assert zero_rt.fault_retries == zero_rt.fault_failovers == 0

    def test_report_renders_fault_totals(self):
        import json

        rt, _ = run_iterated_spread([0, 1, 2, 3], faults="device@1:#1")
        report = ProfileReport(rt)
        text = report.render_text()
        assert "faults:" in text
        assert "1 devices lost" in text
        payload = json.loads(report.to_json())
        assert payload["faults"]["devices_lost"] == 1
        assert payload["faults"]["failovers"] == rt.fault_failovers > 0
