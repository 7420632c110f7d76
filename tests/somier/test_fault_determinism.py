"""Property tests: fault injection is seeded, deterministic and replayable.

The resilience subsystem's testing contract: the same fault spec + seed
must reproduce a bit-identical run — same grids, centers, virtual
makespan and trace events — across repeated runs (the injector draws
inside simulator processes whose order the engine fixes).  A zero-rate
injector must leave the run byte-identical to no injector at all, and a
mid-run device loss must complete on the survivors with results identical
to the fault-free run.
"""

import numpy as np
import pytest

from repro.sim.topology import cte_power_node
from repro.somier import SomierConfig, run_somier
from repro.util.errors import OmpRuntimeError

CFG = SomierConfig(n=18, steps=3)


@pytest.fixture(autouse=True)
def _hermetic_fault_env(monkeypatch):
    """Each scenario here builds its own spec/seed; the CI fault-leg env
    (``REPRO_FAULTS=transfer:0.01``) must not leak into the baselines."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)

def topo(n_dev=4):
    return cte_power_node(n_dev, memory_bytes=1e9)


def assert_bit_identical(a, b):
    for name in a.state.grids:
        assert np.array_equal(a.state.grids[name], b.state.grids[name]), name
    assert np.array_equal(a.centers, b.centers)
    assert a.elapsed == b.elapsed
    assert a.runtime.trace.events == b.runtime.trace.events


def run(**kw):
    kw.setdefault("topology", topo())
    return run_somier("one_buffer", CFG, **kw)


class TestSeededReplay:
    def test_same_seed_bit_identical_across_runs(self):
        a = run(faults="transfer:0.02,kernel:0.01", fault_seed=11)
        b = run(faults="transfer:0.02,kernel:0.01", fault_seed=11)
        assert a.stats["faults_injected"] > 0  # the scenario is non-trivial
        assert a.stats["faults_injected"] == b.stats["faults_injected"]
        assert a.stats["fault_retries"] == b.stats["fault_retries"]
        assert_bit_identical(a, b)

    def test_different_seed_different_schedule(self):
        a = run(faults="transfer:0.05", fault_seed=1)
        b = run(faults="transfer:0.05", fault_seed=2)
        assert a.stats["faults_injected"] != b.stats["faults_injected"] \
            or a.runtime.trace.events != b.runtime.trace.events

    def test_device_loss_replay_across_runs(self):
        a = run(faults="device@1:#10")
        b = run(faults="device@1:#10")
        assert a.stats["devices_lost"] == b.stats["devices_lost"] == 1
        assert a.stats["fault_failovers"] == b.stats["fault_failovers"] > 0
        assert_bit_identical(a, b)


class TestZeroRateIsFree:
    def test_zero_rate_injection_byte_identical_to_no_injector(self):
        base = run()
        zero = run(faults="transfer:0.0,kernel:0.0,device:0.0")
        assert zero.stats["faults_injected"] == 0
        assert zero.stats["fault_retries"] == 0
        assert zero.stats["fault_failovers"] == 0
        assert_bit_identical(base, zero)


class TestDeviceLossRecovery:
    def test_mid_run_loss_completes_identically_on_survivors(self):
        """The acceptance scenario: device 1 dies mid-run; the run
        finishes on the survivors with results identical to fault-free."""
        clean = run()
        lossy = run(faults="device@1:#40")
        assert lossy.stats["devices_lost"] == 1
        assert lossy.stats["fault_failovers"] > 1  # genuinely mid-run
        for name in clean.state.grids:
            assert np.array_equal(lossy.state.grids[name],
                                  clean.state.grids[name]), name
        assert np.array_equal(lossy.centers, clean.centers)
        assert 1 in lossy.runtime.lost_devices
        assert lossy.runtime.dataenvs[1].is_empty()

    def test_loss_at_first_op_still_identical(self):
        clean = run()
        lossy = run(faults="device@1:#1")
        for name in clean.state.grids:
            assert np.array_equal(lossy.state.grids[name],
                                  clean.state.grids[name]), name


class TestPaperMachineLoss:
    """Device loss on the *calibrated* paper machine (the CLI's default).

    This configuration is adversarial in two ways the generous test
    topologies above are not: chunks are sized to nearly fill the real
    16 GB devices (so failover scratch cannot charge device capacity
    without deadlocking against the exit-data barrier), and the NUMA
    device order [1, 0, 3, 2] plus halo'd position maps make a lost
    chunk's rows *contained in a survivor's own halo'd entry* (so a
    re-routed exit/update must be a no-op, not a presence-checked pass
    that would release the survivor's entry).
    """

    def _run(self, **kw):
        from repro.bench import machines

        topo, cm = machines.paper_machine(4, n_functional=24)
        cfg = machines.paper_somier_config(n_functional=24, steps=2)
        return run_somier("one_buffer", cfg,
                          devices=machines.paper_devices(4),
                          topology=topo, cost_model=cm, **kw)

    def test_early_loss_completes_identically(self):
        clean = self._run()
        lossy = self._run(faults="device@1:#6")
        assert lossy.stats["devices_lost"] == 1
        assert lossy.stats["fault_failovers"] > 0
        for name in clean.state.grids:
            assert np.array_equal(lossy.state.grids[name],
                                  clean.state.grids[name]), name

    def test_scratch_consumes_no_device_capacity(self):
        lossy = self._run(faults="device@1:#1")
        for dev in lossy.runtime.devices:
            assert dev.allocator.used_bytes == 0
            assert dev.allocator.peak_bytes <= dev.allocator.capacity_bytes


class TestKnobValidation:
    def test_bad_spec_is_clean_runtime_error(self):
        with pytest.raises(OmpRuntimeError, match="invalid faults spec"):
            run(faults="warp:0.1")

    def test_env_spec_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transfer:0.0")
        res = run()
        assert res.stats["faults_injected"] == 0  # injector was attached

    def test_env_bad_spec_is_clean_runtime_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transfer:lots")
        with pytest.raises(OmpRuntimeError, match="invalid REPRO_FAULTS"):
            run()

    def test_env_bad_seed_is_clean_runtime_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "eleven")
        with pytest.raises(OmpRuntimeError, match="REPRO_FAULT_SEED"):
            run(faults="transfer:0.0")
