"""End-to-end sanitizer acceptance on the paper's Somier implementations.

The contract: the three race-free implementations report zero races, the
plain Double Buffering overlap (the §IX motivation) is flagged as a true
positive that the ``data_depend`` extension then silences, sanitized
runs are bit-identical to unsanitized ones, and failover re-routing
under injected faults produces no spurious reports.
"""

import numpy as np
import pytest

from repro.sim.topology import cte_power_node
from repro.somier import SomierConfig, run_somier
from repro.util.errors import DataRaceError

CFG = SomierConfig(n=18, steps=2)


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """CI fault/sanitize legs must not leak into these baselines."""
    for var in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE"):
        monkeypatch.delenv(var, raising=False)


def topo(n_dev=4):
    return cte_power_node(n_dev, memory_bytes=1e9)


def run(impl, **kw):
    kw.setdefault("topology", topo())
    if impl == "target":
        kw.setdefault("devices", [0])
    return run_somier(impl, CFG, **kw)


class TestCleanImplementations:
    @pytest.mark.parametrize("impl", ["target", "one_buffer", "two_buffers"])
    def test_zero_races(self, impl):
        res = run(impl, sanitize=True)
        assert res.stats["sanitizer_races"] == 0
        assert res.stats["sanitizer_ops"] > 0
        assert res.stats["sanitizer_checks"] > 0

    def test_double_buffering_with_data_depend_is_clean(self):
        res = run("double_buffering", sanitize=True, data_depend=True)
        assert res.stats["sanitizer_races"] == 0


class TestTruePositive:
    def test_plain_double_buffering_overlap_is_flagged(self):
        """Without depend ordering, Double Buffering's second half-buffer
        kernels overlap the first half's in-flight copy-backs — exactly
        the hazard the paper's §IX data_depend extension exists to fix."""
        res = run("double_buffering", sanitize=True)
        assert res.stats["sanitizer_races"] > 0

    def test_strict_mode_escalates(self):
        with pytest.raises(DataRaceError, match="data race"):
            run("double_buffering", sanitize="strict")


class TestBitIdentity:
    @pytest.mark.parametrize("impl", ["one_buffer", "double_buffering"])
    def test_sanitized_run_is_bit_identical(self, impl):
        off = run(impl)
        on = run(impl, sanitize=True)
        for name in off.state.grids:
            assert np.array_equal(off.state.grids[name],
                                  on.state.grids[name]), name
        assert np.array_equal(off.centers, on.centers)
        assert off.elapsed == on.elapsed
        assert off.runtime.trace.events == on.runtime.trace.events


class TestFailoverNoSpuriousRaces:
    """Satellite 6: re-routed chunks run standalone against scratch
    environments; their footprints (full reads, owned-range write-backs)
    and the no-op'd data directives must not look like races."""

    SCENARIOS = [
        ("one_buffer", "device@2:#5", 7),
        ("one_buffer", "device@0:#12", 3),
        ("two_buffers", "device@1:#9", 11),
        ("two_buffers", "device@3:#2", 1),
    ]

    @pytest.mark.parametrize("impl,faults,seed", SCENARIOS,
                             ids=lambda v: str(v))
    def test_device_loss_failover_is_clean(self, impl, faults, seed):
        res = run(impl, sanitize=True, faults=faults, fault_seed=seed)
        assert res.stats["devices_lost"] >= 1  # the scenario fired
        assert res.stats["sanitizer_races"] == 0

    def test_data_depend_prefetch_failover_is_clean(self):
        res = run("double_buffering", sanitize=True, data_depend=True,
                  faults="device@2:#5", fault_seed=7)
        assert res.stats["devices_lost"] >= 1
        assert res.stats["sanitizer_races"] == 0

    def test_retryable_faults_are_clean(self):
        res = run("one_buffer", sanitize=True, faults="transfer@1:0.02",
                  fault_seed=5)
        assert res.stats["sanitizer_races"] == 0


class TestObservability:
    def test_profile_report_carries_analysis_block(self):
        from repro.obs.report import ProfileReport

        res = run("one_buffer", sanitize=True)
        assert res.stats["sanitizer_races"] == 0
        report = ProfileReport(res.runtime)
        block = report.analysis_summary()
        assert block is not None
        assert block["ops_recorded"] == res.stats["sanitizer_ops"]
        assert block["access_checks"] == res.stats["sanitizer_checks"]
        assert block["races"] == 0

    def test_unsanitized_run_has_no_analysis_block(self):
        from repro.obs.report import ProfileReport

        res = run("one_buffer")
        assert ProfileReport(res.runtime).analysis_summary() is None
