"""Tests for the wall-clock track: the paired helper, the gates, the
committed file, and one tiny real run (numbers not asserted)."""

import json
import pathlib
import statistics

import pytest

from repro.bench import wallclock
from repro.bench.wallclock import (
    failed_gates,
    host_metadata,
    paired,
    run_wallclock,
)
from repro.sim.topology import MACHINE_ENV

COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "BENCH_wallclock.json"

RATIOS = ("warm_launch_speedup", "fused_e2e_speedup", "recording_overhead",
          "analyze_vs_default", "report_vs_run")


@pytest.fixture(autouse=True)
def _hermetic_knob_env(monkeypatch):
    """The arm checks require macro replay and, on the walker arms, fused
    segments; any globally armed fault injector, sanitizer or causal
    recorder disengages them by design, so the CI env-matrix legs must
    not leak into the real run."""
    for knob in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                 "REPRO_ANALYZE", MACHINE_ENV):
        monkeypatch.delenv(knob, raising=False)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_arm(name, clock, costs, log, virtual=1.0):
    """An arm that advances *clock* by its next cost and logs each run."""
    costs = iter(costs)

    def run(c):
        assert c is clock
        log.append(name)
        t0 = c()
        clock.now += next(costs)
        return c() - t0, virtual

    return name, run


class TestPaired:
    def test_first_arm_alternates_after_a_collection(self, monkeypatch):
        clock, log = FakeClock(), []
        monkeypatch.setattr(wallclock.gc, "collect", lambda: log.append("gc"))
        paired(fake_arm("a", clock, [1.0] * 3, log),
               fake_arm("b", clock, [1.0] * 3, log), 3, clock=clock)
        assert log == ["gc", "a", "gc", "b", "gc", "b", "gc", "a",
                       "gc", "a", "gc", "b"]

    def test_every_per_pair_ratio_with_median_and_quartiles(self):
        clock, log = FakeClock(), []
        r = paired(fake_arm("a", clock, [2.0, 6.0, 3.0, 5.0, 4.0], log),
                   fake_arm("b", clock, [1.0, 2.0, 1.0, 1.0, 1.0], log),
                   5, clock=clock)
        assert r["per_pair"] == [2.0, 3.0, 3.0, 5.0, 4.0]
        assert r["median"] == 3.0
        q1, _, q3 = statistics.quantiles(r["per_pair"], n=4)
        assert (r["q1"], r["q3"]) == (q1, q3)

    def test_overhead_is_ratio_minus_one(self):
        clock, log = FakeClock(), []
        r = paired(fake_arm("a", clock, [1.5], log),
                   fake_arm("b", clock, [1.0], log), 1, overhead=True,
                   clock=clock)
        assert r == {"per_pair": [0.5], "median": 0.5, "q1": 0.5, "q3": 0.5}

    def test_diverging_virtual_time_names_both_arms(self):
        clock, log = FakeClock(), []
        with pytest.raises(RuntimeError, match="arms a and b diverged"):
            paired(fake_arm("a", clock, [1.0], log, virtual=1.0),
                   fake_arm("b", clock, [1.0], log, virtual=2.0), 1,
                   clock=clock)


class TestArmChecks:
    STATS = {"macro_replays": 330, "engine_fused_segments": 23430}

    def test_fused_arm_without_segments_fails(self):
        stats = dict(self.STATS, engine_fused_segments=0)
        with pytest.raises(RuntimeError, match="arm fused ran 0 fused"):
            wallclock._expect_paths("fused", stats, True)

    def test_generator_arm_with_segments_fails(self):
        with pytest.raises(RuntimeError, match="arm generators ran 23430"):
            wallclock._expect_paths("generators", self.STATS, False)

    def test_arm_without_replay_fails(self):
        stats = dict(self.STATS, macro_replays=0)
        with pytest.raises(RuntimeError, match="arm fused took no macro"):
            wallclock._expect_paths("fused", stats, True)


class TestFailedGates:
    BOUNDS = {"warm_launch_speedup": (5.0, None),
              "fused_e2e_speedup": (1.0, None),
              "recording_overhead": (None, 0.25)}

    @staticmethod
    def result(warm, fused, recording):
        return {"warm_launch_speedup": {"median": warm},
                "fused_e2e_speedup": {"median": fused},
                "recording_overhead": {"median": recording}}

    def test_none_failing(self):
        assert failed_gates(self.result(6.3, 1.1, 0.1), self.BOUNDS) == []

    def test_open_bounds_check_nothing(self):
        open_bounds = {k: (None, None) for k in self.BOUNDS}
        assert failed_gates(self.result(0.1, 0.1, 9.0), open_bounds) == []

    def test_one_failing(self):
        failed = failed_gates(self.result(4.0, 1.1, 0.1), self.BOUNDS)
        assert len(failed) == 1
        assert failed[0].startswith("warm_launch_speedup median 4.000")

    def test_all_three_failing(self):
        failed = failed_gates(self.result(4.0, 0.9, 0.3), self.BOUNDS)
        assert [m.split()[0] for m in failed] == list(self.BOUNDS)


class TestHostMetadata:
    def test_keys(self):
        host = host_metadata()
        assert set(host) == {"cpu_count", "python", "numpy", "platform"}
        assert host["cpu_count"] >= 1


def check_shape(doc):
    assert doc["schema"] == "repro-wallclock-8"
    assert set(doc) == {"schema", "timestamp", "host", "clock", "pairs",
                        "n_functional", "steps", *RATIOS}
    assert set(doc["host"]) == {"cpu_count", "python", "numpy", "platform"}
    assert doc["clock"] == "process_time"
    for key in RATIOS:
        r = doc[key]
        assert set(r) == {"per_pair", "median", "q1", "q3"}
        assert len(r["per_pair"]) == doc["pairs"]
        assert r["median"] == statistics.median(r["per_pair"])


class TestCommittedBench:
    def test_schema_and_keys(self):
        check_shape(json.loads(COMMITTED.read_text()))


class TestRealRun:
    def test_one_pair_smoke(self):
        # the smallest Somier the paper node fits; two steps so that
        # macro replay engages
        doc = run_wallclock(n_functional=20, steps=2, pairs=1)
        check_shape(json.loads(json.dumps(doc)))
        assert doc["warm_launch_speedup"]["median"] > 0
