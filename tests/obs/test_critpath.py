"""Tests for the critical-path analyzer (``repro.obs.critpath``).

The analyzer's contract, asserted here:

* the critical path's length equals the trace makespan — it explains all
  of the run, not a sample of it;
* every device lane's compute/transfer/retry/contention/idle buckets sum
  exactly to the makespan;
* the what-if replay reproduces the actual makespan when fed the original
  costs, and its ``zero_transfers`` projection matches a real run executed
  with transfer costs zeroed in the cost model;
* recording never perturbs the run: results and traces are bit-identical
  with analysis on or off, across worker counts, and under fault
  injection with failover;
* degenerate traces (empty, zero-duration events, identical stamps,
  single lane) never crash the analysis;
* the what-if replay order is topological (each frontier's completion max
  is taken once, at its first dependent), and the recorder's frontier cap
  leaves the report unchanged on the runs checked here.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from repro.bench import machines
from repro.obs import critpath
from repro.obs.critpath import (
    CRITPATH_SCHEMA,
    CausalRecorder,
    CritPathAnalysis,
    _subtract,
)
from repro.sim.costmodel import CostModel, TransferCost
from repro.sim.topology import cte_power_node
from repro.sim.trace import (D2H, H2D, HOST, KERNEL, Trace, TraceAnalysis,
                             _merge_intervals)
from repro.somier import SomierConfig, run_somier
from repro.util.errors import OmpRuntimeError

BUCKETS = ("compute_s", "transfer_s", "retry_s", "contention_s", "idle_s")

CFG = SomierConfig(n=18, steps=3)


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """The CI legs (``REPRO_ANALYZE=1``, ``REPRO_FAULTS=...``) must not
    leak into the explicit baselines these scenarios construct."""
    for var in ("REPRO_ANALYZE", "REPRO_FAULTS", "REPRO_FAULT_SEED"):
        monkeypatch.delenv(var, raising=False)


def topo(n_dev=4):
    return cte_power_node(n_dev, memory_bytes=1e9)


def run(**kw):
    kw.setdefault("topology", topo())
    return run_somier("one_buffer", CFG, **kw)


def paper_run(n_functional=48, steps=2, **kw):
    """A 4-GPU run on the calibrated paper machine (transfer-bound)."""
    topo_, cm = machines.paper_machine(4, n_functional=n_functional)
    cfg = machines.paper_somier_config(n_functional=n_functional,
                                       steps=steps)
    kw.setdefault("cost_model", cm)
    return run_somier("one_buffer", cfg,
                      devices=machines.paper_devices(4), topology=topo_,
                      **kw), cm


def assert_bit_identical(a, b):
    for name in a.state.grids:
        assert np.array_equal(a.state.grids[name], b.state.grids[name]), name
    assert np.array_equal(a.centers, b.centers)
    assert a.elapsed == b.elapsed
    assert a.runtime.trace.events == b.runtime.trace.events


def assert_replay_order_topological(ana):
    """Every dependency predecessor replays before its dependent."""
    (order, *_columns), _lanes, _frontiers = ana._replay_plan()
    position = {i: k for k, i in enumerate(order)}
    assert sorted(position) == list(range(len(ana.events)))
    assert ana.dep_preds, "no dependency edges recorded"
    for dst, preds in ana.dep_preds.items():
        for pred in preds:
            assert position[pred] < position[dst], (pred, dst)


class ZeroTransferCostModel(CostModel):
    """Transfers are free: no latency, no wire time, no staged bytes."""

    def transfer(self, link, nbytes):
        return TransferCost(bytes=0.0, latency=0.0, wire_time=0.0)


class TestAcceptance:
    """The headline invariants, on the calibrated 4-GPU paper machine."""

    @pytest.fixture(scope="class")
    def analyzed(self):
        res, _cm = paper_run(analyze=True)
        return res, res.runtime.analysis()

    def test_critical_path_length_equals_makespan(self, analyzed):
        _res, ana = analyzed
        cp = ana.critical_path()
        assert ana.makespan > 0
        assert cp["length_s"] == pytest.approx(ana.makespan, rel=1e-9)
        # the segments tile [0, makespan] gaplessly
        segs = sorted(cp["segments"], key=lambda s: s["start"])
        assert segs[0]["start"] == pytest.approx(0.0, abs=1e-9)
        assert segs[-1]["end"] == pytest.approx(ana.makespan, rel=1e-9)
        for prev, cur in zip(segs, segs[1:]):
            assert cur["start"] == pytest.approx(prev["end"], rel=1e-9)

    def test_attribution_buckets_sum_to_makespan(self, analyzed):
        _res, ana = analyzed
        attr = ana.attribution()
        assert attr["lanes"], "no device lanes attributed"
        for lane in attr["lanes"]:
            total = sum(lane[k] for k in BUCKETS)
            assert total == pytest.approx(ana.makespan, rel=1e-9), lane
        totals = attr["totals"]
        assert sum(totals[k] for k in BUCKETS) == pytest.approx(
            ana.makespan * len(attr["lanes"]), rel=1e-9)

    def test_baseline_replay_reproduces_makespan(self, analyzed):
        _res, ana = analyzed
        wi = ana.what_if()
        assert wi["baseline_replay_s"] == pytest.approx(ana.makespan,
                                                        rel=1e-3)

    def test_zero_transfer_whatif_matches_zeroed_cost_model_run(self,
                                                                analyzed):
        _res, ana = analyzed
        projected = ana.what_if()["scenarios"]["zero_transfers"]["makespan_s"]
        _topo, cm = machines.paper_machine(4, n_functional=48)
        actual, _ = paper_run(
            cost_model=ZeroTransferCostModel(scale=cm.scale))
        assert projected == pytest.approx(actual.elapsed, rel=0.01)

    def test_whatif_names_a_bottleneck(self, analyzed):
        _res, ana = analyzed
        wi = ana.what_if()
        assert wi["bottleneck"] in wi["scenarios"]
        assert wi["bottleneck_speedup"] == pytest.approx(
            wi["scenarios"][wi["bottleneck"]]["speedup"])
        # the paper machine is transfer-bound: freeing transfers wins
        assert wi["bottleneck"] == "zero_transfers"
        assert wi["bottleneck_speedup"] > 1.5

    def test_replay_order_is_topological(self, analyzed):
        _res, ana = analyzed
        assert_replay_order_topological(ana)


class TestBitIdentity:
    """Edge recording never touches the virtual timeline."""

    def test_analyze_on_off_identical(self):
        off = run(analyze=False)
        on = run(analyze=True)
        assert on.stats["causal_ops"] > 0
        assert_bit_identical(off, on)

    def test_analyze_identical_under_faults_and_failover(self):
        spec = dict(faults="device@1:#10", fault_seed=7)
        off = run(analyze=False, **spec)
        on = run(analyze=True, **spec)
        assert on.stats["fault_failovers"] > 0
        assert_bit_identical(off, on)

    def test_env_var_arms_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "1")
        res = run()  # analyze=None consults the environment
        assert res.runtime.causal is not None
        assert res.stats["causal_ops"] > 0


class TestRetryAttribution:
    def test_retries_tagged_and_bucketed(self):
        res = run(faults="transfer:0.02,kernel:0.01", fault_seed=11,
                  analyze=True)
        assert res.stats["fault_retries"] > 0
        retried = [e for e in res.runtime.trace.events
                   if e.meta.get("attempt")]
        assert len(retried) == res.stats["fault_retries"]
        for ev in retried:
            assert ev.meta["attempt"] >= 1
            assert "retry_of" in ev.meta
        ana = res.runtime.analysis()
        attr = ana.attribution()
        assert attr["totals"]["retry_s"] > 0
        # the invariants hold under fault injection too
        assert ana.critical_path()["length_s"] == pytest.approx(
            ana.makespan, rel=1e-9)
        for lane in attr["lanes"]:
            assert sum(lane[k] for k in BUCKETS) == pytest.approx(
                ana.makespan, rel=1e-9)

    def test_failover_reroute_provenance_survives(self):
        res = run(faults="device@1:#10", analyze=True)
        rerouted = [e for e in res.runtime.trace.events
                    if e.meta.get("rerouted_from") is not None]
        assert rerouted, "no re-routed ops recorded"
        assert all(e.meta["rerouted_from"] == 1 for e in rerouted)
        ana = res.runtime.analysis()
        assert ana.critical_path()["length_s"] == pytest.approx(
            ana.makespan, rel=1e-9)
        assert_replay_order_topological(ana)


class UncappedRecorder(CausalRecorder):
    MAX_HEADS = 10**9


class TestFrontierCap:
    """``CausalRecorder.MAX_HEADS`` truncates merged frontiers; the report
    must not depend on it."""

    @pytest.mark.parametrize("spec", [{}, {"faults": "device@1:#10"}],
                             ids=["plain", "failover"])
    def test_uncapped_recorder_gives_the_same_report(self, monkeypatch,
                                                     spec):
        capped = run(analyze=True, **spec).runtime.analysis().report()
        monkeypatch.setattr(critpath, "CausalRecorder", UncappedRecorder)
        res = run(analyze=True, **spec)
        assert isinstance(res.runtime.causal, UncappedRecorder)
        uncapped = res.runtime.analysis().report()
        # the cap bites on these runs ...
        assert (uncapped.pop("recorder")["dep_edges"]
                > capped.pop("recorder")["dep_edges"])
        # ... and changes nothing else, to the bit
        assert json.dumps(uncapped) == json.dumps(capped)


def brute_subtract(xs, ys):
    """*xs* minus *ys* over the elementary segments between endpoints,
    touching pieces merged."""
    points = sorted({p for iv in (*xs, *ys) for p in iv})
    out = []
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        if any(a < mid < b for a, b in xs) and \
                not any(a < mid < b for a, b in ys):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def random_disjoint(rng, count, max_len):
    """Sorted disjoint intervals on a half-unit grid; a zero gap makes
    neighbours touch at an endpoint."""
    out, pos = [], 0.0
    for _ in range(count):
        start = pos + 0.5 * float(rng.integers(0, 3))
        pos = start + 0.5 * float(rng.integers(1, max_len + 1))
        out.append((start, pos))
    return out


class TestSubtract:
    def test_examples(self):
        # one y spanning several xs
        assert _subtract([(0, 1), (2, 3), (4, 5)], [(0.5, 4.5)]) == \
            [(0, 0.5), (4.5, 5)]
        # xs and ys touching at endpoints
        assert _subtract([(0, 1), (1, 2)], [(1, 1.5), (2, 3)]) == \
            [(0, 1), (1.5, 2)]
        assert _subtract([(0, 1)], []) == [(0, 1)]
        assert _subtract([], [(0, 1)]) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            xs = random_disjoint(rng, int(rng.integers(0, 8)), 4)
            ys = random_disjoint(rng, int(rng.integers(0, 8)),
                                 int(rng.choice([2, 12])))
            got = _subtract(xs, ys)
            assert all(a < b for a, b in got)
            assert all(p[1] <= q[0] for p, q in zip(got, got[1:]))
            assert _merge_intervals(got) == brute_subtract(xs, ys), (xs, ys)


class TestMerged:
    """``_merged`` reads intervals from columns; it must give exactly
    ``_merge_intervals`` of the same intervals."""

    def test_matches_merge_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            count = int(rng.integers(0, 12))
            # a half-unit grid: shared starts, touching and empty intervals
            lo = [0.5 * float(v) for v in rng.integers(0, 10, count)]
            hi = [a + 0.5 * float(v)
                  for a, v in zip(lo, rng.integers(-1, 5, count))]
            idx = [int(i) for i in rng.permutation(count)[:count - 1]]
            assert critpath._merged(idx, lo, hi) == _merge_intervals(
                [(lo[i], hi[i]) for i in idx]), (lo, hi, idx)


class TestRecorderSurface:
    def test_driver_stats_counters(self):
        res = run(analyze=True)
        assert res.stats["causal_ops"] > 0
        assert res.stats["causal_dep_edges"] > 0
        assert res.stats["causal_res_edges"] >= 0
        rec = res.runtime.causal
        assert rec.ops == res.stats["causal_ops"]
        assert len(rec.op_event) <= rec.ops

    def test_analysis_requires_recording(self):
        res = run(analyze=False)
        with pytest.raises(OmpRuntimeError, match="no causal recording"):
            res.runtime.analysis()

    def test_explicit_analyze_implies_tracing(self):
        # driver level: an explicit opt-in turns tracing on
        res = run(analyze=True, trace=False)
        assert res.runtime.trace.events
        assert res.runtime.causal is not None

    def test_explicit_analyze_without_trace_traces_at_runtime_level(self):
        # the runtime applies the same RunOptions rule as the driver
        from repro.openmp.runtime import OpenMPRuntime
        rt = OpenMPRuntime(topology=topo(), trace=False, analyze=True)
        assert rt.trace.enabled and rt.causal is not None

    def test_env_analyze_without_trace_silently_skips(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "1")
        res = run(trace=False)  # env-armed, untraced: no recording, no error
        assert res.runtime.causal is None
        assert res.runtime.trace.events == []


class TestAnalysisSurfaces:
    @pytest.fixture(scope="class")
    def ana(self):
        res, _cm = paper_run(analyze=True)
        return res.runtime.analysis()

    def test_stragglers_rows(self, ana):
        rows = ana.stragglers(top=None)
        assert rows, "no spread directives found"
        for row in rows:
            assert row["chunks"] >= 2
            assert row["imbalance"] >= 1.0
            assert row["max_s"] >= row["mean_s"] > 0
            assert row["lost_s"] >= 0

    def test_overlap_rows(self, ana):
        rows = ana.overlap()
        assert rows
        for row in rows:
            assert row["window_s"] > 0
            assert 0.0 <= row["efficiency"] <= 1.0 + 1e-9
            assert row["compute_transfer_overlap_s"] >= 0

    def test_flow_records_pair_up(self, ana):
        flows = ana.flow_records()
        starts = [r for r in flows if r["ph"] == "s"]
        ends = [r for r in flows if r["ph"] == "f"]
        assert starts and len(starts) == len(ends)
        assert {r["id"] for r in starts} == {r["id"] for r in ends}
        for r in flows:
            assert r["ts"] >= 0

    def test_report_validates_against_checked_in_schema(self, ana):
        here = os.path.dirname(__file__)
        spec = importlib.util.spec_from_file_location(
            "validate_critpath",
            os.path.join(here, "..", "..", "benchmarks",
                         "validate_critpath.py"))
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        payload = ana.report()
        assert payload["schema"] == CRITPATH_SCHEMA
        with open(os.path.join(here, "..", "..", "docs", "schemas",
                               "critpath-1.schema.json")) as f:
            schema = json.load(f)
        errors = []
        validator.validate(payload, schema, schema, "$", errors)
        validator.check_invariants(payload, 1e-6, errors)
        assert errors == []
        # the payload round-trips through JSON
        assert json.loads(ana.to_json())["schema"] == CRITPATH_SCHEMA

    def test_text_surfaces(self, ana):
        line = ana.summary_line()
        assert "slackness" in line and "makespan" in line
        text = ana.render_text()
        for heading in ("critical path", "attribution", "what-if"):
            assert heading in text


class TestDegenerateTraces:
    """Satellite: pathological traces must not crash the analyses."""

    def _exercise(self, trace, recorder=None):
        ana = CritPathAnalysis(trace, recorder or CausalRecorder())
        cp = ana.critical_path()
        assert cp["length_s"] == pytest.approx(ana.makespan, rel=1e-9)
        ana.attribution()
        ana.stragglers()
        ana.overlap()
        ana.what_if()
        ana.flow_records()
        ana.report()
        ana.render_text()
        ana.summary_line()
        return ana

    def test_empty_trace(self):
        tr = Trace()
        assert TraceAnalysis(tr).idle_fraction(0) == 0.0
        ana = self._exercise(tr)
        assert ana.makespan == 0.0
        assert ana.critical_path()["segments"] == []

    def test_zero_duration_events(self):
        tr = Trace()
        tr.record(H2D, "c", lane="gpu0", start=0.0, end=0.0, device=0)
        tr.record(KERNEL, "k", lane="gpu0", start=0.0, end=0.0, device=0)
        TraceAnalysis(tr).device_summary(0)
        self._exercise(tr)

    def test_identical_stamps(self):
        tr = Trace()
        for name in ("a", "b", "c"):
            tr.record(KERNEL, name, lane="gpu0", start=1.0, end=2.0,
                      device=0)
        TraceAnalysis(tr).device_summary(0)
        ana = self._exercise(tr)
        assert ana.makespan == 2.0

    def test_single_lane(self):
        tr = Trace()
        tr.record(H2D, "in", lane="gpu0", start=0.0, end=1.0, device=0)
        tr.record(KERNEL, "k", lane="gpu0", start=1.0, end=3.0, device=0)
        tr.record(D2H, "out", lane="gpu0", start=3.0, end=4.0, device=0)
        ana = self._exercise(tr)
        attr = ana.attribution()
        assert len(attr["lanes"]) == 1
        lane = attr["lanes"][0]
        assert sum(lane[k] for k in BUCKETS) == pytest.approx(4.0)
        assert lane["compute_s"] == pytest.approx(2.0)
        assert lane["transfer_s"] == pytest.approx(2.0)

    def test_lane_device_is_its_first_event_s(self):
        # a hand-built lane shared by two devices reports the device of
        # its earliest event, whatever the recording order
        tr = Trace()
        tr.record(KERNEL, "late", lane="q", start=2.0, end=3.0, device=0)
        tr.record(KERNEL, "early", lane="q", start=1.0, end=2.0, device=1)
        tr.record(HOST, "t", lane="q", start=0.0, end=0.5)
        ana = self._exercise(tr)
        assert [r["device"] for r in ana.attribution()["lanes"]] == [1]

    def test_host_only_trace(self):
        tr = Trace()
        tr.record(HOST, "t", lane="host", start=0.0, end=1.0)
        ana = self._exercise(tr)
        assert ana.attribution()["lanes"] == []  # no device lanes

    def test_shared_frontier_replays_exactly(self):
        # k and out share one frontier tuple (in, k0); in and k0 have none.
        # The binding predecessor is the H2D: freeing transfers moves the
        # frontier to k0's completion while each dependent keeps its
        # original host lag behind the binding predecessor.
        tr = Trace()
        tr.record(H2D, "in", lane="gpu0", start=0.0, end=3.0, device=0,
                  issue=0.0)
        tr.record(KERNEL, "k0", lane="gpu1", start=0.5, end=2.5, device=1,
                  issue=0.0, ready=0.5)
        tr.record(KERNEL, "k", lane="gpu0", start=3.5, end=5.5, device=0,
                  issue=3.25, ready=3.5)
        tr.record(D2H, "out", lane="gpu1", start=3.5, end=4.5, device=1,
                  issue=3.5, done=5.0)
        rec = CausalRecorder()
        rec.ops = 4
        rec.op_event = {1: 0, 2: 1, 3: 2, 4: 3}
        frontier = (1, 2)
        rec.op_deps = {3: frontier, 4: frontier}
        ana = self._exercise(tr, rec)
        assert ana.dep_preds[2] is ana.dep_preds[3]
        assert [ana.binding(i) for i in range(4)] == [None, None, 0, 0]
        assert_replay_order_topological(ana)
        wi = ana.what_if()
        assert wi["baseline_replay_s"] == 5.5
        assert wi["scenarios"]["zero_transfers"]["makespan_s"] == 5.0
        kinds = [(s["kind"], s["start"], s["end"])
                 for s in ana.critical_path()["segments"]]
        assert kinds == [(H2D, 0.0, 3.0), ("host", 3.0, 3.25),
                         ("prep", 3.25, 3.5), (KERNEL, 3.5, 5.5)]

    def test_events_without_recorded_edges(self):
        # a traced run whose recorder saw nothing: pure trace-driven path
        tr = Trace()
        tr.record(KERNEL, "k0", lane="gpu0", start=0.0, end=2.0, device=0)
        tr.record(KERNEL, "k1", lane="gpu1", start=1.0, end=5.0, device=1)
        ana = self._exercise(tr)
        assert ana.critical_path()["length_s"] == pytest.approx(5.0)


class TestCLISmoke:
    ARGS = ["--n-functional", "48", "--steps", "2"]

    def test_analyze_text(self, capsys):
        from repro.cli import main
        assert main(["analyze", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "slackness" in out
        assert "what-if" in out

    def test_analyze_json_and_trace(self, capsys, tmp_path):
        from repro.cli import main
        trace_path = tmp_path / "cp_trace.json"
        assert main(["analyze", *self.ARGS, "--json",
                     "--trace-json", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == CRITPATH_SCHEMA
        assert payload["critical_path"]["length_s"] == pytest.approx(
            payload["makespan_s"], rel=1e-6)
        records = json.loads(trace_path.read_text())["traceEvents"]
        assert any(r.get("ph") == "s" for r in records)
        assert any(r.get("ph") == "f" for r in records)

    def test_somier_analyze_flag(self, capsys):
        from repro.cli import main
        assert main(["somier", *self.ARGS, "--analyze"]) == 0
        assert "slackness" in capsys.readouterr().out

    def test_stats_prints_slackness(self, capsys):
        from repro.cli import main
        assert main(["stats", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "slackness" in out
        assert "critical path:" in out
