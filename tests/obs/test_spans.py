"""Acceptance tests: directive and chunk windows taken from the trace.

For a spread directive, the directive window must contain its chunk
windows, which contain their kernel/transfer ops on the raw device lanes;
the merged Chrome trace must parse as JSON and name its span lanes.
"""

import json

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.obs import ProfileReport
from repro.obs.report import CHROME_PID
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.topology import cte_power_node
from repro.spread import omp_spread_size, omp_spread_start, target_spread

S, Z = omp_spread_start, omp_spread_size


def scale_kernel():
    def body(lo, hi, env):
        env["B"][lo:hi] = 2.0 * env["A"][lo:hi]

    return KernelSpec("scale", body)


@pytest.fixture()
def recorded():
    """One 4-device target spread run and its profile report."""
    n = 64
    rt = OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9))
    A, B = np.arange(float(n)), np.zeros(n)
    vA, vB = Var("A", A), Var("B", B)

    def program(omp):
        yield from target_spread(
            omp, scale_kernel(), 0, n, [0, 1, 2, 3],
            maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))])

    rt.run(program)
    assert np.array_equal(B, 2.0 * A)
    return rt, ProfileReport(rt)


def _spread_ids(rt):
    return [did for did, info in sorted(rt.directive_info.items())
            if info["kind"] == "target spread"]


class TestContainment:
    def test_spread_directive_contains_chunk_tasks_contains_ops(self, recorded):
        rt, report = recorded
        did = _spread_ids(rt)[0]
        d0, d1 = report.directive_windows[did]
        chunks = {key: win for key, win in report.chunk_windows.items()
                  if key[0] == did}
        assert len(chunks) == 4  # one chunk per device
        assert {d for _did, _chunk, d in chunks} == {0, 1, 2, 3}
        for (_did, chunk, d), (c0, c1) in chunks.items():
            assert d0 <= c0 and c1 <= d1
            ops = [e for e in rt.trace.events
                   if e.meta.get("directive") == did
                   and e.meta.get("chunk") == chunk and e.device == d]
            assert any(e.category == "kernel" for e in ops)
            for e in ops:
                assert c0 <= e.meta["issue"] and e.end <= c1

    def test_directive_interval_extended_over_nowait_chunks(self, recorded):
        rt, report = recorded
        d0, d1 = report.directive_windows[_spread_ids(rt)[0]]
        # the window covers the fanned-out ops, not the encountering
        # task's (near-zero) begin/end
        assert d1 - d0 > 0


class TestChromeExport:
    def test_merged_trace_parses_and_nests(self, recorded):
        _, report = recorded
        events = json.loads(report.chrome_trace())["traceEvents"]
        span_events = [e for e in events
                       if e["ph"] == "X" and e["pid"] == CHROME_PID]
        raw_events = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
        assert span_events and raw_events
        directives = {e["args"]["directive"]: e for e in span_events
                      if e["cat"] == "span:directive"}
        chunks = [e for e in span_events if e["cat"] == "span:chunk"]
        assert chunks
        # every chunk record sits inside its directive's [ts, ts+dur]
        for e in chunks:
            p = directives[e["args"]["directive"]]
            assert p["ts"] <= e["ts"] + 1e-6
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-6
        # ops live on the raw device lanes only
        assert {e["cat"] for e in span_events} == {"span:directive",
                                                   "span:chunk"}

    def test_span_lanes_are_named(self, recorded):
        _, report = recorded
        doc = json.loads(report.chrome_trace())
        meta = [e for e in doc["traceEvents"]
                if e["ph"] == "M" and e["pid"] == CHROME_PID]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == {"directives", "chunks@gpu0", "chunks@gpu1",
                         "chunks@gpu2", "chunks@gpu3"}
        assert any(e["name"] == "process_name" for e in meta)


class TestDataDirectiveSpans:
    def test_enter_exit_spread_recorded(self):
        from repro.spread import (
            target_enter_data_spread,
            target_exit_data_spread,
        )

        n = 32
        rt = OpenMPRuntime(topology=cte_power_node(2, memory_bytes=1e9))
        vA = Var("A", np.arange(float(n)))

        def program(omp):
            yield from target_enter_data_spread(
                omp, [0, 1], (0, n), None, [Map.to(vA, (S, Z))])
            yield from target_exit_data_spread(
                omp, [0, 1], (0, n), None, [Map.from_(vA, (S, Z))])

        rt.run(program)
        report = ProfileReport(rt)
        kinds = {rt.directive_info[did]["kind"]
                 for did in report.directive_windows}
        assert kinds == {"target enter data spread",
                         "target exit data spread"}
        rows = {r["kind"]: r for r in report.per_directive_rows()}
        assert rows["target enter data spread"]["chunks"] == 2
        assert rows["target exit data spread"]["chunks"] == 2
