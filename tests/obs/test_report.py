"""Unit tests for the profiling report built from a run's trace and counters."""

import json

import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.cli import main
from repro.obs import ProfileReport
from repro.obs.report import PROFILE_SCHEMA
from repro.openmp import OpenMPRuntime
from repro.sim.topology import cte_power_node
from repro.somier import run_somier


@pytest.fixture(autouse=True, scope="module")
def _hermetic_env():
    """Fault, sanitizer and analyzer knobs change the path or the values
    these tests pin; keep the CI legs out (module scope, so the shared
    ``profiled`` run is hermetic too)."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                    "REPRO_ANALYZE", "REPRO_MACHINE"):
            mp.delenv(var, raising=False)
        yield


def _run(gpus=4, n=24, steps=2):
    topo, cm = paper_machine(gpus, n_functional=n)
    cfg = paper_somier_config(n_functional=n, steps=steps)
    return run_somier("one_buffer", cfg, devices=paper_devices(gpus),
                      topology=topo, cost_model=cm)


@pytest.fixture(scope="module")
def profiled():
    result = _run()
    return result, ProfileReport(result.runtime)


#: Somier one_buffer, n=24, 2 steps, paper 4-GPU node, as the earlier
#: callback-driven profiler (repro-profile-1) reported them.  These
#: columns kept their meaning in repro-profile-2 and must match exactly,
#: floats to the bit.
PINNED_DIRECTIVES = {
    "target enter data spread": (12, 44),
    "target exit data spread": (12, 44),
    "target spread": (60, 220),
}
#: device -> (h2d_bytes, d2h_bytes, memcpys, kernels, then kernel_s,
#: queue_busy_s and link_busy_s as float.hex() strings)
PINNED_DEVICES = {
    0: (124416000000.0, 82980000000.0, 300, 60, "0x1.147ecfe9b7bebp+3",
        "0x1.8fb9b9d7b03e8p+4", "0x1.422b25ade199cp+3"),
    1: (124416000000.0, 82980000000.0, 300, 60, "0x1.147ecfe9b7bebp+3",
        "0x1.ac2d4fe5bf5bbp+4", "0x1.422b25ade199ap+3"),
    2: (103680000000.0, 69150000000.0, 250, 50, "0x1.ccd35a858793ap+2",
        "0x1.4d1ac58912de1p+4", "0x1.0c794a10e6aa0p+3"),
    3: (103680000000.0, 69150000000.0, 250, 50, "0x1.ccd35a858793ap+2",
        "0x1.64d06d3f74cc2p+4", "0x1.0c794a10e6aa3p+3"),
}
PINNED_DEPENDENCE_EDGES = 625
PINNED_PLAN_CACHE = (42, 42)  # hits, misses


class TestPinnedColumns:
    def test_per_directive_count_and_chunks(self, profiled):
        _, report = profiled
        got = {r["kind"]: (r["count"], r["chunks"])
               for r in report.per_directive_rows()}
        assert got == PINNED_DIRECTIVES

    def test_per_device_columns(self, profiled):
        _, report = profiled
        got = {r["device"]: (r["h2d_bytes"], r["d2h_bytes"], r["memcpys"],
                             r["kernels"], r["kernel_s"].hex(),
                             r["queue_busy_s"].hex(), r["link_busy_s"].hex())
               for r in report.per_device_rows()}
        assert got == PINNED_DEVICES

    def test_dependence_edges_and_plan_cache(self, profiled):
        _, report = profiled
        c = report.counters()
        assert c["dependence_edges"] == PINNED_DEPENDENCE_EDGES
        assert (c["plan_cache_hits"], c["plan_cache_misses"]) == \
            PINNED_PLAN_CACHE


class TestProfiledRunIsPlainRun:
    def test_cli_profile_reports_the_fast_path(self, capsys, tmp_path):
        plain = _run()
        assert plain.stats["macro_replays"] > 0
        assert plain.stats["engine_fused_segments"] > 0
        path = tmp_path / "profile.json"
        rc = main(["somier", "--gpus", "4", "--n-functional", "24",
                   "--steps", "2", "--profile", "--metrics-json", str(path)])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["counters"]["macro_replays"] == \
            plain.stats["macro_replays"]
        assert payload["engine"]["fused_segments"] == \
            plain.stats["engine_fused_segments"]
        assert payload["makespan_s"] == plain.elapsed


class TestRows:
    def test_per_directive_rows(self, profiled):
        _, report = profiled
        by_kind = {r["kind"]: r for r in report.per_directive_rows()}
        spread = by_kind["target spread"]
        # issue -> end windows: nowait directives still show real time
        assert spread["total_s"] > 0
        assert spread["mean_s"] == pytest.approx(
            spread["total_s"] / spread["count"])
        assert 0 < spread["max_s"] <= spread["total_s"]

    def test_per_device_rows(self, profiled):
        result, report = profiled
        rows = report.per_device_rows()
        assert [r["device"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert r["h2d_bytes"] > 0 and r["d2h_bytes"] > 0
            assert r["kernel_s"] > 0
            assert r["queue_busy_s"] > r["kernel_s"]
            assert r["present_misses"] > 0 and r["memo_hits"] > 0
            assert r["chunks"] > 0
        assert sum(r["h2d_bytes"] for r in rows) == result.stats["h2d_bytes"]
        assert sum(r["memcpys"] for r in rows) == \
            result.stats["memcpy_calls"]
        assert sum(r["chunks"] for r in rows) == \
            len(report.chunk_windows)


class TestRenderText:
    def test_tables_present_and_aligned(self, profiled):
        _, report = profiled
        text = report.render_text()
        assert "Per-directive profile" in text
        assert "Per-device profile" in text
        assert "makespan:" in text and "tasks spawned:" in text
        assert "macro replays" in text and "fused segments" in text
        lines = text.splitlines()
        # alignment: each table's header and dashed separator agree on the
        # column boundaries
        for first_col in ("directive ", "device "):
            idx = next(i for i, l in enumerate(lines)
                       if l.startswith(first_col))
            header, sep = lines[idx], lines[idx + 1]
            assert set(sep) <= {"-", "+"}
            assert len(sep) == len(header)
            assert [i for i, ch in enumerate(header) if ch == "|"] == \
                [i for i, ch in enumerate(sep) if ch == "+"]

    def test_run_without_directives_has_no_directive_table(self):
        rt = OpenMPRuntime(topology=cte_power_node(2, memory_bytes=1e9))

        def program(omp):
            yield omp.rt.sim.timeout(0.5)

        rt.run(program)
        text = ProfileReport(rt).render_text()
        assert "Per-directive profile" not in text
        assert "gpu1" in text
        assert "makespan: 0.500000s" in text


class TestJson:
    def test_round_trip(self, profiled):
        result, report = profiled
        payload = json.loads(report.to_json(indent=2))
        assert payload["schema"] == PROFILE_SCHEMA == "repro-profile-2"
        assert payload["makespan_s"] == result.elapsed
        assert payload["directives"] and payload["devices"]
        assert payload["counters"]["tasks"] == result.runtime.task_count
        assert payload["engine"] == result.runtime.sim.engine_stats()
        assert payload["spans"] == {"directives": 84, "chunks": 308}
        assert "faults" not in payload and "analysis" not in payload
        # re-serializable (no exotic types leaked through)
        assert json.loads(json.dumps(payload)) == payload


class TestChromeTrace:
    def test_chrome_trace_merges_spans(self, profiled):
        _, report = profiled
        doc = json.loads(report.chrome_trace())
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}  # raw device lanes + span lanes
