"""Smoke tests for the wall-clock track (tiny sizes; numbers not asserted)."""

import json
import pathlib

from repro.bench.wallclock import end_to_end, host_metadata

COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "BENCH_wallclock.json"


class TestEndToEnd:
    def test_serial_record_shape(self):
        r = end_to_end(True, n_functional=24, steps=1)
        assert r["wall_s"] > 0
        assert r["virtual_s"] > 0
        assert "workers" not in r
        assert not any(k.startswith("executor_") for k in r)


class TestHostMetadata:
    def test_keys(self):
        host = host_metadata()
        assert set(host) == {"cpu_count", "python", "numpy", "platform"}
        assert host["cpu_count"] >= 1


class TestCommittedBench:
    def test_schema_and_keys(self):
        doc = json.loads(COMMITTED.read_text())
        assert doc["schema"] == "repro-wallclock-6"
        assert set(doc["host"]) == {"cpu_count", "python", "numpy",
                                    "platform"}
        # exactly these blocks: the retired sweep and microbench keys of
        # earlier schemas must not linger in the committed file
        assert set(doc) == {
            "schema", "timestamp", "host", "launch_microbench",
            "end_to_end", "engine", "analyzer_overhead",
            "warm_launch_speedup", "warm_macro_speedup",
            "end_to_end_speedup", "fused_e2e_speedup"}
