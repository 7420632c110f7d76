"""Acceptance tests: a real multi-device run feeds every callback point.

The OMPT-style tool API is public: a tool registered on a 4-device
``one_buffer`` Somier run must receive every point a profiler needs —
device initialization, data movement and present-table traffic,
directives with their chunk counts, tasks, dependences, submits and
kernels — with payloads that agree with the runtime's own counters.
"""

import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.somier import run_somier
from tests.conftest import CallbackLog


@pytest.fixture(scope="module")
def run():
    topo, cm = paper_machine(4, n_functional=24)
    cfg = paper_somier_config(n_functional=24, steps=2)
    log = CallbackLog("device_init", "data_op", "directive_end",
                      "task_create", "dependence_resolved", "target_submit")
    result = run_somier("one_buffer", cfg, devices=paper_devices(4),
                        topology=topo, cost_model=cm, tools=(log,))
    return result, log


class TestEveryPointFires:
    def test_devices_initialized(self, run):
        _, log = run
        inits = log.of("device_init")
        assert sorted(kw["device"] for kw in inits) == [0, 1, 2, 3]
        assert all(kw["memory_bytes"] > 0 for kw in inits)

    def test_data_movement_matches_device_counters(self, run):
        result, log = run
        for op, key in (("h2d", "h2d_bytes"), ("d2h", "d2h_bytes")):
            moves = log.of("data_op", op=op)
            assert sum(kw["bytes"] for kw in moves) == result.stats[key]
            assert all(kw["wire_start"] <= kw["wire_end"] for kw in moves)
        assert len(log.of("data_op", op="h2d")) + \
            len(log.of("data_op", op="d2h")) == result.stats["memcpy_calls"]

    def test_present_table_traffic(self, run):
        _, log = run
        for op in ("alloc", "free", "present_hit", "present_miss",
                   "delete", "present_memo_hit"):
            assert log.of("data_op", op=op), op

    def test_directives(self, run):
        result, log = run
        assert log.counts["directive_begin"] == \
            len(result.runtime.directive_info)
        assert log.counts["directive_end"] == log.counts["directive_begin"]
        assert sum(kw.get("chunks") or 0
                   for kw in log.of("directive_end")) == 308

    def test_tasks_and_dependences(self, run):
        result, log = run
        assert any(kw["deferred"] for kw in log.of("task_create"))
        assert log.counts["task_schedule"] == log.counts["task_complete"] \
            == log.counts["task_create"] > 0
        assert sum(kw["edges"] for kw in log.of("dependence_resolved")) == \
            result.runtime.depend.resolved_edges > 0

    def test_kernels_and_submits(self, run):
        result, log = run
        assert log.counts["kernel_launch"] == log.counts["kernel_complete"] \
            == result.stats["kernels_launched"]
        assert {kw["device"] for kw in log.of("target_submit")} == \
            {0, 1, 2, 3}
