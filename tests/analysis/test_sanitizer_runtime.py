"""Runtime integration tests for the dynamic race sanitizer.

The contract under test: sanitized runs flag exactly the operations that
are unordered and conflicting (no false negatives on crafted races, no
false positives on depend/taskwait-ordered programs), stay bit-identical
to unsanitized runs, and strict mode escalates reports to
:class:`DataRaceError`.
"""

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.depend import Dep
from repro.sim.topology import cte_power_node
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    spread_schedule,
    target_spread,
)
from repro.spread.extensions import enable
from repro.util.errors import DataRaceError

S, Z = omp_spread_start, omp_spread_size


def make_rt(n=4, **kw):
    return OpenMPRuntime(topology=cte_power_node(n, memory_bytes=1e9), **kw)


def copy_kernel():
    def body(lo, hi, env):
        env["B"][lo:hi] = env["A"][lo:hi] + 1

    return KernelSpec("copy", body)


def writer_program(nowait_second=True, taskwait_between=False, deps=False):
    """Two spread kernels whose write-backs overlap on B."""
    n = 16
    A, B = np.arange(float(n)), np.zeros(n)
    vA, vB = Var("A", A), Var("B", B)

    def program(omp):
        yield from target_spread(
            omp, copy_kernel(), 0, n, [0, 1],
            maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
            nowait=True,
            depends=[Dep.out(vB, (S, Z))] if deps else ())
        if taskwait_between:
            yield from omp.taskwait()
        yield from target_spread(
            omp, copy_kernel(), 0, n, [0, 1],
            maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
            nowait=nowait_second,
            depends=[Dep.inout(vB, (S, Z))] if deps else ())
        yield from omp.taskwait()

    return program


class TestRaceDetection:
    def test_unordered_nowait_writebacks_race(self):
        rt = make_rt(sanitize=True)
        rt.run(writer_program())
        assert rt.sanitizer.races > 0
        report = rt.sanitizer.reports[0]
        assert report.var == "B"
        assert report.first_write and report.second_write
        assert "data race on B" in report.render()
        assert "unordered" in rt.sanitizer.summary()

    def test_reports_carry_device_and_directive_provenance(self):
        # Directive ids are allocated by the runtime whether or not a
        # tool is registered; the reports carry them either way.
        rt = make_rt(sanitize=True)
        rt.run(writer_program())
        report = rt.sanitizer.reports[0]
        assert report.first_device is not None
        assert report.second_device is not None
        assert report.first_directive is not None
        assert report.second_directive is not None
        assert report.first_directive != report.second_directive
        d = report.to_dict()
        assert d["var"] == "B" and d["first"]["write"]

    def test_report_is_deterministic_across_runs(self):
        outs = []
        for _ in range(2):
            rt = make_rt(sanitize=True)
            rt.run(writer_program())
            outs.append([r.to_dict() for r in rt.sanitizer.reports])
        assert outs[0] == outs[1]


class TestNoFalsePositives:
    def test_taskwait_ordered_program_is_clean(self):
        n = 16
        A, B = np.arange(float(n)), np.zeros(n)
        vA, vB = Var("A", A), Var("B", B)

        def program(omp):
            for _ in range(2):
                yield from target_spread(
                    omp, copy_kernel(), 0, n, [0, 1],
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                    nowait=True)
                yield from omp.taskwait()

        rt = make_rt(sanitize=True)
        rt.run(program)
        assert rt.sanitizer.races == 0
        assert rt.sanitizer.ops_recorded > 0

    def test_depend_chain_ordered_program_is_clean(self):
        rt = make_rt(sanitize=True)
        rt.run(writer_program(deps=True))
        assert rt.sanitizer.races == 0

    def test_taskwait_between_writers_is_clean(self):
        rt = make_rt(sanitize=True)
        rt.run(writer_program(nowait_second=False, taskwait_between=True))
        assert rt.sanitizer.races == 0

    def test_dynamic_schedule_workers_are_program_ordered(self):
        n = 24
        A, B = np.arange(float(n)), np.zeros(n)
        vA, vB = Var("A", A), Var("B", B)

        def program(omp):
            yield from target_spread(
                omp, copy_kernel(), 0, n, [0, 1],
                schedule=spread_schedule("dynamic", 4),
                maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))])

        rt = make_rt(sanitize=True)
        enable(rt, schedules=True)
        rt.run(program)
        assert rt.sanitizer.races == 0
        assert np.array_equal(B, A + 1)


class TestBitIdentity:
    def test_results_and_trace_identical_with_and_without(self):
        n = 16

        def run(sanitize):
            A, B = np.arange(float(n)), np.zeros(n)
            vA, vB = Var("A", A), Var("B", B)

            def program(omp):
                yield from target_spread(
                    omp, copy_kernel(), 0, n, [0, 1, 2],
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))])

            rt = make_rt(sanitize=sanitize)
            rt.run(program)
            return B, rt.sim.now, rt.trace.events

        b_off, now_off, ev_off = run(False)
        b_on, now_on, ev_on = run(True)
        assert np.array_equal(b_off, b_on)
        assert now_off == now_on
        assert ev_off == ev_on


class TestStrictMode:
    def test_strict_raises_data_race_error(self):
        rt = make_rt(sanitize="strict")
        with pytest.raises(DataRaceError, match="data race on B"):
            rt.run(writer_program())

    def test_strict_clean_program_passes(self):
        rt = make_rt(sanitize="strict")
        rt.run(writer_program(deps=True))
        assert rt.sanitizer.races == 0

    def test_env_var_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rt = make_rt()
        assert rt.sanitizer is not None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert make_rt().sanitizer is None
