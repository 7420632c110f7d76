"""Ablation A2 — §IX future work: non-static spread schedules.

"Dynamic scheduling is also an important issue that must be addressed in
order to mitigate the slowdown cause by load imbalance."  This bench builds
the imbalanced node the paper hypothesizes (one device 3x slower) and
compares static round-robin against the dynamic-pull extension, plus an
irregular static schedule tuned to the imbalance.
"""

import numpy as np
import pytest

from conftest import run_once

from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.topology import DeviceSpec, uniform_node
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    spread_schedule,
    target_spread_teams_distribute_parallel_for,
)
from repro.spread import extensions as ext
from repro.util.format import format_hms

S, Z = omp_spread_start, omp_spread_size
N = 2050
SWEEPS = 2

#: device 1 computes at 1/3 the speed of device 0
FAST = DeviceSpec(iters_per_second=3e8, memory_bytes=1e9)
SLOW = DeviceSpec(iters_per_second=1e8, memory_bytes=1e9)


def run_schedule(schedule) -> float:
    rt = OpenMPRuntime(topology=uniform_node(
        2, device_specs=[FAST, SLOW], memory_bytes=1e9,
        link_bandwidth=1e12, staging_bandwidth=1e13),
        trace=False)
    ext.enable(rt, schedules=True)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)

    def body(lo, hi, env):
        a, b = env["A"], env["B"]
        b[lo:hi] = a[lo - 1:hi - 1] + a[lo:hi] + a[lo + 1:hi + 1]

    kern = KernelSpec("stencil", body, work_per_iter=1e5)

    def program(omp):
        for _ in range(SWEEPS):
            yield from target_spread_teams_distribute_parallel_for(
                omp, kern, 1, N - 1, [0, 1], schedule=schedule,
                maps=[Map.to(vA, (S - 1, Z + 2)), Map.from_(vB, (S, Z))])

    rt.run(program)
    expect = A[0:N - 2] + A[1:N - 1] + A[2:N]
    assert np.array_equal(B[1:N - 1], expect)
    return rt.elapsed


def test_dynamic_schedule_mitigates_imbalance(benchmark, capsys):
    static_t = run_once(benchmark, run_schedule, spread_schedule("static", 64))
    dynamic_t = run_schedule(spread_schedule("dynamic", 64))
    # irregular static: deal 3 chunks to the fast device per slow chunk
    irregular_t = run_schedule(
        spread_schedule("static_irregular", [192, 64]))

    benchmark.extra_info["static_virtual_s"] = static_t
    benchmark.extra_info["dynamic_virtual_s"] = dynamic_t
    benchmark.extra_info["irregular_virtual_s"] = irregular_t
    with capsys.disabled():
        print("\n\nABLATION A2 — schedules on an imbalanced node "
              "(device 1 is 3x slower)")
        print(f"  static round-robin : {format_hms(static_t)}")
        print(f"  dynamic pull       : {format_hms(dynamic_t)} "
              f"({(1 - dynamic_t / static_t) * 100:+.1f}%)")
        print(f"  irregular 3:1      : {format_hms(irregular_t)} "
              f"({(1 - irregular_t / static_t) * 100:+.1f}%)")

    # "evaluate how poorly the static round-robin schedule performs"
    assert dynamic_t < static_t * 0.85
    assert irregular_t < static_t * 0.85


def test_static_balanced_node_unharmed(benchmark):
    """On a balanced node, static keeps up with dynamic (no pull overhead
    is modelled, so they tie; the check guards the functional path)."""
    global SLOW
    balanced = DeviceSpec(iters_per_second=3e8, memory_bytes=1e9)
    old = SLOW
    try:
        SLOW = balanced
        static_t = run_once(benchmark, run_schedule,
                            spread_schedule("static", 64))
        dynamic_t = run_schedule(spread_schedule("dynamic", 64))
        assert static_t == pytest.approx(dynamic_t, rel=0.05)
    finally:
        SLOW = old
