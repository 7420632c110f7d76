"""Fig. 1 — the extended offloading model's four levels of parallelism.

Fig. 1 is a diagram: ``target spread`` adds a *multiple devices* level on
top of teams / threads / SIMD.  This bench makes the diagram executable:
starting from a fully serial configuration it enables one level at a time
on a fixed compute-bound stencil and asserts every level contributes a
speedup —

    1 device, 1 team, 1 thread, no simd
    -> + threads               (parallel for)
    -> + simd                  (multiple vector lanes)
    -> + teams                 (teams distribute)
    -> + devices               (target spread)
"""

import numpy as np
import pytest

from conftest import run_once

from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.costmodel import CostModel
from repro.sim.topology import DeviceSpec, uniform_node
from repro.spread import (
    omp_spread_size as Z,
    omp_spread_start as S,
    target_spread,
)
from repro.util.format import format_table

N = 16386
SPEC = DeviceSpec(num_sms=8, max_threads_per_sm=64, simd_width=8,
                  iters_per_second=5e6, memory_bytes=1e9,
                  kernel_launch_latency=0.0, kernel_issue_latency=0.0,
                  alloc_latency=0.0, free_latency=0.0)

#: (label, devices, num_teams, threads_per_team, simd)
LEVELS = [
    ("serial",                 1, 1,    1, False),
    ("+ parallel for",         1, 1,   64, False),
    ("+ simd",                 1, 1,   64, True),
    ("+ teams distribute",     1, 8,   64, True),
    ("+ target spread (x4)",   4, 8,   64, True),
]


def run_level(devices, teams, threads, simd) -> float:
    from repro.device.kernel import LaunchConfig

    rt = OpenMPRuntime(
        topology=uniform_node(4, device_specs=[SPEC] * 4,
                              link_bandwidth=1e12, staging_bandwidth=1e13),
        cost_model=CostModel(), trace=False)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)

    def body(lo, hi, env):
        a, b = env["A"], env["B"]
        b[lo:hi] = a[lo - 1:hi - 1] + a[lo:hi] + a[lo + 1:hi + 1]

    def program(omp):
        yield from target_spread(
            omp, KernelSpec("stencil", body), 1, N - 1,
            list(range(devices)),
            maps=[Map.to(vA, (S - 1, Z + 2)), Map.from_(vB, (S, Z))],
            launch=LaunchConfig(num_teams=teams, threads_per_team=threads,
                                simd=simd))

    rt.run(program)
    expect = A[0:N - 2] + A[1:N - 1] + A[2:N]
    assert np.array_equal(B[1:N - 1], expect)
    return rt.elapsed


def test_fig1_each_level_contributes(benchmark, capsys):
    def collect():
        return [(label, run_level(d, t, th, s))
                for label, d, t, th, s in LEVELS]

    times = run_once(benchmark, collect)
    serial = times[0][1]
    rows = [(label, f"{t * 1e3:.3f} ms", f"{serial / t:8.1f}x")
            for label, t in times]
    benchmark.extra_info["speedups"] = {label: round(serial / t, 1)
                                        for label, t in times}
    with capsys.disabled():
        print("\n\nFIG. 1 — levels of parallelism, enabled one at a time")
        print(format_table(["configuration", "virtual time",
                            "speedup vs serial"], rows))

    for (label_a, ta), (label_b, tb) in zip(times, times[1:]):
        assert tb < ta, f"{label_b} did not improve on {label_a}"
    # the spread level multiplies by the device count (compute-bound)
    assert times[-2][1] / times[-1][1] == pytest.approx(4.0, rel=0.2)
