"""Directive-overhead microbenchmark (Section VI-A's negligible-overhead
claim, isolated from Somier).

Runs the same 1-D stencil through (a) the plain ``target`` directives and
(b) ``target spread`` restricted to one device, on identical simulated
hardware: the virtual-time difference is the spread machinery's overhead.
Also measures the pragma frontend (parse + sema) against the programmatic
API.
"""

import numpy as np
import pytest

from conftest import run_once

from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.target import target_teams_distribute_parallel_for
from repro.pragma import parse_pragma
from repro.pragma.sema import check_directive
from repro.sim.topology import cte_power_node
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_spread_teams_distribute_parallel_for,
)

S, Z = omp_spread_start, omp_spread_size
N = 4096
SWEEPS = 50


def _run(spread: bool) -> float:
    rt = OpenMPRuntime(topology=cte_power_node(1, memory_bytes=1e9),
                       trace=False)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)
    kern = KernelSpec("stencil", lambda lo, hi, env: None)

    def program(omp):
        for _ in range(SWEEPS):
            if spread:
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 1, N - 1, [0],
                    maps=[Map.to(vA, (S - 1, Z + 2)),
                          Map.from_(vB, (S, Z))])
            else:
                yield from target_teams_distribute_parallel_for(
                    omp, device=0, kernel=kern, lo=1, hi=N - 1,
                    maps=[Map.to(vA, (1 - 1, (N - 2) + 2)),
                          Map.from_(vB, (1, N - 2))])

    rt.run(program)
    return rt.elapsed


def test_spread_overhead_on_one_device(benchmark, capsys):
    spread_t = run_once(benchmark, _run, True)
    target_t = _run(False)
    overhead = (spread_t - target_t) / target_t
    benchmark.extra_info["target_virtual_s"] = target_t
    benchmark.extra_info["spread_virtual_s"] = spread_t
    benchmark.extra_info["relative_overhead"] = overhead
    with capsys.disabled():
        print(f"\n\nOVERHEAD — 1-device stencil x{SWEEPS}: "
              f"target={target_t:.6f}s  spread={spread_t:.6f}s  "
              f"overhead={overhead * 100:.2f}%")
    # "a negligible overhead is introduced by using these new directives"
    assert abs(overhead) < 0.01


def test_pragma_frontend_throughput(benchmark):
    """Parsing + checking a Listing-4-sized pragma, per call."""
    src = ("omp target spread teams distribute parallel for "
           "devices(2,0,1) spread_schedule(static, 4) num_teams(2) "
           "map(to: A[omp_spread_start-1:omp_spread_size+2]) "
           "map(from: B[omp_spread_start:omp_spread_size]) nowait")

    def frontend():
        check_directive(parse_pragma(src))

    benchmark(frontend)
