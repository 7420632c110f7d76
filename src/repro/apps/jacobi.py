"""2-D Jacobi heat diffusion over spread directives, two ways.

Somier (the paper's workload) remaps every buffer on every use because the
problem exceeds device memory.  Jacobi represents the complementary — and
very common — regime: the grid *fits*, so the data-management strategy is a
free choice:

* ``strategy="resident"`` — map both ping-pong buffers once
  (``target enter data spread`` with halos), then per iteration run the
  stencil and exchange **only the halo rows** through
  ``target update spread`` (Listing 7 doing real work: one ``from`` of
  each chunk's fresh rows, two one-row ``to`` pushes per chunk);
* ``strategy="remap"`` — Somier-style: ``target enter data spread`` /
  compute / ``target exit data spread`` around every iteration, paying the
  full grid both ways each time.

Both produce bit-for-bit the result of a plain NumPy Jacobi loop; the
benchmark quantifies the traffic and time gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.device.kernel import KernelSpec
from repro.openmp.mapping import Map, Var
from repro.openmp.runtime import OpenMPRuntime
from repro.sim.costmodel import CostModel
from repro.sim.topology import NodeTopology, cte_power_node
from repro.spread.schedule import spread_schedule
from repro.spread.sections import omp_spread_size as Z
from repro.spread.sections import omp_spread_start as S
from repro.spread.spread_data import (
    target_enter_data_spread,
    target_exit_data_spread,
    target_update_spread,
)
from repro.spread.spread_target import (
    target_spread_teams_distribute_parallel_for,
)
from repro.util.errors import OmpRuntimeError

_STRATEGIES = ("resident", "remap")


@dataclass(frozen=True)
class JacobiConfig:
    """Problem setup: an ``n x n`` grid with a hot top edge."""

    n: int = 64
    iterations: int = 20
    hot_value: float = 100.0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("Jacobi grid needs n >= 4")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def initial_grid(self) -> np.ndarray:
        u = np.zeros((self.n, self.n))
        u[0, :] = self.hot_value
        return u

    def reference(self) -> np.ndarray:
        """The plain single-array NumPy solver."""
        n = self.n
        u = self.initial_grid()
        v = u.copy()
        for _ in range(self.iterations):
            v[1:n - 1, 1:n - 1] = 0.25 * (u[0:n - 2, 1:n - 1]
                                          + u[2:n, 1:n - 1]
                                          + u[1:n - 1, 0:n - 2]
                                          + u[1:n - 1, 2:n])
            u, v = v, u
        return u


@dataclass
class JacobiResult:
    config: JacobiConfig
    strategy: str
    devices: List[int]
    grid: np.ndarray
    elapsed: float
    runtime: OpenMPRuntime
    stats: Dict[str, float] = field(default_factory=dict)


def _stencil_kernel(n: int, src_name: str, dst_name: str) -> KernelSpec:
    def body(lo, hi, env, s=src_name, d=dst_name):
        u, v = env[s], env[d]
        v[lo:hi, 1:n - 1] = 0.25 * (u[lo - 1:hi - 1, 1:n - 1]
                                    + u[lo + 1:hi + 1, 1:n - 1]
                                    + u[lo:hi, 0:n - 2]
                                    + u[lo:hi, 2:n])

    return KernelSpec("jacobi", body, work_per_iter=float(n) * 4.0)


def run_jacobi(config: JacobiConfig,
               strategy: str = "resident",
               devices: Optional[Sequence[int]] = None,
               topology: Optional[NodeTopology] = None,
               cost_model: Optional[CostModel] = None,
               trace: bool = False) -> JacobiResult:
    """Solve the heat equation with the chosen data-management strategy."""
    if strategy not in _STRATEGIES:
        raise OmpRuntimeError(
            f"unknown Jacobi strategy {strategy!r} "
            f"(available: {_STRATEGIES})")
    topo = topology if topology is not None else cte_power_node(4)
    rt = OpenMPRuntime(topology=topo, cost_model=cost_model,
                       trace=trace)
    devs = list(devices) if devices is not None else list(range(topo.num_devices))

    n = config.n
    U = config.initial_grid()
    V = U.copy()
    vU, vV = Var("U", U), Var("V", V)
    chunk = math.ceil((n - 2) / len(devs))
    range_ = (1, n - 2)
    sched = spread_schedule("static", chunk)
    halo = (S - 1, Z + 2)
    exact = (S, Z)

    def resident_program(omp):
        yield from target_enter_data_spread(
            omp, devices=devs, range_=range_, chunk_size=chunk,
            maps=[Map.to(vU, halo), Map.to(vV, halo)])
        src, dst = vU, vV
        for _ in range(config.iterations):
            yield from target_spread_teams_distribute_parallel_for(
                omp, _stencil_kernel(n, src.name, dst.name), 1, n - 1,
                devs, schedule=sched,
                maps=[Map.to(src, halo), Map.to(dst, halo)])
            # true halo exchange: pull only each chunk's two EDGE rows to
            # the host, then push each chunk's two HALO rows back down —
            # O(rows) traffic per iteration instead of O(grid)
            yield from target_update_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                from_=[(dst, (S, 1))])
            yield from target_update_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                from_=[(dst, (S + Z - 1, 1))])
            yield from target_update_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                to=[(dst, (S - 1, 1))])
            yield from target_update_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                to=[(dst, (S + Z, 1))])
            src, dst = dst, src
        # src holds the final field after the last swap: copy its rows
        # back; the scratch buffer is just released
        yield from target_exit_data_spread(
            omp, devices=devs, range_=range_, chunk_size=chunk,
            maps=[Map.from_(src, exact), Map.release(dst, halo)])

    def remap_program(omp):
        src, dst = vU, vV
        for _ in range(config.iterations):
            # dst must be copied in too: the stencil leaves its boundary
            # columns untouched and the exit copies whole rows back
            yield from target_enter_data_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                maps=[Map.to(src, halo), Map.to(dst, exact)])
            yield from target_spread_teams_distribute_parallel_for(
                omp, _stencil_kernel(n, src.name, dst.name), 1, n - 1,
                devs, schedule=sched,
                maps=[Map.to(src, halo), Map.to(dst, exact)])
            yield from target_exit_data_spread(
                omp, devices=devs, range_=range_, chunk_size=chunk,
                maps=[Map.release(src, halo), Map.from_(dst, exact)])
            src, dst = dst, src

    rt.run(resident_program if strategy == "resident" else remap_program)

    result_grid = U if config.iterations % 2 == 0 else V
    stats = {
        "h2d_bytes": sum(rt.devices[d].h2d_bytes for d in devs),
        "d2h_bytes": sum(rt.devices[d].d2h_bytes for d in devs),
        "memcpy_calls": sum(rt.devices[d].memcpy_calls for d in devs),
        "kernels_launched": sum(rt.devices[d].kernels_launched for d in devs),
    }
    return JacobiResult(config=config, strategy=strategy, devices=devs,
                        grid=result_grid, elapsed=rt.elapsed, runtime=rt,
                        stats=stats)
