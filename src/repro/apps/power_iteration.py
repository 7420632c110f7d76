"""Distributed power iteration — the §IX reduction clause doing real work.

Computes the dominant eigenpair of a symmetric matrix with the classic
iteration ``y = A x;  lambda = |y|;  x = y / lambda`` where the matrix rows
are spread over the devices:

* ``A`` (row-partitioned) stays **resident** for the whole solve
  (``target enter data spread`` once);
* each iteration broadcasts the current vector ``x`` to every chunk
  (``target update spread`` over a whole-vector section), runs the
  row-block mat-vec as a spread kernel, pulls each chunk's slice of ``y``
  back, and computes the norm with the cross-device **reduction clause**
  (``reductions=[Reduction("sum", ...)]``) over the freshly produced rows.

Validated against ``numpy.linalg.eigh``.  This is the "complex algorithms
that perform this kind of operations" use case the paper's §IX motivates
for the reduction clause.
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
from repro.spread import extensions as ext
from repro.spread.reduction import Reduction
from repro.spread.schedule import spread_schedule
from repro.spread.sections import omp_spread_size as Z
from repro.spread.sections import omp_spread_start as S
from repro.spread.spread_data import (
    target_enter_data_spread,
    target_exit_data_spread,
    target_update_spread,
)
from repro.spread.spread_target import target_spread_teams_distribute_parallel_for


@dataclass(frozen=True)
class PowerIterationConfig:
    """A random symmetric test matrix with a planted dominant eigenpair."""

    n: int = 64
    iterations: int = 30
    seed: int = 7
    gap: float = 2.0  # dominant eigenvalue multiplier over the bulk

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("matrix needs n >= 4")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def matrix(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        eigs = rng.uniform(0.1, 1.0, self.n)
        eigs[0] = self.gap  # dominant, well separated
        return (q * eigs) @ q.T

    def initial_vector(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1)
        x = rng.standard_normal(self.n)
        return x / np.linalg.norm(x)


@dataclass
class PowerIterationResult:
    config: PowerIterationConfig
    devices: List[int]
    eigenvalue: float
    eigenvector: np.ndarray
    elapsed: float
    runtime: OpenMPRuntime
    stats: Dict[str, float] = field(default_factory=dict)

    def residual(self, A: np.ndarray) -> float:
        """``|A v - lambda v|`` of the computed pair."""
        return float(np.linalg.norm(
            A @ self.eigenvector - self.eigenvalue * self.eigenvector))


def run_power_iteration(config: PowerIterationConfig,
                        devices: Optional[Sequence[int]] = None,
                        topology: Optional[NodeTopology] = None,
                        cost_model: Optional[CostModel] = None,
                        trace: bool = False) -> PowerIterationResult:
    """Run the distributed power iteration; see the module docstring."""
    topo = topology if topology is not None else cte_power_node(4)
    rt = OpenMPRuntime(topology=topo, cost_model=cost_model,
                       trace=trace)
    ext.enable(rt, reduction=True)
    devs = list(devices) if devices is not None else list(range(topo.num_devices))

    n = config.n
    A = config.matrix()
    x = config.initial_vector()
    y = np.zeros(n)
    vA, vX, vY = Var("A", A), Var("x", x), Var("y", y)
    norm_sq = Var("norm_sq", np.zeros(1))
    chunk = math.ceil(n / len(devs))
    sched = spread_schedule("static", chunk)
    whole_vec = (0, n)  # constant section: every chunk maps the full vector

    def matvec_body(lo, hi, env):
        a, xx, yy = env["A"], env["x"], env["y"]
        yy[lo:hi] = a[lo:hi] @ xx[0:n]

    def normsq_body(lo, hi, env):
        env["norm_sq"][0] += float((env["y"][lo:hi] ** 2).sum())

    matvec = KernelSpec("matvec", matvec_body, work_per_iter=float(2 * n))
    normsq = KernelSpec("norm-sq", normsq_body, work_per_iter=float(n))

    eigenvalue = 0.0

    def program(omp):
        nonlocal eigenvalue
        # the matrix rows and the output slice stay resident; x is mapped
        # whole on every device (it is read in full by every row block)
        yield from target_enter_data_spread(
            omp, devices=devs, range_=(0, n), chunk_size=chunk,
            maps=[Map.to(vA, (S, Z)), Map.alloc(vY, (S, Z)),
                  Map.to(vX, whole_vec)])
        for _ in range(config.iterations):
            # broadcast the current x to every device's copy
            yield from target_update_spread(
                omp, devices=devs, range_=(0, n), chunk_size=chunk,
                to=[(vX, whole_vec)])
            # distributed mat-vec over the row blocks
            yield from target_spread_teams_distribute_parallel_for(
                omp, matvec, 0, n, devs, schedule=sched,
                maps=[Map.to(vA, (S, Z)), Map.to(vX, whole_vec),
                      Map.from_(vY, (S, Z))])
            # cross-device reduction clause: |y|^2
            norm_sq.array[0] = 0.0
            yield from target_spread_teams_distribute_parallel_for(
                omp, normsq, 0, n, devs, schedule=sched,
                maps=[Map.to(vY, (S, Z))],
                reductions=[Reduction("sum", norm_sq)])
            # pull y, normalize on the host, loop
            yield from target_update_spread(
                omp, devices=devs, range_=(0, n), chunk_size=chunk,
                from_=[(vY, (S, Z))])
            eigenvalue = math.sqrt(norm_sq.array[0])
            x[:] = y / eigenvalue
        yield from target_exit_data_spread(
            omp, devices=devs, range_=(0, n), chunk_size=chunk,
            maps=[Map.release(vA, (S, Z)), Map.release(vY, (S, Z)),
                  Map.release(vX, whole_vec)])

    rt.run(program)

    stats = {
        "h2d_bytes": sum(rt.devices[d].h2d_bytes for d in devs),
        "d2h_bytes": sum(rt.devices[d].d2h_bytes for d in devs),
        "memcpy_calls": sum(rt.devices[d].memcpy_calls for d in devs),
        "kernels_launched": sum(rt.devices[d].kernels_launched for d in devs),
    }
    return PowerIterationResult(config=config, devices=devs,
                                eigenvalue=eigenvalue, eigenvector=x.copy(),
                                elapsed=rt.elapsed, runtime=rt, stats=stats)
