"""The five Somier kernels.

Kernel bodies are written once and executed both on simulated devices
(through :class:`~repro.device.views.GlobalView` over the mapped chunk) and
by the sequential reference (over the raw host arrays) — global-index slicing
is identical in both cases, which is what makes the bit-for-bit verification
of the multi-device decompositions meaningful.

Cost weights (``work_per_iter``, in units of "N^2 cells x flop weight"):
the forces stencil evaluates 6 springs per cell, the pointwise kernels a
couple of flops; the centers kernel one pass.  The absolute scale is set by
``DeviceSpec.iters_per_second`` in the machine calibration.  The weights
model the paper's GPU kernels, not the host bodies: the host forces body
evaluates each spring once and hands it to both of its cells, while its
weight still counts six spring evaluations per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

from repro.device.kernel import KernelSpec
from repro.somier.config import SomierConfig


#: Interior cells per row block of :func:`forces_body` (3 rows at n=96):
#: the block's spring and accumulator temporaries then stay cache-sized.
_FORCES_BLOCK_CELLS = 1 << 15


def forces_body(lo: int, hi: int, env: Mapping) -> None:
    """Spring forces on interior nodes of rows ``[lo, hi)``.

    ``F = sum over neighbours of k * (|d| - L0) * d / |d|`` with ``d`` the
    vector to the neighbour.  Whole rows of the force grids are zeroed
    first so boundary cells (and thus accelerations/velocities there) stay
    exactly zero.

    Each spring is evaluated once: per axis, ``c = coef(s) * s`` for the
    spring ``s = p[next] - p[here]`` over the rows plus the one spring
    below them, and a cell then takes ``-c`` from its lower spring and
    ``+c`` from its upper one, in the order ``-x, +x, -y, +y, -z, +z``.
    Negation is exact in IEEE arithmetic, so the forces are bit-identical
    to summing the six neighbour vectors of every cell.

    The rows are processed in blocks of about ``_FORCES_BLOCK_CELLS``
    interior cells.  A row's forces depend only on the positions, so
    blocking changes no value; a spring on a block boundary is merely
    evaluated once per adjacent block.
    """
    n = env["N"]
    pos = (env["pos_x"], env["pos_y"], env["pos_z"])
    force = (env["force_x"], env["force_y"], env["force_z"])

    for f in force:
        f[lo:hi] = 0.0

    rows = max(1, _FORCES_BLOCK_CELLS // (n - 2) ** 2)
    for start in range(lo, hi, rows):
        _forces_rows(start, min(start + rows, hi), n, env["K_spring"],
                     env["L0"], pos, force)


def _forces_rows(lo: int, hi: int, n: int, k_spring: float, rest: float,
                 pos, force) -> None:
    """Interior forces of rows ``[lo, hi)`` (see :func:`forces_body`)."""
    inner = slice(1, n - 1)
    acc = [np.zeros_like(p[lo:hi, inner, inner]) for p in pos]
    for axis in range(3):
        # The springs from each interior cell to its +axis neighbour, plus
        # the one below the first cell: cell t sits between springs t and
        # t + 1 along *axis*.
        a, b = (lo, hi) if axis == 0 else (1, n - 1)
        here = [slice(lo, hi), inner, inner]
        ahead = list(here)
        here[axis] = slice(a - 1, b)
        ahead[axis] = slice(a, b + 1)
        spring = [p[tuple(ahead)] - p[tuple(here)] for p in pos]
        coef = spring[0] * spring[0]
        for s in spring[1:]:
            coef += s * s
        np.sqrt(coef, out=coef)
        np.divide(rest, coef, out=coef)
        np.subtract(1.0, coef, out=coef)
        np.multiply(k_spring, coef, out=coef)
        for total, s in zip(acc, spring):
            s *= coef
            s_t, total_t = s.swapaxes(0, axis), total.swapaxes(0, axis)
            total_t -= s_t[:-1]
            total_t += s_t[1:]
    for f, total in zip(force, acc):
        f[lo:hi, inner, inner] = total


# The pointwise bodies update their output rows in place: each element
# gets the same IEEE operations as ``x = x + dt * y``, without the
# temporary for the sum.


def _add_scaled(lo: int, hi: int, dt: float, xs, ys) -> None:
    """``x += dt * y`` for each pair of *xs*, *ys* over rows ``[lo, hi)``.

    ``dt * y`` goes through one scratch buffer of about
    ``_FORCES_BLOCK_CELLS`` cells, row block by row block, instead of a
    chunk-sized temporary per axis.  The operations per element are
    unchanged, so the result is bit-identical.
    """
    if hi <= lo:
        return
    row_cells = math.prod(ys[0][lo:lo + 1].shape[1:])
    rows = max(1, _FORCES_BLOCK_CELLS // max(1, row_cells))
    scratch = np.empty_like(ys[0][lo:lo + min(rows, hi - lo)])
    for x, y in zip(xs, ys):
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            tmp = scratch[:stop - start]
            np.multiply(dt, y[start:stop], out=tmp)
            block = x[start:stop]
            block += tmp


def accelerations_body(lo: int, hi: int, env: Mapping) -> None:
    """``a = F / m`` over whole rows (boundary forces are zero)."""
    inv_mass = 1.0 / env["mass"]
    for c in ("x", "y", "z"):
        np.multiply(env[f"force_{c}"][lo:hi], inv_mass,
                    out=env[f"acc_{c}"][lo:hi])


def velocities_body(lo: int, hi: int, env: Mapping) -> None:
    """``v += dt * a`` (explicit Euler)."""
    _add_scaled(lo, hi, env["dt"], [env[f"vel_{c}"] for c in "xyz"],
                [env[f"acc_{c}"] for c in "xyz"])


def positions_body(lo: int, hi: int, env: Mapping) -> None:
    """``x += dt * v`` (fixed boundaries have v = 0)."""
    _add_scaled(lo, hi, env["dt"], [env[f"pos_{c}"] for c in "xyz"],
                [env[f"vel_{c}"] for c in "xyz"])


def centers_body(lo: int, hi: int, env: Mapping) -> None:
    """Per-row partial sums of the positions (manual reduction, step 1).

    Step 2 — folding the rows into the three center coordinates — happens
    on the host (``SomierState.reduce_centers``), in row order, so the
    result is identical no matter how rows were distributed over devices.
    """
    part = env["partials"]
    part[lo:hi, 0] = env["pos_x"][lo:hi].sum(axis=(1, 2))
    part[lo:hi, 1] = env["pos_y"][lo:hi].sum(axis=(1, 2))
    part[lo:hi, 2] = env["pos_z"][lo:hi].sum(axis=(1, 2))


@dataclass(frozen=True)
class SomierKernels:
    """The five kernels, parameterized for one problem configuration."""

    forces: KernelSpec
    accelerations: KernelSpec
    velocities: KernelSpec
    positions: KernelSpec
    centers: KernelSpec

    def in_order(self) -> List[KernelSpec]:
        """Per-buffer execution order (Listing 9/10)."""
        return [self.forces, self.accelerations, self.velocities,
                self.positions, self.centers]


def make_kernels(config: SomierConfig) -> SomierKernels:
    """Build the kernel set for *config*.

    ``work_per_iter`` counts N^2 cells per row iteration times a flop
    weight per kernel (forces ~6 spring evaluations, pointwise ~1).
    """
    plane = float(config.n) ** 2
    scalars = {
        "N": config.n,
        "K_spring": config.k_spring,
        "L0": config.rest_length,
        "mass": config.mass,
        "dt": config.dt,
    }
    return SomierKernels(
        forces=KernelSpec("forces", forces_body,
                          work_per_iter=6.0 * plane, scalars=scalars),
        accelerations=KernelSpec("accelerations", accelerations_body,
                                 work_per_iter=1.0 * plane, scalars=scalars),
        velocities=KernelSpec("velocities", velocities_body,
                              work_per_iter=1.0 * plane, scalars=scalars),
        positions=KernelSpec("positions", positions_body,
                             work_per_iter=1.0 * plane, scalars=scalars),
        centers=KernelSpec("centers", centers_body,
                           work_per_iter=1.0 * plane, scalars=scalars),
    )
