"""Physics diagnostics for Somier runs.

The paper treats Somier purely as a performance workload; for a library
release the physics deserves observability too.  These helpers compute the
energies of a state on the host:

* kinetic energy ``0.5 * m * sum |v|^2`` over interior nodes;
* elastic potential energy ``0.5 * k * sum (|d| - L0)^2`` over every
  spring (each of the 3 axis directions, counted once);
* their sum, which an exact integrator would conserve.

The explicit-Euler scheme drifts slightly (energy grows O(dt) per step);
the test suite bounds that drift, which catches both kernel bugs (wrong
forces explode instantly) and decomposition bugs (a lost halo row shows up
as an energy jump).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.somier.state import SomierState


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


def kinetic_energy(state: SomierState) -> float:
    """``0.5 m sum |v|^2`` (boundary nodes have v = 0 by construction)."""
    cfg = state.config
    vx = state.grids["vel_x"]
    vy = state.grids["vel_y"]
    vz = state.grids["vel_z"]
    return 0.5 * cfg.mass * float((vx * vx + vy * vy + vz * vz).sum())


def potential_energy(state: SomierState) -> float:
    """Elastic energy of all axis springs, each counted once."""
    cfg = state.config
    px = state.grids["pos_x"]
    py = state.grids["pos_y"]
    pz = state.grids["pos_z"]
    total = 0.0
    for axis in (0, 1, 2):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        lo, hi = tuple(sl_lo), tuple(sl_hi)
        dx = px[hi] - px[lo]
        dy = py[hi] - py[lo]
        dz = pz[hi] - pz[lo]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        stretch = dist - cfg.rest_length
        total += float((stretch * stretch).sum())
    return 0.5 * cfg.k_spring * total


def energy(state: SomierState) -> EnergyReport:
    return EnergyReport(kinetic=kinetic_energy(state),
                        potential=potential_energy(state))
