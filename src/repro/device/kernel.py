"""Kernel descriptors and launch configuration.

A :class:`KernelSpec` is the Python analogue of the structured block under a
``target`` / ``target spread`` directive: a body callable invoked with the
(global) chunk bounds and the mapped variables, plus the cost-model metadata
(how much arithmetic one loop iteration represents).

A :class:`LaunchConfig` carries the intra-device parallelism clauses of the
combined directive (``num_teams``, ``thread_limit``/``parallel for`` threads,
``simd``) — the paper's levels 2-4 of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional


#: Signature of a kernel body: ``body(lo, hi, env)`` iterates global indices
#: ``lo .. hi-1`` using the :class:`~repro.device.views.GlobalView` objects
#: in ``env`` (a name -> view mapping, plus any scalar firstprivates).
KernelBody = Callable[[int, int, Mapping[str, Any]], None]


@dataclass(frozen=True)
class LaunchConfig:
    """Intra-device parallelism requested by the combined directive."""

    num_teams: Optional[int] = None
    threads_per_team: Optional[int] = None
    simd: bool = True

    def __post_init__(self) -> None:
        if self.num_teams is not None and self.num_teams < 1:
            raise ValueError("num_teams must be >= 1")
        if self.threads_per_team is not None and self.threads_per_team < 1:
            raise ValueError("threads_per_team must be >= 1")


@dataclass(frozen=True)
class KernelSpec:
    """A named device kernel.

    ``work_per_iter`` scales the cost model: a loop iteration of the Somier
    forces stencil does roughly 6 spring evaluations over an N² plane, while
    the pointwise kernels do O(N²) lighter work; callers encode that here so
    simulated kernel times keep realistic ratios.
    """

    name: str
    body: KernelBody
    work_per_iter: float = 1.0
    scalars: Dict[str, Any] = field(default_factory=dict)

    def run(self, lo: int, hi: int, env: Mapping[str, Any]) -> None:
        """Execute the body functionally (called at simulated completion)."""
        merged: Dict[str, Any] = dict(self.scalars)
        merged.update(env)
        self.body(lo, hi, merged)
