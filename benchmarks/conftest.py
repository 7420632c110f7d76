"""Shared infrastructure for the paper-reproduction benchmarks.

Every module regenerates one table or figure of the paper.  Simulated
(virtual) execution times are the scientific output — they are printed as
paper-vs-measured tables and attached to pytest-benchmark's ``extra_info``
(with the run's ``SomierResult.stats`` counters); the wall-clock numbers
pytest-benchmark itself reports measure the simulator.

A session-scoped cache shares the expensive full-scale runs (Table I/II and
the trace analyses reuse the same simulations).
"""

from __future__ import annotations

import pytest

from repro.bench.machines import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.somier import run_somier

#: functional grid standing in for the paper's 1200^3 (see repro.bench)
N_FUNCTIONAL = 96
STEPS = 31


class PaperRuns:
    """Lazily-computed, cached full-scale Somier runs."""

    def __init__(self):
        self._cache = {}

    def get(self, impl: str, gpus: int, trace: bool = False,
            data_depend: bool = False, fuse_transfers: bool = False,
            n_functional: int = N_FUNCTIONAL, steps: int = STEPS):
        key = (impl, gpus, trace, data_depend, fuse_transfers,
               n_functional, steps)
        if key not in self._cache:
            topo, cm = paper_machine(gpus, n_functional=n_functional)
            cfg = paper_somier_config(n_functional=n_functional, steps=steps)
            self._cache[key] = run_somier(
                impl, cfg, devices=paper_devices(gpus), topology=topo,
                cost_model=cm, trace=trace, data_depend=data_depend,
                fuse_transfers=fuse_transfers)
        return self._cache[key]


@pytest.fixture(scope="session")
def paper_runs():
    return PaperRuns()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a simulation exactly once (runs are seconds-long and
    deterministic, repetition adds nothing)."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict):
        benchmark.extra_info["stats"] = stats
    return result


def paper_seconds(impl: str, gpus: int) -> float:
    table = dict(PAPER_TABLE1)
    table.update(PAPER_TABLE2)
    return table[(impl, gpus)]
