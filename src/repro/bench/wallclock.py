"""Wall-clock benchmark track: host-time ratios between paired arms.

Everything else in :mod:`repro.bench` reports *virtual* seconds — the
simulator's scientific output.  This module measures what that output
costs on the host, and only as ratios between two arms of the same
program, because absolute host seconds do not carry from one run (or
host) to the next.  Every ratio goes through :func:`paired`, which times
both arms with process CPU time, alternates which arm runs first, and
keeps every per-pair value with their median and quartiles.

Three ratios, each a median over pairs:

* ``warm_launch_speedup`` — warm ``nowait`` spread launches against
  pre-mapped buffers, launch-plan cache off over on (CI gate ≥ 5).  A
  ``nowait`` static spread never yields, so the timed batches are pure
  host lowering; the taskwaits that drain the devices are off the clock.
* ``recording_overhead`` — a small Somier ``analyze`` run over the default
  traced run, minus one.  Both arms replay on the walkers, so this is the
  cost of causal recording alone, and what ``--analyze`` costs a user
  (CI gate ≤ 0.25).
* ``report_vs_run`` — ``CritPathAnalysis.report()`` of one ``analyze``
  run over another ``analyze`` run of the same program (the paired arm).

Every pair checks that its arms took the fast path (see :func:`paired`
and the arm factories) and raises ``RuntimeError`` naming the arm
otherwise.  :func:`run_wallclock` measures all three and stamps
the host; ``benchmarks/bench_wallclock.py`` persists the result to
``BENCH_wallclock.json`` and applies :func:`failed_gates`.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench import machines
from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, RunOptions, Var
from repro.sim.topology import cte_power_node
from repro.somier import run_somier
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread_teams_distribute_parallel_for,
)

S, Z = omp_spread_start, omp_spread_size

Clock = Callable[[], float]
#: ``(name, run)``: ``run(clock)`` returns its timed seconds and the
#: virtual seconds of the program it ran
Arm = Tuple[str, Callable[[Clock], Tuple[float, float]]]

#: launch microbench shape: loop extent, devices, timed batches, launches
#: per batch
LAUNCH_N, LAUNCH_DEVICES, LAUNCH_BATCHES, LAUNCHES_PER_BATCH = 4096, 4, 30, 5


def paired(a: Arm, b: Arm, pairs: int, overhead: bool = False,
           clock: Clock = time.process_time) -> Dict[str, Any]:
    """Time arm *a* against arm *b* in *pairs* alternating pairs.

    Each pair runs both arms, *a* first in even pairs and *b* first in odd
    ones, with ``gc.collect()`` off the clock before each arm.  Both arms
    must report the same virtual seconds.  The per-pair value is the time
    of *a* over the time of *b* (minus one with *overhead*); the result
    holds every per-pair value with their median and quartiles.
    """
    values: List[float] = []
    for i in range(pairs):
        out = {}
        for name, run in ((a, b) if i % 2 == 0 else (b, a)):
            gc.collect()
            out[name] = run(clock)
        (ta, va), (tb, vb) = out[a[0]], out[b[0]]
        if va != vb:
            raise RuntimeError(f"arms {a[0]} and {b[0]} diverged in virtual "
                               f"time: {va!r} s vs {vb!r} s")
        values.append(ta / tb - (1.0 if overhead else 0.0))
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"per_pair": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _launch_arm(plan_cache: bool) -> Arm:
    """Warm identical spread launches on pre-mapped data, timed by batch.

    One untimed batch builds (and on its first hit compiles) the plan;
    then each of ``LAUNCH_BATCHES`` batches of ``nowait`` launches is
    timed, with an untimed ``taskwait`` between batches.  The cache-on arm
    must have replayed.
    """
    name = "cache_on" if plan_cache else "cache_off"
    options = RunOptions.from_env(trace=False, plan_cache=plan_cache)

    def run(clock):
        rt = OpenMPRuntime(
            topology=cte_power_node(LAUNCH_DEVICES, memory_bytes=4e9),
            options=options)
        devices = list(range(LAUNCH_DEVICES))
        n = LAUNCH_N
        vA, vB = Var("A", np.arange(float(n))), Var("B", np.zeros(n))
        kern = KernelSpec("saxpy", lambda lo, hi, env: None)
        warm = 0.0

        def batch(omp):
            for _ in range(LAUNCHES_PER_BATCH):
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 0, n, devices,
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                    nowait=True)

        def program(omp):
            nonlocal warm
            yield from target_enter_data_spread(
                omp, devices, (0, n), None,
                [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
            yield from batch(omp)
            yield from omp.taskwait()
            for _ in range(LAUNCH_BATCHES):
                t0 = clock()
                yield from batch(omp)
                warm += clock() - t0
                yield from omp.taskwait()
            yield from target_exit_data_spread(
                omp, devices, (0, n), None,
                [Map.release(vA, (S, Z)), Map.from_(vB, (S, Z))])

        rt.run(program)
        if plan_cache and rt.plan_cache.macro_replays == 0:
            raise RuntimeError(f"arm {name} took no macro replay")
        return warm, rt.sim.now

    return name, run


def _expect_paths(name: str, stats: Dict[str, Any]) -> None:
    """Raise unless a Somier arm replayed on the walkers: an arm that fell
    back to the object path would time that path instead."""
    if stats["macro_replays"] == 0:
        raise RuntimeError(f"arm {name} took no macro replay")
    if stats["engine_fused_segments"] == 0:
        raise RuntimeError(f"arm {name} ran 0 fused segments")


def _somier_arm(name: str, work: Dict[str, Any], **fields: Any) -> Arm:
    """A whole One Buffer Somier run with the :class:`RunOptions`
    *fields*."""
    options = RunOptions.from_env(**fields)

    def run(clock):
        t0 = clock()
        res = run_somier("one_buffer", **work, options=options)
        seconds = clock() - t0
        _expect_paths(name, res.stats)
        return seconds, res.elapsed

    return name, run


def _report_arm(work: Dict[str, Any]) -> Arm:
    """The critical-path report of an ``analyze`` run; the run itself is
    off the clock."""
    options = RunOptions.from_env(analyze=True)

    def run(clock):
        res = run_somier("one_buffer", **work, options=options)
        _expect_paths("report", res.stats)
        t0 = clock()
        res.runtime.analysis().report()
        return clock() - t0, res.elapsed

    return "report", run


def host_metadata() -> Dict[str, Any]:
    """The host the figures were measured on: cores, Python, NumPy, OS."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_wallclock(n_functional: int = 24, steps: int = 12, pairs: int = 10,
                  timestamp: Optional[str] = None) -> Dict[str, Any]:
    """All three ratios over *pairs* pairs each, stamped with the host.

    The Somier arms run One Buffer on the paper's four-GPU node at
    *n_functional* for *steps* timesteps.
    """
    gpus = 4
    topo, cm = machines.paper_machine(gpus, n_functional=n_functional)
    work = {"config": machines.paper_somier_config(
                n_functional=n_functional, steps=steps),
            "devices": machines.paper_devices(gpus),
            "topology": topo, "cost_model": cm}
    analyze = _somier_arm("analyze", work, trace=True, analyze=True)
    return {
        "schema": "repro-wallclock-9",
        "timestamp": timestamp,
        "host": host_metadata(),
        "clock": "process_time",
        "pairs": pairs,
        "n_functional": n_functional,
        "steps": steps,
        "warm_launch_speedup": paired(
            _launch_arm(False), _launch_arm(True), pairs),
        "recording_overhead": paired(
            analyze,
            _somier_arm("traced_default", work, trace=True, analyze=False),
            pairs, overhead=True),
        "report_vs_run": paired(_report_arm(work), analyze, pairs),
    }


def failed_gates(result: Dict[str, Any],
                 bounds: Dict[str, Tuple[Optional[float], Optional[float]]]
                 ) -> List[str]:
    """One message per ratio whose median falls outside its bounds.

    *bounds* maps a ratio key to ``(low, high)``; ``None`` leaves that
    side open.
    """
    failed = []
    for key, (low, high) in bounds.items():
        median = result[key]["median"]
        if low is not None and median < low:
            failed.append(f"{key} median {median:.3f} is below {low}")
        if high is not None and median > high:
            failed.append(f"{key} median {median:.3f} is above {high}")
    return failed
