"""Wall-clock benchmark track: host-side launch cost of spread directives.

Everything else in :mod:`repro.bench` reports *virtual* seconds — the
simulator's scientific output.  This module measures **real** seconds: the
Python-side cost of lowering a spread directive (validation, chunking, map/
depend concretization, task submission), which is exactly what the
launch-plan cache (:mod:`repro.spread.plan_cache`) attacks.  It is the
simulated analogue of the libomptarget "launch overhead" microbenchmarks:
the directive under test is issued ``nowait`` against data that is already
present, so the timed region never blocks and never moves bytes — it is
pure host lowering.

Four measurements:

* :func:`launch_microbench` — repeated identical ``target spread teams
  distribute parallel for`` launches against pre-mapped buffers; reports
  cold (first, cache-miss) and warm (steady-state) per-launch cost.
* :func:`end_to_end` — a small Somier run; reports wall seconds and
  timesteps/second.
* :func:`engine_microbench` — raw calendar-queue throughput (dispatched
  events per real second) over distinct-time and tied-time workloads.
* :func:`analyzer_overhead` — the end-to-end run with tracing on, with and
  without the causal recorder (:mod:`repro.obs.critpath`); reports the
  recording overhead (budget: 5% of traced wall time), the cost of
  ``--analyze`` against the default traced run, and the post-run analysis
  cost.

:func:`run_wallclock` runs them all (the cache benches on and off),
computes the speedups and stamps the result with :func:`host_metadata`;
``benchmarks/bench_wallclock.py`` persists it to ``BENCH_wallclock.json``.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench import machines
from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
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


def launch_microbench(plan_cache: bool = True, n: int = 4096,
                      num_devices: int = 4, repeats: int = 30,
                      launches: int = 5) -> Dict[str, Any]:
    """Per-launch host cost of an identical, already-mapped spread kernel.

    The program maps both arrays across *num_devices* once, then times
    ``repeats`` batches of ``launches`` ``nowait`` launches each.  A
    ``nowait`` static spread never yields, so ``perf_counter`` around the
    batch captures pure host-side lowering; the untimed ``taskwait``
    between batches drains the simulated devices.  Batch 0 is the cold
    (plan-building) sample; the warm figure is the mean of the rest.
    """
    rt = OpenMPRuntime(
        topology=cte_power_node(num_devices, memory_bytes=4e9),
        trace_enabled=False, plan_cache=plan_cache)
    devices = list(range(num_devices))
    A, B = np.arange(float(n)), np.zeros(n)
    vA, vB = Var("A", A), Var("B", B)
    kern = KernelSpec("saxpy", lambda lo, hi, env: None)
    samples: List[float] = []

    def program(omp):
        yield from target_enter_data_spread(
            omp, devices, (0, n), None,
            [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(launches):
                yield from target_spread_teams_distribute_parallel_for(
                    omp, kern, 0, n, devices,
                    maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                    nowait=True)
            samples.append(time.perf_counter() - t0)
            yield from omp.taskwait()
        yield from target_exit_data_spread(
            omp, devices, (0, n), None,
            [Map.release(vA, (S, Z)), Map.from_(vB, (S, Z))])

    rt.run(program)
    warm = samples[1:]
    warm_mean = statistics.mean(warm) / launches
    return {
        "plan_cache": plan_cache,
        "n": n,
        "devices": num_devices,
        "repeats": repeats,
        "launches_per_batch": launches,
        "cold_launch_s": samples[0] / launches,
        "warm_launch_s": warm_mean,
        "warm_launches_per_s": 1.0 / warm_mean if warm_mean else 0.0,
        "warm_launch_min_s": min(warm) / launches,
        "cache_hits": rt.plan_cache.hits,
        "cache_misses": rt.plan_cache.misses,
        "macro_compiles": rt.plan_cache.macro_compiles,
        "macro_replays": rt.plan_cache.macro_replays,
    }


def end_to_end(plan_cache: bool = True, n_functional: int = 24,
               steps: int = 12, gpus: int = 4,
               fused_timeline: bool = True) -> Dict[str, Any]:
    """Wall seconds of a small Somier run (whole stack, trace off).

    ``fused_timeline=False`` is the ablation arm for the fused-timeline
    engine: macro replay stays on but every chunk and section copy runs
    as a generator process instead of a timeline walker.
    """
    topo, cm = machines.paper_machine(gpus, n_functional=n_functional)
    cfg = machines.paper_somier_config(n_functional=n_functional,
                                       steps=steps)
    t0 = time.perf_counter()
    res = run_somier("one_buffer", cfg, devices=machines.paper_devices(gpus),
                     topology=topo, cost_model=cm, trace=False,
                     plan_cache=plan_cache, fused_timeline=fused_timeline)
    wall = time.perf_counter() - t0
    return {
        "plan_cache": plan_cache,
        "n_functional": n_functional,
        "steps": steps,
        "gpus": gpus,
        "wall_s": wall,
        "steps_per_s": steps / wall if wall else 0.0,
        "virtual_s": res.elapsed,
        "cache_hits": res.stats["plan_cache_hits"],
        "cache_misses": res.stats["plan_cache_misses"],
        "macro_compiles": res.stats["macro_compiles"],
        "macro_replays": res.stats["macro_replays"],
        "engine_fused_segments": res.stats["engine_fused_segments"],
        "engine_mean_batch": res.stats["engine_mean_batch"],
    }


def engine_microbench(events: int = 50000, procs: int = 16,
                      repeats: int = 5) -> Dict[str, Any]:
    """Raw event-engine throughput: dispatched events per real second.

    Two arms over the calendar queue (:class:`repro.sim.engine.Simulator`):

    * **sequential** — ``procs`` generator processes each awaiting a run
      of distinct-time timeouts: the worst case for a calendar queue (one
      heap operation per bucket of one).
    * **ties** — the same event count piled onto few distinct timestamps:
      the case the bucketed queue optimizes (a whole bucket drains per
      heap operation; ``mean_batch`` reports the amortization).

    Each arm takes the best (minimum) wall time over *repeats*; the
    timeout freelist reuse fraction is reported from the final run.
    """
    from repro.sim.engine import Simulator

    per_proc = max(1, events // procs)

    def seq_arm():
        sim = Simulator()

        def proc(offset):
            for _ in range(per_proc):
                yield sim.timeout(1.0 + offset)

        for i in range(procs):
            sim.process(proc(i * 1e-4))
        t0 = time.perf_counter()
        sim.run()
        return time.perf_counter() - t0, sim

    def tie_arm():
        sim = Simulator()

        def proc():
            for _ in range(per_proc):
                yield sim.timeout(1.0)

        for _ in range(procs):
            sim.process(proc())
        t0 = time.perf_counter()
        sim.run()
        return time.perf_counter() - t0, sim

    def best_of(arm):
        best, sim = float("inf"), None
        for _ in range(max(1, repeats)):
            t, s = arm()
            if t < best:
                best, sim = t, s
        return best, sim.engine_stats()

    seq_s, seq_stats = best_of(seq_arm)
    tie_s, tie_stats = best_of(tie_arm)
    n = per_proc * procs
    created = tie_stats["timeouts_created"]
    reused = tie_stats["timeouts_reused"]
    return {
        "events": n,
        "procs": procs,
        "repeats": repeats,
        "seq_s": seq_s,
        "seq_events_per_s": n / seq_s if seq_s else 0.0,
        "seq_mean_batch": seq_stats["mean_batch"],
        "tie_s": tie_s,
        "tie_events_per_s": n / tie_s if tie_s else 0.0,
        "tie_mean_batch": tie_stats["mean_batch"],
        "tie_speedup": seq_s / tie_s if tie_s else 0.0,
        "timeout_reuse_frac":
            reused / (created + reused) if created + reused else 0.0,
    }


#: wall-clock budget for causal edge recording, relative to a traced run
ANALYZER_OVERHEAD_TARGET = 0.05


def analyzer_overhead(runs: int = 3, n_functional: int = 24,
                      steps: int = 12, gpus: int = 4) -> Dict[str, Any]:
    """Wall-clock cost of causal edge recording, and of ``--analyze``.

    All arms trace (analysis requires a trace, so the fair baseline is a
    traced run).  ``recording_overhead`` compares the analyze run with a
    traced run pinned to ``fused_timeline=False``: the causal recorder
    disengages the fused-timeline walkers, so that baseline runs the same
    generator path and the delta is recording alone — process-frontier
    propagation, per-op dependency capture, resource-grant edges.
    ``analyze_vs_default`` compares it with the default traced run, which
    takes the walker path: what turning on ``--analyze`` costs a user, the
    recording plus leaving the walkers.  Each arm takes the min over
    *runs* repeats to shed scheduler noise.  The post-run analysis itself
    (critical path, attribution, what-if replay) is timed separately: it
    is pure reporting, off the recording hot path.
    """
    topo, cm = machines.paper_machine(gpus, n_functional=n_functional)
    cfg = machines.paper_somier_config(n_functional=n_functional,
                                       steps=steps)
    devices = machines.paper_devices(gpus)

    def best_of(analyze: bool, fused_timeline: bool = True):
        best, res = float("inf"), None
        for _ in range(max(1, runs)):
            t0 = time.perf_counter()
            res = run_somier("one_buffer", cfg, devices=devices,
                             topology=topo, cost_model=cm, trace=True,
                             fused_timeline=fused_timeline, analyze=analyze)
            best = min(best, time.perf_counter() - t0)
        return best, res

    trace_s, trace_res = best_of(False, fused_timeline=False)
    analyze_s, analyze_res = best_of(True)
    default_s, _ = best_of(False)
    t0 = time.perf_counter()
    analyze_res.runtime.analysis().report()
    analysis_s = time.perf_counter() - t0
    causal = analyze_res.runtime.causal
    return {
        "n_functional": n_functional,
        "steps": steps,
        "gpus": gpus,
        "runs": runs,
        "trace_only_wall_s": trace_s,
        "default_trace_wall_s": default_s,
        "analyze_wall_s": analyze_s,
        "recording_overhead": (analyze_s / trace_s - 1.0) if trace_s else 0.0,
        "analyze_vs_default":
            (analyze_s / default_s - 1.0) if default_s else 0.0,
        "overhead_target": ANALYZER_OVERHEAD_TARGET,
        "analysis_s": analysis_s,
        "events": len(analyze_res.runtime.trace.events),
        "dep_edges": causal.dep_edge_count,
        "res_edges": len(causal.res_edges),
        "virtual_identical": trace_res.elapsed == analyze_res.elapsed,
    }


def host_metadata() -> Dict[str, Any]:
    """The host the figures were measured on: cores, Python, NumPy, OS."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_wallclock(n: int = 4096, num_devices: int = 4, repeats: int = 30,
                  launches: int = 5, n_functional: int = 24,
                  steps: int = 12, analyzer_runs: int = 3,
                  timestamp: Optional[str] = None) -> Dict[str, Any]:
    """The full track: microbench (cache on/off) + end-to-end + engine +
    analyzer, stamped with the host metadata."""
    micro_on = launch_microbench(True, n=n, num_devices=num_devices,
                                 repeats=repeats, launches=launches)
    micro_off = launch_microbench(False, n=n, num_devices=num_devices,
                                  repeats=repeats, launches=launches)
    # Interleaved best-of: ambient load varies on multi-second scales, so
    # a single sample per arm can hand one arm an entire load burst and
    # invert the ratio.
    e2e_on = e2e_off = e2e_fused_off = None
    for _ in range(3):
        on = end_to_end(True, n_functional=n_functional, steps=steps)
        off = end_to_end(False, n_functional=n_functional, steps=steps)
        fused_off = end_to_end(True, n_functional=n_functional, steps=steps,
                               fused_timeline=False)
        if e2e_on is None or on["wall_s"] < e2e_on["wall_s"]:
            e2e_on = on
        if e2e_off is None or off["wall_s"] < e2e_off["wall_s"]:
            e2e_off = off
        if e2e_fused_off is None or \
                fused_off["wall_s"] < e2e_fused_off["wall_s"]:
            e2e_fused_off = fused_off
    engine = engine_microbench()
    analyzer = analyzer_overhead(runs=analyzer_runs,
                                 n_functional=n_functional, steps=steps)
    return {
        "schema": "repro-wallclock-7",
        "timestamp": timestamp,
        "host": host_metadata(),
        "launch_microbench": {"cache_on": micro_on,
                              "cache_off": micro_off},
        "end_to_end": {"cache_on": e2e_on, "cache_off": e2e_off,
                       "fused_off": e2e_fused_off},
        "engine": engine,
        "analyzer_overhead": analyzer,
        "warm_launch_speedup":
            micro_off["warm_launch_s"] / micro_on["warm_launch_s"],
        "end_to_end_speedup": e2e_off["wall_s"] / e2e_on["wall_s"],
        "fused_e2e_speedup": e2e_fused_off["wall_s"] / e2e_on["wall_s"],
    }
