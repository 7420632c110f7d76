"""The benchmark's five workloads, driven through the public API.

Each workload is built from a seed (which sets data values only, never the
shape of the simulated work) and offers:

* ``unit(profiler=None)`` — one unit of work, returning its results;
* ``check(result)`` — a list of failures: a virtual time that differs from
  the pinned value, or output arrays that differ bitwise from the
  sequential reference;
* ``counts(result)`` — the per-layer counters of the unit, read from the
  runtimes' public attributes;
* ``launch_samples(result)`` — seconds per warm launch (``spread-warm``
  only; empty elsewhere).

Only default runtime settings are used: no plan-cache, macro-op,
fused-timeline or worker arguments are passed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench import machines
from repro.device.kernel import KernelSpec
from repro.openmp import Map, OpenMPRuntime, Var
from repro.sim.topology import cte_power_node
from repro.somier import SomierState, run_reference, run_somier
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread_teams_distribute_parallel_for,
)

#: virtual seconds each Somier run must produce (independent of the seed)
PINNED_VIRTUAL_S = {
    (24, 12, "cte-power:4"): 226.88128709639128,
    (96, 4, "cte-power:4"): 65.9984362018119,
    (48, 2, "cluster:1x4"): 33.55377393724831,
    (48, 2, "cluster:16x4"): 5.002026964243425,
    (48, 2, "cluster:64x4"): 2.2369970983897716,
}

#: critical-path length the analyzer must report for the n=24 run
PINNED_CRITPATH_S = 226.86253445608818

#: virtual seconds of one spread-warm runtime
PINNED_WARM_VIRTUAL_S = 0.15463986287127005


def runtime_counts(runtimes) -> Dict[str, float]:
    """Per-layer counters summed over the runtimes of one unit."""
    c = dict.fromkeys((
        "spread.plan_hits", "spread.plan_misses", "spread.macro_replays",
        "spread.directives", "openmp.tasks", "sim.engine.events",
        "sim.engine.dispatches", "sim.timeline.fused_segments",
        "device.kernels", "device.memcpy_calls", "device.h2d_gb",
        "device.d2h_gb", "device.net_gb", "device.net_grants",
        "obs.trace_events", "obs.dep_edges"), 0)
    for rt in runtimes:
        engine = rt.sim.engine_stats()
        c["spread.plan_hits"] += rt.plan_cache.hits
        c["spread.plan_misses"] += rt.plan_cache.misses
        c["spread.macro_replays"] += rt.plan_cache.macro_replays
        c["spread.directives"] += len(rt.directive_info)
        c["openmp.tasks"] += rt.task_count
        c["sim.engine.events"] += engine["events_dispatched"]
        c["sim.engine.dispatches"] += engine["dispatches"]
        c["sim.timeline.fused_segments"] += engine["fused_segments"]
        for dev in rt.devices:
            c["device.kernels"] += dev.kernels_launched
            c["device.memcpy_calls"] += dev.memcpy_calls
            c["device.h2d_gb"] += dev.h2d_bytes / 1e9
            c["device.d2h_gb"] += dev.d2h_bytes / 1e9
            c["device.net_gb"] += dev.net_bytes / 1e9
        c["device.net_grants"] += sum(net.grant_count for net in rt.networks
                                      if net is not None)
        c["obs.trace_events"] += len(rt.trace.events)
        if rt.causal is not None:
            c["obs.dep_edges"] += rt.causal.dep_edge_count
    return c


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class SomierWorkload:
    """One Buffer Somier runs on one or more machines, back to back.

    ``machine_specs`` use the :func:`repro.bench.machines.machine_for_spec`
    grammar.  On the paper node the devices clause is the paper's order
    ``[1, 0, 3, 2]``; cluster runs use every device.  ``analyze`` turns on
    tracing and causal recording and times the analyzer's report as part of
    the unit.
    """

    def __init__(self, seed: int, n: int, steps: int,
                 machine_specs: Sequence[str], analyze: bool = False):
        amplitude = float(np.random.default_rng(seed).uniform(0.05, 0.15))
        self.config = dataclasses.replace(
            machines.paper_somier_config(n_functional=n, steps=steps),
            amplitude=amplitude)
        self.analyze = analyze
        self.runs = []
        for spec in machine_specs:
            topo, cm = machines.machine_for_spec(spec, n_functional=n)
            devices = (machines.paper_devices(topo.num_devices)
                       if spec.startswith("cte-power") else None)
            self.runs.append((spec, topo, cm, devices,
                              PINNED_VIRTUAL_S[(n, steps, spec)]))
        self._references: Dict[Tuple, SomierState] = {}

    def unit(self, profiler=None):
        if profiler is not None:
            profiler.enable()
        out = []
        for _spec, topo, cm, devices, _pin in self.runs:
            res = run_somier("one_buffer", self.config, devices=devices,
                             topology=topo, cost_model=cm,
                             trace=self.analyze, analyze=self.analyze)
            report = (res.runtime.analysis().report() if self.analyze
                      else None)
            out.append((res, report))
        if profiler is not None:
            profiler.disable()
        return out

    def _reference(self, buffers) -> SomierState:
        key = tuple(buffers)
        if key not in self._references:
            self._references[key] = run_reference(SomierState(self.config),
                                                  buffers)
        return self._references[key]

    def check(self, result) -> List[str]:
        failures = []
        for (spec, _t, _c, _d, pin), (res, report) in zip(self.runs, result):
            if res.elapsed != pin:
                failures.append(f"{spec}: virtual_s {res.elapsed!r} != "
                                f"pinned {pin!r}")
            ref = self._reference(res.plan.buffers)
            bad = [name for name, arr in ref.grids.items()
                   if not _same_bits(res.state.grids[name], arr)]
            if not _same_bits(res.centers, np.array(ref.centers)):
                bad.append("centers")
            if bad:
                failures.append(f"{spec}: {', '.join(bad)} differ from "
                                "the sequential reference")
            if report is not None and \
                    report["critical_path"]["length_s"] != PINNED_CRITPATH_S:
                failures.append(
                    f"{spec}: critical path "
                    f"{report['critical_path']['length_s']!r} != pinned "
                    f"{PINNED_CRITPATH_S!r}")
        return failures

    def counts(self, result) -> Dict[str, float]:
        return runtime_counts(res.runtime for res, _report in result)

    def launch_samples(self, result) -> List[float]:
        return []


def _scale_body(lo, hi, env):
    env["B"][lo:hi] = env["A"][lo:hi] * 2.0


class SpreadWarmWorkload:
    """Warm ``target spread teams distribute parallel for`` launches.

    A fresh runtime maps two arrays across four devices once, then issues
    ``batches`` batches of ``launches`` identical ``nowait`` launches with
    a ``taskwait`` between batches.  A ``nowait`` static spread never
    yields, so the clock around a batch reads host lowering alone; the
    kernel bodies run in the untimed ``taskwait``.  Batch 0 builds the
    launch plan and is excluded from the samples.
    """

    n = 4096
    devices = (0, 1, 2, 3)
    batches = 100
    launches = 5

    def __init__(self, seed: int):
        self.host_a = np.random.default_rng(seed).uniform(-1.0, 1.0, self.n)
        self.kernel = KernelSpec("scale", _scale_body)

    def unit(self, profiler=None):
        S, Z = omp_spread_start, omp_spread_size
        rt = OpenMPRuntime(topology=cte_power_node(len(self.devices)),
                           trace_enabled=False)
        n, devices, kern = self.n, list(self.devices), self.kernel
        a, b = self.host_a.copy(), np.zeros(self.n)
        va, vb = Var("A", a), Var("B", b)
        samples: List[float] = []
        clock = time.process_time

        def program(omp):
            yield from target_enter_data_spread(
                omp, devices, (0, n), None,
                [Map.to(va, (S, Z)), Map.alloc(vb, (S, Z))])
            for batch in range(self.batches):
                prof = profiler if batch else None
                if prof is not None:
                    prof.enable()
                t0 = clock()
                for _ in range(self.launches):
                    yield from target_spread_teams_distribute_parallel_for(
                        omp, kern, 0, n, devices,
                        maps=[Map.to(va, (S, Z)), Map.from_(vb, (S, Z))],
                        nowait=True)
                samples.append(clock() - t0)
                if prof is not None:
                    prof.disable()
                yield from omp.taskwait()
            yield from target_exit_data_spread(
                omp, devices, (0, n), None,
                [Map.release(va, (S, Z)), Map.from_(vb, (S, Z))])

        rt.run(program)
        return rt, b, samples[1:]

    def check(self, result) -> List[str]:
        rt, b, _samples = result
        failures = []
        if rt.elapsed != PINNED_WARM_VIRTUAL_S:
            failures.append(f"virtual_s {rt.elapsed!r} != pinned "
                            f"{PINNED_WARM_VIRTUAL_S!r}")
        if not _same_bits(b, self.host_a * 2.0):
            failures.append("B differs from 2 * A")
        return failures

    def counts(self, result) -> Dict[str, float]:
        return runtime_counts([result[0]])

    def launch_samples(self, result) -> List[float]:
        return [t / self.launches for t in result[2]]


def build(name: str, seed: int):
    """The workload called *name*, with inputs made from *seed*."""
    if name == "somier-n24":
        return SomierWorkload(seed, 24, 12, ["cte-power:4"])
    if name == "somier-n96":
        return SomierWorkload(seed, 96, 4, ["cte-power:4"])
    if name == "spread-warm":
        return SpreadWarmWorkload(seed)
    if name == "cluster-sweep":
        return SomierWorkload(seed, 48, 2, ["cluster:1x4", "cluster:16x4",
                                            "cluster:64x4"])
    if name == "somier-analyze":
        return SomierWorkload(seed, 24, 12, ["cte-power:4"], analyze=True)
    raise ValueError(f"unknown workload {name!r}")
