"""Somier run driver: wires a problem, machine and implementation together.

``run_somier("one_buffer", config, devices=[1, 0, 3, 2], ...)`` builds the
runtime, plans the buffers against the (virtual) device capacity, executes
the chosen implementation and returns a :class:`SomierResult` carrying the
virtual execution time, the centers history, the trace and transfer/kernel
statistics the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.tool import Tool
from repro.openmp.options import RunOptions, resolve_topology
from repro.openmp.runtime import OpenMPRuntime
from repro.sim.costmodel import CostModel
from repro.sim.topology import NodeTopology
from repro.somier import impl_common as common
from repro.somier import (
    impl_double_buffering,
    impl_one_buffer,
    impl_target,
    impl_two_buffers,
)
from repro.somier.config import SomierConfig
from repro.somier.kernels import make_kernels
from repro.somier.plan import BufferPlan, plan_buffers
from repro.somier.state import SomierState
from repro.spread import extensions as ext
from repro.util.errors import OmpRuntimeError

#: implementation name -> program builder
IMPLEMENTATIONS = {
    "target": impl_target.build_program,
    "one_buffer": impl_one_buffer.build_program,
    "two_buffers": impl_two_buffers.build_program,
    "double_buffering": impl_double_buffering.build_program,
}

#: implementations that keep two half-buffer chunks resident per device
_HALF_BUFFER_IMPLS = {"two_buffers", "double_buffering"}


@dataclass
class SomierResult:
    """Everything a benchmark or test needs from one Somier run."""

    impl: str
    devices: List[int]
    config: SomierConfig
    plan: BufferPlan
    elapsed: float
    centers: np.ndarray
    state: SomierState
    runtime: OpenMPRuntime
    stats: Dict[str, float] = field(default_factory=dict)


def run_somier(impl: str, config: SomierConfig,
               devices: Optional[Sequence[int]] = None,
               topology: Optional[NodeTopology] = None,
               cost_model: Optional[CostModel] = None,
               fill: float = 0.85,
               fuse_transfers: bool = False,
               data_depend: bool = False,
               options: Optional[RunOptions] = None,
               tools: Sequence[Tool] = (),
               **fields: Any) -> SomierResult:
    """Run one Somier experiment; see the module docstring.

    ``devices`` defaults to every device of the topology, in id order; the
    ``target`` baseline requires exactly one.  ``topology=None`` resolves
    as in :func:`repro.openmp.options.resolve_topology`; on cluster
    topologies the spread implementations distribute hierarchically
    (nodes, then GPUs).  ``fill`` bounds how much of a device's (virtual)
    memory a resident chunk may use.  ``tools`` are observability tools
    registered with the runtime before the program starts (any registered
    tool puts warm launches on the object path).  ``options`` and the
    keyword ``fields`` go to :class:`~repro.openmp.runtime.OpenMPRuntime`
    as they are — see :class:`~repro.openmp.options.RunOptions`.
    """
    if impl not in IMPLEMENTATIONS:
        raise OmpRuntimeError(
            f"unknown Somier implementation {impl!r} "
            f"(available: {sorted(IMPLEMENTATIONS)})")
    topo = resolve_topology(topology)
    devs = list(devices) if devices is not None else list(range(topo.num_devices))
    if not devs:
        raise OmpRuntimeError("devices: the device list is empty")
    for d in devs:
        if not 0 <= d < topo.num_devices:
            raise OmpRuntimeError(
                f"devices: device id {d} out of range (the machine has "
                f"{topo.num_devices} devices)")
    rt = OpenMPRuntime(topology=topo, cost_model=cost_model,
                       options=options, **fields)
    for tool in tools:
        rt.tools.register(tool)
    if data_depend:
        ext.enable(rt, data_depend=True)
    capacity = min(topo.device_specs[d].memory_bytes for d in devs)
    concurrent = 2 if impl in _HALF_BUFFER_IMPLS else 1
    plan = plan_buffers(config, len(devs), capacity,
                        scale=rt.cost_model.scale, fill=fill,
                        concurrent_chunks=concurrent)
    state = SomierState(config)
    kernels = make_kernels(config)
    groups = None
    if getattr(topo, "num_nodes", 1) > 1:
        # Cluster topology: group the devices clause per node (clause
        # order preserved inside each group) so the implementations spread
        # hierarchically — nodes first, then each node's devices.
        groups = [g for g in
                  ([d for d in devs if topo.node_of(d) == n]
                   for n in range(topo.num_nodes))
                  if g]
    opts = common.RunOpts(devices=devs, data_depend=data_depend,
                          fuse_transfers=fuse_transfers, groups=groups)
    program = IMPLEMENTATIONS[impl](state, kernels, plan, opts)
    rt.run(program)

    stats = {
        "h2d_bytes": sum(rt.devices[d].h2d_bytes for d in devs),
        "d2h_bytes": sum(rt.devices[d].d2h_bytes for d in devs),
        "memcpy_calls": sum(rt.devices[d].memcpy_calls for d in devs),
        "kernels_launched": sum(rt.devices[d].kernels_launched for d in devs),
        "tasks": rt.task_count,
        "plan_cache_hits": rt.plan_cache.hits,
        "plan_cache_misses": rt.plan_cache.misses,
        "macro_compiles": rt.plan_cache.macro_compiles,
        "macro_replays": rt.plan_cache.macro_replays,
    }
    engine = rt.sim.engine_stats()
    stats.update({
        "engine_events_scheduled": engine["events_scheduled"],
        "engine_dispatches": engine["dispatches"],
        "engine_events_dispatched": engine["events_dispatched"],
        "engine_mean_batch": engine["mean_batch"],
        "engine_fused_segments": engine["fused_segments"],
    })
    if rt.fault_injector is not None or rt.lost_devices:
        stats.update({
            "faults_injected": (rt.fault_injector.injected
                                if rt.fault_injector is not None else 0),
            "fault_retries": rt.fault_retries,
            "fault_failovers": rt.fault_failovers,
            "devices_lost": len(rt.lost_devices),
        })
    if rt.sanitizer is not None:
        stats.update({
            "sanitizer_ops": rt.sanitizer.ops_recorded,
            "sanitizer_checks": rt.sanitizer.access_checks,
            "sanitizer_races": rt.sanitizer.races,
        })
    if rt.causal is not None:
        # Counters only — the analysis itself (critical path, attribution,
        # what-if) is on-demand via rt.analysis(), off the run's hot path.
        stats.update({
            "causal_ops": rt.causal.ops,
            "causal_dep_edges": rt.causal.dep_edge_count,
            "causal_res_edges": rt.causal.res_edge_count,
        })
    return SomierResult(impl=impl, devices=devs, config=config, plan=plan,
                        elapsed=rt.elapsed,
                        centers=np.array(state.centers), state=state,
                        runtime=rt, stats=stats)
