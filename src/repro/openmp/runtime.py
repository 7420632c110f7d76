"""The OpenMP runtime object: devices, ICVs and the run loop.

:class:`OpenMPRuntime` assembles the whole simulated node — simulator, trace,
socket links, devices, per-device data environments, and the dependence
tracker — and drives host programs (generator functions taking a
:class:`~repro.openmp.tasks.TaskCtx`).

Typical use::

    rt = OpenMPRuntime(topology=cte_power_node(4))

    def program(omp):
        yield from target_enter_data(omp, device=0, maps=[Map.to(A)])
        ...

    rt.run(program)
    print(rt.elapsed, rt.trace.to_ascii())
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, List, Optional

from repro.device.device import Device
from repro.obs.tool import FAULT_EVENT, ToolRegistry
from repro.openmp.dataenv import DeviceDataEnv
from repro.openmp.depend import DependTracker
from repro.openmp.options import RunOptions, resolve_topology
from repro.openmp.tasks import TaskCtx
from repro.sim.costmodel import CostModel
from repro.sim.engine import Process, Simulator
from repro.sim.faults import FaultInjector
from repro.sim.resources import Resource
from repro.sim.topology import NodeTopology
from repro.sim.trace import Trace
from repro.spread.plan_cache import SpreadPlanCache
from repro.util.errors import OmpDeviceError, OmpRuntimeError


class OpenMPRuntime:
    """A fully wired simulated node plus the OpenMP host runtime state."""

    def __init__(self, topology: Optional[NodeTopology] = None,
                 cost_model: Optional[CostModel] = None,
                 options: Optional[RunOptions] = None, **fields: Any):
        """Run with *options*, else :meth:`RunOptions.from_env` of the
        keyword *fields*; *fields* given with *options* override it."""
        if "trace_enabled" in fields:
            fields["trace"] = fields.pop("trace_enabled")
        if options is None:
            options = RunOptions.from_env(**fields)
        elif not isinstance(options, RunOptions):
            raise OmpRuntimeError(
                f"options={options!r}: expected a RunOptions")
        elif fields:
            options = dataclasses.replace(options, **fields)
        self.options = options
        self.topology = resolve_topology(topology)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.sim = Simulator()
        self.trace = Trace(enabled=options.trace)
        #: OMPT-style tool registry; empty (and falsy) until a tool
        #: registers, so instrumented code paths stay zero-cost by default
        self.tools = ToolRegistry(runtime=self)
        self.links: List[Resource] = [
            Resource(self.sim, capacity=1, name=spec.name)
            for spec in self.topology.link_specs
        ]
        #: number of cluster nodes (1 on a plain NodeTopology)
        self.num_nodes = getattr(self.topology, "num_nodes", 1)
        if self.num_nodes > 1:
            # Per-node host staging buffers: devices of one node contend
            # with each other, never with another node's transfers.  The
            # root node (0) keeps the bare host_spec name so single-node
            # trace lanes stay recognizable in cluster traces too.
            self.stagings: List[Resource] = [
                Resource(self.sim, capacity=1,
                         name=(self.topology.host_spec_of(n).name if n == 0
                               else f"node{n}:"
                                    f"{self.topology.host_spec_of(n).name}"))
                for n in range(self.num_nodes)
            ]
            #: one inter-node network link per non-root node (FIFO); the
            #: root node holds the host arrays and needs no hop
            self.networks: List[Optional[Resource]] = [None] + [
                Resource(self.sim, capacity=1, name=f"node{n}:network")
                for n in range(1, self.num_nodes)
            ]
        else:
            self.stagings = [Resource(self.sim, capacity=1,
                                      name=self.topology.host_spec.name)]
            self.networks = [None]
        self.staging = self.stagings[0]
        net_spec = getattr(self.topology, "network_spec", None)
        node_of = (self.topology.node_of if self.num_nodes > 1
                   else (lambda d: 0))
        self.devices: List[Device] = []
        for d in range(self.topology.num_devices):
            node = node_of(d)
            self.devices.append(Device(
                self.sim, d, self.topology.device_specs[d],
                self.links[self.topology.socket_of(d)],
                self.topology.link_of(d),
                self.stagings[node], self.topology.host_spec_of(node)
                if self.num_nodes > 1 else self.topology.host_spec,
                self.cost_model, self.trace, tools=self.tools,
                network=self.networks[node],
                network_spec=net_spec if node > 0 else None,
                node_id=node))
        self.dataenvs: List[DeviceDataEnv] = [
            DeviceDataEnv(dev) for dev in self.devices
        ]
        self.depend = DependTracker()
        #: spread launch-plan cache (replay of repeated directives)
        self.plan_cache = SpreadPlanCache(enabled=options.plan_cache)
        #: deterministic fault source shared by all devices (or None); a
        #: fresh one per runtime, so runtimes never share RNG state
        self.fault_injector = (
            FaultInjector.from_spec(options.faults, seed=options.fault_seed)
            if options.faults is not None else None)
        for dev in self.devices:
            dev.fault_injector = self.fault_injector
        #: transient faults (transfer/kernel) are retried per this policy,
        #: with the backoff charged to virtual time
        self.retry_policy = options.retry
        self._lost_devices: set = set()
        self._lost_nodes: set = set()
        # resilience counters mirrored into SomierResult.stats
        self.fault_retries = 0
        self.fault_failovers = 0
        self.default_device = 0
        #: reproduce the paper's taskgroup behaviour: closing a taskgroup
        #: that contains device operations drains *all* devices ("a barrier
        #: that synchronizes all devices", Discussion section).
        self.taskgroup_global_drain = options.taskgroup_global_drain
        #: interval race sanitizer (repro.analysis.sanitizer) or None.
        #: Lazily imported so unsanitized runs never load the analysis
        #: package.
        self.sanitizer = None
        if options.sanitize is not None:
            from repro.analysis.sanitizer import RaceSanitizer

            self.sanitizer = RaceSanitizer(
                rt=self, strict=options.sanitize == "strict")
            self.sanitizer.install(self.sim)
        #: directive ids are allocated here — always, tools or not — so
        #: trace provenance and the critical-path analyzer see the same
        #: ids the tool registry dispatches.
        self._directive_seq = 0
        self.directive_info: dict = {}
        # interned {"kind":…, "name":…} dicts — warm launches allocate a
        # directive id per call, and the info payload repeats endlessly
        self._info_memo: dict = {}
        #: causal recorder (repro.obs.critpath) or None
        self.causal = None
        if options.analyze:
            from repro.obs.critpath import CausalRecorder

            self.causal = CausalRecorder()
            self.causal.install(self.sim)
        self._tasks: List[Process] = []
        self._device_ops: List[Process] = []
        self._ran = False

    # -- device access ----------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device(self, device_id: int) -> Device:
        if not 0 <= device_id < self.num_devices:
            raise OmpDeviceError(
                f"device id {device_id} out of range (node has "
                f"{self.num_devices} devices)")
        return self.devices[device_id]

    def dataenv(self, device_id: int) -> DeviceDataEnv:
        self.device(device_id)  # bounds check
        return self.dataenvs[device_id]

    # -- device loss --------------------------------------------------------------

    @property
    def lost_devices(self) -> "frozenset[int]":
        return frozenset(self._lost_devices)

    def is_lost(self, device_id: int) -> bool:
        return device_id in self._lost_devices

    def mark_device_lost(self, device_id: int, op: str = "",
                         name: str = "") -> None:
        """Take *device_id* out of service (idempotent).

        The device is flagged so every further operation on it fails fast;
        its present table is purged (resident data is unrecoverable, no
        copy-backs); and every cached spread plan that routed chunks to it
        is invalidated.  Spread-level failover
        (:mod:`repro.spread.failover`) re-routes the device's remaining
        chunks onto the survivors.
        """
        self.device(device_id)  # bounds check
        if device_id in self._lost_devices:
            return
        self._lost_devices.add(device_id)
        self.devices[device_id].lost = True
        purged = self.dataenvs[device_id].purge()
        dropped = self.plan_cache.invalidate_devices((device_id,))
        tools = self.tools
        if tools:
            tools.dispatch(FAULT_EVENT, kind="device_lost",
                           device=device_id, op=op, name=name,
                           purged_entries=purged, dropped_plans=dropped,
                           survivors=self.num_devices - len(
                               self._lost_devices),
                           time=self.sim.now)

    @property
    def lost_nodes(self) -> "frozenset[int]":
        return frozenset(self._lost_nodes)

    def mark_node_lost(self, node_id: int, op: str = "",
                       name: str = "") -> None:
        """Take a whole cluster node out of service (idempotent).

        Every device the node hosts is flagged lost and its present table
        purged; every cached spread plan routing chunks to *any* of them
        is invalidated in one cache pass
        (:meth:`~repro.spread.plan_cache.SpreadPlanCache.invalidate_devices`).
        Spread-level failover then re-routes the node's whole chunk share
        onto the surviving nodes' devices, chunk by chunk, with the usual
        routing formula.
        """
        if not 0 <= node_id < self.num_nodes:
            raise OmpDeviceError(
                f"node id {node_id} out of range (cluster has "
                f"{self.num_nodes} nodes)")
        if node_id in self._lost_nodes:
            return
        self._lost_nodes.add(node_id)
        node_devs = tuple(self.topology.node_devices(node_id))
        purged = 0
        for d in node_devs:
            if d in self._lost_devices:
                continue
            self._lost_devices.add(d)
            self.devices[d].lost = True
            purged += self.dataenvs[d].purge()
        dropped = self.plan_cache.invalidate_devices(node_devs)
        tools = self.tools
        if tools:
            tools.dispatch(FAULT_EVENT, kind="node_lost", node=node_id,
                           devices=node_devs, op=op, name=name,
                           purged_entries=purged, dropped_plans=dropped,
                           survivors=self.num_devices - len(
                               self._lost_devices),
                           time=self.sim.now)

    # -- bookkeeping -------------------------------------------------------------

    def next_directive_id(self, kind: str = "", name: str = "") -> int:
        """Allocate the next directive id (sequential in program order).

        Every directive layer draws from this counter whether or not tools
        are registered, so trace events always carry stable ``directive``
        provenance and tooled runs see the very same ids.
        """
        self._directive_seq += 1
        did = self._directive_seq
        info = self._info_memo.get((kind, name))
        if info is None:
            info = {"kind": kind, "name": name}
            self._info_memo[(kind, name)] = info
        self.directive_info[did] = info
        return did

    def directive_info_for(self, kind: str, name: str = "") -> dict:
        """The interned info dict for a directive kind/name pair.

        Allocating no id; pair with :meth:`alloc_directive_id` on paths
        that resolve the info once and reuse it (macro-op replay caches it
        on the compiled program).
        """
        key = (kind, name)
        info = self._info_memo.get(key)
        if info is None:
            info = {"kind": kind, "name": name}
            self._info_memo[key] = info
        return info

    def alloc_directive_id(self, info: dict) -> int:
        """Allocate the next directive id for a pre-resolved info dict.

        Equivalent to :meth:`next_directive_id` with the memo lookup
        hoisted out — the macro-replay hot path calls this with the info
        cached on the program.
        """
        self._directive_seq += 1
        did = self._directive_seq
        self.directive_info[did] = info
        return did

    def analysis(self):
        """A :class:`repro.obs.critpath.CritPathAnalysis` over this run.

        Requires the runtime to have been built with ``analyze=True`` (or
        ``REPRO_ANALYZE=1``) so causal edges were recorded.
        """
        if self.causal is None:
            raise OmpRuntimeError(
                "no causal recording: construct the runtime with "
                "analyze=True (or set REPRO_ANALYZE=1) to use analysis()")
        from repro.obs.critpath import CritPathAnalysis

        return CritPathAnalysis(self.trace, self.causal,
                                directive_info=self.directive_info,
                                num_devices=self.num_devices)

    def note_task(self, proc: Process) -> None:
        self._tasks.append(proc)

    def note_device_op(self, proc: Process) -> None:
        self._device_ops.append(proc)

    def note_tasks(self, procs: List[Process]) -> None:
        """Batch variant of :meth:`note_task` (macro-op replay)."""
        self._tasks.extend(procs)

    def note_device_ops(self, procs: List[Process]) -> None:
        """Batch variant of :meth:`note_device_op` (macro-op replay)."""
        self._device_ops.extend(procs)

    def pending_device_ops(self) -> List[Process]:
        """Device operations still in flight (pruned on access)."""
        self._device_ops = [p for p in self._device_ops if not p.processed]
        return list(self._device_ops)

    @property
    def elapsed(self) -> float:
        """Virtual seconds elapsed so far."""
        return self.sim.now

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    # -- execution ----------------------------------------------------------------

    def run(self, program: Callable[..., Generator], *args: Any) -> Any:
        """Execute *program(ctx, \\*args)* to completion; returns its value.

        A runtime instance runs one program (its virtual clock and trace
        cover that program's execution); create a fresh runtime per
        experiment.
        """
        if self._ran:
            raise OmpRuntimeError(
                "this runtime already ran a program; create a new one")
        self._ran = True
        root = TaskCtx(self, parent=None)
        main = self.sim.process(program(root, *args), name="main")
        if self.sanitizer is not None:
            root._san_proc = main
        self._tasks.append(main)
        result = self.sim.run(until=main)
        # Drain stragglers (nowait tasks nobody joined).
        self.sim.run()
        self._release_device_memory()
        self._raise_lost_failures()
        if self.sanitizer is not None and self.sanitizer.strict \
                and self.sanitizer.reports:
            from repro.util.errors import DataRaceError

            raise DataRaceError(self.sanitizer.summary())
        return result

    def _release_device_memory(self) -> None:
        """Let go of what only the finished run needed: the allocators'
        spare buffers and the replay records' cached kernel views.  With
        the walkers' own references dropped as they finish, a freed device
        buffer is then unreachable, while counters, the trace, plan-cache
        cells, the task list and live mappings stay for post-run readers."""
        for dev in self.devices:
            dev.allocator.drop_spares()
        self.plan_cache.drop_resolutions()

    def _raise_lost_failures(self) -> None:
        unfinished = [p for p in self._tasks if not p.triggered]
        if unfinished:
            names = ", ".join(p.name for p in unfinished[:5])
            raise OmpRuntimeError(
                f"{len(unfinished)} task(s) never completed (deadlock?): "
                f"{names}")
        for proc in self._tasks:
            if not proc.ok:
                raise proc.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<OpenMPRuntime devices={self.num_devices} "
                f"t={self.sim.now:.6f}s tasks={len(self._tasks)}>")
