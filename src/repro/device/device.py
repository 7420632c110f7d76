"""The simulated accelerator device.

Execution model (calibrated against the paper's traces, see DESIGN.md §4):

* **One in-order queue per device.**  Copies and kernels issued to a device
  execute one at a time, in arrival order — the single-stream behaviour
  visible in the paper's Fig. 4, where kernels end up *interleaved* with
  transfers from a different buffer instead of overlapping them.
* **Per-socket shared wire.**  The DMA (wire) portion of a transfer also
  occupies the socket's host link, a FIFO shared by that socket's devices —
  so transfers never overlap on a socket ("transfers from different buffers
  did not overlap").
* **Global host staging.**  Pageable transfers stage through host memory
  (host DRAM <-> pinned buffer), a single FIFO resource shared by *all*
  devices and both directions.  Staging pipelines with the wire (the next
  memcpy stages while the current one is in flight), so one socket runs at
  wire speed, but with both sockets active the aggregate saturates at the
  staging bandwidth — the communication bottleneck that caps the paper's
  4-GPU speedup at ~2X.

An H2D memcpy: issue latency -> staging (snapshot of the host section) ->
device queue + socket link for the wire time -> functional copy into the
device buffer.  D2H mirrors it: wire first (snapshot of the device section),
staging and the host write afterwards.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional

import numpy as np

from repro.device.kernel import KernelSpec, LaunchConfig
from repro.device.memory import Allocation, DeviceAllocator
from repro.obs.tool import (DATA_OP, FAULT_EVENT, KERNEL_COMPLETE,
                            KERNEL_LAUNCH, ToolRegistry)
from repro.sim import trace as tr
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.resources import Resource
from repro.sim.topology import (DeviceSpec, HostSpec, LinkSpec,
                                NetworkLinkSpec)
from repro.util.errors import (DeviceLostError, KernelFaultError,
                               NodeLostError, TransferFaultError)


def _prov_meta(proc) -> dict:
    """Directive/chunk/retry trace meta from the issuing process.

    Provenance rides on :class:`~repro.sim.engine.Process` (set by the
    directive layers, inherited by copy sub-processes) so it survives
    failover re-routing.  Recorded unconditionally — traces are
    bit-identical whether or not the critical-path recorder is attached.
    """
    meta: dict = {}
    if proc is None:
        return meta
    prov = proc.prov
    if prov is not None:
        meta["directive"] = prov[0]
        if prov[1] is not None:
            meta["chunk"] = prov[1]
        if len(prov) > 2 and prov[2] is not None:
            meta["rerouted_from"] = prov[2]
    retry = proc.retry
    if retry:
        meta["attempt"] = retry[0]
        meta["retry_of"] = retry[1]
    return meta


class Device:
    """One simulated accelerator attached to a socket link."""

    def __init__(self, sim: Simulator, device_id: int, spec: DeviceSpec,
                 link: Resource, link_spec: LinkSpec,
                 staging: Resource, host_spec: HostSpec,
                 cost_model: CostModel, trace: tr.Trace,
                 tools: Optional[ToolRegistry] = None,
                 network: Optional[Resource] = None,
                 network_spec: Optional[NetworkLinkSpec] = None,
                 node_id: int = 0):
        self.sim = sim
        #: OMPT-style dispatch target; an empty registry is falsy, so every
        #: dispatch site below is a no-op truthiness check when untooled
        self.tools = tools if tools is not None else ToolRegistry()
        self.device_id = device_id
        self.spec = spec
        self.link = link
        self.link_spec = link_spec
        self.staging = staging
        self.host_spec = host_spec
        #: inter-node network link (FIFO shared by this node's devices), or
        #: None on the root node / single-node topologies.  When set, every
        #: transfer's bytes additionally traverse it (host-as-carrier: the
        #: host arrays live on the root node).
        self.network = network
        self.network_spec = network_spec
        self.node_id = node_id
        self.cost_model = cost_model
        self.trace = trace
        self.allocator = DeviceAllocator(spec.memory_bytes, device_id)
        #: fault source consulted at the top of every device op, or None
        #: (set by the runtime when fault injection is configured)
        self.fault_injector: Optional[FaultInjector] = None
        #: once True, every new operation fails immediately with
        #: :class:`DeviceLostError` — the device is gone for good
        self.lost = False
        #: the device's single in-order execution queue (copies + kernels)
        self.queue = Resource(sim, 1, name=f"gpu{device_id}")
        self._free_waiters: list = []
        # counters used by benchmark reports
        self.h2d_bytes = 0.0
        self.d2h_bytes = 0.0
        self.net_bytes = 0.0
        self.kernels_launched = 0
        self.memcpy_calls = 0

    # -- memory -----------------------------------------------------------------

    def allocate(self, shape, dtype=np.float64,
                 virtual_bytes: Optional[float] = None,
                 label: str = "") -> Allocation:
        """Allocate a device buffer (instantaneous; see DESIGN.md)."""
        alloc = self.allocator.allocate(shape, dtype=dtype,
                                        virtual_bytes=virtual_bytes,
                                        label=label)
        tools = self.tools
        if tools:
            tools.dispatch(DATA_OP, op="alloc", device=self.device_id,
                           bytes=alloc.virtual_bytes, name=label,
                           time=self.sim.now)
        return alloc

    def free(self, alloc: Allocation) -> None:
        self.allocator.free(alloc)
        tools = self.tools
        if tools:
            tools.dispatch(DATA_OP, op="free", device=self.device_id,
                           bytes=alloc.virtual_bytes, name=alloc.label,
                           time=self.sim.now)
        waiters, self._free_waiters = self._free_waiters, []
        for ev in waiters:
            ev.trigger(None)

    def synchronize(self) -> Generator:
        """Wait until every operation issued to this device so far completes.

        Models the device-wide synchronization cudaMalloc/cudaFree perform:
        a queue slot is claimed behind everything currently enqueued and
        released immediately once granted.
        """
        req = self.queue.request(tag="device-sync")
        yield req
        self.queue.release(req)

    def wait_for_free(self):
        """An event that triggers at the next :meth:`free` on this device.

        Used by the data environment's back-pressure path: an ``enter``
        that transiently exhausts device memory (e.g. the Double Buffering
        recursion prefetching a half whose predecessor has not drained yet)
        blocks until storage is released, then retries — instead of
        failing like a bare ``cudaMalloc`` would.
        """
        ev = self.sim.event()
        self._free_waiters.append(ev)
        return ev

    # -- fault surfacing -----------------------------------------------------------

    def _check_fault(self, op: str, name: str) -> None:
        """Raise the typed fault for *op* if the injector fires (or the
        device is already lost).

        Called at the very top of every device operation, *before* any
        resource request — a raised fault can never leave a queue, link or
        staging slot held.
        """
        if self.lost:
            raise DeviceLostError(
                f"device {self.device_id} is lost",
                device=self.device_id, op=op, name=name)
        inj = self.fault_injector
        if inj is None:
            return
        rule = inj.draw(op, self.device_id, node=self.node_id)
        if rule is None:
            return
        tools = self.tools
        if tools:
            tools.dispatch(FAULT_EVENT, kind="inject", fault=rule.op_class,
                           device=self.device_id, op=op, name=name,
                           time=self.sim.now)
        if rule.op_class == "node":
            self.lost = True
            raise NodeLostError(
                f"node {self.node_id} lost "
                f"(injected at {op} {name!r} on device {self.device_id})",
                device=self.device_id, op=op, name=name,
                node=self.node_id)
        if rule.op_class == "device":
            self.lost = True
            raise DeviceLostError(
                f"device {self.device_id} lost "
                f"(injected at {op} {name!r})",
                device=self.device_id, op=op, name=name)
        if op == "kernel":
            raise KernelFaultError(
                f"injected kernel-launch fault on device "
                f"{self.device_id} ({name!r})",
                device=self.device_id, op=op, name=name)
        raise TransferFaultError(
            f"injected {op} fault on device {self.device_id} ({name!r})",
            device=self.device_id, op=op, name=name)

    # -- staging helper ------------------------------------------------------------

    def _staging_time(self, virtual_bytes: float) -> float:
        return virtual_bytes / self.host_spec.staging_bandwidth_bytes_per_s

    # -- inter-node network hop ----------------------------------------------------

    def _network_hop(self, name: str, op, nbytes: float) -> Generator:
        """Carry *nbytes* across this node's inter-node link (FIFO).

        Returns ``(net_start, net_end)``.  Messages serialize on the
        node's single network resource — per-message latency and wire
        time are both paid while the link is held, so concurrent halo
        exchanges from one node's devices queue behind each other (the
        cluster-scale analogue of the shared socket wire).  The root-side
        DRAM landing is folded into the message cost; only the node-local
        staging buffer is modeled as a separate resource.
        """
        cost = self.cost_model.network_transfer(self.network_spec, nbytes)
        req = self.network.request(tag=name)
        req.owner = op
        yield req
        net_start = self.sim.now
        try:
            total = cost.latency + cost.wire_time
            if total > 0:
                yield self.sim.timeout(total)
        finally:
            net_end = self.sim.now
            self.network.release(req)
        self.net_bytes += cost.bytes
        return net_start, net_end

    # -- functional payload ------------------------------------------------------
    #
    # Transfers keep copy semantics: the source sections are read into
    # snapshots when the op stages them and written to the destination when
    # it commits, so a writer landing in between never leaks into the copy.

    @staticmethod
    def _snapshot_sections(sections):
        """Copies of the ``(owner, key)`` sections as they are now."""
        return [src[sk].copy() for src, sk in sections]

    @staticmethod
    def _commit_sections(targets, snapshots) -> None:
        """Write ``owner[key] = snapshot`` for the paired lists."""
        for (dst, dk), snap in zip(targets, snapshots):
            dst[dk] = snap

    # -- transfers ---------------------------------------------------------------

    def copy_h2d(self, src: np.ndarray, src_key: Any,
                 dst: np.ndarray, dst_key: Any,
                 name: str = "memcpy") -> Generator:
        """One host-to-device memcpy of ``src[src_key] -> dst[dst_key]``."""
        yield from self._copy_h2d_batch([(src, src_key, dst, dst_key)], name,
                                        fused=False)

    def copy_d2h(self, src: np.ndarray, src_key: Any,
                 dst: np.ndarray, dst_key: Any,
                 name: str = "memcpy") -> Generator:
        """One device-to-host memcpy (see :meth:`copy_h2d`)."""
        yield from self._copy_d2h_batch([(src, src_key, dst, dst_key)], name,
                                        fused=False)

    def copy_h2d_batch(self, copies, name: str = "memcpy-batch") -> Generator:
        """A fused host-to-device transfer of several array sections.

        Pays the per-call latency once and stages/wires the summed bytes in
        one go — the counterfactual to the paper's 12 sequential memcpy
        calls per chunk (Section VI-B discusses this granularity problem;
        the ablation benchmark quantifies it).
        """
        yield from self._copy_h2d_batch(list(copies), name, fused=True)

    def copy_d2h_batch(self, copies, name: str = "memcpy-batch") -> Generator:
        """Fused device-to-host transfer (see :meth:`copy_h2d_batch`)."""
        yield from self._copy_d2h_batch(list(copies), name, fused=True)

    def _copy_h2d_batch(self, copies, name: str, fused: bool) -> Generator:
        if not copies:
            return
        self._check_fault("h2d", name)
        proc = self.sim.current_process
        rec = self.sim.recorder
        op = rec.op_begin(proc) if rec is not None else None
        nbytes = sum(src[sk].nbytes for src, sk, _d, _dk in copies)
        cost = self.cost_model.transfer(self.link_spec, nbytes)
        issue_ts = self.sim.now
        # Claim the stream slot at ISSUE time: like a CUDA stream, the
        # operation's position in the device's in-order queue is fixed when
        # it is enqueued, not when its staging happens to finish.  This is
        # what pins a buffer's kernels *behind* the next buffer's already
        # issued transfers (the paper's Fig. 4 interleaving).
        queue_req = self.queue.request(tag=name)
        queue_req.owner = op
        if cost.latency > 0:
            yield self.sim.timeout(cost.latency)
        # Stage: snapshot the host sections through the shared staging path.
        staging_req = self.staging.request(tag=name)
        staging_req.owner = op
        yield staging_req
        st = self._staging_time(cost.bytes)
        if fused and len(copies) > 1:
            # A fused transfer pipelines its own staging with its wire (the
            # DMA streams a piece while the host stages the next): only the
            # lead-in piece is staged up front; the remainder occupies the
            # staging path concurrently with the wire (helper below).
            lead = st / len(copies)
        else:
            lead = st
        rest = st - lead
        try:
            if lead > 0:
                yield self.sim.timeout(lead)
            snapshots = self._snapshot_sections(
                [(src, sk) for src, sk, _d, _dk in copies])
        finally:
            self.staging.release(staging_req)
        # Inter-node hop: staged bytes travel root host -> this node's
        # staging buffer before the local DMA can stream them.
        net_meta = {}
        if self.network is not None:
            net_start, net_end = yield from self._network_hop(name, op,
                                                              nbytes)
            net_meta = {"net_start": net_start, "net_end": net_end,
                        "node": self.node_id}
        # Wire: device queue + socket link, in order.
        ready_ts = self.sim.now
        yield queue_req
        start = self.sim.now
        try:
            link_req = self.link.request(tag=name)
            link_req.owner = op
            yield link_req
            wire_start = self.sim.now
            helper = None
            if rest > 0:
                def hold_staging() -> Generator:
                    req2 = self.staging.request(tag=f"{name}:pipeline")
                    yield req2
                    try:
                        yield self.sim.timeout(rest)
                    finally:
                        self.staging.release(req2)

                helper = self.sim.process(hold_staging())
            try:
                if cost.wire_time > 0:
                    yield self.sim.timeout(cost.wire_time)
            finally:
                wire_end = self.sim.now
                self.link.release(link_req)
            if helper is not None:
                yield helper
            self._commit_sections(
                [(dst, dk) for _s, _sk, dst, dk in copies], snapshots)
        finally:
            self.queue.release(queue_req)
        self.memcpy_calls += 1
        self.h2d_bytes += cost.bytes
        idx = self.trace.record(tr.H2D, name, lane=self.queue.name,
                                start=start, end=self.sim.now,
                                device=self.device_id, bytes=cost.bytes,
                                issue=issue_ts, ready=ready_ts,
                                wire_start=wire_start, wire_end=wire_end,
                                fused=len(copies) if fused else 0,
                                **net_meta, **_prov_meta(proc))
        if rec is not None:
            rec.op_end(op, proc, idx)
        tools = self.tools
        if tools:
            tools.dispatch(DATA_OP, op="h2d", device=self.device_id,
                           bytes=cost.bytes, name=name, start=start,
                           end=self.sim.now, wire_start=wire_start,
                           wire_end=wire_end, time=self.sim.now)

    def _copy_d2h_batch(self, copies, name: str, fused: bool) -> Generator:
        if not copies:
            return
        self._check_fault("d2h", name)
        proc = self.sim.current_process
        rec = self.sim.recorder
        op = rec.op_begin(proc) if rec is not None else None
        nbytes = sum(src[sk].nbytes for src, sk, _d, _dk in copies)
        cost = self.cost_model.transfer(self.link_spec, nbytes)
        issue_ts = self.sim.now
        st = self._staging_time(cost.bytes)
        if fused and len(copies) > 1:
            # mirrored pipelining: the host drains staged pieces while the
            # DMA still streams; only the trailing piece stages afterwards
            tail = st / len(copies)
        else:
            tail = st
        rest = st - tail
        # Stream slot claimed at issue time (see _copy_h2d_batch).
        queue_req = self.queue.request(tag=name)
        queue_req.owner = op
        if cost.latency > 0:
            yield self.sim.timeout(cost.latency)
        # Wire: device queue + socket link; snapshot the device sections.
        ready_ts = self.sim.now
        yield queue_req
        start = self.sim.now
        try:
            link_req = self.link.request(tag=name)
            link_req.owner = op
            yield link_req
            wire_start = self.sim.now
            helper = None
            if rest > 0:
                def hold_staging() -> Generator:
                    req2 = self.staging.request(tag=f"{name}:pipeline")
                    yield req2
                    try:
                        yield self.sim.timeout(rest)
                    finally:
                        self.staging.release(req2)

                helper = self.sim.process(hold_staging())
            try:
                if cost.wire_time > 0:
                    yield self.sim.timeout(cost.wire_time)
            finally:
                wire_end = self.sim.now
                self.link.release(link_req)
            if helper is not None:
                yield helper
            snapshots = self._snapshot_sections(
                [(src, sk) for src, sk, _d, _dk in copies])
        finally:
            self.queue.release(queue_req)
        # Inter-node hop: the drained bytes travel this node's staging
        # buffer -> root host before the host-side commit.
        net_meta = {}
        if self.network is not None:
            net_start, net_end = yield from self._network_hop(name, op,
                                                              nbytes)
            net_meta = {"net_start": net_start, "net_end": net_end,
                        "node": self.node_id}
        # Stage the trailing piece back into host memory.
        staging_req = self.staging.request(tag=name)
        staging_req.owner = op
        yield staging_req
        try:
            if tail > 0:
                yield self.sim.timeout(tail)
            self._commit_sections(
                [(dst, dk) for _s, _sk, dst, dk in copies], snapshots)
        finally:
            self.staging.release(staging_req)
        self.memcpy_calls += 1
        self.d2h_bytes += cost.bytes
        # ``done`` > ``end`` for D2H: the trailing staging piece drains on
        # the host after the device queue slot is released.
        idx = self.trace.record(tr.D2H, name, lane=self.queue.name,
                                start=start, end=wire_end,
                                device=self.device_id, bytes=cost.bytes,
                                issue=issue_ts, ready=ready_ts,
                                wire_start=wire_start, wire_end=wire_end,
                                done=self.sim.now,
                                fused=len(copies) if fused else 0,
                                **net_meta, **_prov_meta(proc))
        if rec is not None:
            rec.op_end(op, proc, idx)
        tools = self.tools
        if tools:
            # end matches the trace record (wire_end): the tail staging
            # piece happens on the host side, off the device queue
            tools.dispatch(DATA_OP, op="d2h", device=self.device_id,
                           bytes=cost.bytes, name=name, start=start,
                           end=wire_end, wire_start=wire_start,
                           wire_end=wire_end, time=self.sim.now)

    # -- kernels ------------------------------------------------------------------

    def launch_kernel(self, spec: KernelSpec, lo: int, hi: int,
                      env: Mapping[str, Any],
                      launch: LaunchConfig = LaunchConfig(),
                      iterations: Optional[float] = None) -> Generator:
        """Run *spec* over global iterations ``[lo, hi)`` on this device.

        ``iterations`` overrides the cost-model iteration count when one
        loop iteration covers more work than a single index step; the
        functional body always receives the global bounds.
        """
        if hi < lo:
            raise ValueError(f"empty-negative kernel range [{lo}, {hi})")
        self._check_fault("kernel", spec.name)
        proc = self.sim.current_process
        rec = self.sim.recorder
        op = rec.op_begin(proc) if rec is not None else None
        issue_ts = self.sim.now
        iters = float(iterations) if iterations is not None else float(hi - lo)
        cost = self.cost_model.kernel(self.spec, iters,
                                      num_teams=launch.num_teams,
                                      threads_per_team=launch.threads_per_team,
                                      simd=launch.simd,
                                      work_per_iter=spec.work_per_iter)
        tools = self.tools
        if tools:
            tools.dispatch(KERNEL_LAUNCH, device=self.device_id,
                           name=spec.name, lo=lo, hi=hi, time=self.sim.now)
        # Host-side dispatch/marshalling happens before the kernel claims
        # its stream slot — a concurrently issued memcpy wins the race to
        # the queue (see DeviceSpec.kernel_issue_latency).
        if self.spec.kernel_issue_latency > 0:
            yield self.sim.timeout(self.spec.kernel_issue_latency)
        ready_ts = self.sim.now
        req = self.queue.request(tag=spec.name)
        req.owner = op
        yield req
        start = self.sim.now
        try:
            if cost.total > 0:
                yield self.sim.timeout(cost.total)
            spec.run(lo, hi, env)
        finally:
            self.queue.release(req)
        self.kernels_launched += 1
        idx = self.trace.record(tr.KERNEL, spec.name, lane=self.queue.name,
                                start=start, end=self.sim.now,
                                device=self.device_id,
                                lo=lo, hi=hi, iterations=cost.iterations,
                                issue=issue_ts, ready=ready_ts,
                                **_prov_meta(proc))
        if rec is not None:
            rec.op_end(op, proc, idx)
        tools = self.tools
        if tools:
            tools.dispatch(KERNEL_COMPLETE, device=self.device_id,
                           name=spec.name, start=start, end=self.sim.now,
                           time=self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Device {self.device_id} ({self.spec.name})>"
