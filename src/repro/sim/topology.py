"""Node topology: sockets, host links, and accelerator devices.

The reproduction targets the paper's testbed, a CTE-POWER node (POWER9, two
sockets, two NVIDIA V100-16GB per socket).  The performance-relevant facts we
model are:

* each device has its own copy engines and compute engine (so kernels on
  different devices run concurrently — the paper observed near-linear kernel
  speedup);
* all devices on the *same socket* share that socket's host link, and
  transfers on a shared link serialize (FIFO) — this is the communication
  bottleneck that caps the overall speedup at ~2X with 4 GPUs;
* host-side per-call overhead is paid for every memcpy the runtime issues
  (the paper counts 12 sequential CUDA memcpy calls per mapped chunk).

Beyond the single node, :class:`ClusterTopology` composes N nodes behind
the same flattened device-id interface, adding one inter-node network
link per non-root node (see docs/cluster.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util import envknobs

GB = 1e9

#: Environment variable naming the default machine (``cluster:NxM`` or
#: ``cte-power[:N]``); consulted wherever a topology would otherwise
#: default to the single paper node.
MACHINE_ENV = "REPRO_MACHINE"


def _require_positive(owner: str, name: str, value) -> None:
    if not value > 0:
        raise ValueError(f"{owner}.{name} must be > 0, got {value!r}")


def _require_non_negative(owner: str, name: str, value) -> None:
    if not value >= 0:
        raise ValueError(f"{owner}.{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one accelerator.

    ``flops_per_iter_throughput`` is expressed as loop iterations per second
    when the kernel saturates the device (all SMs busy); the kernel cost
    model derates it when fewer teams/threads are requested.
    """

    name: str = "V100"
    memory_bytes: float = 16 * GB
    num_sms: int = 80
    max_threads_per_sm: int = 2048
    simd_width: int = 32  # warp lanes
    iters_per_second: float = 6.0e10  # saturated simple-kernel throughput
    kernel_launch_latency: float = 8e-6
    #: Host-side time from "dependences satisfied" to the kernel being
    #: enqueued on the device stream.  Offloaded kernels go through task
    #: dispatch + argument marshalling in libomptarget (hundreds of us),
    #: far slower than issuing a memcpy — which is why, in the paper's
    #: traces, a buffer's kernels end up queued *behind* the next buffer's
    #: already-issued transfers (Fig. 4) instead of overlapping them.
    kernel_issue_latency: float = 3e-4
    #: cudaMalloc/cudaFree semantics: on real CUDA both can synchronize the
    #: whole device (drain its queue), which injects implicit barriers into
    #: any pipeline that maps/unmaps buffers while other work is queued —
    #: the effect that makes the paper's Two Buffers / Double Buffering
    #: variants *slower* than One Buffer despite their extra concurrency.
    alloc_sync: bool = True
    free_sync: bool = True
    alloc_latency: float = 1e-4
    free_latency: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("memory_bytes", "num_sms", "max_threads_per_sm",
                     "simd_width", "iters_per_second"):
            _require_positive("DeviceSpec", name, getattr(self, name))
        for name in ("kernel_launch_latency", "kernel_issue_latency",
                     "alloc_latency", "free_latency"):
            _require_non_negative("DeviceSpec", name, getattr(self, name))

    @property
    def max_parallelism(self) -> int:
        return self.num_sms * self.max_threads_per_sm


@dataclass(frozen=True)
class LinkSpec:
    """A host<->device link (shared per socket on the simulated node)."""

    name: str = "socket-link"
    bandwidth_bytes_per_s: float = 30e9
    per_call_latency: float = 12e-6

    def __post_init__(self) -> None:
        _require_positive("LinkSpec", "bandwidth_bytes_per_s",
                          self.bandwidth_bytes_per_s)
        _require_non_negative("LinkSpec", "per_call_latency",
                              self.per_call_latency)


@dataclass(frozen=True)
class HostSpec:
    """Host-side staging characteristics.

    Every transfer of pageable memory goes through a host staging copy
    (host DRAM <-> pinned buffer) before/after the DMA wire transfer.  The
    staging path is shared by *all* devices of the node — this is the
    aggregate communication bottleneck the paper observes when "transferring
    data to and from multiple GPUs" (Section VI-A): per-socket links stop
    being the limit once both sockets are active, and the host memory system
    caps the total.
    """

    name: str = "host-staging"
    staging_bandwidth_bytes_per_s: float = 28e9

    def __post_init__(self) -> None:
        _require_positive("HostSpec", "staging_bandwidth_bytes_per_s",
                          self.staging_bandwidth_bytes_per_s)


@dataclass(frozen=True)
class NetworkLinkSpec:
    """An inter-node network link (node <-> cluster interconnect).

    The defaults approximate a 100 Gb/s fabric (EDR InfiniBand class):
    ~12.5 GB/s of payload bandwidth and a microsecond-scale per-message
    latency.  Each non-root node owns one such link (full duplex is not
    modeled; the paper-style host-as-carrier halo exchange serializes on
    it, which is exactly the contention a cluster study needs to see).
    """

    name: str = "network-link"
    bandwidth_bytes_per_s: float = 12.5e9
    per_message_latency: float = 1.5e-6

    def __post_init__(self) -> None:
        _require_positive("NetworkLinkSpec", "bandwidth_bytes_per_s",
                          self.bandwidth_bytes_per_s)
        _require_non_negative("NetworkLinkSpec", "per_message_latency",
                              self.per_message_latency)


@dataclass
class NodeTopology:
    """Devices, their socket placement, and the per-socket host links.

    ``sockets[s]`` lists the device ids attached to socket *s*; each socket
    owns one :class:`LinkSpec`.  Device ids are dense ``0..num_devices-1``.
    """

    device_specs: List[DeviceSpec]
    sockets: List[List[int]]
    link_specs: List[LinkSpec]
    host_spec: HostSpec = HostSpec()
    host_name: str = "host"

    def __post_init__(self) -> None:
        if not self.device_specs:
            raise ValueError(
                "NodeTopology.device_specs must name at least one device")
        if not self.sockets:
            raise ValueError(
                "NodeTopology.sockets must name at least one socket")
        seen: Dict[int, int] = {}
        for s, devs in enumerate(self.sockets):
            if not devs:
                raise ValueError(
                    f"NodeTopology.sockets[{s}] has no devices")
            for d in devs:
                if d in seen:
                    raise ValueError(f"device {d} on two sockets")
                seen[d] = s
        if sorted(seen) != list(range(len(self.device_specs))):
            raise ValueError("sockets must cover device ids 0..n-1 exactly")
        if len(self.link_specs) != len(self.sockets):
            raise ValueError("one LinkSpec per socket required")
        self._socket_of = seen

    @property
    def num_devices(self) -> int:
        return len(self.device_specs)

    def socket_of(self, device_id: int) -> int:
        try:
            return self._socket_of[device_id]
        except KeyError:
            raise ValueError(f"unknown device id {device_id}")

    def link_of(self, device_id: int) -> LinkSpec:
        return self.link_specs[self.socket_of(device_id)]

    def devices_on_socket(self, socket: int) -> Sequence[int]:
        return tuple(self.sockets[socket])

    # -- single-node view of the cluster interface ---------------------------

    @property
    def num_nodes(self) -> int:
        return 1

    def node_of(self, device_id: int) -> int:
        self.socket_of(device_id)  # validates the id
        return 0

    def node_devices(self, node: int) -> Tuple[int, ...]:
        if node != 0:
            raise ValueError(f"unknown node id {node}")
        return tuple(range(self.num_devices))

    def host_spec_of(self, node: int) -> HostSpec:
        if node != 0:
            raise ValueError(f"unknown node id {node}")
        return self.host_spec


@dataclass
class ClusterTopology:
    """N :class:`NodeTopology` nodes behind one flat device-id space.

    Device ids are dense ``0..num_devices-1`` in node order: node 0 owns
    ``0..m0-1``, node 1 owns ``m0..m0+m1-1`` and so on.  The flattened
    ``device_specs`` / ``sockets`` / ``link_specs`` / ``socket_of`` /
    ``link_of`` views satisfy the :class:`NodeTopology` interface, so the
    runtime, cost model and analyzers work on a cluster unchanged.

    Cluster-specific structure on top of that:

    * ``node_of(d)`` / ``node_devices(n)`` map between the flat id space
      and the two-level one;
    * node 0 is the *root* node, where the host arrays live; transfers to
      or from any other node additionally traverse that node's inter-node
      network link (one :class:`NetworkLinkSpec`-shaped FIFO resource per
      non-root node, so network contention shows up natively in the
      calendar-queue engine and the critical-path analyzer);
    * each node keeps its own host staging buffer (``host_spec_of(n)``).
    """

    nodes: List[NodeTopology]
    network_spec: NetworkLinkSpec = field(default_factory=NetworkLinkSpec)
    host_name: str = "host"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError(
                "ClusterTopology.nodes must name at least one node")
        device_specs: List[DeviceSpec] = []
        link_specs: List[LinkSpec] = []
        sockets: List[List[int]] = []
        node_of: Dict[int, int] = {}
        node_devices: List[Tuple[int, ...]] = []
        socket_of: Dict[int, int] = {}
        base = 0
        for n, node in enumerate(self.nodes):
            ids = tuple(range(base, base + node.num_devices))
            node_devices.append(ids)
            socket_base = len(sockets)
            for local, dev in enumerate(ids):
                node_of[dev] = n
                socket_of[dev] = socket_base + node.socket_of(local)
            for devs in node.sockets:
                sockets.append([base + d for d in devs])
            link_specs.extend(replace(spec, name=f"node{n}:{spec.name}")
                              for spec in node.link_specs)
            device_specs.extend(node.device_specs)
            base += node.num_devices
        self.device_specs = device_specs
        self.link_specs = link_specs
        self.sockets = sockets
        self._node_of = node_of
        self._node_devices = node_devices
        self._socket_of = socket_of

    @property
    def num_devices(self) -> int:
        return len(self.device_specs)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def host_spec(self) -> HostSpec:
        """Root-node staging spec (the flat single-node view)."""
        return self.nodes[0].host_spec

    def socket_of(self, device_id: int) -> int:
        try:
            return self._socket_of[device_id]
        except KeyError:
            raise ValueError(f"unknown device id {device_id}")

    def link_of(self, device_id: int) -> LinkSpec:
        return self.link_specs[self.socket_of(device_id)]

    def devices_on_socket(self, socket: int) -> Sequence[int]:
        return tuple(self.sockets[socket])

    def node_of(self, device_id: int) -> int:
        try:
            return self._node_of[device_id]
        except KeyError:
            raise ValueError(f"unknown device id {device_id}")

    def node_devices(self, node: int) -> Tuple[int, ...]:
        try:
            return self._node_devices[node]
        except IndexError:
            raise ValueError(f"unknown node id {node}")

    def host_spec_of(self, node: int) -> HostSpec:
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"unknown node id {node}")
        return self.nodes[node].host_spec


def cte_power_node(num_devices: int = 4,
                   memory_bytes: float = 16 * GB,
                   link_bandwidth: float = 19.4e9,
                   staging_bandwidth: float = 27.8e9,
                   per_call_latency: float = 12e-6,
                   iters_per_second: float = 6.0e10) -> NodeTopology:
    """A CTE-POWER-like node: two sockets, two V100s per socket.

    Devices 0 and 1 sit on socket 0; devices 2 and 3 on socket 1, matching
    the usual POWER9 AC922 wiring.  ``num_devices`` may be 1..4 (the paper
    evaluates 1, 2 and 4 GPUs).  The default bandwidths are the calibration
    derived from the paper's Table I (see DESIGN.md §4): an effective
    per-socket pageable-transfer rate of ~19.4 GB/s and a host staging
    aggregate of ~1.43x that.
    """
    if not 1 <= num_devices <= 4:
        raise ValueError("cte_power_node supports 1..4 devices")
    spec = DeviceSpec(memory_bytes=memory_bytes,
                      iters_per_second=iters_per_second)
    placement = [[d for d in range(num_devices) if d < 2],
                 [d for d in range(num_devices) if d >= 2]]
    sockets = [s for s in placement if s]
    links = [LinkSpec(name=f"socket{i}-link",
                      bandwidth_bytes_per_s=link_bandwidth,
                      per_call_latency=per_call_latency)
             for i in range(len(sockets))]
    return NodeTopology(device_specs=[spec] * num_devices,
                        sockets=sockets,
                        link_specs=links,
                        host_spec=HostSpec(
                            staging_bandwidth_bytes_per_s=staging_bandwidth))


def uniform_node(num_devices: int,
                 devices_per_socket: int = 1,
                 memory_bytes: float = 16 * GB,
                 link_bandwidth: float = 30e9,
                 staging_bandwidth: float = 1e12,
                 per_call_latency: float = 12e-6,
                 iters_per_second: float = 6.0e10,
                 device_specs: Sequence[DeviceSpec] | None = None) -> NodeTopology:
    """A generic node for tests: *num_devices* spread over sockets of
    *devices_per_socket* each (last socket may be partial).

    ``device_specs`` may override the per-device specs, e.g. to create an
    imbalanced node for the dynamic-schedule ablation.
    """
    if num_devices < 1:
        raise ValueError("need at least one device")
    if devices_per_socket < 1:
        raise ValueError("devices_per_socket must be >= 1")
    if device_specs is None:
        specs = [DeviceSpec(memory_bytes=memory_bytes,
                            iters_per_second=iters_per_second)
                 for _ in range(num_devices)]
    else:
        specs = list(device_specs)
        if len(specs) != num_devices:
            raise ValueError("device_specs length mismatch")
    sockets: List[List[int]] = []
    for d in range(num_devices):
        if d % devices_per_socket == 0:
            sockets.append([])
        sockets[-1].append(d)
    links = [LinkSpec(name=f"socket{i}-link",
                      bandwidth_bytes_per_s=link_bandwidth,
                      per_call_latency=per_call_latency)
             for i in range(len(sockets))]
    return NodeTopology(device_specs=specs, sockets=sockets,
                        link_specs=links,
                        host_spec=HostSpec(
                            staging_bandwidth_bytes_per_s=staging_bandwidth))


def uniform_cluster(num_nodes: int,
                    devices_per_node: int,
                    devices_per_socket: int = 2,
                    network: Optional[NetworkLinkSpec] = None,
                    **node_kwargs) -> ClusterTopology:
    """A cluster of *num_nodes* identical :func:`uniform_node` nodes.

    Extra keyword arguments are forwarded to :func:`uniform_node`, so the
    same bandwidth/latency calibration knobs apply per node.
    """
    if num_nodes < 1:
        raise ValueError("uniform_cluster.num_nodes must be >= 1")
    if devices_per_node < 1:
        raise ValueError("uniform_cluster.devices_per_node must be >= 1")
    per_socket = min(devices_per_socket, devices_per_node)
    nodes = [uniform_node(devices_per_node, per_socket, **node_kwargs)
             for _ in range(num_nodes)]
    return ClusterTopology(nodes=nodes,
                           network_spec=network or NetworkLinkSpec())


_CLUSTER_RE = re.compile(r"cluster:(\d+)x(\d+)", re.IGNORECASE)
_CTE_RE = re.compile(r"cte-power(?::(\d+))?", re.IGNORECASE)
_GPUS_RE = re.compile(r"gpus:(\d+)", re.IGNORECASE)


def parse_machine_spec(spec: str, **cluster_kwargs):
    """Parse a ``--machine`` / ``REPRO_MACHINE`` spec into a topology.

    Grammar (case-insensitive):

    * ``cluster:NxM`` — N nodes of M GPUs each (:func:`uniform_cluster`);
    * ``cte-power`` / ``cte-power:N`` — the paper's single node with N
      (default 4) GPUs (:func:`cte_power_node`);
    * ``gpus:N`` — a generic single node with N GPUs (N may exceed the
      4-GPU CTE-POWER layout; :func:`uniform_node` with CTE-POWER-like
      per-socket wiring).
    """
    text = str(spec).strip()
    m = _CLUSTER_RE.fullmatch(text)
    if m:
        num_nodes, per_node = int(m.group(1)), int(m.group(2))
        if num_nodes < 1 or per_node < 1:
            raise ValueError(
                f"machine spec {spec!r}: cluster:NxM needs N >= 1, M >= 1")
        return uniform_cluster(num_nodes, per_node, **cluster_kwargs)
    m = _CTE_RE.fullmatch(text)
    if m:
        return cte_power_node(int(m.group(1)) if m.group(1) else 4)
    m = _GPUS_RE.fullmatch(text)
    if m:
        num = int(m.group(1))
        if num < 1:
            raise ValueError(f"machine spec {spec!r}: gpus:N needs N >= 1")
        if num <= 4:
            return cte_power_node(num)
        return uniform_node(num, devices_per_socket=2)
    raise ValueError(
        f"machine spec {spec!r}: expected 'cluster:NxM', 'cte-power[:N]' "
        "or 'gpus:N'")


def machine_env_spec() -> Optional[str]:
    """The :data:`MACHINE_ENV` spec, or ``None`` when unset or empty: the
    one reader of the variable (see
    :func:`repro.openmp.options.resolve_topology`)."""
    return envknobs.env_raw(MACHINE_ENV)
