"""Cost model: how long transfers and kernels take on the simulated node.

The model is deliberately mechanistic rather than curve-fitted: the same
three ingredients the paper identifies as performance-relevant are charged
explicitly —

* **per-call latency** on every memcpy the runtime issues (the paper notes
  12 sequential CUDA memcpy calls per mapped chunk: 4 variables × 3 grids);
* **bytes / link-bandwidth** occupancy on the socket's shared host link;
* **kernel time** derived from iteration count and the intra-device
  parallelism actually requested (teams × threads, SIMD), saturating at the
  device's peak.

``scale`` decouples functional array sizes from accounted sizes: the Somier
benchmark runs a 192³ grid but charges costs as if it were the paper's 1200³
(scale = (1200/192)³), so buffer/chunk ratios, virtual capacities and the
virtual clock all match the paper's regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.sim.topology import DeviceSpec, LinkSpec, NetworkLinkSpec


class TransferCost(NamedTuple):
    """Breakdown of one host<->device memcpy.

    A NamedTuple rather than a dataclass: one is built per memcpy section,
    which puts construction cost on the simulator's hot path.
    """

    bytes: float
    latency: float
    wire_time: float

    @property
    def total(self) -> float:
        return self.latency + self.wire_time


class KernelCost(NamedTuple):
    """Breakdown of one kernel launch on one device."""

    iterations: float
    launch_latency: float
    compute_time: float

    @property
    def total(self) -> float:
        return self.launch_latency + self.compute_time


@dataclass
class CostModel:
    """Charges virtual time for device operations.

    ``scale`` multiplies both byte counts and iteration counts so that a
    small functional problem stands in for the paper's full-size one.
    ``work_per_iter`` expresses the kernel's arithmetic intensity relative
    to the simple-kernel throughput baseline of :class:`DeviceSpec` (the
    Somier forces stencil passes ~3, the pointwise kernels ~1).
    """

    scale: float = 1.0
    host_task_overhead: float = 2e-6

    # -- transfers -----------------------------------------------------------

    def transfer(self, link: LinkSpec, nbytes: float) -> TransferCost:
        """Cost of one memcpy of *nbytes* functional bytes over *link*."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        virtual = nbytes * self.scale
        wire = virtual / link.bandwidth_bytes_per_s
        return TransferCost(bytes=virtual,
                            latency=link.per_call_latency,
                            wire_time=wire)

    def network_transfer(self, link: NetworkLinkSpec,
                         nbytes: float) -> TransferCost:
        """Cost of one inter-node message of *nbytes* functional bytes.

        Shares the :class:`TransferCost` shape with :meth:`transfer` so
        the engine charges the hop the same way (latency, then wire time
        while the node's network resource is held).
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        virtual = nbytes * self.scale
        wire = virtual / link.bandwidth_bytes_per_s
        return TransferCost(bytes=virtual,
                            latency=link.per_message_latency,
                            wire_time=wire)

    def virtual_bytes(self, nbytes: float) -> float:
        """Functional byte count -> accounted (virtual) byte count."""
        return nbytes * self.scale

    # -- kernels --------------------------------------------------------------

    def kernel(self, device: DeviceSpec, iterations: float,
               num_teams: int | None = None,
               threads_per_team: int | None = None,
               simd: bool = True,
               work_per_iter: float = 1.0) -> KernelCost:
        """Cost of a kernel covering *iterations* loop iterations.

        The effective parallelism is ``teams × threads`` (each default to
        saturating the device), multiplied by the SIMD width when ``simd``
        holds, and capped at the device's maximum concurrency.  Throughput
        scales linearly with effective parallelism below saturation — this
        is what gives the paper's "near to linear" kernel speedup when the
        same total work is split over more devices.
        """
        if iterations < 0:
            raise ValueError("negative iteration count")
        virtual_iters = iterations * self.scale
        max_par = device.max_parallelism
        if num_teams is None and threads_per_team is None:
            parallelism = max_par
        else:
            teams = num_teams if num_teams is not None else device.num_sms
            threads = (threads_per_team if threads_per_team is not None
                       else device.max_threads_per_sm)
            parallelism = min(teams * threads, max_par)
        if not simd:
            parallelism = max(1, parallelism // device.simd_width)
        parallelism = max(1, parallelism)
        saturation = parallelism / max_par
        throughput = device.iters_per_second * min(1.0, saturation)
        compute = virtual_iters * work_per_iter / throughput
        return KernelCost(iterations=virtual_iters,
                          launch_latency=device.kernel_launch_latency,
                          compute_time=compute)
