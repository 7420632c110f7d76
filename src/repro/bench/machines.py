"""The calibrated CTE-POWER machine and the paper's workload constants.

Calibration (DESIGN.md §4): the only three fitted constants are

* the effective per-socket pageable-transfer bandwidth (19.4 GB/s),
* the aggregate host staging bandwidth (27.8 GB/s ~ 1.43x one socket),
* the device kernel throughput (1.01e9 work units/s, with the Somier
  kernels' work weights).

They are derived from the paper's Table I (17m40s / 13m15s / 8m22s for
1/2/4 GPUs with the One Buffer strategy) through the mechanistic model: a
run's time is (wire time per socket, serialized) + (kernel time / devices),
with the host staging path capping aggregate transfer throughput once both
sockets are active.  Everything else (buffer counts, chunk sizes, memcpy
counts, barrier structure) follows from the directives themselves.

The functional grid is scaled down (default 96 instead of 1200) with the
cost model's ``scale`` making virtual byte/iteration accounting match the
full-size problem — buffer planning against the real 16 GB V100 capacity
included.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from repro.sim.costmodel import CostModel
from repro.sim.topology import (
    ClusterTopology,
    NetworkLinkSpec,
    NodeTopology,
    cte_power_node,
    uniform_cluster,
    uniform_node,
)
from repro.somier.config import SomierConfig

#: the paper's grid resolution and step count
PAPER_N = 1200
PAPER_STEPS = 31

#: the device order used in the paper's listings (devices(1,0,3,...))
PAPER_DEVICE_ORDER = [1, 0, 3, 2]

#: calibrated constants (fitted to Table I at n_functional=96; see DESIGN.md)
LINK_BANDWIDTH = 20.6e9
STAGING_BANDWIDTH = 32.8e9
ITERS_PER_SECOND = 1.0e9
PER_CALL_LATENCY = 12e-6

#: inter-node fabric for the cluster machine: EDR-InfiniBand-class figures
#: (100 Gb/s effective, ~1.5 us per message) — not calibrated against the
#: paper (which is single-node), just a plausible fabric for the what-if.
NETWORK_BANDWIDTH = 12.5e9
NETWORK_LATENCY = 1.5e-6

#: Table I of the paper, in seconds ("(B)" = baseline).
PAPER_TABLE1 = {
    ("target", 1): 17 * 60 + 40.231,
    ("one_buffer", 1): 17 * 60 + 38.932,
    ("one_buffer", 2): 13 * 60 + 15.486,
    ("one_buffer", 4): 8 * 60 + 22.019,
}

#: Table II of the paper, in seconds.
PAPER_TABLE2 = {
    ("one_buffer", 2): 13 * 60 + 15.486,
    ("one_buffer", 4): 8 * 60 + 22.019,
    ("two_buffers", 2): 14 * 60 + 29.599,
    ("two_buffers", 4): 8 * 60 + 26.674,
    ("double_buffering", 2): 14 * 60 + 4.230,
    ("double_buffering", 4): 8 * 60 + 51.176,
}


def _cost_model(n_functional: int) -> CostModel:
    """The cost model scaling a functional grid of ``n_functional`` up to
    the paper's 1200."""
    if n_functional < 1:
        raise ValueError(f"n_functional must be >= 1, got {n_functional}")
    return CostModel(scale=(PAPER_N / n_functional) ** 3)


def paper_machine(num_devices: int = 4,
                  n_functional: int = 96) -> Tuple[NodeTopology, CostModel]:
    """The calibrated CTE-POWER node + cost model for a functional grid of
    ``n_functional`` standing in for the paper's 1200."""
    topo = cte_power_node(num_devices,
                          link_bandwidth=LINK_BANDWIDTH,
                          staging_bandwidth=STAGING_BANDWIDTH,
                          per_call_latency=PER_CALL_LATENCY,
                          iters_per_second=ITERS_PER_SECOND)
    return topo, _cost_model(n_functional)


def paper_cluster_machine(num_nodes: int, devices_per_node: int,
                          n_functional: int = 96
                          ) -> Tuple[ClusterTopology, CostModel]:
    """``num_nodes`` CTE-POWER-calibrated nodes behind an InfiniBand-class
    fabric — the cluster-scale what-if built from the paper's machine.

    Each node reuses the Table-I calibration of :func:`paper_machine`;
    the inter-node network (:data:`NETWORK_BANDWIDTH`,
    :data:`NETWORK_LATENCY`) is an assumption, not a fit.
    """
    network = NetworkLinkSpec(bandwidth_bytes_per_s=NETWORK_BANDWIDTH,
                              per_message_latency=NETWORK_LATENCY)
    topo = uniform_cluster(num_nodes, devices_per_node,
                           network=network,
                           link_bandwidth=LINK_BANDWIDTH,
                           staging_bandwidth=STAGING_BANDWIDTH,
                           per_call_latency=PER_CALL_LATENCY,
                           iters_per_second=ITERS_PER_SECOND)
    return topo, _cost_model(n_functional)


def machine_for_spec(spec: str, n_functional: int = 96
                     ) -> Tuple[Union[NodeTopology, ClusterTopology],
                                CostModel]:
    """Calibrated (topology, cost model) for a ``--machine`` spec.

    Same grammar as :func:`repro.sim.topology.parse_machine_spec`
    (``cluster:NxM`` / ``cte-power[:N]``) but built from the Table-I
    calibration instead of the generic test defaults.
    """
    text = spec.strip()
    m = re.fullmatch(r"cluster:(\d+)x(\d+)", text, re.IGNORECASE)
    if m:
        return paper_cluster_machine(int(m.group(1)), int(m.group(2)),
                                     n_functional=n_functional)
    m = re.fullmatch(r"cte-power(?::(\d+))?", text, re.IGNORECASE)
    if m:
        return paper_machine(int(m.group(1)) if m.group(1) else 4,
                             n_functional=n_functional)
    m = re.fullmatch(r"gpus:(\d+)", text, re.IGNORECASE)
    if m:
        num = int(m.group(1))
        if 1 <= num <= 4:
            return paper_machine(num, n_functional=n_functional)
        topo = uniform_node(num, devices_per_socket=2,
                            link_bandwidth=LINK_BANDWIDTH,
                            staging_bandwidth=STAGING_BANDWIDTH,
                            per_call_latency=PER_CALL_LATENCY,
                            iters_per_second=ITERS_PER_SECOND)
        return topo, _cost_model(n_functional)
    raise ValueError(
        f"unknown machine spec {spec!r} "
        "(expected 'cluster:NxM', 'cte-power[:N]' or 'gpus:N')")


def paper_somier_config(n_functional: int = 96,
                        steps: int = PAPER_STEPS) -> SomierConfig:
    """The Somier workload at reduced functional resolution."""
    return SomierConfig(n=n_functional, steps=steps)


def paper_devices(num_devices: int) -> List[int]:
    """The first *num_devices* entries of the paper's device order, kept to
    valid ids for smaller nodes."""
    return [d for d in PAPER_DEVICE_ORDER if d < num_devices]
