"""Unit tests for cluster topologies, spec validation and machine specs."""

import pytest

from repro.openmp.options import resolve_topology
from repro.sim.costmodel import CostModel
from repro.sim.topology import (
    MACHINE_ENV,
    ClusterTopology,
    DeviceSpec,
    HostSpec,
    LinkSpec,
    NetworkLinkSpec,
    NodeTopology,
    cte_power_node,
    parse_machine_spec,
    uniform_cluster,
    uniform_node,
)
from repro.util.errors import OmpRuntimeError


class TestSpecValidation:
    """Satellite: degenerate inputs fail fast, naming the field."""

    def test_device_spec_zero_memory(self):
        with pytest.raises(ValueError, match="DeviceSpec.memory_bytes"):
            DeviceSpec(memory_bytes=0)

    def test_device_spec_negative_throughput(self):
        with pytest.raises(ValueError, match="DeviceSpec.iters_per_second"):
            DeviceSpec(iters_per_second=-1.0)

    def test_device_spec_negative_latency(self):
        with pytest.raises(ValueError,
                           match="DeviceSpec.kernel_issue_latency"):
            DeviceSpec(kernel_issue_latency=-1e-6)

    def test_link_spec_zero_bandwidth(self):
        with pytest.raises(ValueError,
                           match="LinkSpec.bandwidth_bytes_per_s"):
            LinkSpec(bandwidth_bytes_per_s=0)

    def test_host_spec_zero_staging(self):
        with pytest.raises(ValueError,
                           match="HostSpec.staging_bandwidth_bytes_per_s"):
            HostSpec(staging_bandwidth_bytes_per_s=0.0)

    def test_network_spec_zero_bandwidth(self):
        with pytest.raises(ValueError,
                           match="NetworkLinkSpec.bandwidth_bytes_per_s"):
            NetworkLinkSpec(bandwidth_bytes_per_s=0)

    def test_network_spec_negative_latency(self):
        with pytest.raises(ValueError,
                           match="NetworkLinkSpec.per_message_latency"):
            NetworkLinkSpec(per_message_latency=-1.0)

    def test_node_topology_no_devices(self):
        with pytest.raises(ValueError, match="device_specs"):
            NodeTopology(device_specs=[], link_specs=[],
                         host_spec=HostSpec(), sockets=[])

    def test_node_topology_empty_socket(self):
        spec = DeviceSpec()
        with pytest.raises(ValueError, match=r"sockets\[1\]"):
            NodeTopology(device_specs=[spec], link_specs=[LinkSpec(),
                                                          LinkSpec()],
                         host_spec=HostSpec(), sockets=[(0,), ()])

    def test_uniform_node_zero_devices(self):
        with pytest.raises(ValueError, match="at least one device"):
            uniform_node(0)

    def test_uniform_node_zero_per_socket(self):
        with pytest.raises(ValueError, match="devices_per_socket"):
            uniform_node(2, devices_per_socket=0)

    def test_valid_specs_still_construct(self):
        assert DeviceSpec().memory_bytes > 0
        assert NetworkLinkSpec().bandwidth_bytes_per_s > 0
        assert cte_power_node(4).num_devices == 4


class TestNodeAsDegenerateCluster:
    """A bare node answers the cluster queries as a one-node cluster."""

    def test_single_node_view(self):
        topo = cte_power_node(4)
        assert topo.num_nodes == 1
        assert topo.node_of(3) == 0
        assert topo.node_devices(0) == (0, 1, 2, 3)
        assert topo.host_spec_of(0) is topo.host_spec

    def test_out_of_range(self):
        topo = cte_power_node(2)
        with pytest.raises(ValueError):
            topo.node_of(2)
        with pytest.raises(ValueError):
            topo.node_devices(1)


class TestClusterTopology:
    def test_flattening(self):
        topo = uniform_cluster(3, 4, devices_per_socket=2)
        assert topo.num_nodes == 3
        assert topo.num_devices == 12
        assert topo.node_devices(0) == (0, 1, 2, 3)
        assert topo.node_devices(2) == (8, 9, 10, 11)
        assert topo.node_of(0) == 0 and topo.node_of(11) == 2
        # global socket ids: 2 sockets per node
        assert topo.socket_of(0) == 0
        assert topo.socket_of(5) == 2 or topo.socket_of(5) == 3
        assert topo.devices_on_socket(topo.socket_of(4)) == (4, 5)

    def test_link_names_carry_node(self):
        topo = uniform_cluster(2, 2, devices_per_socket=2)
        assert "node1:" in topo.link_of(2).name
        assert "node1:" not in topo.link_of(0).name

    def test_per_node_host_specs(self):
        topo = uniform_cluster(2, 2)
        assert topo.host_spec is topo.nodes[0].host_spec
        assert topo.host_spec_of(1) is topo.nodes[1].host_spec

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes=[])
        with pytest.raises(ValueError):
            uniform_cluster(0, 4)
        with pytest.raises(ValueError):
            uniform_cluster(2, 0)

    def test_unknown_device(self):
        topo = uniform_cluster(2, 2)
        with pytest.raises(ValueError):
            topo.node_of(99)
        with pytest.raises(ValueError):
            topo.node_devices(5)


class TestMachineSpec:
    def test_cluster_spec(self):
        topo = parse_machine_spec("cluster:4x2")
        assert topo.num_nodes == 4
        assert topo.num_devices == 8

    def test_cte_power_spec(self):
        assert parse_machine_spec("cte-power").num_devices == 4
        assert parse_machine_spec("cte-power:2").num_devices == 2

    def test_case_and_whitespace(self):
        assert parse_machine_spec(" CLUSTER:2x2 ").num_nodes == 2

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="cluster:NxM"):
            parse_machine_spec("rack:3")

    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)
        assert resolve_topology() == cte_power_node(4)

    def test_env_set(self, monkeypatch):
        monkeypatch.setenv(MACHINE_ENV, "cluster:2x3")
        topo = resolve_topology()
        assert topo.num_nodes == 2 and topo.num_devices == 6

    def test_env_junk(self, monkeypatch):
        monkeypatch.setenv(MACHINE_ENV, "nonsense")
        with pytest.raises(OmpRuntimeError, match=MACHINE_ENV):
            resolve_topology()


class TestNetworkTransferCost:
    def test_cost_components(self):
        cm = CostModel(scale=1.0)
        net = NetworkLinkSpec(bandwidth_bytes_per_s=1e9,
                              per_message_latency=2e-6)
        cost = cm.network_transfer(net, 1e6)
        assert cost.latency == pytest.approx(2e-6)
        assert cost.wire_time == pytest.approx(1e6 / 1e9)

    def test_scale_applies(self):
        small = CostModel(scale=1.0)
        big = CostModel(scale=8.0)
        net = NetworkLinkSpec()
        assert (big.network_transfer(net, 1000).wire_time
                == pytest.approx(
                    8 * small.network_transfer(net, 1000).wire_time))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CostModel().network_transfer(NetworkLinkSpec(), -1)
