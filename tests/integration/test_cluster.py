"""Cluster-scale integration: Somier end-to-end on simulated multi-node
machines.

The contract mirrors the single-node determinism suite: on a cluster
topology the run must stay bit-identical with the sanitizer / causal
analyzer / fused-timeline toggles flipped,
halo traffic for devices on non-root nodes must actually cross the
modeled network links, and a lost *node* must degrade gracefully — the
survivors finish the run with results identical to the fault-free one,
deterministically for a given spec + seed.
"""

import numpy as np
import pytest

from repro.bench.machines import machine_for_spec, paper_somier_config
from repro.sim.topology import MACHINE_ENV, uniform_cluster
from repro.somier import SomierConfig, run_somier
from tests.conftest import CallbackLog

CFG = SomierConfig(n=18, steps=3)


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """CI legs export REPRO_MACHINE / REPRO_FAULTS; the scenarios here
    build their own topologies and specs, so none may leak in."""
    for var in (MACHINE_ENV, "REPRO_FAULTS", "REPRO_FAULT_SEED"):
        monkeypatch.delenv(var, raising=False)


def topo(nodes=4, per_node=4):
    return uniform_cluster(nodes, per_node, memory_bytes=1e9)


def run(**kw):
    kw.setdefault("topology", topo())
    return run_somier("one_buffer", CFG, **kw)


def assert_bit_identical(a, b):
    for name in a.state.grids:
        assert np.array_equal(a.state.grids[name], b.state.grids[name]), name
    assert np.array_equal(a.centers, b.centers)
    assert a.elapsed == b.elapsed
    assert a.runtime.trace.events == b.runtime.trace.events


class TestClusterEndToEnd:
    def test_matches_sequential_reference(self):
        res = run()
        from repro.somier import SomierState, run_reference

        ref = SomierState(CFG)
        run_reference(ref, res.plan.buffers)
        for name in ref.grids:
            assert np.array_equal(res.state.grids[name], ref.grids[name])

    def test_halo_crosses_network_links(self):
        res = run()
        rt = res.runtime
        # root node devices stage directly; every other node's traffic
        # must traverse that node's network resource
        assert rt.networks[0] is None
        for node in range(1, rt.num_nodes):
            net = rt.networks[node]
            assert net is not None and net.grant_count > 0
        for d in res.devices:
            dev = rt.devices[d]
            if dev.node_id == 0:
                assert dev.net_bytes == 0
            else:
                assert dev.net_bytes > 0

    def test_network_contention_slows_the_run(self):
        # same devices, same per-node calibration: the flat single-node
        # machine beats the cluster because inter-node halo/copy traffic
        # pays the fabric
        cluster = run(topology=topo(4, 1))
        flat = run(topology=uniform_cluster(1, 4, memory_bytes=1e9))
        assert cluster.elapsed > flat.elapsed

    def test_hierarchical_distribution_used(self):
        res = run()
        # 16 devices, 4 nodes: every device computes (hierarchical split
        # dealt each node's share across that node's GPUs)
        assert all(res.runtime.devices[d].kernels_launched > 0
                   for d in res.devices)


#: ``engine_fused_segments`` of one_buffer (n=48, 2 steps) per paper
#: cluster shape, with every copy on a networked device walking.  Were
#: those copies to fall back to generator processes, the counts would read
#: 1,440, 1,140 and 840.
NETWORKED_FUSED = {"cluster:2x2": 3040, "cluster:16x4": 9740,
                   "cluster:64x4": 9840}


def run_paper_cluster(spec, tools=()):
    topology, cost_model = machine_for_spec(spec, n_functional=48)
    return run_somier("one_buffer",
                      paper_somier_config(n_functional=48, steps=2),
                      topology=topology, cost_model=cost_model, tools=tools)


def events_in_key_order(res):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             list(e.meta.items())) for e in res.runtime.trace.events]


class TestClusterBitIdentity:
    @pytest.mark.parametrize("spec", list(NETWORKED_FUSED))
    @pytest.mark.usefixtures("plain_env")
    def test_networked_copies_walk(self, spec):
        """Copies behind a network link run on the copy walkers and match
        the generator path (a registered tool keeps every copy on generator
        sub-processes): every trace event with its meta in key order, each
        device's ``net_bytes`` and each network's grant count."""
        walk = run_paper_cluster(spec)
        gen = run_paper_cluster(spec, tools=(CallbackLog(),))
        assert walk.stats["engine_fused_segments"] == NETWORKED_FUSED[spec]
        assert gen.stats["engine_fused_segments"] == 0
        assert walk.elapsed == gen.elapsed
        assert np.array_equal(walk.centers, gen.centers)
        assert events_in_key_order(walk) == events_in_key_order(gen)
        rt_w, rt_g = walk.runtime, gen.runtime
        net_bytes = [dev.net_bytes for dev in rt_w.devices]
        assert net_bytes == [dev.net_bytes for dev in rt_g.devices]
        assert any(net_bytes)
        grants = [net.grant_count for net in rt_w.networks
                  if net is not None]
        assert grants == [net.grant_count for net in rt_g.networks
                          if net is not None]
        assert any(grants)
        hops = [list(e.meta) for e in rt_w.trace.events
                if "net_start" in e.meta]
        assert hops
        for keys in hops:
            at = keys.index("net_start")
            assert keys[at - 1:at + 3] == ["fused", "net_start", "net_end",
                                           "node"]

    def test_sanitizer_transparent_and_clean(self):
        base = run()
        sanitized = run(sanitize=True)
        assert_bit_identical(base, sanitized)
        assert sanitized.runtime.sanitizer.races == 0

    def test_analyzer_transparent(self):
        base = run()
        analyzed = run(analyze=True)
        assert_bit_identical(base, analyzed)
        analysis = analyzed.runtime.analysis()
        assert analysis.headline() is not None

    def test_replay_paths_transparent(self):
        base = run()
        # a registered tool replays cache hits through the object path
        assert_bit_identical(base, run(tools=(CallbackLog(),)))
        assert_bit_identical(base, run(plan_cache=False))


class TestNodeLoss:
    SPEC = "node@2:#4"

    def test_survivors_finish_with_identical_results(self):
        clean = run()
        lossy = run(faults=self.SPEC, fault_seed=7)
        rt = lossy.runtime
        assert sorted(rt.lost_nodes) == [2]
        assert sorted(rt.lost_devices) == [8, 9, 10, 11]
        assert lossy.stats["fault_failovers"] > 0
        for name in clean.state.grids:
            assert np.array_equal(clean.state.grids[name],
                                  lossy.state.grids[name])
        assert np.array_equal(clean.centers, lossy.centers)

    def test_deterministic_across_runs(self):
        a = run(faults=self.SPEC, fault_seed=7)
        b = run(faults=self.SPEC, fault_seed=7)
        assert_bit_identical(a, b)

    def test_loss_invalidates_node_plans(self):
        lossy = run(faults=self.SPEC, fault_seed=7)
        cache = lossy.runtime.plan_cache
        assert cache.invalidations > 0
        for cell in cache._plans.values():
            assert cell[0] is not None  # no poisoned cells left behind

    def test_rate_based_node_faults_are_seeded(self):
        a = run(faults="node:0.002", fault_seed=3)
        b = run(faults="node:0.002", fault_seed=3)
        assert sorted(a.runtime.lost_nodes) == sorted(b.runtime.lost_nodes)
        assert_bit_identical(a, b)

    def test_losing_root_node_is_fatal_for_its_devices(self):
        # node 0 hosts the arrays; its devices failing over still must
        # keep results correct when *another* node carries the work
        clean = run(topology=topo(2, 2))
        lossy = run(topology=topo(2, 2), faults="node@1:#2", fault_seed=1)
        assert sorted(lossy.runtime.lost_nodes) == [1]
        assert np.array_equal(clean.centers, lossy.centers)


class TestMachineEnvIntegration:
    def test_run_somier_honours_repro_machine(self, monkeypatch):
        monkeypatch.setenv(MACHINE_ENV, "cluster:2x2")
        res = run_somier("one_buffer", CFG)
        rt = res.runtime
        assert rt.num_nodes == 2
        assert rt.num_devices == 4
        assert rt.networks[1] is not None

    def test_env_junk_is_a_runtime_error(self, monkeypatch):
        from repro.util.errors import OmpRuntimeError

        monkeypatch.setenv(MACHINE_ENV, "bogus")
        with pytest.raises(OmpRuntimeError):
            run_somier("one_buffer", CFG)

    def test_cli_machine_flag(self, capsys):
        from repro.cli import main

        rc = main(["somier", "--machine", "cluster:2x2", "--steps", "1",
                   "--n-functional", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 device(s)" in out

    def test_cli_machine_describe(self, capsys):
        from repro.cli import main

        assert main(["machine", "--machine", "cluster:2x4"]) == 0
        out = capsys.readouterr().out
        assert "cluster of 2 node(s)" in out
        assert "network" in out

    def test_cli_bad_machine_spec(self, capsys):
        from repro.cli import main

        assert main(["somier", "--machine", "rack:9"]) == 1
        assert "machine spec" in capsys.readouterr().err
