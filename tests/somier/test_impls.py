"""Integration tests: every Somier implementation against the reference.

These are the core functional-correctness claims of the reproduction:

* the ``target`` baseline and the One Buffer spread implementation are
  **bit-for-bit** equal to the sequential buffered reference, on any device
  count;
* Two Buffers / Double Buffering match bit-for-bit once the §IX
  ``data_depend`` extension orders the cross-half halo traffic; without it
  they race exactly as the paper's version does (tiny boundary deviations);
* the memcpy accounting matches the paper's "12 calls per mapped chunk".
"""

import numpy as np
import pytest

from repro.sim.topology import cte_power_node
from repro.somier import (
    SomierConfig,
    SomierState,
    run_reference,
    run_somier,
)
from repro.util.errors import OmpSemaError

CFG = SomierConfig(n=18, steps=3)


def topo(n_dev=4, rows=4):
    # memory for about `rows` rows per chunk (plus halo slack)
    from repro.somier.plan import chunk_footprint_bytes
    cap = chunk_footprint_bytes(CFG, rows) / 0.8
    return cte_power_node(n_dev, memory_bytes=cap)


def grids_equal(state_a, state_b):
    return all(np.array_equal(state_a.grids[name], state_b.grids[name])
               for name in state_a.grids)


class TestBaseline:
    def test_target_matches_reference_bitwise(self):
        res = run_somier("target", CFG, devices=[0], topology=topo(1))
        ref = SomierState(CFG)
        run_reference(ref, res.plan.buffers)
        assert grids_equal(res.state, ref)
        assert np.array_equal(res.centers, np.array(ref.centers))

    def test_target_requires_single_device(self):
        with pytest.raises(OmpSemaError, match="one device"):
            run_somier("target", CFG, devices=[0, 1], topology=topo(2))

    def test_memcpy_count_matches_paper_granularity(self):
        res = run_somier("target", CFG, devices=[0], topology=topo(1))
        per_buffer_enter = 12  # 4 variables x 3 grids
        per_buffer_exit = 13   # + the partials row buffer
        expected = CFG.steps * res.plan.num_buffers * (per_buffer_enter +
                                                       per_buffer_exit)
        assert res.stats["memcpy_calls"] == expected

    def test_kernel_count(self):
        res = run_somier("target", CFG, devices=[0], topology=topo(1))
        assert res.stats["kernels_launched"] == \
            CFG.steps * res.plan.num_buffers * 5


class TestOneBuffer:
    @pytest.mark.parametrize("devices", [[0], [1, 0], [1, 0, 3, 2]])
    def test_matches_reference_bitwise(self, devices):
        res = run_somier("one_buffer", CFG, devices=devices, topology=topo(4))
        ref = SomierState(CFG)
        run_reference(ref, res.plan.buffers)
        assert grids_equal(res.state, ref)
        assert np.array_equal(res.centers, np.array(ref.centers))

    def test_one_gpu_equivalent_to_baseline_result(self):
        spread = run_somier("one_buffer", CFG, devices=[0], topology=topo(1))
        base = run_somier("target", CFG, devices=[0], topology=topo(1))
        assert grids_equal(spread.state, base.state)

    def test_data_env_empty_after_run(self):
        res = run_somier("one_buffer", CFG, devices=[0, 1], topology=topo(4))
        for env in res.runtime.dataenvs:
            assert env.is_empty()
        for dev in res.runtime.devices:
            assert dev.allocator.live_allocations == 0

    def test_data_depend_mode_bitwise_and_no_barriers(self):
        res = run_somier("one_buffer", CFG, devices=[0, 1, 2, 3],
                         topology=topo(4), data_depend=True)
        ref = SomierState(CFG)
        run_reference(ref, res.plan.buffers)
        assert grids_equal(res.state, ref)


class TestHalfBufferImpls:
    # half-buffer chunks must keep a >= 2-row gap between a device's
    # consecutive chunks (position halos), so give memory for 8-row chunks
    @pytest.mark.parametrize("impl", ["two_buffers", "double_buffering"])
    def test_close_to_reference_without_data_depend(self, impl):
        res = run_somier(impl, CFG, devices=[0, 1, 2, 3],
                         topology=topo(4, rows=8))
        ref = SomierState(CFG)
        run_reference(ref, res.plan.halves())
        dev = max(np.abs(res.state.grids[n] - ref.grids[n]).max()
                  for n in ref.grids)
        # cross-half halo races shift a few boundary rows by O(dt^2 * k)
        assert dev < 1e-5

    @pytest.mark.parametrize("impl", ["two_buffers", "double_buffering"])
    def test_bitwise_with_data_depend(self, impl):
        res = run_somier(impl, CFG, devices=[0, 1, 2, 3],
                         topology=topo(4, rows=8), data_depend=True)
        ref = SomierState(CFG)
        run_reference(ref, res.plan.halves())
        assert grids_equal(res.state, ref)

    @pytest.mark.parametrize("impl", ["two_buffers", "double_buffering"])
    def test_clean_teardown(self, impl):
        res = run_somier(impl, CFG, devices=[0, 1],
                         topology=topo(4, rows=8))
        for env in res.runtime.dataenvs:
            assert env.is_empty()


class TestDriver:
    def test_unknown_impl_rejected(self):
        from repro.util.errors import OmpRuntimeError
        with pytest.raises(OmpRuntimeError, match="unknown"):
            run_somier("triple_buffers", CFG, topology=topo(1))

    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_unknown_device_id_rejected_by_name(self, bad):
        from repro.util.errors import OmpRuntimeError
        with pytest.raises(OmpRuntimeError,
                           match=rf"devices: device id {bad} out of range "
                                 r"\(the machine has 4 devices\)"):
            run_somier("one_buffer", CFG, devices=[0, bad],
                       topology=topo(4))

    def test_empty_device_list_rejected_by_name(self):
        from repro.util.errors import OmpRuntimeError
        with pytest.raises(OmpRuntimeError, match="devices: the device "
                                                  "list is empty"):
            run_somier("one_buffer", CFG, devices=[], topology=topo(4))

    def test_stats_populated(self):
        res = run_somier("one_buffer", CFG, devices=[0, 1], topology=topo(4))
        assert res.stats["h2d_bytes"] > 0
        assert res.stats["d2h_bytes"] > 0
        assert res.stats["tasks"] > 0
        assert res.elapsed > 0

    def test_centers_shape(self):
        res = run_somier("one_buffer", CFG, devices=[0], topology=topo(4))
        assert res.centers.shape == (CFG.steps, 3)

    def test_default_devices_all(self):
        res = run_somier("one_buffer", CFG, topology=topo(4))
        assert res.devices == [0, 1, 2, 3]
