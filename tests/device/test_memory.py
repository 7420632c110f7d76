"""Unit tests for the device memory allocator."""

import numpy as np
import pytest

from repro.device.device import Device
from repro.device.memory import DeviceAllocator
from repro.openmp.dataenv import DeviceDataEnv
from repro.openmp.mapping import Var
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.topology import DeviceSpec, HostSpec, LinkSpec
from repro.sim.trace import Trace
from repro.util.errors import OmpAllocationError
from repro.util.intervals import Interval


class TestAllocate:
    def test_functional_array_shape_dtype(self):
        alloc = DeviceAllocator(1e6).allocate((4, 5), dtype=np.float32)
        assert alloc.array.shape == (4, 5)
        assert alloc.array.dtype == np.float32
        assert alloc.nbytes == 4 * 5 * 4

    def test_default_virtual_is_functional_size(self):
        allocator = DeviceAllocator(1e6)
        alloc = allocator.allocate((10,), dtype=np.float64)
        assert alloc.virtual_bytes == 80
        assert allocator.used_bytes == 80

    def test_virtual_bytes_override(self):
        allocator = DeviceAllocator(1e9)
        allocator.allocate((10,), virtual_bytes=5e8)
        assert allocator.used_bytes == 5e8
        assert allocator.free_bytes == pytest.approx(5e8)

    def test_capacity_exceeded_raises_with_metadata(self):
        allocator = DeviceAllocator(100.0, device_id=3)
        with pytest.raises(OmpAllocationError) as exc:
            allocator.allocate((4,), virtual_bytes=150.0, label="buf")
        assert exc.value.requested == 150.0
        assert exc.value.capacity == 100.0
        assert not exc.value.can_ever_fit
        assert "device 3" in str(exc.value)

    def test_transient_exhaustion_can_ever_fit(self):
        allocator = DeviceAllocator(100.0)
        allocator.allocate((1,), virtual_bytes=60.0)
        with pytest.raises(OmpAllocationError) as exc:
            allocator.allocate((1,), virtual_bytes=60.0)
        assert exc.value.can_ever_fit

    def test_negative_virtual_rejected(self):
        with pytest.raises(ValueError):
            DeviceAllocator(100.0).allocate((1,), virtual_bytes=-1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeviceAllocator(0)


class TestFree:
    def test_free_returns_capacity(self):
        allocator = DeviceAllocator(100.0)
        a = allocator.allocate((1,), virtual_bytes=70.0)
        allocator.free(a)
        assert allocator.used_bytes == 0
        allocator.allocate((1,), virtual_bytes=90.0)  # fits again

    def test_double_free_rejected(self):
        allocator = DeviceAllocator(100.0)
        a = allocator.allocate((1,), virtual_bytes=10.0)
        allocator.free(a)
        with pytest.raises(OmpAllocationError, match="double free"):
            allocator.free(a)

    def test_live_allocation_count(self):
        allocator = DeviceAllocator(1000.0)
        allocs = [allocator.allocate((1,), virtual_bytes=10.0)
                  for _ in range(3)]
        assert allocator.live_allocations == 3
        allocator.free(allocs[1])
        assert allocator.live_allocations == 2


class TestPeak:
    def test_peak_tracks_high_watermark(self):
        allocator = DeviceAllocator(100.0)
        a = allocator.allocate((1,), virtual_bytes=80.0)
        allocator.free(a)
        allocator.allocate((1,), virtual_bytes=30.0)
        assert allocator.peak_bytes == 80.0
        assert allocator.used_bytes == 30.0


class TestRecycling:
    """Freed arrays are handed out again for the same ``(shape, dtype)``."""

    def test_same_shape_and_dtype_reuses_array(self):
        allocator = DeviceAllocator(1e6)
        a = allocator.allocate((4, 5))
        allocator.free(a)
        b = allocator.allocate((4, 5), label="again")
        assert b.array is a.array
        assert b.alloc_id != a.alloc_id

    @pytest.mark.parametrize("shape, dtype", [((5, 4), np.float64),
                                              ((4, 5), np.float32)])
    def test_other_shape_or_dtype_is_fresh(self, shape, dtype):
        allocator = DeviceAllocator(1e6)
        a = allocator.allocate((4, 5))
        allocator.free(a)
        b = allocator.allocate(shape, dtype=dtype)
        assert b.array is not a.array
        assert b.array.shape == shape and b.array.dtype == dtype
        # the spare is still there for its own key
        assert allocator.allocate((4, 5)).array is a.array

    def test_refused_allocation_keeps_spare(self):
        allocator = DeviceAllocator(100.0)
        a = allocator.allocate((2,), virtual_bytes=60.0)
        allocator.free(a)
        allocator.allocate((3,), virtual_bytes=60.0)
        with pytest.raises(OmpAllocationError):
            allocator.allocate((2,), virtual_bytes=60.0)
        assert allocator.live_allocations == 1
        assert allocator.used_bytes == 60.0
        assert allocator.allocate((2,), virtual_bytes=40.0).array is a.array

    def test_refused_allocation_allocates_nothing(self, monkeypatch):
        allocator = DeviceAllocator(100.0)

        def no_empty(*_args, **_kw):
            raise AssertionError("np.empty called for a refused request")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(OmpAllocationError):
            allocator.allocate((1000,))

    def test_double_free_of_recycled_buffer_raises(self):
        allocator = DeviceAllocator(1e6)
        a = allocator.allocate((3,))
        allocator.free(a)
        b = allocator.allocate((3,))
        allocator.free(b)
        with pytest.raises(OmpAllocationError, match="double free"):
            allocator.free(b)
        with pytest.raises(OmpAllocationError, match="double free"):
            allocator.free(a)

    def test_accounting_unchanged(self):
        allocator = DeviceAllocator(1000.0)
        a = allocator.allocate((4,), virtual_bytes=300.0)
        b = allocator.allocate((4,))
        assert allocator.used_bytes == 332.0
        allocator.free(a)
        assert allocator.used_bytes == 32.0
        c = allocator.allocate((4,), virtual_bytes=100.0)
        assert c.array is a.array
        assert allocator.used_bytes == 132.0
        assert allocator.peak_bytes == 332.0
        allocator.free(b)
        allocator.free(c)
        assert allocator.used_bytes == 0.0
        assert allocator.live_allocations == 0

    def test_dropped_spares_are_not_handed_out(self):
        allocator = DeviceAllocator(1e6)
        a = allocator.allocate((4,))
        allocator.free(a)
        allocator.drop_spares()
        assert allocator.allocate((4,)).array is not a.array

    def test_purged_lost_device_buffer_is_not_handed_out(self):
        """Ops in flight on a lost device may still write its purged
        storage, so that storage must never back a new allocation."""
        sim = Simulator()
        dev = Device(sim, 0, DeviceSpec(memory_bytes=1e6), Resource(sim, 1),
                     LinkSpec(), Resource(sim, 1), HostSpec(), CostModel(),
                     Trace())
        env = DeviceDataEnv(dev)
        var = Var("A", np.arange(100.0))
        entry, _ = env.enter(var, Interval(0, 50))
        dev.lost = True
        assert env.purge() == 1
        assert dev.allocator.used_bytes == 0
        again = dev.allocate(entry.alloc.array.shape)
        assert again.array is not entry.alloc.array
