"""Capacity-accounted device memory.

Buffers are plain NumPy arrays (that is what kernels execute on), but the
allocator accounts *virtual* bytes — the size the buffer would have at the
paper's full problem scale — so a scaled-down functional run still exercises
the paper's memory regime (problem ≈ 10× device capacity, buffers sized to
fill a 16 GB V100).

Freed buffers are recycled per device: :meth:`DeviceAllocator.free` keeps
the array on a free list keyed by ``(shape, dtype)`` and the next
:meth:`DeviceAllocator.allocate` of that key takes it back before calling
``np.empty``.  A buffer's contents are undefined either way (``np.empty``
semantics).  Reuse bounds a run's footprint: without it every buffer a
run frees and maps again would land on freshly faulted pages.  LLVM
libomptarget's device memory manager keeps freed blocks for the same
reason.  Spare lists live only while the program runs:
``OpenMPRuntime.run`` drops them once the program and its stragglers have
drained, so a finished run holds only the buffers still mapped.  A lost
device recycles nothing, because ops in flight may still write its
purged storage (:meth:`DeviceAllocator.drop_spares`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.errors import OmpAllocationError


@dataclass
class Allocation:
    """One live device buffer."""

    alloc_id: int
    array: np.ndarray
    virtual_bytes: float
    label: str = ""

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class DeviceAllocator:
    """First-fit-free bump accounting of device memory.

    Only byte *accounting* is needed (buffers live in host RAM as NumPy
    arrays); fragmentation is not modelled, matching how ``cudaMalloc``
    behaves for the large streaming buffers the paper uses.
    """

    def __init__(self, capacity_bytes: float, device_id: int = -1):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.device_id = device_id
        self.used_bytes: float = 0.0
        self.peak_bytes: float = 0.0
        self._allocations: Dict[int, Allocation] = {}
        #: freed arrays awaiting reuse, keyed by ``(shape, dtype)``
        self._spares: Dict[Tuple, List[np.ndarray]] = {}
        self._next_id = 0

    # -- allocation ------------------------------------------------------------

    def allocate(self, shape, dtype=np.float64,
                 virtual_bytes: Optional[float] = None,
                 label: str = "") -> Allocation:
        """Allocate a buffer of *shape*; account *virtual_bytes* against the
        capacity (defaults to the functional size).  The array's contents
        are undefined: it is a recycled buffer of the same ``(shape,
        dtype)`` if one was freed, else ``np.empty``."""
        shape = tuple(shape) if np.iterable(shape) else (int(shape),)
        dtype = np.dtype(dtype)
        vbytes = (float(virtual_bytes) if virtual_bytes is not None
                  else float(math.prod(shape) * dtype.itemsize))
        if vbytes < 0:
            raise ValueError("negative virtual size")
        if self.used_bytes + vbytes > self.capacity_bytes:
            raise OmpAllocationError(
                f"device {self.device_id}: out of memory allocating "
                f"{vbytes:.3e} B ({label or 'buffer'}); "
                f"used {self.used_bytes:.3e} of {self.capacity_bytes:.3e} B",
                requested=vbytes, capacity=self.capacity_bytes)
        spares = self._spares.get((shape, dtype))
        array = spares.pop() if spares else np.empty(shape, dtype=dtype)
        self._next_id += 1
        alloc = Allocation(alloc_id=self._next_id, array=array,
                           virtual_bytes=vbytes, label=label)
        self._allocations[alloc.alloc_id] = alloc
        self.used_bytes += vbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        return alloc

    def free(self, alloc: Allocation) -> None:
        if alloc.alloc_id not in self._allocations:
            raise OmpAllocationError(
                f"device {self.device_id}: double free of allocation "
                f"{alloc.alloc_id} ({alloc.label})")
        del self._allocations[alloc.alloc_id]
        self.used_bytes -= alloc.virtual_bytes
        array = alloc.array
        self._spares.setdefault((array.shape, array.dtype), []).append(array)

    def drop_spares(self) -> None:
        """Forget every freed array, so none is handed out again."""
        self._spares.clear()

    # -- introspection -----------------------------------------------------------

    @property
    def live_allocations(self) -> int:
        return len(self._allocations)

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DeviceAllocator dev={self.device_id} "
                f"used={self.used_bytes:.3e}/{self.capacity_bytes:.3e}B "
                f"live={self.live_allocations}>")
