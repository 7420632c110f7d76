"""Half-open integer interval algebra.

Array sections in OpenMP map clauses are contiguous element ranges.  The
device data environment needs exact overlap/containment/extension queries to
implement the present-table rules (Section II/III of the paper and the OpenMP
spec's restriction against extending an already-mapped section).

All intervals are half-open ``[start, stop)`` over Python ints.

Besides the scalar :class:`Interval` algebra, the module packs intervals
into ``(n, 2)`` NumPy bound arrays — the representation the macro-op replay
engine (:mod:`repro.spread.macro`) uses, where per-op Python loops would
dominate.  ``batch_widths`` matches ``len(Interval)`` exactly (empty
intervals clamp to 0); ``tests/util/test_intervals.py`` cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[start, stop)``.

    Empty intervals (``start >= stop``) are permitted and behave as the
    empty set.
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or not isinstance(self.stop, int):
            raise TypeError("Interval bounds must be ints")

    # -- basic predicates ---------------------------------------------------

    @property
    def empty(self) -> bool:
        return self.start >= self.stop

    def __len__(self) -> int:
        return max(0, self.stop - self.start)

    def __contains__(self, point: int) -> bool:
        return self.start <= point < self.stop

    def contains(self, other: "Interval") -> bool:
        """True if *other* is a (possibly equal) sub-interval of self."""
        if other.empty:
            return True
        return self.start <= other.start and other.stop <= self.stop

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share at least one element."""
        if self.empty or other.empty:
            return False
        return self.start < other.stop and other.start < self.stop

    def extends(self, other: "Interval") -> bool:
        """True if self overlaps *other* but is not contained in it.

        This is exactly the situation the OpenMP present table must reject:
        a new section that partially covers an existing entry and reaches
        beyond it ("extension of an existing array section").
        """
        return self.overlaps(other) and not other.contains(self)

    def adjacent(self, other: "Interval") -> bool:
        """True if the intervals touch without overlapping."""
        if self.empty or other.empty:
            return False
        return self.stop == other.start or other.stop == self.start

    # -- algebra ------------------------------------------------------------

    def intersection(self, other: "Interval") -> "Interval":
        return Interval(max(self.start, other.start), min(self.stop, other.stop))

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (not a set union)."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.start, other.start), max(self.stop, other.stop))

    def shift(self, delta: int) -> "Interval":
        return Interval(self.start + delta, self.stop + delta)

    def clamp(self, lo: int, hi: int) -> "Interval":
        """Clip the interval to ``[lo, hi)``."""
        return Interval(max(self.start, lo), min(self.stop, hi))

    def split_at(self, point: int) -> Tuple["Interval", "Interval"]:
        """Split into ``[start, point)`` and ``[point, stop)`` (clamped)."""
        p = min(max(point, self.start), self.stop)
        return Interval(self.start, p), Interval(p, self.stop)

    def as_slice(self) -> slice:
        return slice(self.start, self.stop)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}:{self.stop})"


class IntervalSet:
    """A canonical set of disjoint, sorted, non-adjacent intervals.

    Used by allocators and by trace analysis (busy-time computation).  All
    mutating operations keep the canonical form.
    """

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ivs: List[Interval] = []
        for iv in intervals:
            self.add(iv)

    # -- construction / mutation --------------------------------------------

    def add(self, iv: Interval) -> None:
        """Insert an interval, merging with overlapping/adjacent entries."""
        if iv.empty:
            return
        merged_start, merged_stop = iv.start, iv.stop
        keep: List[Interval] = []
        for existing in self._ivs:
            if existing.stop < merged_start or existing.start > merged_stop:
                keep.append(existing)
            else:
                merged_start = min(merged_start, existing.start)
                merged_stop = max(merged_stop, existing.stop)
        keep.append(Interval(merged_start, merged_stop))
        keep.sort()
        self._ivs = keep

    def remove(self, iv: Interval) -> None:
        """Subtract an interval from the set."""
        if iv.empty:
            return
        out: List[Interval] = []
        for existing in self._ivs:
            if not existing.overlaps(iv):
                out.append(existing)
                continue
            left = Interval(existing.start, min(existing.stop, iv.start))
            right = Interval(max(existing.start, iv.stop), existing.stop)
            if not left.empty:
                out.append(left)
            if not right.empty:
                out.append(right)
        self._ivs = out

    # -- queries --------------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def total(self) -> int:
        """Total number of covered elements."""
        return sum(len(iv) for iv in self._ivs)

    def covers(self, iv: Interval) -> bool:
        """True if *iv* is fully covered by the set."""
        if iv.empty:
            return True
        for existing in self._ivs:
            if existing.contains(iv):
                return True
        return False

    def overlaps(self, iv: Interval) -> bool:
        return any(existing.overlaps(iv) for existing in self._ivs)

    def find_overlapping(self, iv: Interval) -> List[Interval]:
        return [existing for existing in self._ivs if existing.overlaps(iv)]

    def first_gap(self, size: int, lo: int = 0, hi: Optional[int] = None) -> Optional[int]:
        """First-fit search: smallest start >= lo of a free gap of *size*.

        The set is interpreted as *occupied* space inside ``[lo, hi)``.
        Returns None if no gap exists.
        """
        if size <= 0:
            return lo
        cursor = lo
        for existing in self._ivs:
            if existing.stop <= cursor:
                continue
            if existing.start - cursor >= size:
                return cursor
            cursor = max(cursor, existing.stop)
        if hi is None or hi - cursor >= size:
            return cursor
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IntervalSet(" + ", ".join(map(repr, self._ivs)) + ")"


# -- NumPy batch helpers ------------------------------------------------------
#
# Packed representation: an ``(n, 2)`` int64 array of ``[start, stop)`` bound
# pairs, as the macro-op compiler stores per-chunk map intervals.


def pack_intervals(intervals: Sequence[Interval]) -> np.ndarray:
    """Pack a sequence of :class:`Interval` into an ``(n, 2)`` int64 array."""
    n = len(intervals)
    out = np.empty((n, 2), dtype=np.int64)
    for i, iv in enumerate(intervals):
        out[i, 0] = iv.start
        out[i, 1] = iv.stop
    return out


def batch_widths(packed: np.ndarray) -> np.ndarray:
    """Element counts per packed interval (empty intervals clamp to 0)."""
    return np.maximum(packed[:, 1] - packed[:, 0], 0)
