"""Unit tests for the half-open interval algebra."""

import pytest

from repro.util.intervals import Interval, IntervalSet


class TestInterval:
    def test_basic_length_and_contains(self):
        iv = Interval(2, 7)
        assert len(iv) == 5
        assert 2 in iv and 6 in iv
        assert 7 not in iv and 1 not in iv
        assert not iv.empty

    def test_empty_interval(self):
        iv = Interval(5, 5)
        assert iv.empty
        assert len(iv) == 0
        assert 5 not in iv
        assert Interval(7, 3).empty

    def test_non_int_bounds_rejected(self):
        with pytest.raises(TypeError):
            Interval(0.5, 3)  # type: ignore[arg-type]

    def test_containment(self):
        outer = Interval(0, 10)
        assert outer.contains(Interval(0, 10))
        assert outer.contains(Interval(3, 7))
        assert not outer.contains(Interval(5, 11))
        # the empty interval is contained everywhere
        assert outer.contains(Interval(4, 4))

    def test_overlap(self):
        a = Interval(0, 5)
        assert a.overlaps(Interval(4, 9))
        assert a.overlaps(Interval(0, 1))
        assert not a.overlaps(Interval(5, 9))  # half-open: touching != overlap
        assert not a.overlaps(Interval(7, 7))

    def test_extends_is_overlap_without_containment(self):
        entry = Interval(0, 8)
        assert Interval(4, 12).extends(entry)
        assert not Interval(2, 6).extends(entry)       # contained
        assert not Interval(8, 12).extends(entry)      # disjoint
        assert not Interval(0, 8).extends(entry)       # equal

    def test_adjacent(self):
        assert Interval(0, 3).adjacent(Interval(3, 5))
        assert Interval(3, 5).adjacent(Interval(0, 3))
        assert not Interval(0, 3).adjacent(Interval(4, 5))
        assert not Interval(0, 3).adjacent(Interval(2, 5))

    def test_intersection_and_hull(self):
        a, b = Interval(0, 6), Interval(4, 10)
        assert a.intersection(b) == Interval(4, 6)
        assert a.union_hull(b) == Interval(0, 10)
        assert a.intersection(Interval(8, 9)).empty

    def test_shift_clamp_split(self):
        iv = Interval(2, 8)
        assert iv.shift(3) == Interval(5, 11)
        assert iv.clamp(4, 6) == Interval(4, 6)
        left, right = iv.split_at(5)
        assert left == Interval(2, 5) and right == Interval(5, 8)
        left, right = iv.split_at(100)
        assert left == iv and right.empty

    def test_as_slice(self):
        assert Interval(1, 4).as_slice() == slice(1, 4)

    def test_ordering(self):
        assert Interval(1, 3) < Interval(2, 3)
        assert sorted([Interval(5, 6), Interval(0, 9)])[0] == Interval(0, 9)


class TestIntervalSet:
    def test_add_merges_overlapping(self):
        s = IntervalSet([Interval(0, 3), Interval(2, 6)])
        assert list(s) == [Interval(0, 6)]

    def test_add_merges_adjacent(self):
        s = IntervalSet([Interval(0, 3), Interval(3, 5)])
        assert list(s) == [Interval(0, 5)]

    def test_add_keeps_disjoint_sorted(self):
        s = IntervalSet([Interval(6, 8), Interval(0, 2)])
        assert list(s) == [Interval(0, 2), Interval(6, 8)]
        assert s.total() == 4

    def test_add_empty_is_noop(self):
        s = IntervalSet()
        s.add(Interval(3, 3))
        assert not s

    def test_remove_splits(self):
        s = IntervalSet([Interval(0, 10)])
        s.remove(Interval(3, 6))
        assert list(s) == [Interval(0, 3), Interval(6, 10)]
        assert s.total() == 7

    def test_remove_entire(self):
        s = IntervalSet([Interval(0, 4)])
        s.remove(Interval(0, 4))
        assert not s

    def test_covers(self):
        s = IntervalSet([Interval(0, 4), Interval(6, 9)])
        assert s.covers(Interval(1, 3))
        assert s.covers(Interval(8, 8))  # empty
        assert not s.covers(Interval(3, 7))  # spans the gap

    def test_find_overlapping(self):
        s = IntervalSet([Interval(0, 4), Interval(6, 9)])
        assert s.find_overlapping(Interval(3, 7)) == [Interval(0, 4),
                                                      Interval(6, 9)]
        assert s.find_overlapping(Interval(4, 6)) == []

    def test_first_gap(self):
        occupied = IntervalSet([Interval(0, 4), Interval(6, 9)])
        assert occupied.first_gap(2) == 4
        assert occupied.first_gap(3) == 9
        assert occupied.first_gap(3, hi=9) is None
        assert occupied.first_gap(0) == 0

    def test_equality(self):
        assert IntervalSet([Interval(0, 3)]) == IntervalSet([Interval(0, 2),
                                                             Interval(2, 3)])


class TestIntervalEdgeCases:
    """Boundary semantics the analysis passes lean on."""

    def test_touching_intervals_do_not_overlap(self):
        a, b = Interval(0, 4), Interval(4, 8)
        assert not a.overlaps(b) and not b.overlaps(a)
        assert a.adjacent(b) and b.adjacent(a)

    def test_one_element_overlap_is_overlap(self):
        assert Interval(0, 5).overlaps(Interval(4, 8))

    def test_empty_interval_is_contained_in_anything(self):
        empty = Interval(3, 3)
        assert Interval(10, 12).contains(empty)
        assert empty.contains(empty)
        assert not empty.overlaps(Interval(0, 100))
        assert not empty.adjacent(Interval(3, 5))

    def test_intersection_of_disjoint_is_empty(self):
        inter = Interval(0, 3).intersection(Interval(7, 9))
        assert inter.empty and len(inter) == 0

    def test_union_hull_with_empty_side(self):
        a, empty = Interval(2, 5), Interval(9, 9)
        assert a.union_hull(empty) == a
        assert empty.union_hull(a) == a

    def test_union_hull_spans_gap(self):
        assert Interval(0, 2).union_hull(Interval(8, 9)) == Interval(0, 9)

    def test_clamp_can_produce_empty(self):
        assert Interval(0, 4).clamp(6, 10).empty

    def test_split_at_out_of_range_clamps(self):
        a = Interval(2, 8)
        left, right = a.split_at(100)
        assert (left, right) == (Interval(2, 8), Interval(8, 8))
        left, right = a.split_at(-5)
        assert (left, right) == (Interval(2, 2), Interval(2, 8))

    def test_negative_coordinates(self):
        a = Interval(-8, -2)
        assert len(a) == 6 and -3 in a and -9 not in a
        assert a.shift(10) == Interval(2, 8)

    def test_extends_requires_partial_overlap(self):
        entry = Interval(4, 8)
        assert Interval(6, 10).extends(entry)   # reaches beyond
        assert Interval(0, 6).extends(entry)    # reaches before
        assert not Interval(5, 7).extends(entry)  # contained
        assert not Interval(8, 12).extends(entry)  # only adjacent


class TestIntervalSetEdgeCases:
    def test_covers_requires_a_single_entry(self):
        # A gap of one element defeats coverage even though both ends are in.
        s = IntervalSet([Interval(0, 5), Interval(6, 10)])
        assert not s.covers(Interval(0, 10))
        assert s.covers(Interval(1, 4)) and s.covers(Interval(6, 10))

    def test_adjacent_adds_coalesce_into_coverage(self):
        s = IntervalSet()
        s.add(Interval(0, 5))
        s.add(Interval(5, 10))
        assert len(s) == 1 and s.covers(Interval(2, 9))

    def test_covers_empty_always(self):
        assert IntervalSet().covers(Interval(4, 4))

    def test_remove_punches_hole(self):
        s = IntervalSet([Interval(0, 10)])
        s.remove(Interval(3, 6))
        assert list(s) == [Interval(0, 3), Interval(6, 10)]
        assert s.total() == 7

    def test_remove_empty_and_disjoint_are_noops(self):
        s = IntervalSet([Interval(0, 4)])
        s.remove(Interval(2, 2))
        s.remove(Interval(10, 20))
        assert list(s) == [Interval(0, 4)]

    def test_remove_everything_leaves_falsy_set(self):
        s = IntervalSet([Interval(0, 4), Interval(6, 8)])
        s.remove(Interval(0, 8))
        assert not s and len(s) == 0 and s.total() == 0

    def test_add_bridging_merges_three_entries(self):
        s = IntervalSet([Interval(0, 2), Interval(4, 6), Interval(8, 10)])
        s.add(Interval(2, 8))
        assert list(s) == [Interval(0, 10)]

    def test_first_gap_respects_hi_bound(self):
        occupied = IntervalSet([Interval(0, 4)])
        assert occupied.first_gap(4, lo=0, hi=8) == 4
        assert occupied.first_gap(5, lo=0, hi=8) is None
        assert occupied.first_gap(5, lo=0) == 4  # unbounded above

    def test_equality_ignores_construction_order(self):
        a = IntervalSet([Interval(4, 6), Interval(0, 2)])
        b = IntervalSet([Interval(0, 2), Interval(4, 6)])
        assert a == b
        assert a != IntervalSet([Interval(0, 6)])
        assert a.__eq__(42) is NotImplemented


class TestBatchHelpers:
    """The NumPy packing helpers must agree with the scalar algebra
    pointwise — the macro-op replay engine substitutes them for
    per-interval Python loops."""

    def _random_intervals(self, n=60, seed=99):
        import numpy as np

        rng = np.random.default_rng(seed)
        starts = rng.integers(-50, 200, size=n)
        widths = rng.integers(0, 40, size=n)  # width 0 -> empty interval
        return [Interval(int(s), int(s + w))
                for s, w in zip(starts, widths)]

    def test_pack_unpack_roundtrip(self):
        from repro.util.intervals import pack_intervals

        ivs = self._random_intervals()
        packed = pack_intervals(ivs)
        assert packed.shape == (len(ivs), 2)
        assert packed.dtype.kind == "i"
        assert [tuple(row) for row in packed.tolist()] == \
            [(iv.start, iv.stop) for iv in ivs]

    def test_pack_empty_sequence(self):
        from repro.util.intervals import batch_widths, pack_intervals

        packed = pack_intervals([])
        assert packed.shape == (0, 2)
        assert batch_widths(packed).shape == (0,)

    def test_batch_widths_matches_len(self):
        from repro.util.intervals import batch_widths, pack_intervals

        ivs = self._random_intervals()
        widths = batch_widths(pack_intervals(ivs))
        assert list(widths) == [len(iv) for iv in ivs]
