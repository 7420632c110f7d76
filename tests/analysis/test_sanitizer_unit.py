"""Unit tests for the sanitize option, the sanitizer's footprint helpers
and its residency table."""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    RaceSanitizer,
    accesses_from_maps,
    standalone_accesses,
)
from repro.openmp.mapping import Map, Var
from repro.openmp.options import RunOptions
from repro.util.errors import OmpRuntimeError
from repro.util.intervals import Interval


def maps(*specs):
    """Build concrete maps [(clause, interval)] from (ctor, name, lo, hi)."""
    out = []
    for ctor, name, lo, hi in specs:
        var = Var(name, np.zeros(max(hi, 1)))
        out.append((ctor(var), Interval(lo, hi)))
    return out


class TestResolveSanitize:
    @pytest.mark.parametrize("arg,expected", [
        (False, None), (True, "on"), ("on", "on"), ("1", "on"),
        ("off", None), ("strict", "strict"), ("", None),
    ])
    def test_explicit_argument(self, arg, expected):
        assert RunOptions(sanitize=arg).sanitize == expected

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert RunOptions.from_env().sanitize is None
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert RunOptions.from_env().sanitize == "strict"
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert RunOptions.from_env().sanitize is None
        monkeypatch.setenv("REPRO_SANITIZE", "no")
        assert RunOptions.from_env().sanitize is None
        monkeypatch.setenv("REPRO_SANITIZE", "yes")
        assert RunOptions.from_env().sanitize == "on"

    def test_garbage_rejected(self):
        with pytest.raises(OmpRuntimeError, match="sanitize"):
            RunOptions(sanitize="later")
        with pytest.raises(OmpRuntimeError, match="sanitize"):
            RunOptions(sanitize=3.5)


class TestAccessesFromMaps:
    def test_map_types_drive_host_sides(self):
        cm = maps((Map.to, "a", 0, 8), (Map.from_, "b", 0, 8),
                  (Map.tofrom, "c", 2, 6), (Map.alloc, "d", 0, 8),
                  (Map.release, "e", 0, 8))
        acc = accesses_from_maps(cm)
        assert acc == [
            ("a", Interval(0, 8), False),
            ("b", Interval(0, 8), True),
            ("c", Interval(2, 6), False),
            ("c", Interval(2, 6), True),
        ]

    def test_empty_sections_skipped(self):
        cm = maps((Map.to, "a", 4, 4))
        assert accesses_from_maps(cm) == []

    def test_resident_indices_drop_reads_only(self):
        cm = maps((Map.to, "a", 0, 8), (Map.tofrom, "b", 0, 8))
        acc = accesses_from_maps(cm, resident={0, 1})
        # Present hits never read the host; the copy-back still writes.
        assert acc == [("b", Interval(0, 8), True)]


class TestStandaloneAccesses:
    def test_reads_everything_writes_owned_intersection(self):
        cm = maps((Map.to, "pos", 3, 14), (Map.from_, "force", 4, 12))
        acc = standalone_accesses(cm, 4, 12)
        assert ("pos", Interval(3, 14), False) in acc
        assert ("pos", Interval(4, 12), True) in acc  # implicit copy-back
        assert ("force", Interval(4, 12), False) in acc
        assert ("force", Interval(4, 12), True) in acc

    def test_halo_outside_owned_range_not_written(self):
        cm = maps((Map.to, "pos", 0, 20))
        acc = standalone_accesses(cm, 8, 12)
        writes = [a for a in acc if a[2]]
        assert writes == [("pos", Interval(8, 12), True)]


class TestResidencyTable:
    def test_enter_then_exit_round_trip(self):
        san = RaceSanitizer()
        cm = maps((Map.to, "u", 0, 16))
        assert not san.entered_covers(0, "u", Interval(0, 8))
        san.note_enter(0, cm)
        assert san.entered_covers(0, "u", Interval(0, 16))
        assert san.entered_covers(0, "u", Interval(4, 12))
        assert not san.entered_covers(1, "u", Interval(0, 8))  # per device
        san.note_exit(0, cm)
        assert not san.entered_covers(0, "u", Interval(0, 8))

    def test_partial_cover_is_not_resident(self):
        san = RaceSanitizer()
        san.note_enter(2, maps((Map.to, "u", 0, 8)))
        assert not san.entered_covers(2, "u", Interval(0, 12))

    def test_adjacent_enters_coalesce(self):
        san = RaceSanitizer()
        san.note_enter(0, maps((Map.to, "u", 0, 8)))
        san.note_enter(0, maps((Map.to, "u", 8, 16)))
        assert san.entered_covers(0, "u", Interval(2, 14))
