"""Interval-based dynamic race sanitizer (Archer/TSan for spread programs).

When enabled, the runtime records the **host-array footprint** of every
device operation it submits — one access per map clause, with
``to``/``tofrom`` sections counted as reads of the host array and
``from``/``tofrom`` sections as writes — and checks each new footprint
against every earlier access it is not ordered after.  Two accesses to
overlapping sections of the same array, at least one of them a write,
with no happens-before path between them, are reported as a
:class:`RaceReport` with full device/directive provenance.

Happens-before tracking
-----------------------

Every recorded operation gets one bit in a shared bitmask space; a
process's :attr:`~repro.sim.engine.Process.san_clock` is the OR of the
bits it is ordered after.  Order is established exactly where the runtime
establishes it:

* **seeding** — when a task is submitted, its clock starts as the
  submitter's closure joined with the closure of every event in its
  wait-set (``depend`` edges, per-buffer in-flight waits);
* **joins** — the engine's ``san_hook`` fires whenever a process resumes
  from a completed event (``taskwait``, ``all_of``, region barriers) and
  ORs the event's closure into the process.

A process's *closure* is its clock plus the bits of every operation it
recorded itself (``_proc_closure``), which makes same-process program
order and dynamic-schedule worker loops fall out for free.  Waiting on a
process that has not finished yet (a ``depend`` edge onto an in-flight
``nowait`` task) is remembered as a *pending* ordering — "ordered after
everything that process will ever record" — which is exactly the
semantics of joining its completion event.

Checks happen at **submit time**, in deterministic program order, so
reports are stable run to run; the sanitizer never touches the event
heap, never allocates events, and performs only integer ORs on the hot
path, which keeps sanitized runs bit-identical (results *and* traces) to
unsanitized ones.

``strict`` mode additionally raises
:class:`~repro.util.errors.DataRaceError` at the end of
:meth:`~repro.openmp.runtime.OpenMPRuntime.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sim.engine import AllOf, AnyOf, Event, Process
from repro.util.intervals import Interval, IntervalSet

#: one recorded host-array access: (var name, interval, is_write)
Access = Tuple[str, Interval, bool]


def accesses_from_maps(concrete_maps, resident=()) -> List[Access]:
    """Host-array access footprint of an op, from its concrete maps.

    The map type alone determines the host side of every directive the
    runtime submits: ``to``/``tofrom`` read the host section (copy-in),
    ``from``/``tofrom`` write it (copy-back), ``alloc``/``release``/
    ``delete`` move no bytes.  ``target update`` ops arrive here through
    the pseudo to/from maps their plans already carry.

    ``resident`` holds the indices of maps whose section is already
    present on the target device at submit time: their copy-in is a
    present hit that never reads the host, so no read is recorded.  Only
    meaningful for ops whose copy-in is presence-conditional (kernels and
    enters) — ``target update`` copies unconditionally.
    """
    out: List[Access] = []
    for i, (clause, interval) in enumerate(concrete_maps):
        if interval.empty:
            continue
        map_type = clause.map_type
        if map_type.copies_in and i not in resident:
            out.append((clause.var.name, interval, False))
        if map_type.copies_out:
            out.append((clause.var.name, interval, True))
    return out


def standalone_accesses(concrete_maps, lo: int, hi: int) -> List[Access]:
    """Host footprint of a failed-over *standalone* kernel op.

    A chunk re-routed off a lost device runs self-contained against a
    scratch environment (``kernel_op(standalone=True)``): *every* map
    copies in from the host regardless of type, and the implicit exit
    copies back each map's intersection with the chunk's owned range
    ``[lo, hi)`` — owned rows only, never halos.
    """
    owned = Interval(lo, hi)
    out: List[Access] = []
    for clause, interval in concrete_maps:
        if interval.empty:
            continue
        out.append((clause.var.name, interval, False))
        back = interval.intersection(owned)
        if not back.empty:
            out.append((clause.var.name, back, True))
    return out


@dataclass(frozen=True)
class RaceReport:
    """One pair of conflicting, unordered accesses."""

    var: str
    overlap: Interval
    first_name: str
    first_device: Optional[int]
    first_directive: Optional[int]
    first_write: bool
    second_name: str
    second_device: Optional[int]
    second_directive: Optional[int]
    second_write: bool

    def render(self) -> str:
        def side(name, device, directive, write):
            kind = "write" if write else "read"
            where = f"device {device}" if device is not None else "host"
            directive_part = (f", directive #{directive}"
                              if directive is not None else "")
            return f"{kind} by {name!r} ({where}{directive_part})"

        return (f"data race on {self.var}{self.overlap}: "
                + side(self.first_name, self.first_device,
                       self.first_directive, self.first_write)
                + " is unordered with "
                + side(self.second_name, self.second_device,
                       self.second_directive, self.second_write))

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "overlap": [self.overlap.start, self.overlap.stop],
            "first": {"name": self.first_name, "device": self.first_device,
                      "directive": self.first_directive,
                      "write": self.first_write},
            "second": {"name": self.second_name,
                       "device": self.second_device,
                       "directive": self.second_directive,
                       "write": self.second_write},
        }


class _Record:
    """One access in a variable's frontier."""

    __slots__ = ("bit", "ancestors", "pending", "owner", "interval", "write",
                 "device", "directive", "name")

    def __init__(self, bit, ancestors, pending, owner, interval, write,
                 device, directive, name):
        self.bit = bit
        self.ancestors = ancestors
        self.pending = pending
        self.owner = owner
        self.interval = interval
        self.write = write
        self.device = device
        self.directive = directive
        self.name = name


class RaceSanitizer:
    """Records op footprints and reports happens-before violations."""

    def __init__(self, rt=None, strict: bool = False):
        self.rt = rt
        self.strict = strict
        self.reports: List[RaceReport] = []
        self.ops_recorded = 0
        self.access_checks = 0
        self._next_bit = 1
        self._frontier: Dict[str, List[_Record]] = {}
        self._proc_closure: Dict[Process, int] = {}
        self._proc_pending: Dict[Process, FrozenSet[Process]] = {}
        self._seen_pairs: set = set()
        # Submit-order residency: sections the data directives have
        # entered, per (device, var).  ``kernel_accesses`` consults this
        # besides the present table because depend-ordered prefetch
        # enters (§IX data_depend) are submitted nowait — they have not
        # populated the present table yet when the kernel is submitted,
        # but they are ordered before it, so its copy-in is still a
        # present hit that never reads the host.
        self._entered: Dict[Tuple[int, str], "IntervalSet"] = {}

    # -- engine wiring -------------------------------------------------------

    def install(self, sim) -> None:
        sim.san_hook = self.on_join

    def on_join(self, proc: Process, event: Event) -> None:
        """Engine hook: *proc* resumed from completed *event* (HB join)."""
        proc.san_clock |= self.closure_of(event)

    def closure_of(self, event: Event) -> int:
        """The record bits ordered before anyone who joins *event*."""
        if isinstance(event, Process):
            return event.san_clock | self._proc_closure.get(event, 0)
        if isinstance(event, AllOf):
            clock = 0
            for child in event.events:
                clock |= self.closure_of(child)
            return clock
        if isinstance(event, AnyOf):
            clock = 0
            for child in event.events:
                if child.processed:
                    clock |= self.closure_of(child)
            return clock
        return 0

    def seed(self, proc: Process, parent: Optional[Process],
             waits: Sequence[Event] = ()) -> None:
        """Initialize a new task's clock at submit time.

        The task is ordered after its submitter's history and after every
        event in its wait-set.  Waits on processes that have not finished
        yet are kept as *pending* orderings: the task is ordered after
        everything those processes will ever record.
        """
        clock = 0
        pending: set = set()
        if parent is not None:
            clock |= self.closure_of(parent)
            pending |= self._proc_pending.get(parent, frozenset())
        for event in waits:
            clock |= self.closure_of(event)
            for wait_proc in self._procs_of(event):
                if not wait_proc.processed:
                    pending.add(wait_proc)
                    pending |= self._proc_pending.get(wait_proc, frozenset())
        proc.san_clock |= clock
        if pending:
            self._proc_pending[proc] = frozenset(pending)

    def _procs_of(self, event: Event):
        if isinstance(event, Process):
            yield event
        elif isinstance(event, AllOf):
            for child in event.events:
                yield from self._procs_of(child)

    # -- submit-order residency ----------------------------------------------

    def note_enter(self, device: int, concrete_maps) -> None:
        """A data directive submitted an enter of these sections."""
        for clause, interval in concrete_maps:
            if not interval.empty:
                self._entered.setdefault(
                    (device, clause.var.name), IntervalSet()).add(interval)

    def note_exit(self, device: int, concrete_maps) -> None:
        """A data directive submitted an exit of these sections."""
        for clause, interval in concrete_maps:
            if interval.empty:
                continue
            entered = self._entered.get((device, clause.var.name))
            if entered is not None:
                entered.remove(interval)

    def entered_covers(self, device: int, var_name: str,
                       interval: Interval) -> bool:
        """Was *interval* fully entered on *device*, in submit order?"""
        entered = self._entered.get((device, var_name))
        return entered is not None and entered.covers(interval)

    # -- recording -----------------------------------------------------------

    def record_op(self, proc: Process, accesses: Sequence[Access],
                  device: Optional[int] = None,
                  directive: Optional[int] = None, name: str = "") -> None:
        """Record one submitted op's footprint and check it for races.

        Must be called right after the op's task is submitted (and seeded),
        in program order — which is what makes reports deterministic.
        """
        if not accesses:
            return
        self.ops_recorded += 1
        ancestors = proc.san_clock | self._proc_closure.get(proc, 0)
        pending = self._proc_pending.get(proc, frozenset())
        bit = self._next_bit
        self._next_bit <<= 1
        checks = 0
        for var, interval, write in accesses:
            frontier = self._frontier.setdefault(var, [])
            survivors: List[_Record] = []
            for rec in frontier:
                checks += 1
                # rec.bit == bit: two accesses of the same op (a tofrom's
                # read and write) are one logical operation, not a race.
                ordered = (rec.bit == bit or bool(rec.bit & ancestors)
                           or rec.owner in pending)
                if (not ordered and rec.interval.overlaps(interval)
                        and (rec.write or write)
                        and not self._race_ordered(rec, proc)):
                    self._report(rec, proc, interval, var, write, device,
                                 directive, name, bit)
                if (write and ordered
                        and interval.contains(rec.interval)):
                    # Covered by an ordered newer write: any future
                    # conflict is transitively enforced through us.
                    continue
                survivors.append(rec)
            survivors.append(_Record(
                bit=bit, ancestors=ancestors, pending=pending, owner=proc,
                interval=interval, write=write, device=device,
                directive=directive, name=name))
            self._frontier[var] = survivors
        self.access_checks += checks
        self._proc_closure[proc] = self._proc_closure.get(proc, 0) | bit
        rt = self.rt
        if rt is not None and rt.tools:
            from repro.obs.tool import SANITIZER_OP

            rt.tools.dispatch(SANITIZER_OP, device=device, name=name,
                              directive=directive, accesses=len(accesses),
                              checks=checks, time=rt.sim.now)

    def _race_ordered(self, rec: _Record, proc: Process) -> bool:
        """Reverse direction: was the *existing* record seeded while
        waiting on the new op's owner (record order ≠ execution order,
        e.g. a task depending on a still-running dynamic worker)?"""
        return proc in rec.pending

    def _report(self, rec: _Record, proc: Process, interval: Interval,
                var: str, write: bool, device, directive, name: str,
                bit: int) -> None:
        pair = (rec.bit, bit)
        if pair in self._seen_pairs:
            return
        self._seen_pairs.add(pair)
        report = RaceReport(
            var=var, overlap=rec.interval.intersection(interval),
            first_name=rec.name, first_device=rec.device,
            first_directive=rec.directive, first_write=rec.write,
            second_name=name, second_device=device,
            second_directive=directive, second_write=write)
        self.reports.append(report)
        rt = self.rt
        if rt is not None and rt.tools:
            from repro.obs.tool import SANITIZER_RACE

            rt.tools.dispatch(SANITIZER_RACE, var=var,
                              overlap=(report.overlap.start,
                                       report.overlap.stop),
                              first=report.first_name,
                              second=report.second_name,
                              device=device, directive=directive,
                              time=rt.sim.now)

    # -- reporting -----------------------------------------------------------

    @property
    def races(self) -> int:
        return len(self.reports)

    def summary(self) -> str:
        if not self.reports:
            return (f"race sanitizer: no races in {self.ops_recorded} "
                    f"recorded ops ({self.access_checks} access checks)")
        lines = [f"race sanitizer: {len(self.reports)} race(s) in "
                 f"{self.ops_recorded} recorded ops:"]
        lines.extend("  " + report.render() for report in self.reports)
        return "\n".join(lines)
