"""Trace recording and analysis — the reproduction's stand-in for ``nsys``.

Every device operation (H2D/D2H memcpy, kernel) and host task records a
:class:`TraceEvent` with its lane (``device:engine``), start and end times.
:class:`TraceAnalysis` then answers the questions the paper asks of its nsys
traces:

* Fig. 3: is the execution dominated by memory transfers or by kernels?
* Fig. 4: are kernels interleaved with transfers from a different buffer?
  how often do computation and transfer actually overlap?  do transfers
  ever overlap each other?

Exporters produce Chrome-trace JSON (loadable in ``chrome://tracing`` /
Perfetto) and a plain ASCII timeline for terminals.
"""

from __future__ import annotations

import json
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

# Event categories
H2D = "h2d"
D2H = "d2h"
KERNEL = "kernel"
HOST = "host"

_CATEGORIES = (H2D, D2H, KERNEL, HOST)


class TraceEvent(NamedTuple):
    """One completed interval on one lane of the simulated node.

    A NamedTuple rather than a frozen dataclass: one is built per recorded
    device operation, so construction cost is on the simulator's hot path.
    Callers constructing events directly should pass a fresh ``meta`` dict
    (``Trace.record`` always does).
    """

    category: str
    name: str
    lane: str
    start: float
    end: float
    device: Optional[int] = None
    meta: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TraceEvent") -> bool:
        return self.start < other.end and other.start < self.end


class Trace:
    """Append-only event log with span helpers."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def record(self, category: str, name: str, lane: str, start: float,
               end: float, device: Optional[int] = None,
               **meta: Any) -> Optional[int]:
        """Append an event; returns its index (None when disabled).

        The index is the stable handle the critical-path recorder uses to
        bind causal ops to their trace events.
        """
        if not self.enabled:
            return None
        if category not in _CATEGORIES:
            raise ValueError(f"unknown trace category {category!r}")
        if end < start:
            # Tolerate float round-off from cost arithmetic: clamp to a
            # zero-duration event (rendered one cell wide by to_ascii).
            if start - end <= 1e-12:
                end = start
            else:
                raise ValueError("trace event ends before it starts")
        self.events.append(TraceEvent(category=category, name=name,
                                      lane=lane, start=start, end=end,
                                      device=device, meta=meta))
        return len(self.events) - 1

    # -- views ----------------------------------------------------------------

    def by_lane(self) -> Dict[str, List[TraceEvent]]:
        lanes: Dict[str, List[TraceEvent]] = {}
        for ev in self.events:
            lanes.setdefault(ev.lane, []).append(ev)
        for evs in lanes.values():
            evs.sort(key=lambda e: (e.start, e.end))
        return lanes

    def by_device(self, device: int) -> List[TraceEvent]:
        evs = [e for e in self.events if e.device == device]
        evs.sort(key=lambda e: (e.start, e.end))
        return evs

    def makespan(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events)

    # -- exporters -------------------------------------------------------------

    def to_chrome_trace(self,
                        extra_records: Optional[Sequence[dict]] = None) -> str:
        """Serialize as Chrome-trace JSON (microsecond timestamps).

        Lanes are assigned tids in deterministic sorted order and each one
        is named with an ``"M"`` metadata record (``thread_name`` +
        ``thread_sort_index``), so Perfetto / chrome://tracing shows
        ``device:engine`` labels instead of bare tids.  *extra_records*
        (e.g. :meth:`repro.obs.report.ProfileReport.chrome_records`) are
        appended verbatim — they use their own pid, leaving the raw device
        lanes on pid 0.
        """
        lane_ids = {lane: i for i, lane in enumerate(sorted(self.by_lane()))}
        records: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "simulated node"},
        }]
        for lane, tid in sorted(lane_ids.items()):
            records.append({"name": "thread_name", "ph": "M", "pid": 0,
                            "tid": tid, "args": {"name": lane}})
            records.append({"name": "thread_sort_index", "ph": "M", "pid": 0,
                            "tid": tid, "args": {"sort_index": tid}})
        for ev in self.events:
            records.append({
                "name": ev.name,
                "cat": ev.category,
                "ph": "X",
                "ts": ev.start * 1e6,
                "dur": ev.duration * 1e6,
                "pid": 0,
                "tid": lane_ids[ev.lane],
                "args": dict(ev.meta, lane=ev.lane),
            })
        if extra_records:
            records.extend(extra_records)
        return json.dumps({"traceEvents": records}, indent=None)

    def to_ascii(self, width: int = 100,
                 t0: Optional[float] = None,
                 t1: Optional[float] = None) -> str:
        """Render lanes as fixed-width character timelines.

        Characters: ``>`` H2D, ``<`` D2H, ``#`` kernel, ``.`` host task,
        space = idle.  Mirrors the green/red/blue convention of the paper's
        Fig. 3.
        """
        lanes = self.by_lane()
        if not lanes:
            return "(empty trace)"
        lo = t0 if t0 is not None else 0.0
        hi = t1 if t1 is not None else self.makespan()
        if hi <= lo:
            hi = lo + 1.0
        span = hi - lo
        glyph = {H2D: ">", D2H: "<", KERNEL: "#", HOST: "."}
        name_w = max(len("lane"), max(len(name) for name in lanes))
        lines = [f"{'lane'.ljust(name_w)} |{'-' * width}| "
                 f"[{lo:.3f}s .. {hi:.3f}s]"]
        for lane in sorted(lanes):
            row = [" "] * width
            for ev in lanes[lane]:
                if ev.end <= lo or ev.start >= hi:
                    continue
                a = int((max(ev.start, lo) - lo) / span * width)
                b = int((min(ev.end, hi) - lo) / span * width)
                b = max(b, a + 1)
                ch = glyph[ev.category]
                for x in range(a, min(b, width)):
                    row[x] = ch
            lines.append(f"{lane.ljust(name_w)} |{''.join(row)}|")
        lines.append("legend: '>' H2D   '<' D2H   '#' kernel   '.' host")
        return "\n".join(lines)


def _merge_intervals(ivs: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping float intervals into disjoint ones."""
    ivs = sorted((a, b) for a, b in ivs if b > a)
    out: List[Tuple[float, float]] = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _total(ivs: Sequence[Tuple[float, float]]) -> float:
    return sum(b - a for a, b in ivs)


def _intersect(xs: Sequence[Tuple[float, float]],
               ys: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            out.append((a, b))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


class TraceAnalysis:
    """Answers the paper's trace questions quantitatively."""

    def __init__(self, trace: Trace):
        self.trace = trace

    # -- busy fractions (Fig. 3) ------------------------------------------------

    def busy_intervals(self, device: int,
                       categories: Sequence[str]) -> List[Tuple[float, float]]:
        ivs = [(e.start, e.end) for e in self.trace.events
               if e.device == device and e.category in categories]
        return _merge_intervals(ivs)

    def device_summary(self, device: int) -> Dict[str, float]:
        """Per-device busy time split by category plus the makespan."""
        out: Dict[str, float] = {"makespan": self.trace.makespan()}
        for cat in (H2D, D2H, KERNEL):
            out[cat] = _total(self.busy_intervals(device, [cat]))
        out["transfer"] = out[H2D] + out[D2H]
        return out

    def transfer_dominance(self, devices: Sequence[int]) -> Dict[str, float]:
        """Aggregate transfer vs kernel busy time across *devices*.

        The paper's Fig. 3 conclusion is ``transfer >> kernel``; callers
        assert ``ratio > 1``.
        """
        transfer = kernel = 0.0
        for d in devices:
            s = self.device_summary(d)
            transfer += s["transfer"]
            kernel += s[KERNEL]
        ratio = transfer / kernel if kernel > 0 else float("inf")
        return {"transfer": transfer, "kernel": kernel, "ratio": ratio}

    # -- overlap (Fig. 4) -------------------------------------------------------

    def compute_transfer_overlap(self, device: int) -> float:
        """Seconds during which *device* both computes and transfers."""
        comp = self.busy_intervals(device, [KERNEL])
        xfer = self.busy_intervals(device, [H2D, D2H])
        return _total(_intersect(comp, xfer))

    def wire_intervals(self, device: int) -> List[Tuple[float, float]]:
        """Intervals during which *device*'s transfers occupied the link.

        Transfer events carry ``wire_start``/``wire_end`` meta separating
        link occupancy from host-side API latency; events without the meta
        fall back to their full span.
        """
        ivs = []
        for e in self.trace.events:
            if e.device != device or e.category not in (H2D, D2H):
                continue
            a = e.meta.get("wire_start", e.start)
            b = e.meta.get("wire_end", e.end)
            ivs.append((a, b))
        return _merge_intervals(ivs)

    def transfer_transfer_overlap(self, devices: Sequence[int],
                                  wire_only: bool = True) -> float:
        """Pairwise overlap of transfer time across *devices*.

        With ``wire_only`` (default) only link occupancy counts; on a
        shared FIFO socket link this must be exactly 0 for same-socket
        device pairs — the paper's "transfers from different buffers did
        not overlap".
        """
        total = 0.0
        devs = list(devices)
        for i, a in enumerate(devs):
            for b in devs[i + 1:]:
                if wire_only:
                    xa = self.wire_intervals(a)
                    xb = self.wire_intervals(b)
                else:
                    xa = self.busy_intervals(a, [H2D, D2H])
                    xb = self.busy_intervals(b, [H2D, D2H])
                total += _total(_intersect(xa, xb))
        return total

    def interleave_count(self, device: int) -> int:
        """Number of kernel<->transfer alternations in the device timeline.

        The paper's Fig. 4 shows kernels "interleaved with data transfers
        from a different buffer" — a high alternation count relative to the
        number of kernels.
        """
        evs = self.trace.by_device(device)
        seq = []
        for ev in evs:
            kind = KERNEL if ev.category == KERNEL else "xfer"
            if ev.category == HOST:
                continue
            if not seq or seq[-1] != kind:
                seq.append(kind)
        return max(0, len(seq) - 1)

    def idle_fraction(self, device: int) -> float:
        """Fraction of the makespan the device spends fully idle."""
        span = self.trace.makespan()
        if span <= 0:
            return 0.0
        busy = _total(self.busy_intervals(device, [H2D, D2H, KERNEL]))
        return max(0.0, 1.0 - busy / span)
