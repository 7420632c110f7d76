"""Critical-path analysis with bottleneck attribution and what-if projection.

The paper reads its nsys timelines by hand to explain *why* a multi-device
run takes as long as it does (Figs. 3-4).  This module automates that:

* :class:`CausalRecorder` — attached to the simulator, it records *why every
  device op started when it did*: dependency edges (the op's process was
  ordered after predecessor ops via joins and spawn inheritance) and
  contention edges (a FIFO resource grant handed the op the slot another op
  just released).
* :class:`CritPathAnalysis` — over the edge-annotated trace it extracts the
  critical path (the causal chain that tiles ``[0, makespan]``), attributes
  every device-lane second into compute / transfer / retry / contention /
  idle buckets, ranks stragglers per spread directive, computes overlap
  efficiency per directive, and replays the causal DAG with modified costs
  ("what if transfers were free?") to bound speedups per bottleneck class.

Recording is strictly opt-in (``OpenMPRuntime(analyze=True)`` or
``REPRO_ANALYZE=1``); results and traces are bit-identical either way — the
recorder only *observes*.  The what-if replay relaxes cross-lane link and
staging contention, so its projections are upper bounds on the achievable
speedup (exact for the zero-transfer scenario, where no wire time remains
to contend).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import attrgetter, sub
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import D2H, H2D, KERNEL, Trace, _intersect, _total

#: JSON schema tag of :meth:`CritPathAnalysis.report` payloads
CRITPATH_SCHEMA = "repro-critpath-1"

_TRANSFERS = (H2D, D2H)


def _merged(idx: Sequence[int], lo: Sequence[float],
            hi: Sequence[float]) -> List[Tuple[float, float]]:
    """``_merge_intervals`` of the intervals ``(lo[i], hi[i])`` for ``i``
    in *idx*, read from columns: only the merged intervals become tuples.

    Ordering by start alone is enough, because intervals that share a
    start fall into one merged interval in any order.
    """
    order = sorted([i for i in idx if hi[i] > lo[i]], key=lo.__getitem__)
    out: List[Tuple[float, float]] = []
    if not order:
        return out
    cur_lo, cur_hi = lo[order[0]], hi[order[0]]
    for i in order:
        if lo[i] > cur_hi:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo[i], hi[i]
        elif hi[i] > cur_hi:
            cur_hi = hi[i]
    out.append((cur_lo, cur_hi))
    return out


def _clamped(xs, ys) -> List[float]:
    """``max(0.0, x - y)`` per pair, to the bit (``max`` keeps its first
    argument unless the second is greater)."""
    return [d if d > 0.0 else 0.0 for d in map(sub, xs, ys)]


def _subtract(xs: Sequence[Tuple[float, float]],
              ys: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Disjoint sorted intervals *xs* minus disjoint sorted intervals *ys*.

    One merge pass: ``j`` skips the *ys* that end before the current *x*;
    a *y* spanning several *xs* stays in reach for each of them.
    """
    out: List[Tuple[float, float]] = []
    j, ny = 0, len(ys)
    for a, b in xs:
        while j < ny and ys[j][1] <= a:
            j += 1
        cur = a
        k = j
        while k < ny and ys[k][0] < b:
            ya, yb = ys[k]
            if ya > cur:
                out.append((cur, ya))
            cur = max(cur, yb)
            if cur >= b:
                break
            k += 1
        if cur < b:
            out.append((cur, b))
    return out


class CausalRecorder:
    """Records the causal edges between device ops as a run executes.

    Ops get sequential ids at :meth:`op_begin`; each op's *dependency
    predecessors* are the issuing process's causal frontier (``cp_heads``)
    at that moment.  Frontiers propagate by spawn inheritance
    (:class:`~repro.sim.engine.Process`) and merge at joins via the
    simulator's ``cp_hook``.  FIFO resources report *contention edges*
    (released slot → granted waiter) through :meth:`contention`.
    """

    #: frontier cap: a merging join keeps the MAX_HEADS most recent ops.
    #: That the binding (max-completion) predecessor survives the cut is
    #: not proven; tests/obs/test_critpath.py checks it by comparing the
    #: full report against an uncapped recorder on its small and
    #: faults/failover runs.  Frontier adoption (``on_join`` into an empty
    #: frontier) is not capped: cluster frontiers reach 552 ops.
    MAX_HEADS = 64

    def __init__(self) -> None:
        self.ops = 0
        #: op id -> its dependency predecessors (the issuing process's
        #: frontier tuple, stored by reference — frontiers are shared by
        #: inheritance, so this costs one pointer per op, not one edge)
        self.op_deps: Dict[int, Tuple[int, ...]] = {}
        #: contention edges as parallel columns (no tuple per edge):
        #: ``_blocked[k]`` was granted the ``_res_names[k]`` slot that
        #: ``_blockers[k]`` released
        self._blocked = array("q")
        self._blockers = array("q")
        self._res_names: List[str] = []
        #: op id -> trace event index (bound at op_end)
        self.op_event: Dict[int, int] = {}

    @property
    def dep_edge_count(self) -> int:
        return sum(len(v) for v in self.op_deps.values())

    @property
    def res_edge_count(self) -> int:
        return len(self._res_names)

    @property
    def res_edges(self) -> List[Tuple[int, int, str]]:
        """``(blocked_op, blocker_op, resource)`` per contention edge, in
        recording order."""
        return list(zip(self._blocked, self._blockers, self._res_names))

    def install(self, sim) -> None:
        sim.recorder = self
        sim.cp_hook = self.on_join

    # -- device-op protocol ------------------------------------------------

    def op_begin(self, proc) -> int:
        self.ops += 1
        op = self.ops
        if proc is not None and proc.cp_heads:
            self.op_deps[op] = proc.cp_heads
        return op

    def op_end(self, op: int, proc, event_index: Optional[int]) -> None:
        if event_index is not None:
            self.op_event[op] = event_index
        if proc is not None:
            proc.cp_heads = (op,)

    def contention(self, blocked_op: int, blocker_op: Optional[int],
                   resource: str) -> None:
        if blocker_op is not None:
            self._blocked.append(blocked_op)
            self._blockers.append(blocker_op)
            self._res_names.append(resource)

    # -- join hook ---------------------------------------------------------

    def on_join(self, proc, heads) -> None:
        """Merge a delivered event's causal frontier into the receiver's.

        The engine calls this only for non-empty frontiers (a one-attribute
        check), so plain timeouts and resource grants cost nothing extra.
        """
        cur = proc.cp_heads
        if not cur:
            # Frontier adoption: share the tuple, dedup join lists.
            proc.cp_heads = (heads if type(heads) is tuple
                             else tuple(set(heads)))
            return
        if heads is cur:
            return
        merged = set(cur)
        merged.update(heads)
        if len(merged) == len(cur):
            return
        if len(merged) > self.MAX_HEADS:
            # The MAX_HEADS largest ids, descending: heapq.nlargest's
            # tuple from one C sort.
            proc.cp_heads = tuple(sorted(merged,
                                         reverse=True)[:self.MAX_HEADS])
        else:
            proc.cp_heads = tuple(merged)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CausalRecorder ops={self.ops} dep={self.dep_edge_count} "
                f"res={self.res_edge_count}>")


class CritPathAnalysis:
    """Causality-aware analysis of one recorded run."""

    def __init__(self, trace: Trace, recorder: CausalRecorder,
                 directive_info: Optional[Dict[int, dict]] = None,
                 num_devices: Optional[int] = None):
        self.trace = trace
        self.recorder = recorder
        self.directive_info = directive_info or {}
        self.num_devices = num_devices
        self.events = events = trace.events
        self.makespan = trace.makespan()
        # Per-event columns, read from the trace once; every section below
        # reads these instead of the events and their ``meta`` dicts.

        def field(name):
            return list(map(attrgetter(name), events))

        self.cat, self.name, self.lane = (field("category"), field("name"),
                                          field("lane"))
        self.start, self.end = starts, ends = field("start"), field("end")
        self.device = field("device")
        metas = field("meta")

        def column(key, defaults):
            return list(map(dict.get, metas, repeat(key), defaults))

        self.issue = column("issue", starts)
        self.ready = column("ready", starts)
        self.done = column("done", ends)
        self.directive = column("directive", repeat(None))
        self.chunk = column("chunk", repeat(None))
        self.attempt = column("attempt", repeat(0))
        self.wire_start = column("wire_start", starts)
        self.wire_end = column("wire_end", ends)
        #: event index -> sorted dependency predecessor event indices
        self.dep_preds: Dict[int, List[int]] = {}
        #: id of a dep_preds list -> its binding predecessor
        self._binding: Dict[int, int] = {}
        op_event = recorder.op_event
        done = self.done
        # Frontier tuples are shared across ops by inheritance (see
        # CausalRecorder.op_deps), so expansion memoizes on tuple identity
        # and the expanded lists stay shared: the binding predecessor is
        # found once per distinct list.  The tuples stay alive in op_deps
        # and the lists in dep_preds, keeping ids stable.  An op's frontier
        # holds ops that completed before it began, so their events
        # precede its own in the trace; only a hand-built trace can list a
        # later one, and such an edge is dropped (in a per-dst copy).
        expanded: Dict[int, List[int]] = {}
        bound = op_event.get
        for dst_op, heads in recorder.op_deps.items():
            dst = bound(dst_op)
            if dst is None:
                continue
            preds = expanded.get(id(heads))
            if preds is None:
                events_of = set(map(bound, heads))
                events_of.discard(None)
                preds = expanded[id(heads)] = sorted(events_of)
            if preds and preds[-1] >= dst:
                preds = [p for p in preds if p < dst]
            if preds:
                self.dep_preds[dst] = preds
                if id(preds) not in self._binding:
                    self._binding[id(preds)] = max(reversed(preds),
                                                   key=done.__getitem__)
        # Contention edges, grouped by blocked event without a tuple per
        # edge: ``_res_order`` sorts the edge positions by blocked event
        # (stably, so each event's edges keep their recording order) and
        # ``_res_dst`` holds the blocked event at each; -1 stands for an
        # op bound to no event.
        dsts = list(map(bound, recorder._blocked, repeat(-1)))
        self._res_src = list(map(bound, recorder._blockers, repeat(-1)))
        self._res_name = recorder._res_names
        self._res_order = sorted(range(len(dsts)), key=dsts.__getitem__)
        self._res_dst = list(map(dsts.__getitem__, self._res_order))
        self._cp: Optional[dict] = None
        self._attr: Optional[dict] = None

    def binding(self, dst: int) -> Optional[int]:
        """Event *dst*'s binding dependency predecessor: the latest to
        complete, ties to the highest index (None without predecessors)."""
        preds = self.dep_preds.get(dst)
        return self._binding[id(preds)] if preds else None

    def res_preds(self, dst: int) -> List[Tuple[int, str]]:
        """``(blocker event, resource)`` per contention edge into event
        *dst*, in recording order."""
        keys, order = self._res_dst, self._res_order
        out = []
        for k in order[bisect_left(keys, dst):bisect_right(keys, dst)]:
            src = self._res_src[k]
            if src != -1 and src != dst:
                out.append((src, self._res_name[k]))
        return out

    def _segment(self, kind: str, i: int, start: float, end: float) -> dict:
        """A critical-path segment spent on (or preparing) event *i*."""
        return {"kind": kind, "event": i, "name": self.name[i],
                "lane": self.lane[i], "device": self.device[i],
                "directive": self.directive[i], "chunk": self.chunk[i],
                "start": start, "end": end}

    # -- critical path -----------------------------------------------------

    def critical_path(self) -> dict:
        """The causal chain ending at the makespan, tiling ``[0, makespan]``.

        Walks backwards from the last-finishing event.  Each hop explains
        the current event's start: a *queue contention* hop when the lane
        slot was granted by another op's release exactly at our start, else
        the event's own prep (``[issue, start]``), its latest-completing
        dependency predecessor, and the host gap between the two.  Segment
        lengths therefore sum to the makespan exactly — the satellite's
        headline invariant.
        """
        if self._cp is not None:
            return self._cp
        starts, ends, lanes = self.start, self.end, self.lane
        if not starts:
            self._cp = {"segments": [], "length_s": 0.0, "work_s": 0.0,
                        "makespan_s": 0.0, "events": 0, "slackness": 1.0,
                        "busy_fraction": 0.0}
            return self._cp
        # the latest end, ties to the highest index
        last = max(reversed(range(len(ends))), key=ends.__getitem__)
        eps = 1e-9 * max(1.0, self.makespan)
        segments: List[dict] = []
        on_path: List[int] = []
        cur: Optional[int] = last
        attach = ends[last]
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            start = starts[cur]
            on_path.append(cur)
            segments.append(self._segment(self.cat[cur], cur, start, attach))
            issue, ready = self.issue[cur], self.ready[cur]
            blocker = None
            if start - ready > eps:
                # The op was ready before it ran: find the lane-slot
                # release that granted it (queued behind same-lane work).
                for pred, rname in self.res_preds(cur):
                    if rname == lanes[cur] and pred < cur and \
                            abs(ends[pred] - start) <= eps:
                        blocker = pred
                        break
            if blocker is not None:
                cur = blocker
                attach = ends[blocker]
                continue
            if start - issue > 0:
                segments.append(self._segment("prep", cur, issue, start))
            pred = self.binding(cur)
            if pred is not None:
                gap_start = min(self.done[pred], issue)
                if issue - gap_start > 0:
                    segments.append({"kind": "host", "event": None,
                                     "name": "host", "lane": None,
                                     "device": None, "directive": None,
                                     "chunk": None,
                                     "start": gap_start, "end": issue})
                cur = pred
                attach = gap_start
            else:
                if issue > 0:
                    segments.append({"kind": "host", "event": None,
                                     "name": "host", "lane": None,
                                     "device": None, "directive": None,
                                     "chunk": None,
                                     "start": 0.0, "end": issue})
                cur = None
        segments.reverse()
        length = sum(s["end"] - s["start"] for s in segments)
        work = sum(ends[i] - starts[i] for i in set(on_path))
        busy_fraction = work / self.makespan if self.makespan > 0 else 0.0
        slackness = self.makespan / work if work > 0 else 1.0
        self._cp = {
            "segments": segments,
            "length_s": length,
            "makespan_s": self.makespan,
            "work_s": work,
            "busy_fraction": busy_fraction,
            "slackness": slackness,
            "events": len(on_path),
        }
        return self._cp

    # -- attribution ---------------------------------------------------------

    def attribution(self) -> dict:
        """Every device-lane second bucketed: compute / transfer / retry /
        contention / idle.  Buckets sum to the makespan per lane exactly
        (lane events never overlap: device queues are capacity 1)."""
        if self._attr is not None:
            return self._attr
        starts, ends, devices = self.start, self.end, self.device
        cats, attempts, issue = self.cat, self.attempt, self.issue
        by_lane: Dict[str, List[int]] = {}
        for i, lane in enumerate(self.lane):
            by_lane.setdefault(lane, []).append(i)
        rows = []
        for lane, idx in sorted(by_lane.items()):
            owners = set(map(devices.__getitem__, idx))
            owners.discard(None)
            if not owners:
                continue  # host lane: not device time
            device = owners.pop()
            if owners:
                # the first device in the lane's (start, end) order
                device = devices[min(
                    (i for i in idx if devices[i] is not None),
                    key=lambda i: (starts[i], ends[i]))]
            compute, transfer, retry = [], [], []
            for i in idx:
                if attempts[i]:
                    retry.append(i)
                elif cats[i] == KERNEL:
                    compute.append(i)
                else:
                    transfer.append(i)
            busy = _merged(idx, starts, ends)
            busy_s = _total(busy)
            contention = _total(_subtract(_merged(idx, issue, starts), busy))
            idle = max(0.0, self.makespan - busy_s - contention)
            rows.append({
                "lane": lane, "device": device,
                "compute_s": _total(_merged(compute, starts, ends)),
                "transfer_s": _total(_merged(transfer, starts, ends)),
                "retry_s": _total(_merged(retry, starts, ends)),
                "contention_s": contention,
                "idle_s": idle,
                "busy_s": busy_s,
                "events": len(idx),
            })
        keys = ("compute_s", "transfer_s", "retry_s", "contention_s",
                "idle_s", "busy_s")
        totals = {k: sum(r[k] for r in rows) for k in keys}
        totals["lane_seconds"] = self.makespan * len(rows)
        self._attr = {"lanes": rows, "totals": totals,
                      "makespan_s": self.makespan}
        return self._attr

    # -- stragglers ----------------------------------------------------------

    def stragglers(self, top: Optional[int] = 5) -> List[dict]:
        """Per-spread-directive chunk dispersion, worst offenders first."""
        starts, ends = self.start, self.end
        groups: Dict[int, Dict[int, List[int]]] = {}
        for i, (did, chunk, cat) in enumerate(zip(self.directive,
                                                  self.chunk, self.cat)):
            if did is None or chunk is None or cat != KERNEL:
                continue
            groups.setdefault(did, {}).setdefault(chunk, []).append(i)
        out = []
        for did, chunks in sorted(groups.items()):
            if len(chunks) < 2:
                continue
            per = []
            for chunk, idx in sorted(chunks.items()):
                per.append({"chunk": chunk,
                            "seconds": sum(ends[i] - starts[i] for i in idx),
                            "device": self.device[idx[-1]]})
            mean = sum(p["seconds"] for p in per) / len(per)
            worst = max(per, key=lambda p: (p["seconds"], p["chunk"]))
            info = self.directive_info.get(did, {})
            out.append({
                "directive": did,
                "kind": info.get("kind", ""),
                "name": info.get("name", ""),
                "chunks": len(per),
                "mean_s": mean,
                "max_s": worst["seconds"],
                "imbalance": worst["seconds"] / mean if mean > 0 else 1.0,
                "lost_s": worst["seconds"] - mean,
                "slowest_chunk": worst["chunk"],
                "slowest_device": worst["device"],
            })
        out.sort(key=lambda r: (-r["lost_s"], r["directive"]))
        return out[:top] if top else out

    # -- overlap efficiency ---------------------------------------------------

    def overlap(self) -> List[dict]:
        """Per-directive lane-busy efficiency over the directive's window."""
        groups: Dict[int, List[int]] = {}
        for i, did in enumerate(self.directive):
            if did is not None:
                groups.setdefault(did, []).append(i)
        starts, ends = self.start, self.end
        cats, lanes_of, devices = self.cat, self.lane, self.device
        rows = []
        for did, idx in sorted(groups.items()):
            window = (max(map(self.done.__getitem__, idx))
                      - min(map(self.issue.__getitem__, idx)))
            lanes: Dict[str, List[int]] = {}
            comp: Dict[Any, List[int]] = {}
            xfer: Dict[Any, List[int]] = {}
            for i in idx:
                lanes.setdefault(lanes_of[i], []).append(i)
                tgt = comp if cats[i] == KERNEL else xfer
                tgt.setdefault(devices[i], []).append(i)
            busy = sum(_total(_merged(ix, starts, ends))
                       for ix in lanes.values())
            denom = window * len(lanes)
            # A device that only computes or only transfers adds an exact
            # (integer) zero, so it is left out of the sum.
            ct_overlap = sum(
                _total(_intersect(_merged(comp[d], starts, ends),
                                  _merged(xfer[d], starts, ends)))
                for d in sorted(comp.keys() & xfer.keys(),
                                key=lambda d: (d is None, d)))
            info = self.directive_info.get(did, {})
            rows.append({
                "directive": did,
                "kind": info.get("kind", ""),
                "name": info.get("name", ""),
                "window_s": window,
                "lanes": len(lanes),
                "busy_s": busy,
                "efficiency": busy / denom if denom > 0 else 0.0,
                "compute_transfer_overlap_s": ct_overlap,
            })
        return rows

    # -- what-if projection ----------------------------------------------------

    def _orig_costs(self) -> Tuple[array, array, array]:
        """Per-event ``prep, hold, tail`` arrays: issue→ready host prep,
        lane occupancy, post-lane drain (the D2H tail staging)."""
        return (array("d", _clamped(self.ready, self.issue)),
                array("d", _clamped(self.end, self.start)),
                array("d", _clamped(self.done, self.end)))

    def _replay_plan(self) -> tuple:
        """The scenario-independent part of :meth:`_replay`, built once
        per :meth:`what_if`.

        Returns ``(rows, lanes, frontiers)``.  *rows* zips, per event in
        lane-queue order (transfers join their lane's queue at issue,
        kernels after their issue latency): the event, its lane slot, its
        host lag (the original gap between the binding predecessor's
        completion and its issue), its frontier slot (0: no predecessors)
        and the frontier's :meth:`_maximal` predecessors at the first event
        that uses it (None elsewhere).
        """
        issue, done, lane_of = self.issue, self.done, self.lane
        qjoin = [ready if cat == KERNEL else iss
                 for cat, iss, ready in zip(self.cat, issue, self.ready)]
        order = array("l", sorted(range(len(qjoin)), key=qjoin.__getitem__))
        lane_slot: Dict[str, int] = {}
        front_slot: Dict[int, int] = {}
        binding = self._binding
        get_preds = self.dep_preds.get
        lanes, lags, fronts = array("l"), array("d"), array("l")
        firsts: List[Optional[List[int]]] = []
        for i in order:
            lanes.append(lane_slot.setdefault(lane_of[i], len(lane_slot)))
            preds = get_preds(i)
            f, base = 0, 0.0
            if preds is not None:
                base = done[binding[id(preds)]]
                f = front_slot.get(id(preds))
                if f is None:
                    f = front_slot[id(preds)] = len(front_slot) + 1
                    preds = self._maximal(preds)
                else:
                    preds = None
            lag = issue[i] - base
            lags.append(lag if lag > 0.0 else 0.0)
            fronts.append(f)
            firsts.append(preds)
        return ((order, lanes, lags, fronts, firsts), len(lane_slot),
                len(front_slot) + 1)

    def _maximal(self, preds: List[int]) -> List[int]:
        """*preds* less the dependency predecessors of its binding member.

        Every replay cost is non-negative (event durations are, as
        ``Trace.record`` keeps ``end >= start``), so in every scenario an
        event completes no earlier than each of its predecessors: the
        frontier's completion max, as a float, is unchanged, and most of
        a capped 64-op frontier drops out of the six replays.
        """
        below = self.dep_preds.get(self._binding[id(preds)])
        if not below:
            return preds
        below = set(below)
        return [p for p in preds if p not in below]

    def _replay(self, plan: tuple, prep: Sequence[float],
                hold: Sequence[float], tail: Sequence[float]) -> float:
        """Replay the causal DAG of *plan* (:meth:`_replay_plan`) with
        per-event *prep*, *hold* and *tail* costs; returns the projected
        makespan.

        An event issues once its latest dependency predecessor completes
        plus the original host lag, holds its (capacity-1) lane from
        ``max(lane free, ready)``, and completes ``tail`` after leaving the
        lane.  Cross-lane link/staging contention is relaxed — projections
        are upper bounds on fixing the bottleneck.

        Each frontier's completion max is taken once, at its first
        dependent.  That is exact: the lane-queue order is topological (a
        predecessor completes before its dependent issues), so every
        predecessor's ``new_done`` is final by then.
        """
        rows, n_lanes, n_fronts = plan
        new_done = array("d", [0.0]) * len(self.events)
        lane_free = [0.0] * n_lanes
        front = [0.0] * n_fronts
        makespan = 0.0
        for i, lane, lag, f, preds in zip(*rows):
            if preds is not None:
                front[f] = max(map(new_done.__getitem__, preds))
            n_start = front[f] + lag + prep[i]
            if lane_free[lane] > n_start:
                n_start = lane_free[lane]
            n_end = n_start + hold[i]
            lane_free[lane] = n_end
            new_done[i] = n_end + tail[i]
            if n_end > makespan:
                makespan = n_end
        return makespan

    def what_if(self) -> dict:
        """Bound the speedup of fixing each bottleneck class."""
        mk = self.makespan
        if not self.start:
            return {"makespan_s": mk, "baseline_replay_s": 0.0,
                    "scenarios": {}}
        plan = self._replay_plan()
        prep, hold, tail = self._orig_costs()
        out: dict = {
            "makespan_s": mk,
            "baseline_replay_s": self._replay(plan, prep, hold, tail),
            "scenarios": {},
        }

        def scenario(name: str, costs, note: str) -> None:
            m = self._replay(plan, *costs())
            out["scenarios"][name] = {
                "makespan_s": m,
                "speedup": mk / m if m > 0 else float("inf"),
                "note": note,
            }

        cats, attempts, directives = self.cat, self.attempt, self.directive
        transfers = [i for i, cat in enumerate(cats) if cat in _TRANSFERS]

        def zero_transfers():
            costs = array("d", prep), array("d", hold), array("d", tail)
            for i in transfers:
                for c in costs:
                    c[i] = 0.0
            return costs

        def infinite_link():
            wireless = array("d", hold)
            wire_start, wire_end = self.wire_start, self.wire_end
            for i in transfers:
                # max(0.0, x) spelled without the call, as in _clamped
                wire = wire_end[i] - wire_start[i]
                lean = hold[i] - (wire if wire > 0.0 else 0.0)
                wireless[i] = lean if lean > 0.0 else 0.0
            return prep, wireless, tail

        # first-attempt kernels: the chunks perfect_balance evens out
        kernels = [i for i, (cat, attempt) in enumerate(zip(cats, attempts))
                   if cat == KERNEL and not attempt]
        durs: Dict[int, List[float]] = {}
        for i in kernels:
            did = directives[i]
            if did is not None:
                durs.setdefault(did, []).append(self.end[i] - self.start[i])
        means = {did: sum(ds) / len(ds) for did, ds in durs.items()}

        def perfect_balance():
            balanced = array("d", hold)
            for i in kernels:
                mean = means.get(directives[i])
                if mean is not None:
                    balanced[i] = mean
            return prep, balanced, tail

        scenario("zero_transfers", zero_transfers,
                 "transfers free: pure compute + host critical path")
        scenario("infinite_link", infinite_link,
                 "wire time zero, per-call latency and staging kept")
        scenario("perfect_balance", perfect_balance,
                 "every chunk kernel takes its directive's mean duration")
        nd = len(set(self.device) - {None})

        def scaled(factor: float):
            def costs():
                return (prep, array("d", [h * factor for h in hold]),
                        array("d", [t * factor for t in tail]))
            return costs

        if nd > 0:
            scenario("plus_one_device", scaled(nd / (nd + 1)),
                     "analytic: per-chunk work rescaled to one more device")
            if nd > 1:
                scenario("minus_one_device", scaled(nd / (nd - 1)),
                         "analytic: per-chunk work rescaled to one less "
                         "device")
        best = max(out["scenarios"].items(),
                   key=lambda kv: (kv[1]["speedup"], kv[0]),
                   default=None)
        if best is not None:
            out["bottleneck"] = best[0]
            out["bottleneck_speedup"] = best[1]["speedup"]
        return out

    # -- Chrome-trace flow events ----------------------------------------------

    def flow_records(self, include_resource_edges: bool = True) -> List[dict]:
        """Chrome-trace flow events (``ph`` "s"/"f" arrow pairs) along the
        causal edges, matching :meth:`Trace.to_chrome_trace` lane tids.

        One ``dep`` arrow per event — from its *binding* (latest-completing)
        dependency predecessor; the transitive rest would bury the timeline
        in arrows.  ``wait:<resource>`` arrows mark contention grants.
        """
        lane_ids = {lane: i for i, lane in enumerate(sorted(set(self.lane)))}
        lanes, starts, ends = self.lane, self.start, self.end
        records: List[dict] = []
        flow_id = 0

        def arrow(src: int, dst: int, kind: str) -> None:
            nonlocal flow_id
            flow_id += 1
            records.append({"name": kind, "cat": "causal", "ph": "s",
                            "id": flow_id, "pid": 0,
                            "tid": lane_ids[lanes[src]],
                            "ts": ends[src] * 1e6})
            records.append({"name": kind, "cat": "causal", "ph": "f",
                            "bp": "e", "id": flow_id, "pid": 0,
                            "tid": lane_ids[lanes[dst]],
                            "ts": starts[dst] * 1e6})

        for dst in sorted(self.dep_preds):
            arrow(self.binding(dst), dst, "dep")
        if include_resource_edges:
            for dst in sorted(set(self._res_dst) - {-1}):
                for src, rname in self.res_preds(dst):
                    arrow(src, dst, f"wait:{rname}")
        return records

    # -- reports ----------------------------------------------------------------

    def headline(self) -> dict:
        """The compact critical-path block embedded in profile reports."""
        cp = self.critical_path()
        return {k: cp[k] for k in ("makespan_s", "length_s", "work_s",
                                   "busy_fraction", "slackness", "events")}

    def summary_line(self) -> str:
        """The one-line slackness headline ``repro stats`` prints."""
        cp = self.critical_path()
        return (f"parallelism slackness: makespan {cp['makespan_s']:.6f}s / "
                f"critical-path work {cp['work_s']:.6f}s = "
                f"{cp['slackness']:.2f}x "
                f"({cp['busy_fraction'] * 100.0:.1f}% of the path is busy)")

    def report(self, top_segments: int = 12) -> dict:
        """The full JSON payload (schema ``repro-critpath-1``)."""
        cp = self.critical_path()
        segments = sorted(cp["segments"],
                          key=lambda s: -(s["end"] - s["start"]))
        return {
            "schema": CRITPATH_SCHEMA,
            "makespan_s": self.makespan,
            "critical_path": {
                "length_s": cp["length_s"],
                "work_s": cp["work_s"],
                "busy_fraction": cp["busy_fraction"],
                "slackness": cp["slackness"],
                "events": cp["events"],
                "segments": cp["segments"],
                "top_segments": segments[:top_segments],
            },
            "attribution": self.attribution(),
            "stragglers": self.stragglers(),
            "overlap": self.overlap(),
            "what_if": self.what_if(),
            "recorder": {
                "ops": self.recorder.ops,
                "dep_edges": self.recorder.dep_edge_count,
                "res_edges": self.recorder.res_edge_count,
                "bound_events": len(self.recorder.op_event),
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.report(), indent=indent)

    def render_text(self, top: int = 8) -> str:
        """Human-readable report for the ``repro analyze`` command."""
        cp = self.critical_path()
        lines = ["critical path"]
        lines.append(f"  {self.summary_line()}")
        lines.append(f"  length {cp['length_s']:.6f}s == makespan "
                     f"{cp['makespan_s']:.6f}s over {cp['events']} events")
        by_kind: Dict[str, float] = {}
        for seg in cp["segments"]:
            by_kind[seg["kind"]] = (by_kind.get(seg["kind"], 0.0)
                                    + seg["end"] - seg["start"])
        parts = ", ".join(f"{k} {v:.6f}s"
                          for k, v in sorted(by_kind.items(),
                                             key=lambda kv: -kv[1]))
        lines.append(f"  path time by kind: {parts}")
        top_segs = sorted(cp["segments"],
                          key=lambda s: -(s["end"] - s["start"]))[:top]
        for seg in top_segs:
            where = seg["lane"] or "host"
            extra = ""
            if seg["directive"] is not None:
                extra = f" d{seg['directive']}"
                if seg["chunk"] is not None:
                    extra += f"#{seg['chunk']}"
            lines.append(f"    {seg['end'] - seg['start']:.6f}s "
                         f"{seg['kind']:<8} {seg['name']}{extra} @{where}")

        attr = self.attribution()
        lines.append("attribution (per device lane, sums to makespan)")
        header = (f"  {'lane':<10} {'compute':>10} {'transfer':>10} "
                  f"{'retry':>10} {'contention':>10} {'idle':>10}")
        lines.append(header)
        for row in attr["lanes"]:
            lines.append(f"  {row['lane']:<10} {row['compute_s']:>10.6f} "
                         f"{row['transfer_s']:>10.6f} "
                         f"{row['retry_s']:>10.6f} "
                         f"{row['contention_s']:>10.6f} "
                         f"{row['idle_s']:>10.6f}")

        stragglers = self.stragglers(top=top)
        if stragglers:
            lines.append("stragglers (per spread directive)")
            for s in stragglers:
                label = s["name"] or s["kind"] or f"directive {s['directive']}"
                lines.append(
                    f"  d{s['directive']} {label}: chunk {s['slowest_chunk']}"
                    f"@gpu{s['slowest_device']} {s['max_s']:.6f}s vs mean "
                    f"{s['mean_s']:.6f}s (x{s['imbalance']:.2f}, "
                    f"+{s['lost_s']:.6f}s)")

        wi = self.what_if()
        if wi.get("scenarios"):
            lines.append("what-if (upper bounds from causal replay)")
            for name, sc in sorted(wi["scenarios"].items(),
                                   key=lambda kv: -kv[1]["speedup"]):
                marker = " <- bottleneck" if name == wi.get("bottleneck") \
                    else ""
                lines.append(f"  {name:<18} {sc['makespan_s']:.6f}s "
                             f"({sc['speedup']:.2f}x){marker}")
            lines.append(f"  baseline replay {wi['baseline_replay_s']:.6f}s "
                         f"(actual {wi['makespan_s']:.6f}s)")
        return "\n".join(lines)
