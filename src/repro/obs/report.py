"""Profiling reports, built from a finished run's trace and counters.

The paper reads its evidence off nsys timelines after the run; the profile
does the same.  :class:`ProfileReport` makes one pass over ``rt.trace``
(every event carries its ``directive``/``chunk`` provenance and its
``issue``/``wire_start``/``wire_end`` times) and reads the plain counters
the runtime keeps anyway: the devices' byte/call counters, the present
tables, the dependence tracker, the plan cache, the event engine, the
fault path and the race sanitizer.  Nothing is collected while the run
executes, so profiling never changes the run's path.

Windows are virtual-time intervals on the trace:

* a **directive window** runs from the first ``issue`` of any of the
  directive's device ops to the last op ``end``, so a ``nowait``
  directive still covers the work it fanned out; a directive that ran no
  device op has no window (it adds 0 to the totals);
* a **chunk window** does the same for the ops of one chunk on one device
  (a non-spread directive's ops form one window).

The text renderer mimics ``LIBOMPTARGET_PROFILE``'s end-of-run summary;
``to_json`` emits the ``repro-profile-2`` payload behind CLI
``--metrics-json``; ``chrome_trace`` adds the windows as span lanes to the
Chrome-trace export.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.trace import KERNEL
from repro.util.format import format_bytes, format_table

PROFILE_SCHEMA = "repro-profile-2"

#: pid of the span lanes in the Chrome trace (raw device lanes are pid 0)
CHROME_PID = 1


class ProfileReport:
    """Per-directive and per-device profile of one finished run."""

    def __init__(self, rt: Any,
                 critpath: Optional[Dict[str, Any]] = None):
        self.rt = rt
        self.makespan = rt.elapsed
        #: compact critical-path headline
        #: (:meth:`repro.obs.critpath.CritPathAnalysis.headline`), when the
        #: run was analyzed
        self.critpath = critpath
        n = rt.num_devices
        self._kernel_s = [0.0] * n
        self._queue_s = [0.0] * n
        self._link_s = [0.0] * n
        #: directive id -> [first issue, last end]
        self.directive_windows: Dict[int, List[float]] = {}
        #: (directive id, chunk index or None, device) -> [first issue,
        #: last end]
        self.chunk_windows: Dict[tuple, List[float]] = {}
        for ev in rt.trace.events:
            d = ev.device
            meta = ev.meta
            busy = ev.end - ev.start
            self._queue_s[d] += busy
            if ev.category == KERNEL:
                self._kernel_s[d] += busy
            else:
                self._link_s[d] += (meta.get("wire_end", ev.end)
                                    - meta.get("wire_start", ev.start))
            did = meta.get("directive")
            if did is None:
                continue
            issue = meta.get("issue", ev.start)
            for windows, key in ((self.directive_windows, did),
                                 (self.chunk_windows,
                                  (did, meta.get("chunk"), d))):
                win = windows.get(key)
                if win is None:
                    windows[key] = [issue, ev.end]
                else:
                    if issue < win[0]:
                        win[0] = issue
                    if ev.end > win[1]:
                        win[1] = ev.end

    # -- per-directive ----------------------------------------------------------

    def per_directive_rows(self) -> List[Dict[str, Any]]:
        info = self.rt.directive_info
        counts = Counter(i["kind"] for i in info.values())
        chunks = Counter(info[did]["kind"]
                         for did, chunk in {(k[0], k[1])
                                            for k in self.chunk_windows}
                         if chunk is not None)
        durs: Dict[str, List[float]] = {}
        for did, (start, end) in self.directive_windows.items():
            durs.setdefault(info[did]["kind"], []).append(end - start)
        rows = []
        for kind in sorted(counts):
            total = sum(durs.get(kind, ()))
            rows.append({
                "kind": kind,
                "count": counts[kind],
                "total_s": total,
                "mean_s": total / counts[kind],
                "max_s": max(durs.get(kind, (0.0,))),
                "chunks": chunks[kind],
            })
        return rows

    # -- per-device -------------------------------------------------------------

    def per_device_rows(self) -> List[Dict[str, Any]]:
        chunks = Counter(d for _did, _chunk, d in self.chunk_windows)
        rows = []
        for dev, env in zip(self.rt.devices, self.rt.dataenvs):
            d = dev.device_id
            rows.append({
                "device": d,
                "h2d_bytes": dev.h2d_bytes,
                "d2h_bytes": dev.d2h_bytes,
                "memcpys": dev.memcpy_calls,
                "kernels": dev.kernels_launched,
                "kernel_s": self._kernel_s[d],
                "queue_busy_s": self._queue_s[d],
                "link_busy_s": self._link_s[d],
                "present_hits": env.reuse_count,
                "present_misses": env.enter_count,
                "memo_hits": env.memo_hits,
                "chunks": chunks[d],
            })
        return rows

    # -- run-level counters -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Task, dependence and plan-cache counters of the run."""
        rt = self.rt
        cache = rt.plan_cache
        return {
            "tasks": rt.task_count,
            "dependence_edges": rt.depend.resolved_edges,
            "plan_cache_hits": cache.hits,
            "plan_cache_misses": cache.misses,
            "plan_cache_invalidations": cache.invalidations,
            "macro_compiles": cache.macro_compiles,
            "macro_replays": cache.macro_replays,
        }

    def fault_summary(self) -> Optional[Dict[str, Any]]:
        """Resilience counters, or None if the run saw no fault activity."""
        rt = self.rt
        injector = rt.fault_injector
        out = {
            "injected": injector.injected if injector is not None else 0,
            "retries": rt.fault_retries,
            "devices_lost": len(rt.lost_devices),
            "failovers": rt.fault_failovers,
        }
        return out if any(out.values()) else None

    def analysis_summary(self) -> Optional[Dict[str, Any]]:
        """Race-sanitizer counters, or None if the sanitizer was off."""
        san = self.rt.sanitizer
        if san is None:
            return None
        return {"ops_recorded": san.ops_recorded,
                "access_checks": san.access_checks,
                "races": san.races}

    # -- rendering --------------------------------------------------------------

    def render_text(self) -> str:
        parts = []
        drows = self.per_directive_rows()
        if drows:
            parts += ["Per-directive profile", format_table(
                ["directive", "count", "total_s", "mean_s", "max_s",
                 "chunks"],
                [(r["kind"], r["count"], f"{r['total_s']:.6f}",
                  f"{r['mean_s']:.6f}", f"{r['max_s']:.6f}", r["chunks"])
                 for r in drows]), ""]
        parts += ["Per-device profile", format_table(
            ["device", "h2d", "d2h", "memcpys", "kernels", "kernel_s",
             "queue_s", "link_s", "hits", "misses", "memo", "chunks"],
            [(f"gpu{r['device']}", format_bytes(r["h2d_bytes"]),
              format_bytes(r["d2h_bytes"]), r["memcpys"], r["kernels"],
              f"{r['kernel_s']:.6f}", f"{r['queue_busy_s']:.6f}",
              f"{r['link_busy_s']:.6f}", r["present_hits"],
              r["present_misses"], r["memo_hits"], r["chunks"])
             for r in self.per_device_rows()]), ""]
        c = self.counters()
        eng = self.rt.sim.engine_stats()
        parts += [
            f"makespan: {self.makespan:.6f}s (virtual)",
            f"tasks spawned: {c['tasks']:d}",
            f"dependence edges: {c['dependence_edges']:d}",
            f"plan cache: {c['plan_cache_hits']:d} hits,"
            f" {c['plan_cache_misses']:d} misses,"
            f" {c['macro_replays']:d} macro replays",
            f"engine: {eng['events_dispatched']:d} events over "
            f"{eng['dispatches']:d} dispatches "
            f"(mean batch {eng['mean_batch']:.2f}), "
            f"{eng['fused_segments']:d} fused segments, "
            f"timeout reuse {eng['timeouts_reused']:d}/"
            f"{eng['timeouts_reused'] + eng['timeouts_created']:d}",
        ]
        fa = self.fault_summary()
        if fa is not None:
            parts.append(
                f"faults: {fa['injected']:d} injected, "
                f"{fa['retries']:d} retries, "
                f"{fa['devices_lost']:d} devices lost, "
                f"{fa['failovers']:d} failovers")
        an = self.analysis_summary()
        if an is not None:
            parts.append(
                f"sanitizer: {an['ops_recorded']:d} ops recorded, "
                f"{an['access_checks']:d} access checks, "
                f"{an['races']:d} race(s)")
        cp = self.critpath
        if cp is not None:
            parts.append(
                f"critical path: {cp['work_s']:.6f}s busy over "
                f"{cp['events']:d} events, slackness "
                f"{cp['slackness']:.2f}x")
        return "\n".join(parts)

    def to_json(self, indent: Optional[int] = None) -> str:
        """LIBOMPTARGET_PROFILE-style JSON; round-trips ``json.loads``."""
        payload = {
            "schema": PROFILE_SCHEMA,
            "makespan_s": self.makespan,
            "directives": self.per_directive_rows(),
            "devices": self.per_device_rows(),
            "counters": self.counters(),
            "engine": self.rt.sim.engine_stats(),
            "spans": {"directives": len(self.directive_windows),
                      "chunks": len(self.chunk_windows)},
        }
        fa = self.fault_summary()
        if fa is not None:
            payload["faults"] = fa
        an = self.analysis_summary()
        if an is not None:
            payload["analysis"] = an
        if self.critpath is not None:
            payload["critpath"] = self.critpath
        return json.dumps(payload, indent=indent)

    # -- Chrome trace -------------------------------------------------------------

    def chrome_records(self) -> List[dict]:
        """Span-lane records (pid 1): directive and chunk windows.

        Lanes: tid 0 = directives; tid 100+d = chunk windows on device
        *d*.  Every X record's args carry its ``directive`` id (chunk
        records also their ``chunk`` index), which links a chunk window to
        the directive window that contains it.  Device ops are not
        repeated here: the raw device lanes on pid 0 already show them.
        """
        info = self.rt.directive_info
        records: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": CHROME_PID,
            "tid": 0, "args": {"name": "directive spans"},
        }]
        lanes = {0: "directives"}

        def emit(name: str, cat: str, win: List[float], tid: int,
                 args: dict) -> None:
            records.append({"name": name, "cat": cat, "ph": "X",
                            "ts": win[0] * 1e6,
                            "dur": (win[1] - win[0]) * 1e6,
                            "pid": CHROME_PID, "tid": tid, "args": args})

        for did, win in sorted(self.directive_windows.items()):
            emit(info[did]["kind"], "span:directive", win, 0,
                 {"directive": did, "name": info[did]["name"]})
        for (did, chunk, d), win in self.chunk_windows.items():
            lanes.setdefault(100 + d, f"chunks@gpu{d}")
            emit(info[did]["kind"], "span:chunk", win, 100 + d,
                 {"directive": did, "chunk": chunk, "device": d})
        for tid, name in sorted(lanes.items()):
            records.append({"name": "thread_name", "ph": "M",
                            "pid": CHROME_PID, "tid": tid,
                            "args": {"name": name}})
            records.append({"name": "thread_sort_index", "ph": "M",
                            "pid": CHROME_PID, "tid": tid,
                            "args": {"sort_index": tid}})
        return records

    def chrome_trace(self, extra_records: Sequence[dict] = ()) -> str:
        """The run's Chrome trace with the span lanes merged in.

        ``extra_records`` are appended after the span records — the CLI
        passes the analyzer's causal flow arrows here.
        """
        return self.rt.trace.to_chrome_trace(
            extra_records=self.chrome_records() + list(extra_records))
