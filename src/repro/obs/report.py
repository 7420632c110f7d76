"""Profiling reports: per-directive and per-device breakdowns.

The text renderer mimics ``LIBOMPTARGET_PROFILE``'s end-of-run summary
(aligned tables of region timers and data-movement counters); ``to_json``
emits the machine-readable equivalent that CLI ``--metrics-json`` and the
bench harness persist.  :class:`Profiler` is the convenience bundle the CLI
uses: one :class:`~repro.obs.builtin.MetricsTool` plus one
:class:`~repro.obs.spans.SpanRecorder`, registered together.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.builtin import MetricsTool
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.util.format import format_bytes, format_table

PROFILE_SCHEMA = "repro-profile-1"


def _label(inst: Any, key: str) -> Optional[str]:
    return dict(inst.labels).get(key)


class ProfileReport:
    """Aggregated view over one run's metrics (and optionally its spans)."""

    def __init__(self, registry: MetricsRegistry,
                 spans: Optional[SpanRecorder] = None,
                 makespan: float = 0.0,
                 critpath: Optional[Dict[str, Any]] = None):
        self.registry = registry
        self.spans = spans
        self.makespan = makespan
        #: compact critical-path headline
        #: (:meth:`repro.obs.critpath.CritPathAnalysis.headline`), when the
        #: run was analyzed
        self.critpath = critpath

    # -- per-directive ----------------------------------------------------------

    def directive_kinds(self) -> List[str]:
        kinds = {_label(t, "kind") for t in self.registry.timers("directive_time")}
        kinds |= {_label(c, "kind") for c in self.registry.counters("directives")}
        return sorted(k for k in kinds if k is not None)

    def per_directive_rows(self) -> List[Dict[str, Any]]:
        reg = self.registry
        # The encountering-task window (directive_time) is ~0 for nowait
        # directives; finalized spans cover the fanned-out chunk tasks too,
        # so prefer them when a SpanRecorder rode along.
        span_durs: Dict[str, List[float]] = {}
        if self.spans is not None:
            for span in self.spans.directive_spans():
                span_durs.setdefault(span.name, []).append(span.duration)
        rows = []
        for kind in self.directive_kinds():
            durs = span_durs.get(kind)
            if durs:
                total, peak = sum(durs), max(durs)
                count = len(durs)
            else:
                timer = reg.timer("directive_time", kind=kind)
                total, peak = timer.sum, timer.max
                count = int(reg.counter_value("directives", kind=kind))
            rows.append({
                "kind": kind,
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
                "max_s": peak,
                "chunks": int(reg.counter_value("spread_chunks", kind=kind)),
            })
        return rows

    # -- per-device -------------------------------------------------------------

    def device_ids(self) -> List[int]:
        devs = set()
        for c in self.registry.counters():
            d = _label(c, "device")
            if d is not None:
                devs.add(int(d))
        for g in self.registry.gauges("device_memory_bytes"):
            d = _label(g, "device")
            if d is not None:
                devs.add(int(d))
        return sorted(devs)

    def per_device_rows(self) -> List[Dict[str, Any]]:
        reg = self.registry
        rows = []
        for d in self.device_ids():
            kernel_timer = reg.timer("kernel_time", device=d)
            rows.append({
                "device": d,
                "h2d_bytes": reg.counter_value("bytes_moved", device=d,
                                               dir="h2d"),
                "d2h_bytes": reg.counter_value("bytes_moved", device=d,
                                               dir="d2h"),
                "memcpys": int(reg.sum_counter("memcpy_calls", device=d)),
                "kernels": int(reg.counter_value("kernels_launched",
                                                 device=d)),
                "kernel_s": kernel_timer.sum,
                "queue_busy_s": reg.counter_value("queue_busy_seconds",
                                                  device=d),
                "link_busy_s": reg.counter_value("link_busy_seconds",
                                                 device=d),
                "present_hits": int(reg.counter_value("present_hits",
                                                      device=d)),
                "present_misses": int(reg.counter_value("present_misses",
                                                        device=d)),
                "memo_hits": int(reg.counter_value("present_memo_hits",
                                                   device=d)),
                "submits": int(reg.counter_value("target_submits",
                                                 device=d)),
            })
        return rows

    # -- event engine -------------------------------------------------------------

    def engine_summary(self) -> Optional[Dict[str, Any]]:
        """Calendar-queue dispatch counters, or None when the run's engine
        stats were never ingested (see ``MetricsTool.observe_engine``)."""
        reg = self.registry
        dispatches = int(reg.counter_value("engine_dispatches"))
        if dispatches == 0:
            return None
        scheduled = int(reg.counter_value("engine_events_scheduled"))
        dispatched = int(reg.counter_value("engine_events_dispatched"))
        gauges = reg.gauges("engine_mean_batch")
        return {
            "events_scheduled": scheduled,
            "dispatches": dispatches,
            "events_dispatched": dispatched,
            "mean_batch": gauges[0].value if gauges else (
                dispatched / dispatches),
            "fused_segments": int(
                reg.counter_value("engine_fused_segments")),
            "timeouts_created": int(
                reg.counter_value("engine_timeouts_created")),
            "timeouts_reused": int(
                reg.counter_value("engine_timeouts_reused")),
            "calls_created": int(reg.counter_value("engine_calls_created")),
            "calls_reused": int(reg.counter_value("engine_calls_reused")),
        }

    # -- fault injection ----------------------------------------------------------

    def fault_summary(self) -> Optional[Dict[str, Any]]:
        """Resilience counters, or None if the run saw no fault activity."""
        reg = self.registry
        injected = int(reg.sum_counter("faults_injected"))
        retries = int(reg.sum_counter("fault_retries"))
        lost = int(reg.counter_value("devices_lost"))
        failovers = int(reg.sum_counter("fault_failovers"))
        giveups = int(reg.sum_counter("fault_giveups"))
        if not (injected or retries or lost or failovers or giveups):
            return None
        return {
            "injected": injected,
            "retries": retries,
            "backoff_s": reg.counter_value("fault_backoff_seconds"),
            "giveups": giveups,
            "devices_lost": lost,
            "failovers": failovers,
        }

    # -- race sanitizer -----------------------------------------------------------

    def analysis_summary(self) -> Optional[Dict[str, Any]]:
        """Race-sanitizer counters, or None if the sanitizer was off."""
        reg = self.registry
        ops = int(reg.sum_counter("analysis_ops_recorded"))
        if ops == 0:
            return None
        return {
            "ops_recorded": ops,
            "access_checks": int(reg.counter_value("analysis_access_checks")),
            "races": int(reg.counter_value("analysis_races")),
        }

    # -- rendering --------------------------------------------------------------

    def render_text(self) -> str:
        parts = []
        drows = self.per_directive_rows()
        if drows:
            parts.append("Per-directive profile")
            parts.append(format_table(
                ["directive", "count", "total_s", "mean_s", "max_s",
                 "chunks"],
                [(r["kind"], r["count"], f"{r['total_s']:.6f}",
                  f"{r['mean_s']:.6f}", f"{r['max_s']:.6f}", r["chunks"])
                 for r in drows]))
        vrows = self.per_device_rows()
        if vrows:
            parts.append("")
            parts.append("Per-device profile")
            parts.append(format_table(
                ["device", "h2d", "d2h", "memcpys", "kernels", "kernel_s",
                 "queue_s", "link_s", "hits", "misses", "memo", "submits"],
                [(f"gpu{r['device']}", format_bytes(r["h2d_bytes"]),
                  format_bytes(r["d2h_bytes"]), r["memcpys"], r["kernels"],
                  f"{r['kernel_s']:.6f}", f"{r['queue_busy_s']:.6f}",
                  f"{r['link_busy_s']:.6f}", r["present_hits"],
                  r["present_misses"], r["memo_hits"], r["submits"])
                 for r in vrows]))
        reg = self.registry
        totals = [
            f"makespan: {self.makespan:.6f}s (virtual)",
            f"tasks spawned: {int(reg.counter_value('tasks_spawned')):d}"
            f" (deferred: {int(reg.counter_value('tasks_deferred')):d})",
            f"dependence edges: {int(reg.counter_value('dependence_edges')):d}",
            f"plan cache: {int(reg.sum_counter('plan_cache_hits')):d} hits,"
            f" {int(reg.sum_counter('plan_cache_misses')):d} misses",
        ]
        eng = self.engine_summary()
        if eng is not None:
            totals.append(
                f"engine: {eng['events_dispatched']:d} events over "
                f"{eng['dispatches']:d} dispatches "
                f"(mean batch {eng['mean_batch']:.2f}), "
                f"{eng['fused_segments']:d} fused segments, "
                f"timeout reuse {eng['timeouts_reused']:d}/"
                f"{eng['timeouts_reused'] + eng['timeouts_created']:d}")
        fa = self.fault_summary()
        if fa is not None:
            totals.append(
                f"faults: {fa['injected']:d} injected, "
                f"{fa['retries']:d} retries "
                f"({fa['backoff_s'] * 1e6:.0f}us backoff), "
                f"{fa['giveups']:d} giveups, "
                f"{fa['devices_lost']:d} devices lost, "
                f"{fa['failovers']:d} failovers")
        an = self.analysis_summary()
        if an is not None:
            totals.append(
                f"sanitizer: {an['ops_recorded']:d} ops recorded, "
                f"{an['access_checks']:d} access checks, "
                f"{an['races']:d} race(s)")
        cp = self.critpath
        if cp is not None:
            totals.append(
                f"critical path: {cp['work_s']:.6f}s busy over "
                f"{cp['events']:d} events, slackness "
                f"{cp['slackness']:.2f}x")
        parts.append("")
        parts.extend(totals)
        return "\n".join(parts) if (drows or vrows) else (
            "\n".join(["(no profile data recorded)"] + totals))

    def to_json(self, indent: Optional[int] = None) -> str:
        """LIBOMPTARGET_PROFILE-style JSON; round-trips ``json.loads``."""
        payload = {
            "schema": PROFILE_SCHEMA,
            "makespan_s": self.makespan,
            "directives": self.per_directive_rows(),
            "devices": self.per_device_rows(),
            "counters": self.registry.snapshot(),
        }
        eng = self.engine_summary()
        if eng is not None:
            payload["engine"] = eng
        fa = self.fault_summary()
        if fa is not None:
            payload["faults"] = fa
        an = self.analysis_summary()
        if an is not None:
            payload["analysis"] = an
        if self.critpath is not None:
            payload["critpath"] = self.critpath
        if self.spans is not None:
            self.spans.finalize()
            payload["spans"] = {
                "directives": len(self.spans.directives),
                "tasks": len(self.spans.tasks),
                "ops": len(self.spans.ops),
            }
        return json.dumps(payload, indent=indent, sort_keys=False)


class Profiler:
    """The CLI/bench bundle: metrics tool + span recorder, one register call.

    ::

        prof = Profiler()
        result = run_somier(..., tools=prof.tools)
        print(prof.report(result.elapsed).render_text())
        path.write_text(prof.chrome_trace(result.runtime.trace))
    """

    def __init__(self) -> None:
        self.metrics = MetricsTool()
        self.spans = SpanRecorder()

    @property
    def tools(self) -> Tuple[MetricsTool, SpanRecorder]:
        return (self.metrics, self.spans)

    @property
    def registry(self) -> MetricsRegistry:
        return self.metrics.registry

    def report(self, makespan: float = 0.0,
               critpath: Optional[Dict[str, Any]] = None) -> ProfileReport:
        return ProfileReport(self.registry, spans=self.spans,
                             makespan=makespan, critpath=critpath)

    def chrome_trace(self, trace: Any,
                     extra_records: Sequence[dict] = ()) -> str:
        """The run's Chrome trace with nested spans merged in.

        ``extra_records`` are appended after the span records — the CLI
        passes the analyzer's causal flow arrows here.
        """
        return trace.to_chrome_trace(
            extra_records=self.spans.to_chrome_records()
            + list(extra_records))
