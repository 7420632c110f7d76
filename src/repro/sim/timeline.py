"""Fused-timeline execution for macro-replayed spread chunks.

A macro-replayed kernel chunk normally runs as a generator process: every
virtual-time segment (host overhead, issue latency, kernel time) is a
``Timeout`` the event loop delivers back into ``gen.send``.  The op
sequence of a compiled :class:`~repro.spread.macro.MacroProgram` is static,
so all of that per-op machinery re-derives the same facts on every replay.

This module replaces the generator with a **timeline walker**: per-chunk
segment durations are computed once per program with one vectorized pass
over the cost model (:meth:`CostModel.kernel_batch`, cumulative sums give
the segment-boundary table), and a slotted :class:`TimelineProc` advances
through them with pooled engine calls.  Real :class:`Event` objects are
materialized only at *interaction points* — the resource acquire for the
device queue, the ``AllOf`` join over depend/in-flight waits — and every
inert segment between them is one pooled ``_Call`` dispatch instead of a
Timeout + callback + generator resume.

**Bit identity.**  The walker arms each segment with the *individual*
durations the generator would have passed to ``sim.timeout`` (never with
cumsum differences — IEEE addition is not associative), pushes exactly one
queue entry per original Timeout boundary, and performs every resource
request/release, refcount move, trace record and exit-protocol step in the
same order at the same virtual times.  Traces and ``virtual_s`` are
therefore identical fused on or off, which ``tests/spread`` enforces.
Engagement mirrors macro replay and additionally requires that no causal
recorder or join hook observes per-op state (walkers skip ``op_begin``/
``op_end``); anything else falls back to the generator path.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.device.device import _prov_meta
from repro.sim import trace as tr
from repro.sim.engine import Process


class Timeline:
    """Per-program virtual-time segments for the steady-state kernel path.

    ``totals``/``iters``/``issue`` are per-record Python floats (exact —
    computed with the same float64 operations the scalar cost model runs);
    ``segments`` is the cumulative segment-boundary table (host overhead →
    issue → kernel) kept for observability, NOT for arming delays.
    """

    __slots__ = ("totals", "iters", "issue", "overhead", "segments")

    def __init__(self, totals: List[float], iters: List[float],
                 issue: List[float], overhead: float) -> None:
        self.totals = totals
        self.iters = iters
        self.issue = issue
        self.overhead = overhead
        n = len(totals)
        durations = np.column_stack([
            np.full(n, overhead, dtype=np.float64),
            np.asarray(issue, dtype=np.float64),
            np.asarray(totals, dtype=np.float64)])
        self.segments = np.cumsum(durations, axis=1)


def kernel_timeline(rt, prog, kernel, cfg) -> Timeline:
    """The (cached) timeline of *prog*'s kernel records under *cfg*.

    Cached on the program keyed by the launch shape and the kernel's
    arithmetic intensity — the launch config is not part of the plan-cache
    key, so one program can replay under several configs.
    """
    cache = prog.timeline
    if cache is None:
        cache = prog.timeline = {}
    key = (cfg.num_teams, cfg.threads_per_team, cfg.simd,
           kernel.work_per_iter)
    tl = cache.get(key)
    if tl is None:
        tl = cache[key] = _build_timeline(rt, prog, kernel, cfg)
    return tl


def _build_timeline(rt, prog, kernel, cfg) -> Timeline:
    cm = rt.cost_model
    n = len(prog.records)
    totals = [0.0] * n
    iters = [0.0] * n
    issue = [0.0] * n
    devices = prog.devices
    for d in np.unique(devices):
        idx = np.flatnonzero(devices == d)
        spec = rt.devices[int(d)].spec
        it, tot = cm.kernel_batch(spec, prog.bounds[idx],
                                  num_teams=cfg.num_teams,
                                  threads_per_team=cfg.threads_per_team,
                                  simd=cfg.simd,
                                  work_per_iter=kernel.work_per_iter)
        lat = spec.kernel_issue_latency
        for j, k in enumerate(idx):
            totals[k] = tot[j]
            iters[k] = it[j]
            issue[k] = lat
    return Timeline(totals, iters, issue, cm.host_task_overhead)


class _Walker(Process):
    """Shared engine plumbing for phase-machine processes.

    A walker is a :class:`Process` with ``gen=None``: events feed a
    subclass ``_advance`` phase dispatcher instead of ``gen.send``.  Inert
    virtual-time segments advance via :meth:`_arm` — one pooled engine
    call standing in for the Timeout the generator path would create, at
    the same calendar-queue position.  Subclasses may switch ``self.gen``
    to a real generator at any phase boundary and continue through
    ``Process._step`` (fallback/exit tails).
    """

    __slots__ = ()

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.gen is not None:
            Process._step(self, value, exc)
        else:
            self._advance(value, exc)

    def _on_tick(self) -> None:
        if self._waiting_on is not self:
            return  # stale wakeup (interrupted while the segment ran)
        self._waiting_on = None
        self._advance(None, None)

    def _arm(self, delay: float) -> None:
        """One inert segment: self is the wait token (so ``interrupt()``
        finds a non-None ``_waiting_on`` to invalidate), one pooled engine
        call stands in for the generator path's Timeout push."""
        sim = self.sim
        self._waiting_on = self
        sim.fused_segments += 1
        sim._schedule_fn(self._on_tick, delay)


class TimelineProc(_Walker):
    """A kernel-chunk process that walks a precomputed timeline.

    Replicates ``macro._fast_kernel_body`` + ``Device.launch_kernel`` for
    the engaged steady state (no tools, no sanitizer, no faults, no
    recorder) phase by phase:

    0. host task overhead           (inert segment)
    1. AllOf join over waits        (interaction: event)
    2. epoch check / refcounts, kernel issue latency  (inert segment)
    3. device queue acquire         (interaction: resource)
    4. kernel time                  (inert segment)
    5. functional body, release, trace, implicit-exit protocol

    Inert segments advance via one pooled engine call each
    (``sim._schedule_fn``) — same push, same position in the calendar
    queue as the Timeout the generator path would have created, so the
    global event order is unchanged.  The epoch-mismatch fallback and the
    implicit-exit copy-back tail switch ``self.gen`` to the real generator
    and continue through ``Process._step`` — exactly the object path.
    """

    __slots__ = ("rt", "rec", "kernel", "cfg", "fuse", "waits", "steady",
                 "total", "iters", "issue_lat", "overhead", "phase",
                 "dev", "env", "kenv", "held", "_req",
                 "_kstart", "_issue_ts", "_ready_ts")

    @classmethod
    def spawn(cls, sim, rt, rec, kernel, cfg, fuse: bool, waits, steady,
              tl: Timeline, index: int, prov) -> "TimelineProc":
        """Deferred walker construction (mirrors ``Process.spawn_task``)."""
        self = cls.__new__(cls)
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.gen = None
        self.name = rec.name
        self.san_clock = 0
        parent = sim.current_process
        if parent is not None:
            self.retry = parent.retry
            self.cp_heads = parent.cp_heads
        else:
            self.retry = 0
            self.cp_heads = ()
        self.prov = prov
        self._interrupts = None
        self._waiting_on = sim._proc_init
        self.rt = rt
        self.rec = rec
        self.kernel = kernel
        self.cfg = cfg
        self.fuse = fuse
        self.waits = waits
        self.steady = steady
        self.total = tl.totals[index]
        self.iters = tl.iters[index]
        self.issue_lat = tl.issue[index]
        self.overhead = tl.overhead
        self.phase = 0
        self.dev = None
        self.env = None
        self.kenv = None
        self.held = None
        self._req = None
        self._kstart = 0.0
        self._issue_ts = 0.0
        self._ready_ts = 0.0
        return self

    # -- the walk -----------------------------------------------------------

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        sim = self.sim
        sim.current_process = self
        if self._interrupts:
            self._abort(self._interrupts.popleft())
            return
        if exc is not None:
            self._abort(exc)
            return
        phase = self.phase
        if phase == 0:
            self.phase = phase = 1
            if self.overhead > 0:
                self._arm(self.overhead)
                return
        if phase == 1:
            self.phase = phase = 2
            waits = self.waits
            if waits:
                allof = sim.all_of(waits)
                if not allof._processed:
                    self._waiting_on = allof
                    allof.add_callback(self._resume)
                    return
        if phase == 2:
            rt = self.rt
            rec = self.rec
            epoch, held, kenv, _found = self.steady
            env = rt.dataenvs[rec.device_id]
            if env.epoch != epoch:
                # Present table moved between submit and run: delegate to
                # the generic op generator, exactly as the generator body
                # does.
                self.gen = self._fallback_gen()
                Process._step(self, None, None)
                return
            for _clause, _interval, entry in held:
                entry.refcount += 1
            self.env = env
            self.held = held
            self.kenv = kenv
            self.dev = rt.devices[rec.device_id]
            self._issue_ts = sim.now
            self.phase = phase = 3
            if self.issue_lat > 0:
                self._arm(self.issue_lat)
                return
        if phase == 3:
            self.phase = 4
            self._ready_ts = sim.now
            req = self.dev.queue.request(tag=self.kernel.name)
            self._req = req
            self._waiting_on = req
            req.add_callback(self._resume)
            return
        if phase == 4:
            self.phase = phase = 5
            self._kstart = sim.now
            if self.total > 0:
                self._arm(self.total)
                return
        self._finish()

    def _finish(self) -> None:
        sim = self.sim
        dev = self.dev
        kernel = self.kernel
        rec = self.rec
        req = self._req
        kenv = self.kenv
        try:
            kernel.run(rec.lo, rec.hi, kenv)
        except BaseException as err:  # noqa: BLE001 - deliver via event
            dev.queue.release(req)
            self._req = None
            self.fail(err)
            return
        dev.queue.release(req)
        self._req = None
        dev.kernels_launched += 1
        dev.trace.record(tr.KERNEL, kernel.name, lane=dev.queue.name,
                         start=self._kstart, end=sim.now,
                         device=rec.device_id,
                         lo=rec.lo, hi=rec.hi, iterations=self.iters,
                         issue=self._issue_ts, ready=self._ready_ts,
                         **_prov_meta(self))
        # Implicit exit: held refcounts usually just drop back; a count
        # hitting zero runs the full exit protocol (copy-back + release)
        # exactly as the generator body does.
        env = self.env
        copyback = []
        to_release = []
        for clause, interval, entry in self.held:
            if entry.refcount > 1:
                entry.refcount -= 1
            else:
                entry, deleted = env.exit(clause.var, interval)
                if deleted:
                    if clause.map_type.copies_out:
                        copyback.append((entry.buffer,
                                         entry.local_slice(interval),
                                         clause.var.array,
                                         interval.as_slice(),
                                         clause.var.name))
                    to_release.append(entry)
        if copyback or to_release:
            self.gen = self._exit_tail(copyback, to_release)
            Process._step(self, None, None)
            return
        self.trigger(None)

    def _fallback_gen(self):
        from repro.openmp import exec_ops

        rec = self.rec
        yield from exec_ops.kernel_op(
            self.rt, rec.device_id, self.kernel, rec.lo, rec.hi, rec.maps,
            launch=self.cfg, fuse_transfers=self.fuse, label=rec.label)

    def _exit_tail(self, copyback, to_release):
        from repro.openmp import exec_ops

        rec = self.rec
        if copyback:
            yield from exec_ops._issue_copies(self.rt, self.dev, copyback,
                                              h2d=False, fuse=self.fuse,
                                              label=rec.label)
        if to_release:
            yield from exec_ops._release_with_sync(self.rt, rec.device_id,
                                                   to_release)

    def _abort(self, exc: BaseException) -> None:
        """Mirror the generator path's unwinding: the queue slot is
        released only when the grant had been received (the generator's
        try/finally opens after ``yield req``); an ungranted queued
        request is left exactly as the object path leaves it."""
        req = self._req
        if req is not None and self.phase == 5:
            self.dev.queue.release(req)
            self._req = None
        self.fail(exc)


class _CopyProc(_Walker):
    """Base walker for one single-section, unfused memcpy.

    Replaces the ``sim.process(copy_h2d(...))`` sub-process the data ops
    spawn per section (see ``exec_ops._issue_copies``) when no observer
    needs per-op state: no fault injector, no causal recorder, no race
    sanitizer, no tools.  Every resource request/release, every timed
    segment and the final trace record happen in the order and at the
    virtual times of ``Device._copy_h2d_batch``/``_copy_d2h_batch``, so
    traces and ``virtual_s`` are bit-identical either way.
    """

    __slots__ = ("dev", "src", "sk", "dst", "dk", "cost", "phase",
                 "_queue_req", "_staging_req", "_link_req", "_snaps",
                 "_issue_ts", "_ready_ts", "_cstart", "_wire_start",
                 "_wire_end")

    @classmethod
    def spawn(cls, sim, dev, src, sk, dst, dk, name: str) -> "_CopyProc":
        """Mirror of ``Process.__init__`` for a copy sub-process: inherit
        provenance from the spawning (data-op) process and push ``_start``
        at the same calendar-queue position ``sim.process`` would."""
        self = cls.__new__(cls)
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.gen = None
        self.name = name
        self.san_clock = 0
        parent = sim.current_process
        if parent is not None:
            self.prov = parent.prov
            self.retry = parent.retry
            self.cp_heads = parent.cp_heads
        else:
            self.prov = None
            self.retry = 0
            self.cp_heads = ()
        self._interrupts = None
        self._waiting_on = sim._proc_init
        self.dev = dev
        self.src = src
        self.sk = sk
        self.dst = dst
        self.dk = dk
        self.cost = None
        self.phase = 0
        self._queue_req = None
        self._staging_req = None
        self._link_req = None
        self._snaps = None
        self._issue_ts = 0.0
        self._ready_ts = 0.0
        self._cstart = 0.0
        self._wire_start = 0.0
        self._wire_end = 0.0
        sim._schedule_fn(self._start)
        return self

    def _wait(self, req) -> None:
        self._waiting_on = req
        req.add_callback(self._resume)


class CopyH2D(_CopyProc):
    """Host-to-device copy walker (``Device._copy_h2d_batch``, one
    section, unfused):

    0. cost + issue-time queue claim, per-call latency  (inert segment)
    1. staging acquire                                  (interaction)
    2. staging time                                     (inert segment)
    3. snapshot + staging release, queue wait           (interaction)
    4. link acquire                                     (interaction)
    5. wire time                                        (inert segment)
    6. link release, commit, queue release, trace
    """

    __slots__ = ()

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        sim = self.sim
        sim.current_process = self
        if self._interrupts:
            self._abort(self._interrupts.popleft())
            return
        if exc is not None:
            self._abort(exc)
            return
        dev = self.dev
        phase = self.phase
        if phase == 0:
            cost = self.cost = dev.cost_model.transfer(
                dev.link_spec, self.src[self.sk].nbytes)
            self._issue_ts = sim.now
            # Stream slot claimed at issue time (see _copy_h2d_batch).
            self._queue_req = dev.queue.request(tag=self.name)
            self.phase = phase = 1
            if cost.latency > 0:
                self._arm(cost.latency)
                return
        if phase == 1:
            self.phase = 2
            req = self._staging_req = dev.staging.request(tag=self.name)
            self._wait(req)
            return
        if phase == 2:
            self.phase = phase = 3
            lead = dev._staging_time(self.cost.bytes)
            if lead > 0:
                self._arm(lead)
                return
        if phase == 3:
            staging_req = self._staging_req
            self._staging_req = None
            try:
                self._snaps = dev._snapshot_sections([(self.src, self.sk)])
            except BaseException as err:  # noqa: BLE001 - deliver via event
                dev.staging.release(staging_req)
                self.fail(err)
                return
            dev.staging.release(staging_req)
            self._ready_ts = sim.now
            self.phase = phase = 4
            req = self._queue_req
            if not req._processed:
                self._wait(req)
                return
            # Queue slot already granted and delivered: continue
            # synchronously, exactly as ``gen.send`` does when a yielded
            # event is already processed.
        if phase == 4:
            self._cstart = sim.now
            self.phase = 5
            req = self._link_req = dev.link.request(tag=self.name)
            self._wait(req)
            return
        if phase == 5:
            self.phase = 6
            self._wire_start = sim.now
            wire = self.cost.wire_time
            if wire > 0:
                self._arm(wire)
                return
        self._wire_end = sim.now
        dev.link.release(self._link_req)
        self._link_req = None
        try:
            dev._commit_sections([(self.dst, self.dk)], self._snaps)
        except BaseException as err:  # noqa: BLE001 - deliver via event
            dev.queue.release(self._queue_req)
            self._queue_req = None
            self.fail(err)
            return
        dev.queue.release(self._queue_req)
        self._queue_req = None
        cost = self.cost
        dev.memcpy_calls += 1
        dev.h2d_bytes += cost.bytes
        dev.trace.record(tr.H2D, self.name, lane=dev.queue.name,
                         start=self._cstart, end=sim.now,
                         device=dev.device_id, bytes=cost.bytes,
                         issue=self._issue_ts, ready=self._ready_ts,
                         wire_start=self._wire_start,
                         wire_end=self._wire_end,
                         fused=0, **_prov_meta(self))
        self.trigger(None)

    def _abort(self, exc: BaseException) -> None:
        """Replicate the generator's try/finally unwinding per phase: the
        staging try covers only the staging-time segment, the queue try
        opens after the queue grant, the link finally inside it."""
        dev = self.dev
        phase = self.phase
        if phase == 3 and self._staging_req is not None:
            dev.staging.release(self._staging_req)
            self._staging_req = None
        elif phase == 5:
            dev.queue.release(self._queue_req)
            self._queue_req = None
        elif phase == 6:
            dev.link.release(self._link_req)
            self._link_req = None
            dev.queue.release(self._queue_req)
            self._queue_req = None
        self.fail(exc)


class CopyD2H(_CopyProc):
    """Device-to-host copy walker (``Device._copy_d2h_batch``, one
    section, unfused):

    0. cost + issue-time queue claim, per-call latency  (inert segment)
    1. queue wait                                       (interaction)
    2. link acquire                                     (interaction)
    3. wire time                                        (inert segment)
    4. link release, snapshot, queue release, staging acquire (interaction)
    5. trailing staging time                            (inert segment)
    6. commit, staging release, trace
    """

    __slots__ = ()

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        sim = self.sim
        sim.current_process = self
        if self._interrupts:
            self._abort(self._interrupts.popleft())
            return
        if exc is not None:
            self._abort(exc)
            return
        dev = self.dev
        phase = self.phase
        if phase == 0:
            cost = self.cost = dev.cost_model.transfer(
                dev.link_spec, self.src[self.sk].nbytes)
            self._issue_ts = sim.now
            self._queue_req = dev.queue.request(tag=self.name)
            self.phase = phase = 1
            if cost.latency > 0:
                self._arm(cost.latency)
                return
        if phase == 1:
            self._ready_ts = sim.now
            self.phase = phase = 2
            req = self._queue_req
            if not req._processed:
                self._wait(req)
                return
            # Queue slot already granted and delivered: continue
            # synchronously, exactly as ``gen.send`` does when a yielded
            # event is already processed.
        if phase == 2:
            self._cstart = sim.now
            self.phase = 3
            req = self._link_req = dev.link.request(tag=self.name)
            self._wait(req)
            return
        if phase == 3:
            self.phase = phase = 4
            self._wire_start = sim.now
            wire = self.cost.wire_time
            if wire > 0:
                self._arm(wire)
                return
        if phase == 4:
            self._wire_end = sim.now
            dev.link.release(self._link_req)
            self._link_req = None
            queue_req = self._queue_req
            self._queue_req = None
            try:
                self._snaps = dev._snapshot_sections([(self.src, self.sk)])
            except BaseException as err:  # noqa: BLE001 - deliver via event
                dev.queue.release(queue_req)
                self.fail(err)
                return
            dev.queue.release(queue_req)
            self.phase = 5
            req = self._staging_req = dev.staging.request(tag=self.name)
            self._wait(req)
            return
        if phase == 5:
            self.phase = phase = 6
            tail = dev._staging_time(self.cost.bytes)
            if tail > 0:
                self._arm(tail)
                return
        staging_req = self._staging_req
        self._staging_req = None
        try:
            dev._commit_sections([(self.dst, self.dk)], self._snaps)
        except BaseException as err:  # noqa: BLE001 - deliver via event
            dev.staging.release(staging_req)
            self.fail(err)
            return
        dev.staging.release(staging_req)
        cost = self.cost
        dev.memcpy_calls += 1
        dev.d2h_bytes += cost.bytes
        # ``done`` > ``end`` for D2H: the trailing staging piece drains on
        # the host after the device queue slot is released.
        dev.trace.record(tr.D2H, self.name, lane=dev.queue.name,
                         start=self._cstart, end=self._wire_end,
                         device=dev.device_id, bytes=cost.bytes,
                         issue=self._issue_ts, ready=self._ready_ts,
                         wire_start=self._wire_start,
                         wire_end=self._wire_end,
                         done=sim.now, fused=0, **_prov_meta(self))
        self.trigger(None)

    def _abort(self, exc: BaseException) -> None:
        """Per-phase unwinding mirror of ``_copy_d2h_batch``: the queue
        try opens after the queue grant and covers the link/wire/snapshot
        span; the staging try covers only the trailing segment."""
        dev = self.dev
        phase = self.phase
        if phase == 3:
            dev.queue.release(self._queue_req)
            self._queue_req = None
        elif phase == 4:
            dev.link.release(self._link_req)
            self._link_req = None
            dev.queue.release(self._queue_req)
            self._queue_req = None
        elif phase == 6 and self._staging_req is not None:
            dev.staging.release(self._staging_req)
            self._staging_req = None
        self.fail(exc)
