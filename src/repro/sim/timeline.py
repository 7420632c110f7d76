"""Fused-timeline execution for macro-replayed spread chunks.

A macro-replayed kernel chunk normally runs as a generator process: every
virtual-time segment (host overhead, issue latency, kernel time) is a
``Timeout`` the event loop delivers back into ``gen.send``.  The op
sequence of a compiled :class:`~repro.spread.macro.MacroProgram` is static,
so all of that per-op machinery re-derives the same facts on every replay.

This module replaces the generator with a **timeline walker**: per-chunk
segment durations are computed once per program with the same scalar
cost-model call the generator path makes (:meth:`CostModel.kernel`, as in
``Device.launch_kernel``), and a slotted :class:`TimelineProc` advances
through them with pooled engine calls.  Real :class:`Event` objects are
materialized only at *interaction points* — the resource acquire for the
device queue, the ``AllOf`` join over depend/in-flight waits — and every
inert segment between them is one pooled ``_Call`` dispatch instead of a
Timeout + callback + generator resume.

**Bit identity.**  The walker arms each segment with the *individual*
durations the generator would have passed to ``sim.timeout``, pushes
exactly one queue entry per original Timeout boundary, and performs every
resource request/release, refcount move, trace record and exit-protocol
step in the same order at the same virtual times.  Traces and
``virtual_s`` are therefore identical on either path, which
``tests/spread`` enforces.  Walkers report to the causal recorder at the
generator bodies' points (``op_begin``, request owners, ``op_end``, joins),
so an analysed run walks as a plain one does.  :func:`walkers_engaged` is
the one place that decides whether walkers may run: walkers skip tool
callbacks, fault checks and sanitizer joins, so a tool, a fault injector
or the sanitizer keeps the generator path.  Copies on devices behind an
inter-node network link walk too: the hop is one more acquire–hold–release
phase (``tests/integration/test_cluster.py`` holds them bit-identical).

A kernel walker drops its device views and present-table entries when its
walk ends, so the finished walkers a run keeps in its task list pin no
device memory.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.device.device import _prov_meta
from repro.sim import trace as tr
from repro.sim.engine import Process


def walkers_engaged(rt) -> bool:
    """True when timeline walkers may stand in for generator processes.

    Nothing may observe or perturb the per-op steps walkers skip: no
    tools, no fault injector and no sanitizer.  Callers add their own
    terms: macro replay (:func:`repro.spread.macro.engaged`) no lost
    device, the copy site this device not lost.
    """
    return (not rt.tools and rt.fault_injector is None
            and rt.sanitizer is None)


class Timeline:
    """Per-program virtual-time segments for the steady-state kernel path.

    ``totals``/``iters``/``issue`` are per-record Python floats, computed
    by the scalar cost model exactly as the generator path computes them.
    """

    __slots__ = ("totals", "iters", "issue", "overhead")

    def __init__(self, totals: List[float], iters: List[float],
                 issue: List[float], overhead: float) -> None:
        self.totals = totals
        self.iters = iters
        self.issue = issue
        self.overhead = overhead


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
    totals: List[float] = []
    iters: List[float] = []
    issue: List[float] = []
    for rec in prog.records:
        spec = rt.devices[rec.device_id].spec
        cost = cm.kernel(spec, float(rec.hi - rec.lo),
                         num_teams=cfg.num_teams,
                         threads_per_team=cfg.threads_per_team,
                         simd=cfg.simd, work_per_iter=kernel.work_per_iter)
        totals.append(cost.total)
        iters.append(cost.iterations)
        issue.append(spec.kernel_issue_latency)
    return Timeline(totals, iters, issue, cm.host_task_overhead)


class _Walker(Process):
    """Shared engine plumbing for phase-machine processes.

    A walker is a :class:`Process` with ``gen=None``: events feed a
    subclass ``_advance`` phase dispatcher instead of ``gen.send``.  Inert
    virtual-time segments advance via :meth:`_arm` — one pooled engine
    call standing in for the Timeout the generator path would create, at
    the same calendar-queue position.  Subclasses may switch ``self.gen``
    to a real generator at any phase boundary and continue through
    ``Process._step`` (fallback/exit tails).  ``op`` is the walk's causal
    recorder op id (None without a recorder), the owner of every resource
    request it makes.
    """

    __slots__ = ("op",)

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

    def _begin_op(self) -> None:
        """``op_begin`` where the generator body calls it."""
        recorder = self.sim.recorder
        self.op = recorder.op_begin(self) if recorder is not None else None

    def _end_op(self, event_index: Optional[int]) -> None:
        """``op_end`` right after the op's trace record."""
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.op_end(self.op, self, event_index)


class TimelineProc(_Walker):
    """A kernel-chunk process that walks a precomputed timeline.

    Runs a replayed chunk whose maps are all present, phase by phase as
    ``kernel_op`` (its all-present case) and ``Device.launch_kernel`` would
    on a generator process:

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
                # Already delivered: join its causal frontier, as
                # ``Process._step`` does for a processed event.
                hook = sim.cp_hook
                if hook is not None:
                    heads = allof.cp_heads
                    if heads:
                        hook(self, heads)
        if phase == 2:
            rt = self.rt
            rec = self.rec
            epoch, held, kenv, _found = self.steady
            env = rt.dataenvs[rec.device_id]
            if env.epoch != epoch:
                # Present table moved between submit and run: the generic
                # op generator takes over, resolving the maps afresh.
                self.steady = self.waits = None
                self.gen = self._fallback_gen()
                Process._step(self, None, None)
                return
            for _clause, _interval, entry in held:
                entry.refcount += 1
            self.env = env
            self.held = held
            self.kenv = kenv
            self.dev = rt.devices[rec.device_id]
            self._begin_op()
            self._issue_ts = sim.now
            self.phase = phase = 3
            if self.issue_lat > 0:
                self._arm(self.issue_lat)
                return
        if phase == 3:
            self.phase = 4
            self._ready_ts = sim.now
            req = self.dev.queue.request(tag=self.kernel.name)
            req.owner = self.op
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
        idx = None
        if dev.trace.enabled:
            idx = dev.trace.record(
                tr.KERNEL, kernel.name, lane=dev.queue.name,
                start=self._kstart, end=sim.now, device=rec.device_id,
                lo=rec.lo, hi=rec.hi, iterations=self.iters,
                issue=self._issue_ts, ready=self._ready_ts,
                **_prov_meta(self))
        self._end_op(idx)
        # Implicit exit: held refcounts usually just drop back; a count
        # hitting zero runs the full exit protocol (copy-back + release)
        # exactly as ``kernel_op`` does.
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
        # The walk is over: drop the views and entries, so a finished
        # walker keeps no device buffer reachable.
        self.kenv = self.held = self.env = self.steady = self.waits = None
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
                                              label=rec.label, exclusive=True)
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


#: trace meta of a copy that crossed no network link
_NO_NET: dict = {}


class _CopyProc(_Walker):
    """Base walker for one single-section, unfused memcpy.

    Replaces the ``sim.process(copy_h2d(...))`` sub-process the data ops
    spawn per section (see ``exec_ops._issue_copies``) when
    :func:`walkers_engaged` holds and the device is not lost.  Every
    resource request/release, every timed segment, every causal-recorder
    call and the final trace record happen in the order and at the virtual
    times of ``Device._copy_h2d_batch``/``_copy_d2h_batch``, so traces,
    recorded edges and ``virtual_s`` are bit-identical either way.  On a
    device behind an inter-node network link the walk gains the hop of
    ``Device._network_hop``: acquire the node's network, hold it for
    ``latency + wire_time`` in one segment, release it and count
    ``net_bytes``.  An ``exclusive`` walker moves its bytes once, with no
    snapshot, where the generator body's ``exclusive`` branch does.
    """

    __slots__ = ("dev", "src", "sk", "dst", "dk", "exclusive", "cost",
                 "phase",
                 "_queue_req", "_staging_req", "_link_req", "_snaps",
                 "_issue_ts", "_ready_ts", "_cstart", "_wire_start",
                 "_wire_end", "_net_req", "net_cost", "net_meta")

    @classmethod
    def spawn(cls, sim, dev, src, sk, dst, dk, name: str,
              exclusive: bool = False) -> "_CopyProc":
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
        self.exclusive = exclusive
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
        self._net_req = None
        self.net_cost = None
        self.net_meta = _NO_NET
        sim._schedule_fn(self._start)
        return self

    def _claim(self, resource):
        """A request on *resource* owned by this walk's op."""
        req = resource.request(tag=self.name)
        req.owner = self.op
        return req

    def _wait(self, req) -> None:
        self._waiting_on = req
        req.add_callback(self._resume)

    # -- the network hop (``Device._network_hop``) -------------------------

    def _net_acquire(self, phase: int) -> None:
        """Request the node's network link; wait for the grant in *phase*."""
        dev = self.dev
        self.net_cost = dev.cost_model.network_transfer(
            dev.network_spec, self.src[self.sk].nbytes)
        self.phase = phase
        req = self._net_req = self._claim(dev.network)
        self._wait(req)

    def _net_hold(self) -> bool:
        """Granted: latency and wire time as one segment (True if armed)."""
        self.net_meta = {"net_start": self.sim.now}
        cost = self.net_cost
        total = cost.latency + cost.wire_time
        if total > 0:
            self._arm(total)
            return True
        return False

    def _net_release(self) -> None:
        dev = self.dev
        self.net_meta["net_end"] = self.sim.now
        self.net_meta["node"] = dev.node_id
        dev.network.release(self._net_req)
        self._net_req = None
        dev.net_bytes += self.net_cost.bytes


class CopyH2D(_CopyProc):
    """Host-to-device copy walker (``Device._copy_h2d_batch``, one
    section, unfused):

    0. cost + issue-time queue claim, per-call latency  (inert segment)
    1. staging acquire                                  (interaction)
    2. staging time                                     (inert segment)
    3. snapshot (exclusive: move) + staging release,
       network acquire                                  (interaction)
    4. network hold                                     (inert segment)
    5. network release, queue wait                      (interaction)
    6. link acquire                                     (interaction)
    7. wire time                                        (inert segment)
    8. link release, commit (exclusive: none), queue release, trace

    Phase 3's network acquire and phase 4 run on networked devices only.
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
            self._begin_op()
            cost = self.cost = dev.cost_model.transfer(
                dev.link_spec, self.src[self.sk].nbytes)
            self._issue_ts = sim.now
            # Stream slot claimed at issue time (see _copy_h2d_batch).
            self._queue_req = self._claim(dev.queue)
            self.phase = phase = 1
            if cost.latency > 0:
                self._arm(cost.latency)
                return
        if phase == 1:
            self.phase = 2
            req = self._staging_req = self._claim(dev.staging)
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
                if self.exclusive:
                    self.dst[self.dk] = self.src[self.sk]
                else:
                    self._snaps = dev._snapshot_sections(
                        [(self.src, self.sk)])
            except BaseException as err:  # noqa: BLE001 - deliver via event
                dev.staging.release(staging_req)
                self.fail(err)
                return
            dev.staging.release(staging_req)
            if dev.network is not None:
                # Staged bytes travel root host -> this node first.
                self._net_acquire(4)
                return
            phase = 5
        if phase == 4:
            self.phase = phase = 5
            if self._net_hold():
                return
        if phase == 5:
            if self._net_req is not None:
                self._net_release()
            self._ready_ts = sim.now
            self.phase = phase = 6
            req = self._queue_req
            if not req._processed:
                self._wait(req)
                return
            # Queue slot already granted and delivered: continue
            # synchronously, exactly as ``gen.send`` does when a yielded
            # event is already processed.
        if phase == 6:
            self._cstart = sim.now
            self.phase = 7
            req = self._link_req = self._claim(dev.link)
            self._wait(req)
            return
        if phase == 7:
            self.phase = 8
            self._wire_start = sim.now
            wire = self.cost.wire_time
            if wire > 0:
                self._arm(wire)
                return
        self._wire_end = sim.now
        dev.link.release(self._link_req)
        self._link_req = None
        snaps, self._snaps = self._snaps, None
        try:
            if snaps is not None:
                dev._commit_sections([(self.dst, self.dk)], snaps)
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
        idx = None
        if dev.trace.enabled:
            idx = dev.trace.record(
                tr.H2D, self.name, lane=dev.queue.name, start=self._cstart,
                end=sim.now, device=dev.device_id, bytes=cost.bytes,
                issue=self._issue_ts, ready=self._ready_ts,
                wire_start=self._wire_start, wire_end=self._wire_end,
                fused=0, **self.net_meta, **_prov_meta(self))
        self._end_op(idx)
        self.trigger(None)

    def _abort(self, exc: BaseException) -> None:
        """Replicate the generator's try/finally unwinding per phase: the
        staging try covers only the staging-time segment, the network
        hop's only its hold, the queue try opens after the queue grant,
        the link finally inside it."""
        dev = self.dev
        phase = self.phase
        if phase == 3 and self._staging_req is not None:
            dev.staging.release(self._staging_req)
            self._staging_req = None
        elif phase == 5 and self._net_req is not None:
            dev.network.release(self._net_req)
            self._net_req = None
        elif phase == 7:
            dev.queue.release(self._queue_req)
            self._queue_req = None
        elif phase == 8:
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
    4. link release, snapshot (exclusive: none), queue release,
       network acquire                                  (interaction)
    5. network hold                                     (inert segment)
    6. network release, staging acquire                 (interaction)
    7. trailing staging time                            (inert segment)
    8. commit (exclusive: move), staging release, trace

    Phase 4's network acquire and phase 5 run on networked devices only.
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
            self._begin_op()
            cost = self.cost = dev.cost_model.transfer(
                dev.link_spec, self.src[self.sk].nbytes)
            self._issue_ts = sim.now
            self._queue_req = self._claim(dev.queue)
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
            req = self._link_req = self._claim(dev.link)
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
                if not self.exclusive:
                    self._snaps = dev._snapshot_sections(
                        [(self.src, self.sk)])
            except BaseException as err:  # noqa: BLE001 - deliver via event
                dev.queue.release(queue_req)
                self.fail(err)
                return
            dev.queue.release(queue_req)
            if dev.network is not None:
                # Drained bytes travel this node -> root host first.
                self._net_acquire(5)
                return
            phase = 6
        if phase == 5:
            self.phase = phase = 6
            if self._net_hold():
                return
        if phase == 6:
            if self._net_req is not None:
                self._net_release()
            self.phase = 7
            req = self._staging_req = self._claim(dev.staging)
            self._wait(req)
            return
        if phase == 7:
            self.phase = phase = 8
            tail = dev._staging_time(self.cost.bytes)
            if tail > 0:
                self._arm(tail)
                return
        staging_req = self._staging_req
        self._staging_req = None
        snaps, self._snaps = self._snaps, None
        try:
            if self.exclusive:
                self.dst[self.dk] = self.src[self.sk]
            else:
                dev._commit_sections([(self.dst, self.dk)], snaps)
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
        idx = None
        if dev.trace.enabled:
            idx = dev.trace.record(
                tr.D2H, self.name, lane=dev.queue.name, start=self._cstart,
                end=self._wire_end, device=dev.device_id, bytes=cost.bytes,
                issue=self._issue_ts, ready=self._ready_ts,
                wire_start=self._wire_start, wire_end=self._wire_end,
                done=sim.now, fused=0, **self.net_meta, **_prov_meta(self))
        self._end_op(idx)
        self.trigger(None)

    def _abort(self, exc: BaseException) -> None:
        """Per-phase unwinding mirror of ``_copy_d2h_batch``: the queue
        try opens after the queue grant and covers the link/wire/snapshot
        span; the network hop's try covers only its hold; the staging try
        covers only the trailing segment."""
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
        elif phase == 6 and self._net_req is not None:
            dev.network.release(self._net_req)
            self._net_req = None
        elif phase == 8 and self._staging_req is not None:
            dev.staging.release(self._staging_req)
            self._staging_req = None
        self.fail(exc)
