"""A small, deterministic discrete-event simulation engine.

The engine follows the classic process-interaction style (a SimPy-like
subset, implemented from scratch): *processes* are Python generators that
``yield`` :class:`Event` objects and are resumed when those events trigger.
Determinism is guaranteed by a bucketed calendar queue with strict FIFO
ordering inside every timestamp bucket — two runs of the same program
produce identical traces, which the test suite asserts.

Only virtual time exists here; nothing sleeps.  The OpenMP runtime charges
costs through :mod:`repro.sim.costmodel` and advances this clock.
"""

from __future__ import annotations

import heapq
from collections import deque
from sys import getrefcount
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

#: Upper bound on the pooled ``Timeout``/``_Call`` freelists.  Steady-state
#: replay churns through a handful of in-flight entries per op; the cap only
#: exists so a pathological burst cannot pin memory forever.
_POOL_MAX = 1024


class SimulationError(RuntimeError):
    """Raised for engine-level protocol violations (e.g. yielding a
    non-Event, re-triggering an already triggered event)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; :meth:`trigger` (or :meth:`fail`) moves it to
    *triggered* and schedules its callbacks at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    #: causal frontier consumed by repro.obs.critpath — empty for plain
    #: events, so the engine's join hook can skip them with one attribute
    #: read; Process carries a per-instance frontier, AllOf/AnyOf merge
    #: their processed children on access.
    cp_heads = ()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ----------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- transitions ------------------------------------------------------------

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event as succeeded with *value* and enqueue callbacks."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Inline of sim._schedule_event(self) — trigger is the single
        # hottest enqueue site in the simulator.
        sim = self.sim
        t = sim.now
        sim.events_scheduled += 1
        b = sim._buckets.get(t)
        if b is None:
            sim._buckets[t] = deque((self,))
            heapq.heappush(sim._times, t)
        else:
            b.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event as failed; waiting processes receive *exc*."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule_event(self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._processed:
            # Late subscription: deliver immediately at current time.
            self.sim._schedule_fn(lambda: cb(self))
        else:
            assert self.callbacks is not None
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay)


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process *is* an event: it triggers with the generator's return value
    when the generator finishes, or fails with the escaping exception.
    Other processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("gen", "name", "san_clock", "prov", "retry",
                 "cp_heads", "_waiting_on", "_interrupts")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 defer: bool = False):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Race-sanitizer vector clock: a bitmask of the access-record bits
        # this process is ordered after (see repro.analysis.sanitizer).
        # Plain int OR operations; dead weight unless sim.san_hook is set.
        self.san_clock = 0
        # Directive/chunk provenance ``(directive_id, chunk_index,
        # rerouted_from)`` and fault-retry tag, inherited from the spawning
        # process so copy sub-processes keep their parent op's identity.
        # ``cp_heads`` holds the causal frontier (op ids of the most recent
        # completed device ops this process is ordered after) consumed by
        # repro.obs.critpath; empty tuples unless a recorder is attached.
        parent = sim.current_process
        self.prov = parent.prov if parent is not None else None
        self.retry = parent.retry if parent is not None else 0
        self.cp_heads = parent.cp_heads if parent is not None else ()
        # Interrupt queue, allocated lazily on the first interrupt() —
        # the overwhelming majority of processes are never interrupted.
        self._interrupts: Optional[Deque[Interrupt]] = None
        # Kick off at the current time.  The shared pre-triggered sentinel
        # stands in for the per-process init event the engine used to
        # allocate; _start() checks it the same way _resume() checks a real
        # wait target, so an interrupt landing before the first step still
        # wins the race.  ``defer=True`` skips the start push so a caller
        # can batch many starts into one queue transaction
        # (see Simulator.schedule_batch); it MUST schedule _start itself.
        self._waiting_on: Optional[Event] = sim._proc_init
        if not defer:
            sim._schedule_fn(self._start)

    @classmethod
    def spawn_task(cls, sim: "Simulator", gen: Generator, name: str,
                   prov) -> "Process":
        """Slim constructor for the macro-replay fast path.

        Builds a deferred task process with explicit provenance
        in one pass over the slots — no ``super().__init__`` dispatch, no
        name fallback, no parent ``prov`` read (the caller supplies it).
        ``retry``/``cp_heads`` inherit from the spawning process exactly as
        in ``__init__``; the caller MUST schedule ``_start`` itself (see
        :meth:`Simulator.schedule_batch`).
        """
        self = cls.__new__(cls)
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.gen = gen
        self.name = name
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
        return self

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        if self._interrupts is None:
            self._interrupts = deque()
        self._interrupts.append(Interrupt(cause))
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            self.sim._schedule_fn(lambda: self._step(None, None))

    # -- internal --------------------------------------------------------------

    def _start(self) -> None:
        if self._waiting_on is not self.sim._proc_init:
            return  # stale wakeup (process was interrupted before starting)
        self._waiting_on = None
        self._step(None, None)

    def _resume(self, ev: Event) -> None:
        if self._waiting_on is not ev:
            return  # stale wakeup (process was interrupted or finished)
        self._waiting_on = None
        hook = self.sim.san_hook
        if hook is not None:
            hook(self, ev)
        hook = self.sim.cp_hook
        if hook is not None:
            heads = ev.cp_heads
            if heads:
                hook(self, heads)
        if ev.ok:
            self._step(ev.value, None)
        else:
            self._step(None, ev.value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        self.sim.current_process = self
        while True:
            try:
                if self._interrupts:
                    intr = self._interrupts.popleft()
                    target = self.gen.throw(intr)
                elif exc is not None:
                    target = self.gen.throw(exc)
                else:
                    target = self.gen.send(value)
            except StopIteration as stop:
                self.trigger(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - propagate via event
                self.fail(err)
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-Event {target!r}")
                value = None
                continue
            if target._processed:
                # Already fully delivered: continue synchronously.
                hook = self.sim.san_hook
                if hook is not None:
                    hook(self, target)
                hook = self.sim.cp_hook
                if hook is not None:
                    heads = target.cp_heads
                    if heads:
                        hook(self, heads)
                if target._ok:
                    value, exc = target._value, None
                else:
                    value, exc = None, target._value
                continue
            self._waiting_on = target
            target.add_callback(self._resume)
            return


def _merged_child_heads(self) -> List[int]:
    """Causal frontiers of the processed children, concatenated (an AnyOf
    may deliver before its losers are processed; only settled children have
    trustworthy frontiers)."""
    out: List[int] = []
    for ev in self.events:
        if ev._processed:
            heads = ev.cp_heads
            if heads:
                out.extend(heads)
    return out


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Fails fast with the first failure.  The value is the list of child
    values in the original order.
    """

    __slots__ = ("events", "_remaining")

    cp_heads = property(_merged_child_heads)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.trigger([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self.events])


class AnyOf(Event):
    """Triggers as soon as any child triggers (with that child's value)."""

    __slots__ = ("events",)

    cp_heads = property(_merged_child_heads)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.trigger(None)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.trigger(ev.value)
        else:
            self.fail(ev.value)


class _Call:
    """A bare deferred function in the queue (no Event bookkeeping).

    Internal scheduling (process start, late callbacks, interrupts,
    :meth:`Simulator.schedule_call`) only ever needs "run this at time t";
    pushing a plain callable avoids the Event allocation, its callback
    list, and the processed-state transition on every hot-path launch.
    Instances never escape the engine, so dispatch recycles them through
    ``Simulator._call_pool`` — a warm replay loop allocates none.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn


class _Batch:
    """Several deferred functions in one queue entry (one transaction).

    Inside a timestamp bucket entries run in strict FIFO push order, so
    pushing ``[f0, .., fK-1]`` as one batch entry is order-identical to K
    individual :class:`_Call` pushes made back to back — anything a batched
    fn schedules lands after the batch's slot, exactly as it would after
    the corresponding individual push.  This is the macro-op replay
    engine's bulk dispatch primitive: a whole directive's task starts go
    into the calendar queue with a single push.
    """

    __slots__ = ("fns",)

    def __init__(self, fns):
        self.fns = fns


class Simulator:
    """The event loop: a bucketed calendar queue.

    ``_buckets`` maps a timestamp to the deque of entries scheduled at that
    time; ``_times`` is a heap of the distinct timestamps (an entry lives
    in ``_times`` iff its bucket exists).  Pushes append, pops take from
    the left — simultaneous events fire in scheduling order (FIFO
    tie-break), which is what makes the whole stack deterministic.  The
    run loop drains a whole bucket per dispatch, batching same-timestamp
    callback runs into one heap operation.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._buckets: dict = {}
        self._times: List[float] = []
        self._running = False
        # Freelists for the two entry types the hot path churns through.
        # _Call entries never escape the engine and recycle unconditionally;
        # Timeout events recycle only when the run loop can prove no one
        # still holds a reference (see run()).
        self._call_pool: List[_Call] = []
        self._timeout_pool: List[Timeout] = []
        # Dispatch counters (engine_* metrics; see engine_stats()).
        self.events_scheduled = 0
        self.dispatches = 0
        self.events_dispatched = 0
        #: inert virtual-time segments advanced by fused timeline walkers
        #: (repro.sim.timeline) instead of generator resumes.
        self.fused_segments = 0
        self.timeouts_created = 0
        self.timeouts_reused = 0
        self.calls_created = 0
        self.calls_reused = 0
        # Optional race-sanitizer join hook: called as hook(process, event)
        # whenever a process receives a completed event, so the sanitizer
        # can merge the event's clock into the process (happens-before
        # join).  None keeps the hot path untouched.
        self.san_hook: Optional[Callable[["Process", Event], None]] = None
        # Optional critical-path join hook (repro.obs.critpath): same call
        # sites as san_hook, merges causal frontiers across joins.
        self.cp_hook: Optional[Callable[["Process", Event], None]] = None
        # Optional causal recorder (repro.obs.critpath.CausalRecorder):
        # devices and resources report op begin/end and contention grants
        # through it.  None keeps every hot path untouched.
        self.recorder: Any = None
        # The process currently being stepped; lets spawned sub-processes
        # inherit provenance and lets devices tag trace events with the
        # issuing process's directive/chunk/retry identity.
        self.current_process: Optional["Process"] = None
        # Shared already-processed event used as every Process's initial
        # wait target (see Process.__init__ / Process._start).
        self._proc_init = Event(self)
        self._proc_init._triggered = True
        self._proc_init._processed = True
        self._proc_init.callbacks = None

    # -- scheduling ------------------------------------------------------------

    def _push(self, t: float, entry: Any) -> None:
        self.events_scheduled += 1
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = deque((entry,))
            heapq.heappush(self._times, t)
        else:
            b.append(entry)

    # _schedule_event/_schedule_fn inline the _push body: together they
    # account for most queue insertions, and the extra call frame is
    # measurable at this volume.

    def _schedule_event(self, ev: Event, delay: float = 0.0) -> None:
        t = self.now + delay
        self.events_scheduled += 1
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = deque((ev,))
            heapq.heappush(self._times, t)
        else:
            b.append(ev)

    def _schedule_fn(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        pool = self._call_pool
        if pool:
            c = pool.pop()
            c.fn = fn
            self.calls_reused += 1
        else:
            c = _Call(fn)
            self.calls_created += 1
        t = self.now + delay
        self.events_scheduled += 1
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = deque((c,))
            heapq.heappush(self._times, t)
        else:
            b.append(c)

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* after *delay* virtual seconds."""
        self._schedule_fn(fn, delay)

    def schedule_batch(self, fns: List[Callable[[], None]]) -> None:
        """Run *fns* in order at the current time, in ONE queue transaction.

        Pushes a single :class:`_Batch` entry, which is observably
        identical to ``len(fns)`` individual ``_schedule_fn`` pushes (see
        :class:`_Batch`) while costing one queue operation.
        """
        n = len(fns)
        if n == 0:
            return
        if n == 1:
            self._schedule_fn(fns[0])
            return
        self._push(self.now, _Batch(fns))
        self.events_scheduled += n - 1  # _push counted one

    # -- factories -------------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._ok = True
            t._triggered = True
            t._processed = False
            t.delay = delay
            when = self.now + delay
            self.events_scheduled += 1
            b = self._buckets.get(when)
            if b is None:
                self._buckets[when] = deque((t,))
                heapq.heappush(self._times, when)
            else:
                b.append(t)
            self.timeouts_reused += 1
            return t
        self.timeouts_created += 1
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------------

    def _dispatch(self, ev: Any) -> None:
        """Deliver one popped entry (shared by step(); run() inlines this)."""
        self.events_dispatched += 1
        if type(ev) is _Call:
            fn = ev.fn
            ev.fn = None
            if len(self._call_pool) < _POOL_MAX:
                self._call_pool.append(ev)
            fn()
            self.current_process = None
            return
        if type(ev) is _Batch:
            for fn in ev.fns:
                fn()
                # Match per-_Call semantics: each fn gets a clean slate,
                # as if it had been popped from its own queue entry.
                self.current_process = None
            return
        callbacks = ev.callbacks
        ev.callbacks = None
        ev._processed = True
        if callbacks:
            for cb in callbacks:
                cb(ev)
        self.current_process = None

    def step(self) -> None:
        """Process one entry from the calendar queue."""
        t = self._times[0]
        if t < self.now:
            raise SimulationError("time went backwards")
        self.now = t
        b = self._buckets[t]
        ev = b.popleft()
        if not b:
            del self._buckets[t]
            heapq.heappop(self._times)
        self.dispatches += 1
        self._dispatch(ev)

    def run(self, until: Optional[Event | float] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an :class:`Event` (returns its value, re-raising a
        failure), a float deadline, or None (drain everything).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        times = self._times
        buckets = self._buckets
        call_pool = self._call_pool
        timeout_pool = self._timeout_pool
        try:
            sentinel = until if isinstance(until, Event) else None
            deadline = None
            if sentinel is None and until is not None:
                deadline = float(until)
            # The two loops below are the engine's hottest code: a whole
            # timestamp bucket drains per heap operation, with the entry
            # dispatch inlined (no per-entry method call).  _Call entries
            # are engine-internal and recycle unconditionally; a Timeout
            # recycles only when, after its callbacks ran, this frame holds
            # the sole remaining reference (waiters clear _waiting_on
            # before stepping; AllOf children, run(until=timeout)
            # sentinels and user-held handles keep a ref and skip the
            # pool).  getrefcount(ev) == 2 counts exactly this frame's
            # local plus getrefcount's own argument.
            while times:
                if sentinel is not None and sentinel._processed:
                    break
                t = times[0]
                if deadline is not None and t > deadline:
                    self.now = deadline
                    return None
                if t < self.now:
                    raise SimulationError("time went backwards")
                self.now = t
                b = buckets[t]
                self.dispatches += 1
                while b:
                    if sentinel is not None and sentinel._processed:
                        break
                    ev = b.popleft()
                    self.events_dispatched += 1
                    tp = type(ev)
                    if tp is _Call:
                        fn = ev.fn
                        ev.fn = None
                        if len(call_pool) < _POOL_MAX:
                            call_pool.append(ev)
                        fn()
                        self.current_process = None
                        continue
                    if tp is _Batch:
                        for fn in ev.fns:
                            fn()
                            self.current_process = None
                        continue
                    callbacks = ev.callbacks
                    ev.callbacks = None
                    ev._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(ev)
                    self.current_process = None
                    if tp is Timeout and len(timeout_pool) < _POOL_MAX \
                            and getrefcount(ev) == 2:
                        timeout_pool.append(ev)
                if not b:
                    del buckets[t]
                    heapq.heappop(times)
            if sentinel is not None:
                if not sentinel._triggered:
                    raise SimulationError(
                        "run(until=event) exhausted the queue before the "
                        "event triggered (deadlock?)")
                if sentinel.ok:
                    return sentinel.value
                raise sentinel.value
            if deadline is not None:
                self.now = max(self.now, deadline)
            return None
        finally:
            self._running = False

    def engine_stats(self) -> dict:
        """Dispatch/allocation counters for the engine_* metrics."""
        d = self.dispatches
        return {
            "events_scheduled": self.events_scheduled,
            "dispatches": d,
            "events_dispatched": self.events_dispatched,
            "fused_segments": self.fused_segments,
            "mean_batch": (self.events_dispatched / d) if d else 0.0,
            "timeouts_created": self.timeouts_created,
            "timeouts_reused": self.timeouts_reused,
            "calls_created": self.calls_created,
            "calls_reused": self.calls_reused,
        }

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        return self._times[0] if self._times else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pending = sum(len(b) for b in self._buckets.values())
        return f"<Simulator now={self.now} pending={pending}>"
