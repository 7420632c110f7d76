"""Explicit tasks, taskwait, taskgroup and taskloop.

Host programs are generator functions; a :class:`TaskCtx` is their handle to
the tasking runtime — the analogue of "the current implicit/explicit task" in
OpenMP.  Creating a task spawns a new simulator process bound to a child
context; blocking constructs (``taskwait``, the end of a ``taskgroup``) are
generators driven with ``yield from``.

Taskgroup semantics follow the spec closely enough for the paper's patterns:
a group collects every task (and device operation) created while it is open
by the current task *or its descendants*, and ``taskgroup_end`` blocks until
all of them — including ones spawned while waiting, e.g. by the Double
Buffering recursion — have completed.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from repro.obs.tool import (DEPENDENCE_RESOLVED, TASK_COMPLETE, TASK_CREATE,
                            TASK_SCHEDULE)
from repro.openmp.depend import ConcreteDep
from repro.sim.engine import Event, Process
from repro.util.errors import OmpRuntimeError


class Taskgroup:
    """An open task group collecting member completion events.

    When the group contains *device operations* and the runtime's
    ``taskgroup_global_drain`` flag is set (the default — it reproduces the
    behaviour the paper describes: the taskgroup barrier "synchronizes all
    devices", all chunks on all devices must have landed before computation
    starts), closing the group additionally waits for every device
    operation in flight anywhere in the runtime, not just the members.
    The §IX ``data_depend`` extension exists precisely to remove this
    global barrier.
    """

    def __init__(self, rt) -> None:
        self.rt = rt
        self.sim = rt.sim
        self.members: List[Event] = []
        self.has_device_ops = False
        self.closed = False

    def add(self, event: Event, device_op: bool = False) -> None:
        self.members.append(event)
        if device_op:
            self.has_device_ops = True

    def wait(self) -> Generator:
        """Block until every member (including late arrivals) completes."""
        while True:
            pending = [ev for ev in self.members if not ev.processed]
            if (self.has_device_ops
                    and getattr(self.rt, "taskgroup_global_drain", False)):
                seen = set(id(ev) for ev in pending)
                for ev in self.rt.pending_device_ops():
                    if id(ev) not in seen:
                        pending.append(ev)
            if not pending:
                return
            yield self.sim.all_of(pending)


class TaskCtx:
    """The current task's view of the runtime.

    Directive functions (:mod:`repro.openmp.target`, :mod:`repro.spread`)
    take a ``TaskCtx`` as their first argument — it stands in for the
    implicit "current team/task" context a pragma would see.
    """

    def __init__(self, rt, parent: Optional["TaskCtx"],
                 groups: Sequence[Taskgroup] = ()):
        self.rt = rt
        self.parent = parent
        self.groups: List[Taskgroup] = list(groups)
        self.children: List[Event] = []
        self.name = "main" if parent is None else "task"
        # The simulator process currently executing this context's body;
        # the race sanitizer seeds new tasks from its clock.  Set by
        # OpenMPRuntime.run for the root context and by task() for
        # explicit children; stays None when the sanitizer is off.
        self._san_proc: Optional[Process] = None

    # -- properties -------------------------------------------------------------

    @property
    def sim(self):
        return self.rt.sim

    # -- explicit tasks -----------------------------------------------------------

    def task(self, fn: Callable[..., Generator], *args: Any,
             name: str = "") -> Process:
        """``#pragma omp task`` — spawn *fn(child_ctx, \\*args)* asynchronously.

        The child context inherits the currently open taskgroups, so tasks
        spawned by descendants still synchronize at the enclosing
        ``taskgroup_end`` (required by the Double Buffering recursion).
        """
        child = TaskCtx(self.rt, self, self.groups)
        child.name = name or getattr(fn, "__name__", "task")
        tools = self.rt.tools
        tid = None
        if tools:
            tid = tools.next_task_id()
            tools.dispatch(TASK_CREATE, task=tid, name=child.name,
                           kind="explicit", device=None, directive=None,
                           deferred=False, time=self.sim.now)

        def body() -> Generator:
            self._task_scheduled(tid, child.name)
            try:
                overhead = self.rt.cost_model.host_task_overhead
                if overhead > 0:
                    yield self.sim.timeout(overhead)
                result = yield from fn(child, *args)
                return result
            finally:
                self._task_completed(tid, child.name)

        proc = self.sim.process(body(), name=child.name)
        san = self.rt.sanitizer
        if san is not None:
            child._san_proc = proc
            san.seed(proc, self._san_proc)
        self._register_child(proc)
        return proc

    def submit(self, opgen: Generator, name: str = "",
               concrete_deps: Sequence[ConcreteDep] = (),
               extra_waits: Iterable[Event] = (),
               inflight_registrars: Iterable[Callable[[Event], None]] = (),
               device: Optional[int] = None,
               directive_id: Optional[int] = None,
               ) -> Process:
        """Spawn a *device operation* task (used by the directive layer).

        ``concrete_deps`` go through the runtime's dependence tracker in
        creation order; ``extra_waits`` are additional events to wait for
        (e.g. per-entry consistency: a D2H copy waits for kernels still
        writing that device buffer).  ``inflight_registrars`` are callbacks
        receiving the new task's event, letting data-environment entries
        record it as in flight.  ``device``/``directive_id`` only label the
        tool callbacks (which device the op targets, which directive spawned
        it) — they do not affect execution.
        """
        deps = list(concrete_deps)
        waits = list(self.rt.depend.resolve(deps)) if deps else []
        tools = self.rt.tools
        if tools and deps:
            tools.dispatch(DEPENDENCE_RESOLVED, task=None, name=name,
                           edges=len(waits), deps=len(deps),
                           time=self.sim.now)
        for ev in extra_waits:
            if not ev.processed and ev not in waits:
                waits.append(ev)
        task_name = name or "device-op"
        tid = None
        if tools:
            tid = tools.next_task_id()
            tools.dispatch(TASK_CREATE, task=tid, name=task_name,
                           kind="device_op", device=device,
                           directive=directive_id, deferred=bool(waits),
                           time=self.sim.now)

        def body() -> Generator:
            self._task_scheduled(tid, task_name)
            try:
                overhead = self.rt.cost_model.host_task_overhead
                if overhead > 0:
                    yield self.sim.timeout(overhead)
                if waits:
                    yield self.sim.all_of(waits)
                result = yield from opgen
                return result
            finally:
                self._task_completed(tid, task_name)

        proc = self.sim.process(body(), name=task_name)
        san = self.rt.sanitizer
        if san is not None:
            # Every happens-before source of this op is fixed here: the
            # submitter's history plus the wait-set (depend edges and
            # per-buffer in-flight waits).
            san.seed(proc, self._san_proc, waits)
        if deps:
            self.rt.depend.register(deps, proc)
        for registrar in inflight_registrars:
            registrar(proc)
        self._register_child(proc, device_op=True)
        self.rt.note_device_op(proc)
        return proc

    def _task_scheduled(self, tid: Optional[int], name: str) -> None:
        """Fire ``task_schedule`` as a task body first runs (if tooled)."""
        if tid is None:
            return
        tools = self.rt.tools
        if tools:
            tools.dispatch(TASK_SCHEDULE, task=tid, name=name,
                           time=self.sim.now)

    def _task_completed(self, tid: Optional[int], name: str) -> None:
        """Fire ``task_complete`` (from a finally: failed tasks close too)."""
        if tid is None:
            return
        tools = self.rt.tools
        if tools:
            tools.dispatch(TASK_COMPLETE, task=tid, name=name,
                           time=self.sim.now)

    def _register_child(self, proc: Process, device_op: bool = False) -> None:
        self.children.append(proc)
        for group in self.groups:
            group.add(proc, device_op=device_op)
        self.rt.note_task(proc)

    # -- synchronization -------------------------------------------------------------

    def taskwait(self) -> Generator:
        """``#pragma omp taskwait`` — wait for *direct* children created so
        far (not descendants)."""
        # Prune completed children while scanning: a processed event can
        # never block a later taskwait, and the list otherwise grows with
        # every task this context ever spawned — the scan was quadratic
        # over a long-running program.  (_processed is Event's backing
        # slot; the property call was a measurable share of the scan.)
        snapshot = [ev for ev in self.children if not ev._processed]
        self.children[:] = snapshot
        if snapshot:
            yield self.sim.all_of(snapshot)

    def taskgroup_begin(self) -> Taskgroup:
        """Open a ``taskgroup`` region (close with :meth:`taskgroup_end`)."""
        group = Taskgroup(self.rt)
        self.groups.append(group)
        return group

    def taskgroup_end(self, group: Taskgroup) -> Generator:
        """Close the innermost taskgroup and wait for all its members."""
        if not self.groups or self.groups[-1] is not group:
            raise OmpRuntimeError(
                "taskgroup_end: groups must be closed innermost-first")
        self.groups.pop()
        group.closed = True
        yield from group.wait()

    # -- taskloop ----------------------------------------------------------------

    def taskloop(self, iterations: Sequence[Any],
                 body: Callable[..., Generator],
                 num_tasks: Optional[int] = None,
                 grainsize: Optional[int] = None,
                 nogroup: bool = False) -> Generator:
        """``#pragma omp taskloop`` over an explicit iteration sequence.

        Iterations are divided into contiguous chunks — ``num_tasks`` evenly
        sized groups (the paper's ``num_tasks(2)``) or chunks of
        ``grainsize`` — and each chunk becomes one task running its
        iterations sequentially via ``yield from body(ctx, item)``.  Unless
        ``nogroup``, an implicit taskgroup waits for all generated tasks.
        """
        items = list(iterations)
        if num_tasks is not None and grainsize is not None:
            raise OmpRuntimeError("taskloop: num_tasks and grainsize are "
                                  "mutually exclusive")
        if num_tasks is None and grainsize is None:
            num_tasks = len(items) or 1
        if num_tasks is not None:
            if num_tasks < 1:
                raise OmpRuntimeError("taskloop: num_tasks must be >= 1")
            n = min(num_tasks, len(items)) or 1
            base, rem = divmod(len(items), n)
            chunks = []
            pos = 0
            for t in range(n):
                size = base + (1 if t < rem else 0)
                chunks.append(items[pos:pos + size])
                pos += size
        else:
            if grainsize < 1:  # type: ignore[operator]
                raise OmpRuntimeError("taskloop: grainsize must be >= 1")
            chunks = [items[i:i + grainsize]
                      for i in range(0, len(items), grainsize)]

        def chunk_task(ctx: "TaskCtx", chunk: List[Any]) -> Generator:
            for item in chunk:
                yield from body(ctx, item)

        group = None if nogroup else self.taskgroup_begin()
        for chunk in chunks:
            if chunk:
                self.task(chunk_task, chunk, name="taskloop-chunk")
        if group is not None:
            yield from self.taskgroup_end(group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TaskCtx {self.name!r} children={len(self.children)}>"
