"""The OMPT-style tool interface: typed callback points + guarded dispatch.

Real OpenMP offload stacks expose runtime events to tools through OMPT
(``ompt_set_callback`` + a fixed set of callback points fired by
libomp/libomptarget at well-defined semantic points).  This module is the
reproduction's analogue: every layer of the directive stack —
:mod:`repro.openmp` (runtime, tasks, depend, dataenv, exec_ops),
:mod:`repro.spread` and :mod:`repro.device` — fires a callback point at the
same place libomptarget would fire the corresponding OMPT event.

Zero-cost contract (matching OMPT's "no tool, no overhead" design):

* every dispatch site is guarded with ``if tools:`` — with no tool
  registered the registry is falsy and the runtime does not even build the
  payload dict;
* callbacks are plain synchronous Python: they never touch the simulator,
  so registering a tool can neither advance virtual time nor reorder
  events.  Traces and results are bit-identical with and without tools.

Callback points (→ closest OMPT event):

=======================  ==================================================
``directive_begin/end``   ``ompt_callback_target`` (begin/end endpoints)
``target_submit``         ``ompt_callback_target_submit``
``data_op``               ``ompt_callback_target_data_op`` (alloc, h2d,
                          d2h, delete, plus present-table traffic)
``task_create``           ``ompt_callback_task_create``
``task_schedule``         ``ompt_callback_task_schedule``
``task_complete``         task completion (schedule with prior-task state)
``dependence_resolved``   ``ompt_callback_task_dependence``
``kernel_launch``         submission half of ``target_submit`` on-device
``kernel_complete``       device-side completion record
``device_init``           ``ompt_callback_device_initialize``
``plan_cache``            spread launch-plan cache hit/miss (no OMPT
                          equivalent; analogous to a runtime's launch-state
                          memoization trace records)
``fault_event``           fault-injection lifecycle (no OMPT equivalent):
                          ``kind`` ∈ inject / retry / giveup /
                          device_lost / failover, fired by the device
                          layer, the retry wrapper and the spread
                          failover path
``sanitizer_op``          the race sanitizer recorded one op footprint
                          (closest analogue: an Archer/TSan access
                          annotation); payload carries the access and
                          check counts
``sanitizer_race``        the race sanitizer reported one pair of
                          conflicting unordered accesses
                          (``ompt_callback_error`` is the nearest OMPT
                          event)
=======================  ==================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

# -- callback points ----------------------------------------------------------

DIRECTIVE_BEGIN = "directive_begin"
DIRECTIVE_END = "directive_end"
TARGET_SUBMIT = "target_submit"
DATA_OP = "data_op"
TASK_CREATE = "task_create"
TASK_SCHEDULE = "task_schedule"
TASK_COMPLETE = "task_complete"
DEPENDENCE_RESOLVED = "dependence_resolved"
KERNEL_LAUNCH = "kernel_launch"
KERNEL_COMPLETE = "kernel_complete"
DEVICE_INIT = "device_init"
PLAN_CACHE = "plan_cache"
FAULT_EVENT = "fault_event"
SANITIZER_OP = "sanitizer_op"
SANITIZER_RACE = "sanitizer_race"

CALLBACK_POINTS = (
    DIRECTIVE_BEGIN,
    DIRECTIVE_END,
    TARGET_SUBMIT,
    DATA_OP,
    TASK_CREATE,
    TASK_SCHEDULE,
    TASK_COMPLETE,
    DEPENDENCE_RESOLVED,
    KERNEL_LAUNCH,
    KERNEL_COMPLETE,
    DEVICE_INIT,
    PLAN_CACHE,
    FAULT_EVENT,
    SANITIZER_OP,
    SANITIZER_RACE,
)

#: kinds carried by ``fault_event`` payloads (the ``kind=`` field)
FAULT_EVENT_KINDS = ("inject", "retry", "giveup", "device_lost", "failover")

#: kinds carried by ``data_op`` payloads (the ``op=`` field)
DATA_OP_KINDS = ("alloc", "free", "h2d", "d2h", "delete", "release",
                 "present_hit", "present_miss", "present_memo_hit")


class Tool:
    """Base class for tools: override ``on_<point>`` for points of interest.

    A tool method receives the dispatch payload as keyword arguments, e.g.::

        class MyTool(Tool):
            def on_data_op(self, *, op, device, time, **kw):
                ...

    Accept ``**kw`` — payloads may grow fields over time, like OMPT record
    layouts do.
    """

    def callbacks(self) -> Dict[str, Callable[..., None]]:
        """The ``point -> bound method`` mapping this tool implements."""
        out: Dict[str, Callable[..., None]] = {}
        for point in CALLBACK_POINTS:
            fn = getattr(self, f"on_{point}", None)
            if callable(fn):
                out[point] = fn
        return out


class ToolRegistry:
    """Registered callbacks per point, plus id allocation for dispatchers.

    The registry is **falsy while empty** — dispatch sites are written as::

        tools = rt.tools
        if tools:
            tools.dispatch(DATA_OP, op="h2d", device=..., time=...)

    so an un-instrumented run pays one attribute load and one truthiness
    check per site, nothing else (the OMPT null-tool fast path).
    """

    def __init__(self, runtime: Optional[object] = None):
        self._runtime = runtime
        self._callbacks: Dict[str, List[Callable[..., None]]] = {
            point: [] for point in CALLBACK_POINTS}
        self._count = 0
        self._tools: List[Tool] = []
        self._next_directive_id = 0
        self._next_task_id = 0
        self.dispatch_count = 0

    def __bool__(self) -> bool:
        return self._count > 0

    # -- registration -----------------------------------------------------------

    def register(self, tool: Tool) -> Tool:
        """Attach *tool*; replays ``device_init`` for existing devices.

        OMPT tools that attach after device initialization still receive
        one ``device_initialize`` per device; we reproduce that so a tool
        never observes transfers to a device it was not introduced to.
        """
        cbs = tool.callbacks()
        if not cbs:
            raise ValueError(
                f"{type(tool).__name__} implements no on_<point> callback")
        for point, fn in cbs.items():
            self._callbacks[point].append(fn)
            self._count += 1
        self._tools.append(tool)
        rt = self._runtime
        if rt is not None:
            for dev in rt.devices:
                self.dispatch(DEVICE_INIT, device=dev.device_id,
                              name=dev.spec.name,
                              memory_bytes=dev.spec.memory_bytes,
                              num_sms=dev.spec.num_sms,
                              time=rt.sim.now)
        return tool

    def unregister(self, tool: Tool) -> None:
        if tool not in self._tools:
            raise ValueError(f"{type(tool).__name__} is not registered")
        self._tools.remove(tool)
        for point, fn in tool.callbacks().items():
            self._callbacks[point].remove(fn)
            self._count -= 1

    def set_callback(self, point: str, fn: Callable[..., None]) -> None:
        """Raw function registration (the ``ompt_set_callback`` analogue)."""
        if point not in self._callbacks:
            raise ValueError(f"unknown callback point {point!r}")
        self._callbacks[point].append(fn)
        self._count += 1

    @property
    def tools(self) -> List[Tool]:
        return list(self._tools)

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, point: str, **payload: Any) -> None:
        """Fire every callback registered at *point*, in registration order."""
        cbs = self._callbacks.get(point)
        if cbs is None:
            raise ValueError(f"unknown callback point {point!r}")
        self.dispatch_count += 1
        for fn in cbs:
            fn(**payload)

    # -- id allocation ------------------------------------------------------------

    def directive_begin(self, kind: str, did: Optional[int] = None,
                        **payload: Any) -> int:
        """Fire ``directive_begin``, allocating an id if none is given.

        Directive ids are sequential in program order, hence deterministic
        run to run; chunk tasks carry their directive's id so tools can
        reconstruct directive → chunk → op causality.  The runtime now
        allocates ids itself (:meth:`OpenMPRuntime.next_directive_id`, so
        trace provenance exists even without tools) and passes them in;
        the local counter remains for direct registry users.
        """
        if did is None:
            self._next_directive_id += 1
            did = self._next_directive_id
        self.dispatch(DIRECTIVE_BEGIN, directive=did, kind=kind, **payload)
        return did

    def directive_end(self, directive: int, **payload: Any) -> None:
        self.dispatch(DIRECTIVE_END, directive=directive, **payload)

    def next_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ToolRegistry tools={len(self._tools)} "
                f"callbacks={self._count} dispatched={self.dispatch_count}>")
