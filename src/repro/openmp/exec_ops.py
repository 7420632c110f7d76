"""Shared lowering machinery for target-style directives.

Both the baseline single-device directives (:mod:`repro.openmp.target`) and
the paper's spread directives (:mod:`repro.spread`) lower to the same three
device-operation shapes, implemented here as generator *ops* plus submit
helpers that wire dependences and per-entry consistency:

* **enter** — present-table enter for each map clause; copy-in for new
  ``to``/``tofrom`` entries;
* **exit** — present-table exit; copy-back for ``from``/``tofrom`` entries
  whose refcount reached zero, then storage release;
* **kernel** — implicit enter, kernel launch with global-index views,
  implicit exit (OpenMP ``target`` construct semantics);
* **update** — presence-required copies without refcount changes.

Per-entry consistency: at submit time, any already-present entry touched by
the new operation contributes its in-flight operations to the wait set, and
the new operation is recorded on the entry.  This reproduces the per-buffer
stream ordering of the paper's runtime (kernels before the copy-back that
reads them) without imposing any cross-buffer synchronization.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.device.kernel import KernelSpec, LaunchConfig
from repro.obs.tool import DEPENDENCE_RESOLVED, FAULT_EVENT, TARGET_SUBMIT
from repro.openmp.dataenv import DeviceDataEnv, MappedEntry
from repro.openmp.depend import ConcreteDep
from repro.openmp.mapping import MapClause, MapType, Var
from repro.openmp.tasks import TaskCtx
from repro.sim import timeline as _timeline
from repro.sim.engine import Process
from repro.util.errors import DeviceFaultError, OmpMappingError, OmpSemaError
from repro.util.intervals import Interval

#: A map clause whose section has been evaluated for a specific chunk.
ConcreteMap = Tuple[MapClause, Interval]


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

_ENTER_TYPES = (MapType.TO, MapType.ALLOC)
_EXIT_TYPES = (MapType.FROM, MapType.RELEASE, MapType.DELETE)
_REGION_TYPES = (MapType.TO, MapType.FROM, MapType.TOFROM, MapType.ALLOC)


def check_map_types(maps: Sequence[MapClause], allowed: Sequence[MapType],
                    directive: str) -> None:
    for clause in maps:
        if clause.map_type not in allowed:
            allowed_names = "/".join(t.value for t in allowed)
            raise OmpSemaError(
                f"{directive}: map type {clause.map_type.value!r} not "
                f"allowed here (expected {allowed_names})")


def enter_map_types(maps: Sequence[MapClause], directive: str) -> None:
    check_map_types(maps, _ENTER_TYPES, directive)


def exit_map_types(maps: Sequence[MapClause], directive: str) -> None:
    check_map_types(maps, _EXIT_TYPES, directive)


def region_map_types(maps: Sequence[MapClause], directive: str) -> None:
    check_map_types(maps, _REGION_TYPES, directive)


# ---------------------------------------------------------------------------
# consistency wiring
# ---------------------------------------------------------------------------

def gather_entry_waits(rt, device_id: int,
                       concrete_maps: Sequence[ConcreteMap]):
    """In-flight events of already-present entries + their registrars.

    Entries that do not exist yet (the op itself will create them) simply
    contribute nothing; ordering for those flows through explicit ``depend``
    clauses, exactly as in the paper's model.
    """
    env = rt.dataenv(device_id)
    waits = []
    entries: List[MappedEntry] = []
    for clause, interval in concrete_maps:
        try:
            entry = env.lookup(clause.var, interval)
        except OmpMappingError:
            entry = None  # partial presence: the op will raise at execution
        if entry is not None:
            waits.extend(entry.wait_list())
            entries.append(entry)

    if not entries:
        # Nothing to track: skip allocating a closure per submitted chunk.
        return waits, ()

    def registrar(event) -> None:
        for entry in entries:
            entry.track(event)

    return waits, [registrar]


def kernel_accesses(rt, device_id: int,
                    concrete_maps: Sequence[ConcreteMap]):
    """Residency-precise sanitizer footprint of one kernel op.

    Sections already resident on *device_id* at submit time make the
    kernel's implicit-entry copy-in a present hit — no host read happens —
    so their reads are dropped from the recorded footprint.  The resilient
    launch path uses this: a failed-over sibling's standalone write-back
    genuinely writes the host, and the default over-approximated halo
    reads of healthy chunks would spuriously race against it.

    Residency is the present table *or* the sanitizer's submit-order
    entered set: a depend-ordered prefetch enter (§IX ``data_depend``) is
    submitted nowait and has not populated the table yet, but it is
    ordered before this kernel, so the copy-in is still a present hit.
    """
    from repro.analysis.sanitizer import accesses_from_maps
    san = rt.sanitizer
    env = rt.dataenv(device_id)
    resident = set()
    for i, (clause, interval) in enumerate(concrete_maps):
        try:
            if env.lookup(clause.var, interval) is not None:
                resident.add(i)
                continue
        except OmpMappingError:
            pass
        if san is not None and san.entered_covers(device_id,
                                                  clause.var.name, interval):
            resident.add(i)
    return accesses_from_maps(concrete_maps, resident=resident)


# ---------------------------------------------------------------------------
# fault retry
# ---------------------------------------------------------------------------

def _run_with_retry(rt, device_id: int, factory, op: str,
                    name: str) -> Generator:
    """Re-attempt a device operation on transient injected faults.

    *factory* builds a fresh op generator per attempt (a generator cannot
    be restarted).  Retryable :class:`DeviceFaultError`\\ s are retried up
    to ``rt.retry_policy.max_attempts`` with the policy's exponential
    backoff charged to virtual time; a non-retryable fault (device loss)
    or an exhausted budget propagates to the caller — for spread chunks
    that is the failover layer (:mod:`repro.spread.failover`).

    Safe to re-run because a fault fires at the *top* of a device op,
    before any resource is acquired or array byte is moved.
    """
    policy = rt.retry_policy
    attempt = 1
    # Tag the executing process so re-attempted ops carry
    # ``attempt``/``retry_of`` trace meta (their own attribution bucket).
    proc = rt.sim.current_process
    while True:
        try:
            result = yield from factory()
            if proc is not None:
                proc.retry = 0
            return result
        except DeviceFaultError as err:
            if not err.retryable:
                if proc is not None:
                    proc.retry = 0
                raise
            tools = rt.tools
            if attempt >= policy.max_attempts:
                if tools:
                    tools.dispatch(FAULT_EVENT, kind="giveup",
                                   device=device_id, op=op, name=name,
                                   attempts=attempt, time=rt.sim.now)
                if proc is not None:
                    proc.retry = 0
                raise
            delay = policy.delay(attempt)
            rt.fault_retries += 1
            if tools:
                tools.dispatch(FAULT_EVENT, kind="retry", device=device_id,
                               op=op, name=name, attempt=attempt,
                               delay=delay, time=rt.sim.now)
            if delay > 0:
                yield rt.sim.timeout(delay)
            attempt += 1
            if proc is not None:
                proc.retry = (attempt - 1, f"{op}:{name}")


def _maybe_retry(rt, device_id: int, factory, op: str, name: str) -> Generator:
    """The retry wrapper, engaged only when faults can actually occur.

    Without an injector the factory's generator is returned as-is — the
    zero-fault hot path pays one attribute check, no extra generator frame.
    """
    if rt.fault_injector is None:
        return factory()
    return _run_with_retry(rt, device_id, factory, op, name)


# ---------------------------------------------------------------------------
# operation generators
# ---------------------------------------------------------------------------

def _enter_backpressured(rt, device_id: int, clause: MapClause,
                         interval: Interval,
                         env: Optional[DeviceDataEnv] = None) -> Generator:
    """``env.enter`` with back-pressure on transient memory exhaustion.

    A request that could never fit (bigger than the whole device) raises
    immediately; otherwise the op blocks until another buffer frees storage
    and retries — the behaviour a pooling runtime exhibits when, e.g., the
    Double Buffering recursion prefetches ahead of the drain.
    """
    from repro.util.errors import OmpAllocationError

    if env is None:
        env = rt.dataenv(device_id)
    dev = rt.device(device_id)
    while True:
        try:
            return env.enter(clause.var, interval)
        except OmpAllocationError as err:
            if not err.can_ever_fit:
                raise
            yield dev.wait_for_free()


def _maybe_alloc_sync(rt, device_id: int,
                      concrete_maps: Sequence[ConcreteMap],
                      env: Optional[DeviceDataEnv] = None) -> Generator:
    """Charge cudaMalloc costs for the maps that will allocate.

    On the simulated device (as on real CUDA) an allocation synchronizes
    the device queue and costs a fixed latency per call.  Maps that are
    already present allocate nothing and stay free.
    """
    if env is None:
        env = rt.dataenv(device_id)
    dev = rt.device(device_id)
    spec = dev.spec
    absent = 0
    for clause, interval in concrete_maps:
        try:
            if env.lookup(clause.var, interval) is None:
                absent += 1
        except OmpMappingError:
            absent += 1  # partial presence: enter() will raise properly
    if absent:
        if spec.alloc_sync:
            yield from dev.synchronize()
        if spec.alloc_latency > 0:
            yield dev.sim.timeout(spec.alloc_latency * absent)


def _release_with_sync(rt, device_id: int,
                       to_release: Sequence[MappedEntry],
                       env: Optional[DeviceDataEnv] = None) -> Generator:
    """cudaFree: device-wide synchronization + per-call latency, then the
    actual storage release (which wakes back-pressured enters)."""
    if not to_release:
        return
    dev = rt.device(device_id)
    spec = dev.spec
    if spec.free_sync:
        yield from dev.synchronize()
    if spec.free_latency > 0:
        yield dev.sim.timeout(spec.free_latency * len(to_release))
    if env is None:
        env = rt.dataenv(device_id)
    for entry in to_release:
        env.release_storage(entry)


def enter_op(rt, device_id: int, concrete_maps: Sequence[ConcreteMap],
             fuse_transfers: bool = False, label: str = "") -> Generator:
    """Present-table enter + copy-in transfers for one device."""
    env = rt.dataenv(device_id)
    dev = rt.device(device_id)
    yield from _maybe_alloc_sync(rt, device_id, concrete_maps)
    copies = []
    for clause, interval in concrete_maps:
        entry, is_new = yield from _enter_backpressured(rt, device_id,
                                                        clause, interval)
        if is_new and clause.map_type.copies_in:
            copies.append((clause.var.array, interval.as_slice(),
                           entry.buffer, entry.local_slice(interval),
                           clause.var.name))
    yield from _issue_copies(rt, dev, copies, h2d=True, fuse=fuse_transfers,
                             label=label, exclusive=True)


def exit_op(rt, device_id: int, concrete_maps: Sequence[ConcreteMap],
            fuse_transfers: bool = False, label: str = "") -> Generator:
    """Present-table exit + copy-back transfers + storage release.

    Validation is two-phase: every clause's presence is checked *before*
    the first refcount is touched, so a malformed exit leaves the present
    table untouched instead of half-unmapped.  (A failed-over chunk never
    reaches this op: its re-routed exit is a no-op — the chunk has no
    residency on the replacement device, and any entry that *would* match
    belongs to the survivor's own chunks.)
    """
    env = rt.dataenv(device_id)
    dev = rt.device(device_id)
    for clause, interval in concrete_maps:
        env.require(clause.var, interval)
    copies = []
    to_release: List[MappedEntry] = []
    for clause, interval in concrete_maps:
        force = clause.map_type is MapType.DELETE
        entry, deleted = env.exit(clause.var, interval, force_delete=force)
        if deleted:
            if clause.map_type.copies_out:
                copies.append((entry.buffer, entry.local_slice(interval),
                               clause.var.array, interval.as_slice(),
                               clause.var.name))
            to_release.append(entry)
    yield from _issue_copies(rt, dev, copies, h2d=False, fuse=fuse_transfers,
                             label=label, exclusive=True)
    yield from _release_with_sync(rt, device_id, to_release)


def update_op(rt, device_id: int,
              to_sections: Sequence[Tuple[Var, Interval]],
              from_sections: Sequence[Tuple[Var, Interval]],
              fuse_transfers: bool = False, label: str = "") -> Generator:
    """``target update`` copies; every section must already be present.

    (A failed-over chunk never reaches this op: its re-routed update is a
    no-op — the host copy is authoritative for the lost chunk, and an
    ``update from`` against a survivor's own halo'd entry would copy
    stale halo rows over newer host data.)
    """
    env = rt.dataenv(device_id)
    dev = rt.device(device_id)
    h2d = []
    for var, interval in to_sections:
        entry = env.require(var, interval)
        h2d.append((var.array, interval.as_slice(),
                    entry.buffer, entry.local_slice(interval), var.name))
    d2h = []
    for var, interval in from_sections:
        entry = env.require(var, interval)
        d2h.append((entry.buffer, entry.local_slice(interval),
                    var.array, interval.as_slice(), var.name))
    yield from _issue_copies(rt, dev, h2d, h2d=True, fuse=fuse_transfers,
                             label=label)
    yield from _issue_copies(rt, dev, d2h, h2d=False, fuse=fuse_transfers,
                             label=label)


def kernel_op(rt, device_id: int, kernel: KernelSpec, lo: int, hi: int,
              concrete_maps: Sequence[ConcreteMap],
              launch: LaunchConfig = LaunchConfig(),
              iterations: Optional[float] = None,
              fuse_transfers: bool = False, label: str = "",
              extra_env=None, standalone: bool = False) -> Generator:
    """The ``target`` construct: implicit enter, launch, implicit exit.

    ``extra_env`` adds non-mapped objects to the kernel environment (used by
    the reduction extension for per-chunk partial buffers).

    ``standalone=True`` (failover: the chunk was re-routed off a lost
    device) runs the whole op against a throwaway private data environment
    instead of the device's shared present table.  The op becomes fully
    self-contained, with the host carrying the chunk's data between
    kernels: *every* map copies in from the host (``alloc`` included — the
    host array is the best surviving approximation of the lost device's
    state), and the implicit exit copies back each map's intersection with
    the chunk's owned range ``[lo, hi)`` regardless of map type.  Owned
    rows only: halo rows belong to neighbour chunks that are still
    resident elsewhere, and writing them back would clobber newer host
    data with this chunk's stale copy.  This also sidesteps the
    overlap-extension rule a re-routed halo'd section would hit in the
    survivor's shared table.  The throwaway env is ``scratch``: its
    buffers cost transfer/kernel time but no device capacity (see
    :class:`DeviceDataEnv`) — the survivor's own resident chunks free only
    at a barrier that waits for this very op, so charging capacity could
    never make progress.
    """
    env = DeviceDataEnv(rt.device(device_id), scratch=True) if standalone \
        else rt.dataenv(device_id)
    dev = rt.device(device_id)
    # Implicit entry phase.
    yield from _maybe_alloc_sync(rt, device_id, concrete_maps, env=env)
    copies = []
    held: List[ConcreteMap] = []
    for clause, interval in concrete_maps:
        entry, is_new = yield from _enter_backpressured(rt, device_id,
                                                        clause, interval,
                                                        env=env)
        held.append((clause, interval))
        if is_new and (standalone or clause.map_type.copies_in):
            copies.append((clause.var.array, interval.as_slice(),
                           entry.buffer, entry.local_slice(interval),
                           clause.var.name))
    yield from _issue_copies(rt, dev, copies, h2d=True, fuse=fuse_transfers,
                             label=label, exclusive=True)
    # Kernel launch on the mapped views.
    kenv = {}
    for clause, interval in concrete_maps:
        entry = env.require(clause.var, interval)
        kenv[clause.var.name] = entry.view()
    if extra_env:
        kenv.update(extra_env)
    yield from _maybe_retry(
        rt, device_id,
        lambda: dev.launch_kernel(kernel, lo, hi, kenv, launch=launch,
                                  iterations=iterations),
        "kernel", kernel.name)
    # Implicit exit phase.
    owned = Interval(lo, hi)
    copyback = []
    to_release: List[MappedEntry] = []
    for clause, interval in held:
        entry, deleted = env.exit(clause.var, interval)
        if deleted:
            if standalone:
                back = interval.intersection(owned)
                if not back.empty:
                    copyback.append((entry.buffer, entry.local_slice(back),
                                     clause.var.array, back.as_slice(),
                                     clause.var.name))
            elif clause.map_type.copies_out:
                copyback.append((entry.buffer, entry.local_slice(interval),
                                 clause.var.array, interval.as_slice(),
                                 clause.var.name))
            to_release.append(entry)
    yield from _issue_copies(rt, dev, copyback, h2d=False,
                             fuse=fuse_transfers, label=label, exclusive=True)
    yield from _release_with_sync(rt, device_id, to_release, env=env)


def _issue_copies(rt, dev, copies, h2d: bool, fuse: bool,
                  label: str, exclusive: bool = False) -> Generator:
    """Issue *copies* on *dev* and wait for all of them.

    ``exclusive`` marks copies whose device buffer no other op can touch:
    the copy-in of a new present-table entry and the copy-back of a
    deleted one.  They move their bytes once, with no snapshot (see
    ``Device._move_sections``); ``target update`` keeps the snapshot.
    """
    if not copies:
        return
    op = "h2d" if h2d else "d2h"
    if fuse and len(copies) > 1:
        batch = [(src, sk, dst, dk) for src, sk, dst, dk, _name in copies]
        name = f"{label or 'map'}(fused x{len(batch)})"
        if h2d:
            factory = lambda: dev.copy_h2d_batch(  # noqa: E731
                batch, name=name, exclusive=exclusive)
        else:
            factory = lambda: dev.copy_d2h_batch(  # noqa: E731
                batch, name=name, exclusive=exclusive)
        yield from _maybe_retry(rt, dev.device_id, factory, op, name)
        return
    # Issue all memcpys at once (what a runtime enqueuing async copies
    # does); the staging path and the device queue serialize them, but the
    # next copy's staging pipelines with the current one's wire time.
    sim = dev.sim
    if _timeline.walkers_engaged(rt) and not dev.lost:
        # Fused-timeline copy walkers: the identical copy protocol (same
        # resource claims, same timed segments, same trace records and
        # causal-recorder calls, the inter-node network hop included) with
        # no generator frames — see repro.sim.timeline._CopyProc.  A tool,
        # the sanitizer, a fault injector or a lost device keeps the
        # generator sub-processes below.
        cls = _timeline.CopyH2D if h2d else _timeline.CopyD2H
        prefix = label or "map"
        walkers = [cls.spawn(sim, dev, src, sk, dst, dk, f"{prefix}:{vname}",
                             exclusive)
                   for src, sk, dst, dk, vname in copies]
        yield sim.all_of(walkers)
        return
    procs = []
    for src, sk, dst, dk, vname in copies:
        name = f"{label or 'map'}:{vname}"

        def factory(s=src, sl=sk, d=dst, dl=dk, n=name):
            return (dev.copy_h2d(s, sl, d, dl, name=n, exclusive=exclusive)
                    if h2d else
                    dev.copy_d2h(s, sl, d, dl, name=n, exclusive=exclusive))

        # The retry wrapper rides inside the spawned process, so transient
        # faults are absorbed there; a DeviceLostError fails the process
        # and all_of re-raises it here (fail-fast), into the failover
        # layer for spread chunks.
        proc = dev.sim.process(
            _maybe_retry(rt, dev.device_id, factory, op, name), name=name)
        procs.append(proc)
    yield dev.sim.all_of(procs)


# ---------------------------------------------------------------------------
# submit helpers (create the device-op task with all wiring)
# ---------------------------------------------------------------------------

def submit_op(ctx: TaskCtx, device_id: int, opgen: Generator,
              concrete_maps: Sequence[ConcreteMap] = (),
              concrete_deps: Sequence[ConcreteDep] = (),
              name: str = "",
              directive_id: Optional[int] = None) -> Process:
    """Spawn a device operation with depend + per-entry consistency."""
    tools = ctx.rt.tools
    if tools:
        tools.dispatch(TARGET_SUBMIT, device=device_id, name=name,
                       directive=directive_id, time=ctx.rt.sim.now)
    waits, registrars = gather_entry_waits(ctx.rt, device_id, concrete_maps)
    proc = ctx.submit(opgen, name=name, concrete_deps=concrete_deps,
                      extra_waits=waits, inflight_registrars=registrars,
                      device=device_id, directive_id=directive_id)
    if directive_id is not None:
        # Trace provenance: the op body only runs once the event loop
        # steps it, so tagging after submit is race-free.
        proc.prov = (directive_id, None, None)
    san = ctx.rt.sanitizer
    if san is not None:
        from repro.analysis.sanitizer import accesses_from_maps

        san.record_op(proc, accesses_from_maps(concrete_maps),
                      device=device_id, directive=directive_id, name=name)
    return proc


def submit_spread(ctx: TaskCtx, items,
                  directive_id: Optional[int] = None) -> List[Process]:
    """Spawn the chunk tasks of one spread directive.

    ``items`` is a sequence of ``(device_id, opgen, concrete_maps,
    concrete_deps, name)`` tuples.  Unlike sequential :func:`submit_op`
    calls, all chunks resolve their dependences against the *pre-directive*
    tracker state and only then register their own records: sibling chunks
    of one directive are conceptually simultaneous and must not order
    against each other — their sections may overlap (position halos) yet
    they write distinct per-device copies.

    An item may carry an optional sixth element: the sanitizer footprint
    to record instead of the maps' default one.  Failover uses it — a
    re-routed data directive is a no-op (empty footprint) and a re-routed
    kernel runs standalone (every map read, owned rows written), so the
    planned maps no longer describe what touches the host.
    """
    rt = ctx.rt
    tools = rt.tools
    san = rt.sanitizer
    if san is not None:
        from repro.analysis.sanitizer import accesses_from_maps
    procs: List[Process] = []
    to_register = []
    for item in items:
        device_id, opgen, concrete_maps, concrete_deps, name = item[:5]
        accesses = item[5] if len(item) > 5 else None
        waits, registrars = gather_entry_waits(rt, device_id, concrete_maps)
        deps = list(concrete_deps)
        if deps:
            resolved = rt.depend.resolve(deps)
            if tools:
                tools.dispatch(DEPENDENCE_RESOLVED, task=None, name=name,
                               edges=len(resolved), deps=len(deps),
                               time=rt.sim.now)
            waits = list(waits) + resolved
        if tools:
            tools.dispatch(TARGET_SUBMIT, device=device_id, name=name,
                           directive=directive_id, time=rt.sim.now)
        proc = ctx.submit(opgen, name=name, extra_waits=waits,
                          inflight_registrars=registrars,
                          device=device_id, directive_id=directive_id)
        if san is not None:
            san.record_op(proc,
                          accesses_from_maps(concrete_maps)
                          if accesses is None else accesses,
                          device=device_id, directive=directive_id,
                          name=name)
        if deps:
            to_register.append((deps, proc))
        procs.append(proc)
    for deps, proc in to_register:
        rt.depend.register(deps, proc)
    return procs
