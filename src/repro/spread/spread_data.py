"""The spread data directives (Listings 5-8 of the paper).

All four distribute data mappings over multiple devices with a **static
round-robin** distribution driven by the ``range`` and ``chunk_size``
clauses (there is no ``spread_schedule`` clause here — the paper fixes the
policy so data placement is reproducible; the cluster extension may pass
an explicit *static* ``schedule`` such as
:class:`~repro.spread.schedule.HierarchicalStaticSchedule` so data
placement follows the same two-level split as the kernels):

* ``target data spread`` — structured region (enter at the directive,
  copy-backs at region end); no ``nowait``, no ``depend``;
* ``target enter data spread`` / ``target exit data spread`` — unstructured,
  asynchronous via ``nowait``; ``depend`` is §IX future work (gated);
* ``target update spread`` — distributed updates of present data,
  asynchronous via ``nowait``; ``depend`` gated likewise.

``range`` follows OpenMP array-section convention: ``range(1:N-2)`` is
``range_=(1, N-2)`` — start 1, *length* N-2.

Like the executable directives, each data directive lowers through the
runtime's :class:`~repro.spread.plan_cache.SpreadPlanCache`: the chunking
and per-chunk section concretization are computed on first execution and
replayed bit-identically on structurally identical invocations.  A hit
builds the chunk ops from the cached plan through the same object path
as a miss.  Unlike ``target spread``, a data directive is not compiled
for replay: a compiled program would build the same ops.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.openmp import exec_ops
from repro.openmp.depend import Dep, concretize_deps
from repro.openmp.mapping import (
    Map,
    MapClause,
    Var,
    concretize_section,
    validate_unique_vars,
)
from repro.openmp.tasks import TaskCtx
from repro.spread import extensions as ext
from repro.spread import failover as fo
from repro.spread import plan_cache as pc
from repro.spread.schedule import Chunk, StaticSchedule, validate_devices
from repro.spread.spread_target import SpreadHandle
from repro.util.errors import OmpSemaError


def _data_chunks(ctx: TaskCtx, devices: Sequence[int],
                 range_: Tuple[int, int],
                 chunk_size: Optional[int],
                 schedule=None) -> List[Chunk]:
    devs = validate_devices(devices, ctx.rt.num_devices)
    start, length = int(range_[0]), int(range_[1])
    if length < 0:
        raise OmpSemaError(f"range({start}:{length}): negative length")
    sched = schedule if schedule is not None else StaticSchedule(chunk_size)
    if sched.signature is None:
        raise OmpSemaError(
            "data spread distribution must be reproducible: the schedule "
            f"kind {sched.kind!r} assigns devices at execution time")
    return sched.chunks(start, start + length, devs)


def _chunk_key(chunk_size: Optional[int], schedule) -> object:
    """The chunking component of a data-directive cache key.

    An explicit schedule replaces the bare chunk size with its structural
    signature, so two directives chunked differently never share a plan.
    """
    if schedule is None:
        return chunk_size
    return ("sched", schedule.signature)


def _check_data_depends(ctx: TaskCtx, depends: Sequence[Dep],
                        directive: str) -> None:
    if depends:
        ext.require(ctx.rt, "data_depend",
                    f"the depend clause on {directive}")


def _concretize(maps: Sequence[MapClause], chunk: Chunk):
    return [(clause, concretize_section(clause.var, clause.section,
                                        spread_start=chunk.start,
                                        spread_size=chunk.size))
            for clause in maps]


def _build_data_plan(chunks: Sequence[Chunk], maps: Sequence[MapClause],
                     depends: Sequence[Dep], name: str) -> pc.SpreadPlan:
    """Lower one data directive to its replayable plan."""
    chunk_plans = []
    for chunk in chunks:
        concrete = tuple(_concretize(maps, chunk))
        cdeps = tuple(concretize_deps(depends, spread_start=chunk.start,
                                      spread_size=chunk.size))
        chunk_plans.append(pc.ChunkPlan(
            chunk=chunk, maps=concrete, deps=cdeps,
            name=f"{name}#{chunk.index}@{chunk.device}"))
    return pc.SpreadPlan(devices=tuple(sorted({c.device for c in chunks})),
                         chunks=tuple(chunks),
                         chunk_plans=tuple(chunk_plans))


def _note_residency(san, residency: Optional[str], device_id: int,
                    concrete_maps) -> None:
    """Tell the sanitizer a data directive moved sections in or out."""
    if san is None or residency is None:
        return
    if residency == "enter":
        san.note_enter(device_id, concrete_maps)
    else:
        san.note_exit(device_id, concrete_maps)


def _noop_op() -> Generator:
    """Placeholder op for a re-routed chunk's skipped data directive.

    A chunk re-routed off a lost device establishes no residency on its
    replacement (its kernels run standalone; the host carries its data),
    so enter-style directives degrade to an empty task — present for
    dependence wiring and trace structure, moving no bytes.
    """
    return
    yield  # pragma: no cover - makes this a generator


def _fan_out(ctx: TaskCtx, plan: pc.SpreadPlan, op_factory, nowait: bool,
             directive_id: Optional[int] = None,
             residency: Optional[str] = None) -> Generator:
    """Submit one op per chunk plan; ``op_factory(chunk, concrete,
    device_id, rerouted)`` builds the op for the (possibly failed-over)
    target device.  ``residency`` ("enter"/"exit") tells the sanitizer
    which way this directive moves the submit-order present set."""
    rt = ctx.rt
    san = rt.sanitizer
    resilient = rt.fault_injector is not None or rt.lost_devices
    items = []
    provs = []  # (chunk_index, rerouted_from) aligned with items
    for cp in plan.chunk_plans:
        if not resilient:
            # Zero-fault hot path: no routing, no failover wrapper.
            op = op_factory(cp.chunk, cp.maps, cp.chunk.device, False)
            items.append((cp.chunk.device, op, cp.maps, cp.deps, cp.name))
            provs.append((cp.chunk.index, None))
            _note_residency(san, residency, cp.chunk.device, cp.maps)
            continue

        def factory(device_id, rerouted, cp=cp):
            return op_factory(cp.chunk, cp.maps, device_id, rerouted)

        device_id, rerouted = fo.route_chunk(rt, cp.chunk, plan.devices,
                                             name=cp.name)
        op = fo.failover_op(rt, cp.chunk, plan.devices, factory,
                            name=cp.name, initial=(device_id, rerouted))
        # A re-routed data directive is a no-op (see repro.spread.failover):
        # it moves no host bytes, so its sanitizer footprint is empty and
        # it establishes no residency on the replacement device.
        items.append((device_id, op, cp.maps, cp.deps, cp.name,
                      [] if rerouted else None))
        provs.append((cp.chunk.index, cp.chunk.device if rerouted else None))
        if not rerouted:
            _note_residency(san, residency, device_id, cp.maps)
    procs = exec_ops.submit_spread(ctx, items, directive_id=directive_id)
    for proc, (chunk_index, rerouted_from) in zip(procs, provs):
        proc.prov = (directive_id, chunk_index, rerouted_from)
    handle = SpreadHandle(ctx, procs, plan.chunks)
    if not nowait:
        yield from handle.wait()
    return handle


def _directive_begin(ctx: TaskCtx, kind: str, chunks: Sequence[Chunk]) -> int:
    did = ctx.rt.next_directive_id(kind)
    tools = ctx.rt.tools
    if tools:
        tools.directive_begin(kind, did=did,
                              devices=sorted({c.device for c in chunks}),
                              time=ctx.rt.sim.now)
    return did


def _directive_end(ctx: TaskCtx, did: Optional[int],
                   chunks: Sequence[Chunk]) -> None:
    if did is not None:
        tools = ctx.rt.tools
        if tools:
            tools.directive_end(did, chunks=len(chunks), time=ctx.rt.sim.now)


def target_enter_data_spread(ctx: TaskCtx, devices: Sequence[int],
                             range_: Tuple[int, int],
                             chunk_size: Optional[int],
                             maps: Sequence[MapClause],
                             nowait: bool = False,
                             depends: Sequence[Dep] = (),
                             fuse_transfers: bool = False,
                             schedule=None) -> Generator:
    """``#pragma omp target enter data spread devices(...) range(...)
    chunk_size(...) [nowait] map(to/alloc: ...)`` (Listing 6)."""
    rt = ctx.rt
    kind = "target enter data spread"
    cache = rt.plan_cache
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps, depends)
           if cache.enabled else None)
    cell = cache.lookup(key)
    plan = cell[0] if cell is not None else None
    if plan is None:
        exec_ops.enter_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        _check_data_depends(ctx, depends, kind)
        chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
        plan = _build_data_plan(chunks, maps, depends, "enter-spread")
        cache.store(key, plan)
        pc.note_plan_cache(rt, kind, key, hit=False)
    elif rt.tools:
        pc.note_plan_cache(rt, kind, key, hit=True)

    def factory(chunk: Chunk, concrete, device_id: int, rerouted: bool):
        if rerouted:
            return _noop_op()
        return exec_ops.enter_op(rt, device_id, concrete,
                                 fuse_transfers=fuse_transfers,
                                 label=f"enter-spread@{device_id}")

    did = _directive_begin(ctx, kind, plan.chunks)
    handle = yield from _fan_out(ctx, plan, factory, nowait,
                                 directive_id=did, residency="enter")
    _directive_end(ctx, did, plan.chunks)
    return handle


def target_exit_data_spread(ctx: TaskCtx, devices: Sequence[int],
                            range_: Tuple[int, int],
                            chunk_size: Optional[int],
                            maps: Sequence[MapClause],
                            nowait: bool = False,
                            depends: Sequence[Dep] = (),
                            fuse_transfers: bool = False,
                            schedule=None) -> Generator:
    """``#pragma omp target exit data spread ... map(from/release/delete: ...)``."""
    rt = ctx.rt
    kind = "target exit data spread"
    cache = rt.plan_cache
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps, depends)
           if cache.enabled else None)
    cell = cache.lookup(key)
    plan = cell[0] if cell is not None else None
    if plan is None:
        exec_ops.exit_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        _check_data_depends(ctx, depends, kind)
        chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
        plan = _build_data_plan(chunks, maps, depends, "exit-spread")
        cache.store(key, plan)
        pc.note_plan_cache(rt, kind, key, hit=False)
    elif rt.tools:
        pc.note_plan_cache(rt, kind, key, hit=True)

    def factory(chunk: Chunk, concrete, device_id: int, rerouted: bool):
        if rerouted:
            # The chunk's data died with its device; nothing of it is
            # resident on the replacement (re-routed enters are no-ops,
            # standalone kernels use private scratch).  Any entry a
            # lookup would find here belongs to the *survivor's own*
            # chunks — e.g. a halo'd section containing this chunk's
            # rows — and releasing it would corrupt the survivor.
            return _noop_op()
        return exec_ops.exit_op(rt, device_id, concrete,
                                fuse_transfers=fuse_transfers,
                                label=f"exit-spread@{device_id}")

    did = _directive_begin(ctx, kind, plan.chunks)
    handle = yield from _fan_out(ctx, plan, factory, nowait,
                                 directive_id=did, residency="exit")
    _directive_end(ctx, did, plan.chunks)
    return handle


class SpreadDataRegion:
    """Handle for a structured ``target data spread`` region."""

    def __init__(self, ctx: TaskCtx, end_plan: pc.SpreadPlan,
                 fuse_transfers: bool,
                 directive_id: Optional[int] = None):
        self._ctx = ctx
        self._end_plan = end_plan
        self._fuse = fuse_transfers
        self._closed = False
        self._directive_id = directive_id

    def end(self) -> Generator:
        """Leave the region: distributed copy-backs, synchronously."""
        if self._closed:
            raise OmpSemaError("target data spread region already closed")
        self._closed = True
        rt = self._ctx.rt

        def factory(chunk: Chunk, concrete, device_id: int, rerouted: bool):
            if rerouted:
                # See target_exit_data_spread: a re-routed exit must not
                # touch the survivor's own entries.
                return _noop_op()
            return exec_ops.exit_op(rt, device_id, concrete,
                                    fuse_transfers=self._fuse,
                                    label=f"data-spread-end@{device_id}")

        handle = yield from _fan_out(self._ctx, self._end_plan, factory,
                                     nowait=False,
                                     directive_id=self._directive_id,
                                     residency="exit")
        _directive_end(self._ctx, self._directive_id, self._end_plan.chunks)
        return handle


def target_data_spread(ctx: TaskCtx, devices: Sequence[int],
                       range_: Tuple[int, int],
                       chunk_size: Optional[int],
                       maps: Sequence[MapClause],
                       fuse_transfers: bool = False,
                       schedule=None) -> Generator:
    """``#pragma omp target data spread devices(...) range(...)
    chunk_size(...) map(...)`` (Listing 5).

    Structured and synchronous: like its predecessor, the directive
    supports neither ``nowait`` nor ``depend`` (paper Section III-B.3);
    mappings distribute round-robin and stay valid until the returned
    region's ``end()`` is driven.
    """
    rt = ctx.rt
    kind = "target data spread"
    cache = rt.plan_cache
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps)
           if cache.enabled else None)
    cell = cache.lookup(key)
    plans = cell[0] if cell is not None else None
    if plans is None:
        exec_ops.region_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
        # The region end reuses the same chunks/maps lowering under its own
        # task names, so both halves are lowered (and cached) together.
        plans = (_build_data_plan(chunks, maps, (), "data-spread"),
                 _build_data_plan(chunks, maps, (), "data-spread-end"))
        cache.store(key, plans)
        pc.note_plan_cache(rt, kind, key, hit=False)
    elif rt.tools:
        pc.note_plan_cache(rt, kind, key, hit=True)
    enter_plan, end_plan = plans

    def factory(chunk: Chunk, concrete, device_id: int, rerouted: bool):
        if rerouted:
            return _noop_op()
        return exec_ops.enter_op(rt, device_id, concrete,
                                 fuse_transfers=fuse_transfers,
                                 label=f"data-spread@{device_id}")

    did = _directive_begin(ctx, kind, enter_plan.chunks)
    yield from _fan_out(ctx, enter_plan, factory, nowait=False,
                        directive_id=did, residency="enter")
    return SpreadDataRegion(ctx, end_plan, fuse_transfers,
                            directive_id=did)


def target_update_spread(ctx: TaskCtx, devices: Sequence[int],
                         range_: Tuple[int, int],
                         chunk_size: Optional[int],
                         to: Sequence[Tuple[Var, object]] = (),
                         from_: Sequence[Tuple[Var, object]] = (),
                         nowait: bool = False,
                         depends: Sequence[Dep] = (),
                         fuse_transfers: bool = False,
                         schedule=None) -> Generator:
    """``#pragma omp target update spread devices(...) range(...)
    chunk_size(...) [nowait] to(...) from(...)`` (Listing 7).

    Sections use ``omp_spread_start``/``omp_spread_size`` and must already
    be present on the owning device.
    """
    rt = ctx.rt
    kind = "target update spread"
    cache = rt.plan_cache
    key = (pc.update_key(devices, range_,
                         _chunk_key(chunk_size, schedule), to, from_,
                         depends)
           if cache.enabled else None)
    cell = cache.lookup(key)
    plan = cell[0] if cell is not None else None
    if plan is None:
        if not to and not from_:
            raise OmpSemaError(
                "target update spread: needs at least one to()/from()")
        _check_data_depends(ctx, depends, kind)
        chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
        chunk_plans = []
        for chunk in chunks:
            to_c = tuple((var, concretize_section(var, section,
                                                  spread_start=chunk.start,
                                                  spread_size=chunk.size))
                         for var, section in to)
            from_c = tuple((var, concretize_section(var, section,
                                                    spread_start=chunk.start,
                                                    spread_size=chunk.size))
                           for var, section in from_)
            pseudo = tuple([(Map.to(var), iv) for var, iv in to_c] +
                           [(Map.from_(var), iv) for var, iv in from_c])
            cdeps = tuple(concretize_deps(depends, spread_start=chunk.start,
                                          spread_size=chunk.size))
            chunk_plans.append(pc.ChunkPlan(
                chunk=chunk, maps=pseudo, deps=cdeps,
                name=f"update-spread#{chunk.index}@{chunk.device}",
                extra=(to_c, from_c)))
        plan = pc.SpreadPlan(devices=tuple(sorted({c.device for c in chunks})),
                             chunks=tuple(chunks),
                             chunk_plans=tuple(chunk_plans))
        cache.store(key, plan)
        pc.note_plan_cache(rt, kind, key, hit=False)
    elif rt.tools:
        pc.note_plan_cache(rt, kind, key, hit=True)

    resilient = rt.fault_injector is not None or rt.lost_devices
    items = []
    provs = []  # (chunk_index, rerouted_from) aligned with items
    for cp in plan.chunk_plans:
        to_c, from_c = cp.extra
        if not resilient:
            op = exec_ops.update_op(rt, cp.chunk.device, to_c, from_c,
                                    fuse_transfers=fuse_transfers,
                                    label=f"update-spread@{cp.chunk.device}")
            items.append((cp.chunk.device, op, cp.maps, cp.deps, cp.name))
            provs.append((cp.chunk.index, None))
            continue

        def factory(device_id, rerouted, to_c=to_c, from_c=from_c):
            if rerouted:
                # A re-routed update is a no-op: the lost chunk has no
                # residency anywhere and the host copy is authoritative.
                # An ``update from`` that hit a survivor's own halo'd
                # entry would even copy *stale* halo rows over newer
                # host data.
                return _noop_op()
            return exec_ops.update_op(rt, device_id, to_c, from_c,
                                      fuse_transfers=fuse_transfers,
                                      label=f"update-spread@{device_id}")

        device_id, rerouted = fo.route_chunk(rt, cp.chunk, plan.devices,
                                             name=cp.name)
        op = fo.failover_op(rt, cp.chunk, plan.devices, factory,
                            name=cp.name, initial=(device_id, rerouted))
        # Re-routed updates are no-ops too: empty sanitizer footprint.
        items.append((device_id, op, cp.maps, cp.deps, cp.name,
                      [] if rerouted else None))
        provs.append((cp.chunk.index, cp.chunk.device if rerouted else None))
    did = _directive_begin(ctx, kind, plan.chunks)
    procs = exec_ops.submit_spread(ctx, items, directive_id=did)
    for proc, (chunk_index, rerouted_from) in zip(procs, provs):
        proc.prov = (did, chunk_index, rerouted_from)
    handle = SpreadHandle(ctx, procs, plan.chunks)
    if not nowait:
        yield from handle.wait()
    _directive_end(ctx, did, plan.chunks)
    return handle
