"""Macro-op replay: the compiled fast path for cached ``target spread`` plans.

On a :class:`~repro.spread.plan_cache.SpreadPlanCache` hit the directive
layer normally re-walks the cached plan and rebuilds the full per-chunk
object graph — task bodies, wait lists, present-table lookups — on every
launch.  That object churn is what capped warm launches at ~16k/s.

This module compiles a cached ``target spread`` plan (once, on first
replay) into a flat, immutable **macro-op program**: a tuple of slotted
per-chunk kernel records.  A replay then runs a tight interpreter loop
over the records:

* present-table resolutions (entry + kernel view per map clause) are cached
  per record and validated against :attr:`DeviceDataEnv.epoch` — the
  structural counter the data environment bumps on insert/remove/purge.
  Unchanged epoch ⟺ every captured entry is still live and still covers the
  same section, so lookups collapse to one integer compare;
* all chunk processes of the directive are created deferred and scheduled
  with a single :meth:`Simulator.schedule_batch` heap transaction (one
  ``heapq`` push over a reserved sequence range) instead of one push per
  chunk;
* per-chunk bookkeeping (task-context children, taskgroup membership,
  runtime task registries) is batched after the loop.

**Bit identity.** The replay path must be observationally identical to the
object path: same simulated clock, same trace, same event ordering.  It
therefore only engages when nothing can observe the (deliberately skipped)
per-op bookkeeping: no tools registered, no sanitizer, no fault injector,
no lost devices and no reductions.  Any of those → the object path runs,
unchanged.  ``depend`` clauses are replayed through the real
:class:`~repro.openmp.depend.DependTracker` with ``submit_spread``'s exact
two-phase protocol (all chunks resolve against the pre-directive frontier,
then register).  A chunk whose maps are all present runs as a
:class:`~repro.sim.timeline.TimelineProc` walker, which re-validates the
environment epoch *at run time* (the present table can change between
submit and run) and falls back to the generic
:func:`repro.openmp.exec_ops.kernel_op` generator when it moved.

Only ``target spread`` replays.  The data directives (``target enter/exit
data spread``, the ``target data spread`` region, ``target update spread``)
reuse their cached plan through the object path: their chunk ops are the
same ``enter_op``/``exit_op``/``update_op`` generators either way, so a
compiled program would save them nothing (measured in
``docs/performance.md``).

There is no switch for this path: what observes the run picks it (see
:func:`engaged`).  ``tests/spread/test_macro_replay.py`` enforces bit
identity against the cold (``plan_cache=False``) run and against a run
with a tool registered, which takes the object path.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.openmp import exec_ops
from repro.openmp.depend import compile_deps
from repro.sim import timeline as _timeline
from repro.sim.engine import Process


class MacroRecord:
    """One lowered kernel chunk of a macro program.

    ``steady`` caches the present-table resolution for the record's device:
    ``(epoch, held, kenv, found)`` where ``held`` is the per-clause
    ``(clause, interval, entry)`` list, ``kenv`` the kernel view
    environment, and ``found`` the distinct entries to gather waits from
    and register in-flight work on.  ``held``/``kenv`` are None when some
    map was absent at resolution time (the replay then runs the generic op
    generator).  The cache is validated against the live environment epoch
    before every use.
    """

    __slots__ = ("device_id", "lo", "hi", "maps", "deps", "name", "label",
                 "chunk_index", "steady")

    def __init__(self, device_id: int, lo: int, hi: int, maps, deps,
                 name: str, label: str, chunk_index: int) -> None:
        self.device_id = device_id
        self.lo = lo
        self.hi = hi
        self.maps = maps
        self.deps = deps
        self.name = name
        self.label = label
        self.chunk_index = chunk_index
        self.steady = None


class MacroProgram:
    """A compiled directive: its records plus lazily built replay state."""

    __slots__ = ("records", "info", "timeline", "dep_plan")

    def __init__(self, records: Sequence[MacroRecord]) -> None:
        self.records: Tuple[MacroRecord, ...] = tuple(records)
        # memoized directive-info dict (runtime.directive_info_for), filled
        # in by the directive layer on first replay
        self.info = None
        # lazy per-launch-shape fused timelines (repro.sim.timeline) and the
        # flattened depend clauses (False = program has none)
        self.timeline = None
        self.dep_plan = None

    def __len__(self) -> int:
        return len(self.records)

    def well_formed(self) -> bool:
        """Structural validation: ordered bounds, non-empty map intervals,
        valid device ids."""
        for r in self.records:
            if r.lo > r.hi or r.device_id < 0:
                return False
            for _clause, iv in r.maps:
                if iv.start >= iv.stop:
                    return False
        return True


# ---------------------------------------------------------------------------
# engagement + compilation
# ---------------------------------------------------------------------------

def engaged(rt) -> bool:
    """True when the replay path is observationally safe to use.

    Tools, the sanitizer and the fault injector all observe (or perturb)
    per-op bookkeeping the fast path skips
    (:func:`repro.sim.timeline.walkers_engaged`); lost devices make cached
    resolutions meaningless.  Any of them present → object path.
    """
    return _timeline.walkers_engaged(rt) and not rt._lost_devices


def compile_exec(plan) -> Optional[MacroProgram]:
    """Compile a ``target spread`` execution plan (kernel per chunk)."""
    prog = MacroProgram([
        MacroRecord(cp.chunk.device, cp.chunk.start, cp.chunk.interval.stop,
                    cp.maps, cp.deps, cp.name, cp.label, cp.chunk.index)
        for cp in plan.chunk_plans])
    return prog if prog.well_formed() else None


def program_for(cache, cell, compile_fn):
    """Cached program from a plan-cache *cell*, compiling on first use.

    The cell is the ``[plan, macro_state]`` pair
    :meth:`SpreadPlanCache.lookup` returned for the directive's key, so no
    second key hash is paid.  Uncompilable plans leave a ``False`` sentinel
    in the cell so the compile attempt is not repeated on every hit.
    Returns None when the object path must run.
    """
    prog = cell[1]
    if prog is None:
        prog = compile_fn()
        cell[1] = prog if prog is not None else False
        if prog is None:
            return None
        cache.macro_compiles += 1
    elif prog is False:
        return None
    cache.macro_replays += 1
    return prog


# ---------------------------------------------------------------------------
# replay interpreter
# ---------------------------------------------------------------------------

def _quiet_lookup(env, var, interval):
    """Side-effect-free present lookup: no counters, no memo writes.

    Returns None for absent *or partial* sections — the latter fall back to
    the generic op generator, which re-raises the proper mapping error.
    """
    memo = env._memo.get(var.key)
    if memo is not None and memo.section.contains(interval):
        return memo
    for entry in env._entries.get(var.key, ()):
        if entry.section.contains(interval):
            return entry
    return None


def _resolve_steady(env, rec: MacroRecord):
    """Resolve a record's maps against the current present table."""
    held = []
    found = []
    kenv = {}
    complete = True
    for clause, interval in rec.maps:
        entry = _quiet_lookup(env, clause.var, interval)
        if entry is None:
            complete = False
            continue
        found.append(entry)
        held.append((clause, interval, entry))
        kenv[clause.var.name] = entry.view()
    if not complete:
        held = None
        kenv = None
    return (env.epoch, held, kenv, tuple(found))


def _gather_waits(found) -> List:
    """Pending-op waits over *found* entries, pruned and deduplicated.

    Mirrors ``gather_entry_waits`` + the dedup loop in ``TaskCtx.submit``:
    completed events are pruned in place, order of first occurrence is
    preserved.
    """
    waits: List = []
    for entry in found:
        inflight = entry.inflight
        if inflight:
            # One fused pass: gather unprocessed events (first-occurrence
            # order, deduplicated) and note whether a prune is due.
            # _processed is Event's backing slot; reading it directly
            # skips one property descriptor call per event, and the prune
            # rebuild (a listcomp frame on 3.11) only runs when something
            # actually completed.
            prune = False
            for ev in inflight:
                if ev._processed:
                    prune = True
                elif ev not in waits:
                    waits.append(ev)
            if prune:
                inflight[:] = [ev for ev in inflight if not ev._processed]
    return waits


def _merge_dep_waits(waits: List, resolved) -> None:
    """Append depend-resolved events to *waits* with ``TaskCtx.submit``'s
    filter: skip completed events and first-occurrence duplicates."""
    for ev in resolved:
        if not ev._processed and ev not in waits:
            waits.append(ev)


def _plain_body(rt, waits, opgen) -> Generator:
    """Task-body wrapper identical to ``TaskCtx.submit``'s (minus tooling).

    Launch-invariant pieces (sim, host overhead) are looked up when the
    body first runs — the untimed drain — not on the submit fast path.
    """
    sim = rt.sim
    overhead = rt.cost_model.host_task_overhead
    if overhead > 0:
        yield sim.timeout(overhead)
    if waits:
        yield sim.all_of(waits)
    return (yield from opgen)


def _resolve_deps_compiled(prog: MacroProgram, depend):
    """Batched resolve of the program's depend clauses, or None if it has
    none.  Resolution is read-only against the pre-directive frontier (the
    two-phase protocol registers nothing until every record resolved), so
    hoisting all records' resolves before the creation loop is
    order-equivalent to the interleaved sequential calls."""
    cd = prog.dep_plan
    if cd is None:
        cd = compile_deps(prog.records)
        prog.dep_plan = cd if cd is not None else False
    if not cd:
        return None
    return depend.resolve_compiled(cd)


def _batch_bookkeeping(ctx, rt, procs) -> None:
    """The per-task registrations of ``TaskCtx.submit``, batched."""
    if not procs:
        return
    ctx.children.extend(procs)
    for group in ctx.groups:
        group.members.extend(procs)
        group.has_device_ops = True
    rt.note_tasks(procs)
    rt.note_device_ops(procs)


def replay_exec(ctx, prog: MacroProgram, kernel, cfg, fuse: bool,
                directive_id: int) -> List[Process]:
    """Interpret a compiled ``target spread`` program.

    Creates every chunk process deferred, then commits all starts in one
    ``schedule_batch`` heap transaction.  Per-record resolution is
    sequential so record *i+1*'s wait gathering sees record *i*'s in-flight
    registration — the per-entry chaining nowait launches rely on.
    """
    rt = ctx.rt
    sim = rt.sim
    envs = rt.dataenvs
    depend = rt.depend
    tl = None
    dep_waits = _resolve_deps_compiled(prog, depend)
    procs: List[Process] = []
    starts = []
    for i, rec in enumerate(prog.records):
        env = envs[rec.device_id]
        steady = rec.steady
        if steady is None or steady[0] != env.epoch:
            steady = _resolve_steady(env, rec)
            rec.steady = steady
        found = steady[3]
        waits = _gather_waits(found)
        if rec.deps:
            _merge_dep_waits(waits, dep_waits[i])
        if steady[1] is not None:
            if tl is None:
                tl = _timeline.kernel_timeline(rt, prog, kernel, cfg)
            proc = _timeline.TimelineProc.spawn(
                sim, rt, rec, kernel, cfg, fuse, waits, steady, tl, i,
                (directive_id, rec.chunk_index, None))
        else:
            gen = _plain_body(rt, waits, exec_ops.kernel_op(
                rt, rec.device_id, kernel, rec.lo, rec.hi, rec.maps,
                launch=cfg, fuse_transfers=fuse, label=rec.label))
            proc = Process.spawn_task(sim, gen, rec.name,
                                      (directive_id, rec.chunk_index, None))
        for entry in found:
            entry.inflight.append(proc)
        starts.append(proc._start)
        procs.append(proc)
    # Two-phase depend protocol: sibling chunks all resolved against the
    # pre-directive frontier above; only now do they register their own
    # records (submit_spread's exact ordering).
    if dep_waits is not None:
        depend.register_compiled(prog.dep_plan, procs)
    sim.schedule_batch(starts)
    _batch_bookkeeping(ctx, rt, procs)
    return procs
