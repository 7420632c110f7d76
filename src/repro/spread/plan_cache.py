"""Launch-plan caching for the spread directives (directive replay).

The Somier programs re-execute structurally identical spread directives
every timestep: same kernel, same bounds, same devices clause, same
schedule, same symbolic map/depend sections.  Lowering one of those
directives — device-clause validation, chunking, per-chunk section
concretization, name formatting — is pure host-side work whose result
depends only on those inputs, so it can be computed once and replayed.
This is the simulated analogue of what production offload runtimes do for
repeated launches (JACC caches kernel/launch state across invocations; the
LLVM/OpenMP GPU runtime memoizes the launch path).

:class:`SpreadPlanCache` maps a structural *key* of the directive to a
:class:`SpreadPlan` holding the fully-lowered, immutable launch recipe:
the chunk list and, per chunk, the concretized map intervals, the
concretized depend skeleton and the task-name strings.  The directive
layer replays a plan by rebuilding only the per-call pieces (the operation
generators), so a replayed directive issues bit-identical work to a cold
one — same ops, same order, same names, same virtual-time trace.

Cache keys and invalidation
---------------------------

Keys are structural tuples built from:

* the kernel (by identity — :class:`~repro.device.kernel.KernelSpec`
  carries an unhashable scalars dict, so the plan anchors a strong
  reference and the key uses ``id()``),
* the iteration range / data range and the devices clause,
* the schedule signature (kind + chunk sizes; the dynamic schedule has no
  signature and is never cached — its chunk→device assignment is decided
  at execution time),
* a map signature: per clause ``(map_type, var, var extent, section)``
  where variables compare by identity and sections structurally
  (:class:`~repro.spread.sections.SpreadExpr` hashes structurally),
* a depend signature of the same shape.

Entries almost never go stale because every input that could change the
lowering is part of the key.  Rebinding a name to a *new*
:class:`~repro.openmp.mapping.Var` (or changing an array's extent)
changes the key, so the old entry is simply never hit again.  The one
event that does invalidate is *device loss* (fault injection):
:meth:`SpreadPlanCache.invalidate_devices` drops every plan that routed
chunks to a lost device (or to any device of a lost node).  This is
hygiene more than correctness — failover re-routes chunks at launch time
regardless of what the plan says — but it keeps the cache from pinning
plans that will never replay verbatim again and keeps its entry count
honest.
Anything the key cannot prove stable (an unhashable section, a dynamic
schedule) falls back to the uncached slow path.  ``plan_cache=False`` on
the runtime (CLI ``--no-plan-cache``) disables lookup and store entirely.

Extension gates and per-call semantic checks (reduction×nowait conflicts)
stay *outside* the cached region: a cache hit only skips work whose
outcome is fully determined by the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tool import PLAN_CACHE


@dataclass(frozen=True)
class ChunkPlan:
    """The lowered launch recipe of one chunk of a spread directive.

    ``maps`` holds ``(MapClause, Interval)`` pairs (concretized for this
    chunk), ``deps`` the concretized dependence skeleton, ``name`` the task
    name and ``label`` the op label.  ``extra`` carries directive-specific
    precomputation (``target update spread`` keeps its concrete to/from
    section lists here).
    """

    chunk: Any
    maps: Tuple[Any, ...]
    deps: Tuple[Any, ...]
    name: str
    label: str = ""
    extra: Any = None


@dataclass(frozen=True)
class SpreadPlan:
    """One directive's fully-lowered plan: validated devices + chunk plans.

    ``anchors`` pins objects whose ``id()`` participates in the cache key
    (the kernel), so a key can never alias a recycled id.
    """

    devices: Tuple[int, ...]
    chunks: Tuple[Any, ...]
    chunk_plans: Tuple[ChunkPlan, ...]
    anchors: Tuple[Any, ...] = ()


class SpreadPlanCache:
    """Keyed store of :class:`SpreadPlan` objects with hit/miss counters."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # key -> [plan, macro_state] cell.  The second slot carries the
        # compiled macro-op program (repro.spread.macro): None until a
        # compile is attempted, the program on success, or a ``False``
        # sentinel for a plan that was tried and found uncompilable so the
        # attempt is not repeated on every hit.  Keeping it in the same
        # cell means a hit pays ONE key hash for both lookups and an
        # evicted plan can never leave a stale program behind.  Only
        # ``target spread`` compiles; data-directive cells keep None.
        self._plans: Dict[Any, List[Any]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.macro_compiles = 0
        self.macro_replays = 0

    def lookup(self, key: Any) -> Optional[List[Any]]:
        """The ``[plan, macro_state]`` cell for *key*, or None (a miss).

        ``key=None`` marks an uncacheable directive and is never counted.
        """
        if key is None or not self.enabled:
            return None
        try:
            cell = self._plans.get(key)
        except TypeError:  # unhashable key component: uncacheable
            return None
        if cell is None:
            self.misses += 1
        else:
            self.hits += 1
        return cell

    def store(self, key: Any, plan: Any) -> None:
        if key is None or not self.enabled:
            return
        try:
            self._plans[key] = [plan, None]
        except TypeError:  # unhashable key component: skip silently
            pass

    def clear(self) -> None:
        self._plans.clear()

    def invalidate_devices(self, device_ids: Sequence[int]) -> int:
        """Drop every cached plan that routes work to any of *device_ids*.

        Called by :meth:`OpenMPRuntime.mark_device_lost` with one device
        and by :meth:`OpenMPRuntime.mark_node_lost` with all of a node's
        devices (one pass over the cache either way).  Returns the number
        of cache entries dropped.  Some entries hold a tuple of plans (a
        spread data region caches its enter and exit plans together);
        such an entry is dropped if *any* member references one of the
        devices.

        Each evicted ``[plan, macro_state]`` cell is also *poisoned in
        place* — plan slot cleared, macro slot set to the ``False``
        ("never compile") sentinel.  The plan and its macro program live
        or die together: a holder that grabbed the cell before the loss
        (a directive mid-flight, a handle adopting replay state) can
        neither replay the stale plan nor compile-and-adopt a macro
        program derived from it after the signature is re-lowered into a
        fresh cell.
        """
        ids = frozenset(device_ids)

        def _references(plan: Any) -> bool:
            if isinstance(plan, tuple):
                return any(_references(p) for p in plan)
            if ids.intersection(getattr(plan, "devices", ())):
                return True
            return any(getattr(c, "device", None) in ids
                       for c in getattr(plan, "chunks", ()))

        stale = [key for key, cell in self._plans.items()
                 if _references(cell[0])]
        for key in stale:
            cell = self._plans.pop(key)
            cell[0] = None
            cell[1] = False
        self.invalidations += len(stale)
        return len(stale)

    def drop_resolutions(self) -> None:
        """Forget every compiled program's cached present-table resolution
        (``MacroRecord.steady``), whose kernel views pin device buffers.
        Cells, programs and counters stay; a later replay re-resolves."""
        for _plan, prog in self._plans.values():
            if prog:
                for rec in prog.records:
                    rec.steady = None

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._plans),
                "invalidations": self.invalidations,
                "macro_compiles": self.macro_compiles,
                "macro_replays": self.macro_replays,
                "macro_entries": sum(1 for c in self._plans.values()
                                     if c[1] is not None
                                     and c[1] is not False)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SpreadPlanCache enabled={self.enabled} "
                f"entries={len(self._plans)} hits={self.hits} "
                f"misses={self.misses}>")


# ---------------------------------------------------------------------------
# key builders
# ---------------------------------------------------------------------------

def _section_key(section: Any) -> Any:
    if section is None:
        return None
    if isinstance(section, (tuple, list)):
        return tuple(section)
    return section


def maps_signature(maps: Sequence[Any]) -> Tuple[Any, ...]:
    """Structural signature of a map-clause list.

    The variable's extent rides along so growing/shrinking the underlying
    array (were a Var ever rebuilt around one) changes the signature.

    The ``_section_key`` normalization is inlined: this runs on *every*
    directive call, hit or miss, and the extra call frame per clause was a
    measurable share of the hit path (the end-to-end Somier run was slower
    with the cache on than off before it was flattened).  The map type
    rides as its value string, not the enum member — ``enum.Enum.__hash__`` is a
    Python-level call, and the key is hashed on every directive call.
    """
    out = []
    for c in maps:
        s = c.section
        if type(s) is list:
            s = tuple(s)
        out.append((c.map_type._value_, c.var, c.var.extent, s))
    return tuple(out)


def deps_signature(deps: Sequence[Any]) -> Tuple[Any, ...]:
    if not deps:
        return ()
    out = []
    for d in deps:
        s = d.section
        if type(s) is list:
            s = tuple(s)
        out.append((d.kind._value_, d.var, d.var.extent, s))
    return tuple(out)


def sections_signature(pairs: Sequence[Tuple[Any, Any]]) -> Tuple[Any, ...]:
    """Signature of ``(var, section)`` pairs (``target update spread``)."""
    out = []
    for var, section in pairs:
        if type(section) is list:
            section = tuple(section)
        out.append((var, var.extent, section))
    return tuple(out)


def exec_key(kernel: Any, lo: int, hi: int, devices: Sequence[int],
             sched_signature: Any, maps: Sequence[Any],
             depends: Sequence[Any]) -> Optional[Any]:
    """Cache key of an executable spread directive, or None if uncacheable
    (dynamic schedule, malformed bounds).

    Bounds are *not* forced to Python int: NumPy integers hash and compare
    equal to the equivalent Python int, so mixed-type callers still land on
    the same entry and the hit path skips two conversions per call.
    """
    if sched_signature is None:
        return None
    try:
        return ("exec", id(kernel), lo, hi, tuple(devices),
                sched_signature, maps_signature(maps),
                deps_signature(depends) if depends else ())
    except (TypeError, ValueError, AttributeError):
        return None


def data_key(kind: str, devices: Sequence[int], range_: Tuple[int, int],
             chunk_size: Optional[int], maps: Sequence[Any],
             depends: Sequence[Any] = ()) -> Optional[Any]:
    """Cache key of a spread data directive (enter/exit/data region)."""
    try:
        return ("data", kind, tuple(devices), range_[0], range_[1],
                chunk_size, maps_signature(maps), deps_signature(depends))
    except (TypeError, ValueError, IndexError, AttributeError):
        return None


def update_key(devices: Sequence[int], range_: Tuple[int, int],
               chunk_size: Optional[int], to: Sequence[Tuple[Any, Any]],
               from_: Sequence[Tuple[Any, Any]],
               depends: Sequence[Any] = ()) -> Optional[Any]:
    """Cache key of ``target update spread``."""
    try:
        return ("update", tuple(devices), range_[0], range_[1],
                chunk_size, sections_signature(to),
                sections_signature(from_), deps_signature(depends))
    except (TypeError, ValueError, IndexError, AttributeError):
        return None


def note_plan_cache(rt, kind: str, key: Any, hit: bool) -> None:
    """Fire the ``plan_cache`` tool callback for a cacheable directive."""
    if key is None:
        return
    tools = rt.tools
    if tools:
        tools.dispatch(PLAN_CACHE, kind=kind, hit=hit, time=rt.sim.now)
