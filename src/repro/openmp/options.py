"""The run knobs of one runtime, the simulated counterpart of
libomptarget's ICV table: one frozen, validated :class:`RunOptions`, and
nothing else reads the knobs' environment variables.  The table in
``docs/architecture.md`` ("Run options") gives each field's keyword, CLI
flag, variable and default."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.faults import RetryPolicy, parse_fault_spec
from repro.sim.topology import (MACHINE_ENV, NodeTopology, cte_power_node,
                                machine_env_spec, parse_machine_spec)
from repro.util import envknobs
from repro.util.errors import OmpRuntimeError

_FLAGS = ("trace", "taskgroup_global_drain", "plan_cache", "analyze")


@dataclass(frozen=True)
class RunOptions:
    """The eight run knobs; a bad value raises :class:`OmpRuntimeError`
    naming the field.

    ``trace`` records the virtual-time trace (``OpenMPRuntime`` also takes
    it as ``trace_enabled``, the spelling of the frozen host benchmark in
    ``benchmarks/host/workloads.py``).  ``taskgroup_global_drain=False``
    gives spec-pure taskgroups instead of the paper's all-device barrier;
    ``plan_cache=False`` lowers every spread directive in full.
    ``faults`` is a fault spec (:mod:`repro.sim.faults`) or ``None`` (a
    spec with no rules, such as ``""`` or ``","``, is ``None``: it would
    inject nothing), ``fault_seed`` its seed, and
    ``retry`` the :class:`~repro.sim.faults.RetryPolicy` for transient
    faults.  ``sanitize`` is ``None``, ``"on"`` or ``"strict"`` (a race
    fails the run); bools and the words of
    :func:`~repro.util.envknobs.parse_flag` normalise to these.
    ``analyze`` attaches the causal recorder, which binds ops through the
    trace, so it turns ``trace`` on.
    """

    trace: bool = True
    taskgroup_global_drain: bool = True
    plan_cache: bool = True
    faults: Optional[str] = None
    fault_seed: int = 0
    retry: RetryPolicy = RetryPolicy()
    sanitize: Optional[str] = None
    analyze: bool = False

    def __post_init__(self) -> None:
        for name in _FLAGS:
            if not isinstance(getattr(self, name), bool):
                raise OmpRuntimeError(f"{name}={getattr(self, name)!r}: "
                                      "expected True or False")
        if self.faults is not None and not _check_faults(self.faults,
                                                          "faults"):
            object.__setattr__(self, "faults", None)
        if type(self.fault_seed) is not int:
            raise OmpRuntimeError(
                f"fault_seed={self.fault_seed!r}: expected an integer")
        if not isinstance(self.retry, RetryPolicy):
            raise OmpRuntimeError(
                f"retry={self.retry!r}: expected a RetryPolicy")
        object.__setattr__(self, "sanitize",
                           _sanitize_mode(self.sanitize, "sanitize"))
        if self.analyze and not self.trace:
            object.__setattr__(self, "trace", True)

    @classmethod
    def from_env(cls, **fields) -> "RunOptions":
        """*fields*, with ``faults``, ``fault_seed``, ``sanitize`` and
        ``analyze`` taken from ``REPRO_FAULTS``, ``REPRO_FAULT_SEED``,
        ``REPRO_SANITIZE`` and ``REPRO_ANALYZE`` when missing or ``None``
        (a bad value names its variable), so CI can arm them for a whole
        suite.  Analysis armed from the environment on an untraced run
        records nothing."""
        if fields.get("faults") is None:
            fields["faults"] = envknobs.env_raw("REPRO_FAULTS")
            if fields["faults"] is not None:
                _check_faults(fields["faults"], "REPRO_FAULTS")
        if fields.get("fault_seed") is None:
            fields["fault_seed"] = _parse(envknobs.env_int,
                                          "REPRO_FAULT_SEED", default=0)
        if fields.get("sanitize") is None:
            fields["sanitize"] = _sanitize_mode(
                envknobs.env_raw("REPRO_SANITIZE"), "REPRO_SANITIZE")
        if fields.get("analyze") is None:
            fields["analyze"] = (_parse(envknobs.env_flag, "REPRO_ANALYZE")
                                 and fields.get("trace", True) is True)
        return cls(**fields)


def resolve_topology(topology: Optional[NodeTopology] = None):
    """*topology*, else the ``REPRO_MACHINE`` machine, else the paper's
    four-GPU CTE-POWER node."""
    if topology is not None:
        return topology
    spec = machine_env_spec()
    if spec is None:
        return cte_power_node(4)
    try:
        return parse_machine_spec(spec)
    except ValueError as err:
        raise OmpRuntimeError(f"{MACHINE_ENV}: {err}") from err


def _parse(read: Callable, name: str, **kw):
    """``read(name, **kw)``, its ValueError raised as OmpRuntimeError."""
    try:
        return read(name, **kw)
    except ValueError as err:
        raise OmpRuntimeError(str(err)) from err


def _check_faults(spec, name: str):
    """The rules of the fault *spec*; a bad spec raises naming *name*."""
    if not isinstance(spec, str):
        raise OmpRuntimeError(f"{name}={spec!r}: expected a spec string")
    try:
        return parse_fault_spec(spec)
    except ValueError as err:
        raise OmpRuntimeError(f"invalid {name} spec: {err}") from err


def _sanitize_mode(value, name: str) -> Optional[str]:
    """``None``, ``"on"`` or ``"strict"`` for a sanitize value."""
    if isinstance(value, str):
        value = (_parse(envknobs.parse_flag, name, raw=value,
                        extra=("strict",)) if value.strip() else None)
    if value is None or value is False:
        return None
    if value is True:
        return "on"
    if value == "strict":
        return "strict"
    raise OmpRuntimeError(
        f"{name}={value!r}: expected None, a bool, 'on' or 'strict'")
