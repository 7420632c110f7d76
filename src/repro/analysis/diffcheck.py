"""Differential verification: the static linter vs the runtime sanitizer.

The linter claims to *prove* race-freedom; the runtime's interval race
sanitizer *observes* races during simulated execution.  This module
closes the loop between them: seeded random ``.omp`` programs are both
linted and executed across a sample of machine shapes, and the verdicts
are compared per shape:

* **unsoundness** (fatal): the linter reports no error at a shape, but
  executing the program there either trips the race sanitizer or crashes
  the runtime.  A single such disagreement means a lint pass is wrong —
  ``repro lint-fuzz`` exits non-zero.
* **imprecision** (candidate): the linter reports a race (SL2xx/SL3xx)
  that execution never confirms at any shape.  Expected occasionally —
  the linter's happens-before model is deliberately coarser than the
  engine's (e.g. it does not exploit per-device queue ordering) — so
  these are only counted, not failed.

The generator sticks to the statically analyzable fragment (static
schedules, no depend clauses, a final ``taskwait``) and biases toward
halo'd sections and ``nowait`` so genuine races and §V-B extension
violations appear regularly in the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Severity
from repro.analysis.linter import lint_machine_for, lint_program
from repro.analysis.program import (DirectiveStmt, TaskwaitStmt,
                                    parse_program)
from repro.device.kernel import KernelSpec
from repro.openmp.mapping import Var
from repro.openmp.runtime import OpenMPRuntime
from repro.pragma import ast_nodes as A
from repro.pragma.codegen import execute_pragma
from repro.pragma.parser import parse_pragma
from repro.sim.topology import parse_machine_spec

_D = A.DirectiveKind

#: machine shapes every fuzzed program is checked on
DEFAULT_SHAPES = ("cte-power:1", "cte-power:2", "cte-power:4", "cluster:2x2")

#: lint codes that assert a data race
RACE_CODES = ("SL201", "SL202", "SL301", "SL302")

_KERNEL_KINDS = (_D.TARGET, _D.TARGET_TEAMS_DPF, _D.TARGET_SPREAD,
                 _D.TARGET_SPREAD_TEAMS_DPF)

_OWN = "[omp_spread_start : omp_spread_size]"
_HALO = "[omp_spread_start - 1 : omp_spread_size + 2]"


# -- program generator --------------------------------------------------------


def generate_program(seed: int) -> str:
    """One seeded random ``.omp`` program in the analyzable fragment."""
    rng = random.Random(seed)
    n = rng.choice([32, 48, 64])
    chunk = rng.choice([8, 16])
    names = ["u", "v", "w"]
    devices = rng.choice(["devices(0,1)", "devices(0,1,2,3)", "devices(*)"])
    lines = [f"// lint-fuzz seed {seed}", f"declare N = {n}"]
    lines += [f"declare {name}[N + 2]" for name in names]
    lines.append("")

    resident = rng.random() < 0.5
    halo_enter = rng.random() < 0.5
    if resident:
        maps = " ".join(
            f"map(to: {name}{_HALO if halo_enter else _OWN})"
            for name in names)
        lines.append(f"#pragma omp target enter data spread {devices} "
                     f"range(1 : N) chunk_size({chunk}) {maps}")
        lines.append("")

    for _ in range(rng.randint(1, 3)):
        read, write = rng.sample(names, 2)
        read_sec = _HALO if rng.random() < 0.5 else _OWN
        write_sec = _HALO if rng.random() < 0.15 else _OWN
        nowait = "nowait " if rng.random() < 0.35 else ""
        lines.append(
            "#pragma omp target spread teams distribute parallel for "
            f"{devices} spread_schedule(static, {chunk}) {nowait}"
            f"map(to: {read}{read_sec}) map(from: {write}{write_sec})")
        lines.append("loop(1 : N)")
        lines.append("")
        if rng.random() < 0.3:
            lines.append("taskwait")
            lines.append("")

    if rng.random() < 0.3:
        name = rng.choice(names)
        direction = rng.choice(["from", "to"])
        lines.append(f"#pragma omp target update spread {devices} "
                     f"range(1 : N) chunk_size({chunk}) "
                     f"{direction}({name}{_OWN})")
        lines.append("")

    if resident:
        maps = " ".join(
            [f"map(from: {names[0]}{_OWN})"]
            + [f"map(release: {name}{_HALO if halo_enter else _OWN})"
               for name in names[1:]])
        lines.append(f"#pragma omp target exit data spread {devices} "
                     f"range(1 : N) chunk_size({chunk}) {maps}")
        lines.append("")
    lines.append("taskwait")
    return "\n".join(lines) + "\n"


# -- execution ----------------------------------------------------------------


def _noop_body(lo: int, hi: int, env) -> None:
    return None


_NOOP = KernelSpec("lint-fuzz-noop", _noop_body)


def drive_program(rt: OpenMPRuntime, program) -> None:
    """Run a parsed :class:`OmpProgram` on *rt*: arrays become zeroed
    host buffers, kernels get a no-op body (the sanitizer and cost model
    watch the *maps*, not the arithmetic)."""
    arrays = {name: Var(name, np.zeros(extent))
              for name, extent in program.arrays.items()}
    symbols: Dict[str, object] = dict(arrays)
    symbols.update(program.scalars)

    def host_program(omp):
        for stmt in program.statements:
            if isinstance(stmt, TaskwaitStmt):
                yield from omp.taskwait()
                continue
            assert isinstance(stmt, DirectiveStmt)
            directive = parse_pragma(stmt.text)
            body = _NOOP if directive.kind in _KERNEL_KINDS else None
            yield from execute_pragma(omp, stmt.text, symbols, body=body,
                                      loop=stmt.loop)

    rt.run(host_program)


def execute_source(source: str, shape: str) -> Tuple[int, Optional[str]]:
    """Run one ``.omp`` listing on the simulated runtime at *shape* with
    the race sanitizer armed; returns ``(race_count, error)``."""
    program, structural = parse_program(source)
    if structural:
        return 0, f"structural: {structural[0].message}"
    rt = OpenMPRuntime(topology=parse_machine_spec(shape), sanitize="on",
                       trace=False)
    try:
        drive_program(rt, program)
    except Exception as exc:            # noqa: BLE001 - classify, don't die
        return (len(rt.sanitizer.reports) if rt.sanitizer else 0,
                f"{type(exc).__name__}: {exc}")
    return (len(rt.sanitizer.reports) if rt.sanitizer else 0), None


# -- comparison ---------------------------------------------------------------


@dataclass
class ShapeOutcome:
    """Linter vs runtime on one program at one machine shape."""

    shape: str
    lint_errors: List[str]
    lint_races: List[str]
    runtime_races: int
    runtime_error: Optional[str]

    @property
    def unsound(self) -> bool:
        """Lint-clean but execution raced or crashed: a linter bug."""
        return not self.lint_errors and (
            self.runtime_races > 0 or self.runtime_error is not None)

    @property
    def race_confirmed(self) -> bool:
        return self.runtime_races > 0 or self.runtime_error is not None

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "lint_errors": list(self.lint_errors),
            "lint_races": list(self.lint_races),
            "runtime_races": self.runtime_races,
            "runtime_error": self.runtime_error,
            "unsound": self.unsound,
        }


@dataclass
class ProgramResult:
    seed: int
    source: str
    outcomes: List[ShapeOutcome] = field(default_factory=list)

    @property
    def unsound(self) -> bool:
        return any(o.unsound for o in self.outcomes)

    @property
    def imprecise(self) -> bool:
        """The linter asserted a race somewhere, execution confirmed it
        nowhere — an imprecision candidate, not a failure."""
        asserted = any(o.lint_races for o in self.outcomes)
        confirmed = any(o.race_confirmed for o in self.outcomes
                        if o.lint_races)
        return asserted and not confirmed


@dataclass
class DiffSummary:
    count: int
    shapes: List[str]
    results: List[ProgramResult]

    @property
    def unsound(self) -> List[ProgramResult]:
        return [r for r in self.results if r.unsound]

    @property
    def imprecise(self) -> List[ProgramResult]:
        return [r for r in self.results if r.imprecise]

    @property
    def ok(self) -> bool:
        return not self.unsound

    def render(self) -> str:
        lines = [f"lint-fuzz: {self.count} programs x "
                 f"{len(self.shapes)} shapes "
                 f"({', '.join(self.shapes)})",
                 f"  unsound disagreements: {len(self.unsound)}",
                 f"  imprecision candidates: {len(self.imprecise)}"]
        for result in self.unsound:
            bad = next(o for o in result.outcomes if o.unsound)
            lines.append(
                f"  UNSOUND seed {result.seed} at {bad.shape}: "
                f"{bad.runtime_races} race(s), "
                f"error={bad.runtime_error!r}, "
                f"lint said {bad.lint_errors or 'clean'}")
        return "\n".join(lines)


def check_program(source: str, seed: int = 0,
                  shapes: Sequence[str] = DEFAULT_SHAPES) -> ProgramResult:
    """Lint and execute one program at every shape."""
    result = ProgramResult(seed=seed, source=source)
    for shape in shapes:
        program, structural = parse_program(source)
        diags = lint_program(program, structural,
                             machine=lint_machine_for(shape))
        errors = sorted({d.code for d in diags
                         if d.severity is Severity.ERROR})
        races = sorted({d.code for d in diags if d.code in RACE_CODES})
        run_races, run_error = execute_source(source, shape)
        result.outcomes.append(ShapeOutcome(
            shape=shape, lint_errors=errors, lint_races=races,
            runtime_races=run_races, runtime_error=run_error))
    return result


def run_diffcheck(seed: int = 0, count: int = 50,
                  shapes: Sequence[str] = DEFAULT_SHAPES) -> DiffSummary:
    """Generate *count* programs from *seed* and compare verdicts."""
    results = [check_program(generate_program(seed + i), seed=seed + i,
                             shapes=shapes)
               for i in range(count)]
    return DiffSummary(count=count, shapes=list(shapes), results=results)
