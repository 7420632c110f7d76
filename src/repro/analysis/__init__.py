"""Whole-program static analysis and dynamic race checking.

Two complementary tools over the directive stack:

* :mod:`repro.analysis.linter` — **spreadlint**, a static pass suite over
  whole directive programs (the ``.omp`` mini-language of
  :mod:`repro.analysis.program`).  Section arithmetic is evaluated per
  chunk into :class:`~repro.util.intervals.Interval` footprints to find
  chunk-level and directive-level races, map-flow mistakes and broken
  ``depend`` graphs before anything runs.

* :mod:`repro.analysis.sanitizer` — an Archer/TSan-style **race
  sanitizer** for the runtime: per-chunk interval access footprints are
  recorded against the happens-before order of the task graph, and
  conflicting unordered accesses are reported with device/directive
  provenance.  Enable with ``OpenMPRuntime(sanitize=True)``,
  ``repro somier --sanitize`` or ``REPRO_SANITIZE=1``.

Diagnostic codes, severities and the exit-code contract are documented in
``docs/static-analysis.md``.

Attribute access is lazy (PEP 562) so that runtime modules can import
:mod:`repro.analysis.sanitizer` without dragging the pragma/spread front
end (and its import graph) in behind them.
"""

from __future__ import annotations

_EXPORTS = {
    "CATALOG": "repro.analysis.diagnostics",
    "Diagnostic": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "LintMachine": "repro.analysis.linter",
    "lint_machine_for": "repro.analysis.linter",
    "lint_program": "repro.analysis.linter",
    "lint_source": "repro.analysis.linter",
    "resolve_lint_machine": "repro.analysis.linter",
    "OmpProgram": "repro.analysis.program",
    "parse_program": "repro.analysis.program",
    "RaceReport": "repro.analysis.sanitizer",
    "RaceSanitizer": "repro.analysis.sanitizer",
    "LintVerdict": "repro.analysis.symbolic",
    "lint_source_verdict": "repro.analysis.symbolic",
    "machine_cutoff": "repro.analysis.symbolic",
    "DiffSummary": "repro.analysis.diffcheck",
    "run_diffcheck": "repro.analysis.diffcheck",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
