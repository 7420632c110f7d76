"""OpenMP host runtime substrate.

This package reproduces the pieces of libomp/libomptarget the paper's
evaluation depends on:

* :mod:`repro.openmp.runtime` — the runtime object (ICVs, devices, run loop);
* :mod:`repro.openmp.options` — :class:`RunOptions`, the runtime's run
  knobs, validated once and filled from the environment;
* :mod:`repro.openmp.tasks` — explicit tasks, ``taskwait``, ``taskgroup``,
  ``taskloop``;
* :mod:`repro.openmp.depend` — data-based dependence resolution for the
  ``depend`` clause;
* :mod:`repro.openmp.mapping` — ``map`` clauses and array sections;
* :mod:`repro.openmp.dataenv` — per-device data environments with OpenMP
  present-table semantics (refcounts, the illegal-extension rule);
* :mod:`repro.openmp.target` — the *existing* single-device directives the
  paper compares against: ``target``, ``target data``, ``target
  enter/exit data``, ``target update`` and the combined
  ``target teams distribute parallel for``.

Host programs are generator functions receiving a :class:`TaskCtx`; directive
functions are generators driven with ``yield from`` (the simulated analogue
of reaching a pragma).
"""

from repro.openmp.mapping import Var, MapType, MapClause, Map, concretize_section
from repro.openmp.dataenv import DeviceDataEnv, MappedEntry
from repro.openmp.depend import DependTracker, Dep
from repro.openmp.tasks import TaskCtx, Taskgroup
from repro.openmp.options import RunOptions
from repro.openmp.runtime import OpenMPRuntime
from repro.openmp.target import (
    target,
    target_teams_distribute_parallel_for,
    target_data,
    target_enter_data,
    target_exit_data,
    target_update,
)

__all__ = [
    "Var",
    "MapType",
    "MapClause",
    "Map",
    "concretize_section",
    "DeviceDataEnv",
    "MappedEntry",
    "DependTracker",
    "Dep",
    "TaskCtx",
    "Taskgroup",
    "OpenMPRuntime",
    "RunOptions",
    "target",
    "target_teams_distribute_parallel_for",
    "target_data",
    "target_enter_data",
    "target_exit_data",
    "target_update",
]
