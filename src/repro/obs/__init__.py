"""``repro.obs`` — the observability subsystem.

OMPT-style tool callbacks (:mod:`repro.obs.tool`), the profiling report
built from a finished run's trace and counters (:mod:`repro.obs.report`)
and the critical-path analyzer (:mod:`repro.obs.critpath`).  See
``docs/observability.md``.
"""

from repro.obs.critpath import (CausalRecorder, CritPathAnalysis,
                                CRITPATH_SCHEMA)
from repro.obs.report import ProfileReport, PROFILE_SCHEMA
from repro.obs.tool import (CALLBACK_POINTS, DATA_OP, DATA_OP_KINDS,
                            DEPENDENCE_RESOLVED, DEVICE_INIT,
                            DIRECTIVE_BEGIN, DIRECTIVE_END, KERNEL_COMPLETE,
                            KERNEL_LAUNCH, TARGET_SUBMIT, TASK_COMPLETE,
                            TASK_CREATE, TASK_SCHEDULE, Tool, ToolRegistry)

__all__ = [
    "CALLBACK_POINTS", "CRITPATH_SCHEMA", "DATA_OP", "DATA_OP_KINDS",
    "DEPENDENCE_RESOLVED", "DEVICE_INIT", "DIRECTIVE_BEGIN", "DIRECTIVE_END",
    "KERNEL_COMPLETE", "KERNEL_LAUNCH", "PROFILE_SCHEMA", "TARGET_SUBMIT",
    "TASK_COMPLETE", "TASK_CREATE", "TASK_SCHEDULE",
    "CausalRecorder", "CritPathAnalysis", "ProfileReport", "Tool",
    "ToolRegistry",
]
