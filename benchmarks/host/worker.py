"""One child interpreter of the host benchmark.

    python benchmarks/host/worker.py {timed|traced} WORKLOAD SEED BUDGET_S

``timed`` runs the workload's cold unit (its end is the child's set-up
time, measured from this file's first statement, before NumPy or
``repro`` is imported), then untraced units until BUDGET_S seconds of unit
time have passed.  ``traced`` does the same and then runs further units
under ``cProfile`` until another BUDGET_S seconds (and at least
``MIN_TRACED`` units) have passed, attributing their self time to layers.

Times are the process's CPU seconds (``time.process_time``).  With its
default settings the simulator runs on one thread, so on an idle host this
equals wall time; on a shared host it leaves out the time the OS gives to
other processes, which otherwise dominates the run-to-run spread.

Each unit's time includes a full garbage collection after its result is
dropped: a run's arrays are freed only by the cyclic collector, so without
it the heap grows by a run's footprint per unit and later units run on a
different heap than earlier ones.  The child prints one JSON object as the
last line of its standard output; ``run.py`` turns it into metrics.
"""

import time

T0 = time.process_time()

import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
import workloads  # noqa: E402
from layers import attribute  # noqa: E402

#: fewest units a loop runs, whatever its budget
MIN_UNITS = 2
#: fewest profiled units per workload (spread-warm units are short)
MIN_TRACED = {"spread-warm": 20}


class Child:
    """Runs units of one workload and tallies attempts and failures."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = workloads.build(name, seed)
        self.attempted = 0
        self.failed = 0
        self.counts = None

    def unit(self, profiler=None):
        """One checked unit: (seconds, seconds per warm launch)."""
        clock = time.process_time
        self.attempted += 1
        t0 = clock()
        try:
            result = self.workload.unit(profiler)
            t1 = clock()
            failures = self.workload.check(result)
            launches = self.workload.launch_samples(result)
            if self.counts is None:
                self.counts = self.workload.counts(result)
        except Exception:
            t1 = clock()
            failures, launches = [traceback.format_exc()], []
        if failures:
            self.failed += 1
            print(f"{self.name}: unit {self.attempted} failed: "
                  + "; ".join(failures), file=sys.stderr)
        result = None
        t2 = clock()
        gc.collect()
        return t1 - t0 + clock() - t2, launches

    def loop(self, budget: float, min_units: int, profiler=None):
        """Units until *budget* seconds and *min_units* units are done."""
        times, launches = [], []
        while sum(times) < budget or len(times) < min_units:
            t, b = self.unit(profiler)
            times.append(t)
            launches.extend(b)
        return times, launches


def main(argv) -> int:
    mode, name, seed, budget = argv[0], argv[1], int(argv[2]), float(argv[3])
    child = Child(name, seed)
    child.unit()
    setup_s = time.process_time() - T0
    run_s, launch_s = child.loop(budget, MIN_UNITS)
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "launch_s": launch_s,
        "numpy": np.__version__,
    }
    if mode == "traced":
        prof = cProfile.Profile()
        traced_s, traced_launch_s = child.loop(
            budget, MIN_TRACED.get(name, MIN_UNITS), prof)
        stats = pstats.Stats(prof).stats
        out.update({
            "traced_s": traced_s,
            "traced_launch_s": traced_launch_s,
            "layer_s": attribute(stats, os.path.dirname(repro.__file__),
                                 os.path.dirname(__file__)),
            "profiled_s": sum(entry[2] for entry in stats.values()),
        })
    out.update({
        "attempted": child.attempted,
        "failed": child.failed,
        "counts": child.counts,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
