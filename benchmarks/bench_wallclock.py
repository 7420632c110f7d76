#!/usr/bin/env python
"""Wall-clock benchmark script: host-time ratios between paired arms.

Unlike the pytest-benchmark modules next to it (which report *virtual*
seconds), this script measures what the simulation costs on the host, as
ratios of process CPU time between two arms of one program, over
alternating pairs (``repro.bench.wallclock``), and persists every
per-pair value with the median and quartiles as ``BENCH_wallclock.json``::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --pairs 5 --n-functional 18 --steps 6 --out /tmp/bench.json

It exits 1 after printing every gate the medians miss, and raises if an
arm did not take the path its ratio compares.  See
``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.wallclock import failed_gates, run_wallclock


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_wallclock.json",
                    help="where to write the JSON result")
    ap.add_argument("--n-functional", type=int, default=24,
                    help="Somier functional grid edge")
    ap.add_argument("--steps", type=int, default=12,
                    help="Somier timesteps")
    ap.add_argument("--pairs", type=positive_int, default=10,
                    help="alternating pairs of arms per ratio")
    ap.add_argument("--max-analyze-overhead", type=float, default=None,
                    metavar="FRAC",
                    help="fail (exit 1) if the median recording_overhead "
                         "exceeds FRAC (the documented budget is 0.05; CI "
                         "passes headroom for noisy runners)")
    ap.add_argument("--min-warm-speedup", type=float, default=None,
                    metavar="X",
                    help="fail (exit 1) if the median warm_launch_speedup "
                         "of the cached path over the uncached path falls "
                         "below X (CI uses 5)")
    ap.add_argument("--min-e2e-speedup", type=float, default=None,
                    metavar="X",
                    help="fail (exit 1) if the median fused_e2e_speedup "
                         "(generator path over walker path) falls below X "
                         "(CI uses 1.0)")
    args = ap.parse_args(argv)

    result = run_wallclock(n_functional=args.n_functional, steps=args.steps,
                           pairs=args.pairs,
                           timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))

    host = result["host"]
    print(f"host: {host['cpu_count']} cpu cores, Python {host['python']}, "
          f"NumPy {host['numpy']}, {host['platform']}")
    print(f"{result['pairs']} pairs per ratio, {result['clock']}, Somier "
          f"n={result['n_functional']}, {result['steps']} steps")
    for key in ("warm_launch_speedup", "fused_e2e_speedup",
                "recording_overhead", "analyze_vs_default", "report_vs_run"):
        r = result[key]
        print(f"{key:20s} median {r['median']:7.3f}  "
              f"quartiles [{r['q1']:.3f}, {r['q3']:.3f}]")

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"written to {args.out}")

    failed = failed_gates(result, {
        "warm_launch_speedup": (args.min_warm_speedup, None),
        "fused_e2e_speedup": (args.min_e2e_speedup, None),
        "recording_overhead": (None, args.max_analyze_overhead),
    })
    for msg in failed:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
