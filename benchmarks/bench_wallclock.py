#!/usr/bin/env python
"""Wall-clock benchmark script: spread launch-plan cache speedup.

Unlike the pytest-benchmark modules next to it (which report *virtual*
seconds), this script measures **real** host-side seconds — the cost of
lowering spread directives with and without the launch-plan cache — and
persists the result as ``BENCH_wallclock.json``::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --repeats 10 --n-functional 18 --steps 6 --out /tmp/bench.json

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.wallclock import run_wallclock


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_wallclock.json",
                    help="where to write the JSON result")
    ap.add_argument("--n", type=int, default=4096,
                    help="microbench loop extent")
    ap.add_argument("--devices", type=int, default=4,
                    help="microbench device count")
    ap.add_argument("--repeats", type=int, default=30,
                    help="microbench batches (first is the cold sample)")
    ap.add_argument("--launches", type=int, default=5,
                    help="nowait launches per timed batch")
    ap.add_argument("--n-functional", type=int, default=24,
                    help="end-to-end Somier functional grid edge")
    ap.add_argument("--steps", type=int, default=12,
                    help="end-to-end Somier timesteps")
    ap.add_argument("--analyzer-runs", type=int, default=3,
                    help="repeats per arm of the analyzer-overhead bench "
                         "(min is reported)")
    ap.add_argument("--max-analyze-overhead", type=float, default=None,
                    metavar="FRAC",
                    help="fail (exit 1) if causal-edge recording costs more "
                         "than FRAC of the traced wall time (the documented "
                         "budget is 0.05; CI passes headroom for noisy "
                         "runners)")
    ap.add_argument("--min-warm-speedup", type=float, default=None,
                    metavar="X",
                    help="fail (exit 1) if the warm-launch speedup of the "
                         "cached+macro path over the uncached path falls "
                         "below X (the plan-cache/macro-replay regression "
                         "gate; CI uses 5)")
    ap.add_argument("--min-e2e-speedup", type=float, default=None,
                    metavar="X",
                    help="fail (exit 1) if the fused-timeline end-to-end "
                         "speedup (fused off / fused on wall time) falls "
                         "below X (the fused-timeline regression gate; see "
                         "docs/performance.md for the measured ratio and "
                         "what CI uses)")
    args = ap.parse_args(argv)

    result = run_wallclock(
        n=args.n, num_devices=args.devices, repeats=args.repeats,
        launches=args.launches, n_functional=args.n_functional,
        steps=args.steps, analyzer_runs=args.analyzer_runs,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))

    host = result["host"]
    print(f"host: {host['cpu_count']} cpu cores, Python {host['python']}, "
          f"NumPy {host['numpy']}, {host['platform']}")
    micro = result["launch_microbench"]
    on, off = micro["cache_on"], micro["cache_off"]
    macro_off = micro["macro_off"]
    print(f"warm launch (macro on):  {on['warm_launch_s'] * 1e6:8.1f} us "
          f"({on['warm_launches_per_s']:.0f} launches/s, "
          f"{on['macro_replays']} replays / {on['macro_compiles']} compiles)")
    print(f"warm launch (macro off): {macro_off['warm_launch_s'] * 1e6:8.1f} us "
          f"({macro_off['warm_launches_per_s']:.0f} launches/s, "
          f"{macro_off['cache_hits']} hits / "
          f"{macro_off['cache_misses']} misses)")
    print(f"warm launch (cache off): {off['warm_launch_s'] * 1e6:8.1f} us "
          f"({off['warm_launches_per_s']:.0f} launches/s)")
    print(f"warm-launch speedup:     {result['warm_launch_speedup']:.2f}x "
          f"(macro replay vs object path: "
          f"{result['warm_macro_speedup']:.2f}x)")
    e2e = result["end_to_end"]
    print(f"end-to-end somier:       "
          f"{e2e['cache_on']['wall_s']:.3f}s on vs "
          f"{e2e['cache_off']['wall_s']:.3f}s off "
          f"({result['end_to_end_speedup']:.2f}x)")
    print(f"fused-timeline engine:   "
          f"{e2e['cache_on']['wall_s']:.3f}s fused vs "
          f"{e2e['fused_off']['wall_s']:.3f}s generators "
          f"({result['fused_e2e_speedup']:.2f}x, "
          f"{e2e['cache_on']['engine_fused_segments']} fused segments, "
          f"mean batch {e2e['cache_on']['engine_mean_batch']:.2f})")
    eng = result["engine"]
    print(f"engine throughput:       "
          f"{eng['tie_events_per_s']:.2e} events/s tied-time "
          f"(mean batch {eng['tie_mean_batch']:.1f}) vs "
          f"{eng['seq_events_per_s']:.2e} distinct-time; "
          f"timeout reuse {eng['timeout_reuse_frac']:.1%}")
    ana = result["analyzer_overhead"]
    print(f"analyzer overhead:       "
          f"{ana['analyze_wall_s']:.3f}s recording vs "
          f"{ana['trace_only_wall_s']:.3f}s trace-only "
          f"({ana['recording_overhead']:+.1%}, budget "
          f"{ana['overhead_target']:.0%}); analysis {ana['analysis_s']:.3f}s "
          f"over {ana['events']} events / {ana['dep_edges']} dep edges")

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"written to {args.out}")
    if args.max_analyze_overhead is not None and \
            ana["recording_overhead"] > args.max_analyze_overhead:
        print(f"FAIL: recording overhead {ana['recording_overhead']:.1%} "
              f"exceeds --max-analyze-overhead "
              f"{args.max_analyze_overhead:.1%}", file=sys.stderr)
        return 1
    if args.min_warm_speedup is not None and \
            result["warm_launch_speedup"] < args.min_warm_speedup:
        print(f"FAIL: warm-launch speedup "
              f"{result['warm_launch_speedup']:.2f}x below "
              f"--min-warm-speedup {args.min_warm_speedup:.2f}x",
              file=sys.stderr)
        return 1
    if args.min_e2e_speedup is not None and \
            result["fused_e2e_speedup"] < args.min_e2e_speedup:
        print(f"FAIL: fused-timeline e2e speedup "
              f"{result['fused_e2e_speedup']:.2f}x below "
              f"--min-e2e-speedup {args.min_e2e_speedup:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
