#!/usr/bin/env python3
"""Host wall-clock benchmark of the simulator, end to end and per layer.

    PYTHONPATH=src python benchmarks/host/run.py [--seed N] [--out FILE]
    python3 benchmarks/host/run.py --workload NAME --seed N --seconds S \\
        --trace {0,1}

Without ``--workload`` every workload of ``BENCHMARK.json`` runs: first
``ROUNDS`` timed rounds, round r running each workload once in a fresh
child interpreter (so load that varies over time on a shared host reaches
every workload equally), then one profiled child per workload.  With
``--workload`` only that workload runs: its timed rounds for ``--trace 0``,
its profiled child for ``--trace 1``.

Every child is a fresh ``python`` with ``PYTHONHASHSEED=0``, one NumPy
thread, and no ``REPRO_*`` variables, so the runtime uses its defaults.
Each timed child spends ``--seconds / ROUNDS`` seconds on units; a
profiled child spends that much on untraced units (the base of
``trace.overhead``) and as much again under ``cProfile``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only if every unit passed its check.
``--out`` also writes the full result, with host metadata, for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: timed children per workload; each gets a quarter of the run's seconds
ROUNDS = 4
#: seconds a child may take before the run is abandoned
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from layers import LAYERS  # noqa: E402


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation between ranks."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """The median and the highest of p75/p90/p99/p99.9 with at least ten
    samples beyond it (just the median when no tail qualifies)."""
    out = {"p50": statistics.median(samples)}
    for name, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90),
                    ("p75", 0.75)):
        value = percentile(samples, q)
        if sum(1 for s in samples if s > value) >= 10:
            out[name] = value
            break
    return out


def git_revision() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(mode: str, workload: str, seed: int, budget: float) -> dict:
    """One child interpreter; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload,
         str(seed), repr(budget)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child for {workload} exited with "
                           f"code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(children: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of one workload from its timed children."""
    p50 = statistics.median(t for c in children for t in c["run_s"])
    launch_s = [t for c in children for t in c["launch_s"]]
    if launch_s:  # spread-warm times its launches directly
        launches_per_s = 1 / statistics.median(launch_s)
    else:
        launches_per_s = children[0]["counts"]["spread.directives"] / p50
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "run_s.p50": p50,
        "launches_per_s": launches_per_s,
    }


def per_layer(child: dict) -> Dict[str, float]:
    """Per-layer metrics of one workload from its profiled child."""
    traced_units = len(child["traced_s"])
    total = child["profiled_s"]
    out = {"profile.self_s": total / traced_units}
    for layer in LAYERS:
        out[f"{layer}.share"] = child["layer_s"][layer] / total
    if child["launch_s"]:  # spread-warm profiles its launches only
        out["trace.overhead"] = (statistics.median(child["traced_launch_s"])
                                 / statistics.median(child["launch_s"]))
    else:
        out["trace.overhead"] = (statistics.median(child["traced_s"])
                                 / statistics.median(child["run_s"]))
    c = child["counts"]
    hits, events = c["spread.plan_hits"], c["sim.engine.events"]
    out.update((k, v) for k, v in c.items()
               if k not in ("spread.directives", "sim.engine.dispatches"))
    out.update({
        "spread.plan_hit_ratio": hits / (hits + c["spread.plan_misses"]),
        "spread.macro_replay_ratio":
            c["spread.macro_replays"] / hits if hits else 0.0,
        "sim.engine.mean_batch": events / c["sim.engine.dispatches"],
        "sim.engine.host_us_per_event":
            statistics.median(child["run_s"]) / events * 1e6,
        "obs.dep_edges_per_event":
            c["obs.dep_edges"] / c["obs.trace_events"]
            if c["obs.trace_events"] else 0.0,
    })
    return out


def with_units(values: Dict[str, float], section: str) -> dict:
    """``{name: {"value", "unit"}}`` for every metric BENCHMARK.json lists
    in *section*, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[section]}


def print_workload(name: str, entry: dict) -> None:
    print(f"{name}: {entry['failed']}/{entry['attempted']} units failed")
    for key in ("run_s", "launch_s"):
        if key in entry:
            tails = "  ".join(f"{k} {v:.6g} s" for k, v in
                              entry[key].items() if k != "n")
            print(f"  {key}  {tails}  (n={entry[key]['n']})")
    for section in ("end_to_end", "per_layer"):
        for metric, m in entry.get(section, {}).items():
            print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0,
                    help="sets the input data values (default 0)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="unit seconds per workload, split over the rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 runs the profiled child only")
    ap.add_argument("--out", help="also write the full result here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    timed = args.workload is None or args.trace == 0
    traced = args.workload is None or args.trace == 1
    budget = args.seconds / ROUNDS
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    try:
        rounds: Dict[str, List[dict]] = {w: [] for w in selected}
        if timed:
            for _ in range(ROUNDS):
                for w in selected:
                    rounds[w].append(run_child("timed", w, args.seed,
                                               budget))
        profiles = {w: run_child("traced", w, args.seed, budget)
                    for w in selected} if traced else {}
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    children = {w: rounds[w] + ([profiles[w]] if traced else [])
                for w in selected}
    result = {
        "schema": "repro-hostbench-1",
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": children[selected[0]][0]["numpy"],
            "platform": f"{platform.system()} {platform.release()} "
                        f"{platform.machine()}",
            "git": git_revision(),
            "timestamp": started,
            "seed": args.seed,
            "seconds": args.seconds,
            "pythonhashseed": "0",
            "rounds": ROUNDS if timed else 0,
        },
        "workloads": {},
    }
    flat = {}
    attempted = failed = 0
    for w in selected:
        entry = {
            "attempted": sum(c["attempted"] for c in children[w]),
            "failed": sum(c["failed"] for c in children[w]),
        }
        if timed:
            entry["samples_per_child"] = [len(c["run_s"]) for c in rounds[w]]
            for key in ("run_s", "launch_s"):
                samples = [t for c in rounds[w] for t in c[key]]
                if samples:
                    entry[key] = dict(tail_percentiles(samples),
                                      n=len(samples))
            entry["end_to_end"] = with_units(end_to_end(rounds[w]),
                                             "end_to_end")
        if traced:
            entry["traced_units"] = len(profiles[w]["traced_s"])
            entry["per_layer"] = with_units(per_layer(profiles[w]),
                                            "per_layer")
        result["workloads"][w] = entry
        attempted += entry["attempted"]
        failed += entry["failed"]
        print_workload(w, entry)
        for section in ("end_to_end", "per_layer"):
            for metric, m in entry.get(section, {}).items():
                flat[metric if args.workload else f"{w}/{metric}"] = m

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    h = result["host"]
    print(f"host: {h['cores']} cores, Python {h['python']}, NumPy "
          f"{h['numpy']}, {h['platform']}, git {h['git']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
