#!/usr/bin/env python3
"""Compare host-benchmark results of a parent commit and a change.

    python benchmarks/host/compare.py PARENT.json... CHANGE.json...

Takes the same number N of ``run.py --out`` files per side, parent files
first; file i of the parent is paired with file i of the change.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` it prints one
verdict:

* ``improved`` — at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's own interquartile range is wider than the
  bound, unless every change run reads better than every parent run;
* ``no change`` — otherwise.

It also compares ``failed_frac`` (failed units / attempted units), where
any increase is a regression.  The exit code is 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q = statistics.quantiles(parent, n=4)
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
            and sign * (mc - mp) > iqr:
        return "improved"
    if sign * (mp - mc) / mp > bound:
        return "regressed"
    if iqr / mp > bound and not all(sign * (c - p) > 0
                                    for c in change for p in parent):
        return "unresolved"
    return "no change"


def describe(values: Sequence[float]) -> str:
    """Median with quartiles, when there are enough values for them."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g}"
    q = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(parent: List[dict], change: List[dict], spec: dict) -> int:
    """Print every verdict; returns the number of regressions."""
    for side, results in (("parent", parent), ("change", change)):
        hosts = {(r["host"]["cores"], r["host"]["python"], r["host"]["numpy"])
                 for r in results}
        revs = sorted({r["host"]["git"] for r in results})
        print(f"{side}: {len(results)} runs, git {', '.join(revs)}, "
              f"(cores, Python, NumPy) {sorted(hosts)}")
    workloads = [w["name"] for w in spec["workloads"]
                 if all("end_to_end" in r["workloads"].get(w["name"], {})
                        for r in parent + change)]
    regressions = 0
    print(f"{'workload':<16} {'metric':<16} {'parent':>36} {'change':>36} "
          "verdict")
    for w in workloads:
        rows = []
        for m in spec["end_to_end"]:
            p = [r["workloads"][w]["end_to_end"][m["name"]]["value"]
                 for r in parent]
            c = [r["workloads"][w]["end_to_end"][m["name"]]["value"]
                 for r in change]
            rows.append((m["name"], describe(p), describe(c),
                         verdict(p, c, m["better"], m["bound"])))

        def frac(results):
            att = sum(r["workloads"][w]["attempted"] for r in results)
            return sum(r["workloads"][w]["failed"] for r in results) / att

        fp, fc = frac(parent), frac(change)
        rows.append(("failed_frac", f"{fp:.6g}", f"{fc:.6g}",
                     "regressed" if fc > fp else "no change"))
        for name, pd, cd, v in rows:
            regressions += v == "regressed"
            print(f"{w:<16} {name:<16} {pd:>36} {cd:>36} {v}")
    return regressions


def main(argv=None) -> int:
    files = sys.argv[1:] if argv is None else argv
    if not files or len(files) % 2:
        print("usage: compare.py PARENT.json... CHANGE.json... "
              "(the same number of files per side)", file=sys.stderr)
        return 2
    results = [json.loads(Path(f).read_text()) for f in files]
    half = len(results) // 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if compare(results[:half], results[half:], spec) else 0


if __name__ == "__main__":
    sys.exit(main())
