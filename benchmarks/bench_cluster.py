#!/usr/bin/env python
"""Cluster-scale sweep: Somier on simulated multi-node machines.

Runs the One Buffer implementation on a sweep of ``cluster:NxM`` shapes
(default 1x4 → 16x4 → 64x4, i.e. 4 → 64 → 256 simulated GPUs), each node
carrying the Table-I CTE-POWER calibration behind an InfiniBand-class
fabric (see :func:`repro.bench.machines.paper_cluster_machine`), and
persists the result as ``BENCH_cluster.json``::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py \
        --shapes 1x4,4x4 --n-functional 24 --steps 2 --out /tmp/c.json

Reported per shape: virtual makespan, scaling vs the single-node shape,
and how many bytes crossed the inter-node fabric.  Every figure is
simulated, so the file reproduces exactly on any host; the host time of
the sweep is measured by ``benchmarks/host`` (its cluster-sweep
workload).  The sweep quantifies the regime the paper's §IX
points at: strong scaling holds while per-node work dominates, then the
fixed-size problem drowns in halo/staging traffic that must cross the
network — which the critical-path analyzer attributes natively because
the fabric is a first-class simulated resource.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import machines
from repro.somier import run_somier
from repro.util.format import format_hms


def parse_shapes(text):
    shapes = []
    for part in text.split(","):
        n, _, m = part.strip().partition("x")
        shapes.append((int(n), int(m)))
    return shapes


def run_shape(nodes, per_node, n_functional, steps):
    topo, cm = machines.paper_cluster_machine(nodes, per_node,
                                              n_functional=n_functional)
    cfg = machines.paper_somier_config(n_functional=n_functional,
                                       steps=steps)
    res = run_somier("one_buffer", cfg, topology=topo, cost_model=cm,
                     trace=False)
    rt = res.runtime
    return {
        "shape": f"{nodes}x{per_node}",
        "nodes": nodes,
        "devices_per_node": per_node,
        "gpus": nodes * per_node,
        "virtual_s": res.elapsed,
        "network_bytes": sum(dev.net_bytes for dev in rt.devices),
        "network_grants": sum(net.grant_count for net in rt.networks
                              if net is not None),
        "h2d_bytes": res.stats["h2d_bytes"],
        "d2h_bytes": res.stats["d2h_bytes"],
        "kernels_launched": res.stats["kernels_launched"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_cluster.json",
                    help="where to write the JSON result")
    ap.add_argument("--shapes", default="1x4,16x4,64x4",
                    help="comma-separated NxM cluster shapes to sweep")
    ap.add_argument("--n-functional", type=int, default=48,
                    help="functional grid edge standing in for 1200")
    ap.add_argument("--steps", type=int, default=2,
                    help="Somier timesteps per shape")
    args = ap.parse_args(argv)

    shapes = parse_shapes(args.shapes)
    sweep = []
    for nodes, per_node in shapes:
        entry = run_shape(nodes, per_node, args.n_functional, args.steps)
        sweep.append(entry)
        print(f"cluster:{entry['shape']} ({entry['gpus']} GPUs): "
              f"{format_hms(entry['virtual_s'])} virtual, "
              f"{entry['network_bytes'] / 1e9:.1f} GB over the fabric")

    base = sweep[0]
    for entry in sweep:
        entry["speedup_vs_first"] = base["virtual_s"] / entry["virtual_s"]

    result = {
        "schema": "repro-cluster-2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "impl": "one_buffer",
            "n_functional": args.n_functional,
            "steps": args.steps,
            "network_bandwidth_bytes_per_s": machines.NETWORK_BANDWIDTH,
            "network_latency_s": machines.NETWORK_LATENCY,
        },
        "sweep": sweep,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"result written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
