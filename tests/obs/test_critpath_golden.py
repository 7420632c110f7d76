"""Golden digests of the critical-path report, the recorder's edges and
the trace.

The analyzer's speed work (how frontiers are capped, how contention
edges are stored, how the report reads the trace) must not move one
recorded edge or one byte of ``CritPathAnalysis.to_json()``.  The digests
below were taken before that work, on the runs the analyzer is hardest
on: one_buffer and double_buffering on the calibrated 4-GPU node, a
``cluster:2x2`` run (merged frontiers up to 200 ops, so the cap bites on
most joins), and the seeded failover run of ``TestFrontierCap``.
"""

import hashlib
import random
from heapq import nlargest

import pytest

from repro.bench import machines
from repro.obs.critpath import CausalRecorder, CritPathAnalysis
from repro.openmp.options import RunOptions
from repro.sim.topology import cte_power_node
from repro.somier import SomierConfig, run_somier


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def paper_run(impl, spec, n):
    topo, cm = machines.machine_for_spec(spec, n_functional=n)
    cfg = machines.paper_somier_config(n_functional=n, steps=2)
    return run_somier(impl, cfg, topology=topo, cost_model=cm,
                      options=RunOptions(analyze=True))


def failover_run():
    return run_somier("one_buffer", SomierConfig(n=18, steps=3),
                      topology=cte_power_node(4, memory_bytes=1e9),
                      options=RunOptions(analyze=True,
                                         faults="device@1:#10"))


RUNS = {
    "one_buffer-cte4": lambda: paper_run("one_buffer", "cte-power:4", 24),
    "double_buffering-cte4":
        lambda: paper_run("double_buffering", "cte-power:4", 48),
    "one_buffer-cluster2x2":
        lambda: paper_run("one_buffer", "cluster:2x2", 24),
    "failover": failover_run,
}

#: name -> (report JSON digest, recorder edge digest, trace digest)
GOLDEN = {
    "one_buffer-cte4": (
        "16d0da039dab1373", "f5a2ae7fa49dbed4", "4d6a96279026fa25"),
    "double_buffering-cte4": (
        "d462a9d3adb752bc", "a57a95aabb0fa7bd", "770a02eabc9c9089"),
    "one_buffer-cluster2x2": (
        "1e15dfbde33382d7", "032ba1ace909cd08", "8bfe7ebc85fdfb95"),
    "failover": (
        "faca0a126ba9693e", "7d33f10fad144a43", "934da8a40752f56d"),
}


def recorder_digest(rec) -> str:
    """Dependency frontiers, contention edges in recording order, and the
    op -> event binding."""
    return _sha(repr((sorted(rec.op_deps.items()), list(rec.res_edges),
                      sorted(rec.op_event.items()))))


def trace_digest(trace) -> str:
    """Every trace event, its ``meta`` included."""
    return _sha("".join(
        repr((e.category, e.name, e.lane, e.start, e.end, e.device,
              sorted(e.meta.items())))
        for e in trace.events))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_edges_and_trace_match_golden(plain_env, name):
    res = RUNS[name]()
    report = res.runtime.analysis().to_json()
    got = (_sha(report)[:16], recorder_digest(res.runtime.causal)[:16],
           trace_digest(res.runtime.trace)[:16])
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", ["one_buffer-cluster2x2", "failover"])
def test_maximal_frontiers_replay_like_full_ones(plain_env, monkeypatch,
                                                 name):
    """The what-if replays over the pruned frontiers give the floats of
    the full ones, in every scenario."""
    res = RUNS[name]()
    ana = res.runtime.analysis()
    rows, _lanes, _fronts = ana._replay_plan()
    firsts = [preds for preds in rows[-1] if preds is not None]
    assert sum(map(len, firsts)) < sum(
        len(ana.dep_preds[i]) for i, preds in zip(rows[0], rows[-1])
        if preds is not None)
    pruned = ana.what_if()
    monkeypatch.setattr(CritPathAnalysis, "_maximal",
                        lambda self, preds: preds)
    assert res.runtime.analysis().what_if() == pruned


class _Proc:
    def __init__(self, heads):
        self.cp_heads = heads


@pytest.mark.parametrize("size", [2, 40, 63, 64, 65, 130, 600])
def test_frontier_cap_equals_nlargest(size):
    """A merged frontier keeps exactly ``heapq.nlargest(MAX_HEADS, ...)``
    of the union, in that (descending) order once it is capped.  The
    receiver holds at most MAX_HEADS ops, as a capped frontier does."""
    rng = random.Random(size)
    cap = CausalRecorder.MAX_HEADS
    rec = CausalRecorder()
    for _ in range(20):
        union = rng.sample(range(10 * size + 10), size)
        split = rng.randrange(1, min(size - 1, cap) + 1)
        cur, heads = tuple(union[:split]), tuple(union[split - 1:])
        proc = _Proc(cur)
        rec.on_join(proc, heads)
        want = nlargest(cap, union)
        if size > cap:
            assert proc.cp_heads == tuple(want)
        else:
            assert sorted(proc.cp_heads, reverse=True) == want
