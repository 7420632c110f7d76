"""Experiment runners shared by the benchmark suite.

Each paper artifact (table/figure) has a ``run_*`` function returning plain
data structures plus formatting helpers producing the same rows the paper
reports, side by side with the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import machines
from repro.openmp.options import RunOptions
from repro.somier import run_somier
from repro.somier.driver import SomierResult
from repro.util.format import format_hms, format_table


@dataclass
class Experiment:
    """One (implementation, device-count) measurement."""

    impl: str
    gpus: int
    result: SomierResult
    paper_seconds: Optional[float] = None
    #: critical-path headline + bottleneck verdict when the run was
    #: analyzed (``run_table*(analyze=True)``), else None
    critpath: Optional[Dict[str, object]] = None

    @property
    def seconds(self) -> float:
        return self.result.elapsed

    @property
    def paper_ratio(self) -> Optional[float]:
        if not self.paper_seconds:
            return None
        return self.seconds / self.paper_seconds

    @property
    def slackness(self) -> Optional[float]:
        if self.critpath is None:
            return None
        return float(self.critpath["slackness"])  # type: ignore[arg-type]

    @property
    def bottleneck(self) -> Optional[str]:
        if self.critpath is None:
            return None
        return self.critpath.get("bottleneck")  # type: ignore[return-value]


def _critpath_info(result: SomierResult) -> Optional[Dict[str, object]]:
    """Headline + bottleneck verdict of an analyzed run, or None."""
    rt = result.runtime
    if rt.causal is None:
        return None
    analysis = rt.analysis()
    info: Dict[str, object] = dict(analysis.headline())
    what_if = analysis.what_if()
    info["bottleneck"] = what_if.get("bottleneck")
    info["bottleneck_speedup"] = what_if.get("bottleneck_speedup")
    return info


def _run_one(impl: str, gpus: int, n_functional: int, steps: int,
             trace: bool, analyze: bool) -> SomierResult:
    topo, cm = machines.paper_machine(gpus, n_functional=n_functional)
    cfg = machines.paper_somier_config(n_functional=n_functional, steps=steps)
    # The causal recorder (analyze=True) only observes; analyze=False
    # leaves it to $REPRO_ANALYZE.
    options = RunOptions.from_env(trace=trace, analyze=analyze or None)
    return run_somier(impl, cfg, devices=machines.paper_devices(gpus),
                      topology=topo, cost_model=cm, options=options)


def run_table1(n_functional: int = 96, steps: int = machines.PAPER_STEPS,
               trace: bool = False,
               analyze: bool = False) -> List[Experiment]:
    """Table I: One Buffer — target (1 GPU) vs target spread (1/2/4)."""
    rows = [("target", 1), ("one_buffer", 1), ("one_buffer", 2),
            ("one_buffer", 4)]
    out = []
    for impl, gpus in rows:
        result = _run_one(impl, gpus, n_functional, steps, trace=trace,
                          analyze=analyze)
        out.append(Experiment(impl=impl, gpus=gpus, result=result,
                              paper_seconds=machines.PAPER_TABLE1[(impl, gpus)],
                              critpath=_critpath_info(result)))
    return out


def run_table2(n_functional: int = 96, steps: int = machines.PAPER_STEPS,
               trace: bool = False,
               analyze: bool = False) -> List[Experiment]:
    """Table II / Fig. 2: One Buffer vs Two Buffers vs Double Buffering."""
    out = []
    for impl in ("one_buffer", "two_buffers", "double_buffering"):
        for gpus in (2, 4):
            result = _run_one(impl, gpus, n_functional, steps, trace=trace,
                              analyze=analyze)
            out.append(Experiment(
                impl=impl, gpus=gpus, result=result,
                paper_seconds=machines.PAPER_TABLE2[(impl, gpus)],
                critpath=_critpath_info(result)))
    return out


def comparison_rows(experiments: Sequence[Experiment]):
    """(impl, gpus, simulated, paper, sim/paper) rows for reporting, plus
    (slackness, bottleneck) columns when the runs were analyzed."""
    analyzed = any(e.critpath is not None for e in experiments)
    rows = []
    for e in experiments:
        row = [e.impl, e.gpus, format_hms(e.seconds),
               format_hms(e.paper_seconds) if e.paper_seconds else "-",
               f"{e.paper_ratio:.3f}" if e.paper_ratio else "-"]
        if analyzed:
            row.append(f"{e.slackness:.2f}x" if e.slackness else "-")
            row.append(e.bottleneck or "-")
        rows.append(tuple(row))
    return rows


def speedup_table(experiments: Sequence[Experiment],
                  baseline_impl: str = "target",
                  baseline_gpus: int = 1) -> Dict[Tuple[str, int], float]:
    """Speedups vs the named baseline experiment."""
    base = next(e for e in experiments
                if e.impl == baseline_impl and e.gpus == baseline_gpus)
    return {(e.impl, e.gpus): base.seconds / e.seconds for e in experiments}


def format_experiments(experiments: Sequence[Experiment],
                       title: str = "") -> str:
    headers = ["implementation", "GPUs", "simulated", "paper", "sim/paper"]
    if any(e.critpath is not None for e in experiments):
        headers += ["slack", "bottleneck"]
    table = format_table(headers, comparison_rows(experiments))
    return f"{title}\n{table}" if title else table
