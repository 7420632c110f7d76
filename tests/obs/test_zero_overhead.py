"""Acceptance tests: registering tools must not perturb the simulation.

The OMPT zero-cost contract, transposed to virtual time: a run with a
tool registered on every callback point must be *bit-identical* to the
bare run — same elapsed virtual seconds, same results, same trace events —
because tool callbacks are synchronous Python that never touches the
simulator.
"""

import numpy as np
import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.sim.trace import Trace
from repro.somier import run_somier
from tests.conftest import CallbackLog


def _run(impl, gpus, tools=(), n=24, **fields):
    topo, cm = paper_machine(gpus, n_functional=n)
    cfg = paper_somier_config(n_functional=n, steps=2)
    return run_somier(impl, cfg, devices=paper_devices(gpus), topology=topo,
                      cost_model=cm, tools=tools, **fields)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


class TestBitIdentical:
    def test_profiled_run_matches_bare_run(self):
        bare = _run("one_buffer", 4)
        log = CallbackLog()
        instrumented = _run("one_buffer", 4, tools=(log,))
        # the tool actually observed the run...
        assert instrumented.runtime.tools.dispatch_count > 0
        assert log.counts["task_create"] > 0
        # ...without changing a single bit of it
        assert instrumented.elapsed == bare.elapsed
        assert np.array_equal(instrumented.centers, bare.centers)
        for k in bare.state.grids:
            assert np.array_equal(instrumented.state.grids[k],
                                  bare.state.grids[k])
        assert _event_tuples(instrumented.runtime.trace) == \
            _event_tuples(bare.runtime.trace)

    def test_double_buffering_also_unperturbed(self):
        # the most schedule-sensitive implementation: overlap of compute
        # and transfer would expose any accidental simulator interaction
        bare = _run("double_buffering", 4, n=48)
        instrumented = _run("double_buffering", 4, tools=(CallbackLog(),),
                            n=48)
        assert instrumented.elapsed == bare.elapsed
        assert _event_tuples(instrumented.runtime.trace) == \
            _event_tuples(bare.runtime.trace)

    def test_dispatch_count_zero_without_tools(self):
        bare = _run("one_buffer", 2)
        assert not bare.runtime.tools
        assert bare.runtime.tools.dispatch_count == 0


class TestUntracedRuns:
    """A run without a trace builds no trace arguments at all: neither the
    walkers nor the ``Device`` bodies call ``Trace.record``."""

    @pytest.mark.parametrize("tools", [(), (CallbackLog(),)],
                             ids=["walkers", "device-bodies"])
    def test_untraced_run_never_calls_record(self, monkeypatch, plain_env,
                                             tools):
        def record(*_args, **_meta):
            raise AssertionError("Trace.record called on an untraced run")

        traced = _run("one_buffer", 4)
        monkeypatch.setattr(Trace, "record", record)
        untraced = _run("one_buffer", 4, tools=tools, trace=False)
        assert untraced.runtime.trace.events == []
        assert untraced.elapsed == traced.elapsed
        assert untraced.stats["kernels_launched"] > 0
