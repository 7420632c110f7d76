"""Shared fixtures: small nodes and runtimes for fast tests."""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.obs.tool import CALLBACK_POINTS, Tool
from repro.openmp.runtime import OpenMPRuntime
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.topology import cte_power_node, uniform_node


@pytest.fixture
def plain_env(monkeypatch):
    """Unset the run knobs the CI legs export: the fault injector and the
    sanitizer turn macro replay and the walkers off by design, the causal
    recorder turns tracing on, and the machine moves every figure, so
    tests pinning the plain path go without."""
    for var in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                "REPRO_ANALYZE", "REPRO_MACHINE"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rt1():
    """One device, generous memory, fast host."""
    return OpenMPRuntime(topology=uniform_node(1, memory_bytes=1e9))


@pytest.fixture
def rt2():
    """Two devices on one socket (shared link)."""
    return OpenMPRuntime(topology=uniform_node(2, devices_per_socket=2,
                                               memory_bytes=1e9))


@pytest.fixture
def rt4():
    """The CTE-POWER-like 4-GPU node with roomy memory for tests."""
    return OpenMPRuntime(topology=cte_power_node(4, memory_bytes=1e9))


def make_runtime(num_devices: int = 4, memory_bytes: float = 1e9,
                 **kwargs) -> OpenMPRuntime:
    return OpenMPRuntime(topology=cte_power_node(num_devices,
                                                 memory_bytes=memory_bytes),
                         **kwargs)


def run_program(rt: OpenMPRuntime, genfn, *args):
    """Run a host program and return its result."""
    return rt.run(genfn, *args)


class CallbackLog(Tool):
    """A registered tool that counts every callback per point and logs the
    payloads of the points named in *keep*.

    Registering any tool sends warm launches down the object path, so
    tests use this one both to observe the callback stream and to put a
    run on the tooled path.
    """

    def __init__(self, *keep):
        self.keep = frozenset(keep)
        self.counts = Counter()
        self.events = []

    def callbacks(self):
        return {point: partial(self._log, point) for point in CALLBACK_POINTS}

    def _log(self, point, **payload):
        self.counts[point] += 1
        if point in self.keep:
            self.events.append((point, payload))

    def of(self, point, **match):
        """Logged payloads at *point* whose fields equal *match*."""
        return [kw for p, kw in self.events if p == point
                and all(kw.get(k) == v for k, v in match.items())]
