"""Attribute cProfile self time to the simulator's layers.

Every profiled function gets a layer from the module that defines it
(:data:`LAYER_MAP`, longest prefix wins).  NumPy code, Python or C, is the
``payload`` layer.  Builtins and standard-library functions have no layer
of their own: their self time is split across their direct callers in
proportion to the self time pstats recorded under each caller, recursively
when a caller is itself unattributed.  Self time with no attributable
caller lands in ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: module prefix -> layer; a module takes the layer of its longest prefix
LAYER_MAP = {
    "repro.pragma": "pragma",
    "repro.spread": "spread",
    "repro.openmp": "openmp",
    "repro.sim.engine": "sim.engine",
    "repro.sim.timeline": "sim.timeline",
    "repro.sim.resources": "sim.resources",
    "repro.sim.trace": "obs",
    "repro.sim": "sim.other",
    "repro.device": "device",
    "repro.somier.kernels": "payload",
    "repro.obs": "obs",
    "repro.analysis": "obs",
    "repro.somier": "app",
    "repro.bench": "app",
    "repro.apps": "app",
    "repro.cli": "app",
    "repro.__main__": "app",
    "repro.__init__": "app",
    "repro.util": "util",
}

#: every layer, in report order
LAYERS = ("pragma", "spread", "openmp", "sim.engine", "sim.timeline",
          "sim.resources", "sim.other", "device", "payload", "obs", "app",
          "util", "other")

FuncKey = Tuple[str, int, str]


def layer_of_module(module: str) -> str:
    """The layer of a dotted ``repro`` module name (``other`` if unmapped)."""
    best = None
    for prefix in LAYER_MAP:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return LAYER_MAP[best] if best is not None else "other"


def module_of_path(path: str, package_dir: str) -> Optional[str]:
    """Dotted module name of a file under *package_dir* (the ``repro``
    package directory), or None for files outside it.  A package's
    ``__init__.py`` keeps its ``__init__`` suffix."""
    rel = os.path.relpath(path, package_dir)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    return ".".join(["repro"] + rel[:-3].split(os.sep))


def fixed_layer(key: FuncKey, package_dir: str, app_dir: str
                ) -> Optional[str]:
    """The layer a profiled function owns outright, or None to split its
    time across its callers.  ``package_dir`` is the ``repro`` package
    directory; files under ``app_dir`` (the benchmark's own workload code,
    which plays the application) count as ``app``."""
    path, _, name = key
    if path == "~":  # builtin: NumPy's C functions are payload
        return "payload" if "numpy" in name else None
    if f"{os.sep}numpy{os.sep}" in path:
        return "payload"
    path = os.path.abspath(path)
    module = module_of_path(path, package_dir)
    if module is not None:
        return layer_of_module(module)
    if path.startswith(os.path.abspath(app_dir) + os.sep):
        return "app"
    return None


def attribute(stats: dict, package_dir: str, app_dir: str
              ) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict."""
    package_dir = os.path.abspath(package_dir)
    memo: Dict[FuncKey, Dict[str, float]] = {}
    active = set()

    def dist(key: FuncKey) -> Dict[str, float]:
        if key in memo:
            return memo[key]
        layer = fixed_layer(key, package_dir, app_dir)
        if layer is not None:
            memo[key] = {layer: 1.0}
            return memo[key]
        active.add(key)
        callers = {c: v for c, v in stats[key][4].items()
                   if c != key and c not in active and c in stats}
        # per-caller (ncalls, primitive calls, tottime, cumtime); weigh by
        # tottime, or by call count when the clock read zero
        weights = {c: v[2] for c, v in callers.items()}
        if not sum(weights.values()):
            weights = {c: v[0] for c, v in callers.items()}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0:
            for caller, w in weights.items():
                for lay, frac in dist(caller).items():
                    out[lay] = out.get(lay, 0.0) + frac * w / total
        else:
            out = {"other": 1.0}
        active.discard(key)
        memo[key] = out
        return out

    seconds = {layer: 0.0 for layer in LAYERS}
    for key, entry in stats.items():
        tt = entry[2]
        if tt:
            for layer, frac in dist(key).items():
                seconds[layer] += frac * tt
    return seconds
