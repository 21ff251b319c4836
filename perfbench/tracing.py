"""Spans around calls into the package's public functions, from outside it.

`Tracer.install` replaces each target function with a wrapper in every
`ergopt` module that bound it, since `from ... import name` makes a copy of
the binding in the importing module; `uninstall` puts the originals back.
Each wrapped call records one span (layer, start, end, parent span,
request id) in memory; `aggregate` turns one pass of spans into per-layer
calls, inclusive busy time and self time.
Per-leaf calls such as `op_norm` or `MatrixCocycle.matrix` are left alone:
a wrapper there would cost more than the call it times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, qualified name) of every timed function; the layer name drops
# the package prefix, e.g. "optimize.CriticalGraph.cycles"
TARGETS = (
    ("ergopt.cli", "main"),
    ("ergopt.report", "run_config"),
    ("ergopt.optimize", "matrix_candidates"),
    ("ergopt.optimize", "upper_bound"),
    ("ergopt.optimize", "cycle_exponent"),
    ("ergopt.optimize", "karp_beta"),
    ("ergopt.optimize", "critical_graph"),
    ("ergopt.optimize", "CriticalGraph.cycles"),
    ("ergopt.optimize", "maximizing_cycles"),
    ("ergopt.cocycle", "spectral_radius"),
    ("ergopt.cocycle", "cocycle_log_product"),
    ("ergopt.shift", "enumerate_cycles"),
    ("ergopt._graph", "max_cycle_mean"),
    ("ergopt._graph", "critical_subgraph"),
    ("ergopt._graph", "strongly_connected_components"),
    ("ergopt.irregular", "finite_time_exponents"),
    ("ergopt.measures", "restricted_beta"),
    ("ergopt.perturb", "uniqueness_probe"),
    ("ergopt.perturb", "perturbation_sweep"),
    ("ergopt.perturb", "stability_radius"),
)

# bindings made by `from ... import`; the tracer checks that it found each
# one, so a missed copy fails loudly instead of going untimed
KNOWN_COPIES = (
    ("ergopt.optimize", "enumerate_cycles"),
    ("ergopt.optimize", "spectral_radius"),
    *((m, "cycle_exponent") for m in ("ergopt.perturb", "ergopt.measures", "ergopt.irregular")),
    *((m, f) for m in ("ergopt.perturb", "ergopt.report")
      for f in ("critical_graph", "maximizing_cycles", "matrix_candidates")),
    ("ergopt.report", "karp_beta"),
    ("ergopt.report", "finite_time_exponents"),
)


# deterministic work counters: layer -> (counter name, f(args, kwargs, result))
COUNTERS = {
    "optimize.upper_bound": ("depth_sum", lambda a, kw, out: a[2] if len(a) > 2 else kw["n"]),
    "shift.enumerate_cycles": ("cycles_out", lambda a, kw, out: len(out)),
    "optimize.CriticalGraph.cycles": ("cycles_out", lambda a, kw, out: len(out)),
    "irregular.finite_time_exponents": ("steps", lambda a, kw, out: len(out)),
}

# metric names must start with a letter or digit, so `_graph` reports as `graph`
LAYERS = tuple(f"{m.removeprefix('ergopt.').lstrip('_')}.{q}" for m, q in TARGETS)


def metric_units() -> dict[str, str]:
    """Unit of every metric `aggregate` returns."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    for layer, (name, _) in COUNTERS.items():
        units[f"{layer}.{name}"] = "count"
    units["irregular.finite_time_exponents.steps_per_s"] = "1/s"
    return units


class Tracer:
    """Owns the wrappers, and the spans and counters of the current pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = ""
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if name == "ergopt" or name.startswith("ergopt.")]
        for (module_name, qualname), layer in zip(TARGETS, LAYERS):
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if path:  # a method: the class is the only binding
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                self._bindings += [(module, name, original, wrapper)
                                   for name, value in vars(module).items() if value is original]
        found = {(owner.__name__, name) for owner, name, _, _ in self._bindings}
        missed = [f"{m}.{n}" for m, n in KNOWN_COPIES if (m, n) not in found]
        if missed:
            raise RuntimeError(f"no wrapper for the bindings {missed}")

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.request)
            if counter is not None:
                self.counts[f"{layer}.{counter[0]}"] += counter[1](args, kwargs, out)
            return out

        return traced


def aggregate(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer calls, inclusive time `.s` and self time `.self_s`.

    A call nested inside another call of the same layer adds to `.calls`
    but not again to `.s`.  Self time is a span's duration minus the time
    covered by the spans nested directly inside it.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for idx, (layer, start, end, parent, _) in enumerate(spans):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += end - start - covered[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{layer}.s"] += end - start
    for layer, (name, _) in COUNTERS.items():
        out[f"{layer}.{name}"] = counts.get(f"{layer}.{name}", 0)
    steps = out["irregular.finite_time_exponents.steps"]
    busy = out["irregular.finite_time_exponents.s"]
    out["irregular.finite_time_exponents.steps_per_s"] = steps / busy if busy > 0 else 0.0
    return out
