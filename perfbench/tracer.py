"""Outside-in tracer: spans around calls into each eitrot module.

The package modules import each other's functions by name (``scenarios``
does ``from .dynamics import solve_steady_state``), so replacing
``eitrot.dynamics.solve_steady_state`` alone would miss every call. The
tracer instead replaces every binding of a traced function in every loaded
``eitrot`` module, and puts the originals back when it exits. Nothing in the
package itself changes.

A span is (layer, function, start, end, parent, run id). Spans stay in
memory; ``spans_document`` returns them for writing out at the end. Calls
to ``integrate_adaptive`` also add up the panels and integrand evaluations
of the ``QuadratureResult`` they return.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) -> layer. Several functions may share a layer; their
# calls and self times add up.
TRACED = {
    ("eitrot.cli", "parse_config"): "cli.parse_config",
    ("eitrot.cli", "run"): "cli.run",
    ("eitrot.atom", "build_level_scheme"): "atom.build_level_scheme",
    ("eitrot.atom", "probe_pathways"): "atom.probe_pathways",
    ("eitrot.dynamics", "build_hamiltonian"): "dynamics.build_hamiltonian",
    ("eitrot.dynamics", "build_liouvillian"): "dynamics.build_liouvillian",
    ("eitrot.dynamics", "solve_steady_state"): "dynamics.solve_steady_state",
    ("eitrot.quadrature", "integrate_adaptive"): "quadrature",
    ("eitrot.spectra", "susceptibility_pair"): "spectra.susceptibility_pair",
    ("eitrot.detection", "propagate_cell"): "detection",
    ("eitrot.detection", "detector_intensities"): "detection",
    ("eitrot.scenarios", "sweep_probe_detuning"): "scenarios.sweep",
    ("eitrot.scenarios", "steady_populations"): "scenarios.sweep",
    ("eitrot.scenarios", "sweep_coupling_power"): "scenarios.sweep",
    ("eitrot.scenarios", "sweep_temperature"): "scenarios.sweep",
    ("eitrot.scenarios", "eit_transmission"): "scenarios.sweep",
    ("eitrot.scenarios", "find_dispersion_peaks"): "scenarios.peaks",
    ("eitrot.scenarios", "count_transmission_peaks"): "scenarios.peaks",
    ("eitrot.scenarios", "write_csv"): "scenarios.write",
    ("eitrot.scenarios", "write_metadata"): "scenarios.write",
}

class Tracer:
    """Context manager that records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (layer, function, start, end, parent, run)
        self.panels = 0
        self.evals = 0
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, function: str, original):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter
        count_quadrature = layer == "quadrature"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, function, start, end, parent, self.run_id)
            if count_quadrature:
                self.panels += result.panels
                self.evals += result.points
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "eitrot" or name.startswith("eitrot."))]
        for (module_name, function), layer in TRACED.items():
            # A layer the package no longer has is reported with zero calls.
            try:
                original = getattr(importlib.import_module(module_name), function)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(layer, function, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def start_run(self) -> None:
        """Begin a new run id and reset the work counters."""
        self.run_id += 1
        self.panels = self.evals = 0

    def run_profile(self) -> dict:
        """Per-layer calls and self time, and per-function calls, for the
        current run id.

        Self time is a span's duration minus the durations of its direct
        children; calls in one thread nest, so the children never overlap.
        """
        calls = defaultdict(int)
        functions = defaultdict(int)
        self_s = defaultdict(float)
        first = next(i for i, s in enumerate(self.spans) if s[5] == self.run_id)
        for index in range(first, len(self.spans)):
            layer, function, start, end, parent, _ = self.spans[index]
            calls[layer] += 1
            functions[function] += 1
            self_s[layer] += end - start
            if parent >= first:
                self_s[self.spans[parent][0]] -= end - start
        return {"calls": dict(calls), "functions": dict(functions),
                "self_s": dict(self_s),
                "panels": self.panels, "evals": self.evals}

    def spans_document(self) -> dict:
        return {
            "fields": ["layer", "function", "start_s", "end_s", "parent", "run"],
            "spans": [list(s) for s in self.spans],
        }
