"""Span tracer that wraps the package's functions from outside the package.

Each target is a module attribute such as ``turning_frame._kernels.derivative``.
Installing the tracer replaces that function object wherever a
``turning_frame`` module binds it, so calls made through re-exported names
(``turning_frame.cli.expectation_series``, ``turning_frame.propagate``) are
traced too.  A target whose attribute no longer exists is recorded as
absent and skipped.

Spans are kept in memory as ``[name, start, end, parent, request]`` lists
(``parent`` is the index of the enclosing span or -1) and written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children nest exactly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _transform_counters(args, result):
    p, amps, q = args[:3]
    return {"terms_computed": int(p.shape[0]) * int(q.shape[0]),
            "bytes_computed": int(p.nbytes + amps.nbytes + q.nbytes + result.nbytes)}


def _series_counters(args, result):
    return {"taus": int(len(args[1]))}


def _written_bytes(args, result):
    return {"bytes": int(os.path.getsize(args[0]))}


# (layer name, module, attributes, counter hook).  Layer names drop the
# leading underscore of ``_kernels`` because metric names start with a
# letter.  Several attributes may share one layer name (``cli.config``).
TARGETS = [
    ("kernels.phase_profile", "_kernels", ["phase_profile"], None),
    ("kernels.displacement_profile", "_kernels", ["displacement_profile"], None),
    ("kernels.classical_position_profile", "_kernels",
     ["classical_position_profile"], None),
    ("kernels.apply_phase", "_kernels", ["apply_phase"], None),
    ("kernels.derivative", "_kernels", ["derivative"], None),
    ("kernels.position_transform", "_kernels", ["position_transform"],
     _transform_counters),
    ("model.make_gaussian", "model", ["make_gaussian"], None),
    ("model.moments", "model", ["moments"], None),
    ("model.save_momentum_csv", "model", ["save_momentum_csv"], None),
    ("model.load_momentum_csv", "model", ["load_momentum_csv"], None),
    ("quantum.evolve", "quantum", ["evolve"], None),
    ("quantum.expectation_series", "quantum", ["expectation_series"],
     _series_counters),
    ("quantum.position_expectation_analytic", "quantum",
     ["position_expectation_analytic"], None),
    ("quantum.position_expectation_numeric", "quantum",
     ["position_expectation_numeric"], None),
    ("quantum.position_variance", "quantum", ["position_variance"], None),
    ("quantum.to_position_representation", "quantum",
     ["to_position_representation"], None),
    ("shift.extract_shift_numeric", "shift", ["extract_shift_numeric"], None),
    ("classical.q_of_tau", "classical", ["q_of_tau"], None),
    ("classical.unwind_phi", "classical", ["unwind_phi"], None),
    ("classical.phi_of_q", "classical", ["phi_of_q"], None),
    ("classical.q_of_phi", "classical", ["q_of_phi"], None),
    ("spectral.propagate", "spectral", ["propagate"], None),
    ("spectral.expectation", "spectral", ["expectation"], None),
    ("spectral.save_spectral_csv", "spectral", ["save_spectral_csv"], None),
    ("spectral.load_spectral_csv", "spectral", ["load_spectral_csv"], None),
    ("spectral.save_observable_csv", "spectral", ["save_observable_csv"], None),
    ("spectral.load_observable_csv", "spectral", ["load_observable_csv"], None),
    ("estimates.lambda_gravitational", "estimates", ["lambda_gravitational"], None),
    ("estimates.displacement_estimate", "estimates", ["displacement_estimate"], None),
    ("estimates.coherence_time_estimate", "estimates",
     ["coherence_time_estimate"], None),
    ("cli.main", "cli", ["main"], None),
    ("cli.config", "cli",
     ["_collect_config", "_model_from", "_grid_from", "_gaussian_from", "_taus_from"],
     None),
    ("cli.write", "cli", ["_write_csv", "_write_json"], _written_bytes),
]

# counters each hook adds, so every layer reports them even when not called
COUNTERS = {
    "kernels.position_transform": ("terms_computed", "bytes_computed"),
    "quantum.expectation_series": ("taus",),
    "cli.write": ("bytes",),
}

PACKAGE = "turning_frame"
REQUEST_SPAN = "request"


class Tracer:
    """Records spans around the wrapped package functions while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._active = False
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones that no longer exist."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, module_name, attrs, hook in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in attrs:
                original = getattr(module, attr, None) if module else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                try:
                    counts = hook(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    # a later signature the hook does not know: no counter
                    counts = {}
                for key, value in counts.items():
                    tracer.counters[layer][key] += value
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> int:
        """Open the root span of one request and start recording."""
        self.request = request_id
        self._active = True
        return self._open(REQUEST_SPAN)

    def end_request(self, index: int) -> None:
        self._close(index)
        self._active = False

    # -- aggregation -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, summed self time, and hook counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for layer in [t[0] for t in TARGETS] + [REQUEST_SPAN]:
            totals[layer] = {"calls": 0, "self_s": 0.0}
            for key in COUNTERS.get(layer, ()):
                totals[layer][key] = 0
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - children
        for layer, counts in self.counters.items():
            totals[layer].update(counts)
        return totals
