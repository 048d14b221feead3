"""Spans around the calls into each ac_diamond module, recorded from outside.

The tracer replaces a public function at every module that imported it (the
import sites below) with a wrapper that records a span: name, start, end,
parent span and invocation id.  Spans stay in memory; the per-layer metrics
are computed from them after each pass.  ``geometry.position`` is called a few
times per closed-form segment, so it is only counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (defining module, function, [import sites patched])
SPANS = {
    "config.load_config": ("config", "load_config", ["cli"]),
    "sequence.build_echo_schedule": ("sequence", "build_echo_schedule", ["cli"]),
    "sequence.sweep_signal": ("sequence", "sweep_signal", ["cli"]),
    "sequence.simulate_run": ("sequence", "simulate_run", ["cli", "measurement", "sequence"]),
    "phase.segment_phase": ("phase", "segment_phase", ["cli", "sequence"]),
    "phase.total_rectified_phase": ("phase", "total_rectified_phase", ["cli", "sequence"]),
    "geometry.velocity": ("geometry", "velocity", ["holonomy", "phase"]),
    "holonomy.path_ordered_propagator": ("holonomy", "path_ordered_propagator", ["cli"]),
    "holonomy.unitarity_defect": ("holonomy", "unitarity_defect", ["cli", "holonomy"]),
    "measurement.monte_carlo_experiment": (
        "measurement", "monte_carlo_experiment", ["cli"]),
}
COUNTED = {"geometry.position": ("geometry", "position", ["phase"])}
CLI_COMMANDS = ("phase", "sensitivity", "sweep", "holonomy", "stark", "echo-check",
                "montecarlo")
STACK_ENTRY_BYTES = 9 * 16  # one complex128 3x3 matrix
# Units of the metrics that are not seconds, by name suffix.
UNITS = {".calls": "count", ".points": "count", ".steps": "count",
         ".shots": "count", ".spans": "count", ".runs_per_point": "ratio",
         ".ns_per_step": "ns", ".stack_bytes": "B"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "s")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# What a span records about its call, by span name.
_ATTRS = {
    "cli.main": lambda a, k: _arg(a, k, 0, "argv")[0],
    "sequence.sweep_signal": lambda a, k: int(np.size(_arg(a, k, 0, "e_values"))),
    "sequence.simulate_run": lambda a, k: _arg(a, k, 4, "mode", "closed_form"),
    "geometry.velocity": lambda a, k: int(np.size(_arg(a, k, 1, "t"))),
    "holonomy.path_ordered_propagator": lambda a, k: _arg(a, k, 0, "sampling").steps,
    "measurement.monte_carlo_experiment": lambda a, k: _arg(a, k, 5, "shots"),
}


class Tracer:
    """Records spans while installed; ``invocation`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, invocation, attr)
        self.counts: Counter = Counter()
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        attr_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            attr = attr_of(args, kwargs) if attr_of else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.invocation, attr)

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for table, make in ((SPANS, self.wrap), (COUNTED, self._count)):
            for name, (home, attr, sites) in table.items():
                original = getattr(importlib.import_module(f"ac_diamond.{home}"), attr)
                wrapper = make(name, original)
                for site in sites:
                    module = importlib.import_module(f"ac_diamond.{site}")
                    self._saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass from its (index, span) pairs and counters.

    A span's self time is its duration minus the time its direct children
    cover; calls are single-threaded, so children never overlap.
    """
    total = defaultdict(float)  # inclusive seconds by span name
    child = defaultdict(float)  # seconds covered by direct children, by span index
    calls = Counter()
    attrs = defaultdict(list)
    by_index = {}
    for index, (name, start, end, parent, _, attr) in spans:
        by_index[index] = name
        total[name] += end - start
        calls[name] += 1
        attrs[name].append(attr)
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, *_rest) in spans:
        self_time[name] += (end - start) - child[index]

    m = {}
    for name in ("cli.main", *SPANS):
        m[f"{name}.self_s"] = self_time[name]
    for cmd in CLI_COMMANDS:
        m[f"cli.main_s.{cmd}"] = sum(end - start for _, (name, start, end, _p, _i, attr)
                                     in spans if name == "cli.main" and attr == cmd)
    m["config.load_config_s"] = total["config.load_config"]
    m["config.load_config.calls"] = calls["config.load_config"]
    m["geometry.velocity_s"] = total["geometry.velocity"]
    m["geometry.velocity.points"] = sum(attrs["geometry.velocity"])
    m["geometry.position.calls"] = counts["geometry.position"]
    m["phase.segment_phase_s"] = total["phase.segment_phase"]
    m["phase.segment_phase.calls"] = calls["phase.segment_phase"]
    m["phase.total_rectified_phase.calls"] = calls["phase.total_rectified_phase"]
    m["sequence.sweep_signal_s"] = total["sequence.sweep_signal"]
    m["sequence.build_echo_schedule_s"] = total["sequence.build_echo_schedule"]
    m["sequence.simulate_run.calls"] = calls["sequence.simulate_run"]
    m["sequence.simulate_run.closed_form_s"] = sum(
        end - start for _, (name, start, end, _p, _i, attr) in spans
        if name == "sequence.simulate_run" and attr == "closed_form")
    points = sum(attrs["sequence.sweep_signal"])
    in_sweep = sum(1 for _, (name, _s, _e, parent, _i, _a) in spans
                   if name == "sequence.simulate_run"
                   and by_index.get(parent) == "sequence.sweep_signal")
    m["sequence.runs_per_point"] = in_sweep / points if points else 0.0
    steps = attrs["holonomy.path_ordered_propagator"]
    m["holonomy.path_ordered_propagator_s"] = total["holonomy.path_ordered_propagator"]
    m["holonomy.path_ordered_propagator.calls"] = calls["holonomy.path_ordered_propagator"]
    m["holonomy.steps"] = sum(steps)
    m["holonomy.ns_per_step"] = (
        1e9 * total["holonomy.path_ordered_propagator"] / sum(steps) if steps else 0.0)
    m["holonomy.stack_bytes"] = max(steps, default=0) * STACK_ENTRY_BYTES
    m["holonomy.unitarity_defect_s"] = total["holonomy.unitarity_defect"]
    m["measurement.monte_carlo_experiment_s"] = total["measurement.monte_carlo_experiment"]
    m["measurement.shots"] = sum(attrs["measurement.monte_carlo_experiment"])
    return m
