"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions listed in ``TARGETS`` in every
``svcache`` module namespace that binds them (``hit_term`` is bound in
``geometry``, ``delay`` and ``optimizer``; ``preference_matrix`` in five
modules), so calls made inside the library are caught as well as calls
made by the benchmark.  Spans are kept in memory as
``[name, start, end, parent, instance, note]`` and written out once the
traced pass is over, and every original object is put back.

Nothing here is imported by the library, and an untraced run never
installs a wrapper: ``untouched`` checks that every binding is the
original function object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _mc_note(args, kwargs, result):
    return {"trials": result.trials_used,
            "var": result.stderr ** 2 * result.trials_used}


def _optimize_note(args, kwargs, result):
    return {"iterations": result.iterations_run, "converged": result.converged}


def _oracle_note(args, kwargs, result):
    lib = args[0]
    step = args[4] if len(args) > 4 else kwargs.get("grid_step", 0.02)
    n_values = int(round(1.0 / step)) + 1
    return {"rows": 2 * n_values ** (lib.file_count * lib.layer_count)}


def _draws_note(args, kwargs, result):
    size = args[3] if len(args) > 3 else kwargs.get("size")
    return {"draws": 1 if size is None else int(size)}


@dataclass(frozen=True)
class Target:
    """A public function to wrap: defining module, attribute, and an
    optional ``note(args, kwargs, result)`` that records per-call facts."""

    module: str
    attr: str
    note: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


MC_ESTIMATORS = {
    "mc_stp_nearest_cached": "nearest_cached",
    "mc_stp_nearest_uncached": "nearest_uncached",
    "mc_stp_cache_tier": "cache_tier",
    "mc_stp_mbs": "mbs",
    "mc_delay_end_to_end": "delay_end_to_end",
}

TARGETS = (
    Target("content", "preference_matrix"),
    Target("geometry", "hit_term"),
    Target("geometry", "q_factor"),
    Target("geometry", "stp_mbs"),
    Target("delay", "overall_delay"),
    Target("delay", "cell_delay_matrix"),
    Target("optimizer", "objective_gradient"),
    Target("optimizer", "project_budget"),
    Target("optimizer", "optimize", _optimize_note),
    Target("optimizer", "grid_oracle", _oracle_note),
    Target("policies", "mpcp"),
    Target("policies", "epcp"),
    Target("policies", "icp"),
    *(Target("mcsim", attr, _mc_note) for attr in MC_ESTIMATORS),
    Target("mcsim", "sample_serving_distance", _draws_note),
    Target("experiments", "run_optimize_and_compare"),
)

OP_SPAN = "bench.op"


def _svcache_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "svcache" or name.startswith("svcache."))]


def find_bindings(targets=TARGETS):
    """Every (namespace, attribute, original, target) binding of the
    targets across the loaded ``svcache`` modules."""
    modules = _svcache_modules()
    found = []
    for target in targets:
        original = getattr(importlib.import_module(f"svcache.{target.module}"),
                           target.attr)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr, original, target))
    return found


class Tracer:
    """Span recorder over the wrapped targets of one traced pass."""

    def __init__(self, targets=TARGETS):
        self.bindings = find_bindings(targets)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance = None
        self._wrappers = {}
        for _, _, original, target in self.bindings:
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = self._wrap(target, original)

    def untouched(self) -> bool:
        """True when every binding holds its original function object."""
        return all(getattr(module, attr) is original
                   for module, attr, original, _ in self.bindings)

    @contextlib.contextmanager
    def traced(self):
        """Install the wrappers for the duration of the block, then restore
        the originals."""
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, self._wrappers[id(original)])
        try:
            yield self
        finally:
            for module, attr, original, _ in self.bindings:
                setattr(module, attr, original)

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target, fn):
        name, note = target.name, target.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, label):
        """One benchmark operation: a root span whose label becomes the
        instance id of every span it causes."""
        self._instance = label
        span = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._instance = None

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, instance, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance,
                                     "note": note}) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    notes: list | None = None


def layer_stats(spans) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time (span time minus the time of
    its direct child spans) per span name."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict[str, LayerStats] = {}
    for i, (name, start, end, _, _, note) in enumerate(spans):
        entry = stats.setdefault(name, LayerStats(notes=[]))
        entry.calls += 1
        entry.total_s += end - start
        entry.self_s += end - start - child_s[i]
        if note is not None:
            entry.notes.append(note)
    return stats


# (metric, unit, better, target span, workloads it is exercised on, the
# end-to-end metric it should move).  Every workload reports every metric;
# a layer a workload does not reach reports 0.
_ALL = ("mc-validate", "solve-paper", "oracle-grid")
LAYER_METRICS = (
    ("content.preference_matrix.calls", "count", "lower", "content.preference_matrix", _ALL, "run_s on solve-paper"),
    ("content.preference_matrix.self_s", "s", "lower", "content.preference_matrix", _ALL, "run_s on solve-paper"),
    ("geometry.hit_term.calls", "count", "lower", "geometry.hit_term", _ALL, "run_s on solve-paper, oracle-grid"),
    ("geometry.hit_term.self_s", "s", "lower", "geometry.hit_term", _ALL, "run_s on solve-paper, oracle-grid"),
    ("geometry.q_factor.calls", "count", "lower", "geometry.q_factor", _ALL, "run_s on solve-paper"),
    ("geometry.q_factor.self_s", "s", "lower", "geometry.q_factor", _ALL, "run_s on solve-paper"),
    ("geometry.stp_mbs.calls", "count", "lower", "geometry.stp_mbs", _ALL, "run_s on solve-paper"),
    ("delay.overall_delay.calls", "count", "lower", "delay.overall_delay", _ALL, "run_s on solve-paper"),
    ("delay.overall_delay.self_s", "s", "lower", "delay.overall_delay", _ALL, "run_s on solve-paper"),
    ("delay.cell_delay_matrix.calls", "count", "lower", "delay.cell_delay_matrix", _ALL, "run_s on solve-paper"),
    ("delay.cell_delay_matrix.self_s", "s", "lower", "delay.cell_delay_matrix", _ALL, "run_s on solve-paper"),
    ("optimizer.objective_gradient.calls", "count", "lower", "optimizer.objective_gradient", _ALL, "run_s on solve-paper"),
    ("optimizer.objective_gradient.self_s", "s", "lower", "optimizer.objective_gradient", _ALL, "run_s on solve-paper"),
    ("optimizer.project_budget.calls", "count", "lower", "optimizer.project_budget", _ALL, "run_s on solve-paper"),
    ("optimizer.project_budget.self_s", "s", "lower", "optimizer.project_budget", _ALL, "run_s on solve-paper"),
    ("optimizer.optimize.calls", "count", "lower", "optimizer.optimize", _ALL, "run_s and quality_ratio on solve-paper"),
    ("optimizer.optimize.self_s", "s", "lower", "optimizer.optimize", _ALL, "run_s on solve-paper"),
    ("optimizer.optimize.iterations", "count", "lower", "optimizer.optimize", _ALL, "run_s and quality_ratio on solve-paper"),
    ("optimizer.optimize.converged_ratio", "ratio", "higher", "optimizer.optimize", _ALL, "run_s and quality_ratio on solve-paper"),
    ("optimizer.grid_oracle.rows_per_s", "1/s", "higher", "optimizer.grid_oracle", ("oracle-grid",), "run_s on oracle-grid"),
    ("policies.mpcp.self_s", "s", "lower", "policies.mpcp", _ALL, "run_s on solve-paper (predicted flat)"),
    ("policies.epcp.self_s", "s", "lower", "policies.epcp", _ALL, "run_s on solve-paper (predicted flat)"),
    ("policies.icp.self_s", "s", "lower", "policies.icp", _ALL, "run_s on solve-paper (predicted flat)"),
    *((f"mcsim.{e}.trials_per_s", "1/s", "higher", f"mcsim.{attr}", ("mc-validate",), "run_s on mc-validate")
      for attr, e in MC_ESTIMATORS.items()),
    *((f"mcsim.{e}.var_per_trial", "s2" if e == "delay_end_to_end" else "1", "lower", f"mcsim.{attr}",
       ("mc-validate",), "mc_time_to_se_s on mc-validate (quality_ratio)")
      for attr, e in MC_ESTIMATORS.items()),
    ("mcsim.sample_serving_distance.draws_per_s", "1/s", "higher", "mcsim.sample_serving_distance", ("mc-validate",),
     "run_s on mc-validate (small share)"),
    ("mcsim.points_over_3se", "count", "lower", "mcsim.mc_stp_cache_tier", ("mc-validate",), "none (informational)"),
    ("experiments.run_optimize_and_compare.self_share", "%", "lower", "experiments.run_optimize_and_compare",
     ("solve-paper", "oracle-grid"), "none (glue, predicted about 0)"),
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, points_over_3se=0) -> dict[str, float]:
    """The per-layer metric values of one traced pass."""
    stats = layer_stats(spans)
    empty = LayerStats(notes=[])
    out = {}
    for metric, _, _, target, _, _ in LAYER_METRICS:
        s = stats.get(target, empty)
        kind = metric.rsplit(".", 1)[1]
        if kind == "calls":
            out[metric] = s.calls
        elif kind == "self_s":
            out[metric] = s.self_s
        elif kind == "iterations":
            out[metric] = sum(n["iterations"] for n in s.notes)
        elif kind == "converged_ratio":
            out[metric] = _ratio(sum(n["converged"] for n in s.notes), s.calls)
        elif kind == "rows_per_s":
            out[metric] = _ratio(sum(n["rows"] for n in s.notes), s.self_s)
        elif kind == "trials_per_s":
            out[metric] = _ratio(sum(n["trials"] for n in s.notes), s.total_s)
        elif kind == "var_per_trial":
            out[metric] = _ratio(sum(n["var"] for n in s.notes), len(s.notes))
        elif kind == "draws_per_s":
            out[metric] = _ratio(sum(n["draws"] for n in s.notes), s.self_s)
        elif kind == "self_share":
            out[metric] = 100.0 * _ratio(s.self_s, s.total_s)
        elif metric == "mcsim.points_over_3se":
            out[metric] = points_over_3se
        else:
            raise KeyError(metric)
    return out
