"""Spans around the public entry points of the mhbl modules, installed from
outside the package.

A probe replaces one callable with a wrapper that records a span (name,
start, end, parent) and, optionally, work counters taken from the call's
arguments or result.  ``from .x import y`` copies a binding, so installing a
probe rebinds every alias of the wrapped object in every loaded ``mhbl``
module; methods and staticmethods are replaced on their class.  A target
that no longer exists is recorded as absent, and every metric that needs it
is reported as absent with that reason instead of failing the run.

Self time is a span's duration minus the durations of its direct children.
Calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """In-memory span recorder: one flat list, parents by index."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.broken: Dict[str, str] = {}  # "<target>:counter" -> reason

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


@dataclass
class SpanTotals:
    """Per-name aggregates of a span list."""

    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)


def aggregate(spans: Sequence[Sequence]) -> SpanTotals:
    """Sum duration, self time and calls per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = SpanTotals()
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        out.total_s[name] = out.total_s.get(name, 0.0) + dur
        out.self_s[name] = out.self_s.get(name, 0.0) + dur - child_time[i]
        out.calls[name] = out.calls.get(name, 0) + 1
    return out


# --------------------------------------------------------------------------
# counters taken from arguments and results


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _nodes(args, kwargs, result):
    v = np.asarray(_arg(args, kwargs, 0, "v"))
    return {"nodes": float(np.prod(v.shape[:-1]))}


def _block_rows(args, kwargs, result):
    v = _arg(args, kwargs, 0, "v")
    return {"block_rows": float(v.shape[0] * (v.shape[1] - 2))}


def _iterates(args, kwargs, result):
    return {"iterates": float(result[1].iterations)}


def _rows_inverted(args, kwargs, result):
    return {"rows_inverted": float(np.shape(_arg(args, kwargs, 0, "h1_hat"))[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": float(os.path.getsize(_arg(args, kwargs, 1, "path")))}


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` is a dotted module name, ``attr`` an
    attribute path inside it ("f" or "Class.method").  With ``span=False``
    only calls are counted, for callables invoked too often for a span."""

    module: str
    attr: str
    counter: Optional[Counter] = None
    span: bool = True

    @property
    def name(self) -> str:
        return f"{self.module.split('.')[-1]}.{self.attr}"


TARGETS: Tuple[Target, ...] = (
    Target("mhbl.coeffs", "eval_advection", _nodes),
    Target("mhbl.coeffs", "eval_diffusion", _nodes),
    Target("mhbl.coeffs", "eval_lower_order", _nodes),
    Target("mhbl.coeffs", "advection_radius", _nodes),
    Target("mhbl.coeffs", "eval_symmetrizer", _nodes),
    Target("mhbl.fields", "sample_outflow"),
    Target("mhbl.stepper", "apply_derivative"),
    Target("mhbl.stepper", "BlockTridiag.solve"),
    Target("mhbl.stepper", "FrozenCoeffs.from_state"),
    Target("mhbl.stepper", "_step_arrays", _block_rows),
    Target("mhbl.stepper", "solve_linear_problem"),
    Target("mhbl.picard", "picard_solve", _iterates),
    Target("mhbl.transform", "initial_eta_map"),
    Target("mhbl.transform", "stream_from_h1", _rows_inverted),
    Target("mhbl.transform", "pullback_physical"),
    Target("mhbl.transform", "residual_original"),
    Target("mhbl.transform", "CubicSpline", span=False),
    Target("mhbl.transform", "PchipInterpolator", span=False),
    Target("mhbl.diagnostics", "discrete_norm"),
    Target("mhbl.diagnostics", "residual_transformed"),
    Target("mhbl.snapshots", "write_snapshot", _bytes_written),
    Target("mhbl.snapshots", "read_snapshot"),
    Target("mhbl.snapshots", "emit_plot_data"),
    Target("mhbl.mms", "manufacture_source"),
    Target("mhbl.mms", "solve_case"),
    Target("mhbl.mms", "convergence_study"),
    Target("mhbl.config", "parse_config"),
    Target("mhbl.cli", "run_simulate"),
)


def _wrap(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    name = target.name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not target.span:
            tracer.count(name)
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if target.counter is not None:
            try:
                amounts = target.counter(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError, OSError) as exc:
                tracer.broken[f"{name}:counter"] = (
                    f"counter on {name} failed: {exc!r}")
            else:
                for key, amount in amounts.items():
                    tracer.count(f"{name}:{key}", amount)
        return result

    return wrapper


class Probes:
    """Install wrappers for ``targets`` and undo them on exit.

    ``absent`` maps each target that could not be found to the reason.
    """

    def __init__(self, tracer: Tracer,
                 targets: Sequence[Target] = TARGETS) -> None:
        self.tracer = tracer
        self.targets = targets
        self.absent: Dict[str, str] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _install(self, target: Target) -> None:
        module = sys.modules.get(target.module)
        if module is None:
            self.absent[target.name] = f"module {target.module} is not loaded"
            return
        *owner_path, leaf = target.attr.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not (leaf in vars(owner) if isinstance(owner, type)
                                 else hasattr(owner, leaf)):
            self.absent[target.name] = f"{target.module}.{target.attr} not found"
            return
        if isinstance(owner, type):
            raw = vars(owner)[leaf]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(raw.__func__, target, self.tracer))
            else:
                new = _wrap(raw, target, self.tracer)
            self._undo.append((owner, leaf, raw))
            setattr(owner, leaf, new)
            return
        original = getattr(owner, leaf)
        wrapper = _wrap(original, target, self.tracer)
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "mhbl" or n.startswith("mhbl.")]
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def __enter__(self) -> "Probes":
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# --------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better, rule)
#
# A rule reads SpanTotals plus counters and returns a value, or raises
# KeyError naming the absent target it needs.


def _self(*names):
    return lambda t, c, a: sum(_need(t.self_s, n, a, 0.0) for n in names)


def _total(name):
    return lambda t, c, a: _need(t.total_s, name, a, 0.0)


def _calls(*names):
    return lambda t, c, a: float(sum(_need(t.calls, n, a, 0) for n in names))


def _counter(name, key):
    return lambda t, c, a: _need(c, f"{name}:{key}", a, 0.0,
                                 owners=(name, f"{name}:counter"))


def _need(table, key, absent, default, owners=None):
    for owner in owners or (key,):
        if owner in absent:
            raise KeyError(absent[owner])
    return table.get(key, default)


def _rows_per_s(t, c, a):
    rows = _counter("stepper._step_arrays", "block_rows")(t, c, a)
    busy = _total("stepper.BlockTridiag.solve")(t, c, a)
    return rows / busy if busy > 0.0 else 0.0


def _spline_kept(t, c, a):
    fitted = _need(c, "transform.CubicSpline", a, 0.0)
    fallback = _need(c, "transform.PchipInterpolator", a, 0.0)
    return (fitted - fallback) / fitted if fitted > 0.0 else 0.0


COEFFS = ("coeffs.eval_advection", "coeffs.eval_diffusion",
          "coeffs.eval_lower_order", "coeffs.advection_radius",
          "coeffs.eval_symmetrizer")

LAYER_METRICS: Dict[str, Tuple[str, str, Callable]] = {
    "stepper.block_solve_s": ("s", "lower", _self("stepper.BlockTridiag.solve")),
    "stepper.step_self_s": ("s", "lower", _self("stepper._step_arrays")),
    "stepper.freeze_s": ("s", "lower", _self("stepper.FrozenCoeffs.from_state")),
    "stepper.march_s": ("s", "lower", _self("stepper.solve_linear_problem")),
    "stepper.derivative_s": ("s", "lower", _self("stepper.apply_derivative")),
    "stepper.steps": ("count", "lower", _calls("stepper._step_arrays")),
    "stepper.block_rows": ("count", "lower",
                           _counter("stepper._step_arrays", "block_rows")),
    "stepper.block_rows_per_s": ("1/s", "higher", _rows_per_s),
    "coeffs.eval_s": ("s", "lower", _self(*COEFFS)),
    "coeffs.eval_calls": ("count", "lower", _calls(*COEFFS)),
    "coeffs.nodes_evaluated": ("count", "lower", lambda t, c, a: sum(
        _counter(n, "nodes")(t, c, a) for n in COEFFS)),
    "picard.solve_s": ("s", "lower", _total("picard.picard_solve")),
    "picard.self_s": ("s", "lower", _self("picard.picard_solve")),
    "picard.iterates": ("count", "lower",
                        _counter("picard.picard_solve", "iterates")),
    # the whole pullback, stream_from_h1 and stencils included
    "transform.pullback_s": ("s", "lower", _total("transform.pullback_physical")),
    "transform.stream_s": ("s", "lower", _self("transform.stream_from_h1")),
    "transform.initial_map_s": ("s", "lower", _self("transform.initial_eta_map")),
    "transform.residual_s": ("s", "lower", _self("transform.residual_original")),
    "transform.pullbacks": ("count", "lower",
                            _calls("transform.pullback_physical")),
    "transform.rows_inverted": ("count", "lower",
                                _counter("transform.stream_from_h1",
                                         "rows_inverted")),
    "transform.spline_kept_ratio": ("ratio", "higher", _spline_kept),
    "diagnostics.residual_s": ("s", "lower",
                               _self("diagnostics.residual_transformed")),
    "diagnostics.norm_s": ("s", "lower", _self("diagnostics.discrete_norm")),
    "diagnostics.norm_calls": ("count", "lower",
                               _calls("diagnostics.discrete_norm")),
    "snapshots.write_s": ("s", "lower", _self("snapshots.write_snapshot")),
    "snapshots.plot_s": ("s", "lower", _self("snapshots.emit_plot_data")),
    "snapshots.read_s": ("s", "lower", _self("snapshots.read_snapshot")),
    "snapshots.files_written": ("count", "lower",
                                _calls("snapshots.write_snapshot")),
    "snapshots.bytes_written": ("bytes", "lower",
                                _counter("snapshots.write_snapshot",
                                         "bytes_written")),
    "mms.source_s": ("s", "lower", _self("mms.manufacture_source")),
    "mms.solve_case_s": ("s", "lower", _self("mms.solve_case")),
    "mms.study_s": ("s", "lower", _self("mms.convergence_study")),
    "config.parse_s": ("s", "lower", _self("config.parse_config")),
    "fields.sample_outflow_s": ("s", "lower", _self("fields.sample_outflow")),
    "cli.self_s": ("s", "lower", _self("cli.run_simulate")),
}


def layer_values(tracer: Tracer, absent: Dict[str, str],
                 ops: int) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-operation value of every layer metric, and the reason for each
    metric that could not be measured."""
    totals = aggregate(tracer.spans)
    absent = {**absent, **tracer.broken}
    values: Dict[str, float] = {}
    missing: Dict[str, str] = {}
    for name, (_, _, rule) in LAYER_METRICS.items():
        try:
            value = rule(totals, tracer.counters, absent)
        except KeyError as exc:
            missing[name] = exc.args[0]
            continue
        values[name] = value if name.endswith(("_ratio", "_per_s")) else value / ops
    return values, missing
