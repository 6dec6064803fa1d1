"""Outside-in span tracing of the ``bwvi`` package.

``instrumented`` replaces the public functions listed below with timing
wrappers wherever a ``bwvi`` module holds a reference to them, and the
listed methods on their classes, then puts every original back on exit.
Each call becomes one span, kept in memory with the span that was open
when it started; a span's self time is its duration minus the durations
of its direct children.  Nothing inside ``src/`` is changed.

A listed name that the package no longer defines is reported as absent
and skipped, so a refactor that deletes it does not break the trace.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: ``(module, function)`` pairs wrapped wherever a bwvi module references them.
FUNCTIONS = (
    ("estimators", "draw_noise"),
    ("estimators", "param_gradient"),
    ("estimators", "bw_gradient"),
    ("geometry", "sample"),
    ("geometry", "matrix_sqrt_psd"),
    ("geometry", "cholesky_factor"),
    ("geometry", "entropy"),
    ("geometry", "w2_distance_sq"),
    ("optimizers", "run"),
    ("optimizers", "spgd_step"),
    ("optimizers", "spbwgd_step"),
    ("optimizers", "entropy_prox"),
    ("optimizers", "jko_entropy"),
    ("diagnostics", "free_energy_mc"),
    ("harness", "build_target"),
)

#: Construction (and validation) of the variational state.
STATE_CLASS = ("geometry", "GaussianVariational")

#: Oracle methods wrapped on every ``Potential`` class in ``targets``; their
#: spans also record how many points they were asked to evaluate.
TARGET_METHODS = ("value", "grad", "hessian_mean", "hessian_apply")

#: Spans of this name get a label naming the chain's algorithm/estimator.
CHAIN_SPAN = "optimizers.run"

PACKAGE = "bwvi"


def chain_label(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return f"{config.algorithm.value}/{config.estimator.value}"


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    points: int


class SpanRecorder:
    """Spans as parallel lists: name, parent index (-1 for a root), start,
    end, the number of points an oracle call evaluated, and a label (the
    algorithm/estimator of a chain span, else ``None``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.points: list[int] = []
        self.labels: list[str | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, sized: bool = False, label=None):
        names, parents, starts, ends, points, labels, open_ = (
            self.names, self.parents, self.starts, self.ends, self.points,
            self.labels, self._open,
        )
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            points.append(_points(args[1]) if sized and len(args) > 1 else 0)
            labels.append(label(args, kwargs) if label else None)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                open_.pop()

        return wrapper

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration - children

    def chains(self) -> list[int]:
        """Index of each span's innermost enclosing chain span (itself for a
        chain span), -1 outside any chain."""
        out: list[int] = []
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            out.append(i if name == CHAIN_SPAN else (out[parent] if parent >= 0 else -1))
        return out

    def table(self, keep=None) -> dict[str, SpanStats]:
        """Calls, total time, self time and points per span name, over the
        spans where the boolean mask ``keep`` is true (all by default)."""
        names, span_name = np.unique(np.asarray(self.names, dtype=object), return_inverse=True)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        own = self.self_times()
        points = np.asarray(self.points, dtype=np.float64)
        if keep is not None:
            span_name, duration, own, points = (
                span_name[keep], duration[keep], own[keep], points[keep]
            )

        def per_name(weights=None):
            return np.bincount(span_name, weights=weights, minlength=len(names))

        calls, total, self_s, n_points = (
            per_name(), per_name(duration), per_name(own), per_name(points)
        )
        return {
            str(name): SpanStats(int(calls[i]), float(total[i]), float(self_s[i]), int(n_points[i]))
            for i, name in enumerate(names) if calls[i]
        }

    def self_by_parent(self, name: str, keep=None) -> dict[str, float]:
        """Self time of the spans called ``name``, split by the parent's name."""
        own = self.self_times()
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            if span == name and (keep is None or keep[i]):
                parent = self.parents[i]
                key = self.names[parent] if parent >= 0 else "<root>"
                out[key] = out.get(key, 0.0) + float(own[i])
        return out


def package_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bindings() -> dict[tuple[str, str], object]:
    """Every attribute of the package's modules, and of the classes they
    define, keyed by ``(owner, attribute)``; compared by identity before and
    after a traced run to show that every original was put back."""
    out = {}
    for module in package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(f"{module.__name__}.{key}", attr)] = member
    return out


def rebound(before: dict, after: dict) -> list[str]:
    """Names that ``bindings()`` found bound to different objects."""
    return sorted(
        f"{owner}.{attr}" for owner, attr in before.keys() | after.keys()
        if before.get((owner, attr)) is not after.get((owner, attr))
    )


@contextmanager
def instrumented(recorder: SpanRecorder, functions=FUNCTIONS):
    """Route calls to the listed bwvi functions and methods through
    ``recorder``; yields the names found absent.  Originals are restored on
    exit, also when the body raises."""
    modules = package_modules()
    patched: list[tuple[object, str, object]] = []
    absent: list[str] = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def method(module_name, class_name, attr, span, sized=False):
        cls = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), class_name, None)
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        if original is None:
            absent.append(f"{module_name}.{class_name}.{attr}")
        else:
            patch(cls, attr, recorder.wrap(span, original, sized))

    try:
        for module_name, attr in functions:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            span = f"{module_name}.{attr}"
            wrapper = recorder.wrap(span, original, label=chain_label if span == CHAIN_SPAN else None)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, wrapper)

        state_module, state_class = STATE_CLASS
        method(state_module, state_class, "__init__", f"{state_module}.{state_class}")

        targets = sys.modules.get(f"{PACKAGE}.targets")
        base = getattr(targets, "Potential", None)
        potentials = [
            value for value in vars(targets).values()
            if isinstance(value, type) and isinstance(base, type) and issubclass(value, base)
        ] if targets is not None else []
        if not potentials:
            absent.append("targets.Potential")
        for cls in potentials:
            for attr in TARGET_METHODS:
                if attr in vars(cls):
                    method("targets", cls.__name__, attr, f"targets.{attr}", sized=True)
        yield absent
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
