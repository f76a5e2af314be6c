"""Outside-in spans for the benchmark's traced run.

``installed(tracer)`` wraps public gausset functions in spans that record
name, start, end and parent. Each function is replaced at every module
attribute that holds it, so the names ``cli`` and other modules imported
with ``from .x import y`` are covered as well as the defining module.
Counts are taken at the same boundaries. Spans stay in memory; the
library itself is not changed.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _dataset_cells(counts, args, kwargs, result):
    counts["dataset.cells"] += result.patterns.size


def _feature_cells(counts, args, kwargs, result):
    counts["dataset.cells"] += result[1].size


def _rows(counts, args, kwargs, result):
    counts["predictive.rows"] += result[0].shape[0]


def _curve_points(counts, args, kwargs, result):
    counts["evidence.curve_points"] += result.r_values.size


def _file_bytes(counts, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[2]
    counts["model_io.file_bytes"] += os.path.getsize(path)


def _samples(counts, args, kwargs, result):
    post = args[1]
    n_samples = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
    counts["montecarlo.samples"] += n_samples
    # Bartlett tensor of mc_predictive: S x N x N float64, computed, not measured.
    factor = n_samples * post.dim * post.dim * 8
    counts["montecarlo.factor_bytes"] = max(counts["montecarlo.factor_bytes"], factor)


# (module, function, count hook); the span is named "module.function".
TARGETS = (
    ("dataset", "load_csv", _dataset_cells),
    ("dataset", "load_features", _feature_cells),
    ("dataset", "accumulate", None),
    ("inference", "posterior", None),
    ("predictive", "build_model", None),
    ("predictive", "score_batch", _rows),
    ("predictive", "class_posterior", None),
    ("evidence", "tune_r", None),
    ("evidence", "evidence_curve", _curve_points),
    ("evidence", "log_evidence_noninformative", None),
    ("evidence", "write_curve_csv", None),
    ("model_io", "save_model", _file_bytes),
    ("model_io", "load_model", None),
    ("montecarlo", "run_verification", None),
    ("montecarlo", "mc_predictive", _samples),
    ("linalg", "cholesky", None),
    ("linalg", "quadform", None),
)


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def durations_s(self, name: str) -> list:
        return [(e - s) / 1e9 for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def self_times_s(self) -> dict:
        """Self time per span name: duration minus direct children's."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        totals = defaultdict(float)
        for name, ns in zip(self.names, own):
            totals[name] += ns / 1e9
        return dict(totals)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        hits = 0
        for idx, n in enumerate(self.names):
            if n != name:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] != ancestor:
                parent = self.parents[parent]
            hits += parent >= 0
        return hits

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_s(name)) * 1e6


def _wrap(tracer: Tracer, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every TARGETS function through ``tracer`` while the block runs."""
    importlib.import_module("gausset.cli")
    modules = [m for n, m in sys.modules.items()
               if n == "gausset" or n.startswith("gausset.")]
    patches = []
    for module_name, attr, hook in TARGETS:
        original = getattr(importlib.import_module(f"gausset.{module_name}"), attr)
        wrapper = _wrap(tracer, f"{module_name}.{attr}", original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    try:
        yield tracer
    finally:
        for module, key, original in reversed(patches):
            setattr(module, key, original)
