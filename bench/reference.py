"""Independent numpy/scipy reference for every output the benchmark checks.

Nothing here calls gausset. The posterior is built from centred
per-class statistics,

    B* = W + sum_k (r T_k / (r + T_k)) m_k m_k^T,

a different route from the library's raw moments ``S - F (R*)^-1 F^T``,
and scores use LAPACK Cholesky with batched triangular solves. Each
``check_*`` function returns a list of problems; an empty list means the
output matched.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Agreement limits, set from float64 rounding: the two routes to B* differ
# by about 1e-15 relative to its largest entry, log scores carry a factor
# (a* + 1)/2 of up to 1e4, and log evidence a factor T/2.
MODEL_RTOL = 1e-9
SCORE_ATOL = 1e-7
POSTERIOR_ATOL = 1e-9
EVIDENCE_RTOL = 1e-9
# Decisions are checked only where the top two posteriors differ by more.
DECISION_MARGIN = 1e-6
R_MIN, R_MAX = 1e-3, 1e3   # the CLI's default tune-r bracket


@dataclass(frozen=True)
class RefModel:
    """Predictive parameters, rows in ``class_names`` order."""

    class_names: tuple
    a_star: float
    mu_star: np.ndarray   # (K, N)
    c_star: np.ndarray    # (K,)
    b_star: np.ndarray    # (N, N)

    def log_scores(self, x) -> np.ndarray:
        """(T, K) unnormalised log predictive of each row under each class."""
        x = np.atleast_2d(x)
        lower = np.linalg.cholesky(self.b_star)
        q = np.empty((x.shape[0], len(self.class_names)))
        for k, mu in enumerate(self.mu_star):
            y = solve_triangular(lower, (x - mu).T, lower=True)
            q[:, k] = np.einsum("ij,ij->j", y, y)
        cp1 = self.c_star + 1.0
        return (-0.5 * x.shape[1] * np.log(cp1)
                - 0.5 * (self.a_star + 1.0) * np.log1p(q / cp1))


def posteriors(scores) -> np.ndarray:
    """Row-wise softmax under a uniform class prior."""
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class RefStats:
    """Per-class counts and means plus the pooled within-class scatter."""

    class_names: tuple
    counts: np.ndarray    # (K,)
    means: np.ndarray     # (K, N), zero rows for empty classes
    within: np.ndarray    # (N, N)

    @classmethod
    def from_data(cls, x, y, class_names) -> "RefStats":
        counts = np.bincount(y, minlength=len(class_names)).astype(np.float64)
        sums = np.zeros((len(class_names), x.shape[1]))
        np.add.at(sums, y, x)
        means = sums / np.maximum(counts, 1.0)[:, None]
        centred = x - means[y]
        return cls(tuple(class_names), counts, means, centred.T @ centred)

    def _scale(self, r: float) -> np.ndarray:
        shrink = r * self.counts / (r + self.counts)
        return self.within + (self.means.T * shrink) @ self.means

    def model(self, r: float) -> RefModel:
        """Non-informative-prior (a = 0, B = 0) posterior at shrinkage r."""
        return RefModel(self.class_names, float(self.counts.sum()),
                        (self.counts / (r + self.counts))[:, None] * self.means,
                        1.0 / (r + self.counts), self._scale(r))

    def log_evidence(self, r: float) -> float:
        """Relative log evidence at the non-informative prior."""
        lower = np.linalg.cholesky(self._scale(r))
        logdet = 2.0 * np.sum(np.log(np.diag(lower)))
        bracket = len(self.counts) * np.log(r) - np.sum(np.log(r + self.counts))
        dim = self.within.shape[0]
        return float(0.5 * dim * bracket - 0.5 * self.counts.sum() * logdet)


def curve_grid(points: int) -> np.ndarray:
    return np.geomspace(R_MIN, R_MAX, points)


def _mismatch(label, got, want, rtol=0.0, atol=0.0):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(np.isfinite(got)) or np.any(err > 0):
        worst = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [f"{label}: {got.flat[worst]!r} vs reference {want.flat[worst]!r}"]
    return []


def check_model(path, ref: RefModel, r: float) -> list:
    """The model file's r, a*, mu*, c* and B* against the reference."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names = tuple(doc["class_names"])
        order = [ref.class_names.index(n) for n in names]
        scale = float(np.max(np.abs(ref.b_star)))
        return (_mismatch("r", doc["r"], r)
                + _mismatch("a_star", doc["a_star"], ref.a_star)
                + _mismatch("mu_star", doc["mu_star"], ref.mu_star[order],
                            MODEL_RTOL, MODEL_RTOL * np.max(np.abs(ref.mu_star)))
                + _mismatch("c_star", doc["c_star"], ref.c_star[order], MODEL_RTOL)
                + _mismatch("b_star", doc["b_star"], ref.b_star, 0.0, MODEL_RTOL * scale))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"model file unreadable: {exc!r}"]


def bad_rows(names, probs, actions, ref_probs) -> np.ndarray:
    """Rows whose posteriors miss the reference by more than POSTERIOR_ATOL,
    or whose action differs from it where the top-two margin is clear.

    ``names`` orders the columns of both ``probs`` and ``ref_probs``;
    ``actions`` are class names.
    """
    off = ~np.all(np.abs(np.asarray(probs, dtype=np.float64) - ref_probs)
                  <= POSTERIOR_ATOL, axis=1)
    top2 = np.sort(ref_probs, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > DECISION_MARGIN
    best = np.asarray(names)[np.argmax(ref_probs, axis=1)]
    return off | (clear & (np.asarray(actions) != best))


def describe_row(label, i, names, probs, actions, ref_probs) -> str:
    best = names[int(np.argmax(ref_probs[i]))]
    return (f"{label} row {i}: action {actions[i]!r} posteriors {list(probs[i])!r}, "
            f"reference {best!r} {list(ref_probs[i])!r}")


def check_scored(path, ref: RefModel, ref_scores) -> list:
    """A classify CSV: log scores, posteriors and decisions."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        k = len(ref.class_names)
        names = [h[len("logpred_"):] for h in header[:k]]
        expected = ([f"logpred_{n}" for n in names]
                    + [f"posterior_{n}" for n in names] + ["action"])
        if header != expected or sorted(names) != sorted(ref.class_names):
            return [f"classify header {header!r} does not match the model classes"]
        order = [ref.class_names.index(n) for n in names]
        values = np.array([row[:2 * k] for row in body], dtype=np.float64)
        actions = [row[2 * k] for row in body]
    except (OSError, ValueError, IndexError) as exc:
        return [f"classify output unreadable: {exc!r}"]
    scores = ref_scores[:, order]
    if values.shape != (scores.shape[0], 2 * k):
        return [f"classify output has shape {values.shape}, expected "
                f"{(scores.shape[0], 2 * k)}"]
    problems = _mismatch("log score", values[:, :k], scores, EVIDENCE_RTOL, SCORE_ATOL)
    ref_probs = posteriors(scores)
    bad = np.flatnonzero(bad_rows(names, values[:, k:], actions, ref_probs))
    if bad.size:
        problems.append(describe_row("classify", int(bad[0]), names, values[:, k:],
                                     actions, ref_probs))
    return problems


def check_curve(path, grid, ref_values) -> list:
    """An evidence-curve CSV: its r grid and the log evidence at each point."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["r", "log_evidence"]:
            return [f"curve header {rows[0]!r}"]
        got = np.array([[float(c) for c in row] for row in rows[1:]])
    except (OSError, ValueError, IndexError) as exc:
        return [f"curve output unreadable: {exc!r}"]
    if got.shape != (grid.size, 2):
        return [f"curve has shape {got.shape}, expected {(grid.size, 2)}"]
    return (_mismatch("curve r", got[:, 0], grid, 1e-12)
            + _mismatch("curve log evidence", got[:, 1], ref_values, EVIDENCE_RTOL))


def check_tuned(stdout: str, stats: RefStats, ref_values) -> list:
    """The tuned r scores at least the best grid point, less a tolerance."""
    for line in stdout.splitlines():
        if line.startswith("tuned r = "):
            try:
                tuned = float(line.split()[3])
            except (IndexError, ValueError):
                break
            best = float(np.max(ref_values))
            got = stats.log_evidence(tuned)
            if got < best - EVIDENCE_RTOL * abs(best):
                return [f"tuned r={tuned!r} has log evidence {got!r}, "
                        f"below the best grid point {best!r}"]
            return []
    return ["tune-r printed no tuned r"]


def parse_verify(stdout: str):
    """The JSON report that ``verify`` prints last, or None."""
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return report if isinstance(report, dict) and "all_pass" in report else None
