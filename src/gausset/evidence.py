"""Marginal likelihood of the training data as a function of r.

Two forms are provided. ``log_evidence_proper`` is the complete log
marginal likelihood for a proper prior (a > N - 1, B positive
definite), with every constant kept so that it exactly equals the sum
of sequential one-point log predictives (the chain rule). That identity
is the package's master consistency check: it ties the posterior
update, the predictive density and the evidence constant together.

``log_evidence_noninformative`` is the a = 0, B = 0 form

    (N/2) [K log r - sum_k log(r + T_k)] - (T/2) log det B*(r),

    B*(r) = S - sum_k f_k f_k^T / (r + T_k)
          = W + sum_k w_k m_k m_k^T,   w_k = r T_k / (r + T_k),

the posterior scale matrix at a = 0, B = 0. The value drops additive
terms that do not depend on r. Because the prior is improper there, the
value is meaningful only as a relative score for choosing r, never as
an absolute likelihood comparable across datasets or models.

Both rest on one private kernel. For a prior (a, B) it scores

    (N/2) [K log r - sum_k log(r + T_k)] - ((a + T)/2) log det B*(r),

    B*(r) = B + W + sum_k w_k m_k m_k^T,

and only the weights w_k depend on r. So it factors B + W once per
dataset and scores every r with K' x K' work, K' the number of
non-empty classes. With s = sum_k w_k, the weighted mean
mbar = sum_k w_k m_k / s and

    C = B + W + sum_k w_k (m_k - mbar)(m_k - mbar)^T,

B*(r) = C + s mbar mbar^T, so

    log det B* = log det C + log1p(s mbar^T C^-1 mbar).

log det C comes from the determinant lemma on the offset-free means
m_k - xbar (xbar the count-weighted mean, whitened by B + W once), and
mbar^T C^-1 mbar from Woodbury on the same K' x K' factor. No N x N
matrix with offset-sized entries is formed, so a large common offset in
the data is never rounded into B* and cannot make B* look singular.
``evidence_curve`` scores its whole grid in one batch, and ``tune_r``
scans a coarse grid in one batch before refining. When B + W itself
fails the pivot check (for example B = 0 and T < N + K'), each r
factors the N x N B*(r) from the shared posterior update instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import SufficientStats
from .errors import (
    DegenerateScatter,
    DomainError,
    ImproperPrior,
    NotPositiveDefinite,
)
from .inference import PriorHyper, _posterior_general

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of tune_r's first, batched scan over [r_min, r_max].
_TUNE_GRID = 64


def _dense_log_det(stats: SufficientStats, r: float, b) -> float:
    """log det B*(r) from the N x N matrix itself, NaN if it is degenerate."""
    _, _, _, b_star = _posterior_general(stats, 0.0, np.full(stats.n_classes, r), 0.0, b)
    try:
        return linalg.logdet(linalg.cholesky(b_star))
    except NotPositiveDefinite:
        return math.nan


def _evidence_kernel(stats: SufficientStats, a: float = 0.0, b=None):
    """Set up once per dataset; return ``values(r)`` for a 1-D array of r > 0.

    ``values`` gives (N/2) [K log r - sum_k log(r + T_k)] - ((a + T)/2)
    log det B*(r) for the prior (a, B) at every r, ``b=None`` standing for
    B = 0, and NaN where B*(r) is degenerate. The N x N work is done here
    once: factor B + W and whiten the offset-free means M - xbar 1^T and
    the count-weighted mean xbar. Each r then costs K' x K' work through
    the weighted-mean split of the module docstring. If B + W fails the
    pivot rule (for example B = 0 and T < N + K'), each r factors B*(r)
    itself instead.
    """
    counts = stats.counts.astype(np.float64)
    dim, total = stats.dim, stats.total
    a_star = a + total

    def bracket(r):
        return 0.5 * dim * (stats.n_classes * np.log(r)
                            - np.sum(np.log(r[:, None] + counts), axis=1))

    if total == 0 and b is None:
        return lambda r: np.zeros(r.shape)
    try:
        chol = linalg.cholesky(linalg.symmetrize(
            stats.within if b is None else b + stats.within))
    except NotPositiveDefinite:
        return lambda r: bracket(r) - 0.5 * a_star * np.array(
            [_dense_log_det(stats, x, b) for x in r])

    sizes = counts[counts > 0]
    means = stats.means[:, counts > 0]
    xbar = means @ (sizes / total)
    white = chol.inverse @ np.column_stack([means - xbar[:, None], xbar])
    gram = white.T @ white
    g_hat, h, alpha = gram[:-1, :-1], gram[:-1, -1], gram[-1, -1]
    logdet_bw = linalg.logdet(chol)
    eye = np.eye(sizes.size)

    def values(r):
        # With v = w / s, F = sqrt(s) E and E = diag(sqrt v)(I - sqrt v sqrt v^T):
        # log det C = log det(B + W) + log det A with A = I + s E^T G E, and by
        # Woodbury s mbar^T C^-1 mbar = s mbar^T (B + W)^-1 mbar - b^T A^-1 b
        # with g = (M - xbar 1^T)^T (B + W)^-1 mbar = h + G v and b = s E^T g.
        w = r[:, None] * sizes / (r[:, None] + sizes)
        s = np.sum(w, axis=1)
        v = w / s[:, None]
        root = np.sqrt(v)
        e_mat = root[:, :, None] * (eye - root[:, :, None] * root[:, None, :])
        a_mat = eye + s[:, None, None] * (e_mat.transpose(0, 2, 1) @ g_hat @ e_mat)
        # Products stay per r (stacks of rows), so one r scores bit for bit
        # as it does inside a batch.
        g = h + (v[:, None, :] @ g_hat)[:, 0, :]
        b_vec = s[:, None] * (g[:, None, :] @ e_mat)[:, 0, :]
        quad = np.sum(b_vec * np.linalg.solve(a_mat, b_vec[:, :, None])[:, :, 0], axis=1)
        pivots = np.diagonal(np.linalg.cholesky(a_mat), axis1=1, axis2=2)
        log_det = (logdet_bw + 2.0 * np.sum(np.log(pivots), axis=1)
                   + np.log1p(s * (alpha + np.sum(v * (h + g), axis=1)) - quad))
        return bracket(r) - 0.5 * a_star * log_det

    return values


def log_evidence_noninformative(stats: SufficientStats, r: float) -> float:
    """Relative log evidence at the non-informative prior.

    Classes with no data contribute ``log r - log(r + 0) = 0`` and a
    zero sum column, so they do not move the value. An all-empty
    dataset scores exactly 0 for every r.

    Raises
    ------
    DegenerateScatter
        If the scale matrix B*(r) is not positive definite (for example
        when T <= N).
    """
    r = float(r)
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    value = _evidence_kernel(stats)(np.array([r]))[0]
    if np.isnan(value):
        raise DegenerateScatter(
            f"evidence scale matrix is singular at r={r} "
            f"(T={stats.total}, N={stats.dim})"
        )
    return float(value)


def log_evidence_proper(stats: SufficientStats, prior: PriorHyper) -> float:
    """Full log marginal likelihood under a proper prior.

    The value is

        -(T N / 2) log(2 pi)
          + log MGamma_N(a*/2) - log MGamma_N(a/2)
          + (a/2) log det(B/2) - (a*/2) log det(B*/2)
          + (N/2) [K log r - sum_k log(r + T_k)]

    and satisfies the chain rule: it equals the sum over patterns, in
    any order, of the log predictive of each pattern given all earlier
    ones. An empty dataset scores exactly 0.
    """
    improper = ImproperPrior("proper evidence needs a > N - 1 and a positive definite B")
    if prior.b is None or not prior.a > prior.b.shape[0] - 1:
        raise improper
    try:
        factor_b = linalg.cholesky(prior.b)
    except NotPositiveDefinite:
        raise improper from None
    if prior.b.shape[0] != stats.dim:
        raise ImproperPrior(
            f"prior scale matrix is {prior.b.shape[0]}-dimensional, "
            f"data is {stats.dim}-dimensional"
        )
    n, t = stats.dim, stats.total
    value = _evidence_kernel(stats, prior.a, prior.b)(np.array([prior.r]))[0]
    if np.isnan(value):
        raise DegenerateScatter("posterior scale matrix is singular")
    # The kernel gives the bracket term and -(a*/2) log det B*. The N log 2
    # parts of log det(B/2) and log det(B*/2) leave (T N/2) log 2, which
    # cancels the 2 of log(2 pi).
    constants = (-0.5 * t * n * np.log(np.pi)
                 + linalg.log_multivariate_gamma(n, (prior.a + t) / 2.0)
                 - linalg.log_multivariate_gamma(n, prior.a / 2.0)
                 + 0.5 * prior.a * linalg.logdet(factor_b))
    return float(constants + value)


def tune_r(stats: SufficientStats, r_min: float, r_max: float,
           tol: float = 1e-6) -> float:
    """Maximize the non-informative log evidence over r.

    The search runs on log r because useful r values span decades. It
    scores a fixed grid of ``_TUNE_GRID`` log-spaced points over
    [r_min, r_max], endpoints included, in one batch, then refines by
    golden section inside the two grid cells around the best point. The
    curve is near-log-concave in practice but not provably so; the grid
    guards against a local peak, and the returned r never scores below
    any grid point. ``tol`` is the final log-r bracket width, finite and > 0.

    A probe whose scale matrix is degenerate loses every comparison.
    Degeneracy can come and go along r, so no single probe stands for
    the whole range. :class:`DegenerateScatter` is raised only if every
    probe was degenerate.
    """
    r_min, r_max = float(r_min), float(r_max)
    if not 0.0 < r_min < r_max:
        raise DomainError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")

    values = _evidence_kernel(stats)
    grid = np.geomspace(r_min, r_max, _TUNE_GRID)
    scanned = values(grid)
    scanned[np.isnan(scanned)] = -np.inf
    probes = dict(zip(grid.tolist(), scanned.tolist()))

    def objective(log_r: float) -> float:
        r = math.exp(log_r)
        if r not in probes:
            value = values(np.array([r]))[0]
            probes[r] = -math.inf if np.isnan(value) else float(value)
        return probes[r]

    best = int(np.argmax(scanned))
    lo = math.log(grid[max(best - 1, 0)])
    hi = math.log(grid[min(best + 1, grid.size - 1)])
    # A bracket a few ulps wide stops shrinking, so no smaller tol is met.
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = objective(x2)
    objective(0.5 * (lo + hi))
    best_r = max(probes, key=probes.get)
    if probes[best_r] == -math.inf:
        raise DegenerateScatter(
            f"evidence scale matrix is singular at every probed r in "
            f"[{r_min}, {r_max}] (T={stats.total}, N={stats.dim})"
        )
    return best_r


@dataclass(frozen=True)
class EvidenceCurve:
    """Pointwise evidence over a grid of r values.

    Degenerate grid points hold NaN and are excluded from the mode;
    ``mode`` is None when every point is degenerate.
    """

    r_values: np.ndarray
    log_evidence: np.ndarray
    mode: float | None

    def __post_init__(self):
        r_values = np.asarray(self.r_values, dtype=np.float64)
        log_ev = np.asarray(self.log_evidence, dtype=np.float64)
        r_values.flags.writeable = False
        log_ev.flags.writeable = False
        object.__setattr__(self, "r_values", r_values)
        object.__setattr__(self, "log_evidence", log_ev)


def evidence_curve(stats: SufficientStats, r_grid) -> EvidenceCurve:
    """Evaluate the non-informative log evidence over a grid of r."""
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if r_grid.ndim != 1 or r_grid.size < 1:
        raise DomainError("grid must be a non-empty vector")
    if np.any(r_grid <= 0.0) or np.any(np.diff(r_grid) <= 0.0):
        raise DomainError("grid must be positive and strictly increasing")
    values = _evidence_kernel(stats)(r_grid)
    if np.all(np.isnan(values)):
        mode = None
    else:
        mode = float(r_grid[np.nanargmax(values)])
    return EvidenceCurve(r_grid, values, mode)


def write_curve_csv(curve: EvidenceCurve, path) -> None:
    """Emit the curve as CSV; degenerate points get an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r", "log_evidence"])
        for r, value in zip(curve.r_values, curve.log_evidence):
            writer.writerow([repr(float(r)), "" if np.isnan(value) else repr(float(value))])
