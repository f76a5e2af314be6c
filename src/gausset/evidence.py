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

and only the weights w_k depend on r. So it factors P = B + W once per
dataset and scores every r with (K' + 1) x (K' + 1) work, K' the number
of non-empty classes. With s = sum_k w_k, v = w / s, M the K' class
means and xbar their count-weighted mean, the w-weighted mean is
mbar = xbar + (M - xbar 1^T) v, M - mbar 1^T = (M - xbar 1^T)(I - v 1^T), and

    B*(r) = P + V V^T,   V = sqrt(s) [M - xbar 1^T, xbar] T(r),
    T(r) = [[(I - v 1^T) diag(sqrt v), v], [0^T, 1]],

so by the determinant lemma log det B* = log det P + log det A,
A = I + s T^T G T, G = R0^T R0 with R0 the R factor of a QR of
[M - xbar 1^T, xbar] whitened by P once. A is never formed: the QR of
[sqrt(s) R0 T(r); I], identity rows last so that Householder takes the
large rows first, has an R that factors A to rounding however far apart
the means lie, with every |R_jj| >= 1. The offset-sized xbar column is
last, so only the last column of that small QR carries the cancellation
of a large common offset.
``evidence_curve`` and ``tune_r`` score a whole grid of r in one batch.
Where B + W fails the pivot check, or B = 0 and T - K' <= N (W is then
singular, or full rank but often too ill-conditioned to whiten by), each
r factors the N x N C(r) = B*(r) - s mbar mbar^T, B + W plus the
w-weighted spread about mbar, instead and adds log1p(s mbar^T C^-1 mbar).
B*(r) itself is factored only if C(r) fails the pivot check or B = 0
and T = N; with B = 0 and T < N every r is degenerate. No route but that
last resort forms an N x N matrix with offset-sized entries, so a large
common offset is never rounded into B* and cannot make it look singular.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from . import linalg
from .dataset import SufficientStats
from .errors import (
    DegenerateScatter,
    DomainError,
    ImproperPrior,
    NotPositiveDefinite,
)
from .inference import PriorHyper, _scale_matrix

# Points of each of tune_r's batched scans.
_TUNE_GRID = 64


def _log_det(stats: SufficientStats, r: float, b) -> float:
    """log det B*(r) from one N x N factor, NaN if that is degenerate.

    The factor is of C(r), the update about the weighted mean mbar, and
    log1p(s mbar^T C^-1 mbar) is added. B*(r), the update about 0, is
    factored only if C(r) fails the pivot rule, or if B = 0 and T <= N,
    where C(r) has rank at most T - 1.
    """
    w = r * stats.counts / (r + stats.counts)
    if b is not None or stats.total > stats.dim:
        mbar = stats.means @ w / np.sum(w)
        try:
            chol = linalg.cholesky(_scale_matrix(stats, stats.means - mbar[:, None], w, b))
            return linalg.logdet(chol) + math.log1p(np.sum(w) * linalg.quadform(chol, mbar))
        except NotPositiveDefinite:
            pass
    try:
        return linalg.logdet(linalg.cholesky(_scale_matrix(stats, stats.means, w, b)))
    except NotPositiveDefinite:
        return math.nan


def _evidence_kernel(stats: SufficientStats, a: float = 0.0, b=None):
    """Set up once per dataset; return ``values(r)`` for a 1-D array of r > 0.

    ``values`` gives (N/2) [K log r - sum_k log(r + T_k)] - ((a + T)/2)
    log det B*(r) for the prior (a, B) at every r, ``b=None`` standing for
    B = 0, and NaN where B*(r) is degenerate. The N x N work is done here
    once: factor B + W, whiten the offset-free means M - xbar 1^T and the
    count-weighted mean xbar, and take the R factor of their QR. Each r
    then costs one QR of a (2K' + 2) x (K' + 1) stack at most, through the
    determinant lemma of the module docstring, which cannot fail. If B = 0
    and T - K' <= N, or B + W fails the pivot rule, each r takes
    :func:`_log_det` instead; if B = 0 and 0 < T < N, every r is NaN.
    """
    counts = stats.counts.astype(np.float64)
    sizes = counts[counts > 0]
    dim, total = stats.dim, stats.total
    a_star = a + total

    def bracket(r):
        # An empty class adds log r - log(r + 0) = 0, left out to keep it exact.
        return 0.5 * dim * (sizes.size * np.log(r)
                            - np.sum(np.log(r[:, None] + sizes), axis=1))

    def per_r(r):
        return bracket(r) - 0.5 * a_star * np.array([_log_det(stats, x, b) for x in r])

    if b is None and total < dim:
        # B*(r) has rank at most T: no data scores 0, too little is degenerate.
        return lambda r: np.full(r.shape, np.nan if total else 0.0)
    # With B = 0, W has rank at most T - K' (rounding can pass a singular W
    # through the pivot rule), and at T - K' = N whitening by it lost 1e-6.
    if b is None and total - sizes.size <= dim:
        return per_r
    try:
        chol = linalg.cholesky(linalg.symmetrize(
            stats.within if b is None else b + stats.within))
    except NotPositiveDefinite:
        return per_r

    means = stats.means[:, counts > 0]
    xbar = means @ (sizes / total)
    # root^T root is the whitened means' Gram matrix; root has min(N, K'+1) rows.
    root = np.linalg.qr(chol.inverse @ np.column_stack([means - xbar[:, None], xbar]),
                        mode="r")
    logdet_bw = linalg.logdet(chol)
    k = sizes.size
    eye = np.eye(k + 1)

    def values(r):
        # log det B* = log det(B + W) + log det A, and the R of the QR of
        # [sqrt(s) root T(r); I] factors A = I + s T^T G T up to row signs.
        w = r[:, None] * sizes / (r[:, None] + sizes)
        s = np.sum(w, axis=1)
        v = w / s[:, None]
        t_hat = np.zeros((r.size, k + 1, k + 1))
        t_hat[:, :k, :k] = (eye[:k, :k] - v[:, :, None]) * np.sqrt(v)[:, None, :]
        t_hat[:, :k, k] = v
        t_hat[:, k, k] = 1.0
        # Products stay per r (stacks of rows), so one r scores bit for bit
        # as it does inside a batch.
        stack = np.concatenate([np.sqrt(s)[:, None, None] * root @ t_hat,
                                np.broadcast_to(eye, t_hat.shape)], axis=1)
        pivots = np.abs(np.diagonal(np.linalg.qr(stack, mode="r"), axis1=1, axis2=2))
        return bracket(r) - 0.5 * a_star * (logdet_bw + 2.0 * np.sum(np.log(pivots), axis=1))

    return values


def log_evidence_noninformative(stats: SufficientStats, r: float) -> float:
    """Relative log evidence at the non-informative prior.

    Classes with no data contribute ``log r - log(r + 0) = 0`` and a
    zero sum column, so they do not move the value. An all-empty
    dataset scores exactly 0 for every r.

    Raises
    ------
    DomainError
        If r is not finite and positive.
    DegenerateScatter
        If the scale matrix B*(r) is not positive definite (for example
        when T < N).
    """
    r = float(r)
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be finite and positive, got {r}")
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

    The search runs on log r because useful r values span decades. Each
    scan scores ``_TUNE_GRID`` log-spaced points, endpoints included, in
    one batch: first over [r_min, r_max], then over the two cells around
    the last scan's best point, until those are at most ``tol`` wide in
    log r (finite and > 0) or stop shrinking. It returns the best point of
    all scans. The curve is near-log-concave in practice but not provably
    so; the first grid guards against a local peak, and the returned r
    never scores below any of its points.

    A probe whose scale matrix is degenerate loses every comparison.
    Degeneracy can come and go along r, so no single probe stands for
    the whole range. :class:`DegenerateScatter` is raised only if every
    probe was degenerate.
    """
    r_min, r_max = float(r_min), float(r_max)
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError(f"need 0 < r_min < r_max < inf, got [{r_min}, {r_max}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")

    values = _evidence_kernel(stats)
    lo, hi, width = r_min, r_max, math.inf
    best_r, best_value = r_min, -math.inf
    while True:
        grid = np.geomspace(lo, hi, _TUNE_GRID)
        scanned = values(grid)
        scanned[np.isnan(scanned)] = -np.inf
        best = int(np.argmax(scanned))
        if scanned[best] > best_value:
            best_r, best_value = float(grid[best]), float(scanned[best])
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        # Cells a few ulps wide stop shrinking, so no smaller tol is met.
        previous, width = width, math.log(hi / lo)
        if width <= tol or width >= previous:
            break
    if best_value == -math.inf:
        raise DegenerateScatter(
            f"evidence scale matrix is singular at every probed r in "
            f"[{r_min}, {r_max}] (T={stats.total}, N={stats.dim})"
        )
    return best_r


class EvidenceCurve(linalg._Frozen):
    """Pointwise evidence over a grid of r values.

    Degenerate grid points hold NaN and are excluded from the mode;
    ``mode`` is None when every point is degenerate.
    """

    def __init__(self, r_values: np.ndarray, log_evidence: np.ndarray, mode: float | None):
        linalg._freeze(self, r_values=np.asarray(r_values, dtype=np.float64),
                       log_evidence=np.asarray(log_evidence, dtype=np.float64), mode=mode)


def evidence_curve(stats: SufficientStats, r_grid) -> EvidenceCurve:
    """Evaluate the non-informative log evidence over a grid of r."""
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if r_grid.ndim != 1 or r_grid.size < 1:
        raise DomainError("grid must be a non-empty vector")
    if not (np.all((r_grid > 0.0) & (r_grid < np.inf)) and np.all(np.diff(r_grid) > 0.0)):
        raise DomainError("grid must be finite, positive and strictly increasing")
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
