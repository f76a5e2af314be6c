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
          = W + sum_k (r T_k / (r + T_k)) m_k m_k^T,

the posterior scale matrix at a = 0, B = 0. It comes from the same
conjugate update as the posterior, in the second, centred form, so no
raw moments cancel. The value drops additive terms that do not depend
on r. Because the prior is improper there, the value is meaningful only
as a relative score for choosing r, never as an absolute likelihood
comparable across datasets or models.
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
from .inference import PriorHyper, _posterior_general, posterior

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    if stats.total == 0:
        return 0.0
    counts = stats.counts.astype(np.float64)
    _, _, _, b_star = _posterior_general(stats, 0.0, np.full(stats.n_classes, r), 0.0, None)
    try:
        factor = linalg.cholesky(b_star)
    except NotPositiveDefinite as exc:
        raise DegenerateScatter(
            f"evidence scale matrix is singular at r={r} "
            f"(T={stats.total}, N={stats.dim})"
        ) from exc
    bracket = stats.n_classes * np.log(r) - np.sum(np.log(r + counts))
    return float(0.5 * stats.dim * bracket - 0.5 * stats.total * linalg.logdet(factor))


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
    if not prior.proper or prior.b is None:
        raise ImproperPrior(
            "proper evidence needs a > N - 1 and a positive definite B"
        )
    if prior.b.shape[0] != stats.dim:
        raise ImproperPrior(
            f"prior scale matrix is {prior.b.shape[0]}-dimensional, "
            f"data is {stats.dim}-dimensional"
        )
    n, k, t = stats.dim, stats.n_classes, stats.total
    post = posterior(stats, prior)
    try:
        factor_b = linalg.cholesky(prior.b)
        factor_bstar = linalg.cholesky(post.b_star)
    except NotPositiveDefinite as exc:
        raise DegenerateScatter("posterior scale matrix is singular") from exc
    logdet_half_b = linalg.logdet(factor_b) - n * np.log(2.0)
    logdet_half_bstar = linalg.logdet(factor_bstar) - n * np.log(2.0)
    counts = stats.counts.astype(np.float64)
    bracket = k * np.log(prior.r) - np.sum(np.log(prior.r + counts))
    return float(
        -0.5 * t * n * np.log(2.0 * np.pi)
        + linalg.log_multivariate_gamma(n, post.a_star / 2.0)
        - linalg.log_multivariate_gamma(n, prior.a / 2.0)
        + 0.5 * prior.a * logdet_half_b
        - 0.5 * post.a_star * logdet_half_bstar
        + 0.5 * n * bracket
    )


def tune_r(stats: SufficientStats, r_min: float, r_max: float,
           tol: float = 1e-6) -> float:
    """Maximize the non-informative log evidence over r by golden section.

    The search runs on log r because useful r values span decades. The
    curve is near-log-concave in practice but not provably so, which is
    why tests cross-check against a dense grid. The returned point never
    scores below either bracket endpoint.

    A probe whose scale matrix is degenerate loses every comparison.
    Degeneracy can come and go along r (the Cholesky pivot tolerance
    scales with B*'s largest diagonal entry, which grows with r), so no
    single probe stands for the whole range. :class:`DegenerateScatter`
    is raised only if every probe was degenerate.
    """
    r_min, r_max = float(r_min), float(r_max)
    if not 0.0 < r_min < r_max:
        raise DomainError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")

    probes = {}

    def objective(log_r: float) -> float:
        if log_r not in probes:
            try:
                probes[log_r] = log_evidence_noninformative(stats, math.exp(log_r))
            except DegenerateScatter:
                probes[log_r] = -math.inf
        return probes[log_r]

    lo, hi = math.log(r_min), math.log(r_max)
    objective(lo)
    objective(hi)
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
    best_log_r = max(probes, key=probes.get)
    if probes[best_log_r] == -math.inf:
        raise DegenerateScatter(
            f"evidence scale matrix is singular at every probed r in "
            f"[{r_min}, {r_max}] (T={stats.total}, N={stats.dim})"
        )
    return math.exp(best_log_r)


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
    values = np.empty(r_grid.shape)
    for i, r in enumerate(r_grid):
        try:
            values[i] = log_evidence_noninformative(stats, float(r))
        except DegenerateScatter:
            values[i] = np.nan
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
