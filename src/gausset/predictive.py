"""Predictive scoring: multivariate-T densities, class posteriors, decisions.

Integrating the Gaussian likelihood over the matrix-normal-Wishart
posterior gives each class a multivariate-T predictive density

    p(x | k) = T(x | mu*_k, (c*_k + 1) B*, a*)

whose log form, with beta = 1/(c*_k + 1), d = x - mu*_k and
q = d^T (B*)^{-1} d, is

    log Gamma((a*+1)/2) - log Gamma((a*+1-N)/2)
      - (N/2) log(pi (c*_k+1)) - (1/2) log det B*
      - ((a*+1)/2) log(1 + beta q).

Everything is computed in the log domain end to end; the exponent
(a*+1)/2 overflows linear-domain arithmetic already at modest training
set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AllZeroPrior,
    DegenerateScatter,
    DimensionMismatch,
    InsufficientDof,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .inference import PosteriorMNW
from .linalg import CholeskyFactor


@dataclass(frozen=True)
class PredictiveModel:
    """Frozen per-class scoring parameters.

    Holds the per-class location ``mu_star`` (N x K), the per-class
    scale inflation ``c_star`` (c*_k = 1/(r + T_k)) and the shrinkage
    ``r``, the shared degrees of freedom ``a_star``, the shared scale
    matrix ``b_star`` with its Cholesky factor L and log-determinant, and
    the per-class log normalization constants. For scoring it also holds
    the count-weighted training mean ``centre`` (N,) and the whitened
    centred means ``white_means`` (K x N), row k L^{-1}(mu*_k - centre).
    """

    class_names: tuple
    mu_star: np.ndarray
    c_star: np.ndarray
    a_star: float
    r: float
    b_star: np.ndarray
    chol_b_star: CholeskyFactor
    logdet_b_star: float
    log_norm: np.ndarray
    centre: np.ndarray
    white_means: np.ndarray

    def __post_init__(self):
        for name in ("mu_star", "c_star", "b_star", "log_norm", "centre",
                     "white_means"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def dim(self) -> int:
        return self.mu_star.shape[0]

    @property
    def n_classes(self) -> int:
        return self.mu_star.shape[1]


def _assemble_model(class_names, mu_star, c_star, a_star, b_star, r) -> PredictiveModel:
    """Shared constructor for freshly built and deserialized models.

    ``r`` is the shrinkage the posterior was built with; with it the
    fields alone give the training mean that scoring centres on.
    """
    mu_star = np.asarray(mu_star, dtype=np.float64)
    c_star = np.asarray(c_star, dtype=np.float64)
    b_star = np.asarray(b_star, dtype=np.float64)
    n = mu_star.shape[0]
    if np.any(c_star <= 0.0):
        raise ValueError("per-class c* values must be positive")
    # Degeneracy of B* is the more informative failure, so check it first;
    # with too little data both conditions tend to trip together.
    try:
        chol = linalg.cholesky(b_star)
    except NotPositiveDefinite as exc:
        raise DegenerateScatter(
            "posterior scale matrix B* is not positive definite; "
            "typically there are too few training patterns for the "
            "feature dimension under a non-informative prior"
        ) from exc
    if not a_star + 1.0 - n > 0.0:
        raise InsufficientDof(
            f"predictive needs a* + 1 - N > 0, got a*={a_star}, N={n}"
        )
    ld = linalg.logdet(chol)
    log_norm = (linalg.log_gamma((a_star + 1.0) / 2.0)
                - linalg.log_gamma((a_star + 1.0 - n) / 2.0)
                - 0.5 * n * np.log(np.pi * (c_star + 1.0))
                - 0.5 * ld)
    if class_names is None:
        class_names = tuple(f"class_{k}" for k in range(mu_star.shape[1]))
    if len(class_names) != mu_star.shape[1]:
        raise ShapeMismatch("number of class names does not match K")
    # mu*_k / c*_k is the class sum f_k and 1/c*_k - r the count T_k, so
    # this is the count-weighted training mean. Their total T is a whole
    # number, below 1/2 only when there are no patterns.
    total = float(np.sum(1.0 / c_star - r))
    centre = mu_star @ (1.0 / c_star) / total if total >= 0.5 else np.zeros(n)
    white_means = (mu_star.T - centre) @ chol.inverse.T
    return PredictiveModel(tuple(class_names), mu_star, c_star, float(a_star),
                           float(r), b_star, chol, ld, log_norm, centre, white_means)


def build_model(post: PosteriorMNW, class_names=None) -> PredictiveModel:
    """Turn a posterior into a scorer.

    Raises
    ------
    InsufficientDof
        If ``a* + 1 - N <= 0`` (the normalizing gamma argument would be
        non-positive).
    DegenerateScatter
        If B* fails the Cholesky positive-definiteness check.
    """
    c_star = 1.0 / post.r_star_diag
    return _assemble_model(class_names, post.m_star, c_star, post.a_star,
                           post.b_star, post.source_r)


# Rows per kernel block keep each (rows x K, N) difference block near
# this many entries, so scoring memory stays flat for any batch size.
_BLOCK_ENTRIES = 65536


def _log_tails(model: PredictiveModel, patterns: np.ndarray) -> np.ndarray:
    """The (T, K) term -((a*+1)/2) log1p(q_tk / (c*_k + 1)) for T rows.

    The one place the predictive formula is evaluated; every scorer adds
    its class constants to this. With L the factor of B*, L^{-1}(x - mu*_k)
    = L^{-1}(x - centre) - L^{-1}(mu*_k - centre): each row is whitened
    once, and q_tk is its squared distance to row k of ``white_means``.
    """
    if not np.isfinite(patterns).all():
        raise ValueError("patterns must not contain infs or NaNs")
    dim, n_classes = model.dim, model.n_classes
    cp1 = model.c_star + 1.0
    inverse_t = model.chol_b_star.inverse.T
    log1p_terms = np.empty((patterns.shape[0], n_classes))
    step = max(1, _BLOCK_ENTRIES // (n_classes * dim))
    for start in range(0, patterns.shape[0], step):
        # A stack of (1, N) @ (N, N) products, so one row scores bit for
        # bit as it does inside a batch.
        white = (patterns[start:start + step] - model.centre)[:, None, :] @ inverse_t
        diffs = white - model.white_means
        log1p_terms[start:start + step] = np.log1p(np.sum(diffs * diffs, axis=-1) / cp1)
    return -0.5 * (model.a_star + 1.0) * log1p_terms


def _log_unnormalized(model: PredictiveModel, patterns: np.ndarray) -> np.ndarray:
    return -0.5 * model.dim * np.log(model.c_star + 1.0) + _log_tails(model, patterns)


def _one_row(model: PredictiveModel, x, k=None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise DimensionMismatch(
            f"pattern has shape {x.shape}, model dimension is {model.dim}"
        )
    if k is not None and not 0 <= k < model.n_classes:
        raise IndexError(f"class index {k} out of range for K={model.n_classes}")
    return x[None, :]


def log_predictive(model: PredictiveModel, x, k: int) -> float:
    """Normalized log predictive density of pattern x under class k."""
    return float(model.log_norm[k] + _log_tails(model, _one_row(model, x, k))[0, k])


def log_predictive_unnormalized(model: PredictiveModel, x, k: int) -> float:
    """Log predictive up to an additive constant shared by all classes.

    Only the class-dependent factors are kept:

        -(N/2) log(c*_k + 1) - ((a*+1)/2) log(1 + q / (c*_k + 1))

    For class posteriors this is all that matters, and it stays finite
    even when the shared normalizer is expensive or irrelevant.
    """
    return float(_log_unnormalized(model, _one_row(model, x, k))[0, k])


def _checked_probs(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if (probs < 0.0).any() or not np.isfinite(probs).all():
        raise ValueError("class prior entries must be finite and non-negative")
    return probs


@dataclass(frozen=True)
class ClassPrior:
    """Prior probabilities over the K classes; must sum to one."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ShapeMismatch("class prior must be a vector")
        _checked_probs(probs)
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"class prior sums to {probs.sum()!r}, expected 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_classes: int) -> "ClassPrior":
        return cls(np.full(n_classes, 1.0 / n_classes))


def _prior_probs(prior, n_classes: int) -> np.ndarray:
    probs = prior.probs if isinstance(prior, ClassPrior) else _checked_probs(prior)
    if probs.shape != (n_classes,):
        raise ShapeMismatch(
            f"class prior has length {probs.shape}, model has K={n_classes}"
        )
    total = float(probs.sum())
    if total == 0.0:
        raise AllZeroPrior("every class prior probability is zero")
    return probs / total


def posterior_from_scores(log_scores, prior) -> np.ndarray:
    """Softmax of log score + log prior along the last axis.

    Takes one (K,) score vector or a (T, K) block. Zero-prior classes get
    exactly zero posterior; each row sums to one and is invariant under
    adding any constant to its scores, however large.
    """
    log_scores = np.asarray(log_scores, dtype=np.float64)
    probs = _prior_probs(prior, log_scores.shape[-1])
    active = probs > 0.0
    combined = np.where(active, log_scores + np.log(np.where(active, probs, 1.0)), -np.inf)
    shifted = np.exp(combined - combined.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def class_posterior(model: PredictiveModel, x, prior) -> np.ndarray:
    """Posterior probability of each class for one pattern."""
    return posterior_from_scores(_log_unnormalized(model, _one_row(model, x)), prior)[0]


def zero_one_costs(n_classes: int) -> np.ndarray:
    """Cost matrix under which the best action is the most likely class."""
    return 1.0 - np.eye(n_classes)


def decide(posterior_probs, costs):
    """Minimum-expected-cost action index; ties go to the lowest index.

    ``costs[k, action]`` is the cost of taking ``action`` when the true
    class is k. A (K,) posterior gives an ``int``, a (T, K) block T actions.
    """
    posterior_probs = np.asarray(posterior_probs, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != posterior_probs.shape[-1]:
        raise ShapeMismatch(
            f"cost matrix shape {costs.shape} does not match K={posterior_probs.shape[-1]}"
        )
    if not np.isfinite(costs).all():
        raise ValueError("cost matrix entries must be finite")
    actions = np.argmin(posterior_probs @ costs, axis=-1)
    return int(actions) if actions.ndim == 0 else actions


def score_batch(model: PredictiveModel, patterns, prior, costs=None):
    """Score a batch of patterns.

    Returns ``(log_unnorm, posteriors, actions)`` with one row per
    pattern, in input order. ``costs`` defaults to zero-one costs, so
    actions are the most probable classes.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    if patterns.shape[1] != model.dim:
        raise DimensionMismatch(
            f"patterns have {patterns.shape[1]} features, model dimension is {model.dim}"
        )
    if costs is None:
        costs = zero_one_costs(model.n_classes)
    log_unnorm = _log_unnormalized(model, patterns)
    posteriors = posterior_from_scores(log_unnorm, prior)
    return log_unnorm, posteriors, decide(posteriors, costs)
