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

import math
import sys

import numpy as np

from . import linalg
from .dataset import _BLOCK_ENTRIES
from .errors import (
    AllZeroPrior,
    DegenerateScatter,
    DimensionMismatch,
    DomainError,
    InsufficientDof,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .inference import PosteriorMNW


class PredictiveModel(linalg._Frozen):
    """Immutable per-class scoring parameters.

    Built from the six values a model file stores: the class names (each
    made a ``str``; ``None`` gives ``class_0`` ...), the per-class location
    ``mu_star`` (N x K), the per-class scale inflation ``c_star`` (c*_k =
    1/(r + T_k)), the shared degrees of freedom ``a_star``, the shrinkage
    ``r`` and the shared scale matrix ``b_star``. Everything else is derived
    from those once per model, so no model can disagree with itself: the
    Cholesky factor L of B* and its log-determinant, the per-class log
    normalization constants, the count-weighted training mean ``centre``
    (N,), the whitened centred means ``white_means`` (K x N), row k
    L^{-1}(mu*_k - centre), and for the kernel ``cp1`` (c* + 1),
    ``class_term`` (-(N/2) log(c* + 1)), ``inverse_t`` ((L^{-1})^T),
    ``block_rows``, the rows per kernel block, whose (rows x K, N)
    difference block holds about ``_BLOCK_ENTRIES`` entries, and ``reach``:
    no q_tk overflows while every entry of x - centre is within it.

    Checked in this order: ``ShapeMismatch`` if ``mu_star`` is not a
    non-empty N x K matrix, there are not K class names, ``c_star`` is not
    (K,) or ``b_star`` not N x N; ``DomainError`` naming the field if two
    class names are the same ``str``, if r, a*, mu*, c* or B* holds a
    non-finite value, if a c* is not positive or if B* is not exactly
    symmetric; ``DegenerateScatter`` if B* fails the Cholesky check;
    ``InsufficientDof`` if a* + 1 - N <= 0 (the normalizing gamma argument
    would be non-positive).
    """

    def __init__(self, class_names: tuple | None, mu_star: np.ndarray, c_star: np.ndarray,
                 a_star: float, r: float, b_star: np.ndarray):
        # The layout a loaded model has (the file stores columns), so that BLAS
        # sums in one order and a reload scores bit for bit.
        mu_star = np.asfortranarray(mu_star, dtype=np.float64)
        c_star = np.asarray(c_star, dtype=np.float64)
        b_star = np.asarray(b_star, dtype=np.float64)
        a_star, r = float(a_star), float(r)
        if mu_star.ndim != 2 or mu_star.size == 0:
            raise ShapeMismatch(f"mu_star has shape {mu_star.shape}, not N x K with N, K >= 1")
        n, n_classes = mu_star.shape
        class_names = (tuple(f"class_{k}" for k in range(n_classes)) if class_names is None
                       else tuple(map(str, class_names)))
        if len(class_names) != n_classes:
            raise ShapeMismatch("number of class names does not match K")
        if len(set(class_names)) != n_classes:
            raise DomainError("model field class_names repeats a name")
        for name, value, shape in (("c_star", c_star, (n_classes,)), ("b_star", b_star, (n, n))):
            if value.shape != shape:
                raise ShapeMismatch(f"{name} has shape {value.shape}, mu_star needs {shape}")
        for name, value in (("r", r), ("a_star", a_star), ("mu_star", mu_star),
                            ("c_star", c_star), ("b_star", b_star)):
            if not np.all(np.isfinite(value)):
                raise DomainError(f"model field {name} holds a non-finite value")
        if np.any(c_star <= 0.0):
            raise DomainError("per-class c* values must be positive")
        if not (b_star == b_star.T).all():
            raise DomainError("model field b_star is not symmetric")
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
        cp1 = c_star + 1.0
        log_norm = (math.lgamma((a_star + 1.0) / 2.0)
                    - math.lgamma((a_star + 1.0 - n) / 2.0)
                    - 0.5 * n * np.log(np.pi * cp1)
                    - 0.5 * ld)
        # mu*_k / c*_k is the class sum f_k and 1/c*_k - r the count T_k, so
        # this is the count-weighted training mean. Their total T is a whole
        # number, below 1/2 only when there are no patterns.
        total = float(np.sum(1.0 / c_star - r))
        centre = mu_star @ (1.0 / c_star) / total if total >= 0.5 else np.zeros(n)
        inverse_t = chol.inverse.T
        white_means = (mu_star.T - centre) @ inverse_t
        # |c_j| <= reach bounds q_tk by N (reach max_i sum_j |L^-1_ij| + max|w|)^2 <= max/4.
        reach = ((np.sqrt(sys.float_info.max / (4.0 * n)) - np.abs(white_means).max())
                 / np.add.reduce(np.abs(inverse_t), axis=0).max())
        linalg._freeze(
            self, class_names=class_names, mu_star=mu_star, c_star=c_star,
            a_star=a_star, r=r, b_star=b_star, chol_b_star=chol, logdet_b_star=ld,
            log_norm=log_norm, centre=centre, white_means=white_means,
            cp1=cp1, class_term=-0.5 * n * np.log(cp1), inverse_t=inverse_t,
            block_rows=max(1, _BLOCK_ENTRIES // mu_star.size), reach=float(reach))

    @property
    def dim(self) -> int:
        return self.mu_star.shape[0]

    @property
    def n_classes(self) -> int:
        return self.mu_star.shape[1]


def build_model(post: PosteriorMNW, class_names=None) -> PredictiveModel:
    """Turn a posterior into a scorer.

    Raises what :class:`PredictiveModel` raises; the posterior guarantees
    positive c* values.
    """
    return PredictiveModel(class_names, post.m_star, 1.0 / post.r_star_diag,
                           post.a_star, post.source_r, post.b_star)


def _check_finite(patterns: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(patterns), axis=None):
        raise ValueError("patterns must not contain infs or NaNs")


def _block_tails(model: PredictiveModel, centred: np.ndarray) -> np.ndarray:
    # A stack of (1, N) @ (N, N) products, so one row scores bit for bit
    # as it does inside a batch.
    diffs = centred @ model.inverse_t - model.white_means
    return -0.5 * (model.a_star + 1.0) * np.log1p(np.add.reduce(diffs * diffs, -1) / model.cp1)


def _block(model: PredictiveModel, rows: np.ndarray, first: int) -> np.ndarray:
    """The tails of a block of rows from row ``first``. A block with an entry
    farther than ``model.reach`` from the centre is checked for infs and NaNs
    and redone with overflow allowed: a class too far away scores -inf, and
    a row too far from every class is a ``DomainError``."""
    centred = rows[:, None, :] - model.centre
    if np.maximum.reduce(np.abs(centred), axis=None, initial=0.0) <= model.reach:
        return _block_tails(model, centred)
    _check_finite(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        tails = _block_tails(model, centred)
    lost = np.flatnonzero(~np.logical_or.reduce(tails > -np.inf, axis=-1))
    if lost.size:
        raise DomainError(f"pattern {first + lost[0]} is too far from every class to score: "
                          f"its whitened squared distance overflows")
    return tails


def _log_tails(model: PredictiveModel, patterns: np.ndarray) -> np.ndarray:
    """The (T, K) term -((a*+1)/2) log1p(q_tk / (c*_k + 1)) for T rows.

    The one place the predictive formula is evaluated; every scorer adds
    its class constants to this. With L the factor of B*, L^{-1}(x - mu*_k)
    = L^{-1}(x - centre) - L^{-1}(mu*_k - centre): each row is whitened
    once, and q_tk is its squared distance to row k of ``white_means``.
    Rows that fit in one block are that block's tails.
    """
    step = model.block_rows
    if patterns.shape[0] <= step:
        return _block(model, patterns, 0)
    return np.concatenate([_block(model, patterns[start:start + step], start)
                           for start in range(0, patterns.shape[0], step)])


def _log_unnormalized(model: PredictiveModel, patterns: np.ndarray) -> np.ndarray:
    return model.class_term + _log_tails(model, patterns)


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
    row = _one_row(model, x, k)
    return float(model.log_norm[k] + _log_tails(model, row)[0, k])


def log_predictive_unnormalized(model: PredictiveModel, x, k: int) -> float:
    """Log predictive up to an additive constant shared by all classes.

    Only the class-dependent factors are kept:

        -(N/2) log(c*_k + 1) - ((a*+1)/2) log(1 + q / (c*_k + 1))

    For class posteriors this is all that matters, and it stays finite
    even when the shared normalizer is expensive or irrelevant.
    """
    return float(_log_unnormalized(model, _one_row(model, x, k))[0, k])


class ClassPrior(linalg._Frozen):
    """Prior probabilities over the K classes; must sum to one.

    Holds what the softmax adds, computed once and read-only: ``_active``,
    the mask of non-zero entries (``None`` if none is zero), and
    ``_log_probs``, log(probs / probs.sum()).
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ShapeMismatch("class prior must be a vector")
        active, log_probs = _log_prior(probs, len(probs))
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"class prior sums to {total}, expected 1")
        linalg._freeze(self, probs=probs, _active=active, _log_probs=log_probs)

    @classmethod
    def uniform(cls, n_classes: int) -> "ClassPrior":
        return cls(np.full(n_classes, 1.0 / n_classes))


def _log_prior(prior, n_classes: int):
    """``prior``'s non-zero mask (or ``None``) and its normalized logs over
    ``n_classes``: a :class:`ClassPrior`'s own, else checked and computed."""
    if isinstance(prior, ClassPrior):
        if prior.probs.shape == (n_classes,):
            return prior._active, prior._log_probs
        prior = prior.probs
    probs = np.asarray(prior, dtype=np.float64)
    if (probs < 0.0).any() or not np.isfinite(probs).all():
        raise ValueError("class prior entries must be finite and non-negative")
    if probs.shape != (n_classes,):
        raise ShapeMismatch(
            f"class prior has length {probs.shape}, model has K={n_classes}"
        )
    total = float(probs.sum())
    if total == 0.0:
        raise AllZeroPrior("every class prior probability is zero")
    active = probs > 0.0
    return (None if active.all() else active), np.log(np.where(active, probs / total, 1.0))


def posterior_from_scores(log_scores, prior) -> np.ndarray:
    """Softmax of log score + log prior along the last axis.

    Takes one (K,) score vector or a (T, K) block. Zero-prior classes get
    exactly zero posterior; each row sums to one and is invariant under
    adding any constant to its scores, however large. A row whose scores
    over the classes of non-zero prior are all -inf, or include +inf or
    NaN, is a ``DomainError`` naming the row.
    """
    return _posterior(np.asarray(log_scores, dtype=np.float64), prior, every_row=True)


def _posterior(log_scores, prior, every_row=False):
    """:func:`posterior_from_scores`, checking the rows only under a zero
    mask unless ``every_row``. The scorer's rows are finite or -inf, never
    all -inf, so only the mask can leave one without a finite score."""
    active, log_probs = _log_prior(prior, log_scores.shape[-1])
    # Masking first keeps a zero-prior class's NaN or inf score out.
    if active is not None:
        log_scores = np.where(active, log_scores, -np.inf)
    combined = log_scores + log_probs  # a new array: the rest is in place
    top = np.maximum.reduce(combined, axis=-1, keepdims=True)   # NaN if any is
    if every_row or active is not None:
        lost = np.flatnonzero(~np.isfinite(top))
        if lost.size:
            worst = top.flat[lost[0]]
            found = "no finite score" if worst == -np.inf else f"a score of {worst}"
            raise DomainError(f"row {lost[0]} has {found} for a class of "
                              f"non-zero prior probability")
    combined -= top
    np.exp(combined, out=combined)
    combined /= np.add.reduce(combined, axis=-1, keepdims=True)
    return combined


def class_posterior(model: PredictiveModel, x, prior) -> np.ndarray:
    """Posterior probability of each class for one pattern."""
    return _posterior(_log_unnormalized(model, _one_row(model, x)), prior)[0]


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
    if not np.logical_and.reduce(np.isfinite(costs), axis=None):
        raise ValueError("cost matrix entries must be finite")
    if not np.logical_and.reduce(np.isfinite(posterior_probs), axis=None):
        raise ValueError("posterior probabilities must be finite")
    actions = (posterior_probs @ costs).argmin(-1)
    return int(actions) if actions.ndim == 0 else actions


def score_batch(model: PredictiveModel, patterns, prior):
    """Score a batch of patterns.

    Returns ``(log_unnorm, posteriors, actions)`` with one row per
    pattern, in input order. The actions are the zero-one decisions, the
    most probable classes, ties to the lowest index; for other costs,
    pass the posteriors to :func:`decide`.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    if patterns.shape[1] != model.dim:
        raise DimensionMismatch(
            f"patterns have {patterns.shape[1]} features, model dimension is {model.dim}"
        )
    log_unnorm = _log_unnormalized(model, patterns)
    posteriors = _posterior(log_unnorm, prior)
    return log_unnorm, posteriors, posteriors.argmax(-1)
