"""Conjugate inference for the shared-covariance Gaussian class model.

The generative model is ``x | k ~ Normal(mu_k, Lambda^{-1})`` with one
within-class precision ``Lambda`` shared by all K classes. The prior
couples the mean matrix ``M = [mu_1 .. mu_K]`` and ``Lambda``: given
``Lambda``, each ``mu_k`` is ``Normal(0, (1/r) Lambda^{-1})`` (a matrix
normal with diagonal column precision ``r I`` and zero location), and
``Lambda`` is Wishart with degrees of freedom ``a`` and scale matrix
``B`` (density proportional to ``|Lambda|^{(a-N-1)/2} exp(-tr(B
Lambda)/2)``, mean ``a B^{-1}``).

That prior is conjugate: the posterior has the same matrix-normal-Wishart
form. With per-class counts T_k, sums f_k (the columns of F), means
m_k = f_k / T_k, raw second moment S and within-class scatter W,

    R*      = r I + diag(T_1 .. T_K)
    M*      = F (R*)^{-1}              (column k: f_k / (r + T_k))
    a*      = a + T
    B*      = B + S - F (R*)^{-1} F^T
            = B + W + sum_k (r T_k / (r + T_k)) m_k m_k^T

The code uses the second, centred form of B*: a sum of positive
semi-definite terms, so a large common offset in the data cannot cancel
the within-class spread away. The non-informative limit is the literal
input ``a = 0, B = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .dataset import SufficientStats
from .errors import DomainError, ShapeMismatch


class PriorHyper(linalg._Frozen):
    """Prior hyperparameters (r, a, B).

    ``r`` is the shrinkage precision pulling class means toward the
    origin; larger r shrinks harder and is what makes classes with no
    training data scorable. ``b=None`` stands for the zero matrix.
    Only a proper prior (``a > N - 1`` and B positive definite) has a
    finite evidence constant; ``log_evidence_proper`` checks that.
    """

    def __init__(self, r: float, a: float = 0.0, b: np.ndarray | None = None):
        r, a = float(r), float(a)
        if not 0.0 < r < math.inf:
            raise DomainError(f"shrinkage precision r must be finite and positive, got {r}")
        if not 0.0 <= a < math.inf:
            raise DomainError(f"degrees of freedom a must be finite and non-negative, got {a}")
        if b is not None:
            b = linalg.symmetrize(b)
            if not np.isfinite(b).all():
                raise DomainError("prior scale matrix B holds a non-finite value")
        linalg._freeze(self, r=r, a=a, b=b)

    @classmethod
    def noninformative(cls, r: float) -> "PriorHyper":
        """The a = 0, B = 0 prior; only r remains to be chosen."""
        return cls(r=r, a=0.0, b=None)


class PosteriorMNW(linalg._Frozen):
    """Matrix-normal-Wishart posterior parameters.

    ``m_star`` is N x K (column k is the posterior mean of mu_k),
    ``r_star_diag`` holds the K diagonal entries r + T_k, ``a_star``
    is a + T, and ``b_star`` is the posterior scale matrix. ``source_r``
    keeps the r that produced this posterior so empty classes can be
    appended later.

    B* positive definiteness is deliberately not checked here; the
    object is a valid container even when there is too little data to
    score, and consumers check at model build time.
    """

    def __init__(self, m_star: np.ndarray, r_star_diag: np.ndarray, a_star: float,
                 b_star: np.ndarray, source_r: float):
        m = np.asarray(m_star, dtype=np.float64)
        rd = np.asarray(r_star_diag, dtype=np.float64)
        b = np.asarray(b_star, dtype=np.float64)
        if m.ndim != 2 or rd.ndim != 1 or m.shape[1] != rd.shape[0]:
            raise ShapeMismatch("mean matrix and diagonal precision disagree in K")
        if b.shape != (m.shape[0], m.shape[0]):
            raise ShapeMismatch("scale matrix shape does not match dimension")
        if np.any(rd <= 0.0):
            raise ValueError("posterior column precisions must be positive")
        linalg._freeze(self, m_star=m, r_star_diag=rd, b_star=b,
                       a_star=float(a_star), source_r=float(source_r))

    @property
    def dim(self) -> int:
        return self.m_star.shape[0]

    @property
    def n_classes(self) -> int:
        return self.m_star.shape[1]


def _scale_matrix(stats: SufficientStats, dev, w, b) -> np.ndarray:
    """Symmetrized B + W + sum_k w_k dev_k dev_k^T, ``b=None`` standing for B = 0.

    B* has dev = M - theta; the evidence's C(r) has dev = M - mbar 1^T.
    """
    if b is not None and np.shape(b) != (stats.dim, stats.dim):
        raise ShapeMismatch(
            f"prior scale matrix has shape {np.shape(b)}, data dimension is {stats.dim}")
    scatter = stats.within if b is None else np.asarray(b, dtype=np.float64) + stats.within
    return linalg.symmetrize(scatter + (dev * w) @ dev.T)


def _posterior_general(stats: SufficientStats, theta, r_diag, a: float, b):
    """Conjugate update for a located prior.

    Mean column k has prior Normal(theta_k, Lambda^{-1} / r_k), so a
    posterior can be re-used as the prior for more data. ``theta`` is
    (N, K) or a scalar; ``posterior`` passes 0. With dev_k = m_k - theta_k:

        R*  = r_diag + T_k
        M*  = (r_k theta_k + T_k m_k) / R*_k
        a*  = a + T
        B*  = B + W + sum_k (r_k T_k / R*_k) dev_k dev_k^T   (:func:`_scale_matrix`)
    """
    counts = stats.counts.astype(np.float64)
    r_diag = np.asarray(r_diag, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if r_diag.shape != (stats.n_classes,):
        raise ShapeMismatch("per-class precision vector does not match K")
    if theta.shape not in ((), stats.means.shape):
        raise ShapeMismatch("prior location shape does not match (N, K)")
    r_star = r_diag + counts
    m_star = (r_diag * theta + counts * stats.means) / r_star
    b_star = _scale_matrix(stats, stats.means - theta, r_diag * counts / r_star, b)
    return m_star, r_star, a + stats.total, b_star


def posterior(stats: SufficientStats, prior: PriorHyper) -> PosteriorMNW:
    """Closed-form posterior from sufficient statistics and a prior."""
    m_star, r_star, a_star, b_star = _posterior_general(
        stats, 0.0, np.full(stats.n_classes, prior.r), prior.a, prior.b
    )
    return PosteriorMNW(m_star, r_star, a_star, b_star, source_r=prior.r)


def add_empty_class(post: PosteriorMNW) -> PosteriorMNW:
    """Append a class with no training data.

    The new column has zero mean and precision equal to the source r;
    ``a_star`` and ``b_star`` are untouched (the same array is shared,
    which is safe because posteriors are immutable).
    """
    m_star = np.hstack([post.m_star, np.zeros((post.dim, 1))])
    r_star_diag = np.append(post.r_star_diag, post.source_r)
    return PosteriorMNW(m_star, r_star_diag, post.a_star, post.b_star,
                        source_r=post.source_r)


def column_marginal(post: PosteriorMNW, k: int):
    """Posterior marginal of mean column k: returns (mu_star_k, c_star_k).

    ``c_star_k = 1/(r + T_k)`` is the k-th diagonal entry of (R*)^{-1};
    given Lambda, mu_k is Normal(mu_star_k, c_star_k Lambda^{-1}).
    """
    if not 0 <= k < post.n_classes:
        raise IndexError(f"class index {k} out of range for K={post.n_classes}")
    return post.m_star[:, k].copy(), float(1.0 / post.r_star_diag[k])
