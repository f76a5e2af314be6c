"""Dense symmetric-positive-definite kernels and the multivariate log-gamma.

Everything downstream (posterior updates, predictive scoring, evidence,
Monte-Carlo sampling) reduces to Cholesky factorizations, products with
the factor's inverse, log-determinants and log-gamma sums, so those live
here in one place, on numpy alone. Matrices are plain dense ``float64``
arrays kept exactly symmetric by :func:`symmetrize`; factors are
immutable :class:`CholeskyFactor` values. Solves are products with
:attr:`CholeskyFactor.inverse`, except :func:`quadform`'s substitution.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

# Pivots are rejected relative to the largest diagonal entry, so that
# uniformly tiny but well-conditioned matrices still factor.
PIVOT_RTOL = 1e-12


class _Frozen:
    """Base of the immutable value types: each sets its attributes once,
    through :func:`_freeze`, and none can be set or deleted after."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


def _freeze(obj, **fields) -> None:
    """Set ``fields`` on ``obj``, an instance of a :class:`_Frozen` type.

    A writable array is stored as a read-only view of itself, so the
    caller's array stays writable; a read-only array is stored as it is.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value = value.view()
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


class CholeskyFactor(_Frozen):
    """Lower-triangular factor L of an SPD matrix A, with L L^T = A.

    ``lower`` must be a non-empty square matrix (else
    :class:`DimensionMismatch`), finite, zero above the diagonal and
    positive on it (else :class:`NotPositiveDefinite`).
    """

    def __init__(self, lower: np.ndarray):
        lower = np.asarray(lower, dtype=np.float64)
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1] or lower.shape[0] < 1:
            raise DimensionMismatch(f"expected a non-empty square factor, got shape {lower.shape}")
        diagonal = lower.diagonal()
        if np.triu(lower, 1).any() or not (np.isfinite(lower).all() and np.all(diagonal > 0)):
            raise NotPositiveDefinite(
                "factor must be finite and lower-triangular with a positive diagonal")
        _freeze(self, lower=lower)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        """L^{-1}, exactly lower-triangular and read-only, formed on first use.

        Products with it and its transpose stand in for triangular
        solves, which numpy lacks. LU pivoting inside the solve can leave
        rounding noise above the diagonal, so that is cut off.
        """
        inverse = np.tril(_solve(self.lower, np.eye(self.dim)))
        inverse.flags.writeable = False
        return inverse


def _solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` for a triangular factor with a positive diagonal.

    Its LU can still round a pivot to zero (tiny diagonal entries beside
    large ones below them), which is reported as :class:`NotPositiveDefinite`.
    """
    try:
        return np.linalg.solve(lower, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"factor is numerically singular: {exc}") from exc


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2 over the last two axes, a new exactly symmetric array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric matrix. Callers are expected to have symmetrized it
        (see :func:`symmetrize`); asymmetric input is rejected.

    Returns
    -------
    CholeskyFactor

    Raises
    ------
    NotPositiveDefinite
        If any pivot is <= ``PIVOT_RTOL`` times the largest diagonal
        entry of ``a``, if LAPACK rejects it, or if an entry is not
        finite. This is the single signal for degenerate scatter
        matrices and invalid scale parameters everywhere in the package.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("matrix has a non-finite entry")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric; apply symmetrize() first")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"LAPACK factorization failed: {exc}") from exc
    tol = PIVOT_RTOL * max(float(a.diagonal().max()), 0.0)
    pivots = lower.diagonal() ** 2
    j = int(np.argmin(pivots))
    if not pivots[j] > tol:
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at index {j} is <= tolerance {tol:.3e}"
        )
    # The checks above imply CholeskyFactor's own, which are not run again.
    _freeze(factor := object.__new__(CholeskyFactor), lower=lower)
    return factor


def logdet(factor: CholeskyFactor) -> float:
    """log det A for the matrix A = L L^T behind ``factor``."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.lower))))


def quadform(factor: CholeskyFactor, d) -> float:
    """Quadratic form d^T A^{-1} d for an (N,) vector, computed as
    ||L^{-1} d||^2 (>= 0) by forward substitution 32 rows at a time
    (an LU solve with all of L costs as much as factoring).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (factor.dim,):
        raise DimensionMismatch(
            f"vector has shape {d.shape}, factor dimension is {factor.dim}"
        )
    if not np.isfinite(d).all():
        raise ValueError("array must not contain infs or NaNs")
    lower, y = factor.lower, np.empty_like(d)
    for i in range(0, factor.dim, 32):
        y[i:i + 32] = _solve(lower[i:i + 32, i:i + 32],
                             d[i:i + 32] - lower[i:i + 32, :i] @ y[:i])
    return float(y @ y)


def log_multivariate_gamma(n: int, x: float) -> float:
    """Log of the n-variate gamma function at x.

    Computed as ``n(n-1)/4 * log(pi) + sum_i log Gamma(x + (1-i)/2)``
    for ``i = 1..n``. Requires every gamma argument to be positive,
    i.e. ``x + (1-n)/2 > 0``.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    n = int(n)
    x = float(x)
    if not x + (1 - n) / 2.0 > 0.0:
        raise DomainError(
            f"log_multivariate_gamma requires x > (n-1)/2, got x={x}, n={n}"
        )
    total = n * (n - 1) / 4.0 * np.log(np.pi)
    for i in range(1, n + 1):
        total += math.lgamma(x + (1 - i) / 2.0)
    return float(total)
