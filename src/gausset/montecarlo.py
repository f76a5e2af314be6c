"""Monte-Carlo oracles: posterior sampling and brute-force predictive checks.

These are not test-only helpers; they ship with the library and back the
``verify`` command, so anyone can reproduce the agreement between the
closed-form predictive density and the integral it claims to equal.

Sampling conventions
--------------------
The Wishart here is parametrized by degrees of freedom ``a`` and scale
matrix ``B`` with density proportional to ``|Lambda|^{(a-N-1)/2}
exp(-tr(B Lambda)/2)`` and mean ``a B^{-1}``. Textbooks often use the
inverse scale instead; the mean check in the verification suite pins
the convention down before any oracle result is trusted.

Every sampler draws from the ``numpy.random.Generator`` it is given.
:func:`seeded_generator` builds the one that ``verify`` and ``gen-synth``
use, PCG64 on the user's seed. Its bit stream is a pure function of the
seed, so estimates are reproducible bit for bit on a platform and across
platforms for a given numpy version.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import linalg
from .dataset import LabeledDataset, SufficientStats, accumulate, merge
from .errors import DomainError, NotPositiveDefinite, ShapeMismatch
from .evidence import log_evidence_proper
from .inference import PriorHyper, posterior
from .linalg import CholeskyFactor
from .predictive import (PredictiveModel, _check_finite, _one_row, build_model,
                         log_predictive)


def seeded_generator(seed) -> np.random.Generator:
    """PCG64 generator for a user seed. Same seed, same sample stream."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _check_samples(n_samples) -> None:
    if (not isinstance(n_samples, numbers.Integral) or isinstance(n_samples, bool)
            or n_samples < 1):
        raise DomainError(f"need a whole number of samples, at least one, "
                          f"got n_samples={n_samples!r}")


def _bartlett_column(rng: np.random.Generator, a: float, i: int, n: int) -> np.ndarray:
    """Entry i of n Bartlett diagonals, sqrt(chi-square(a - i)), as (n,). A
    draw below the smallest normal float (one that underflowed) is raised to it."""
    column = rng.chisquare(a - i, size=n)
    return np.sqrt(np.maximum(column, np.finfo(np.float64).tiny, out=column), out=column)


def _bartlett_diagonal(rng: np.random.Generator, a: float, dim: int, n: int) -> np.ndarray:
    """Diagonals of n Bartlett factors A, A A^T ~ Wishart(a, I), as (n, N).

    Drawn column by column with :func:`_bartlett_column`. The entries
    below the diagonal are independent standard normals, independent of
    it, so each caller draws only what it reads of them.
    """
    diag = np.empty((n, dim))
    for i in range(dim):
        diag[:, i] = _bartlett_column(rng, a, i, n)
    return diag


def sample_wishart(rng: np.random.Generator, a: float, b, size=None) -> np.ndarray:
    """Draws from Wishart(a, B), mean a B^{-1}, of shape ``size + (N, N)``.

    ``size=None`` gives one (N, N) draw. Lambda = G G^T with G = U^{-T} A
    for B = U U^T and A a Bartlett factor, so only the triangular inverse
    U^{-1} is formed, never B^{-1}.
    """
    b = linalg.symmetrize(b)
    if not len(b) - 1 < float(a) < np.inf:
        raise DomainError(f"Wishart needs a finite a > N - 1, got a={a}, N={len(b)}")
    try:
        chol_b = linalg.cholesky(b)
    except NotPositiveDefinite as exc:
        raise DomainError("Wishart scale matrix is not positive definite") from exc
    dim = chol_b.dim
    batch = () if size is None else tuple(int(s) for s in np.atleast_1d(size))
    n = int(np.prod(batch))
    bart = np.zeros((n, dim, dim))
    bart[:, np.arange(dim), np.arange(dim)] = _bartlett_diagonal(rng, float(a), dim, n)
    bart[(slice(None),) + np.tril_indices(dim, k=-1)] = rng.standard_normal(
        (n, dim * (dim - 1) // 2))
    g = chol_b.inverse.T @ bart
    draws = linalg.symmetrize(g @ g.transpose(0, 2, 1))
    return draws.reshape(batch + (dim, dim))


def sample_matrix_normal(rng: np.random.Generator, m, r_diag,
                         chol_precision: CholeskyFactor) -> np.ndarray:
    """Draw an N x K matrix with independent columns.

    Column k is Normal(m[:, k], Lambda^{-1} / r_diag[k]) where
    ``chol_precision`` factors Lambda. This is the matrix-normal with
    diagonal column precision, i.e. exactly the per-column marginal
    used by the posterior.
    """
    m = np.asarray(m, dtype=np.float64)
    r_diag = np.asarray(r_diag, dtype=np.float64)
    if m.ndim != 2 or r_diag.shape != (m.shape[1],):
        raise ShapeMismatch("mean matrix and column precisions disagree in K")
    if m.shape[0] != chol_precision.dim:
        raise ShapeMismatch("mean matrix rows do not match the precision dimension")
    if not np.isfinite(m).all():
        raise DomainError("mean matrix must be finite")
    if not np.all((r_diag > 0.0) & (r_diag < np.inf)):
        raise DomainError("column precisions must be finite and positive")
    z = rng.standard_normal(m.shape)
    return m + (chol_precision.inverse.T @ z) / np.sqrt(r_diag)[None, :]


def _bartlett_log_det(rng: np.random.Generator, a: float, dim: int, n: int) -> np.ndarray:
    """sum_j log A_jj of n Bartlett factors A, A A^T ~ Wishart(a, I), as (n,).

    Draws the columns of :func:`_bartlett_diagonal`, in its order, and
    folds the log of each into one (n,) sum as it is drawn, so no (n, N)
    array is held.
    """
    total = np.zeros(n)
    for i in range(dim):
        column = _bartlett_column(rng, a, i, n)
        total += np.log(column, out=column)
        del column  # before the next one is drawn
    return total


def _mean_and_error(samples: np.ndarray, scale: float = 1.0):
    """Mean of ``scale * samples`` along axis 0 and its standard error,
    ``scale * sqrt(sum (x_i - mean)^2 / (n (n - 1)))``, infinite at n = 1
    even where ``scale`` is 0. Every Monte-Carlo probe takes its figures
    from here; ``samples`` is overwritten.
    """
    n = len(samples)
    mean = np.mean(samples, axis=0)
    if n == 1:
        return scale * mean, np.full(np.shape(mean), np.inf)
    samples -= mean
    samples *= samples
    return scale * mean, scale * np.sqrt(np.sum(samples, axis=0) / (n * (n - 1)))


def _weight_mean_and_error(log_weights: np.ndarray):
    """:func:`_mean_and_error` of exp(log_weights) as two floats; overwrites ``log_weights``."""
    shift = float(np.max(log_weights))  # the largest weight is 1 after the shift
    log_weights -= shift
    mean, error = _mean_and_error(np.exp(log_weights, out=log_weights), np.exp(shift))
    return float(mean), float(error)


def _effective_size(log_det: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 for weights proportional to exp(log_det)."""
    weights = log_det - np.max(log_det)
    np.exp(weights, out=weights)
    return float(np.sum(weights) ** 2 / np.dot(weights, weights))


def mc_predictive(rng: np.random.Generator, model: PredictiveModel, x, k: int,
                  n_samples: int, *, log_det=None):
    """Importance-sampled estimate of the predictive density of x under class k.

    With mu integrated out, the density is the average over Lambda ~
    Wishart(a*, B*) of Normal(x | mu*_k, (1 + c*_k) Lambda^{-1}). Its
    exponent -e^T Lambda e / 2, e = (x - mu*_k) / sqrt(1 + c*_k), moves
    the Wishart to Wishart(a*, B* + e e^T) at the cost of the factor
    (1 + q)^{-a*/2}, q = ||L^{-1} e||^2 with B* = L L^T. So Lambda is drawn
    from that updated Wishart, and sample s weighs

        (2 pi (1 + c*_k))^{-N/2} (1 + q)^{-a*/2} |Lambda_s|^{1/2},
        log|Lambda_s| = 2 sum_j log A_jj,s - log|B*| - log(1 + q),

    A_s the Bartlett factor of the draw. The weight reads only the Bartlett
    diagonal, whose law depends on a* and N alone: no normal is drawn and
    nothing is factored, as log|B*| and L^{-1} are the model's own. It
    returns the estimate and its standard error from :func:`_mean_and_error`.

    ``log_det`` is an (S,) draw of sum_j log A_jj from
    ``_bartlett_log_det(rng, a*, N, S)``; without it the call draws its
    own. As it depends on neither x nor k, the probes of one model can
    share one draw: their estimates are then correlated, but each is
    unbiased with its own standard error. A draw made from ``rng`` just
    before the call gives bit for bit the estimate of a call that draws
    it. The array is read, never written.

    Cost: one O(S N) draw, then per call an O(N^2) product with L^{-1} and
    O(S) for the weights. Memory: (S,) arrays only. What it checks: the
    closed form's normalizing constant, and its exponent in q, against the
    Bartlett moments of the Wishart. What it does not: its x-dependence is
    algebra, (1 + q)^{-(a*+1)/2} in every sample, so only the plain
    estimator of the default ``verify`` suite simulates that.

    Draws come from ``rng``, any ``numpy.random.Generator``. x and k are
    checked as the scorer checks them (``DimensionMismatch``,
    ``IndexError``, ``ValueError`` for an inf or NaN in x), and
    ``n_samples`` must be an integer of at least 1 (``DomainError``). An x
    so far out that q overflows is a ``DomainError``, a ``log_det`` of the
    wrong shape a ``ShapeMismatch`` and one with an entry that is not
    finite a ``DomainError``; each check comes before anything is drawn.
    """
    x = _one_row(model, x, k)
    _check_finite(x)
    _check_samples(n_samples)
    c_k = float(model.c_star[k])
    with np.errstate(over="ignore", invalid="ignore"):
        d = model.chol_b_star.inverse @ (x[0] - model.mu_star[:, k])
        q = float(d @ d) / (1.0 + c_k)
    if not q < np.inf:
        raise DomainError(f"pattern is too far from class {k}'s mean to sample: "
                          f"its whitened squared distance overflows")
    if log_det is None:
        log_det = _bartlett_log_det(rng, model.a_star, model.dim, n_samples)
    else:
        log_det = np.asarray(log_det, dtype=np.float64)
        if log_det.shape != (n_samples,):
            raise ShapeMismatch(f"Bartlett log-determinant has shape {log_det.shape}, "
                                f"expected {(n_samples,)}")
        if not (np.isfinite(log_det.min()) and np.isfinite(log_det.max())):
            raise DomainError("Bartlett log-determinant entries must be finite")
    log1p_q = np.log1p(q)
    offset = -0.5 * (model.dim * np.log(2.0 * np.pi * (1.0 + c_k))
                     + model.a_star * log1p_q + model.logdet_b_star + log1p_q)
    return _weight_mean_and_error(log_det + offset)


def _mc_plain(rng: np.random.Generator, model: PredictiveModel, x: np.ndarray, k: int,
              n_samples: int):
    """Plain Monte-Carlo estimate of the predictive density of a finite (N,) x.

    Draws ``Lambda ~ Wishart(a*, B*)`` and ``mu_k ~ Normal(mu*_k,
    c*_k Lambda^{-1})`` and averages ``Normal(x | mu_k, Lambda^{-1})``, so
    unlike :func:`mc_predictive` it simulates x's place in the integrand.
    It backs the default ``verify`` suite's probes at N <= 3 and holds a
    few (S, N) arrays. With B* = L L^T and A the Bartlett factor,
    log|Lambda| = 2 sum log A_jj - log|B*|, and the Gaussian exponent is
    ||v||^2, v_j = A_jj d_j + Normal(0, t_j + c*), d = L^{-1}(x - mu*_k),
    t_j = sum_{i>j} d_i^2. An x whose exponent overflows in every sample
    is a ``DomainError``.
    """
    dim = model.dim
    mu_k, c_k = model.mu_star[:, k], float(model.c_star[k])
    d = model.chol_b_star.inverse @ (x - mu_k)
    tails = np.append(np.cumsum(d[::-1] ** 2)[::-1][1:], 0.0)  # sum_{i>j} d_i^2
    scale = np.sqrt(tails + c_k)
    diagonal = _bartlett_diagonal(rng, model.a_star, dim, n_samples)
    v = diagonal * d + scale * rng.standard_normal(diagonal.shape)
    with np.errstate(over="ignore"):  # an infinite exponent is a zero weight
        exponent = np.sum(v * v, axis=1)
    log_weights = ((2.0 * np.sum(np.log(diagonal), axis=1) - model.logdet_b_star) * 0.5
                   - 0.5 * dim * np.log(2.0 * np.pi) - exponent * 0.5)
    if not np.isfinite(np.max(log_weights)):
        raise DomainError(f"pattern is too far from class {k}'s mean to sample: "
                          f"every sample's Gaussian exponent overflows")
    return _weight_mean_and_error(log_weights)


def sample_dataset(rng: np.random.Generator, dim: int, counts, r_true: float,
                   precision=None):
    """Draw a dataset from the model's own generative story.

    Class means come from Normal(0, (1/r_true) Lambda^{-1}), then each
    class k contributes ``counts[k]`` patterns from Normal(mu_k,
    Lambda^{-1}), rows grouped by class in class order. ``precision``
    defaults to the identity. Classes are named ``class_0`` onwards; one
    with a zero count appears in the class list but contributes no rows.
    Returns ``(dataset, means)`` with the sampled N x K mean matrix.
    """
    counts = [int(c) for c in counts]
    if dim < 1 or not counts or any(c < 0 for c in counts):
        raise DomainError("need dim >= 1 and non-negative class counts")
    if not 0.0 < float(r_true) < np.inf:
        raise DomainError(f"r_true must be finite and positive, got {r_true}")
    n_classes = len(counts)
    if precision is None:
        precision = np.eye(dim)
    chol_precision = linalg.cholesky(linalg.symmetrize(precision))
    means = sample_matrix_normal(rng, np.zeros((dim, n_classes)),
                                 np.full(n_classes, float(r_true)), chol_precision)
    labels = np.repeat(np.arange(n_classes), counts)
    z = rng.standard_normal((labels.size, dim))
    patterns = means.T[labels] + z @ chol_precision.inverse
    names = tuple(f"class_{k}" for k in range(n_classes))
    return LabeledDataset(patterns, labels, names), means


# ---------------------------------------------------------------------------
# Verification suite behind the `verify` command.
# ---------------------------------------------------------------------------

def _probe(name, reference, estimate, std_error):
    ok = bool(np.all(np.isfinite([estimate, std_error]))
              and abs(estimate - reference) <= 3.0 * std_error)
    return {
        "probe": name,
        "closed_form": float(reference),
        "mc_estimate": float(estimate),
        "std_error": float(std_error),
        "pass": ok,
    }


def _wishart_mean_probe(rng: np.random.Generator, n_samples: int):
    a = 5.0
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    expected = a * np.linalg.inv(b)
    mean, se = _mean_and_error(sample_wishart(rng, a, b, size=n_samples))
    worst = np.unravel_index(np.argmax(np.abs(mean - expected) / se), mean.shape)
    return _probe("wishart-mean", expected[worst], mean[worst], se[worst])


def _chain_rule_probe(rng: np.random.Generator):
    dim = 2
    ds, _ = sample_dataset(rng, dim=dim, counts=[5, 5], r_true=1.0)
    prior = PriorHyper(r=0.8, a=dim + 2.0, b=np.eye(dim))
    total = 0.0
    running = SufficientStats.zeros(dim, ds.n_classes)
    for x, label in zip(ds.patterns, ds.labels):
        model = build_model(posterior(running, prior))
        total += log_predictive(model, x, int(label))
        one = LabeledDataset(x[None, :], np.array([label]), ds.class_names)
        running = merge(running, accumulate(one))
    reference = log_evidence_proper(accumulate(ds), prior)
    return _probe("evidence-chain-rule", reference, total, 1e-8 / 3.0)


def _predictive_probes(rng: np.random.Generator, n_samples: int):
    results = []
    for dim, n_classes in ((1, 2), (2, 2), (3, 1)):
        counts = list(rng.integers(3, 8, size=n_classes))
        ds, _ = sample_dataset(rng, dim=dim, counts=counts, r_true=1.0)
        prior = PriorHyper(r=0.5, a=dim + 2.0, b=np.eye(dim))
        post = posterior(accumulate(ds), prior)
        model = build_model(post)
        k = int(rng.integers(0, n_classes))
        x = rng.normal(0.0, 1.5, size=dim)
        closed = float(np.exp(log_predictive(model, x, k)))
        estimate, se = _mc_plain(rng, model, x, k, n_samples)
        results.append(_probe(f"mc-predictive-N{dim}K{n_classes}", closed, estimate, se))
    return results


def _model_probes(rng: np.random.Generator, model, n_samples: int):
    # One Bartlett log-determinant serves every probe, drawn where the first
    # probe would draw its own: x_0, log_det, x_1, x_2. Every probe's weights
    # are proportional to exp(log_det), so they share one effective size.
    results, log_det = [], None
    for k in range(min(model.n_classes, 3)):
        x = model.mu_star[:, k] + rng.normal(0.0, 1.0, size=model.dim)
        if log_det is None:
            log_det = _bartlett_log_det(rng, model.a_star, model.dim, n_samples)
            ess = _effective_size(log_det)
        closed = float(np.exp(log_predictive(model, x, k)))
        estimate, se = mc_predictive(rng, model, x, k, n_samples, log_det=log_det)
        results.append({**_probe(f"model-predictive-{model.class_names[k]}",
                                 closed, estimate, se), "ess": ess})
    return results


def run_verification(seed: int, n_samples: int = 20000, model=None):
    """Run the oracle suite; returns {"probes": [...], "all_pass": bool}.

    Without a model this checks the Wishart sampling convention against
    the analytic mean, the chain-rule evidence identity, and closed-form
    versus Monte-Carlo predictive densities on three synthetic builds.
    Those three use the plain estimator. With a model it checks the
    model's own predictive scores against the importance-sampled integral
    of :func:`mc_predictive`, without factoring anything. Its probes (one
    per class, at most three) share one (S,) Bartlett log-determinant,
    drawn once right after the first probe's pattern: the estimates are
    correlated, but each is unbiased with its own standard error, and
    each reports the effective sample size ``ess`` of the shared weights.
    Every Monte-Carlo probe passes within three of the finite standard
    errors of :func:`_mean_and_error`, so ``n_samples = 1`` fails them all.
    An ``n_samples`` that is not an integer of at least 1, or a seed that
    is not a non-negative integer, raises :class:`DomainError` before
    anything is drawn.
    """
    _check_samples(n_samples)
    rng = seeded_generator(seed)
    if model is not None:
        probes = _model_probes(rng, model, n_samples)
    else:
        probes = [_wishart_mean_probe(rng, n_samples), _chain_rule_probe(rng)]
        probes.extend(_predictive_probes(rng, n_samples))
    return {"probes": probes, "all_pass": all(p["pass"] for p in probes)}
