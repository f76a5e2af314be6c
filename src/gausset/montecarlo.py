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
from .predictive import PredictiveModel, _one_row, build_model, log_predictive


def seeded_generator(seed) -> np.random.Generator:
    """PCG64 generator for a user seed. Same seed, same sample stream."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _bartlett_diagonal(rng: np.random.Generator, a: float, dim: int, n: int) -> np.ndarray:
    """Diagonals of n Bartlett factors A, A A^T ~ Wishart(a, I), as (n, N).

    Entry i is sqrt(chi-square(a - i)), drawn column by column. The
    entries below it are independent standard normals, independent of the
    diagonal, so each caller draws only what it reads of them.
    """
    diag = np.empty((n, dim))
    for i in range(dim):
        diag[:, i] = np.sqrt(rng.chisquare(a - i, size=n))
    return diag


def sample_wishart(rng: np.random.Generator, a: float, b, size=None) -> np.ndarray:
    """Draws from Wishart(a, B), mean a B^{-1}, of shape ``size + (N, N)``.

    ``size=None`` gives one (N, N) draw. Lambda = G G^T with G = U^{-T} A
    for B = U U^T and A a Bartlett factor, so only the triangular inverse
    U^{-1} is formed, never B^{-1}.
    """
    b = linalg.symmetrize(b)
    if not float(a) > len(b) - 1:
        raise DomainError(f"Wishart needs a > N - 1, got a={a}, N={len(b)}")
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
    if np.any(r_diag <= 0.0):
        raise ValueError("column precisions must be positive")
    z = rng.standard_normal(m.shape)
    return m + (chol_precision.inverse.T @ z) / np.sqrt(r_diag)[None, :]


def mc_predictive(rng: np.random.Generator, model: PredictiveModel, x, k: int,
                  n_samples: int):
    """Monte-Carlo estimate of the predictive density of x under class k.

    Draws ``Lambda ~ Wishart(a*, B*)``, then ``mu_k ~ Normal(mu*_k,
    c*_k Lambda^{-1})``, and averages the Gaussian density
    ``Normal(x | mu_k, Lambda^{-1})``; B* enters only as the model's
    log|B*| and L^{-1}, so nothing is factored. The average is accumulated
    in the log domain (shift by the max log weight) and returned in the
    linear domain with its jackknife standard error, which for a plain
    mean reduces to ``sqrt(sum (w_i - mean)^2 / (n (n - 1)))``.

    In the body's notation, v = A^T d - sqrt(c*) z given d has independent
    coordinates v_j = A_jj d_j + Normal(0, t_j + c*), t_j = sum_{i>j} d_i^2.

    Draws come from ``rng``, any ``numpy.random.Generator``. x and k are
    checked as the scorer checks them (``DimensionMismatch``,
    ``IndexError``). With ``n_samples = 1`` the estimate is a single
    density value and the standard error is infinite.
    """
    x = _one_row(model, x, k)[0]
    dim = model.dim
    if n_samples < 1:
        raise DomainError("need at least one sample")

    mu_k, c_k = model.mu_star[:, k], float(model.c_star[k])
    diag = _bartlett_diagonal(rng, model.a_star, dim, n_samples)
    # Lambda = G G^T with G = L^{-T} A and B* = L L^T, so log|Lambda| is
    # 2 sum log A_jj - log|B*|. With mu = mu_k + sqrt(c) G^{-T} z the
    # Gaussian exponent is ||A^T d - sqrt(c) z||^2, d = L^{-1}(x - mu_k).
    logdets = 2.0 * np.sum(np.log(diag), axis=1) - model.logdet_b_star
    d = model.chol_b_star.inverse @ (x - mu_k)
    tails = np.append(np.cumsum(d[:0:-1] ** 2)[::-1], 0.0)
    v = diag * d + np.sqrt(tails + c_k) * rng.standard_normal((n_samples, dim))
    log_weights = 0.5 * logdets - 0.5 * dim * np.log(2.0 * np.pi) - 0.5 * np.sum(v * v, axis=1)

    shift = float(np.max(log_weights))
    scaled = np.exp(log_weights - shift)
    mean_scaled = float(np.mean(scaled))
    estimate = float(np.exp(shift) * mean_scaled)
    if n_samples == 1:
        return estimate, float("inf")
    jack_var = float(np.sum((scaled - mean_scaled) ** 2) / (n_samples * (n_samples - 1)))
    return estimate, float(np.exp(shift) * np.sqrt(jack_var))


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
    if not float(r_true) > 0.0:
        raise DomainError("r_true must be positive")
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
    samples = sample_wishart(rng, a, b, size=n_samples)
    expected = a * np.linalg.inv(b)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    worst = np.unravel_index(np.argmax(np.abs(mean - expected) / se), mean.shape)
    return _probe("wishart-mean", expected[worst], mean[worst], se[worst])


def _chain_rule_probe(rng: np.random.Generator, tol: float = 1e-8):
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
    return _probe("evidence-chain-rule", reference, total, tol / 3.0)


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
        estimate, se = mc_predictive(rng, model, x, k, n_samples)
        results.append(_probe(f"mc-predictive-N{dim}K{n_classes}", closed, estimate, se))
    return results


def _model_probes(rng: np.random.Generator, model, n_samples: int):
    results = []
    for k in range(min(model.n_classes, 3)):
        x = model.mu_star[:, k] + rng.normal(0.0, 1.0, size=model.dim)
        closed = float(np.exp(log_predictive(model, x, k)))
        estimate, se = mc_predictive(rng, model, x, k, n_samples)
        results.append(_probe(f"model-predictive-{model.class_names[k]}",
                              closed, estimate, se))
    return results


def run_verification(seed: int, n_samples: int = 20000, model=None):
    """Run the oracle suite; returns {"probes": [...], "all_pass": bool}.

    Without a model this checks the Wishart sampling convention against
    the analytic mean, the chain-rule evidence identity, and closed-form
    versus Monte-Carlo predictive densities on three synthetic builds.
    With a model it checks the model's own predictive scores against the
    Monte-Carlo integral, without factoring anything. Every stochastic
    probe uses the same three-standard-error rule and needs a finite
    standard error, so ``n_samples = 1`` fails every Monte-Carlo probe.
    ``n_samples < 1`` or a seed that is not a non-negative integer raises
    :class:`DomainError` before anything is drawn.
    """
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got n_samples={n_samples}")
    rng = seeded_generator(seed)
    if model is not None:
        probes = _model_probes(rng, model, n_samples)
    else:
        probes = [_wishart_mean_probe(rng, n_samples), _chain_rule_probe(rng)]
        probes.extend(_predictive_probes(rng, n_samples))
    return {"probes": probes, "all_pass": all(p["pass"] for p in probes)}
