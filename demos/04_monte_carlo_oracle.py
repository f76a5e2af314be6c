"""Check the closed forms against brute force, the way the tests do.

Every analytic result in the package has an independent check: the
predictive density is compared with a Monte-Carlo average over posterior
parameter samples, the Wishart sampler is pinned to its analytic mean,
and the evidence is compared with a sequential product of one-point
predictives. This script runs all three at a desk-friendly scale; the
`gausset verify` command is the same thing with a report format.
"""

import numpy as np

from gausset import (
    PriorHyper,
    accumulate,
    build_model,
    log_evidence_proper,
    log_predictive,
    mc_predictive,
    posterior,
    sample_dataset,
    sample_wishart,
)

# --- 1. Wishart convention -------------------------------------------------
# The sampler must have mean a B^{-1}; a wrong convention would silently
# invert every other check, so this one comes first.
a, b = 6.0, np.array([[2.0, 0.5], [0.5, 1.0]])
draws = sample_wishart(np.random.default_rng(11), a, b, size=20000)
print("Wishart sample mean:\n", draws.mean(axis=0).round(3))
print("analytic a B^-1:\n", (a * np.linalg.inv(b)).round(3))

# --- 2. Predictive density vs the integral it came from --------------------
# p(x | k) integrates Normal(x | mu_k, Lambda^-1) over the posterior on
# (mu_k, Lambda). mc_predictive integrates mu_k out and importance-samples
# Lambda from the Wishart updated by x, so each draw needs only the N
# Bartlett chi-squares: one O(S N) draw and (S,) arrays, plus O(N^2) per
# pattern. That checks the T density's constant and its exponent against
# the Wishart's moments; its x-dependence is algebra, so with one seed
# every line below sits the same number of standard errors off. `gausset
# verify` without a model also runs the plain estimator, which samples
# mu_k and Lambda and averages the Gaussian itself.
ds, _ = sample_dataset(np.random.default_rng(12), dim=2, counts=[6, 8], r_true=1.0)
prior = PriorHyper(r=0.8, a=4.0, b=np.eye(2))
post = posterior(accumulate(ds), prior)
model = build_model(post)

print("\nclosed form vs Monte-Carlo (200000 posterior samples):")
for x in (np.array([0.5, -0.5]), np.array([2.0, 2.0])):
    for k in (0, 1):
        closed = np.exp(log_predictive(model, x, k))
        estimate, stderr = mc_predictive(np.random.default_rng(13), model, x, k, 200000)
        sigmas = abs(estimate - closed) / stderr
        print(f"  x={x}, k={k}: closed {closed:.6f}  mc {estimate:.6f} "
              f"(se {stderr:.1e}, {sigmas:.2f} SE apart)")

# --- 3. Evidence vs the chain rule ------------------------------------------
# The full marginal likelihood must equal the sum of one-point-at-a-time
# log predictives, in any order. This exercises the posterior update,
# the predictive and the evidence constant in one identity.
from gausset import LabeledDataset, SufficientStats, merge

def sequential(ds, prior, order):
    total, running = 0.0, SufficientStats.zeros(ds.dim, ds.n_classes)
    for i in order:
        total += log_predictive(build_model(posterior(running, prior)),
                                ds.patterns[i], int(ds.labels[i]))
        step = accumulate(LabeledDataset(ds.patterns[i][None, :],
                                         [ds.labels[i]], ds.class_names))
        running = merge(running, step)
    return total

reference = log_evidence_proper(accumulate(ds), prior)
print(f"\nlog evidence, direct formula:    {reference:.12f}")
rng = np.random.default_rng(14)
for trial in range(3):
    order = rng.permutation(ds.n_patterns)
    print(f"chain rule, random order {trial}:     "
          f"{sequential(ds, prior, order):.12f}")
