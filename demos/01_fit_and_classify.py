"""Fit a classifier on a toy 2-D problem and score some test points.

The model: every class is Gaussian with its own mean and one covariance
shared by all classes. Nothing is estimated by optimization; the data is
reduced to sufficient statistics, the posterior is a closed form, and
scoring uses the resulting multivariate-T densities.
"""

import numpy as np

from gausset import (
    ClassPrior,
    LabeledDataset,
    PriorHyper,
    accumulate,
    build_model,
    class_posterior,
    decide,
    log_predictive,
    posterior,
    zero_one_costs,
)

rng = np.random.default_rng(1)

# Three classes, twenty points each, means on a triangle, shared unit
# within-class covariance. This is exactly the situation the model assumes.
true_means = np.array([[0.0, 3.0], [-3.0, -1.0], [3.0, -1.0]])
patterns = np.vstack([rng.normal(m, 1.0, size=(20, 2)) for m in true_means])
labels = np.repeat([0, 1, 2], 20)
ds = LabeledDataset(patterns, labels, ("top", "left", "right"))

# One pass over the data produces everything the model will ever need.
stats = accumulate(ds)
print("counts per class:", stats.counts)
print("class means (columns are classes):\n", stats.means.round(3))
print("pooled within-class scatter:\n", stats.within.round(2))

# Non-informative prior over the shared covariance, shrinkage r = 1 on the
# class means. The posterior is exact, no iterations involved.
post = posterior(stats, PriorHyper.noninformative(r=1.0))
print("\nposterior degrees of freedom a* =", post.a_star)
print("posterior mean matrix M* (columns are classes):\n", post.m_star.round(3))

model = build_model(post, class_names=ds.class_names)

# Score a few query points. The per-class predictive densities are
# multivariate-T, a bit heavier tailed than Gaussians, which is what
# integrating out the unknown mean and covariance buys.
queries = np.array([[0.0, 3.0], [-2.5, -0.5], [0.0, 0.0]])
prior = ClassPrior.uniform(3)
costs = zero_one_costs(3)
for x in queries:
    probs = class_posterior(model, x, prior)
    choice = model.class_names[decide(probs, costs)]
    scores = ", ".join(f"{n}={log_predictive(model, x, k):.2f}"
                       for k, n in enumerate(model.class_names))
    print(f"\nx = {x}:  log predictive per class: {scores}")
    print(f"   posterior = {probs.round(3)}  ->  decision: {choice}")

# Asymmetric costs change the decision without changing the posterior.
# Calling 'top' when the truth is something else is ten times worse than
# any other mistake, so a modest 63% belief in 'top' no longer justifies
# choosing it.
lopsided = np.array([[0.0, 1.0, 1.0],
                     [10.0, 0.0, 1.0],
                     [10.0, 1.0, 0.0]])
x = np.array([-1.5, 1.0])
probs = class_posterior(model, x, prior)
print(f"\nwith lopsided costs at x = {x}: posterior = {probs.round(3)}")
print("   zero-one decision:", model.class_names[decide(probs, costs)])
print("   lopsided decision:", model.class_names[decide(probs, lopsided)])
