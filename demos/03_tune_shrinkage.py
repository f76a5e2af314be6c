"""Choose the shrinkage r by maximizing the training-data evidence.

r is the one free knob left after the conjugate machinery absorbs
everything else. The marginal likelihood of the labels-and-patterns
under the non-informative prior is available in closed form up to an
r-independent constant, so a 1-D search picks r without any held-out
data. Here the data really is drawn from the model, so the tuned r
should land near the generating one.
"""

import numpy as np

from gausset import (
    accumulate,
    evidence_curve,
    log_evidence_noninformative,
    sample_dataset,
    tune_r,
    write_curve_csv,
)

r_true = 0.5
rng = np.random.default_rng(2024)
ds, _ = sample_dataset(rng, dim=2, counts=[12] * 15, r_true=r_true)
stats = accumulate(ds)
print(f"generated {stats.total} patterns in {stats.n_classes} classes, "
      f"r_true = {r_true}")

# The evidence is a smooth, single-peaked curve in log r for data like
# this. A coarse look first:
for r in (0.01, 0.1, 0.5, 2.0, 10.0, 100.0):
    print(f"  log evidence at r = {r:6.2f}: "
          f"{log_evidence_noninformative(stats, r):10.3f}")

tuned = tune_r(stats, 1e-3, 1e3, tol=1e-8)
print(f"\nevidence maximum: r = {tuned:.4f} "
      f"(truth {r_true}, ratio {tuned / r_true:.2f})")

# Dump a curve for external plotting; degenerate points would show up as
# empty cells (none here).
curve = evidence_curve(stats, np.geomspace(1e-3, 1e3, 200))
write_curve_csv(curve, "evidence_curve.csv")
print(f"wrote evidence_curve.csv, grid mode at r = {curve.mode:.4f}")

# More classes pin r down better; fewer leave it vague. The whole point
# of r is that it is shared by all K mean vectors, so K is the sample
# size that matters for it.
print("\ntuned r as the number of classes grows (same seed pattern):")
for n_classes in (3, 10, 30):
    ds_k, _ = sample_dataset(np.random.default_rng(99), dim=2,
                             counts=[12] * n_classes, r_true=r_true)
    tuned_k = tune_r(accumulate(ds_k), 1e-3, 1e3, tol=1e-8)
    print(f"  K = {n_classes:3d}: tuned r = {tuned_k:.4f}")
