"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import t as student_t

from gausset import (
    ClassPrior,
    LabeledDataset,
    PriorHyper,
    accumulate,
    add_empty_class,
    build_model,
    column_marginal,
    load_model,
    log_evidence_noninformative,
    log_evidence_proper,
    log_predictive,
    log_predictive_unnormalized,
    mc_predictive,
    posterior,
    sample_dataset,
    sample_wishart,
    save_model,
    score_batch,
    tune_r,
)
from gausset.cli import main as cli_main
from gausset.inference import _posterior_general

from test_evidence import sequential_log_predictive


def report(number, description):
    print(f"\n[criterion {number:02d}] PASS {description}")


def test_01_closed_form_vs_monte_carlo_predictive():
    started = time.perf_counter()
    specs = [(1, 1, 120), (1, 3, 121), (2, 2, 122), (3, 1, 123), (3, 3, 124)]
    rng = np.random.default_rng(2026)
    worst = 0.0
    for dim, n_classes, seed in specs:
        gen = np.random.default_rng(seed)
        counts = list(rng.integers(3, 11, size=n_classes))
        ds, _ = sample_dataset(gen, dim=dim, counts=counts, r_true=1.0)
        prior = PriorHyper(r=0.6, a=dim + 2.0, b=np.eye(dim))
        post = posterior(accumulate(ds), prior)
        model = build_model(post)
        k = int(rng.integers(0, n_classes))
        x = rng.normal(0.0, 1.5, size=dim)
        closed = float(np.exp(log_predictive(model, x, k)))
        estimate, stderr = mc_predictive(np.random.default_rng(seed + 1000), model,
                                         x, k, 200000)
        deviation = abs(estimate - closed) / stderr
        worst = max(worst, deviation)
        assert deviation <= 3.0, (dim, n_classes, deviation)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"Monte-Carlo predictive matches closed form on 5 probes "
              f"(worst {worst:.2f} SE, {elapsed:.1f} s)")


def test_02_chain_rule_evidence_identity():
    started = time.perf_counter()
    gen = np.random.default_rng(7)
    ds, _ = sample_dataset(gen, dim=2, counts=[6, 6], r_true=1.0)
    prior = PriorHyper(r=0.9, a=4.0, b=np.eye(2))
    reference = log_evidence_proper(accumulate(ds), prior)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        order = rng.permutation(12)
        total = sequential_log_predictive(ds, prior, order)
        worst = max(worst, abs(total - reference))
        assert abs(total - reference) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"evidence equals sequential predictives over 5 permutations "
              f"(worst |diff| {worst:.2e}, {elapsed:.2f} s)")


def test_03_student_t_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    xs = rng.normal(1.0, 2.0, size=9)
    ds = LabeledDataset(xs[:, None], np.zeros(9, dtype=int), ("only",))
    post = posterior(accumulate(ds), PriorHyper.noninformative(1e-12))
    model = build_model(post)
    mu, c = column_marginal(post, 0)
    scale = float(np.sqrt((c + 1.0) * post.b_star[0, 0] / post.a_star))
    worst = 0.0
    for x in np.linspace(mu[0] - 8 * scale, mu[0] + 8 * scale, 50):
        mine = log_predictive(model, [x], 0)
        ref = student_t.logpdf(x, df=post.a_star, loc=mu[0], scale=scale)
        worst = max(worst, abs(mine - ref))
        assert abs(mine - ref) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, f"1-D predictive equals reference Student-t at 50 points "
              f"(worst |diff| {worst:.2e}, {elapsed:.2f} s)")


def test_04_predictive_normalizes_to_one(worked_posterior):
    model = build_model(worked_posterior, class_names=("a", "b"))
    # Each grid is scored as one batch; the normaliser shared by all
    # classes comes from one scalar normalized/unnormalized pair.
    log_norm = (log_predictive(model, [0.0], 0)
                - log_predictive_unnormalized(model, [0.0], 0))
    worst = 0.0
    for k in range(2):
        mu = model.mu_star[0, k]
        scale = np.sqrt((model.c_star[k] + 1.0) * model.b_star[0, 0]
                        / model.a_star)
        grid = np.linspace(mu - 40 * scale, mu + 40 * scale, 100001)
        log_unnorm, _, _ = score_batch(model, grid[:, None], ClassPrior.uniform(2))
        density = np.exp(log_norm + log_unnorm[:, k])
        mass = simpson(density, x=grid)
        worst = max(worst, abs(mass - 1.0))
        assert abs(mass - 1.0) <= 1e-4
    report(4, f"Simpson mass of each class predictive is 1 "
              f"(worst |mass-1| {worst:.2e})")


def test_05_sequential_update_equals_batch():
    rng = np.random.default_rng(10)
    names = ("a", "b", "c")
    patterns = rng.normal(0.3, 1.2, size=(20, 2))
    labels = rng.integers(0, 3, size=20)
    prior = PriorHyper(r=0.8, a=4.5, b=np.array([[2.0, 0.4], [0.4, 1.5]]))
    batch = posterior(accumulate(LabeledDataset(patterns, labels, names)), prior)
    first = posterior(accumulate(LabeledDataset(patterns[:11], labels[:11],
                                                names)), prior)
    stats2 = accumulate(LabeledDataset(patterns[11:], labels[11:], names))
    m2, r2, a2, b2 = _posterior_general(stats2, first.m_star, first.r_star_diag,
                                        first.a_star, first.b_star)
    np.testing.assert_allclose(m2, batch.m_star, rtol=1e-10)
    np.testing.assert_allclose(r2, batch.r_star_diag, rtol=1e-10)
    np.testing.assert_allclose(a2, batch.a_star, rtol=1e-10)
    np.testing.assert_allclose(b2, batch.b_star, rtol=1e-10)
    report(5, "two-stage posterior equals batch posterior on all four "
              "parameter blocks to 1e-10 relative")


def test_06_openset_invariance(worked_posterior):
    r = worked_posterior.source_r
    grown = add_empty_class(worked_posterior)
    assert grown.a_star == worked_posterior.a_star  # bitwise
    np.testing.assert_array_equal(grown.b_star, worked_posterior.b_star)
    mean, c = column_marginal(grown, grown.n_classes - 1)
    assert not mean.any()
    assert abs(c - 1.0 / r) <= 1e-15
    report(6, "empty class leaves a* and B* unchanged and gets "
              "(mu*, c*) = (0, 1/r)")


def test_07_wishart_convention():
    a = 5.0
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    gen = np.random.default_rng(77)
    n = 100000
    samples = sample_wishart(gen, a, b, size=n)
    expected = a * np.linalg.inv(b)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n)
    deviation = np.abs(mean - expected) / stderr
    assert np.all(deviation <= 3.0), deviation
    report(7, f"mean of 1e5 Wishart draws matches a B^-1 entrywise "
              f"(worst {deviation.max():.2f} SE)")


def test_08_tuned_r_matches_grid_and_truth():
    started = time.perf_counter()
    r_true = 1.0
    gen = np.random.default_rng(88)
    ds, _ = sample_dataset(gen, dim=2, counts=[10] * 20, r_true=r_true)
    stats = accumulate(ds)
    r_min, r_max, n_grid = 1e-3, 1e3, 1000
    tuned = tune_r(stats, r_min, r_max, tol=1e-8)
    grid = np.geomspace(r_min, r_max, n_grid)
    values = [log_evidence_noninformative(stats, r) for r in grid]
    best = float(grid[int(np.argmax(values))])
    cell = np.log(r_max / r_min) / (n_grid - 1)
    assert abs(np.log(tuned) - np.log(best)) <= cell
    assert r_true / 3.0 <= tuned <= 3.0 * r_true
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(8, f"tuned r {tuned:.3f} within one grid cell of the 1000-point "
              f"argmax and within 3x of r_true ({elapsed:.1f} s)")


def test_09_degenerate_fit_is_structured_error(tmp_path, capsys):
    data = tmp_path / "degenerate.csv"
    data.write_text("x0,x1,label\n1,1,a\n2,2,a\n")
    code = cli_main(["fit", "--data", str(data), "--out",
                     str(tmp_path / "model.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert "nan" not in (captured.out + captured.err).lower()
    assert "degenera" in captured.err.lower()
    report(9, "N=2, T=2 fit at the non-informative prior exits 3 with a "
              "degeneracy message and no NaN")


def test_10_model_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(55)
    gen = np.random.default_rng(56)
    train, _ = sample_dataset(gen, dim=3, counts=[40, 30, 30], r_true=0.5)
    post = posterior(accumulate(train), PriorHyper.noninformative(0.7))
    model = build_model(post, class_names=train.class_names)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    queries = rng.normal(0.0, 2.0, size=(100, 3))
    prior = ClassPrior.uniform(3)
    before = score_batch(model, queries, prior)
    after = score_batch(loaded, queries, prior)
    for mem, disk in zip(before, after):
        np.testing.assert_array_equal(mem, disk)
    report(10, "fit -> save -> load -> score is bit-identical to in-memory "
               "scoring on 100 rows")
