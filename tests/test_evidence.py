import numpy as np
import pytest

from gausset import (
    LabeledDataset,
    PriorHyper,
    SufficientStats,
    accumulate,
    build_model,
    evidence_curve,
    log_evidence_noninformative,
    log_evidence_proper,
    log_predictive,
    merge,
    posterior,
    tune_r,
    write_curve_csv,
)
from gausset.errors import DegenerateScatter, DomainError, ImproperPrior
from gausset.montecarlo import SeededGenerator, sample_dataset


def sequential_log_predictive(ds, prior, order):
    """Independent oracle: sum of one-point-at-a-time log predictives."""
    total = 0.0
    running = SufficientStats.zeros(ds.dim, ds.n_classes)
    for i in order:
        model = build_model(posterior(running, prior))
        total += log_predictive(model, ds.patterns[i], int(ds.labels[i]))
        step = accumulate(LabeledDataset(ds.patterns[i][None, :],
                                         [ds.labels[i]], ds.class_names))
        running = merge(running, step)
    return total


class TestNoninformativeEvidence:
    def test_all_empty_classes_score_zero(self):
        stats = SufficientStats.zeros(2, 3)
        for r in (1e-3, 1.0, 50.0):
            assert log_evidence_noninformative(stats, r) == 0.0

    def test_worked_example(self, worked_stats):
        # (1/2)[2 log 1 - log 3 - log 2] - (3/2) log(20/3), by hand.
        expected = 0.5 * (-np.log(3.0) - np.log(2.0)) - 1.5 * np.log(20.0 / 3.0)
        assert log_evidence_noninformative(worked_stats, 1.0) == pytest.approx(
            expected, abs=1e-13
        )

    def test_diverges_as_r_vanishes(self, worked_stats):
        values = [log_evidence_noninformative(worked_stats, r)
                  for r in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert np.all(np.diff(values) < 0)
        assert values[-1] < -5.0

    def test_empty_class_contributes_nothing(self, worked_dataset):
        with_empty = LabeledDataset(worked_dataset.patterns, worked_dataset.labels,
                                    ("a", "b", "ghost"))
        for r in (0.3, 1.0, 7.0):
            assert log_evidence_noninformative(accumulate(with_empty), r) == (
                pytest.approx(log_evidence_noninformative(
                    accumulate(worked_dataset), r), abs=1e-13)
            )

    def test_degenerate_when_too_little_data(self):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        with pytest.raises(DegenerateScatter):
            log_evidence_noninformative(accumulate(ds), 1.0)

    def test_requires_positive_r(self, worked_stats):
        with pytest.raises(DomainError):
            log_evidence_noninformative(worked_stats, 0.0)


class TestProperEvidence:
    def test_empty_data_scores_zero(self):
        stats = SufficientStats.zeros(2, 2)
        prior = PriorHyper(r=0.5, a=4.0, b=np.eye(2))
        assert log_evidence_proper(stats, prior) == 0.0

    def test_single_point_equals_prior_predictive(self):
        prior = PriorHyper(r=2.0, a=1.5, b=np.array([[2.0]]))
        x = 1.7
        ds = LabeledDataset(np.array([[x]]), [0], ("a",))
        ev = log_evidence_proper(accumulate(ds), prior)
        prior_model = build_model(posterior(SufficientStats.zeros(1, 1), prior))
        assert ev == pytest.approx(log_predictive(prior_model, [x], 0), abs=1e-12)

    def test_chain_rule_over_permutations(self):
        gen = SeededGenerator(2024)
        ds, _ = sample_dataset(gen, dim=2, counts=[6, 6], r_true=1.0)
        prior = PriorHyper(r=0.8, a=4.0, b=np.eye(2))
        reference = log_evidence_proper(accumulate(ds), prior)
        rng = np.random.default_rng(77)
        for _ in range(5):
            order = rng.permutation(ds.n_patterns)
            assert sequential_log_predictive(ds, prior, order) == pytest.approx(
                reference, abs=1e-8
            )

    def test_improper_prior_rejected(self, worked_stats):
        with pytest.raises(ImproperPrior):
            log_evidence_proper(worked_stats, PriorHyper.noninformative(1.0))
        with pytest.raises(ImproperPrior):
            # a too small for a 1-D proper prior is impossible (needs a > 0),
            # so use a zero scale matrix instead.
            log_evidence_proper(worked_stats, PriorHyper(r=1.0, a=2.0,
                                                         b=np.zeros((1, 1))))

    def test_dimension_checked(self, worked_stats):
        with pytest.raises(ImproperPrior):
            log_evidence_proper(worked_stats, PriorHyper(r=1.0, a=4.0, b=np.eye(2)))

    def test_r_dependence_approaches_noninformative_form(self):
        # Differences across r isolate the r-dependent part. For a proper
        # prior with B = eps I the residual against the non-informative
        # form has the exact small-eps value -(a/2) [log det W(r) -
        # log det W(r')]; it vanishes only as a -> 0, which the 1-D
        # sequence below can approach because properness there needs
        # only a > 0.
        gen = SeededGenerator(5)
        ds, _ = sample_dataset(gen, dim=2, counts=[7, 7], r_true=1.0)
        stats = accumulate(ds)
        r1, r2 = 0.5, 2.0

        def residual(stats_, a, eps):
            prior1 = PriorHyper(r=r1, a=a, b=eps * np.eye(stats_.dim))
            prior2 = PriorHyper(r=r2, a=a, b=eps * np.eye(stats_.dim))
            d_proper = (log_evidence_proper(stats_, prior1)
                        - log_evidence_proper(stats_, prior2))
            d_noninf = (log_evidence_noninformative(stats_, r1)
                        - log_evidence_noninformative(stats_, r2))
            return d_proper - d_noninf

        def dlogdet_w(ds_):
            # S - F (R*)^{-1} F^T from the raw patterns, independent of the stats.
            x = ds_.patterns
            onehot = np.eye(ds_.n_classes)[ds_.labels]
            f, counts = x.T @ onehot, onehot.sum(axis=0)
            out = []
            for r in (r1, r2):
                w = x.T @ x - (f / (r + counts)) @ f.T
                out.append(np.linalg.slogdet(w)[1])
            return out[0] - out[1]

        a = float(stats.dim)
        assert residual(stats, a, 1e-6) == pytest.approx(
            -0.5 * a * dlogdet_w(ds), abs=1e-3
        )

        gen1 = SeededGenerator(6)
        ds1, _ = sample_dataset(gen1, dim=1, counts=[5, 5], r_true=1.0)
        stats1 = accumulate(ds1)
        residuals = [abs(residual(stats1, a, 1e-8))
                     for a in (1.0, 0.1, 0.01, 0.001)]
        assert np.all(np.diff(residuals) < 0)
        assert residuals[-1] < 1e-3


class TestTuneR:
    def test_decreasing_range_returns_left_boundary(self, worked_stats):
        # Past the peak, the evidence decreases; confirm that, then tune.
        grid = np.geomspace(10.0, 1000.0, 50)
        values = [log_evidence_noninformative(worked_stats, r) for r in grid]
        assert np.all(np.diff(values) < 0)
        tuned = tune_r(worked_stats, 10.0, 1000.0, tol=1e-8)
        assert tuned == pytest.approx(10.0, rel=1e-6)

    def test_matches_grid_argmax_on_synthetic_data(self):
        gen = SeededGenerator(99)
        ds, _ = sample_dataset(gen, dim=2, counts=[6] * 8, r_true=1.0)
        stats = accumulate(ds)
        r_min, r_max, n_grid = 1e-3, 1e3, 1000
        tuned = tune_r(stats, r_min, r_max, tol=1e-8)
        grid = np.geomspace(r_min, r_max, n_grid)
        values = [log_evidence_noninformative(stats, r) for r in grid]
        best = grid[int(np.argmax(values))]
        cell = np.log(r_max / r_min) / (n_grid - 1)
        assert abs(np.log(tuned) - np.log(best)) <= cell

    def test_worked_stats_match_grid(self, worked_stats):
        tuned = tune_r(worked_stats, 1e-3, 1e3, tol=1e-8)
        grid = np.geomspace(1e-3, 1e3, 1000)
        values = [log_evidence_noninformative(worked_stats, r) for r in grid]
        best = grid[int(np.argmax(values))]
        assert abs(np.log(tuned) - np.log(best)) <= np.log(1e6) / 999

    def test_never_below_endpoints(self, worked_stats):
        for r_min, r_max in ((1e-3, 1e3), (0.5, 5.0), (20.0, 80.0)):
            tuned = tune_r(worked_stats, r_min, r_max, tol=1e-6)
            tuned_value = log_evidence_noninformative(worked_stats, tuned)
            for endpoint in (r_min, r_max):
                assert tuned_value >= log_evidence_noninformative(
                    worked_stats, endpoint) - 1e-12

    def test_degenerate_everywhere_propagates(self):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        with pytest.raises(DegenerateScatter):
            tune_r(accumulate(ds), 1e-2, 1e2, tol=1e-6)

    def test_bad_range(self, worked_stats):
        with pytest.raises(DomainError):
            tune_r(worked_stats, 2.0, 1.0)


class TestEvidenceCurve:
    def test_single_point_grid(self, worked_stats):
        curve = evidence_curve(worked_stats, [0.7])
        assert curve.mode == 0.7
        assert curve.log_evidence.shape == (1,)

    def test_mode_agrees_with_tuner(self, worked_stats):
        tuned = tune_r(worked_stats, 1e-2, 1e2, tol=1e-8)
        grid = np.geomspace(1e-2, 1e2, 200)
        curve = evidence_curve(worked_stats, grid)
        cell = np.log(1e4) / 199
        assert abs(np.log(curve.mode) - np.log(tuned)) <= cell

    def test_all_empty_stats_give_flat_zero(self):
        curve = evidence_curve(SufficientStats.zeros(2, 2), np.geomspace(0.1, 10, 7))
        np.testing.assert_array_equal(curve.log_evidence, np.zeros(7))

    def test_degenerate_points_become_nan(self):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        curve = evidence_curve(accumulate(ds), [0.5, 1.0])
        assert np.all(np.isnan(curve.log_evidence))
        assert curve.mode is None

    def test_grid_validation(self, worked_stats):
        with pytest.raises(DomainError):
            evidence_curve(worked_stats, [1.0, 1.0])
        with pytest.raises(DomainError):
            evidence_curve(worked_stats, [-1.0, 1.0])
        with pytest.raises(DomainError):
            evidence_curve(worked_stats, [])

    def test_csv_with_empty_cells(self, tmp_path):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        curve = evidence_curve(accumulate(ds), [0.5, 1.0])
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,log_evidence"
        assert lines[1] == "0.5,"
        assert lines[2] == "1.0,"


def offset_dataset(offset):
    """400 rows, N = 3, K = 4, unit within-class noise, a common offset."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 400)
    means = rng.normal(0, 3, (4, 3))
    x = means[labels] + rng.normal(size=(400, 3)) + offset
    return LabeledDataset(x, labels, ("a", "b", "c", "d"))


def centred_log_evidence(ds, r):
    """Per-class-centred reference for the non-informative log evidence.

    B*(r) = W + sum_k w_k m_k m_k^T with w_k = r T_k / (r + T_k). Its log
    det is taken through the weighted-mean split B* = C + s mbar mbar^T,
    with s = sum_k w_k, mbar = sum_k w_k m_k / s and
    C = W + sum_k w_k (m_k - mbar)(m_k - mbar)^T, so that the reference
    never rounds B*'s offset-sized entries.
    """
    within = np.zeros((ds.dim, ds.dim))
    means, counts = [], []
    for k in range(ds.n_classes):
        rows = ds.patterns[ds.labels == k]
        centred = rows - rows.mean(axis=0)
        within += centred.T @ centred
        means.append(rows.mean(axis=0))
        counts.append(len(rows))
    means, counts = np.array(means), np.array(counts, dtype=float)
    w = r * counts / (r + counts)
    mbar = w @ means / w.sum()
    spread = means - mbar
    c = within + (spread.T * w) @ spread
    logdet = np.linalg.slogdet(c)[1] + np.log1p(w.sum() * mbar @ np.linalg.solve(c, mbar))
    bracket = ds.n_classes * np.log(r) - np.sum(np.log(r + counts))
    return 0.5 * ds.dim * bracket - 0.5 * counts.sum() * logdet, within


class TestLargeCommonOffset:
    """A common offset must not cancel the within-class spread away."""

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_evidence_matches_centred_reference(self, offset):
        ds, r = offset_dataset(offset), 1e-3
        stats = accumulate(ds)
        want, within = centred_log_evidence(ds, r)
        got = log_evidence_noninformative(stats, r)
        # Any N x N B* is rounded to eps * max|B*| per entry, which moves
        # the within-class eigenvalues by that much and the evidence by
        # up to (T/2) N eps max|B*| / lambda_min(W). That floor is 2e-10
        # relative at 1e6 and 2e-6 at 1e8; raw moments missed by 2.8e-5
        # and 5%.
        b_max = np.abs(posterior(stats, PriorHyper.noninformative(r)).b_star).max()
        floor = (0.5 * ds.n_patterns * ds.dim * np.finfo(float).eps * b_max
                 / np.linalg.eigvalsh(within)[0])
        assert abs(got - want) <= max(1e-9 * abs(want), floor)

    def test_tiny_r_posterior_builds_at_offset_1e10(self):
        stats = accumulate(offset_dataset(1e10))
        model = build_model(posterior(stats, PriorHyper.noninformative(1e-6)))
        assert np.isfinite(model.log_norm).all()

    def test_tune_r_finds_a_finite_evidence_at_offset_1e8(self):
        # B* is positive definite here only for r up to about 1e-2, so
        # the bracket's upper end is degenerate.
        stats = accumulate(offset_dataset(1e8))
        tuned = tune_r(stats, 1e-3, 1e3)
        assert 1e-3 <= tuned <= 1e-2
        assert np.isfinite(log_evidence_noninformative(stats, tuned))
        with pytest.raises(DegenerateScatter):
            log_evidence_noninformative(stats, 1e3)
