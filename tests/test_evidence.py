import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import multigammaln

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
from gausset import linalg
from gausset.errors import DegenerateScatter, DomainError, ImproperPrior
from gausset.montecarlo import sample_dataset

from conftest import offset_dataset


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
        gen = np.random.default_rng(2024)
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
        gen = np.random.default_rng(5)
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

        gen1 = np.random.default_rng(6)
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
        gen = np.random.default_rng(99)
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

    def test_never_below_any_grid_point_on_a_two_peak_curve(self):
        # Two large classes near the origin favour strong shrinkage, one
        # small far-off class favours weak shrinkage: the curve has local
        # peaks near r = 1.7 and r = 72, and the lower one is the global
        # maximum. Golden section alone settles on the other one.
        stats = SufficientStats([1044, 595, 3], [[-0.2, -0.35, -5.2]], [[11400.0]])
        grid = np.geomspace(1e-3, 1e3, 1000)
        values = evidence_curve(stats, grid).log_evidence
        tuned = tune_r(stats, 1e-3, 1e3, tol=1e-8)
        best = values.max()
        assert log_evidence_noninformative(stats, tuned) >= best - 1e-9 * abs(best)

    def test_degenerate_everywhere_propagates(self):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        with pytest.raises(DegenerateScatter):
            tune_r(accumulate(ds), 1e-2, 1e2, tol=1e-6)

    def test_bad_range(self, worked_stats):
        with pytest.raises(DomainError):
            tune_r(worked_stats, 2.0, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, worked_stats, deadline, tol):
        with pytest.raises(DomainError):
            tune_r(worked_stats, 1e-3, 1e3, tol=tol)

    def test_tol_below_rounding_returns(self, worked_stats, deadline):
        # The golden-section bracket cannot shrink below a few ulps of log r.
        tuned = tune_r(worked_stats, 1e-2, 1e2, tol=1e-300)
        assert np.log(tuned) == pytest.approx(
            np.log(tune_r(worked_stats, 1e-2, 1e2, tol=1e-12)), abs=1e-11)


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
    return 0.5 * ds.dim * bracket - 0.5 * counts.sum() * logdet


def proper_offset_dataset(offset):
    """120 rows, N = 5, K = 4 with 30 rows each, unit noise, a common offset."""
    rng = np.random.default_rng(1)
    means = rng.normal(0.0, 3.0, (4, 5))
    labels = np.repeat(np.arange(4), 30)
    x = means[labels] + rng.normal(size=(120, 5)) + offset
    return LabeledDataset(x, labels, ("a", "b", "c", "d"))


def exact_log_det(matrix):
    """log det of a positive definite matrix of Fractions, by exact elimination."""
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for j in range(len(m)):
        det *= m[j][j]
        for i in range(j + 1, len(m)):
            factor = m[i][j] / m[j][j]
            for c in range(j, len(m)):
                m[i][c] -= factor * m[j][c]
    return math.log(det.numerator) - math.log(det.denominator)


def exact_log_evidence_proper(ds, prior):
    """The documented proper log evidence with both log dets taken exactly.

    B* = B + S - sum_k f_k f_k^T / (r + T_k) is formed from the rows as
    Fractions, so none of its offset-sized entries is rounded.
    """
    n, t, r = ds.dim, ds.n_patterns, Fraction(prior.r)
    b_star = [[Fraction(v) for v in row] for row in prior.b]
    logdet_b = exact_log_det(b_star)
    counts = []
    for k in range(ds.n_classes):
        rows = [[Fraction(v) for v in x] for x in ds.patterns[ds.labels == k]]
        f = [sum(column) for column in zip(*rows)]
        for i in range(n):
            for j in range(n):
                b_star[i][j] += sum(x[i] * x[j] for x in rows) - f[i] * f[j] / (r + len(rows))
        counts.append(len(rows))
    a, a_star = prior.a, prior.a + t
    bracket = ds.n_classes * math.log(prior.r) - sum(math.log(prior.r + c) for c in counts)
    return (-0.5 * t * n * math.log(2.0 * math.pi)
            + multigammaln(a_star / 2.0, n) - multigammaln(a / 2.0, n)
            + 0.5 * a * (logdet_b - n * math.log(2.0))
            - 0.5 * a_star * (exact_log_det(b_star) - n * math.log(2.0))
            + 0.5 * n * bracket)


class TestLargeCommonOffset:
    """A common offset must not cancel the within-class spread away."""

    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-12), (1e8, 1e-9), (1e10, 1e-7)])
    def test_proper_evidence_matches_exact_reference(self, offset, rtol):
        ds = proper_offset_dataset(offset)
        stats = accumulate(ds)
        for r in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3):
            prior = PriorHyper(r=r, a=ds.dim + 1.0, b=1e-3 * np.eye(ds.dim))
            want = exact_log_evidence_proper(ds, prior)
            assert abs(log_evidence_proper(stats, prior) - want) <= rtol * abs(want), r

    def test_proper_evidence_factors_b_and_b_plus_w_only(self, monkeypatch):
        stats = accumulate(proper_offset_dataset(1e10))
        prior = PriorHyper(r=1.0, a=stats.dim + 1.0, b=1e-3 * np.eye(stats.dim))
        factor = linalg.cholesky
        calls = []
        monkeypatch.setattr(linalg, "cholesky", lambda a: calls.append(a) or factor(a))
        assert np.isfinite(log_evidence_proper(stats, prior))
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], prior.b)
        np.testing.assert_array_equal(calls[1], linalg.symmetrize(prior.b + stats.within))

    @pytest.mark.parametrize("offset", [1e6, 1e8, 1e10])
    def test_evidence_matches_centred_reference(self, offset):
        ds, r = offset_dataset(offset), 1e-3
        want = centred_log_evidence(ds, r)
        got = log_evidence_noninformative(accumulate(ds), r)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_tiny_r_posterior_builds_at_offset_1e10(self):
        stats = accumulate(offset_dataset(1e10))
        model = build_model(posterior(stats, PriorHyper.noninformative(1e-6)))
        assert np.isfinite(model.log_norm).all()

    def test_tune_r_finds_a_finite_evidence_at_offset_1e8(self):
        # B* is positive definite over the whole bracket, although an
        # N x N factor of it passes the pivot check only up to r ~ 1e-2.
        ds = offset_dataset(1e8)
        stats = accumulate(ds)
        tuned = tune_r(stats, 1e-3, 1e3)
        assert 1e-3 <= tuned <= 1e-2
        assert np.isfinite(log_evidence_noninformative(stats, tuned))
        want = centred_log_evidence(ds, 1e3)
        assert want == pytest.approx(-11699.875, abs=1e-3)
        assert log_evidence_noninformative(stats, 1e3) == pytest.approx(want, rel=1e-9)


@st.composite
def evidence_datasets(draw):
    """Small random datasets on both sides of the W switch.

    N 1-6, K 1-5 with some classes empty, and T from N up to N + K' + 3
    rows for the K' non-empty classes (at least one row each), so the
    within-class scatter is singular for some draws and not for others.
    """
    dim = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 5))
    filled = draw(st.integers(1, n_classes))
    n_rows = draw(st.integers(max(dim, filled), dim + filled + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(filled), rng.integers(0, filled, n_rows - filled)])
    labels = rng.permutation(rng.permutation(n_classes)[:filled][labels])
    means = rng.normal(0.0, 3.0, (n_classes, dim))
    patterns = means[labels] + rng.normal(size=(n_rows, dim))
    return LabeledDataset(patterns, labels, tuple(f"c{k}" for k in range(n_classes)))


def dense_log_evidence(stats, r):
    """N x N reference: B*(r) = W + sum_k w_k m_k m_k^T from the statistics,
    factored directly. Returns the value, NaN where the factor fails the
    1e-12 pivot rule, and the rounding floor (T/2) N eps cond(B*) that
    any route to an N x N log det carries."""
    counts = stats.counts.astype(float)
    b_star = stats.within + (stats.means * (r * counts / (r + counts))) @ stats.means.T
    floor = 0.5 * stats.total * stats.dim * np.finfo(float).eps * np.linalg.cond(b_star)
    try:
        lower = np.linalg.cholesky(b_star)
    except np.linalg.LinAlgError:
        return np.nan, floor
    if np.any(np.diag(lower) ** 2 <= 1e-12 * b_star.diagonal().max()):
        return np.nan, floor
    bracket = stats.n_classes * np.log(r) - np.sum(np.log(r + counts))
    return 0.5 * stats.dim * bracket - counts.sum() * np.sum(np.log(np.diag(lower))), floor


class TestBatchedEvidence:
    GRID = np.geomspace(1e-3, 1e3, 13)

    @settings(max_examples=100, deadline=None)
    @given(evidence_datasets())
    def test_curve_matches_single_calls_and_dense_reference(self, ds):
        stats = accumulate(ds)
        curve = evidence_curve(stats, self.GRID).log_evidence
        reference = [dense_log_evidence(stats, r) for r in self.GRID]
        np.testing.assert_array_equal(np.isnan(curve), [np.isnan(w) for w, _ in reference])
        for r, value, (want, floor) in zip(self.GRID, curve, reference):
            if np.isnan(want):
                with pytest.raises(DegenerateScatter):
                    log_evidence_noninformative(stats, r)
                continue
            assert log_evidence_noninformative(stats, r) == value
            # Where W is singular the N x N path runs and B* can be near
            # singular too (T = N, small r), so the floor can exceed 1e-9.
            assert abs(value - want) <= 1e-9 * abs(want) + floor
