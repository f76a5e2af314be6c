import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gausset import (
    PriorHyper,
    accumulate,
    build_model,
    log_predictive,
    mc_predictive,
    posterior,
    run_verification,
    sample_dataset,
    sample_matrix_normal,
    sample_wishart,
    seeded_generator,
)
from gausset import linalg, montecarlo
from gausset.errors import DimensionMismatch, DomainError, NotPositiveDefinite, ShapeMismatch
from gausset.linalg import cholesky
from gausset.model_io import load_model, save_model
from gausset.predictive import PredictiveModel

from conftest import traced_peak


def make_posterior(seed, dim, counts, r=0.5):
    gen = np.random.default_rng(seed)
    ds, _ = sample_dataset(gen, dim=dim, counts=counts, r_true=1.0)
    prior = PriorHyper(r=r, a=dim + 2.0, b=np.eye(dim))
    return posterior(accumulate(ds), prior)


@functools.cache
def small_model(dim):
    return build_model(make_posterior(40 + dim, dim, [4, 5]))


@functools.cache
def wrong_form_model(shape):
    """A model of the benchmark's `tall` or `wide` size, noise 0.2, and its S."""
    dim, counts, n_samples = {"tall": (20, [2000] * 10, 20000),
                              "wide": (200, [100] * 6, 200)}[shape]
    ds, _ = sample_dataset(np.random.default_rng(70), dim, counts, 1.0,
                           precision=25.0 * np.eye(dim))
    return build_model(posterior(accumulate(ds), PriorHyper.noninformative(1.0))), n_samples


class TestSeededGenerator:
    def test_same_seed_same_stream(self):
        a = seeded_generator(123).standard_normal(10)
        b = np.random.Generator(np.random.PCG64(123)).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_negative_or_fractional_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            seeded_generator(seed)

    @pytest.mark.parametrize("seed", [True, False])
    def test_rejects_bool_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            seeded_generator(seed)


class TestSampleWishart:
    def test_mean_matches_analytic(self):
        # The (a, B) parametrization has mean a B^{-1}; this pins the
        # convention before any oracle result is trusted.
        a = 5.0
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        gen = np.random.default_rng(7)
        n = 20000
        samples = sample_wishart(gen, a, b, size=n)
        expected = a * np.linalg.inv(b)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - expected) <= 3.0 * se)

    def test_1d_reduces_to_gamma(self):
        # With B = 1 the density is Gamma(shape a/2, rate 1/2): mean a,
        # variance 2a.
        a = 6.5
        gen = np.random.default_rng(8)
        n = 40000
        draws = sample_wishart(gen, a, [[1.0]], size=n)[:, 0, 0]
        assert draws.mean() == pytest.approx(a, abs=3.0 * draws.std() / np.sqrt(n))
        assert draws.var(ddof=1) == pytest.approx(2.0 * a, rel=0.05)

    def test_every_sample_is_positive_definite(self):
        gen = np.random.default_rng(9)
        b = np.array([[2.0, -0.4, 0.1], [-0.4, 1.5, 0.3], [0.1, 0.3, 0.9]])
        for draw in sample_wishart(gen, 4.2, b, size=200):
            cholesky(draw)

    def test_second_moment_matches_analytic(self):
        # Var(Lambda_ij) = a (Sigma_ij^2 + Sigma_ii Sigma_jj) with
        # Sigma = B^{-1}. The mean alone does not pin the sampler: a
        # Bartlett factor with chi-square(a) on every diagonal entry and no
        # normals below it keeps the mean a B^{-1} but not these variances.
        a = 7.0
        b = np.array([[2.0, -0.4, 0.1], [-0.4, 1.5, 0.3], [0.1, 0.3, 0.9]])
        samples = sample_wishart(np.random.default_rng(14), a, b, size=200000)
        sigma = np.linalg.inv(b)
        expected = a * (sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma)))
        np.testing.assert_allclose(samples.var(axis=0, ddof=1), expected, rtol=0.05)

    def test_bartlett_draw_order(self):
        # The diagonal chi-squares are drawn first, column by column, then
        # the normals below the diagonal in np.tril_indices order, so a
        # seed gives the same Wishart draws as it always has.
        a, dim, n, seed = 6.5, 4, 3, 16
        b = np.array([[2.0, -0.4, 0.1, 0.0], [-0.4, 1.5, 0.3, 0.2],
                      [0.1, 0.3, 0.9, -0.1], [0.0, 0.2, -0.1, 1.2]])
        draws = sample_wishart(np.random.default_rng(seed), a, b, size=n)
        rng = np.random.default_rng(seed)
        bart = np.zeros((n, dim, dim))
        for i in range(dim):
            bart[:, i, i] = np.sqrt(rng.chisquare(a - i, size=n))
        bart[(slice(None),) + np.tril_indices(dim, -1)] = rng.standard_normal(
            (n, dim * (dim - 1) // 2))
        g = np.linalg.inv(np.linalg.cholesky(b)).T @ bart
        np.testing.assert_allclose(draws, g @ g.transpose(0, 2, 1), rtol=1e-12, atol=1e-14)

    def test_underflowing_bartlett_draws_are_raised_to_tiny(self):
        # chi-square(0.02) underflows to 0 now and then; such draws become
        # the smallest normal float, and every larger draw is kept as drawn.
        raw = np.random.default_rng(17).chisquare(0.02, size=20000)
        diag = montecarlo._bartlett_diagonal(np.random.default_rng(17), 0.02, 1, 20000)[:, 0]
        tiny = np.finfo(np.float64).tiny
        keep = raw >= tiny
        assert not keep.all()
        np.testing.assert_array_equal(diag[keep], np.sqrt(raw[keep]))
        assert (diag[~keep] == np.sqrt(tiny)).all()

    @pytest.mark.parametrize("a, dim", [(3.5, 1), (14.0, 3), (40.0, 20), (20022.0, 20)])
    def test_bartlett_log_det_folds_the_diagonal(self, a, dim):
        # The same chi-square columns as _bartlett_diagonal, in its order,
        # summed as they are drawn: the generator ends in the same state.
        # (Near a = N - 1 the entries' logs cancel, and at N = 200 numpy's
        # pairwise row sums differ from the running sum by up to 1.7e-15.)
        folded, whole = np.random.default_rng(19), np.random.default_rng(19)
        log_det = montecarlo._bartlett_log_det(folded, a, dim, 5000)
        reference = np.log(montecarlo._bartlett_diagonal(whole, a, dim, 5000)).sum(axis=1)
        np.testing.assert_allclose(log_det, reference, rtol=1e-15, atol=0.0)
        assert folded.bit_generator.state == whole.bit_generator.state

    def test_bartlett_log_det_holds_no_sample_matrix(self):
        # The running sum and one column, where the (S, N) diagonal is ten.
        dim, n_samples, gen = 10, 20000, np.random.default_rng(20)
        peak, log_det = traced_peak(lambda: montecarlo._bartlett_log_det(
            gen, 15.0, dim, n_samples))
        assert log_det.shape == (n_samples,)
        assert peak <= 2 * n_samples * 8 + 64 * 1024

    def test_vector_scale_rejected(self):
        with pytest.raises(DimensionMismatch, match="expected square matrices"):
            sample_wishart(np.random.default_rng(18), 3.0, np.ones(2))

    def test_size_none_is_first_of_size_one(self):
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        single = sample_wishart(np.random.default_rng(15), 5.0, b)
        batch = sample_wishart(np.random.default_rng(15), 5.0, b, size=1)
        assert single.shape == (2, 2) and batch.shape == (1, 2, 2)
        np.testing.assert_array_equal(single, batch[0])

    def test_domain_errors(self):
        gen = np.random.default_rng(10)
        with pytest.raises(DomainError):
            sample_wishart(gen, 1.0, np.eye(2))  # needs a > N - 1
        with pytest.raises(DomainError):
            sample_wishart(gen, 5.0, np.zeros((2, 2)))
        for a in (np.inf, np.nan):
            with pytest.raises(DomainError):
                sample_wishart(gen, a, np.eye(2))

    def test_nan_scale_entry_is_a_domain_error(self):
        with pytest.raises(DomainError, match="not positive definite") as caught:
            sample_wishart(np.random.default_rng(10), 3.0, [[np.nan, 0.0], [0.0, 1.0]])
        assert "non-finite entry" in str(caught.value.__cause__)


class TestSampleMatrixNormal:
    def test_column_means(self):
        gen = np.random.default_rng(11)
        m = np.array([[1.0, -2.0], [0.5, 3.0]])
        r_diag = np.array([2.0, 5.0])
        chol_prec = cholesky(np.array([[1.5, 0.4], [0.4, 1.0]]))
        n = 20000
        draws = np.array([sample_matrix_normal(gen, m, r_diag, chol_prec)
                          for _ in range(n)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - m) <= 3.0 * se)

    def test_column_covariance(self):
        # Column k has covariance Lambda^{-1} / r_k.
        gen = np.random.default_rng(12)
        precision = np.array([[1.5, 0.4], [0.4, 1.0]])
        r_diag = np.array([2.0, 5.0])
        chol_prec = cholesky(precision)
        n = 40000
        draws = np.array([sample_matrix_normal(gen, np.zeros((2, 2)), r_diag,
                                               chol_prec) for _ in range(n)])
        lam_inv = np.linalg.inv(precision)
        for k in range(2):
            cov = np.cov(draws[:, :, k], rowvar=False)
            expected = lam_inv / r_diag[k]
            err = np.linalg.norm(cov - expected) / np.linalg.norm(expected)
            assert err < 0.05

    @pytest.mark.parametrize("m, r_diag, error", [
        (np.zeros((2, 2)), np.ones(3), ShapeMismatch),
        (np.zeros(2), np.ones(2), ShapeMismatch),
        (np.zeros((3, 2)), np.ones(2), ShapeMismatch),
        (np.zeros((2, 2)), np.array([1.0, 0.0]), DomainError),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), np.ones(2), DomainError),
        (np.array([[0.0, 0.0], [np.inf, 0.0]]), np.ones(2), DomainError),
        (np.zeros((2, 2)), np.array([np.nan, 1.0]), DomainError),
        (np.zeros((2, 2)), np.array([1.0, np.inf]), DomainError),
    ], ids=["class-count", "means-vector", "dimension", "zero-precision", "nan-mean",
            "inf-mean", "nan-precision", "inf-precision"])
    def test_inconsistent_arguments_rejected(self, m, r_diag, error):
        with pytest.raises(error):
            sample_matrix_normal(np.random.default_rng(0), m, r_diag, cholesky(np.eye(2)))

    def test_concentrates_at_large_precision(self):
        gen = np.random.default_rng(13)
        m = np.array([[2.0], [-1.0]])
        draw = sample_matrix_normal(gen, m, np.array([1e12]), cholesky(np.eye(2)))
        assert np.max(np.abs(draw - m)) < 1e-5


class TestMcPredictive:
    def test_agrees_with_closed_form(self):
        cases = [(1, [4, 5]), (2, [5, 3]), (3, [6])]
        rng = np.random.default_rng(21)
        for i, (dim, counts) in enumerate(cases):
            post = make_posterior(100 + i, dim, counts)
            model = build_model(post)
            x = rng.normal(0.0, 1.5, size=dim)
            k = int(rng.integers(0, len(counts)))
            closed = np.exp(log_predictive(model, x, k))
            estimate, se = mc_predictive(np.random.default_rng(200 + i), model, x, k, 40000)
            assert abs(estimate - closed) <= 3.0 * se

    def test_single_sample_error_stays_infinite_when_its_weight_underflows(self):
        # log w is about -4800 here, so exp(shift) is 0; 0 * inf must not
        # turn the one-sample error into NaN.
        model = small_model(2)
        x = model.mu_star[:, 0] + 1e150
        assert mc_predictive(np.random.default_rng(37), model, x, 0, 1) == (0.0, math.inf)

    def test_single_sample_is_finite_density(self):
        post = make_posterior(30, 2, [4, 4])
        estimate, se = mc_predictive(np.random.default_rng(31), build_model(post), np.zeros(2), 0, 1)
        assert np.isfinite(estimate) and estimate > 0
        assert se == np.inf

    def test_doubling_samples_shrinks_error_by_sqrt2(self):
        post = make_posterior(32, 2, [5, 5])
        x = np.array([0.4, -0.7])
        ratios = []
        for seed in (41, 42, 43, 44):
            _, se_n = mc_predictive(np.random.default_rng(seed), build_model(post), x, 0, 30000)
            _, se_2n = mc_predictive(np.random.default_rng(seed + 100), build_model(post), x, 0, 60000)
            ratios.append(se_n / se_2n)
        assert np.mean(ratios) == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_error_shrinks_with_more_samples(self):
        # At 1e3, 1e4 and 1e5 samples every estimate lies within 4 of its
        # own standard errors of the closed form, and the error falls as
        # 1/sqrt(n): SE(1e3)/SE(1e5) is about 10.
        rng = np.random.default_rng(22)
        ratios = []
        for i in range(5):
            post = make_posterior(300 + i, 2, [5, 4])
            model = build_model(post)
            x = rng.normal(0.0, 1.0, size=2)
            closed = np.exp(log_predictive(model, x, 0))
            ses = []
            for n in (1000, 10000, 100000):
                estimate, se = mc_predictive(np.random.default_rng(400 + i), model, x, 0, n)
                assert abs(estimate - closed) <= 4.0 * se, (i, n)
                ses.append(se)
            ratios.append(ses[0] / ses[2])
        assert 7.0 <= np.median(ratios) <= 14.0

    def test_agrees_with_brute_force(self):
        # An independent estimator of the same integral: full Lambda draws,
        # mu drawn given each Lambda, and the Gaussian density from
        # np.linalg. It shares no sampling step with mc_predictive.
        cases = [(1, [4, 5]), (2, [5, 3]), (3, [6])]
        rng = np.random.default_rng(23)
        n = 4000
        for i, (dim, counts) in enumerate(cases):
            post = make_posterior(500 + i, dim, counts)
            x = rng.normal(0.0, 1.5, size=dim)
            k = int(rng.integers(0, len(counts)))
            gen = np.random.default_rng(600 + i)
            lams = sample_wishart(gen, post.a_star, post.b_star, size=n)
            mus = np.array([sample_matrix_normal(gen, post.m_star[:, [k]],
                                                 post.r_star_diag[[k]],
                                                 cholesky(lam))[:, 0]
                            for lam in lams])
            diff = x - mus
            log_w = (0.5 * np.linalg.slogdet(lams)[1]
                     - 0.5 * dim * np.log(2.0 * np.pi)
                     - 0.5 * np.einsum("si,sij,sj->s", diff, lams, diff))
            w = np.exp(log_w)
            brute, brute_se = w.mean(), w.std(ddof=1) / np.sqrt(n)
            estimate, se = mc_predictive(np.random.default_rng(700 + i), build_model(post), x, k, n)
            assert abs(estimate - brute) <= 3.0 * np.hypot(se, brute_se), (dim, estimate, brute)

    def test_deterministic_given_seed(self):
        post = make_posterior(33, 2, [4, 4])
        x = np.array([1.0, 0.0])
        first = mc_predictive(np.random.default_rng(5150), build_model(post), x, 1, 5000)
        second = mc_predictive(np.random.default_rng(5150), build_model(post), x, 1, 5000)
        assert first == second

    def test_estimate_pinned_bit_for_bit(self):
        # The default suite's plain estimator, as it stood when it was the
        # public one and drew its normals a block at a time: same draws,
        # same float operations.
        model = build_model(make_posterior(38, 3, [5, 4]))
        x = np.array([0.3, -1.0, 0.8])
        got = montecarlo._mc_plain(np.random.default_rng(2718), model, x, 1, 20000)
        assert repr(got) == "(0.06337774021934485, 0.00030679898423108796)"

    def test_importance_sampled_estimate_pinned_bit_for_bit(self):
        model = build_model(make_posterior(38, 3, [5, 4]))
        x = np.array([0.3, -1.0, 0.8])
        got = mc_predictive(np.random.default_rng(2718), model, x, 1, 20000)
        assert repr(got) == "(0.0631010805452056, 0.00015742967323379757)"

    def test_draws_only_the_bartlett_chi_squares(self):
        # N chi-square columns and no normal: a passed log_det leaves the
        # generator untouched, and without one the call consumes exactly
        # what _bartlett_log_det draws.
        model, x = small_model(3), np.array([0.3, -1.0, 0.8])
        gen = np.random.default_rng(69)
        state = gen.bit_generator.state
        mc_predictive(gen, model, x, 0, 500, log_det=np.zeros(500))
        assert gen.bit_generator.state == state
        mc_predictive(gen, model, x, 0, 500)
        ref = np.random.default_rng(69)
        montecarlo._bartlett_log_det(ref, model.a_star, 3, 500)
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_passed_diagonal_matches_own_draw(self, dim):
        # The shared Bartlett diagonal comes in folded, as its (S,)
        # log-determinant. Drawing it from the same stream just before the
        # call is the call's own draw, so the estimates agree repr for repr.
        model, k = small_model(dim), 1
        x = np.linspace(-0.5, 0.7, dim)
        rng = np.random.default_rng(61)
        log_det = montecarlo._bartlett_log_det(rng, model.a_star, dim, 3000)
        shared = mc_predictive(rng, model, x, k, 3000, log_det=log_det)
        own = mc_predictive(np.random.default_rng(61), model, x, k, 3000)
        assert repr(shared) == repr(own)

    def test_read_only_diagonal_is_left_unchanged(self):
        model, x = small_model(3), np.array([0.3, -1.0, 0.8])
        log_det = montecarlo._bartlett_log_det(np.random.default_rng(62), model.a_star, 3, 500)
        before = log_det.copy()
        log_det.flags.writeable = False
        first = mc_predictive(np.random.default_rng(63), model, x, 0, 500, log_det=log_det)
        second = mc_predictive(np.random.default_rng(63), model, x, 0, 500, log_det=log_det)
        np.testing.assert_array_equal(log_det, before)
        assert np.isfinite(first).all() and first == second

    @pytest.mark.parametrize("shape", [(500, 3), (499,), (501,), (1, 500)])
    def test_diagonal_of_wrong_shape_draws_nothing(self, shape):
        # log_det is (S,), so an (S, N) Bartlett diagonal is refused too.
        gen = np.random.default_rng(64)
        state = gen.bit_generator.state
        with pytest.raises(ShapeMismatch, match="Bartlett log-determinant has shape"):
            mc_predictive(gen, small_model(3), np.zeros(3), 0, 500, log_det=np.ones(shape))
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_diagonal_not_finite_and_positive_draws_nothing(self, bad):
        # A diagonal entry that is not finite and positive has a log that
        # is not finite, and the log-determinant that holds it is refused.
        gen = np.random.default_rng(65)
        state = gen.bit_generator.state
        diagonal = np.ones((500, 3))
        diagonal[250, 1] = bad
        with np.errstate(divide="ignore", invalid="ignore"):
            log_det = np.log(diagonal).sum(axis=1)
        with pytest.raises(DomainError, match="must be finite"):
            mc_predictive(gen, small_model(3), np.zeros(3), 0, 500, log_det=log_det)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("x", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_pattern_raises_as_scorer_does(self, x):
        # The scorer's ValueError, before the diagonal is drawn, not (nan, nan).
        model, gen = small_model(2), np.random.default_rng(66)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="patterns must not contain infs or NaNs"):
            log_predictive(model, x, 0)
        with pytest.raises(ValueError, match="patterns must not contain infs or NaNs"):
            mc_predictive(gen, model, x, 0, 1000)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("dim, x", [(2, (1e160, 0.0)), (2, (0.0, 1e160)), (1, (1e160,))])
    def test_overflowing_pattern_is_domain_error(self, dim, x):
        # d or its tail sums overflow: a DomainError before any draw, with
        # no overflow warning (warnings are errors here) and no NaN.
        gen = np.random.default_rng(67)
        state = gen.bit_generator.state
        with pytest.raises(DomainError, match="too far"):
            mc_predictive(gen, small_model(dim), x, 0, 1000)
        assert gen.bit_generator.state == state

    def test_exponent_overflow_is_a_zero_weight(self):
        # ||d||^2 is finite at both points but (A_jj d_j)^2 overflows in
        # some samples at 1e154 and in all of them at 3e154. An infinite
        # exponent is a zero weight, raising no warning; when every weight
        # is zero the call raises rather than return 0/0 = NaN.
        # The default suite's plain estimator is the one with that exponent.
        model, plain = small_model(1), montecarlo._mc_plain
        assert plain(np.random.default_rng(68), model, np.array([1e154]), 0, 1000) == (0.0, 0.0)
        with pytest.raises(DomainError, match="every sample's Gaussian exponent overflows"):
            plain(np.random.default_rng(68), model, np.array([3e154]), 0, 1000)

    def test_peak_memory_is_a_few_sample_vectors(self):
        # The (S,) log-determinant, then the (S,) log weights beside it: no
        # (S, N) array, which here would be ten of them.
        dim, n_samples = 10, 20000
        model = build_model(make_posterior(39, dim, [30, 30]))
        peak, (estimate, _) = traced_peak(lambda: mc_predictive(
            np.random.default_rng(3), model, np.zeros(dim), 0, n_samples))
        assert np.isfinite(estimate)
        assert peak <= 2 * n_samples * 8 + 64 * 1024

    def test_peak_memory_at_one_feature_is_two_sample_arrays(self):
        # At N = 1 the log-determinant and the log weights are each
        # S N 8 bytes.
        n_samples = 20000
        model = build_model(make_posterior(39, 1, [30, 30]))
        peak, (estimate, _) = traced_peak(lambda: mc_predictive(
            np.random.default_rng(3), model, np.zeros(1), 0, n_samples))
        assert np.isfinite(estimate)
        assert peak <= 2 * n_samples * 8 + 128 * 1024

    def test_reloaded_model_gives_identical_estimate(self, tmp_path):
        model = build_model(make_posterior(36, 3, [5, 4]))
        save_model(model, tmp_path / "model.json")
        loaded, _ = load_model(tmp_path / "model.json")
        x = np.array([0.3, -1.0, 0.8])
        assert (mc_predictive(np.random.default_rng(37), loaded, x, 1, 5000)
                == mc_predictive(np.random.default_rng(37), model, x, 1, 5000))

    def test_validation(self):
        post = make_posterior(34, 2, [4, 4])
        gen = np.random.default_rng(35)
        with pytest.raises(IndexError):
            mc_predictive(gen, build_model(post), np.zeros(2), 9, 10)
        with pytest.raises(DomainError):
            mc_predictive(gen, build_model(post), np.zeros(2), 0, 0)

    @pytest.mark.parametrize("n_samples", [2.5, 2.0, "20", None])
    def test_non_integer_sample_count_draws_nothing(self, n_samples):
        gen = np.random.default_rng(35)
        state = gen.bit_generator.state
        with pytest.raises(DomainError, match="whole number of samples"):
            mc_predictive(gen, small_model(2), np.zeros(2), 0, n_samples)
        assert gen.bit_generator.state == state

    def test_numpy_integer_sample_count(self):
        model, x = small_model(2), np.zeros(2)
        assert (mc_predictive(np.random.default_rng(36), model, x, 0, np.int64(50))
                == mc_predictive(np.random.default_rng(36), model, x, 0, 50))


class TestMeanAndError:
    # Every Monte-Carlo probe takes its mean and standard error from here.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50), st.sampled_from([(), (2, 2)]), st.data())
    def test_matches_numpy(self, n_samples, tail, data):
        # Multiples of 1/1024: no squared deviation is a subnormal float,
        # where the two ways of rounding the error part by more than 1e-15.
        samples = data.draw(hnp.arrays(np.float64, (n_samples,) + tail,
                                       elements=st.integers(-10**9, 10**9).map(lambda i: i / 1024)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, error = montecarlo._mean_and_error(samples.copy())
        assert np.array_equal(mean, samples.mean(axis=0))
        if n_samples == 1:
            assert np.all(error == math.inf) and np.shape(error) == tail
        else:
            np.testing.assert_allclose(
                error, samples.std(axis=0, ddof=1) / np.sqrt(n_samples), rtol=1e-15, atol=0)


class TestSampleDataset:
    def test_zero_count_class_has_no_rows(self):
        gen = np.random.default_rng(50)
        ds, means = sample_dataset(gen, dim=2, counts=[5, 0, 3], r_true=1.0)
        assert ds.n_classes == 3
        assert not np.any(ds.labels == 1)
        assert means.shape == (2, 3)

    def test_large_class_mean_near_truth(self):
        # Law of large numbers: the sample mean sits within 4 / sqrt(T_k)
        # scale units of the sampled class mean (unit within-class scale).
        gen = np.random.default_rng(51)
        count = 400
        ds, means = sample_dataset(gen, dim=2, counts=[count], r_true=1.0)
        sample_mean = ds.patterns.mean(axis=0)
        assert np.all(np.abs(sample_mean - means[:, 0])
                      <= 4.0 / np.sqrt(count))

    def test_deterministic(self):
        ds1, _ = sample_dataset(np.random.default_rng(52), 2, [3, 3], 1.0)
        ds2, _ = sample_dataset(np.random.default_rng(52), 2, [3, 3], 1.0)
        np.testing.assert_array_equal(ds1.patterns, ds2.patterns)

    def test_rows_match_per_class_draws(self):
        # Rows are drawn class by class from one stream, after the means, so
        # a seed gives the dataset it always has. A diagonal precision gives
        # bit-identical rows; a full one may differ in the last bits with
        # the shape of the matrix product.
        counts = [4, 0, 6, 3]
        a = np.random.default_rng(54).standard_normal((5, 5))
        for precision, rtol in ((2.5 * np.eye(5), 0.0), (a @ a.T + 5.0 * np.eye(5), 1e-13)):
            ds, means = sample_dataset(np.random.default_rng(55), 5, counts, 0.7,
                                       precision=precision)
            rng = np.random.default_rng(55)
            chol = cholesky(precision)
            expected = sample_matrix_normal(rng, np.zeros((5, 4)), np.full(4, 0.7), chol)
            rows = [expected[:, k] + rng.standard_normal((c, 5)) @ chol.inverse
                    for k, c in enumerate(counts)]
            np.testing.assert_array_equal(means, expected)
            np.testing.assert_allclose(ds.patterns, np.vstack(rows), rtol=rtol, atol=rtol)
            np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(4), counts))

    def test_validation(self):
        gen = np.random.default_rng(53)
        with pytest.raises(DomainError):
            sample_dataset(gen, 0, [3], 1.0)
        with pytest.raises(DomainError):
            sample_dataset(gen, 2, [3], 0.0)
        with pytest.raises(DomainError):
            sample_dataset(gen, 2, [-1], 1.0)

    def test_nan_precision_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite, match="non-finite entry"):
            sample_dataset(np.random.default_rng(53), 2, [3], 1.0,
                           precision=[[1.0, 0.0], [0.0, np.nan]])


class TestRunVerification:
    def test_default_suite_passes(self):
        report = run_verification(seed=20260808, n_samples=20000)
        assert report["all_pass"], report
        names = [p["probe"] for p in report["probes"]]
        assert "wishart-mean" in names
        assert "evidence-chain-rule" in names
        assert sum(n.startswith("mc-predictive") for n in names) == 3

    def test_fitted_model_passes(self, worked_posterior):
        model = build_model(worked_posterior, class_names=("a", "b"))
        report = run_verification(seed=3, n_samples=20000, model=model)
        assert report["all_pass"], report

    def test_single_sample_cannot_pass(self, worked_posterior):
        # One sample has an infinite standard error, and |est - ref| <= 3 inf
        # would accept any estimate.
        model = build_model(worked_posterior, class_names=("a", "b"))
        report = run_verification(seed=3, n_samples=1, model=model)
        assert not report["all_pass"]
        assert not any(p["pass"] for p in report["probes"]
                       if p["probe"].startswith("model-predictive"))

    def test_single_sample_fails_every_default_probe_without_warning(self):
        # One draw has no sample spread, so the Wishart probe's standard
        # error is infinite like every other Monte-Carlo probe's; numpy's
        # ddof warning would be an error under this suite's settings.
        report = run_verification(3, 1)
        verdicts = {p["probe"]: p["pass"] for p in report["probes"]}
        assert verdicts.pop("evidence-chain-rule")
        assert "wishart-mean" in verdicts and not any(verdicts.values())
        assert all(p["std_error"] == math.inf for p in report["probes"]
                   if p["probe"] != "evidence-chain-rule")

    def test_model_run_factors_b_star_once(self, monkeypatch):
        # B* is factored once, when the model is built; the Monte-Carlo
        # probes read the model's own factor and log-determinant.
        model = build_model(make_posterior(38, 2, [4, 5, 6]))
        factor = linalg.cholesky
        calls = []
        monkeypatch.setattr(linalg, "cholesky", lambda a: calls.append(a) or factor(a))
        run_verification(seed=39, n_samples=200, model=model)
        assert len(calls) == 0

    def test_model_probes_share_one_bartlett_diagonal(self, monkeypatch):
        # One (S,) log-determinant for every probe, and no (S, N) diagonal.
        model = build_model(make_posterior(38, 2, [4, 5, 6, 3]))
        draws, calls = [], []
        draw, probe = montecarlo._bartlett_log_det, montecarlo.mc_predictive

        def spy_draw(*args):
            draws.append(draw(*args))
            return draws[-1]

        def spy_probe(*args, **kwargs):
            calls.append(kwargs.get("log_det"))
            return probe(*args, **kwargs)

        def no_diagonal(*args):
            raise AssertionError("a model run draws no Bartlett diagonal")

        monkeypatch.setattr(montecarlo, "_bartlett_log_det", spy_draw)
        monkeypatch.setattr(montecarlo, "_bartlett_diagonal", no_diagonal)
        monkeypatch.setattr(montecarlo, "mc_predictive", spy_probe)
        report = run_verification(seed=39, n_samples=300, model=model)
        assert len(report["probes"]) == 3 and len(draws) == 1 and len(calls) == 3
        assert draws[0].shape == (300,)
        assert all(log_det is draws[0] for log_det in calls)

    def test_model_draw_order(self):
        # x_0, the log-determinant, then x_1 and x_2: the probes draw no
        # normals of their own.
        model, seed, n_samples = build_model(make_posterior(38, 2, [4, 5, 6])), 39, 700
        rng = seeded_generator(seed)
        expected = []
        for k in range(3):
            x = model.mu_star[:, k] + rng.normal(0.0, 1.0, size=2)
            if k == 0:
                log_det = montecarlo._bartlett_log_det(rng, model.a_star, 2, n_samples)
            expected.append(mc_predictive(rng, model, x, k, n_samples, log_det=log_det))
        report = run_verification(seed=seed, n_samples=n_samples, model=model)
        assert [(p["mc_estimate"], p["std_error"]) for p in report["probes"]] == expected

    def test_first_model_probe_pinned_bit_for_bit(self):
        model = build_model(make_posterior(38, 2, [4, 5, 6]))
        first = run_verification(seed=39, n_samples=2000, model=model)["probes"][0]
        assert repr((first["mc_estimate"], first["std_error"], first["ess"])) == (
            "(0.2002108000016143, 0.0010305985271989414, 1899.3922385060919)")

    def test_every_model_probe_reports_the_shared_ess(self):
        # Every probe's weights are exp(log_det) times a constant of its
        # own, so all share (sum w)^2 / sum w^2 of the one draw.
        model, n_samples = build_model(make_posterior(38, 2, [4, 5, 6])), 700
        rng = seeded_generator(39)
        rng.normal(0.0, 1.0, size=2)
        weights = np.exp(montecarlo._bartlett_log_det(rng, model.a_star, 2, n_samples))
        report = run_verification(seed=39, n_samples=n_samples, model=model)
        assert [p["ess"] for p in report["probes"]] == pytest.approx(
            [weights.sum() ** 2 / (weights @ weights)] * 3, rel=1e-12)
        assert all(1.0 <= p["ess"] <= n_samples for p in report["probes"])

    def test_default_suite_pinned_bit_for_bit(self):
        # The default suite draws a diagonal per probe, as it always has.
        report = run_verification(seed=42, n_samples=2000)
        assert report == {"probes": [
            {"probe": "wishart-mean", "closed_form": -1.4285714285714284,
             "mc_estimate": -1.4762953179146874, "std_error": 0.044123914717088146,
             "pass": True},
            {"probe": "evidence-chain-rule", "closed_form": -39.64870378588722,
             "mc_estimate": -39.648703785887214, "std_error": 3.3333333333333334e-09,
             "pass": True},
            {"probe": "mc-predictive-N1K2", "closed_form": 0.1027393897871285,
             "mc_estimate": 0.10330612951367198, "std_error": 0.0013612939836963743,
             "pass": True},
            {"probe": "mc-predictive-N2K2", "closed_form": 0.0010565863438115799,
             "mc_estimate": 0.0010175843773472144, "std_error": 9.317024909679993e-05,
             "pass": True},
            {"probe": "mc-predictive-N3K1", "closed_form": 0.06425216378155107,
             "mc_estimate": 0.060750240802500945, "std_error": 0.0017128408295890077,
             "pass": True},
        ], "all_pass": True}

    def test_model_run_peaks_at_one_sample_array(self):
        # Three probes share one (S,) log-determinant and hold no copy of
        # it: a few (S,) arrays, where one (S, N) array is ten of them.
        dim, n_samples = 10, 20000
        model = build_model(make_posterior(39, dim, [30, 30, 30]))
        peak, report = traced_peak(lambda: run_verification(3, n_samples, model=model))
        assert len(report["probes"]) == 3
        assert peak <= 3 * n_samples * 8 + 64 * 1024

    def test_model_with_a_star_near_its_floor_reports_every_probe(self):
        # At a* = 1.02 and N = 2 the second Bartlett entry is
        # sqrt(chi-square(0.02)), which underflowed to 0 in 13 of the
        # 20,000 draws at this seed: the shared diagonal was refused as not
        # positive, and log(0) warned of a divide by zero.
        model = PredictiveModel(("a", "b"), np.array([[0.0, 1.0], [0.0, -1.0]]),
                                np.array([0.5, 0.5]), 1.02, 1.0, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_verification(20260808, 20000, model=model)
            estimate, _ = mc_predictive(np.random.default_rng(5), model, [0.5, 0.0], 0, 20000)
        assert [p["probe"] for p in report["probes"]] == ["model-predictive-a",
                                                           "model-predictive-b"]
        assert report["all_pass"] and np.isfinite(estimate)

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @pytest.mark.parametrize("c_shift, a_shift", [(0.0, 0), (1.0, 1), (1.0, -1)],
                             ids=["c-star", "a-star-plus-1", "a-star-minus-1"])
    def test_wrong_closed_form_fails_every_model_probe(self, monkeypatch, shape, c_shift,
                                                       a_shift):
        # The closed form with c* in place of c* + 1, or with a* off by one,
        # fails every probe of a model the size of the benchmark's. The
        # probes sit at mu*_k + Normal(0, I). Under unit noise that is a
        # typical point, where a* off by one moves log p by
        # (psi((a*+1)/2) - psi((a*+1-N)/2) - log(1 + q)) / 2, near 0, and
        # 3 SE hides it; so the data's noise is 0.2 and the probes sit
        # five noise widths out, where that difference is large.
        model, n_samples = wrong_form_model(shape)

        def closed_form(model, x, k, c_shift, a_shift):
            a, dim, scale = model.a_star + a_shift, model.dim, model.c_star[k] + c_shift
            d = model.chol_b_star.inverse @ (x - model.mu_star[:, k])
            return (math.lgamma((a + 1.0) / 2.0) - math.lgamma((a + 1.0 - dim) / 2.0)
                    - dim / 2.0 * math.log(math.pi * scale) - model.logdet_b_star / 2.0
                    - (a + 1.0) / 2.0 * math.log1p(d @ d / scale))

        x = model.mu_star[:, 1] + 0.1
        assert closed_form(model, x, 1, 1.0, 0) == pytest.approx(
            log_predictive(model, x, 1), rel=1e-12)
        monkeypatch.setattr(montecarlo, "log_predictive",
                            functools.partial(closed_form, c_shift=c_shift, a_shift=a_shift))
        report = run_verification(20260808, n_samples, model=model)
        assert len(report["probes"]) == 3
        assert not any(p["pass"] for p in report["probes"])

    @pytest.mark.parametrize("n_samples", [2.5, 1e4])
    def test_non_integer_sample_count_is_domain_error(self, n_samples):
        with pytest.raises(DomainError, match="whole number of samples"):
            run_verification(seed=3, n_samples=n_samples, model=small_model(2))
        with pytest.raises(DomainError, match="whole number of samples"):
            run_verification(seed=3, n_samples=n_samples)

    def test_bool_sample_count_is_domain_error(self):
        with pytest.raises(DomainError, match="whole number of samples"):
            run_verification(0, True)

    def test_deterministic_report(self):
        a = run_verification(seed=42, n_samples=2000)
        b = run_verification(seed=42, n_samples=2000)
        assert a == b
