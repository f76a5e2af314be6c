import numpy as np
import pytest

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
from gausset import linalg
from gausset.errors import DomainError
from gausset.linalg import cholesky
from gausset.model_io import load_model, save_model


def make_posterior(seed, dim, counts, r=0.5):
    gen = np.random.default_rng(seed)
    ds, _ = sample_dataset(gen, dim=dim, counts=counts, r_true=1.0)
    prior = PriorHyper(r=r, a=dim + 2.0, b=np.eye(dim))
    return posterior(accumulate(ds), prior)


class TestSeededGenerator:
    def test_same_seed_same_stream(self):
        a = seeded_generator(123).standard_normal(10)
        b = np.random.Generator(np.random.PCG64(123)).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_negative_or_fractional_seed(self, seed):
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

    def test_model_run_factors_b_star_once(self, monkeypatch):
        # B* is factored once, when the model is built; the Monte-Carlo
        # probes read the model's own factor and log-determinant.
        model = build_model(make_posterior(38, 2, [4, 5, 6]))
        factor = linalg.cholesky
        calls = []
        monkeypatch.setattr(linalg, "cholesky", lambda a: calls.append(a) or factor(a))
        run_verification(seed=39, n_samples=200, model=model)
        assert len(calls) == 0

    def test_deterministic_report(self):
        a = run_verification(seed=42, n_samples=2000)
        b = run_verification(seed=42, n_samples=2000)
        assert a == b
