import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausset import (
    LabeledDataset,
    PosteriorMNW,
    PriorHyper,
    accumulate,
    add_empty_class,
    column_marginal,
    log_evidence_proper,
    posterior,
)
from gausset.errors import DimensionMismatch, DomainError, ImproperPrior, ShapeMismatch
from gausset.inference import _posterior_general

from conftest import random_spd


class TestPriorHyper:
    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            PriorHyper(r=0.0)
        with pytest.raises(ValueError):
            PriorHyper(r=-1.0)

    @pytest.mark.parametrize("r", [np.inf, np.nan])
    def test_requires_finite_r(self, r):
        with pytest.raises(DomainError, match="finite"):
            PriorHyper(r=r)

    def test_requires_nonnegative_a(self):
        with pytest.raises(ValueError):
            PriorHyper(r=1.0, a=-0.5)

    @pytest.mark.parametrize("a", [np.inf, np.nan])
    def test_requires_finite_a(self, a):
        with pytest.raises(DomainError, match="finite"):
            PriorHyper(r=1.0, a=a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_requires_finite_b(self, bad):
        b = np.eye(2)
        b[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            PriorHyper(r=1.0, a=3.0, b=b)

    @pytest.mark.parametrize("shape", [(2, 3), (2,)])
    def test_non_square_b_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="expected square matrices"):
            PriorHyper(r=1.0, a=3.0, b=np.ones(shape))

    def test_proper_flag(self):
        stats = accumulate(LabeledDataset(np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]]),
                                          np.array([0, 0, 1]), ("a", "b")))
        with pytest.raises(ImproperPrior):
            log_evidence_proper(stats, PriorHyper.noninformative(1.0))
        assert np.isfinite(log_evidence_proper(stats, PriorHyper(r=1.0, a=3.0, b=np.eye(2))))
        # a too small for the dimension
        with pytest.raises(ImproperPrior):
            log_evidence_proper(stats, PriorHyper(r=1.0, a=0.5, b=np.eye(2)))
        # scale matrix not positive definite
        with pytest.raises(ImproperPrior):
            log_evidence_proper(stats, PriorHyper(r=1.0, a=3.0, b=np.zeros((2, 2))))


class TestPosterior:
    def test_worked_example(self, worked_posterior):
        np.testing.assert_allclose(worked_posterior.m_star, [[4.0 / 3.0, 1.0]],
                                   rtol=1e-15)
        np.testing.assert_array_equal(worked_posterior.r_star_diag, [3.0, 2.0])
        assert worked_posterior.a_star == 3.0
        np.testing.assert_allclose(worked_posterior.b_star, [[20.0 / 3.0]],
                                   rtol=1e-14)

    def test_zero_data_returns_prior(self):
        from gausset import SufficientStats
        stats = SufficientStats.zeros(2, 3)
        b = np.array([[2.0, 0.3], [0.3, 1.0]])
        post = posterior(stats, PriorHyper(r=0.5, a=4.0, b=b))
        assert not post.m_star.any()
        np.testing.assert_array_equal(post.r_star_diag, [0.5, 0.5, 0.5])
        assert post.a_star == 4.0
        np.testing.assert_allclose(post.b_star, b, atol=0)

    def test_large_r_shrinks_means_to_zero(self, worked_stats):
        post = posterior(worked_stats, PriorHyper.noninformative(1e12))
        assert np.max(np.abs(post.m_star)) < 1e-11

    def test_b_star_is_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        ds = LabeledDataset(rng.normal(size=(12, 3)), rng.integers(0, 2, 12),
                            ("a", "b"))
        post = posterior(accumulate(ds), PriorHyper.noninformative(0.7))
        np.testing.assert_array_equal(post.b_star, post.b_star.T)

    def test_small_r_limit_gives_within_class_scatter(self):
        # As r -> 0 with every T_k > 0, B* -> B + S - sum_k f_k f_k^T / T_k.
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.normal(size=(20, 2)),
                            np.repeat([0, 1], 10), ("a", "b"))
        stats = accumulate(ds)
        post = posterior(stats, PriorHyper.noninformative(1e-9))
        limit = ds.patterns.T @ ds.patterns
        for k in range(2):
            rows = ds.patterns[ds.labels == k]
            limit -= np.outer(rows.sum(axis=0), rows.sum(axis=0)) / len(rows)
        err = np.linalg.norm(post.b_star - limit) / np.linalg.norm(limit)
        assert err < 1e-6

    def test_sequential_update_matches_batch(self):
        # A posterior re-used as the prior for more data (general diagonal
        # precision, nonzero location) must land on the batch posterior.
        rng = np.random.default_rng(10)
        names = ("a", "b", "c")
        patterns = rng.normal(0.4, 1.3, size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        prior = PriorHyper(r=0.8, a=5.0, b=random_spd(rng, 3, jitter=0.5))

        batch = posterior(accumulate(LabeledDataset(patterns, labels, names)), prior)
        first = posterior(
            accumulate(LabeledDataset(patterns[:9], labels[:9], names)), prior
        )
        stats2 = accumulate(LabeledDataset(patterns[9:], labels[9:], names))
        m2, r2, a2, b2 = _posterior_general(
            stats2, first.m_star, first.r_star_diag, first.a_star, first.b_star
        )
        np.testing.assert_allclose(m2, batch.m_star, rtol=1e-10)
        np.testing.assert_allclose(r2, batch.r_star_diag, rtol=1e-10)
        assert a2 == pytest.approx(batch.a_star, rel=1e-10)
        np.testing.assert_allclose(b2, batch.b_star, rtol=1e-10)


    def test_prior_scale_of_another_dimension_rejected(self, worked_stats):
        with pytest.raises(ShapeMismatch, match="prior scale matrix has shape"):
            posterior(worked_stats, PriorHyper(r=1.0, a=3.0, b=np.eye(2)))

    @pytest.mark.parametrize("theta, r_diag, match", [
        (0.0, np.ones(3), "per-class precision"),
        (0.0, np.ones((1, 2)), "per-class precision"),
        (np.zeros((1, 3)), np.ones(2), "prior location"),
        (np.zeros(2), np.ones(2), "prior location"),
    ])
    def test_located_prior_of_wrong_shape_rejected(self, worked_stats, theta, r_diag, match):
        with pytest.raises(ShapeMismatch, match=match):
            _posterior_general(worked_stats, theta, r_diag, 0.0, None)


@st.composite
def split_datasets(draw):
    """A labelled dataset with one declared class that has no rows, a
    proper prior (a = N + 1, B = eps I) and a row to split it at."""
    dim = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 30))
    offset = draw(st.sampled_from([0.0, 1e2, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, n_classes, size=n_rows)
    patterns = (rng.normal(0.0, 3.0, size=(n_classes, dim))[labels]
                + rng.normal(size=(n_rows, dim)) + offset)
    names = tuple(f"c{k}" for k in range(n_classes + 1))
    eps, r = (draw(st.floats(1e-2, 1e2)) for _ in range(2))
    prior = PriorHyper(r=r, a=dim + 1.0, b=eps * np.eye(dim))
    return LabeledDataset(patterns, labels, names), prior, draw(st.integers(0, n_rows))


class TestSequentialUpdateProperty:
    @settings(max_examples=100, deadline=None)
    @given(split_datasets())
    def test_sequential_update_equals_batch(self, case):
        ds, prior, cut = case

        def stats(rows):
            return accumulate(LabeledDataset(ds.patterns[rows], ds.labels[rows],
                                             ds.class_names))

        first = posterior(stats(slice(None, cut)), prior)
        m2, r2, a2, b2 = _posterior_general(stats(slice(cut, None)), first.m_star,
                                            first.r_star_diag, first.a_star, first.b_star)
        batch = posterior(accumulate(ds), prior)
        np.testing.assert_allclose(m2, batch.m_star, rtol=1e-10)
        np.testing.assert_allclose(r2, batch.r_star_diag, rtol=1e-10)
        assert a2 == batch.a_star
        assert np.abs(b2 - batch.b_star).max() <= 1e-10 * np.abs(batch.b_star).max()


class TestPosteriorMNW:
    @pytest.mark.parametrize("m_star, r_star_diag, b_star, error", [
        (np.zeros((1, 2)), np.ones(3), np.ones((1, 1)), ShapeMismatch),
        (np.zeros(2), np.ones(2), np.ones((1, 1)), ShapeMismatch),
        (np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 1)), ShapeMismatch),
        (np.zeros((1, 2)), np.ones(2), np.ones((2, 2)), ShapeMismatch),
        (np.zeros((1, 2)), np.array([1.0, 0.0]), np.ones((1, 1)), ValueError),
    ], ids=["class-count", "means-vector", "precision-matrix", "scale-shape", "zero-precision"])
    def test_inconsistent_parameters_rejected(self, m_star, r_star_diag, b_star, error):
        with pytest.raises(error):
            PosteriorMNW(m_star, r_star_diag, 3.0, b_star, 1.0)


class TestAddEmptyClass:
    def test_worked_example(self, worked_posterior):
        grown = add_empty_class(worked_posterior)
        assert grown.n_classes == 3
        np.testing.assert_array_equal(grown.m_star[:, 2], [0.0])
        assert grown.r_star_diag[2] == 1.0
        assert grown.a_star == worked_posterior.a_star
        assert grown.b_star is worked_posterior.b_star
        mean, c = column_marginal(grown, 2)
        np.testing.assert_array_equal(mean, [0.0])
        assert c == 1.0  # 1/r with r = 1

    def test_applied_twice(self, worked_posterior):
        grown = add_empty_class(add_empty_class(worked_posterior))
        assert grown.n_classes == 4
        np.testing.assert_array_equal(grown.m_star[:, 2], grown.m_star[:, 3])
        assert grown.r_star_diag[2] == grown.r_star_diag[3]

    def test_on_zero_data_posterior(self):
        from gausset import SufficientStats
        b = np.array([[3.0]])
        post = posterior(SufficientStats.zeros(1, 1), PriorHyper(r=2.0, a=4.0, b=b))
        grown = add_empty_class(post)
        assert grown.a_star == 4.0
        np.testing.assert_array_equal(grown.b_star, b)
        _, c = column_marginal(grown, 1)
        assert c == 0.5


class TestColumnMarginal:
    def test_worked_example(self, worked_posterior):
        mean, c = column_marginal(worked_posterior, 0)
        np.testing.assert_allclose(mean, [4.0 / 3.0], rtol=1e-15)
        assert c == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_data_gives_prior_marginal(self):
        from gausset import SufficientStats
        post = posterior(SufficientStats.zeros(2, 2), PriorHyper.noninformative(4.0))
        for k in range(2):
            mean, c = column_marginal(post, k)
            assert not mean.any()
            assert c == 0.25

    def test_out_of_range(self, worked_posterior):
        with pytest.raises(IndexError):
            column_marginal(worked_posterior, 2)
        with pytest.raises(IndexError):
            column_marginal(worked_posterior, -1)
