import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import solve_triangular

from gausset import (
    ClassPrior,
    LabeledDataset,
    PosteriorMNW,
    PriorHyper,
    accumulate,
    add_empty_class,
    build_model,
    class_posterior,
    decide,
    log_predictive,
    log_predictive_unnormalized,
    posterior,
    posterior_from_scores,
    save_model,
    score_batch,
    zero_one_costs,
)
from gausset.errors import (
    AllZeroPrior,
    DegenerateScatter,
    DimensionMismatch,
    DomainError,
    InsufficientDof,
    ShapeMismatch,
)
from gausset.montecarlo import mc_predictive
from gausset.predictive import _BLOCK_ENTRIES, PredictiveModel

from conftest import offset_dataset, random_spd


@pytest.fixture
def worked_model(worked_posterior):
    return build_model(worked_posterior, class_names=("a", "b"))


class TestBuildModel:
    def test_worked_log_normalizers(self, worked_model):
        # a* = 3, N = 1: the gamma pair is log Gamma(2) - log Gamma(3/2).
        for k, c in enumerate((1.0 / 3.0, 1.0 / 2.0)):
            expected = (math.lgamma(2.0) - math.lgamma(1.5)
                        - 0.5 * np.log(np.pi * (c + 1.0))
                        - 0.5 * np.log(20.0 / 3.0))
            assert worked_model.log_norm[k] == pytest.approx(expected, abs=1e-14)

    def test_minimal_degrees_of_freedom(self):
        # a* + 1 - N = 1 > 0 is enough.
        post = PosteriorMNW(np.zeros((1, 1)), [1.0], 1.0, np.eye(1), source_r=1.0)
        model = build_model(post)
        assert np.isfinite(log_predictive(model, [0.3], 0))

    def test_insufficient_dof(self):
        post = PosteriorMNW(np.zeros((3, 1)), [1.0], 2.0, np.eye(3), source_r=1.0)
        with pytest.raises(InsufficientDof):
            build_model(post)

    def test_degenerate_scatter_single_point(self):
        # One 2-D training point under the non-informative prior leaves a
        # rank-deficient B*.
        ds = LabeledDataset(np.array([[1.0, 2.0]]), [0], ("a",))
        post = posterior(accumulate(ds), PriorHyper.noninformative(1.0))
        with pytest.raises(DegenerateScatter):
            build_model(post)

    def test_scoring_constants_are_derived_not_passed(self, worked_model):
        # Everything but the six stored fields follows from them, so a model
        # built from those scores exactly as the one it copies, and no
        # derived value can be passed in to disagree with them.
        fields = ("class_names", "mu_star", "c_star", "a_star", "r", "b_star")
        copy = PredictiveModel(*(getattr(worked_model, name) for name in fields))
        for name in ("logdet_b_star", "log_norm", "centre", "white_means"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(worked_model, name))
        np.testing.assert_array_equal(copy.chol_b_star.lower, worked_model.chol_b_star.lower)
        np.testing.assert_array_equal(copy.cp1, worked_model.c_star + 1.0)
        np.testing.assert_array_equal(copy.inverse_t, worked_model.chol_b_star.inverse.T)
        assert copy.block_rows == _BLOCK_ENTRIES // 2
        np.testing.assert_array_equal(
            score_batch(copy, [[0.3], [2.0]], [0.5, 0.5])[0],
            score_batch(worked_model, [[0.3], [2.0]], [0.5, 0.5])[0])
        for derived in ({"chol_b_star": worked_model.chol_b_star}, {"cp1": [1.0, 1.0]}):
            with pytest.raises(TypeError):
                PredictiveModel(*(getattr(worked_model, name) for name in fields), **derived)

    def test_saving_forms_no_inverse(self, worked_posterior, tmp_path):
        # fit builds and saves a model without scoring, so L^{-1} and the
        # whitening it feeds are never formed.
        model = build_model(worked_posterior)
        save_model(model, tmp_path / "model.json")
        assert "inverse" not in vars(model.chol_b_star)
        assert not {"inverse_t", "white_means", "reach"} & set(vars(model))

    def test_whitening_derived_on_first_score(self):
        rng = np.random.default_rng(7)
        n = 4
        model = build_model(PosteriorMNW(rng.normal(size=(n, 3)), [2.0, 3.0, 5.0], 10.0,
                                         random_spd(rng, n), source_r=1.0))
        assert not {"inverse_t", "white_means", "reach"} & set(vars(model))
        score_batch(model, rng.normal(size=(5, n)), ClassPrior.uniform(3))
        inverse_t = np.tril(np.linalg.solve(model.chol_b_star.lower, np.eye(n))).T
        white_means = (model.mu_star.T - model.centre) @ inverse_t
        reach = ((np.sqrt(sys.float_info.max / (4.0 * n)) - np.abs(white_means).max())
                 / np.abs(inverse_t).sum(axis=0).max())
        fields = vars(model)   # plain fields from now on
        for name, eager in (("inverse_t", inverse_t), ("white_means", white_means)):
            np.testing.assert_array_equal(fields[name], eager)
            assert not fields[name].flags.writeable
        assert type(fields["reach"]) is float and fields["reach"] == reach
        assert model.inverse_t is fields["inverse_t"]   # read, not derived again

    def test_class_name_default_and_mismatch(self, worked_posterior):
        assert build_model(worked_posterior).class_names == ("class_0", "class_1")
        assert build_model(worked_posterior, class_names=(0, 1.5)).class_names == ("0", "1.5")
        with pytest.raises(ShapeMismatch):
            build_model(worked_posterior, class_names=("only_one",))


class TestModelValidation:
    FIELDS = ("class_names", "mu_star", "c_star", "a_star", "r", "b_star")

    def rebuild(self, model, **changes):
        values = {name: getattr(model, name) for name in self.FIELDS} | changes
        return PredictiveModel(*(values[name] for name in self.FIELDS))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["r", "a_star", "mu_star", "c_star", "b_star"])
    def test_non_finite_field_named(self, worked_model, name, value):
        # No non-finite value may reach the scorer, where it scores NaN.
        if name in ("r", "a_star"):
            changed = value
        else:
            changed = np.array(getattr(worked_model, name))
            changed.flat[0] = value
        with pytest.raises(DomainError, match=f"field {name} "):
            self.rebuild(worked_model, **{name: changed})

    @pytest.mark.parametrize("name, value", [
        ("mu_star", np.array([4.0 / 3.0, 1.0])),
        ("mu_star", np.zeros((0, 2))),
        ("c_star", np.array([0.5, 0.5, 0.5])),
        ("b_star", np.eye(2)),
        ("b_star", np.ones(1)),
    ])
    def test_mis_shaped_field(self, worked_model, name, value):
        with pytest.raises(ShapeMismatch, match=name):
            self.rebuild(worked_model, **{name: value})

    def test_repeated_class_name(self, worked_model):
        # Two columns named alike could not be told apart in classify's output.
        with pytest.raises(DomainError, match="field class_names repeats"):
            self.rebuild(worked_model, class_names=("a", "a"))

    def test_class_names_repeating_as_strings(self, worked_model):
        with pytest.raises(DomainError, match="field class_names repeats"):
            self.rebuild(worked_model, class_names=(1, "1"))

    def test_asymmetric_b_star(self):
        # Named as a model field, not linalg's symmetrize() advice.
        with pytest.raises(DomainError, match="field b_star is not symmetric"):
            PredictiveModel(None, np.zeros((2, 2)), np.array([0.5, 0.5]), 5.0, 1.0,
                            np.array([[2.0, 0.5], [0.25, 2.0]]))

    @pytest.mark.parametrize("c_first", [0.0, -0.5])
    def test_non_positive_c_star(self, worked_model, c_first):
        # Checked before B* is factored: this B* is degenerate too.
        with pytest.raises(DomainError, match="c\\*"):
            self.rebuild(worked_model, c_star=np.array([c_first, 0.5]),
                         b_star=np.zeros((1, 1)))


class TestLogPredictive:
    def test_maximum_at_location(self, worked_model):
        # Unimodal with mode at mu*_k.
        mu = worked_model.mu_star[0, 0]
        at_mode = log_predictive(worked_model, [mu], 0)
        for x in np.linspace(mu - 5.0, mu + 5.0, 41):
            if abs(x - mu) > 1e-12:
                assert log_predictive(worked_model, [x], 0) < at_mode

    def test_matches_reference_student_t(self):
        # N = 1, K = 1, non-informative prior with r ~ 0: the predictive is
        # a location-scale Student-t with nu = a*, checked against scipy.
        from scipy.stats import t as student_t
        rng = np.random.default_rng(12)
        xs = rng.normal(2.0, 1.5, size=8)
        ds = LabeledDataset(xs[:, None], np.zeros(8, dtype=int), ("only",))
        post = posterior(accumulate(ds), PriorHyper.noninformative(1e-12))
        model = build_model(post)
        mu, c = float(post.m_star[0, 0]), float(1.0 / post.r_star_diag[0])
        scale = np.sqrt((c + 1.0) * post.b_star[0, 0] / post.a_star)
        for x in np.linspace(mu - 6 * scale, mu + 6 * scale, 25):
            assert log_predictive(model, [x], 0) == pytest.approx(
                student_t.logpdf(x, df=post.a_star, loc=mu, scale=scale), abs=1e-9
            )

    def test_monotone_decay_along_direction(self):
        rng = np.random.default_rng(13)
        ds = LabeledDataset(rng.normal(size=(15, 2)), rng.integers(0, 2, 15),
                            ("a", "b"))
        model = build_model(posterior(accumulate(ds), PriorHyper.noninformative(1.0)))
        direction = np.array([0.6, -0.8])
        mu = model.mu_star[:, 0]
        values = [log_predictive(model, mu + t * direction, 0)
                  for t in np.linspace(0.0, 8.0, 30)]
        assert np.all(np.diff(values) < 0)

    def test_normalizes_to_one_in_1d(self, worked_model):
        log_norm = (log_predictive(worked_model, [1.0], 1)
                    - log_predictive_unnormalized(worked_model, [1.0], 1))
        for k in range(2):
            mu = worked_model.mu_star[0, k]
            scale = np.sqrt((worked_model.c_star[k] + 1.0)
                            * worked_model.b_star[0, 0] / worked_model.a_star)
            grid = np.linspace(mu - 40 * scale, mu + 40 * scale, 100001)
            log_unnorm, _, _ = score_batch(worked_model, grid[:, None],
                                           ClassPrior.uniform(2))
            density = np.exp(log_norm + log_unnorm[:, k])
            assert simpson(density, x=grid) == pytest.approx(1.0, abs=1e-4)

    def test_dimension_mismatch(self, worked_model):
        with pytest.raises(DimensionMismatch):
            log_predictive(worked_model, [1.0, 2.0], 0)
        with pytest.raises(IndexError):
            log_predictive(worked_model, [1.0], 5)

    @pytest.mark.parametrize("k", [2, -1])
    def test_class_index_checked_before_any_lookup(self, worked_model, k):
        # Every single-pattern scorer names the valid range, whatever it
        # reads per class.
        rng = np.random.default_rng(0)
        for score in (lambda: log_predictive(worked_model, [1.0], k),
                      lambda: log_predictive_unnormalized(worked_model, [1.0], k),
                      lambda: mc_predictive(rng, worked_model, [1.0], k, 10)):
            with pytest.raises(IndexError, match=f"class index {k} out of range for K=2"):
                score()


class TestLogPredictiveUnnormalized:
    def test_worked_value_at_location(self, worked_model):
        # d = 0 kills the tail term, leaving -(1/2) log(c*_1 + 1).
        assert log_predictive_unnormalized(worked_model, [4.0 / 3.0], 0) == (
            pytest.approx(-0.5 * np.log(4.0 / 3.0), abs=1e-14)
        )

    def test_offset_from_normalized_is_class_independent(self, worked_model):
        rng = np.random.default_rng(14)
        for x in rng.normal(1.5, 2.0, size=6):
            diffs = [log_predictive(worked_model, [x], k)
                     - log_predictive_unnormalized(worked_model, [x], k)
                     for k in range(2)]
            assert max(diffs) - min(diffs) < 1e-12

    def test_equal_inputs_give_equal_scores(self):
        # Two classes with the same c* and the same distance score equally.
        post = PosteriorMNW(np.array([[1.0, -1.0]]), [2.0, 2.0], 4.0,
                            np.array([[3.0]]), source_r=1.0)
        model = build_model(post)
        assert log_predictive_unnormalized(model, [0.0], 0) == (
            log_predictive_unnormalized(model, [0.0], 1)
        )


class TestClassPosterior:
    def test_symmetric_classes_split_evenly(self):
        post = PosteriorMNW(np.array([[1.0, 1.0]]), [2.0, 2.0], 4.0,
                            np.array([[3.0]]), source_r=1.0)
        model = build_model(post)
        probs = class_posterior(model, [0.7], ClassPrior.uniform(2))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_degenerate_prior_wins_regardless_of_data(self, worked_model):
        for x in (-10.0, 0.0, 10.0):
            probs = class_posterior(worked_model, [x], [1.0, 0.0])
            np.testing.assert_array_equal(probs, [1.0, 0.0])

    def test_point_to_the_right_prefers_larger_mean(self, worked_model):
        # mu*_a = 4/3 > mu*_b = 1, so a wins to the right of both means.
        # Not arbitrarily far right: b's larger c* widens its scale and
        # takes over again beyond x ~ 9.2, so probe at x = 5.
        probs = class_posterior(worked_model, [5.0], ClassPrior.uniform(2))
        assert probs[0] > 0.5

    def test_sums_to_one(self, worked_model):
        rng = np.random.default_rng(15)
        for x in rng.normal(0, 3, size=10):
            probs = class_posterior(worked_model, [x], ClassPrior.uniform(2))
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_prior_class_ignores_nonfinite_score(self):
        np.testing.assert_array_equal(
            posterior_from_scores([np.nan, 1.0], [0.0, 1.0]), [0.0, 1.0])
        np.testing.assert_array_equal(
            posterior_from_scores([[np.inf, 1.0], [2.0, 3.0]], [0.0, 1.0]),
            [[0.0, 1.0], [0.0, 1.0]])

    def test_cached_zero_prior_class_ignores_nonfinite_score(self):
        prior = ClassPrior([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(posterior_from_scores([np.nan, 1.0], prior),
                                          [0.0, 1.0])
            np.testing.assert_array_equal(
                posterior_from_scores([[np.inf, 1.0], [2.0, 3.0]], prior),
                [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scores, probs, found", [
        ([-np.inf, -np.inf], [0.5, 0.5], "no finite score"),
        ([np.inf, 0.0], [0.5, 0.5], "a score of inf"),
        ([np.nan, 1.0], [0.5, 0.5], "a score of nan"),
        ([1.0, np.inf, 0.0], [0.5, 0.5, 0.0], "a score of inf"),   # masked
        ([np.nan, 1.0, np.inf], [0.5, 0.5, 0.0], "a score of nan"),
    ])
    @pytest.mark.parametrize("cached", [False, True], ids=["raw", "ClassPrior"])
    def test_nonfinite_row_is_a_domain_error(self, scores, probs, found, cached):
        # All -inf, +inf or NaN over the classes of non-zero prior: the
        # softmax would give NaN posteriors.
        prior = ClassPrior(probs) if cached else np.array(probs)
        fine = np.zeros(len(scores))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"row 0 has {found} for a class"):
                posterior_from_scores(scores, prior)
            with pytest.raises(DomainError, match=f"row 1 has {found} for a class"):
                posterior_from_scores([fine, scores, fine], prior)

    def test_class_prior_of_wrong_length(self, worked_model):
        prior = ClassPrior.uniform(3)
        with pytest.raises(ShapeMismatch):
            posterior_from_scores([0.0, 1.0], prior)
        with pytest.raises(ShapeMismatch):
            class_posterior(worked_model, [1.0], prior)
        with pytest.raises(ShapeMismatch):
            score_batch(worked_model, [[1.0]], prior)

    @pytest.mark.parametrize("prior", [[0.5, -0.5], [np.nan, 1.0], [np.inf, 1.0]])
    def test_raw_prior_entries_checked(self, worked_model, prior):
        with pytest.raises(ValueError, match="finite and non-negative"):
            class_posterior(worked_model, [1.0], prior)
        with pytest.raises(ValueError, match="finite and non-negative"):
            posterior_from_scores([0.0, 1.0], prior)

    def test_raw_prior_of_wrong_length(self, worked_model):
        with pytest.raises(ShapeMismatch):
            class_posterior(worked_model, [1.0], [0.2, 0.3, 0.5])

    def test_all_zero_prior(self, worked_model):
        with pytest.raises(AllZeroPrior):
            class_posterior(worked_model, [1.0], [0.0, 0.0])
        with pytest.raises(AllZeroPrior):
            posterior_from_scores([[0.0, 1.0]], [0.0, 0.0])

    @pytest.mark.parametrize("prior", [ClassPrior.uniform(3), ClassPrior([0.0, 0.4, 0.6]),
                                       [0.2, 0.0, 0.6], [1.0, 2.0, 3.0]])
    def test_scores_argument_left_unchanged(self, prior):
        # The softmax works in place on its own array, never the caller's.
        rng = np.random.default_rng(24)
        for scores in (rng.normal(size=3), rng.normal(size=(5, 3))):
            kept = scores.copy()
            probs = posterior_from_scores(scores, prior)
            np.testing.assert_array_equal(scores, kept)
            assert not np.shares_memory(probs, scores)

    def test_zero_free_class_prior_matches_raw_array(self, worked_model):
        rng = np.random.default_rng(25)
        weights = rng.uniform(0.1, 5.0, size=4)
        raw = weights / weights.sum()
        prior = ClassPrior(raw)
        scores = rng.normal(0.0, 30.0, size=(50, 4))
        assert prior._active is None
        np.testing.assert_array_equal(posterior_from_scores(scores, prior),
                                      posterior_from_scores(scores, raw))
        for x in (-4.0, 0.3, 2.0, 9.5):
            np.testing.assert_array_equal(class_posterior(worked_model, [x], ClassPrior([0.3, 0.7])),
                                          class_posterior(worked_model, [x], [0.3, 0.7]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            scores = rng.normal(size=4)
            prior = ClassPrior(np.full(4, 0.25))
            base = posterior_from_scores(scores, prior)
            for shift in (-1000.0, -3.5, 700.0):
                shifted = posterior_from_scores(scores + shift, prior)
                np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestClassPrior:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match=r"sums to 1\.1, expected 1"):
            ClassPrior(np.array([0.5, 0.6]))
        with pytest.raises(AllZeroPrior):
            ClassPrior([0.0, 0.0])

    def test_no_negative_entries(self):
        with pytest.raises(ValueError):
            ClassPrior(np.array([1.5, -0.5]))

    def test_must_be_a_vector(self):
        with pytest.raises(ShapeMismatch, match="must be a vector"):
            ClassPrior(np.full((2, 2), 0.25))

    def test_uniform(self):
        np.testing.assert_allclose(ClassPrior.uniform(4).probs, np.full(4, 0.25))

    @pytest.mark.parametrize("term", ["_active", "_log_probs"], ids=["mask", "log_probs"])
    def test_cached_terms_are_read_only(self, worked_model, term):
        # A write to the cached softmax terms once changed every later
        # posterior with that prior.
        prior = ClassPrior([0.0, 1.0]) if term == "_active" else ClassPrior([0.3, 0.7])
        before = class_posterior(worked_model, [0.5], prior)
        with pytest.raises(ValueError, match="read-only"):
            getattr(prior, term)[0] = 5.0
        np.testing.assert_array_equal(class_posterior(worked_model, [0.5], prior), before)


class TestDecide:
    def test_zero_one_costs_pick_argmax(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            raw = rng.random(4)
            probs = raw / raw.sum()
            assert decide(probs, zero_one_costs(4)) == int(np.argmax(probs))

    def test_constant_costs_tie_break_to_lowest_index(self):
        assert decide([0.3, 0.7], np.full((2, 3), 2.0)) == 0

    def test_worked_expected_costs(self):
        # Expected costs are (0.1, 9.0), so the first action wins.
        assert decide([0.9, 0.1], np.array([[0.0, 10.0], [1.0, 0.0]])) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            decide([0.5, 0.5], np.zeros((3, 2)))

    def test_nonfinite_costs_rejected(self):
        with pytest.raises(ValueError):
            decide([0.5, 0.5], np.array([[0.0, np.inf], [1.0, 0.0]]))

    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [[0.5, 0.5], [np.inf, 0.0]]],
                             ids=["nan", "inf-in-block"])
    def test_nonfinite_posterior_rejected(self, probs):
        with pytest.raises(ValueError, match="posterior"):
            decide(probs, zero_one_costs(2))


class TestPinnedValues:
    """Every single-pattern scorer on the worked model, as ``repr`` gives
    it; the values are those of the scorer before the one-block kernel."""

    CASES = (
        (0.3, ("0.4819292752450065", "0.5180707247549935"),
         ("-1.7708643064027785", "-1.6985499106147977"),
         ("-0.3707216086703834", "-0.2984072128824024"), 1),
        (2.0, ("0.5379099916681557", "0.4620900083318443"),
         ("-1.6415640622971497", "-1.7934956113951273"),
         ("-0.24142136456475444", "-0.39335291366273195"), 0),
        (-7.5, ("0.428726869368023", "0.5712731306319769"),
         ("-6.1042792297085064", "-5.817231845089349"),
         ("-4.704136531976111", "-4.417089147356953"), 1),
    )

    @pytest.mark.parametrize("x, probs, normalized, unnormalized, action", CASES)
    def test_bit_for_bit(self, worked_model, x, probs, normalized, unnormalized, action):
        posterior = class_posterior(worked_model, [x], ClassPrior.uniform(2))
        assert tuple(map(repr, posterior.tolist())) == probs
        assert tuple(repr(log_predictive(worked_model, [x], k)) for k in range(2)) == normalized
        assert tuple(repr(log_predictive_unnormalized(worked_model, [x], k))
                     for k in range(2)) == unnormalized
        assert decide(posterior, zero_one_costs(2)) == action


class TestOpensetScoring:
    def test_empty_class_score_grows_with_shrinkage(self):
        # Per-class sums are exactly zero, so B* does not move with r and
        # the empty class's c* = 1/r alone drives its density at zero.
        rng = np.random.default_rng(18)
        half = rng.normal(0.0, 1.0, size=(6, 2))
        patterns = np.vstack([half, -half])
        labels = np.tile(np.repeat([0, 1], 3), 2)
        ds = LabeledDataset(patterns, labels, ("a", "b"))
        stats = accumulate(ds)
        for k in range(2):
            assert np.abs(patterns[labels == k].sum(axis=0)).max() < 1e-12
        scores = []
        for r in (1.0, 10.0, 100.0):
            post = add_empty_class(posterior(stats, PriorHyper.noninformative(r)))
            model = build_model(post, class_names=("a", "b", "other"))
            scores.append(log_predictive(model, [0.0, 0.0], 2))
        assert np.all(np.isfinite(scores))
        assert scores[0] < scores[1] < scores[2]


class TestScoreBatch:
    def test_matches_single_pattern_calls(self, worked_model):
        rng = np.random.default_rng(19)
        patterns = rng.normal(0, 2, size=(7, 1))
        log_unnorm, posteriors, actions = score_batch(
            worked_model, patterns, ClassPrior.uniform(2)
        )
        for i, x in enumerate(patterns):
            for k in range(2):
                assert log_unnorm[i, k] == log_predictive_unnormalized(
                    worked_model, x, k
                )
            np.testing.assert_array_equal(
                posteriors[i], class_posterior(worked_model, x, ClassPrior.uniform(2))
            )
            assert actions[i] == decide(posteriors[i], zero_one_costs(2))

    def test_rejects_wrong_width(self, worked_model):
        with pytest.raises(DimensionMismatch):
            score_batch(worked_model, np.zeros((3, 2)), ClassPrior.uniform(2))

    def test_empty_batch(self, worked_model):
        log_unnorm, posteriors, actions = score_batch(worked_model, np.zeros((0, 1)),
                                                      ClassPrior.uniform(2))
        assert log_unnorm.shape == posteriors.shape == (0, 2)
        assert actions.shape == (0,)

    def test_exact_tie_goes_to_the_lowest_index(self):
        # Classes 1 and 2 are the same class, and the row sits at their mean.
        post = PosteriorMNW(np.array([[-1.0, 1.0, 1.0]]), [2.0, 2.0, 2.0], 4.0,
                            np.array([[3.0]]), source_r=1.0)
        model = build_model(post)
        _, posteriors, actions = score_batch(model, [[1.0]], ClassPrior.uniform(3))
        assert posteriors[0, 1] == posteriors[0, 2] > posteriors[0, 0]
        assert actions[0] == decide(posteriors[0], zero_one_costs(3)) == 1


@st.composite
def scoring_cases(draw):
    """A random model, a batch whose rows may span several kernel blocks,
    and a prior: uniform, with one zero entry, or a raw unnormalized array."""
    prior_kind = draw(st.sampled_from(["uniform", "one-zero", "raw"]))
    dim = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2 if prior_kind == "one-zero" else 1, 6))
    block = max(1, _BLOCK_ENTRIES // (n_classes * dim))
    n_rows = block * draw(st.integers(0, 2)) + draw(st.integers(1, block))
    offset = draw(st.sampled_from([0.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    post = PosteriorMNW(offset + rng.normal(0.0, 2.0, size=(dim, n_classes)),
                        rng.uniform(0.5, 50.0, size=n_classes),
                        dim - 1.0 + rng.uniform(0.1, 20.0),
                        random_spd(rng, dim, jitter=0.1), source_r=1.0)
    patterns = offset + rng.normal(0.0, 3.0, size=(n_rows, dim))
    rows = {0, n_rows - 1, *rng.integers(0, n_rows, size=5)}
    rows |= {i for b in (block, 2 * block) for i in (b - 1, b) if i < n_rows}
    weights = rng.uniform(0.1, 5.0, size=n_classes)
    if prior_kind == "uniform":
        prior = ClassPrior.uniform(n_classes)
    elif prior_kind == "one-zero":
        weights[rng.integers(n_classes)] = 0.0
        prior = ClassPrior(weights / weights.sum())
    else:
        prior = weights
    return build_model(post), patterns, sorted(rows), prior


class TestBatchedMatchesSingle:
    @settings(max_examples=30, deadline=None)
    @given(scoring_cases())
    def test_rows_match_single_pattern_calls(self, case):
        model, patterns, rows, prior = case
        log_unnorm, posteriors, _ = score_batch(model, patterns, prior)
        for i in rows:
            x = patterns[i]
            single = [log_predictive_unnormalized(model, x, k)
                      for k in range(model.n_classes)]
            np.testing.assert_array_equal(log_unnorm[i], single)
            np.testing.assert_array_equal(posteriors[i], class_posterior(model, x, prior))
            normalized = [log_predictive(model, x, k) for k in range(model.n_classes)]
            offsets = np.subtract(normalized, single)
            scale = max(1.0, np.abs(normalized).max(), np.abs(single).max())
            assert np.ptp(offsets) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(scoring_cases())
    def test_actions_are_zero_one_decisions(self, case):
        model, patterns, _, prior = case
        _, posteriors, actions = score_batch(model, patterns, prior)
        np.testing.assert_array_equal(
            actions, decide(posteriors, zero_one_costs(model.n_classes)))


SCORERS = {
    "score_batch": lambda m, x: score_batch(m, x[None, :], ClassPrior.uniform(2)),
    "class_posterior": lambda m, x: class_posterior(m, x, ClassPrior.uniform(2)),
    "log_predictive": lambda m, x: log_predictive(m, x, 0),
    "log_predictive_unnormalized": lambda m, x: log_predictive_unnormalized(m, x, 0),
}


class TestNonFinitePatterns:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_rejected_by_every_scorer(self, scorer, bad):
        rng = np.random.default_rng(21)
        ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), ("a", "b"))
        model = build_model(posterior(accumulate(ds), PriorHyper.noninformative(1.0)))
        with pytest.raises(ValueError):
            SCORERS[scorer](model, np.array([0.5, bad]))


def two_class_model():
    rng = np.random.default_rng(21)
    ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), ("a", "b"))
    return build_model(posterior(accumulate(ds), PriorHyper.noninformative(1.0)))


class TestFarPatterns:
    """A finite row whose whitened squared distance overflows for every
    class is a ``DomainError`` naming it, never a NaN or a warning."""

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_too_far_for_every_class(self, scorer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="pattern 0 is too far from every class"):
                SCORERS[scorer](two_class_model(), np.array([1e200, 1e200]))

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_far_but_not_overflowing_still_scores(self, scorer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = SCORERS[scorer](two_class_model(), np.array([1e150, -1e150]))
        for values in (scores if scorer == "score_batch" else [scores]):
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_not_called_far(self, scorer, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            SCORERS[scorer](two_class_model(), np.array([1e200, bad]))

    def test_row_named_by_its_batch_index(self):
        model = two_class_model()
        patterns = np.zeros((model.block_rows + 5, 2))
        patterns[model.block_rows + 2] = [-1e300, 1e300]
        with pytest.raises(DomainError, match=f"pattern {model.block_rows + 2} is"):
            score_batch(model, patterns, ClassPrior.uniform(2))

    def test_overflow_for_some_classes_scores_minus_inf_there(self):
        # Centre -1e153, whitened means (1e153, 0): at x = 1.3e154 class
        # b's q is 1.96e308, past the largest float, and class a's is not.
        model = PredictiveModel(None, np.array([[0.0, -2e153]]), np.array([0.5, 0.5]),
                                3.0, 1.0, np.eye(1))
        assert model.reach < 1.4e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_unnorm, posteriors, actions = score_batch(model, [[1.3e154]],
                                                          ClassPrior.uniform(2))
        assert np.isfinite(log_unnorm[0, 0]) and log_unnorm[0, 1] == -np.inf
        np.testing.assert_array_equal(posteriors, [[1.0, 0.0]])
        assert actions[0] == 0

    @pytest.mark.parametrize("prior", [np.array([0.0, 1.0]), ClassPrior(np.array([0.0, 1.0]))])
    def test_no_finite_score_among_prior_positive_classes(self, prior):
        # The row above under a prior on class b alone: its one finite score
        # is masked out, and the softmax would give NaN posteriors.
        model = PredictiveModel(None, np.array([[0.0, -2e153]]), np.array([0.5, 0.5]),
                                3.0, 1.0, np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="row 0 has no finite score"):
                class_posterior(model, np.array([1.3e154]), prior)
            with pytest.raises(DomainError, match="row 1 has no finite score"):
                score_batch(model, [[0.0], [1.3e154]], prior)
            with pytest.raises(DomainError, match="row 0 has no finite score"):
                posterior_from_scores([0.0, -np.inf], prior)

    @settings(max_examples=30, deadline=None)
    @given(scoring_cases())
    def test_rows_at_the_reach_do_not_overflow(self, case):
        # Row i of L^{-1} meets a centred row of +-reach with its own signs,
        # the largest whitened entry any row within the reach can give.
        model = case[0]
        inverse = model.inverse_t.T
        rows = model.centre + model.reach * np.where(inverse < 0.0, -1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_unnorm = score_batch(model, rows, ClassPrior.uniform(model.n_classes))[0]
        assert np.all(np.isfinite(log_unnorm))

    def test_reach_leaves_room_for_the_class_means(self):
        # B* = I: every whitened entry of centre +- reach is reach itself,
        # and a class mean on the far side adds its distance to each.
        model = PredictiveModel(None, np.array([[0.0, 4.0], [-3.0, 1.0], [2.0, -6.0]]),
                                np.array([0.5, 0.25]), 7.0, 1.0, np.eye(3))
        rows = model.centre + model.reach * np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_unnorm = score_batch(model, rows, ClassPrior.uniform(2))[0]
        assert np.all(np.isfinite(log_unnorm))


def per_class_reference(model, patterns):
    """Unnormalized log predictive with one triangular solve per class.

    Solves against the model's own factor of B*: two float64 factors of a
    matrix with condition number kappa differ by about eps * kappa in
    the quadratic form, which would swamp what this compares.
    """
    out = np.empty((patterns.shape[0], model.n_classes))
    for k in range(model.n_classes):
        y = solve_triangular(model.chol_b_star.lower, (patterns - model.mu_star[:, k]).T,
                             lower=True)
        cp1 = model.c_star[k] + 1.0
        out[:, k] = (-0.5 * model.dim * np.log(cp1)
                     - 0.5 * (model.a_star + 1.0) * np.log1p(np.sum(y * y, axis=0) / cp1))
    return out


class TestScoringAccuracy:
    """Whitened centred means must not lose what a per-class solve keeps."""

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    @pytest.mark.parametrize("r", [1e-3, 1e-2])
    def test_large_common_offset(self, offset, r):
        ds = offset_dataset(offset)
        model = build_model(posterior(accumulate(ds), PriorHyper.noninformative(r)))
        rng = np.random.default_rng(22)
        patterns = np.vstack([ds.patterns[:100], offset + rng.normal(0.0, 4.0, (50, 3))])
        got = score_batch(model, patterns, ClassPrior.uniform(4))[0]
        want = per_class_reference(model, patterns)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_ill_conditioned_scale_matrix(self):
        rng = np.random.default_rng(23)
        dim = 6
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        b_star = (basis * np.geomspace(1.0, 1e-10, dim)) @ basis.T
        b_star = 0.5 * (b_star + b_star.T)
        assert np.linalg.cond(b_star) == pytest.approx(1e10, rel=0.1)
        post = PosteriorMNW(rng.normal(0.0, 1e-4, (dim, 3)), [5.0, 9.0, 14.0],
                            dim + 4.0, b_star, source_r=1.0)
        model = build_model(post)
        patterns = rng.normal(0.0, 1e-4, (60, dim))
        got = score_batch(model, patterns, ClassPrior.uniform(3))[0]
        np.testing.assert_allclose(got, per_class_reference(model, patterns),
                                   rtol=1e-10, atol=0.0)
