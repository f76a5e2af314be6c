import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import multigammaln

import gausset

from gausset.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from gausset.linalg import (
    CholeskyFactor,
    cholesky,
    log_multivariate_gamma,
    logdet,
    quadform,
    symmetrize,
)

from conftest import random_spd


class TestSymmetrize:
    @pytest.mark.parametrize("shape", [(2, 3), (2,), (), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="expected square matrices"):
            symmetrize(np.ones(shape))


class TestCholesky:
    def test_identity(self):
        factor = cholesky(np.eye(2))
        np.testing.assert_array_equal(factor.lower, np.eye(2))

    def test_worked_2x2(self):
        # [[4,2],[2,3]] factors by hand into [[2,0],[1,sqrt(2)]].
        factor = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(
            factor.lower, np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]]), rtol=1e-15
        )

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (2,), (1, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="non-empty square matrix"):
            cholesky(np.ones(shape))

    def test_indefinite_rejected(self):
        # Eigenvalues of [[1,2],[2,1]] are 3 and -1.
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.zeros((3, 3)))

    def test_sub_tolerance_pivot_rejected(self):
        # The second pivot is about 1e-14: positive, so LAPACK alone
        # accepts it, but under 1e-12 times the largest diagonal entry.
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    def test_infinite_entry_rejected(self):
        for a in (np.array([[np.inf, 0.0], [0.0, 1.0]]),
                  np.array([[1.0, np.inf], [np.inf, 1.0]])):
            with pytest.raises(NotPositiveDefinite):
                cholesky(a)

    @pytest.mark.parametrize("a", [[[np.nan]], [[1.0, np.nan], [np.nan, 1.0]],
                                   [[1.0, np.nan], [0.0, 1.0]]],
                             ids=["scalar", "symmetric", "one-sided"])
    def test_nan_entry_is_non_finite_not_asymmetric(self, a):
        # NaN != NaN, so a symmetry test first would call this asymmetric.
        with pytest.raises(NotPositiveDefinite, match="non-finite entry"):
            cholesky(a)

    def test_factor_is_c_contiguous(self):
        rng = np.random.default_rng(41)
        factor = cholesky(symmetrize(random_spd(rng, 5)))
        assert factor.lower.flags.c_contiguous

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_tiny_but_well_scaled_accepted(self):
        # The pivot tolerance is relative to the largest diagonal entry.
        factor = cholesky(1e-14 * np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.all(np.diag(factor.lower) > 0)

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 5, 8):
            a = symmetrize(random_spd(rng, n))
            factor = cholesky(a)
            rebuilt = factor.lower @ factor.lower.T
            err = np.linalg.norm(rebuilt - a) / np.linalg.norm(a)
            assert err < 1e-10

    def test_factor_is_immutable(self):
        factor = cholesky(np.eye(2))
        with pytest.raises(ValueError):
            factor.lower[0, 0] = 5.0


class TestInverse:
    def test_exactly_lower_triangular_and_read_only(self):
        rng = np.random.default_rng(43)
        factor = cholesky(symmetrize(random_spd(rng, 7)))
        inverse = factor.inverse
        assert inverse is factor.inverse
        assert np.all(np.triu(inverse, 1) == 0.0)
        with pytest.raises(ValueError):
            inverse[1, 0] = 5.0

    def test_inverts_an_ill_conditioned_factor(self):
        rng = np.random.default_rng(44)
        basis, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        a = symmetrize((basis * np.geomspace(1.0, 1e-10, 30)) @ basis.T)
        factor = cholesky(a)
        np.testing.assert_allclose(factor.lower @ factor.inverse, np.eye(30),
                                   rtol=0.0, atol=1e-12)


class TestCholeskyFactorInput:
    @pytest.mark.parametrize("lower", [np.ones(2), np.ones((2, 3)), np.ones((0, 0)),
                                       np.ones((1, 2, 2))],
                             ids=["vector", "non-square", "empty", "stack"])
    def test_not_a_square_matrix_rejected(self, lower):
        with pytest.raises(DimensionMismatch):
            CholeskyFactor(lower)

    @pytest.mark.parametrize("lower", [
        [[1.0, 0.5], [0.0, 1.0]],
        [[1.0, 0.0], [1.0, 0.0]],
        [[-1.0, 0.0], [0.5, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [np.nan, 1.0]],
    ], ids=["upper-entry", "zero-pivot", "negative-pivot", "inf-pivot", "nan-pivot",
            "nan-below"])
    def test_not_a_factor_rejected(self, lower):
        with pytest.raises(NotPositiveDefinite):
            CholeskyFactor(lower)

    def test_cholesky_runs_no_factor_check(self, monkeypatch):
        # LAPACK's factor passes cholesky's own checks, which imply these.
        calls = []
        check = CholeskyFactor.__init__
        monkeypatch.setattr(CholeskyFactor, "__init__",
                            lambda self, lower: calls.append(1) or check(self, lower))
        factor = cholesky(symmetrize(random_spd(np.random.default_rng(46), 4)))
        assert calls == []
        assert not factor.lower.flags.writeable
        CholeskyFactor(factor.lower)
        assert calls == [1]

    def test_cholesky_output_passes_unchanged(self):
        rng = np.random.default_rng(45)
        factor = cholesky(symmetrize(random_spd(rng, 5)))
        again = CholeskyFactor(factor.lower)
        assert again.lower is factor.lower

    def test_pivot_rounded_to_zero_in_the_solve_is_structured(self):
        # A valid factor whose pivoted LU rounds a 1e-300 pivot to zero.
        factor = CholeskyFactor([[1e-300, 0.0], [1.0, 1e-300]])
        with pytest.raises(NotPositiveDefinite):
            factor.inverse
        with pytest.raises(NotPositiveDefinite):
            quadform(factor, np.ones(2))


def frozen_value(name):
    """A value of the frozen type ``name`` built from fresh writable arrays,
    and the ``(caller's array, field name)`` pairs it was given."""
    a, b, c = np.ones((2, 1)), np.ones(1), np.eye(2)
    if name == "LabeledDataset":
        return gausset.LabeledDataset(a, [0, 1], ("p", "q")), [(a, "patterns")]
    if name == "SufficientStats":
        counts = np.array([1])
        return (gausset.SufficientStats(counts, a, c),
                [(counts, "counts"), (a, "means"), (c, "within")])
    if name == "CholeskyFactor":
        return CholeskyFactor(c), [(c, "lower")]
    if name == "PriorHyper":
        return gausset.PriorHyper(1.0, 3.0, c), [(c, "b")]
    if name == "PosteriorMNW":
        return (gausset.PosteriorMNW(a, b, 3.0, c, 1.0),
                [(a, "m_star"), (b, "r_star_diag"), (c, "b_star")])
    if name == "PredictiveModel":
        return (gausset.PredictiveModel(None, a, b, 3.0, 1.0, c),
                [(a, "mu_star"), (b, "c_star"), (c, "b_star")])
    if name == "ClassPrior":
        return gausset.ClassPrior(b), [(b, "probs")]
    grid = np.ones(2)
    return gausset.EvidenceCurve(grid, b, None), [(grid, "r_values"), (b, "log_evidence")]


FROZEN_TYPES = ["LabeledDataset", "SufficientStats", "CholeskyFactor", "PriorHyper",
                "PosteriorMNW", "PredictiveModel", "ClassPrior", "EvidenceCurve"]


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_frozen_values_leave_the_callers_arrays_writable(name):
    value, fields = frozen_value(name)
    assert type(value).__name__ == name
    for array, field in fields:
        own = getattr(value, field)
        with pytest.raises(ValueError, match="read-only"):
            own.flat[0] = 2.0
        assert array.flags.writeable
        array.flat[0] = 2.0
        # Read-only views, not copies; PriorHyper symmetrizes B into a new array.
        assert np.shares_memory(own, array) == (field != "b")


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_frozen_values_refuse_attribute_writes(name):
    value, fields = frozen_value(name)
    field = fields[0][1]
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is kept and not hasattr(value, "extra")


def test_import_loads_no_scipy():
    code = ("import sys, gausset, gausset.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(gausset.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_dataclasses():
    code = "import sys, gausset; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(gausset.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet(cholesky(np.eye(3))) == 0.0

    def test_worked_2x2(self):
        # det([[4,2],[2,3]]) = 12 - 4 = 8.
        assert logdet(cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))) == pytest.approx(
            np.log(8.0), abs=1e-14
        )

    def test_diagonal(self):
        assert logdet(cholesky(np.diag([2.0, 5.0]))) == pytest.approx(np.log(10.0))

    def test_matches_explicit_2x2_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = symmetrize(random_spd(rng, 2, jitter=0.5))
            explicit = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            assert logdet(cholesky(a)) == pytest.approx(np.log(explicit), abs=1e-12)


class TestQuadform:
    def test_identity(self):
        assert quadform(cholesky(np.eye(2)), [3.0, 4.0]) == pytest.approx(25.0)

    def test_diagonal(self):
        assert quadform(cholesky(np.diag([2.0, 5.0])), [2.0, 5.0]) == pytest.approx(7.0)

    def test_zero_vector(self):
        assert quadform(cholesky(np.array([[4.0, 2.0], [2.0, 3.0]])), [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        for bad in ([1.0], np.zeros((3, 4)), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatch):
                quadform(cholesky(np.eye(2)), bad)

    def test_nonfinite_vector_rejected(self):
        for bad in ([np.nan, 0.0], np.array([[1.0], [np.inf]])):
            with pytest.raises(ValueError):
                quadform(cholesky(np.eye(2)), bad)

    def test_agrees_with_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = symmetrize(random_spd(rng, 3, jitter=0.1))
            d = rng.normal(size=3)
            factor = cholesky(a)
            direct = quadform(factor, d)
            via_solve = float(d @ np.linalg.solve(a, d))
            assert abs(direct - via_solve) / abs(via_solve) < 1e-10

    @pytest.mark.parametrize("dim", [33, 64, 100])
    def test_agrees_with_solve_past_one_block(self, dim):
        # Substitution runs 32 rows at a time; later blocks subtract the
        # products with the rows already solved.
        rng = np.random.default_rng(dim)
        a = symmetrize(random_spd(rng, dim, jitter=0.1))
        d = rng.normal(size=dim)
        via_solve = float(d @ np.linalg.solve(a, d))
        assert quadform(cholesky(a), d) == pytest.approx(via_solve, rel=1e-10, abs=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        factor = cholesky(symmetrize(random_spd(rng, 3)))
        for _ in range(100):
            assert quadform(factor, rng.normal(size=3)) >= 0.0


class TestLogMultivariateGamma:
    def test_reduces_to_log_gamma_in_1d(self):
        for x in (0.3, 1.0, 7.5):
            assert log_multivariate_gamma(1, x) == math.lgamma(x)

    def test_bivariate_at_three_halves(self):
        # sqrt(pi) * Gamma(3/2) * Gamma(1) = pi / 2.
        assert log_multivariate_gamma(2, 1.5) == pytest.approx(
            np.log(np.pi / 2.0), abs=1e-14
        )

    def test_bivariate_at_one(self):
        # sqrt(pi) * Gamma(1) * Gamma(1/2) = pi.
        assert log_multivariate_gamma(2, 1.0) == pytest.approx(
            np.log(np.pi), abs=1e-14
        )

    def test_matches_scipy(self):
        for n in (1, 2, 3, 5):
            for x in (0.5 * (n - 1) + 0.3, 2.0 + n, 50.0):
                assert log_multivariate_gamma(n, x) == pytest.approx(
                    float(multigammaln(x, n)), rel=1e-13
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            log_multivariate_gamma(2, 0.5)  # second gamma argument hits 0
        with pytest.raises(DomainError):
            log_multivariate_gamma(3, 1.0)
        with pytest.raises(DomainError):
            log_multivariate_gamma(0, 1.0)

    def test_monotone_in_x(self):
        # Increasing once every digamma argument clears the gamma minimum
        # near 1.4616; just above (n-1)/2 + 1 the first factor still dips.
        for n in (1, 2, 4):
            lo = (n - 1) / 2.0 + 1.5
            grid = np.linspace(lo, lo + 10.0, 50)
            values = [log_multivariate_gamma(n, x) for x in grid]
            assert np.all(np.diff(values) > 0)
