import math
import warnings

import numpy as np
import pytest
import scipy.special

from etvbf.numerics import (
    NotPositiveDefinite,
    Singular,
    digamma,
    spd_factor,
    symmetrize,
)
from helpers import block_inverse, multivariate_digamma, random_spd

EULER_MASCHERONI = 0.5772156649015329


class TestDigamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, -EULER_MASCHERONI),
            (0.5, -EULER_MASCHERONI - 2.0 * math.log(2.0)),
            (2.0, 1.0 - EULER_MASCHERONI),
        ],
    )
    def test_reference_values(self, x, expected):
        assert digamma(x) == pytest.approx(expected, abs=1e-12)

    def test_against_scipy(self):
        for x in np.geomspace(1e-3, 1e6, 60):
            assert digamma(float(x)) == pytest.approx(
                float(scipy.special.digamma(x)), abs=1e-10
            )

    @pytest.mark.parametrize("x", [1e154, 1e200, 1e300])
    def test_large_argument_is_the_asymptote(self, x):
        """No finite x overflows: psi(x) = log x - 1/(2x) to 1e-12, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = digamma(x)
        assert math.isfinite(value)
        assert value == pytest.approx(math.log(x) - 0.5 / x, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, 5e-324, 1e-310])
    def test_domain_error(self, x):
        """x must be positive and normal: a subnormal x's 1/x would overflow."""
        with pytest.raises(ValueError):
            digamma(x)

    def test_smallest_normal_runs_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = digamma(np.finfo(float).tiny)
        assert value == pytest.approx(-1.0 / np.finfo(float).tiny, rel=1e-12)

    def test_elementwise_on_arrays_against_scipy(self):
        x = np.geomspace(1e-3, 1e6, 60).reshape(3, 4, 5)
        out = digamma(x)
        assert out.shape == x.shape
        assert np.abs(out - scipy.special.digamma(x)).max() <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_array_with_one_bad_element_rejected(self, bad):
        x = np.full((2, 3), 4.5)
        x[1, 2] = bad
        with pytest.raises(ValueError, match="x > 0"):
            digamma(x)


class TestMultivariateDigamma:
    def test_order_one_reduces_to_digamma(self):
        for x in (0.3, 1.0, 7.5):
            assert multivariate_digamma(1, x) == digamma(x)

    def test_order_two(self):
        expected = digamma(1.0) + digamma(0.5)
        assert multivariate_digamma(2, 1.0) == pytest.approx(expected, abs=1e-12)
        assert multivariate_digamma(2, 1.0) == pytest.approx(-2.5407256909, abs=1e-9)

    def test_order_four_matches_scalar_sum(self):
        expected = sum(digamma(5.0 + 0.5 * (1 - i)) for i in range(1, 5))
        assert multivariate_digamma(4, 5.0) == pytest.approx(expected, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            multivariate_digamma(4, 1.5)


class TestSymmetrize:
    def test_huge_finite_matrix_stays_finite(self):
        """A symmetric matrix of 1e308 is returned unchanged, with no overflow: halving
        comes before the sum, which as M + M^T would overflow to inf."""
        m = np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = symmetrize(m)
        assert np.array_equal(out, m)

    @pytest.mark.parametrize(
        "shape", [(4, 4), (50, 4, 4), (50, 5, 4, 4)], ids=["4x4", "50x4x4", "50x5x4x4"]
    )
    def test_bitwise_the_sum_form_in_normal_range(self, shape):
        """On normal-range input, M/2 + M^T/2 is bitwise (M + M^T)/2, per matrix of a stack."""
        m = np.random.default_rng(17).standard_normal(shape)
        out = symmetrize(m)
        assert out.tobytes() == (0.5 * (m + m.mT)).tobytes()
        assert np.array_equal(out, out.mT)


class TestSpdFactor:
    def test_identity(self):
        assert spd_factor(np.eye(3)).log_det() == pytest.approx(0.0, abs=1e-14)

    def test_diag_log_det(self):
        assert spd_factor(np.diag([4.0, 9.0])).log_det() == pytest.approx(
            math.log(36.0), abs=1e-12
        )

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_reconstruction_and_inverse(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 4, 6):
            m = random_spd(rng, dim)
            factor = spd_factor(m)
            rebuilt = factor.lower @ factor.lower.T
            assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
            assert np.all(np.diag(factor.lower) > 0)
            assert np.linalg.norm(factor.inverse() @ m - np.eye(dim)) < 1e-9

    def test_log_det_scaling(self):
        rng = np.random.default_rng(8)
        m = random_spd(rng, 4)
        base = spd_factor(m).log_det()
        for c in (0.5, 3.0, 100.0):
            assert spd_factor(c * m).log_det() == pytest.approx(
                4 * math.log(c) + base, abs=1e-10
            )

    def test_stack_log_det_equals_per_matrix_values(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_spd(rng, 4) for _ in range(3)])
        log_dets = spd_factor(stack).log_det()
        assert log_dets.shape == (3,)
        assert np.array_equal(log_dets, [spd_factor(m).log_det() for m in stack])

    def test_stack_with_one_indefinite_member_rejected(self):
        rng = np.random.default_rng(16)
        stack = np.stack([random_spd(rng, 3), np.diag([1.0, -1.0, 1.0]), random_spd(rng, 3)])
        with pytest.raises(NotPositiveDefinite):
            spd_factor(stack)

    def test_solve(self):
        rng = np.random.default_rng(9)
        m = random_spd(rng, 5)
        b = rng.standard_normal((5, 2))
        x = spd_factor(m).solve(b)
        assert np.allclose(m @ x, b, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        """A symmetric matrix, and a stack member, holding a non-finite entry."""
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        stack = np.stack([np.eye(3), m])
        for value in (m, stack):
            with pytest.raises(ValueError, match="non-finite"):
                spd_factor(value)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_not_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            spd_factor(np.ones(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError):
            spd_factor(np.ones(shape))

    def test_stack_with_one_asymmetric_member_rejected(self):
        rng = np.random.default_rng(17)
        stack = np.stack([random_spd(rng, 3) for _ in range(3)])
        stack[1, 0, 2] += 1e-6 * np.abs(stack[1]).max()
        with pytest.raises(ValueError, match="symmetric"):
            spd_factor(stack)

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        rng = np.random.default_rng(18)
        m = random_spd(rng, 4)
        m[0, 3] += 1e-12 * np.abs(m).max()
        assert not np.array_equal(m, m.T)
        lower = spd_factor(m).lower
        assert np.array_equal(lower, np.linalg.cholesky(symmetrize(m)))

    def test_exactly_symmetric_stack_factored_as_is(self):
        rng = np.random.default_rng(19)
        stack = np.stack([symmetrize(random_spd(rng, 5)) for _ in range(4)])
        assert np.array_equal(spd_factor(stack).lower, np.linalg.cholesky(stack))


def _spd_with_condition(rng, dim: int, cond: float) -> np.ndarray:
    """Exactly symmetric SPD matrix with eigenvalues spread geometrically over [1/cond, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return symmetrize((q * np.geomspace(1.0, 1.0 / cond, dim)) @ q.T)


class TestSpdFactorSolveAndInverse:
    """solve and inverse go through the explicit inverse of the Cholesky factor."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_residuals(self, dim, cond):
        """||M X - B|| <= 20 n eps ||M|| ||X||; ||M M^-1 - I|| <= 20 n cond eps."""
        rng = np.random.default_rng(100 * dim + int(math.log10(cond)))
        for _ in range(20):
            m = _spd_with_condition(rng, dim, cond) * 10.0 ** rng.uniform(-3, 3)
            factor = spd_factor(m)
            b = rng.standard_normal((dim, 3))
            x = factor.solve(b)
            residual = np.linalg.norm(m @ x - b)
            assert residual <= 20 * dim * self.EPS * np.linalg.norm(m) * np.linalg.norm(x)
            inv = factor.inverse()
            assert np.linalg.norm(m @ inv - np.eye(dim)) <= 20 * dim * cond * self.EPS
            assert np.array_equal(inv, inv.T)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_stack_members_bitwise_equal_single_calls(self, dim):
        rng = np.random.default_rng(200 + dim)
        stack = np.stack([_spd_with_condition(rng, dim, c) for c in (1.0, 1e2, 1e4, 1e6, 1e8)])
        rhs = rng.standard_normal((5, 2, dim)).mT  # a transposed view
        stacked = spd_factor(stack)
        solved, inverses = stacked.solve(rhs), stacked.inverse()
        for i, m in enumerate(stack):
            single = spd_factor(m)
            assert np.array_equal(solved[i], single.solve(rhs[i]))
            assert np.array_equal(inverses[i], single.inverse())


class TestBlockInverse:
    def test_block_diagonal_identity(self):
        z = np.zeros((2, 2))
        assert np.allclose(block_inverse(np.eye(2), z, z, np.eye(2)), np.eye(4))

    def test_scalar_blocks(self):
        out = block_inverse([[2.0]], [[1.0]], [[1.0]], [[1.0]])
        assert np.allclose(out, np.array([[1.0, -1.0], [-1.0, 2.0]]), atol=1e-12)

    def test_random_instances_match_dense_inverse(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            na = int(rng.integers(1, 5))
            nd = int(rng.integers(1, 9 - na))
            full = random_spd(rng, na + nd)
            a, b = full[:na, :na], full[:na, na:]
            c, d = full[na:, :na], full[na:, na:]
            out = block_inverse(a, b, c, d)
            assert np.linalg.norm(out - np.linalg.inv(full)) < 1e-8
            assert np.linalg.norm(out @ full - np.eye(na + nd)) < 1e-9

    def test_singular_top_left(self):
        with pytest.raises(Singular):
            block_inverse(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))

    def test_singular_schur_complement(self):
        with pytest.raises(Singular):
            block_inverse([[1.0]], [[1.0]], [[1.0]], [[1.0]])
