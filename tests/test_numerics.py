import math

import numpy as np
import pytest
import scipy.special

from etvbf.numerics import (
    NotPositiveDefinite,
    Singular,
    digamma,
    log_multivariate_gamma,
    multivariate_digamma,
    spd_factor,
)
from helpers import block_inverse, random_spd

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

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
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


class TestLogMultivariateGamma:
    def test_reference_values(self):
        assert log_multivariate_gamma(1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert log_multivariate_gamma(2, 1.0) == pytest.approx(
            math.log(math.pi), abs=1e-12
        )
        assert log_multivariate_gamma(1, 0.5) == pytest.approx(
            0.5 * math.log(math.pi), abs=1e-12
        )

    def test_against_scipy(self):
        for n in (1, 2, 4):
            for a in (2.0, 5.0, 50.0):
                assert log_multivariate_gamma(n, a) == pytest.approx(
                    float(scipy.special.multigammaln(a, n)), rel=1e-12
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_multivariate_gamma(2, 0.5)


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
