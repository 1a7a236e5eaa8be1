import math

import numpy as np
import pytest
import scipy.special

from etvbf.distributions import (
    CategoricalWeights,
    Dirichlet,
    InverseWishart,
    SeededRng,
    dirichlet_expected_log,
    iw_expected_logdet,
    iw_mean_of_inverse,
    normalize_log_weights,
    sample_gaussian,
    sample_uniform,
)
from helpers import iw_log_pdf, random_spd


class TestInverseWishartMoments:
    def test_mean_of_inverse_identity_case(self):
        iw = InverseWishart(dim=4, dof=10.0, scale=10.0 * np.eye(4))
        assert np.allclose(iw_mean_of_inverse(iw), np.eye(4), atol=1e-12)

    def test_mean_of_inverse_scalar(self):
        iw = InverseWishart(dim=1, dof=3.0, scale=np.array([[6.0]]))
        assert iw_mean_of_inverse(iw)[0, 0] == pytest.approx(0.5)

    def test_mean_of_inverse_diagonal(self):
        iw = InverseWishart(dim=2, dof=5.0, scale=np.diag([5.0, 10.0]))
        assert np.allclose(iw_mean_of_inverse(iw), np.diag([1.0, 0.5]), atol=1e-12)

    def test_mean_of_inverse_scale_inverse_scaling(self):
        rng = np.random.default_rng(3)
        g = random_spd(rng, 3)
        base = iw_mean_of_inverse(InverseWishart(3, 7.0, g))
        for c in (0.25, 4.0):
            scaled = iw_mean_of_inverse(InverseWishart(3, 7.0, c * g))
            assert np.allclose(scaled, base / c, atol=1e-10)

    def test_expected_logdet_scalar(self):
        iw = InverseWishart(dim=1, dof=2.0, scale=np.array([[2.0]]))
        assert iw_expected_logdet(iw) == pytest.approx(0.5772156649, abs=1e-9)

    def test_expected_logdet_scale_additivity(self):
        for c in (0.5, 3.0):
            iw = InverseWishart(dim=1, dof=2.0, scale=np.array([[2.0 * c]]))
            assert iw_expected_logdet(iw) == pytest.approx(
                0.5772156649 + math.log(c), abs=1e-9
            )

    def test_expected_logdet_two_dim(self):
        # -2 log 2 - psi_2(1), from the scalar digamma reference values
        expected = -2.0 * math.log(2.0) - (
            scipy.special.digamma(1.0) + scipy.special.digamma(0.5)
        )
        iw = InverseWishart(dim=2, dof=2.0, scale=np.eye(2))
        assert iw_expected_logdet(iw) == pytest.approx(expected, abs=1e-10)
        assert iw_expected_logdet(iw) == pytest.approx(1.1544313298, abs=1e-9)

    def test_expected_logdet_matrix_scaling(self):
        rng = np.random.default_rng(4)
        g = random_spd(rng, 3)
        base = iw_expected_logdet(InverseWishart(3, 9.0, g))
        for c in (0.1, 7.0):
            scaled = iw_expected_logdet(InverseWishart(3, 9.0, c * g))
            assert scaled - base == pytest.approx(3 * math.log(c), abs=1e-9)


class TestInverseWishartLogPdf:
    def test_scalar_reference(self):
        iw = InverseWishart(dim=1, dof=2.0, scale=np.array([[2.0]]))
        assert iw_log_pdf(iw, np.array([[1.0]])) == pytest.approx(-1.0, abs=1e-12)

    def test_scalar_normalization_by_quadrature(self):
        iw = InverseWishart(dim=1, dof=5.0, scale=np.array([[3.0]]))
        grid = np.linspace(1e-4, 60.0, 400_000)
        density = np.exp([iw_log_pdf(iw, np.array([[p]])) for p in grid[::100]])
        integral = np.trapezoid(density, grid[::100])
        assert integral == pytest.approx(1.0, rel=0.01)

    def test_scalar_mode_location(self):
        g, scale = 4.0, 6.0
        iw = InverseWishart(dim=1, dof=g, scale=np.array([[scale]]))
        grid = np.linspace(0.05, 20.0, 2000)
        values = [iw_log_pdf(iw, np.array([[p]])) for p in grid]
        mode = grid[int(np.argmax(values))]
        assert mode == pytest.approx(scale / (g + 2.0), abs=0.02)


class TestDirichlet:
    def test_expected_log_symmetric_pair(self):
        out = dirichlet_expected_log(Dirichlet(np.array([1.0, 1.0])))
        assert np.allclose(out, [-1.0, -1.0], atol=1e-10)

    def test_expected_log_uniform_components_equal(self):
        out = dirichlet_expected_log(Dirichlet(np.full(5, 2.5)))
        assert np.allclose(out, out[0])
        assert np.all(out < 0)

    def test_expected_log_against_scipy(self):
        alpha = np.array([2.0, 1.0])
        out = dirichlet_expected_log(Dirichlet(alpha))
        expected = scipy.special.digamma(alpha) - scipy.special.digamma(alpha.sum())
        assert np.allclose(out, expected, atol=1e-10)

    def test_expected_log_monotone_in_own_concentration(self):
        others = np.array([1.0, 2.0])
        values = []
        for a in (0.5, 1.0, 2.0, 5.0, 20.0):
            out = dirichlet_expected_log(Dirichlet(np.array([a, *others])))
            values.append(out[0])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_positive_concentration_required(self):
        with pytest.raises(ValueError):
            Dirichlet(np.array([1.0, 0.0]))


class TestNormalizeLogWeights:
    def test_symmetric(self):
        out = normalize_log_weights(np.zeros(2))
        assert np.allclose(out.probabilities, [0.5, 0.5])

    def test_arithmetic(self):
        out = normalize_log_weights(np.log([1.0, 3.0]))
        assert np.allclose(out.probabilities, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance_no_overflow(self):
        out = normalize_log_weights(np.array([1000.0, 1000.0 + math.log(3.0)]))
        assert np.allclose(out.probabilities, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            log_w = rng.standard_normal(6) * 50
            out = normalize_log_weights(log_w).probabilities
            assert abs(out.sum() - 1.0) <= 1e-12
            perm = rng.permutation(6)
            permuted = normalize_log_weights(log_w[perm]).probabilities
            assert np.allclose(permuted, out[perm], atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normalize_log_weights(np.array([-math.inf, -math.inf]))


class TestCategoricalWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CategoricalWeights(np.array([0.5, 0.6]))

    def test_components_in_unit_interval(self):
        with pytest.raises(ValueError):
            CategoricalWeights(np.array([1.5, -0.5]))


class TestSampling:
    def test_gaussian_deterministic_under_seed(self):
        mean = np.array([1.0, -2.0])
        draw1 = sample_gaussian(SeededRng(42), mean, np.eye(2))
        draw2 = sample_gaussian(SeededRng(42), mean, np.eye(2))
        assert np.array_equal(draw1, draw2)

    def test_gaussian_mean_clt_bound(self):
        eps = 0.01
        rng = SeededRng(123)
        mean = np.array([2.0, -1.0])
        draws = np.array([sample_gaussian(rng, mean, eps * np.eye(2)) for _ in range(10**5)])
        bound = 4.0 * math.sqrt(eps / 10**5)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < bound)

    def test_gaussian_sample_covariance(self):
        rng = SeededRng(321)
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        draws = np.array(
            [sample_gaussian(rng, np.zeros(2), cov) for _ in range(10**5)]
        )
        sample_cov = np.cov(draws.T)
        assert np.linalg.norm(sample_cov - cov) < 0.05 * np.linalg.norm(cov)

    def test_uniform_deterministic_under_seed(self):
        assert sample_uniform(SeededRng(9)) == sample_uniform(SeededRng(9))

    def test_uniform_moments(self):
        rng = SeededRng(77)
        draws = np.array([sample_uniform(rng) for _ in range(10**5)])
        assert abs(draws.mean() - 0.5) < 0.005
        assert abs(np.mean(draws < 0.25) - 0.25) < 0.006
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_tuple_seeds_give_distinct_streams(self):
        a = sample_uniform(SeededRng((1, 2)))
        b = sample_uniform(SeededRng((1, 3)))
        assert a != b
