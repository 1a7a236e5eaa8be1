import math

import numpy as np
import pytest
import scipy.special

from etvbf.distributions import (
    SeededRng,
    normalize_log_weights,
    sample_gaussian,
)
from etvbf.model import scenario_defaults
from etvbf.numerics import spd_factor
from helpers import (
    dirichlet_expected_log,
    iw_expected_logdet,
    iw_log_pdf,
    iw_mean_of_inverse,
    random_spd,
)


class TestInverseWishartMoments:
    def test_mean_of_inverse_identity_case(self):
        e_inv = iw_mean_of_inverse(10.0, spd_factor(10.0 * np.eye(4)))
        assert np.allclose(e_inv, np.eye(4), atol=1e-12)

    def test_mean_of_inverse_scalar(self):
        e_inv = iw_mean_of_inverse(3.0, spd_factor(np.array([[6.0]])))
        assert e_inv[0, 0] == pytest.approx(0.5)

    def test_mean_of_inverse_diagonal(self):
        e_inv = iw_mean_of_inverse(5.0, spd_factor(np.diag([5.0, 10.0])))
        assert np.allclose(e_inv, np.diag([1.0, 0.5]), atol=1e-12)

    def test_mean_of_inverse_scale_inverse_scaling(self):
        rng = np.random.default_rng(3)
        g = random_spd(rng, 3)
        base = iw_mean_of_inverse(7.0, spd_factor(g))
        for c in (0.25, 4.0):
            scaled = iw_mean_of_inverse(7.0, spd_factor(c * g))
            assert np.allclose(scaled, base / c, atol=1e-10)

    def test_expected_logdet_scalar(self):
        e_logdet = iw_expected_logdet(2.0, spd_factor(np.array([[2.0]])))
        assert e_logdet == pytest.approx(0.5772156649, abs=1e-9)

    def test_expected_logdet_scale_additivity(self):
        for c in (0.5, 3.0):
            e_logdet = iw_expected_logdet(2.0, spd_factor(np.array([[2.0 * c]])))
            assert e_logdet == pytest.approx(
                0.5772156649 + math.log(c), abs=1e-9
            )

    def test_expected_logdet_two_dim(self):
        # -2 log 2 - psi_2(1), from the scalar digamma reference values
        expected = -2.0 * math.log(2.0) - (
            scipy.special.digamma(1.0) + scipy.special.digamma(0.5)
        )
        e_logdet = iw_expected_logdet(2.0, spd_factor(np.eye(2)))
        assert e_logdet == pytest.approx(expected, abs=1e-10)
        assert e_logdet == pytest.approx(1.1544313298, abs=1e-9)

    def test_expected_logdet_matrix_scaling(self):
        rng = np.random.default_rng(4)
        g = random_spd(rng, 3)
        base = iw_expected_logdet(9.0, spd_factor(g))
        for c in (0.1, 7.0):
            scaled = iw_expected_logdet(9.0, spd_factor(c * g))
            assert scaled - base == pytest.approx(3 * math.log(c), abs=1e-9)


class TestInverseWishartLogPdf:
    def test_scalar_reference(self):
        value = iw_log_pdf(2.0, np.array([[2.0]]), np.array([[1.0]]))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_scalar_normalization_by_quadrature(self):
        scale = np.array([[3.0]])
        grid = np.linspace(1e-4, 60.0, 400_000)
        density = np.exp([iw_log_pdf(5.0, scale, np.array([[p]])) for p in grid[::100]])
        integral = np.trapezoid(density, grid[::100])
        assert integral == pytest.approx(1.0, rel=0.01)

    def test_scalar_mode_location(self):
        g, scale = 4.0, 6.0
        grid = np.linspace(0.05, 20.0, 2000)
        values = [iw_log_pdf(g, np.array([[scale]]), np.array([[p]])) for p in grid]
        mode = grid[int(np.argmax(values))]
        assert mode == pytest.approx(scale / (g + 2.0), abs=0.02)


class TestDirichlet:
    def test_expected_log_symmetric_pair(self):
        out = dirichlet_expected_log(np.array([1.0, 1.0]))
        assert np.allclose(out, [-1.0, -1.0], atol=1e-10)

    def test_expected_log_uniform_components_equal(self):
        out = dirichlet_expected_log(np.full(5, 2.5))
        assert np.allclose(out, out[0])
        assert np.all(out < 0)

    def test_expected_log_against_scipy(self):
        alpha = np.array([2.0, 1.0])
        out = dirichlet_expected_log(alpha)
        expected = scipy.special.digamma(alpha) - scipy.special.digamma(alpha.sum())
        assert np.allclose(out, expected, atol=1e-10)

    def test_expected_log_monotone_in_own_concentration(self):
        others = np.array([1.0, 2.0])
        values = []
        for a in (0.5, 1.0, 2.0, 5.0, 20.0):
            out = dirichlet_expected_log(np.array([a, *others]))
            values.append(out[0])
        assert all(b > a for a, b in zip(values, values[1:]))


class TestNormalizeLogWeights:
    def test_symmetric(self):
        out = normalize_log_weights(np.zeros(2))
        assert np.allclose(out, [0.5, 0.5])

    def test_arithmetic(self):
        out = normalize_log_weights(np.log([1.0, 3.0]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance_no_overflow(self):
        out = normalize_log_weights(np.array([1000.0, 1000.0 + math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            log_w = rng.standard_normal(6) * 50
            out = normalize_log_weights(log_w)
            assert abs(out.sum() - 1.0) <= 1e-12
            perm = rng.permutation(6)
            permuted = normalize_log_weights(log_w[perm])
            assert np.allclose(permuted, out[perm], atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normalize_log_weights(np.array([-math.inf, -math.inf]))


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

    @pytest.mark.parametrize("cov", ["scenario", "dense"])
    def test_streams_share_one_factor_bitwise_their_own_draws(self, cov):
        """A sequence of streams draws through one factor of cov, bitwise what each stream
        draws alone, and leaves each stream where its own draw does."""
        x0, p0, _ = scenario_defaults()
        cov = p0 if cov == "scenario" else np.array(
            [[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1], [0.5, 0.3, 2.0, 0.4],
             [0.2, 0.1, 0.4, 1.0]]
        )
        streams = [SeededRng((20240, t)) for t in range(50)]
        draws = sample_gaussian(streams, x0, cov)
        assert draws.shape == (50, 4)
        for t, (stream, draw) in enumerate(zip(streams, draws)):
            alone = SeededRng((20240, t))
            assert draw.tobytes() == sample_gaussian(alone, x0, cov).tobytes()
            assert stream.random() == alone.random()

    def test_uniform_deterministic_under_seed(self):
        assert SeededRng(9).random() == SeededRng(9).random()

    def test_uniform_moments(self):
        rng = SeededRng(77)
        draws = np.array([rng.random() for _ in range(10**5)])
        assert abs(draws.mean() - 0.5) < 0.005
        assert abs(np.mean(draws < 0.25) - 0.25) < 0.006
        assert draws.min() >= 0.0 and draws.max() < 1.0

    @pytest.mark.parametrize("key", [0, 9, (20240, 3), (20240, 3, 3503022401)])
    def test_uniforms_are_bitwise_single_draws(self, key):
        """A table of n draws, random(n), holds the doubles of n random() calls, and the
        stream goes on alike. The key is numpy's PCG64(SeedSequence(key)), which the
        golden outputs rely on."""
        table, single = SeededRng(key), SeededRng(key)
        draws = table.random(150)
        assert draws.tobytes() == np.array([single.random() for _ in range(150)]).tobytes()
        assert table.random() == single.random()
        ours = SeededRng(key)
        keyed = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        assert ours.random(151).tobytes() == keyed.random(151).tobytes()
        assert ours.standard_normal(7).tobytes() == keyed.standard_normal(7).tobytes()

    def test_tuple_seeds_give_distinct_streams(self):
        a = SeededRng((1, 2)).random()
        b = SeededRng((1, 3)).random()
        assert a != b
