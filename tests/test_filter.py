import dataclasses
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etvbf.baselines import KfState, clset_kf_step
from etvbf.distributions import SeededRng
from etvbf.filter import (
    FilterConfig,
    FilterState,
    IterationState,
    check_convergence,
    etvbf_step,
    initial_state,
    predict,
    silent_update,
    take_rows,
    update_joint_no_meas,
    update_meas_cov,
    update_mixture,
    update_predicted_cov,
    update_state_meas,
)
from etvbf.model import build_cv_scenario, scenario_defaults, simulate_truth
from etvbf.numerics import spd_factor
from etvbf.trigger import TriggerConfig, TriggerOutcome
from helpers import dense_theta, random_spd


def make_config(
    n=2,
    m=2,
    q_scales=(1.0, 2.0),
    dof=10.0,
    r_scale=1.0,
    s0=5.0,
    rho=1.0,
    y_scale=1.0,
    tol=1e-8,
):
    m_size = len(q_scales)
    return FilterConfig(
        nominal_q=tuple(s * np.eye(n) for s in q_scales),
        dof_g=np.full(m_size, dof),
        r0=r_scale * np.eye(m),
        s0=s0,
        alpha0=np.ones(m_size),
        rho=rho,
        trigger=TriggerConfig(Y=y_scale * np.eye(m)),
        tol=tol,
    )


def scalar_config(**kwargs):
    return make_config(n=1, m=1, **kwargs)


class TestFilterConfig:
    def test_rejects_asymmetric_r0(self):
        with pytest.raises(ValueError, match="r0"):
            dataclasses.replace(make_config(), r0=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "nominal_q,match",
        [
            ((np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])), "nominal_q must be symmetric"),
            ((np.eye(2), np.diag([1.0, -1e-3])), "nominal_q must be positive definite"),
            (np.eye(2), "nominal_q must be a nonempty array of 3 axes"),
            ((np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)), "dof_g"),  # three Q, two dofs
        ],
        ids=["asymmetric", "indefinite", "two-dim", "length-mismatch"],
    )
    def test_rejects_bad_nominal_q_at_construction(self, nominal_q, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(make_config(), nominal_q=nominal_q)

    def test_accepts_tuple_of_matrices_as_stack(self):
        cfg = make_config(q_scales=(1.0, 2.0))
        assert cfg.nominal_q.shape == (2, 2, 2)
        assert np.array_equal(cfg.nominal_q[1], 2.0 * np.eye(2))


class TestPredict:
    def test_covariance_bank(self):
        cfg = make_config(q_scales=(1.0, 2.0, 3.0))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=4.0, S=4.0 * np.eye(2), alpha=np.full(3, 2.0)
        )
        pred = predict(state, np.eye(2), cfg)
        assert pred.G_j.shape == (3, 2, 2)
        assert np.allclose(pred.G_j, cfg.dof_g[:, None, None] * (state.P + cfg.nominal_q))
        for j, big_g in enumerate(pred.G_j, start=1):
            assert np.allclose(big_g, cfg.dof_g[j - 1] * (1 + j) * np.eye(2))

    def test_log_normalisers_against_scipy(self):
        rng = np.random.default_rng(14)
        n = 4
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=np.array([8.0, 6.0, 5.0]))
        state = FilterState(
            x_hat=np.zeros(n), P=random_spd(rng, n), s=5.0, S=5.0 * np.eye(2),
            alpha=np.ones(3),
        )
        f_mat = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        pred = predict(state, f_mat, cfg)
        fpf = f_mat @ state.P @ f_mat.T
        for g_j, q_j, log_norm in zip(cfg.dof_g, cfg.nominal_q, pred.log_norm_j):
            expected = (
                0.5 * g_j * np.linalg.slogdet(g_j * (fpf + q_j))[1]
                - 0.5 * n * g_j * math.log(2.0)
                - scipy.special.multigammaln(0.5 * g_j, n)
            )
            assert log_norm == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_rho_one_keeps_priors(self):
        cfg = make_config(rho=1.0)
        state = FilterState(
            x_hat=np.ones(2), P=np.eye(2), s=4.0, S=4.0 * np.eye(2), alpha=np.array([2.0, 2.0])
        )
        pred = predict(state, np.eye(2), cfg)
        assert pred.s_prior == 4.0
        assert np.allclose(pred.S_prior, state.S)
        assert np.allclose(pred.alpha_prior, state.alpha)

    def test_forgetting(self):
        cfg = make_config(rho=0.5)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=4.0, S=4.0 * np.eye(2), alpha=np.array([2.0, 2.0])
        )
        pred = predict(state, np.eye(2), cfg)
        assert pred.s_prior == 2.0
        assert np.allclose(pred.alpha_prior, [1.0, 1.0])
        assert np.allclose(pred.S_prior, 2.0 * np.eye(2))

    def test_stack_rows_bitwise_equal_single_state_predictions(self):
        """Each row of a stacked sweep-zero state, in every field, is bitwise its row's alone."""
        rng = np.random.default_rng(15)
        n, rows = 4, 3
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=np.array([8.0, 6.0, 5.0]), rho=0.997)
        stack = FilterState(
            x_hat=rng.standard_normal((rows, n)),
            P=np.array([random_spd(rng, n) for _ in range(rows)]),
            s=rng.uniform(3.0, 9.0, rows),
            S=np.array([random_spd(rng, 2) for _ in range(rows)]),
            alpha=rng.uniform(0.5, 3.0, (rows, 3)),
        )
        f_mat = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        stacked = predict(stack, f_mat, cfg)
        for i in range(rows):
            alone = predict(take_rows(stack, i), f_mat, cfg)
            for field in dataclasses.fields(IterationState):
                row = np.asarray(getattr(stacked, field.name))[i]
                single = np.asarray(getattr(alone, field.name))
                assert (row.shape, row.dtype) == (single.shape, single.dtype), field.name
                assert row.tobytes() == single.tobytes(), (i, field.name)


class TestInitIteration:
    """Sweep zero: the iterates that predict starts from the priors."""

    def test_uniform_prior_with_equal_dofs(self):
        cfg = make_config(q_scales=(1.0,) * 5, dof=10.0)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(5)
        )
        it = predict(state, np.eye(2), cfg)
        assert it.g == pytest.approx(10.0)
        assert np.allclose(it.chi, 0.2)
        assert np.allclose(it.x, state.x_hat)  # F = I

    def test_single_component(self):
        cfg = make_config(q_scales=(2.0,))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(1)
        )
        it = predict(state, np.eye(2), cfg)
        assert np.allclose(it.chi, [1.0])
        assert np.allclose(it.p_tilde, state.P + cfg.nominal_q[0])  # F = I

    def test_equal_bank_convexity(self):
        cfg = make_config(q_scales=(3.0, 3.0, 3.0))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2),
            alpha=np.array([0.2, 1.0, 3.0]),
        )
        it = predict(state, np.eye(2), cfg)
        assert np.allclose(it.p_tilde, state.P + cfg.nominal_q[0], atol=1e-12)  # F = I

    def test_r_tilde_from_prior_ratio(self):
        cfg = make_config(rho=0.5)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=4.0, S=8.0 * np.eye(2), alpha=np.ones(2)
        )
        it = predict(state, np.eye(2), cfg)
        assert np.allclose(it.r_tilde, 2.0 * np.eye(2))


def scalar_iteration(p_tilde=1.0, r_tilde=1.0):
    cfg = scalar_config(q_scales=(1.0,))
    state = FilterState(
        x_hat=np.zeros(1), P=np.eye(1), s=1.0, S=np.eye(1), alpha=np.ones(1)
    )
    it = predict(state, np.eye(1), cfg)
    it.p_tilde = np.array([[p_tilde]])
    it.r_tilde = np.array([[r_tilde]])
    return it


class TestJointUpdateNoMeasurement:
    def test_scalar_reference(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1.0)
        _, p_xz, p_zz = silent_update(it.p_tilde, np.eye(1), it.r_tilde, np.eye(1))
        it.x, it.P, B = update_joint_no_meas(
            np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1)
        )
        assert it.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert p_zz[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert p_xz[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        # B = P - 2 Pxz + Pzz = 2/3 - 2/3 + 2/3
        assert B[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_vanishing_trigger_information(self):
        it = scalar_iteration(p_tilde=2.0, r_tilde=1.0)
        it.x, it.P, B = update_joint_no_meas(
            np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), 1e-12 * np.eye(1)
        )
        assert it.P[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_blocks_match_dense_inverse(self):
        rng = np.random.default_rng(12)
        n, m = 4, 2
        cfg = make_config(n=n, m=m, q_scales=(1.0,))
        for _ in range(100):
            state = FilterState(
                x_hat=np.zeros(n), P=random_spd(rng, n), s=5.0,
                S=5.0 * random_spd(rng, m), alpha=np.ones(1),
            )
            it = predict(state, np.eye(n), cfg)
            it.p_tilde = random_spd(rng, n)
            it.r_tilde = random_spd(rng, m)
            h = rng.standard_normal((m, n))
            y = random_spd(rng, m, scale=0.5)
            _, p_xz, p_zz = silent_update(it.p_tilde, h, it.r_tilde, y)
            it.x, it.P, B = update_joint_no_meas(np.zeros(n), it.p_tilde, it.r_tilde, h, y)
            theta = dense_theta(it.p_tilde, it.r_tilde, h, y)
            assert np.linalg.norm(it.P - theta[:n, :n]) < 1e-9
            assert np.linalg.norm(p_xz - theta[:n, n:]) < 1e-9
            assert np.linalg.norm(p_zz - theta[n:, n:]) < 1e-9
            # E{(z - Hx)(z - Hx)^T} of the dense joint covariance
            scatter = (
                h @ theta[:n, :n] @ h.T - h @ theta[:n, n:] - theta[n:, :n] @ h.T
                + theta[n:, n:]
            )
            assert np.linalg.norm(B - scatter) < 1e-9

    def test_state_pinned_to_prediction(self):
        it = scalar_iteration()
        x_pred = np.array([3.7])
        it.x, it.P, B = update_joint_no_meas(
            x_pred, it.p_tilde, it.r_tilde, np.eye(1), np.eye(1)
        )
        assert np.array_equal(it.x, x_pred)


class TestStateUpdateWithMeasurement:
    def test_scalar_gain_half(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1.0)
        it.x, it.P, B = update_state_meas(
            np.zeros(1), it.p_tilde, it.r_tilde, np.array([1.0]), np.eye(1)
        )
        assert it.x[0] == pytest.approx(0.5)
        assert it.P[0, 0] == pytest.approx(0.5)

    def test_uninformative_measurement(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1e12)
        it.x, it.P, B = update_state_meas(
            np.zeros(1), it.p_tilde, it.r_tilde, np.array([5.0]), np.eye(1)
        )
        assert abs(it.x[0]) < 1e-9

    def test_unobservable(self):
        it = scalar_iteration(p_tilde=2.0, r_tilde=1.0)
        it.x, it.P, B = update_state_meas(
            np.array([1.0]), it.p_tilde, it.r_tilde, np.array([5.0]), np.zeros((1, 1))
        )
        assert it.x[0] == pytest.approx(1.0)
        assert it.P[0, 0] == pytest.approx(2.0)


class TestPredictedCovarianceUpdate:
    def test_no_shift_when_state_at_prediction(self):
        cfg = make_config(q_scales=(1.0,) * 5, dof=10.0)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(5)
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = update_joint_no_meas(
            it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2)
        )
        p_before = it.P.copy()
        update_predicted_cov(it, cfg)
        assert it.g == pytest.approx(11.0)
        expected_g = sum(0.2 * g for g in it.G_j) + p_before
        assert np.allclose(it.G, expected_g, atol=1e-12)

    def test_weighted_sum_identity(self):
        cfg = make_config(q_scales=(1.0, 4.0), dof=7.0)
        state = FilterState(
            x_hat=np.ones(2), P=2.0 * np.eye(2), s=5.0, S=5.0 * np.eye(2),
            alpha=np.array([1.0, 3.0]),
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = update_state_meas(
            it.x_pred, it.p_tilde, it.r_tilde, np.array([2.0, 0.0]), np.eye(2)
        )
        update_predicted_cov(it, cfg)
        chi = it.chi
        shift = it.x - it.x_pred
        a_mat = it.P + np.outer(shift, shift)
        # F = I, so each component's predicted covariance is P + Qbar_j.
        numerator = sum(
            c * g * (state.P + q) for c, g, q in zip(chi, cfg.dof_g, cfg.nominal_q)
        ) + a_mat
        denominator = float(chi @ cfg.dof_g) + 1.0
        assert np.allclose(it.p_tilde, numerator / denominator, atol=1e-10)


class TestMeasurementCovarianceUpdate:
    def test_transmitted_zero_residual(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1.0)
        # z = x_pred = 2 leaves x at 2 with P = 0.5, so B = 0^2 + 0.5.
        it.x, it.P, B = update_state_meas(
            np.array([2.0]), it.p_tilde, it.r_tilde, np.array([2.0]), np.eye(1)
        )
        assert it.x[0] == pytest.approx(2.0)
        assert it.P[0, 0] == pytest.approx(0.5)
        assert B[0, 0] == pytest.approx(0.5)
        update_meas_cov(it, B)
        assert it.S[0, 0] == pytest.approx(it.S_prior[0, 0] + 0.5)
        assert it.s == pytest.approx(it.s_prior + 1.0)

    def test_silent_scalar_reference(self):
        cfg = scalar_config(q_scales=(1.0,))
        state = FilterState(
            x_hat=np.zeros(1), P=np.eye(1), s=5.0, S=5.0 * np.eye(1), alpha=np.ones(1)
        )
        it = predict(state, np.eye(1), cfg)
        it.p_tilde = np.eye(1)
        it.r_tilde = np.eye(1)
        it.x, it.P, B = update_joint_no_meas(
            np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1)
        )
        update_meas_cov(it, B)
        # B = 2/3 - 2/3 + 2/3
        assert it.S[0, 0] == pytest.approx(it.S_prior[0, 0] + 2.0 / 3.0, abs=1e-10)

    def test_dof_increment_is_idempotent_across_sweeps(self):
        cfg = scalar_config(q_scales=(1.0,), s0=5.0)
        state = FilterState(
            x_hat=np.zeros(1), P=np.eye(1), s=5.0, S=5.0 * np.eye(1), alpha=np.ones(1)
        )
        it = predict(state, np.eye(1), cfg)
        for _ in range(4):
            it.x, it.P, B = update_joint_no_meas(
                np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1)
            )
            update_meas_cov(it, B)
            assert it.s == pytest.approx(it.s_prior + 1.0)


class TestMixtureUpdate:
    def test_single_component(self):
        cfg = make_config(q_scales=(2.0,))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(1)
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = update_joint_no_meas(
            it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2)
        )
        update_predicted_cov(it, cfg)
        update_mixture(it, cfg)
        assert np.allclose(it.chi, [1.0])
        assert np.allclose(it.alpha, it.alpha_prior + 1.0)

    def test_identical_components_stay_uniform(self):
        cfg = make_config(q_scales=(2.0, 2.0, 2.0))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(3)
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = update_joint_no_meas(
            it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2)
        )
        update_predicted_cov(it, cfg)
        update_mixture(it, cfg)
        assert np.allclose(it.chi, 1.0 / 3.0, atol=1e-12)

    def test_two_component_scalar_against_direct_formula(self):
        cfg = scalar_config(q_scales=(0.5, 4.0), dof=6.0)
        state = FilterState(
            x_hat=np.zeros(1), P=np.eye(1), s=5.0, S=5.0 * np.eye(1),
            alpha=np.array([1.0, 2.0]),
        )
        it = predict(state, np.eye(1), cfg)
        it.x, it.P, B = update_state_meas(
            it.x_pred, it.p_tilde, it.r_tilde, np.array([1.5]), np.eye(1)
        )
        update_predicted_cov(it, cfg)
        alpha_before = it.alpha.copy()
        update_mixture(it, cfg)

        # Direct evaluation with scipy special functions.
        n = 1
        e_p_inv = it.g / it.G[0, 0]
        e_logdet = (
            math.log(it.G[0, 0])
            - n * math.log(2.0)
            - float(scipy.special.digamma(0.5 * it.g))
        )
        log_w = []
        for g_j, big_g in zip(cfg.dof_g, it.G_j):
            log_w.append(
                0.5 * g_j * math.log(big_g[0, 0])
                - 0.5 * big_g[0, 0] * e_p_inv
                - 0.5 * (g_j + n + 1) * e_logdet
                - 0.5 * n * g_j * math.log(2.0)
                - float(scipy.special.gammaln(0.5 * g_j))
            )
        log_w = np.array(log_w) + (
            scipy.special.digamma(alpha_before) - scipy.special.digamma(alpha_before.sum())
        )
        expected = np.exp(log_w - log_w.max())
        expected /= expected.sum()
        assert np.allclose(it.chi, expected, atol=1e-10)
        assert np.allclose(it.alpha, it.alpha_prior + expected, atol=1e-10)

    def test_four_dim_three_components_against_direct_formula(self):
        # At n = 1 the n log 2, psi_n and (n + 1) terms are trivial; n = 4 with
        # distinct dofs exercises every dimension-dependent term.
        rng = np.random.default_rng(11)
        n = 4
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=np.array([8.0, 6.0, 5.0]))
        state = FilterState(
            x_hat=rng.standard_normal(n), P=random_spd(rng, n), s=5.0, S=5.0 * np.eye(2),
            alpha=np.array([0.7, 1.5, 3.0]),
        )
        f_mat = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        h_mat = rng.standard_normal((2, n))
        it = predict(state, f_mat, cfg)
        it.x, it.P, B = update_state_meas(
            it.x_pred, it.p_tilde, it.r_tilde, h_mat @ it.x_pred + np.array([3.0, -2.0]), h_mat
        )
        update_predicted_cov(it, cfg)
        alpha_before = it.alpha.copy()
        update_mixture(it, cfg)

        # Dense reference: explicit inverse, slogdet and scipy special functions.
        e_p_inv = it.g * np.linalg.inv(it.G)
        e_logdet = (
            np.linalg.slogdet(it.G)[1]
            - n * math.log(2.0)
            - sum(scipy.special.digamma(0.5 * (it.g + 1 - i)) for i in range(1, n + 1))
        )
        log_w = np.array(
            [
                0.5 * g_j * np.linalg.slogdet(big_g)[1]
                - 0.5 * np.trace(big_g @ e_p_inv)
                - 0.5 * (g_j + n + 1) * e_logdet
                - 0.5 * n * g_j * math.log(2.0)
                - scipy.special.multigammaln(0.5 * g_j, n)
                for g_j, big_g in zip(cfg.dof_g, it.G_j)
            ]
        )
        log_w += scipy.special.digamma(alpha_before) - scipy.special.digamma(alpha_before.sum())
        expected = np.exp(log_w - log_w.max())
        expected /= expected.sum()
        assert expected.min() > 0.01  # no component is negligible, so each term shows
        assert np.allclose(it.chi, expected, atol=1e-10)
        assert np.allclose(it.alpha, it.alpha_prior + expected, atol=1e-10)


class TestConvergence:
    def test_identical_states(self):
        x = np.array([1.0, 2.0])
        assert check_convergence(x, x, 1e-8)

    def test_relative_threshold(self):
        delta = 1e-3
        x_old = np.array([1.0, 0.0])
        x_new = np.array([1.0 + 2 * delta, 0.0])
        assert not check_convergence(x_new, x_old, delta)
        assert check_convergence(np.array([1.0 + 0.5 * delta, 0.0]), x_old, delta)

    def test_zero_guard(self):
        zero = np.zeros(2)
        assert check_convergence(zero, zero, 1e-8)
        assert not check_convergence(np.array([1.0, 0.0]), zero, 1e-8)


class TestDecouplingIdentities:
    def test_quadratic_form_and_determinant(self):
        rng = np.random.default_rng(13)
        n, m = 4, 2
        for _ in range(100):
            p = random_spd(rng, n)
            r = random_spd(rng, m)
            h = rng.standard_normal((m, n))
            phi = np.block([[p, p @ h.T], [h @ p, h @ p @ h.T + r]])
            dx = rng.standard_normal(n)
            dz = rng.standard_normal(m)
            full = np.concatenate([dx, dz])
            dense = 0.5 * full @ np.linalg.solve(phi, full)
            rho_z = dz - h @ dx
            decoupled = 0.5 * (
                dx @ np.linalg.solve(p, dx) + rho_z @ np.linalg.solve(r, rho_z)
            )
            assert abs(dense - decoupled) < 1e-9 * max(1.0, abs(dense))
            sign, logdet = np.linalg.slogdet(phi)
            assert sign > 0
            assert abs(
                logdet - spd_factor(p).log_det() - spd_factor(r).log_det()
            ) < 1e-10 * max(1.0, abs(logdet))


class TestStepOrchestration:
    def test_silent_step_with_vanishing_trigger_is_pure_prediction(self):
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0), y_scale=1e-12)
        model = build_cv_scenario(1.0, 500)
        state = FilterState(
            x_hat=np.array([1.0, 2.0, 0.5, -0.5]),
            P=np.eye(4),
            s=5.0,
            S=5.0 * np.eye(2),
            alpha=np.ones(2),
        )
        f, h = model.F(1), model.H(1)
        new_state, diag = etvbf_step(state, f, h, TriggerOutcome(gamma=0), cfg)
        assert np.allclose(new_state.x_hat, f @ state.x_hat, atol=1e-12)
        assert np.linalg.norm(new_state.P - diag.p_tilde) < 1e-6

    @pytest.mark.parametrize(
        "x0_rows, outcome",
        [
            ((), TriggerOutcome(gamma=np.array([1]), measurement=np.ones((1, 2)))),
            ((3,), TriggerOutcome(gamma=np.array([1, 1]), measurement=np.ones((2, 2)))),
            ((2,), TriggerOutcome(gamma=1, measurement=np.ones(2))),
        ],
    )
    def test_outcome_rows_must_match_state_rows(self, x0_rows, outcome):
        """An outcome with other rows than the state is rejected, not broadcast."""
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0))
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        state = initial_state(np.broadcast_to(x0, x0_rows + x0.shape), p0, cfg)
        with pytest.raises(ValueError, match="gamma"):
            etvbf_step(state, model.F(1), model.H(1), outcome, cfg)

    def test_iteration_budget_and_chi_normalization(self):
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0, 3.0, 9.0, 10.0), tol=1e-8)
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        rng = SeededRng(3)
        traj = simulate_truth(model, x0, 20, rng)
        state = initial_state(x0, p0, cfg)
        for k in range(1, 21):
            outcome = TriggerOutcome(gamma=1, measurement=traj.measurements[k - 1])
            state, diag = etvbf_step(state, model.F(k), model.H(k), outcome, cfg)
            assert diag.iterations <= cfg.max_iterations
            chi = diag.chi
            assert abs(chi.sum() - 1.0) <= 1e-12
            assert np.all(chi >= 0) and np.all(chi <= 1)
            # SPD persistence of the recursive quantities
            spd_factor(state.P)
            spd_factor(state.S)
            spd_factor(diag.p_tilde)
            spd_factor(diag.r_tilde)

    def test_s_dof_advances_by_one_per_step(self):
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0), rho=1.0, s0=5.0)
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        traj = simulate_truth(model, x0, 5, SeededRng(4))
        state = initial_state(x0, p0, cfg)
        for k in range(1, 6):
            outcome = TriggerOutcome(gamma=1, measurement=traj.measurements[k - 1])
            state, _ = etvbf_step(state, model.F(k), model.H(k), outcome, cfg)
            assert state.s == pytest.approx(5.0 + k)

    def test_s_scale_loewner_nondecreasing_without_forgetting(self):
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0), rho=1.0)
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        traj = simulate_truth(model, x0, 15, SeededRng(5))
        state = initial_state(x0, p0, cfg)
        prev_s = state.S
        for k in range(1, 16):
            outcome = TriggerOutcome(gamma=1, measurement=traj.measurements[k - 1])
            state, _ = etvbf_step(state, model.F(k), model.H(k), outcome, cfg)
            assert np.all(np.linalg.eigvalsh(state.S - prev_s) > -1e-9)
            prev_s = state.S


@st.composite
def stacked_steps(draw):
    """A stack of 1-6 rows: offsets of the initial estimates and the measurements
    from the scenario's start, an unsorted 0/1 gamma per row, and a sweep budget."""
    rows = draw(st.integers(1, 6))
    return (
        draw(arrays(float, (rows, 4), elements=st.floats(-50.0, 50.0))),
        draw(arrays(float, (rows, 2), elements=st.floats(-30.0, 30.0))),
        np.array(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))),
        draw(st.integers(1, 6)),
        draw(st.sampled_from([1e-6, 1e-3, 1e-1])),
    )


# A mixed stack whose rows stop at sweeps 4, 1, 2 and 1 of a 4-sweep budget.
STAGGERED = (
    np.zeros((4, 4)),
    np.array([[30.0, 30.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
    np.array([1, 0, 1, 1]),
    4,
    1e-3,
)


def stacked_inputs(case):
    """A stacked_steps case's config, F, H, p0, x0_hat and z, its initial stack and outcome."""
    x_offsets, z_offsets, gamma, max_iterations, tol = case
    cfg = dataclasses.replace(
        make_config(n=4, m=2, q_scales=(1.0, 2.0, 3.0, 9.0, 10.0), r_scale=150.0,
                    rho=0.997, y_scale=0.015, tol=tol),
        max_iterations=max_iterations,
    )
    model = build_cv_scenario(1.0, 500)
    x0, p0, _ = scenario_defaults()
    f, h = model.F(1), model.H(1)
    x0_hat = x0 + x_offsets
    z = h @ f @ x0 + z_offsets
    outcome = TriggerOutcome(gamma=gamma, measurement=np.where(gamma[:, None] == 1, z, np.nan))
    return (cfg, f, h, p0, x0_hat, z), initial_state(x0_hat, p0, cfg), outcome


def stacked_step(case):
    """Everything a stacked_steps case steps with, and its stacked etvbf_step result."""
    inputs, state, outcome = stacked_inputs(case)
    cfg, f, h = inputs[:3]
    return etvbf_step(state, f, h, outcome, cfg), inputs


class TestStackMatchesSingleState:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(stacked_steps())
    @example(STAGGERED[:3] + (1, 1e-3))  # every row stops at its first sweep
    @example(STAGGERED)  # rows leave at three different sweeps, the last at the budget
    def test_every_row_bitwise_equals_its_single_state_step(self, case):
        """Row i of a stacked step, sweep count included, is bitwise the step of state i alone."""
        stacked, (cfg, f, h, p0, x0_hat, z) = stacked_step(case)
        for i, g in enumerate(case[2].tolist()):
            outcome = TriggerOutcome(gamma=1, measurement=z[i]) if g else TriggerOutcome(gamma=0)
            single = etvbf_step(initial_state(x0_hat[i], p0, cfg), f, h, outcome, cfg)
            assert isinstance(single[1].iterations, np.integer)
            for stack_part, single_part in zip(stacked, single):
                for field in dataclasses.fields(single_part):
                    row = np.asarray(getattr(stack_part, field.name))[i]
                    alone = np.asarray(getattr(single_part, field.name))
                    assert (row.shape, row.dtype) == (alone.shape, alone.dtype), field.name
                    assert row.tobytes() == alone.tobytes(), (i, field.name)

    def test_examples_stop_together_and_apart(self):
        """The two pinned examples cover both ways a stack's rows leave the sweep loop."""
        (_, together), _ = stacked_step(STAGGERED[:3] + (1, 1e-3))
        (_, apart), _ = stacked_step(STAGGERED)
        assert together.iterations.tolist() == [1, 1, 1, 1]
        assert apart.iterations.tolist() == [4, 1, 2, 1]

    def test_steps_leave_their_input_arrays_unchanged(self):
        """Rows that stop at sweeps 4, 1, 2 and 1 leave the stepped state and outcome as given.

        The updates rebind and never write, and the results alias no input.
        """
        (cfg, f, h, *_), state, outcome = stacked_inputs(STAGGERED)
        kf_state = KfState(x_hat=state.x_hat, P=state.P)
        given = [state, outcome]
        saved = [{k: np.array(v) for k, v in vars(obj).items()} for obj in given]
        _, diag = etvbf_step(state, f, h, outcome, cfg)
        assert diag.iterations.tolist() == [4, 1, 2, 1]
        clset_kf_step(kf_state, f, h, 4.0 * np.eye(4), cfg.r0, cfg.trigger.Y, outcome)
        for obj, before in zip(given, saved):
            for name, value in vars(obj).items():
                assert np.asarray(value).tobytes() == before[name].tobytes(), name
