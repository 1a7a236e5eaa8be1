import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from etvbf.baselines import KfState, kf_predict
from etvbf.distributions import SeededRng
from etvbf.filter import (
    FilterConfig,
    FilterState,
    IterationState,
    check_convergence,
    etvbf_step,
    initial_state,
    innovation,
    measurement_update,
    posterior,
    predict,
    sweep,
    take_rows,
    update_meas_cov,
    update_mixture,
    update_predicted_cov,
)
from etvbf.model import build_cv_scenario, scenario_defaults, simulate_truth
from etvbf.numerics import spd_factor, symmetrize
from etvbf.trigger import TriggerConfig, TriggerOutcome
from helpers import dense_kalman_update, dense_theta, field_bytes, random_spd


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
    return FilterConfig(
        nominal_q=tuple(s * np.eye(n) for s in q_scales),
        dof_g=dof,
        r0=r_scale * np.eye(m),
        s0=s0,
        alpha0=1.0,
        rho=rho,
        trigger=TriggerConfig(Y=y_scale * np.eye(m)),
        tol=tol,
    )


def scalar_config(**kwargs):
    return make_config(n=1, m=1, **kwargs)


def sent_row(x_pred, p_tilde, r_tilde, z, h):
    """measurement_update of a transmitting state: innovation z - H x_pred, and no part for Y."""
    e = innovation(np.True_, z, h @ x_pred)
    return measurement_update(x_pred, p_tilde, r_tilde, e, np.True_, h, np.eye(len(z)))


def silent_row(x_pred, p_tilde, r_tilde, h, y):
    """measurement_update of a silent state under trigger weight y: a zero innovation."""
    e = innovation(np.False_, None, h @ x_pred)
    return measurement_update(x_pred, p_tilde, r_tilde, e, np.False_, h, y)


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
        ],
        ids=["asymmetric", "indefinite", "two-dim"],
    )
    def test_rejects_bad_nominal_q_at_construction(self, nominal_q, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(make_config(), nominal_q=nominal_q)

    def test_max_iterations_rejects_a_bool(self):
        with pytest.raises(ValueError, match="max_iterations"):
            dataclasses.replace(make_config(), max_iterations=True)

    @pytest.mark.parametrize("name", ["dof_g", "alpha0", "s0", "rho", "tol"])
    @pytest.mark.parametrize(
        "value",
        [np.full(2, 10.0), np.full(3, 10.0), np.array(10.0), [10.0], True, np.True_, "10",
         None, math.inf, -math.inf, math.nan, 10**400],
        ids=["array", "array-of-another-length", "0-d-array", "list", "bool", "numpy-bool", "str",
             "none", "inf", "minus-inf", "nan", "huge-int"],
    )
    def test_scalar_prior_rejects_what_is_not_one_number(self, name, value):
        """One dof and one concentration serve the whole bank, and s0, rho and tol are one
        number each: an array, a bool, a string, a non-finite number or an int too large
        for a float raises a ValueError naming the field, with no numpy or overflow error
        from a range check."""
        with pytest.raises(ValueError, match=f"{name} must be one real number"):
            dataclasses.replace(make_config(), **{name: value})

    @pytest.mark.parametrize("value", [10, np.float32(10.0), np.int64(10)])
    def test_scalar_prior_takes_any_real_number_as_a_float(self, value):
        cfg = dataclasses.replace(make_config(), dof_g=value, alpha0=value)
        assert type(cfg.dof_g) is float and type(cfg.alpha0) is float
        assert cfg.dof_g == cfg.alpha0 == 10.0

    def test_scaled_bank_is_derived_not_set(self):
        cfg = make_config()
        assert cfg.scaled_q.tobytes() == (cfg.dof_g * cfg.nominal_q).tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.scaled_q = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cfg, scaled_q=np.zeros((2, 2, 2)))

    def test_accepts_tuple_of_matrices_as_stack(self):
        cfg = make_config(q_scales=(1.0, 2.0))
        assert cfg.nominal_q.shape == (2, 2, 2)
        assert np.array_equal(cfg.nominal_q[1], 2.0 * np.eye(2))


class TestPredict:
    def test_covariance_bank(self):
        """The IW scales dof_g (fpf + Qbar_j) of the kept fpf give log_norm_j bitwise."""
        cfg = make_config(q_scales=(1.0, 2.0, 3.0))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=4.0, S=4.0 * np.eye(2), alpha=np.full(3, 2.0)
        )
        pred = predict(state, np.eye(2), cfg)
        assert np.array_equal(pred.fpf, state.P)  # F = I
        assert np.array_equal(cfg.scaled_q, cfg.dof_g * cfg.nominal_q)
        g_j = cfg.dof_g * (pred.fpf + cfg.nominal_q)
        assert g_j.shape == (3, 2, 2)
        for j, big_g in enumerate(g_j, start=1):
            assert np.allclose(big_g, cfg.dof_g * (1 + j) * np.eye(2))
        log_norm = 0.5 * cfg.dof_g * spd_factor(pred.fpf + cfg.nominal_q).log_det()
        assert pred.log_norm_j.tobytes() == log_norm.tobytes()

    def test_log_normalisers_against_scipy(self):
        """log_norm_j differs from the full IW log normaliser of G_j = d (fpf + Qbar_j),
        d log|G_j|/2 - n d log 2/2 - log Gamma_n(d/2), by one constant for the bank."""
        rng = np.random.default_rng(14)
        n, d = 4, 6.0
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=d)
        state = FilterState(
            x_hat=np.zeros(n), P=random_spd(rng, n), s=5.0, S=5.0 * np.eye(2),
            alpha=np.ones(3),
        )
        f_mat = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        pred = predict(state, f_mat, cfg)
        fpf = f_mat @ state.P @ f_mat.T
        full = np.array([
            0.5 * d * np.linalg.slogdet(d * (fpf + q_j))[1]
            - 0.5 * n * d * math.log(2.0)
            - scipy.special.multigammaln(0.5 * d, n)
            for q_j in cfg.nominal_q
        ])
        common = 0.5 * n * d * math.log(d) - 0.5 * n * d * math.log(2.0)
        common -= scipy.special.multigammaln(0.5 * d, n)
        assert pred.log_norm_j == pytest.approx(full - common, rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_log_normalisers_bitwise_the_per_call_expression(self, rows):
        """log_norm_j is bitwise d log|fpf + Qbar_j| / 2, factored per row and component."""
        rng = np.random.default_rng(16)
        n = 4
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=6.0)
        x0_hat = rng.standard_normal(rows + (n,))
        state = initial_state(x0_hat, random_spd(rng, n), cfg)
        pred = predict(state, np.eye(n) + 0.1 * rng.standard_normal((n, n)), cfg)
        log_det_j = spd_factor(pred.fpf[..., None, :, :] + cfg.nominal_q).log_det()
        assert log_det_j.shape == rows + (3,)
        assert pred.log_norm_j.tobytes() == (0.5 * cfg.dof_g * log_det_j).tobytes()

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
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=6.0, rho=0.997)
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


class TestPerRowMatrices:
    @pytest.mark.parametrize("rows", [1, 7, 50])
    def test_one_matrix_per_row_is_bitwise_the_shared_one(self, rows):
        """predict, measurement_update on sent, silent and mixed stacks, and kf_predict
        given F, H (and Q, R) as (B, ., .) stacks of one matrix give bitwise what the
        shared matrix gives."""
        rng = np.random.default_rng(17)
        n, m = 4, 2
        cfg = make_config(n=n, m=m, q_scales=(1.0, 2.0, 3.0), rho=0.997, y_scale=0.015)
        f = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        h, q, r = rng.standard_normal((m, n)), random_spd(rng, n), random_spd(rng, m)
        per_row = [np.broadcast_to(a, (rows,) + a.shape).copy() for a in (f, h, q, r)]
        stack = FilterState(
            x_hat=rng.standard_normal((rows, n)),
            P=np.array([random_spd(rng, n) for _ in range(rows)]),
            s=rng.uniform(3.0, 9.0, rows),
            S=np.array([random_spd(rng, m) for _ in range(rows)]),
            alpha=rng.uniform(0.5, 3.0, (rows, 3)),
        )

        def same(a, b):
            for x, y in zip(a, b):
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())

        it = predict(stack, f, cfg)
        same(vars(it).values(), vars(predict(stack, per_row[0], cfg)).values())
        z = rng.standard_normal((rows, m))
        gamma = np.arange(rows) % 2
        for sent in (np.ones(rows, dtype=bool), np.zeros(rows, dtype=bool), gamma == 1):
            args = (it.x_pred, it.p_tilde, it.r_tilde, innovation(sent, z, np.matvec(h, it.x_pred)))
            same(
                measurement_update(*args, sent, h, cfg.trigger.Y),
                measurement_update(*args, sent, per_row[1], cfg.trigger.Y),
            )
        kf = KfState(x_hat=stack.x_hat, P=stack.P)
        pred = kf_predict(kf, f, q)
        same(vars(pred).values(), vars(kf_predict(kf, per_row[0], per_row[2])).values())
        sent = gamma == 1
        args = (pred.x_hat, pred.P)
        e = innovation(sent, z, np.matvec(h, pred.x_hat))
        same(
            measurement_update(*args, r, e, sent, h, cfg.trigger.Y),
            measurement_update(*args, per_row[3], e, sent, per_row[1], cfg.trigger.Y),
        )


class TestInitIteration:
    """Sweep zero: the iterates that predict starts from the priors."""

    def test_uniform_prior_with_equal_dofs(self):
        cfg = make_config(q_scales=(1.0,) * 5, dof=10.0)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(5)
        )
        it = predict(state, np.eye(2), cfg)
        assert it.chi.sum() == pytest.approx(1.0)
        assert np.allclose(it.chi, 0.2)
        assert np.allclose(it.p_tilde, state.P + cfg.nominal_q[0])  # F = I
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
        it.x, it.P, B = silent_row(np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1))
        assert it.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        # B = P - 2 Pxz + Pzz = 2/3 - 2/3 + 2/3, with Pxz = 1/3 and Pzz = 2/3
        assert B[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_vanishing_trigger_information(self):
        it = scalar_iteration(p_tilde=2.0, r_tilde=1.0)
        it.x, it.P, B = silent_row(
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
            it.x, it.P, B = silent_row(np.zeros(n), it.p_tilde, it.r_tilde, h, y)
            theta = dense_theta(it.p_tilde, it.r_tilde, h, y)
            assert np.linalg.norm(it.P - theta[:n, :n]) < 1e-9
            # E{(z - Hx)(z - Hx)^T} of the dense joint covariance
            scatter = (
                h @ theta[:n, :n] @ h.T - h @ theta[:n, n:] - theta[n:, :n] @ h.T
                + theta[n:, n:]
            )
            assert np.linalg.norm(B - scatter) < 1e-9

    def test_state_pinned_to_prediction(self):
        it = scalar_iteration()
        x_pred = np.array([3.7])
        it.x, it.P, B = silent_row(x_pred, it.p_tilde, it.r_tilde, np.eye(1), np.eye(1))
        assert np.array_equal(it.x, x_pred)


class TestStateUpdateWithMeasurement:
    def test_scalar_gain_half(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1.0)
        it.x, it.P, B = sent_row(np.zeros(1), it.p_tilde, it.r_tilde, np.array([1.0]), np.eye(1))
        assert it.x[0] == pytest.approx(0.5)
        assert it.P[0, 0] == pytest.approx(0.5)

    def test_uninformative_measurement(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1e12)
        it.x, it.P, B = sent_row(np.zeros(1), it.p_tilde, it.r_tilde, np.array([5.0]), np.eye(1))
        assert abs(it.x[0]) < 1e-9

    def test_unobservable(self):
        it = scalar_iteration(p_tilde=2.0, r_tilde=1.0)
        it.x, it.P, B = sent_row(
            np.array([1.0]), it.p_tilde, it.r_tilde, np.array([5.0]), np.zeros((1, 1))
        )
        assert it.x[0] == pytest.approx(1.0)
        assert it.P[0, 0] == pytest.approx(2.0)


class TestMeasurementUpdate:
    """The one update every row takes; the trigger outcome picks its m-by-m core."""

    @staticmethod
    def rows(rng, count, n=4, m=2):
        """A stack of exactly symmetric priors, as the filter builds them, and H, Y, z."""
        x_pred = rng.standard_normal((count, n))
        p = np.array([symmetrize(random_spd(rng, n)) for _ in range(count)])
        r = np.array([symmetrize(random_spd(rng, m)) for _ in range(count)])
        h, y = rng.standard_normal((m, n)), random_spd(rng, m, scale=0.05)
        return x_pred, p, r, h, y, rng.standard_normal((count, m))

    def test_mixed_stack_rows_bitwise_their_own_stacks(self):
        """A mixed stack's rows are bitwise the same rows run as one-row stacks and as
        stacks of one outcome."""
        rng = np.random.default_rng(31)
        x_pred, p, r, h, y, z = self.rows(rng, 7)
        sent = np.array([1, 0, 0, 1, 1, 0, 1]) == 1
        z[~sent] = np.nan
        e = innovation(sent, z, np.matvec(h, x_pred))
        mixed = measurement_update(x_pred, p, r, e, sent, h, y)
        for i in range(sent.size):
            alone = measurement_update(
                x_pred[i : i + 1], p[i : i + 1], r[i : i + 1], e[i : i + 1], sent[i : i + 1], h, y
            )
            for got, want in zip(mixed, alone):
                assert got[i].tobytes() == want[0].tobytes()
        for rows in (sent, ~sent):
            one_outcome = measurement_update(
                x_pred[rows], p[rows], r[rows], e[rows], sent[rows], h, y
            )
            for got, want in zip(mixed, one_outcome):
                assert got[rows].tobytes() == want.tobytes()

    def test_zero_trigger_weight_keeps_the_prior(self):
        """At Y = 0 a silent row learns nothing: P = p_pred, B = R and x = x_pred exactly,
        beside a sent row in the same stack."""
        rng = np.random.default_rng(32)
        x_pred, p, r, h, _, z = self.rows(rng, 2)
        sent = np.array([True, False])
        z[1] = np.nan
        e = innovation(sent, z, np.matvec(h, x_pred))
        x, P, B = measurement_update(x_pred, p, r, e, sent, h, np.zeros((2, 2)))
        assert np.array_equal(x[1], x_pred[1])
        assert np.array_equal(P[1], p[1])
        assert np.array_equal(B[1], r[1])
        assert not np.array_equal(P[0], p[0])

    def test_scatter_against_dense_references(self):
        """B is the joint posterior's scatter Theta_zz - H Theta_xz - Theta_zx H^T +
        H Theta_xx H^T on a silent row, and r r^T + H P H^T of the dense Kalman update on
        a sent one, with r = z - H x."""
        rng = np.random.default_rng(33)
        n = 4
        for _ in range(100):
            x_pred, p, r, h, y, z = self.rows(rng, 2, n=n)
            sent = np.array([True, False])
            z[1] = np.nan
            e = innovation(sent, z, np.matvec(h, x_pred))
            x, P, B = measurement_update(x_pred, p, r, e, sent, h, y)

            x_ref, p_ref = dense_kalman_update(x_pred[0], p[0], z[0], h, r[0])
            resid = z[0] - h @ x_ref
            assert np.linalg.norm(x[0] - x_ref) < 1e-9
            assert np.linalg.norm(P[0] - p_ref) < 1e-9
            assert np.linalg.norm(B[0] - (np.outer(resid, resid) + h @ p_ref @ h.T)) < 1e-9

            theta = dense_theta(p[1], r[1], h, y)
            scatter = (
                h @ theta[:n, :n] @ h.T - h @ theta[:n, n:] - theta[n:, :n] @ h.T
                + theta[n:, n:]
            )
            assert np.array_equal(x[1], x_pred[1])
            assert np.linalg.norm(P[1] - theta[:n, :n]) < 1e-9
            assert np.linalg.norm(B[1] - scatter) < 1e-9


class TestPredictedCovarianceUpdate:
    def test_no_shift_when_state_at_prediction(self):
        cfg = make_config(q_scales=(1.0,) * 5, dof=10.0)
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(5)
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = silent_row(it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2))
        p_before = it.P.copy()
        update_predicted_cov(it, cfg)
        # F = I, so component j's IW scale is dof_g (P + Qbar_j); the dof is 10 + 1.
        g_j = cfg.dof_g * (state.P + cfg.nominal_q)
        expected_g = sum(0.2 * g for g in g_j) + p_before
        assert np.allclose(11.0 * it.p_tilde, expected_g, atol=1e-12)

    def test_weighted_sum_identity(self):
        cfg = make_config(q_scales=(1.0, 4.0), dof=7.0)
        state = FilterState(
            x_hat=np.ones(2), P=2.0 * np.eye(2), s=5.0, S=5.0 * np.eye(2),
            alpha=np.array([1.0, 3.0]),
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = sent_row(
            it.x_pred, it.p_tilde, it.r_tilde, np.array([2.0, 0.0]), np.eye(2)
        )
        update_predicted_cov(it, cfg)
        chi = it.chi
        shift = it.x - it.x_pred
        a_mat = it.P + np.outer(shift, shift)
        # F = I, so each component's predicted covariance is P + Qbar_j.
        numerator = sum(c * cfg.dof_g * (state.P + q) for c, q in zip(chi, cfg.nominal_q)) + a_mat
        denominator = cfg.dof_g + 1.0
        assert np.allclose(it.p_tilde, numerator / denominator, atol=1e-10)


class TestMeasurementCovarianceUpdate:
    def test_transmitted_zero_residual(self):
        it = scalar_iteration(p_tilde=1.0, r_tilde=1.0)
        # z = x_pred = 2 leaves x at 2 with P = 0.5, so B = 0^2 + 0.5.
        it.x, it.P, B = sent_row(
            np.array([2.0]), it.p_tilde, it.r_tilde, np.array([2.0]), np.eye(1)
        )
        assert it.x[0] == pytest.approx(2.0)
        assert it.P[0, 0] == pytest.approx(0.5)
        assert B[0, 0] == pytest.approx(0.5)
        update_meas_cov(it, B)
        assert it.S[0, 0] == pytest.approx(it.S_prior[0, 0] + 0.5)
        assert it.r_tilde[0, 0] == pytest.approx(it.S[0, 0] / (it.s_prior + 1.0))

    def test_silent_scalar_reference(self):
        cfg = scalar_config(q_scales=(1.0,))
        state = FilterState(
            x_hat=np.zeros(1), P=np.eye(1), s=5.0, S=5.0 * np.eye(1), alpha=np.ones(1)
        )
        it = predict(state, np.eye(1), cfg)
        it.p_tilde = np.eye(1)
        it.r_tilde = np.eye(1)
        it.x, it.P, B = silent_row(np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1))
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
            it.x, it.P, B = silent_row(np.zeros(1), it.p_tilde, it.r_tilde, np.eye(1), np.eye(1))
            update_meas_cov(it, B)
            assert it.r_tilde[0, 0] == pytest.approx(it.S[0, 0] / (it.s_prior + 1.0))


class TestMixtureUpdate:
    def test_single_component(self):
        cfg = make_config(q_scales=(2.0,))
        state = FilterState(
            x_hat=np.zeros(2), P=np.eye(2), s=5.0, S=5.0 * np.eye(2), alpha=np.ones(1)
        )
        it = predict(state, np.eye(2), cfg)
        it.x, it.P, B = silent_row(it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2))
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
        it.x, it.P, B = silent_row(it.x_pred, it.p_tilde, it.r_tilde, np.eye(2), np.eye(2))
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
        it.x, it.P, B = sent_row(it.x_pred, it.p_tilde, it.r_tilde, np.array([1.5]), np.eye(1))
        update_predicted_cov(it, cfg)
        alpha_before = it.alpha.copy()
        d = cfg.dof_g
        g = d + 1.0  # the posterior IW(g, G) has G = g p_tilde
        G = g * it.p_tilde
        update_mixture(it, cfg)

        # Direct evaluation with scipy special functions, every term kept.
        n = 1
        e_p_inv = g / G[0, 0]
        e_logdet = (
            math.log(G[0, 0])
            - n * math.log(2.0)
            - float(scipy.special.digamma(0.5 * g))
        )
        log_w = []
        # F = I, so component j's IW scale is d (P + Qbar_j).
        for big_g in d * (state.P + cfg.nominal_q):
            log_w.append(
                0.5 * d * math.log(big_g[0, 0])
                - 0.5 * big_g[0, 0] * e_p_inv
                - 0.5 * (d + n + 1) * e_logdet
                - 0.5 * n * d * math.log(2.0)
                - float(scipy.special.gammaln(0.5 * d))
            )
        log_w = np.array(log_w) + (
            scipy.special.digamma(alpha_before) - scipy.special.digamma(alpha_before.sum())
        )
        expected = np.exp(log_w - log_w.max())
        expected /= expected.sum()
        assert np.allclose(it.chi, expected, atol=1e-10)
        assert np.allclose(it.alpha, it.alpha_prior + expected, atol=1e-10)

    def test_four_dim_three_components_against_direct_formula(self):
        """The reference keeps every term of the expected IW log density, those that
        cancel across the bank included; the library's weights must still match it."""
        # At n = 1 the n log 2, psi_n and (n + 1) terms are trivial; n = 4 exercises
        # every dimension-dependent term.
        rng = np.random.default_rng(11)
        n = 4
        cfg = make_config(n=n, q_scales=(0.5, 2.0, 6.0), dof=6.0)
        state = FilterState(
            x_hat=rng.standard_normal(n), P=random_spd(rng, n), s=5.0, S=5.0 * np.eye(2),
            alpha=np.array([0.7, 1.5, 3.0]),
        )
        f_mat = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        h_mat = rng.standard_normal((2, n))
        it = predict(state, f_mat, cfg)
        z = h_mat @ it.x_pred + np.array([3.0, -2.0])
        it.x, it.P, B = sent_row(it.x_pred, it.p_tilde, it.r_tilde, z, h_mat)
        update_predicted_cov(it, cfg)
        alpha_before = it.alpha.copy()
        d = cfg.dof_g
        g = d + 1.0  # the posterior IW(g, G) has G = g p_tilde
        G = g * it.p_tilde
        update_mixture(it, cfg)

        # Dense reference: explicit inverse, slogdet and scipy special functions.
        e_p_inv = g * np.linalg.inv(G)
        e_logdet = (
            np.linalg.slogdet(G)[1]
            - n * math.log(2.0)
            - sum(scipy.special.digamma(0.5 * (g + 1 - i)) for i in range(1, n + 1))
        )
        fpf = f_mat @ state.P @ f_mat.T
        log_w = np.array(
            [
                0.5 * d * np.linalg.slogdet(big_g)[1]
                - 0.5 * np.trace(big_g @ e_p_inv)
                - 0.5 * (d + n + 1) * e_logdet
                - 0.5 * n * d * math.log(2.0)
                - scipy.special.multigammaln(0.5 * d, n)
                for big_g in d * (fpf + cfg.nominal_q)
            ]
        )
        log_w += scipy.special.digamma(alpha_before) - scipy.special.digamma(alpha_before.sum())
        expected = np.exp(log_w - log_w.max())
        expected /= expected.sum()
        assert expected.min() > 0.01  # no component is negligible, so each term shows
        assert np.allclose(it.chi, expected, atol=1e-10)
        assert np.allclose(it.alpha, it.alpha_prior + expected, atol=1e-10)

    def test_sweep_rows_bitwise_their_own_stacks(self):
        """One sweep of a mixed sent/silent 500-row stack gives each row bitwise what the
        same rows give as 1-row and 7-row stacks, and what a sent and a silent row give
        unstacked: the mixture's Cholesky check, inverse and digamma work row by row."""
        rng = np.random.default_rng(34)
        n, m, rows = 4, 2, 500
        cfg = make_config(n=n, m=m, q_scales=(1.0, 2.0, 3.0, 9.0, 10.0), r_scale=150.0,
                          rho=0.997, y_scale=0.015)
        model = build_cv_scenario(1.0, 500)
        f, h = model.F(1), model.H(1)
        stack = FilterState(
            x_hat=100.0 * rng.standard_normal((rows, n)),
            P=np.array([random_spd(rng, n) for _ in range(rows)]),
            s=rng.uniform(3.0, 9.0, rows),
            S=np.array([150.0 * random_spd(rng, m) for _ in range(rows)]),
            alpha=rng.uniform(0.5, 3.0, (rows, 5)),
        )
        sent = rng.random(rows) < 0.8
        z = np.matvec(h, np.matvec(f, stack.x_hat)) + 20.0 * rng.standard_normal((rows, m))
        z[~sent] = np.nan
        fields = ("chi", "alpha", "p_tilde", "x", "P", "S")

        def swept(part):
            it = predict(take_rows(stack, part), f, cfg)
            sweep(it, sent[part], innovation(sent[part], z[part], np.matvec(h, it.x_pred)), h, cfg)
            return [getattr(it, name) for name in fields]

        whole = swept(slice(None))
        assert 0 < sent.sum() < rows
        for size in (1, 7):
            for start in range(0, rows, size):
                part = slice(start, start + size)
                for name, got, want in zip(fields, whole, swept(part)):
                    assert got[part].tobytes() == want.tobytes(), (name, size, start)
        for i in (np.flatnonzero(sent)[0], np.flatnonzero(~sent)[0]):
            for name, got, want in zip(fields, whole, swept(i)):
                assert (got[i].shape, got[i].tobytes()) == (want.shape, want.tobytes()), (name, i)


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
            ((), dict(gamma=np.array([1]), measurement=np.ones((1, 2)))),
            ((3,), dict(gamma=np.array([1, 1]), measurement=np.ones((2, 2)))),
            ((2,), dict(gamma=1, measurement=np.ones(2))),
        ],
    )
    def test_outcome_rows_must_match_state_rows(self, x0_rows, outcome):
        """An outcome is one sensor's, so one with a gamma per row is rejected when built,
        and one outcome for a stacked state is rejected, not broadcast."""
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0))
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        state = initial_state(np.broadcast_to(x0, x0_rows + x0.shape), p0, cfg)
        stacked = isinstance(outcome["gamma"], np.ndarray)
        with pytest.raises(ValueError, match="one sensor's" if stacked else "single state"):
            etvbf_step(state, model.F(1), model.H(1), TriggerOutcome(**outcome), cfg)

    @pytest.mark.parametrize("gamma", [1, 0], ids=["sent", "silent"])
    def test_step_leaves_its_input_arrays_unchanged(self, gamma):
        """A step leaves the state and outcome as given: the updates rebind and never write.

        A sent step sweeps more than once and a silent one stops after one
        sweep, as x stays at the prediction; the count is a numpy integer.
        The returned diag is the step's sweep state, and posterior(diag) is
        the returned state, field by field and bit for bit.
        """
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0, 3.0, 9.0, 10.0), r_scale=150.0,
                          rho=0.997, y_scale=0.015)
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        f, h = model.F(1), model.H(1)
        state = initial_state(x0, p0, cfg)
        outcome = TriggerOutcome(gamma=gamma, measurement=h @ f @ x0 + 30.0 if gamma else None)
        before = field_bytes(state, outcome)
        new_state, diag = etvbf_step(state, f, h, outcome, cfg)
        assert isinstance(diag, IterationState)
        assert isinstance(diag.iterations, np.integer)
        assert (diag.iterations > 1) == bool(gamma)
        assert field_bytes(state, outcome) == before
        carried = posterior(diag)
        for name, value in vars(new_state).items():
            a, b = np.asarray(getattr(carried, name)), np.asarray(value)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    def test_stacked_state_rejected(self):
        """etvbf_step steps one state; a stack is pointed to run_trials, or predict and
        sweep."""
        cfg = make_config(n=4, m=2, q_scales=(1.0, 2.0))
        model = build_cv_scenario(1.0, 500)
        x0, p0, _ = scenario_defaults()
        state = initial_state(np.broadcast_to(x0, (2, 4)), p0, cfg)
        outcome = TriggerOutcome(gamma=1, measurement=np.ones(2))
        with pytest.raises(ValueError, match="single state.*run_trials.*predict and sweep"):
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
