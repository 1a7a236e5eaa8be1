import numpy as np
import pytest

from etvbf.baselines import KfState, kf_predict
from etvbf.distributions import SeededRng
from etvbf.filter import innovation
from etvbf.model import build_cv_scenario, scenario_defaults, simulate_truth
from etvbf.numerics import spd_factor
from helpers import dense_kalman_update, dense_theta, field_bytes, kf_step, random_spd


def decided_step(state, f, h, q, r, y, sent, z=None):
    """kf_step given which rows sent and their z, with e = z - H x_hat^- where sent."""
    e = innovation(np.asarray(sent), z, np.matvec(h, kf_predict(state, f, q).x_hat))
    return kf_step(state, f, h, q, r, y, sent, e)


def transmitted_step(state, f, h, q, r, z):
    """kf_step with the measurement delivered, as the oracle Kalman filter runs it."""
    return decided_step(state, f, h, q, r, np.eye(len(z)), True, z)


class TestKfPredict:
    @pytest.mark.parametrize("rows", [(), (5,)], ids=["single-state", "stack-of-5"])
    def test_is_f_x_and_symmetrized_f_p_f_plus_q(self, rows):
        """kf_predict gives (F x_hat, sym(F P F^T) + Q) bitwise, and writes into no input."""
        rng = np.random.default_rng(3)
        f, q = np.eye(4) + 0.2 * rng.standard_normal((4, 4)), random_spd(rng, 4)
        p = np.broadcast_to(random_spd(rng, 4), rows + (4, 4)).copy()
        state = KfState(rng.standard_normal(rows + (4,)), p)
        before = field_bytes(state)
        pred = kf_predict(state, f, q)
        fpf = f @ p @ f.T
        assert pred.x_hat.tobytes() == np.matvec(f, state.x_hat).tobytes()
        assert pred.P.tobytes() == (0.5 * (fpf + fpf.mT) + q).tobytes()
        assert field_bytes(state) == before


class TestOracleKalman:
    def test_unobservable_is_pure_prediction(self):
        state = KfState(x_hat=np.array([1.0, 2.0]), P=np.eye(2))
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = transmitted_step(state, f, np.zeros((1, 2)), np.eye(2), np.eye(1), np.zeros(1))
        assert np.allclose(out.x_hat, f @ state.x_hat)
        assert np.allclose(out.P, f @ state.P @ f.T + np.eye(2))

    def test_scalar_posterior_variance(self):
        state = KfState(x_hat=np.zeros(1), P=np.eye(1))
        out = transmitted_step(
            state, np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1), np.array([1.0])
        )
        assert out.P[0, 0] == pytest.approx(0.5)
        assert out.x_hat[0] == pytest.approx(0.5)

    def test_scalar_riccati_fixed_point(self):
        f, h, q, r = 0.9, 1.0, 0.5, 2.0
        state = KfState(x_hat=np.zeros(1), P=np.array([[1.0]]))
        for _ in range(200):
            state = transmitted_step(
                state,
                np.array([[f]]),
                np.array([[h]]),
                np.array([[q]]),
                np.array([[r]]),
                np.zeros(1),
            )
        # Fixed point of p = g(p) with g the predict/update map, found by
        # iterating the scalar map from an independent starting point.
        p = 123.0
        for _ in range(10_000):
            pp = f * p * f + q
            p = pp - pp * h * (h * pp * h + r) ** -1 * h * pp
        assert state.P[0, 0] == pytest.approx(p, abs=1e-8)


class TestClsetKf:
    def test_transmitting_branch_equals_dense_kalman_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            f = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            h = rng.standard_normal((m, n))
            state = KfState(x_hat=rng.standard_normal(n), P=random_spd(rng, n))
            q, r = random_spd(rng, n, scale=0.5), random_spd(rng, m, scale=2.0)
            z = rng.standard_normal(m)
            out = transmitted_step(state, f, h, q, r, z)
            x_ref, p_ref = dense_kalman_update(f @ state.x_hat, f @ state.P @ f.T + q, z, h, r)
            assert np.allclose(out.x_hat, x_ref, rtol=1e-9, atol=1e-9)
            assert np.allclose(out.P, p_ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "gamma", [[1, 0, 0, 1, 1, 0], [1] * 6, [0] * 6], ids=["mixed", "all-sent", "all-silent"]
    )
    def test_stack_rows_equal_single_steps(self, gamma):
        """Each row of a stack is bitwise the step of its own state and outcome alone."""
        rng = np.random.default_rng(5)
        model = build_cv_scenario(1.0, 500)
        f, h = model.F(3), model.H(3)
        q_bar, r_bar, y = 4.0 * np.eye(4), 150.0 * np.eye(2), 0.015 * np.eye(2)
        sent = np.array(gamma) == 1
        x_hat = rng.standard_normal((6, 4))
        P = np.stack([random_spd(rng, 4) for _ in range(6)])
        z = rng.standard_normal((6, 2))
        stacked = decided_step(KfState(x_hat, P), f, h, q_bar, r_bar, y, sent, z)
        for i in range(6):
            alone = decided_step(KfState(x_hat[i], P[i]), f, h, q_bar, r_bar, y, sent[i], z[i])
            assert np.array_equal(stacked.x_hat[i], alone.x_hat)
            assert np.array_equal(stacked.P[i], alone.P)

    def test_stack_step_leaves_its_input_arrays_unchanged(self):
        """A mixed stack's step leaves the state, sent and e as given: kf_predict and
        measurement_update rebind and never write."""
        rng = np.random.default_rng(7)
        model = build_cv_scenario(1.0, 500)
        sent = np.array([True, False, True, True])
        state = KfState(rng.standard_normal((4, 4)), np.stack([random_spd(rng, 4) for _ in sent]))
        e = np.where(sent[:, None], rng.standard_normal((4, 2)), 0.0)
        before = field_bytes(state), sent.tobytes(), e.tobytes()
        kf_step(state, model.F(1), model.H(1), 4.0 * np.eye(4), 150.0 * np.eye(2),
                0.015 * np.eye(2), sent, e)
        assert (field_bytes(state), sent.tobytes(), e.tobytes()) == before

    def test_silent_scalar_reference(self):
        state = KfState(x_hat=np.zeros(1), P=np.eye(1))
        out = kf_step(
            state,
            np.eye(1),
            np.eye(1),
            np.zeros((1, 1)),
            np.eye(1),
            np.eye(1),
            False,
            np.zeros(1),
        )
        assert out.x_hat[0] == 0.0
        assert out.P[0, 0] == pytest.approx(2.0 / 3.0)

    def test_silent_with_vanishing_trigger_keeps_prior(self):
        state = KfState(x_hat=np.zeros(1), P=np.eye(1))
        out = kf_step(
            state,
            np.eye(1),
            np.eye(1),
            np.zeros((1, 1)),
            np.eye(1),
            1e-12 * np.eye(1),
            False,
            np.zeros(1),
        )
        assert out.P[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_silent_matches_dense_joint_inverse(self):
        # Every third instance uses a rank-one Y, which has no inverse.
        rng = np.random.default_rng(11)
        for case in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            h = rng.standard_normal((m, n))
            f = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            state = KfState(x_hat=rng.standard_normal(n), P=random_spd(rng, n))
            q_bar = random_spd(rng, n, scale=float(rng.uniform(0.1, 2.0)))
            r_bar = random_spd(rng, m, scale=float(rng.uniform(0.1, 10.0)))
            if case % 3 == 0:
                v = rng.standard_normal(m)
                y = np.outer(v, v)
            else:
                y = random_spd(rng, m, scale=float(rng.uniform(1e-3, 1.0)))
            out = kf_step(state, f, h, q_bar, r_bar, y, False, np.zeros(m))
            p_pred = f @ state.P @ f.T + q_bar
            expected = dense_theta(p_pred, r_bar, h, y)[:n, :n]
            assert np.allclose(out.P, expected, rtol=1e-9, atol=1e-9)
            assert np.array_equal(out.x_hat, f @ state.x_hat)

    def test_covariance_stays_spd_over_trial(self):
        model = build_cv_scenario(1.0, 500)
        x0, p0, steps = scenario_defaults()
        traj = simulate_truth(model, x0, steps, SeededRng(6))
        rng = np.random.default_rng(1)
        state = KfState(x_hat=x0, P=p0)
        q_bar, r_bar = 4.0 * np.eye(4), 150.0 * np.eye(2)
        y = 0.015 * np.eye(2)
        for k in range(1, steps + 1):
            sent = rng.random() < 0.5
            state = decided_step(state, model.F(k), model.H(k), q_bar, r_bar, y, sent,
                                 traj.measurements[k - 1])
            spd_factor(state.P)

