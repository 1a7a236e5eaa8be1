import dataclasses
import math

import numpy as np
import pytest

from etvbf.distributions import SeededRng
from etvbf.model import (
    ModelSpec,
    build_cv_scenario,
    scenario_defaults,
    simulate_truth,
)


class TestScenario:
    def test_system_matrices(self):
        model = build_cv_scenario(1.0, 500)
        assert model.n == 4 and model.m == 2
        expected_f = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(model.F(3), expected_f)
        assert np.array_equal(model.H(3), np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float))

    def test_true_q_at_step_zero(self):
        model = build_cv_scenario(1.0, 500)
        q = model.trueQ(0)
        base = np.array(
            [
                [1 / 3, 0, 1 / 2, 0],
                [0, 1 / 3, 0, 1 / 2],
                [1 / 2, 0, 1, 0],
                [0, 1 / 2, 0, 1],
            ]
        )
        assert np.allclose(q, 6.5 * base, atol=1e-12)

    def test_true_r_at_step_zero(self):
        model = build_cv_scenario(1.0, 500)
        expected = 150.0 * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(model.trueR(0), expected, atol=1e-12)

    def test_cosine_trough(self):
        tf = 500
        model = build_cv_scenario(1.0, tf)
        assert model.trueQ(tf)[2, 2] == pytest.approx(5.5)
        assert model.trueR(tf)[0, 0] == pytest.approx(50.0)

    def test_true_covariances_spd_over_range(self):
        model = build_cv_scenario(1.0, 500)
        for k in range(0, 1001, 50):
            assert np.all(np.linalg.eigvalsh(model.trueQ(k)) > 0)
            assert np.all(np.linalg.eigvalsh(model.trueR(k)) > 0)

    def test_sample_time_must_be_positive(self):
        """The scenario owns its settings' rules: sample_time is one real number above 0
        whose true process noise is finite and positive definite, and cosine_period an
        integer of at least 1 that a float holds. Each raises ValueError naming the
        field, not an OverflowError or a NotPositiveDefinite."""
        for sample_time, cosine_period, name in [
            (0.0, 500, "sample_time"),
            ([1.0], 500, "sample_time"),
            (math.nan, 500, "sample_time"),
            (1e-300, 500, "sample_time"),
            (1e-120, 500, "sample_time"),
            (1e-110, 500, "sample_time"),
            (1e103, 500, "sample_time"),
            (1e150, 500, "sample_time"),
            (1e200, 500, "sample_time"),
            (10**103, 500, "sample_time"),
            (1.0, 2.5, "cosine_period"),
            (1.0, True, "cosine_period"),
            (1.0, 10**309, "cosine_period"),
            (1.0, 10**400, "cosine_period"),
        ]:
            with pytest.raises(ValueError, match=name):
                build_cv_scenario(sample_time, cosine_period)
        assert build_cv_scenario(1.0, 500).n == 4


class TestDefaults:
    def test_values(self):
        x0, p0, steps = scenario_defaults()
        assert np.array_equal(x0, [100.0, 100.0, 10.0, 10.0])
        assert np.array_equal(p0, 100.0 * np.eye(4))
        assert steps == 150


def _near_noiseless_model() -> ModelSpec:
    model = build_cv_scenario(1.0, 500)
    eps = 1e-18
    return ModelSpec(
        n=4,
        m=2,
        F=model.F,
        H=model.H,
        trueQ=lambda k: eps * np.eye(4),
        trueR=lambda k: eps * np.eye(2),
    )


class TestSimulateTruth:
    def test_deterministic_under_seed(self):
        model = build_cv_scenario(1.0, 500)
        x0, _, _ = scenario_defaults()
        t1 = simulate_truth(model, x0, 30, SeededRng(11))
        t2 = simulate_truth(model, x0, 30, SeededRng(11))
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.measurements, t2.measurements)

    def test_zero_noise_limit_matches_recursion(self):
        model = _near_noiseless_model()
        x0, _, _ = scenario_defaults()
        traj = simulate_truth(model, x0, 20, SeededRng(2))
        x = x0.copy()
        for k in range(1, 21):
            x = model.F(k) @ x
            assert np.linalg.norm(traj.states[k - 1] - x) < 1e-6
            assert np.linalg.norm(traj.measurements[k - 1] - model.H(k) @ x) < 1e-6

    def test_first_step_process_noise_covariance(self):
        model = build_cv_scenario(1.0, 500)
        x0, _, _ = scenario_defaults()
        f1 = model.F(1)
        residuals = np.array(
            [
                simulate_truth(model, x0, 1, SeededRng(seed)).states[0] - f1 @ x0
                for seed in range(500)
            ]
        )
        sample_cov = np.cov(residuals.T)
        true_q = model.trueQ(1)
        assert np.linalg.norm(sample_cov - true_q) < 0.10 * np.linalg.norm(true_q)

    @pytest.mark.parametrize("rows", [None, 5], ids=["one-stream", "five-rows"])
    def test_measurements_are_each_steps_own_product(self, rows):
        """z_k is bitwise H_k x_k + v_k of a hand loop over the steps, with a dense F_k and
        H_k that change with k, for one stream and for a stack of 5."""
        steps, rng = 12, np.random.default_rng(5)
        f_tab = np.eye(4) + 0.1 * rng.standard_normal((steps, 4, 4))
        h_tab = rng.standard_normal((steps, 2, 4))
        model = dataclasses.replace(
            build_cv_scenario(1.0, 500), F=lambda k: f_tab[k - 1], H=lambda k: h_tab[k - 1]
        )
        x0, _, _ = scenario_defaults()
        keys = [7] if rows is None else [(7, i) for i in range(rows)]
        traj = simulate_truth(
            model, x0, steps, SeededRng(7) if rows is None else [SeededRng(key) for key in keys]
        )
        ks = range(1, steps + 1)
        q_lower = np.linalg.cholesky(np.array([model.trueQ(k) for k in ks]))
        r_lower = np.linalg.cholesky(np.array([model.trueR(k) for k in ks]))
        for i, key in enumerate(keys):
            draws = SeededRng(key).standard_normal(steps * 6).reshape(steps, 6)
            x = x0
            for k in ks:
                x = np.matvec(model.F(k), x) + np.matvec(q_lower[k - 1], draws[k - 1, :4])
                z = np.matvec(model.H(k), x) + np.matvec(r_lower[k - 1], draws[k - 1, 4:])
                at = (k - 1,) if rows is None else (i, k - 1)
                assert traj.states[at].tobytes() == x.tobytes()
                assert traj.measurements[at].tobytes() == z.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_stacked_rows_equal_single_calls(self, rows):
        """Each row of a stack is bitwise its stream's single call, and leaves the stream there."""
        model = build_cv_scenario(1.0, 500)
        x0, _, _ = scenario_defaults()
        keys = [(20240, t) for t in range(rows)]
        streams = [SeededRng(key) for key in keys]
        stack = simulate_truth(model, x0, 25, streams)
        assert stack.states.shape == (rows, 25, model.n)
        assert stack.measurements.shape == (rows, 25, model.m)
        for key, stream, states, measurements in zip(
            keys, streams, stack.states, stack.measurements
        ):
            alone_rng = SeededRng(key)
            alone = simulate_truth(model, x0, 25, alone_rng)
            assert alone.states.shape == (25, model.n)
            assert np.array_equal(states, alone.states)
            assert np.array_equal(measurements, alone.measurements)
            assert stream.random() == alone_rng.random()
