import math

import numpy as np
import pytest

from etvbf.distributions import SeededRng
from etvbf.trigger import TriggerConfig, TriggerOutcome, sensor_decide, trigger_probability
from helpers import random_spd


class TestTriggerProbability:
    def test_zero_innovation(self):
        cfg = TriggerConfig(Y=np.eye(2))
        assert trigger_probability(np.zeros(2), cfg) == 1.0

    def test_scalar_half(self):
        cfg = TriggerConfig(Y=np.array([[2.0 * math.log(2.0)]]))
        assert trigger_probability(np.array([1.0]), cfg) == pytest.approx(0.5)

    def test_two_dim_quarter(self):
        cfg = TriggerConfig(Y=2.0 * math.log(2.0) * np.eye(2))
        assert trigger_probability(np.array([1.0, 1.0]), cfg) == pytest.approx(0.25)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(1)
        cfg = TriggerConfig(Y=random_spd(rng, 2))
        for _ in range(10):
            e = rng.standard_normal(2)
            assert trigger_probability(e, cfg) == pytest.approx(
                trigger_probability(-e, cfg), rel=1e-15
            )

    def test_each_row_is_its_own_innovation_alone(self):
        """On a stack, row i's probability is bitwise the one its innovation gets alone."""
        rng = np.random.default_rng(8)
        cfg = TriggerConfig(Y=random_spd(rng, 2))
        e = 3.0 * rng.standard_normal((6, 2))
        stacked = trigger_probability(e, cfg)
        assert stacked.tolist() == [trigger_probability(row, cfg) for row in e]

    def test_loewner_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = random_spd(rng, 2)
            y_bigger = y + random_spd(rng, 2)
            e = rng.standard_normal(2)
            assert trigger_probability(e, TriggerConfig(Y=y_bigger)) <= trigger_probability(
                e, TriggerConfig(Y=y)
            )


class TestSensorDecide:
    def test_exact_prediction_never_transmits(self):
        cfg = TriggerConfig(Y=np.eye(2))
        rng = SeededRng(0)
        z = np.array([3.0, -1.0])
        for _ in range(100):
            outcome = sensor_decide(z, z, cfg, rng)
            assert outcome.gamma == 0
            assert outcome.measurement is None

    @pytest.mark.parametrize("rows", [1, 5])
    def test_rejects_stacked_measurement(self, rows):
        """One sensor decides: a stack of measurements, even of one row, is rejected."""
        with pytest.raises(ValueError, match="one measurement"):
            sensor_decide(np.ones((rows, 2)), np.zeros((rows, 2)), TriggerConfig(Y=np.eye(2)),
                          SeededRng(0))

    def test_transmission_carries_measurement(self):
        cfg = TriggerConfig(Y=1e6 * np.eye(2))
        z = np.array([5.0, 5.0])
        outcome = sensor_decide(z, np.zeros(2), cfg, SeededRng(1))
        assert outcome.gamma == 1
        assert np.array_equal(outcome.measurement, z)

    def test_empirical_half_rate(self):
        cfg = TriggerConfig(Y=np.array([[2.0 * math.log(2.0)]]))
        e = np.array([1.0])
        rng = SeededRng(5)
        silent = sum(
            sensor_decide(e, np.zeros(1), cfg, rng).gamma == 0 for _ in range(10**5)
        )
        assert abs(silent / 10**5 - 0.5) < 0.01

    def test_scaling_y_raises_transmission_rate(self):
        e = np.array([0.7, -0.3])
        base = trigger_probability(e, TriggerConfig(Y=np.eye(2)))
        scaled = trigger_probability(e, TriggerConfig(Y=10.0 * np.eye(2)))
        assert scaled < base

    def test_empirical_matches_probability_within_three_se(self):
        rng_np = np.random.default_rng(6)
        draws = 10**5
        for _ in range(5):
            y = random_spd(rng_np, 2, scale=float(rng_np.uniform(0.1, 2.0)))
            e = rng_np.standard_normal(2)
            phi = trigger_probability(e, TriggerConfig(Y=y))
            rng = SeededRng(int(rng_np.integers(2**31)))
            silent = sum(
                sensor_decide(e, np.zeros(2), TriggerConfig(Y=y), rng).gamma == 0
                for _ in range(draws)
            )
            se = math.sqrt(max(phi * (1 - phi), 1e-12) / draws)
            assert abs(silent / draws - phi) <= 3 * se + 1e-9


class TestTriggerOutcome:
    def test_measurement_presence_consistency(self):
        with pytest.raises(ValueError):
            TriggerOutcome(gamma=1, measurement=None)
        with pytest.raises(ValueError):
            TriggerOutcome(gamma=0, measurement=np.zeros(2))

    @pytest.mark.parametrize(
        "gamma,z",
        [
            ([1, 2, 0], [[1.0, 2.0], [3.0, 4.0], [np.nan, np.nan]]),
            ([1, 0, 1], [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]),
            ([1, 0, 1], [[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]]),
            ([1, 0, 1], [[1.0, np.nan], [np.nan, np.nan], [3.0, 4.0]]),
            ([1, 0], [[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]]),
            ([1, 0, 1], [[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]]),
            ([1], [[1.0, 2.0]]),
            (1, [1.0, 2.0]),
        ],
        ids=["gamma-2", "finite-silent-row", "half-finite-silent-row", "nan-sent-row", "row-count",
             "well-formed-stack", "one-row", "zero-dim"],
    )
    def test_stacked_outcome_rejects_bad_rows(self, gamma, z):
        """An outcome is one sensor's, so an ndarray gamma is rejected, even one that
        compares equal to 0 or 1: a stacked outcome, with or without the bad rows it was
        once checked for. A stack carries its decisions as (sent, e)."""
        with pytest.raises(ValueError, match="one sensor's 0 or 1"):
            TriggerOutcome(gamma=np.array(gamma), measurement=np.array(z))


class TestTriggerConfig:
    def test_rejects_indefinite_and_asymmetric_y(self):
        with pytest.raises(ValueError, match="semidefinite"):
            TriggerConfig(Y=-0.015 * np.eye(2))
        with pytest.raises(ValueError, match="semidefinite"):
            TriggerConfig(Y=np.diag([1.0, -1e-3]))
        with pytest.raises(ValueError, match="symmetric"):
            TriggerConfig(Y=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_accepts_singular_psd_y(self):
        v = np.array([1.0, 2.0])
        assert TriggerConfig(Y=np.zeros((2, 2))).Y.shape == (2, 2)
        assert np.array_equal(TriggerConfig(Y=np.outer(v, v)).Y, np.outer(v, v))
