"""Linear-Gaussian state-space model and the constant-velocity vehicle scenario.

The scenario tracks a vehicle in 2D with a constant-velocity model whose
true process and measurement noise covariances drift along a cosine
schedule, so the filter has to follow noise statistics it was never told.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import SeededRng
from .numerics import NotPositiveDefinite, is_integer, is_real, spd_factor

__all__ = [
    "ModelSpec",
    "Trajectory",
    "build_cv_scenario",
    "simulate_truth",
    "scenario_defaults",
]


@dataclass(frozen=True)
class ModelSpec:
    """Time-indexed linear-Gaussian system x_k = F_k x_{k-1} + w_k, z_k = H_k x_k + v_k."""

    n: int
    m: int
    F: Callable[[int], np.ndarray]
    H: Callable[[int], np.ndarray]
    trueQ: Callable[[int], np.ndarray]
    trueR: Callable[[int], np.ndarray]


@dataclass(frozen=True)
class Trajectory:
    """Jointly simulated ground truth and measurements of one trial or a stack of B."""

    states: np.ndarray  # (steps, n) or (B, steps, n); row k-1 holds x_k
    measurements: np.ndarray  # (steps, m) or (B, steps, m); row k-1 holds z_k


def build_cv_scenario(sample_time: float, cosine_period: int) -> ModelSpec:
    """Constant-velocity tracking scenario with cosine-scheduled true noise.

    State is [px, py, vx, vy]; position is measured directly. The true
    process noise is (6 + 0.5 cos(pi k / T_f)) times the standard
    continuous-white-noise-acceleration block, and the true measurement
    noise is (100 + 50 cos(pi k / T_f)) times a 0.5-correlated 2x2 matrix.
    """
    if not (is_real(sample_time) and sample_time > 0):
        raise ValueError(f"sample_time must be one real number above 0, got {sample_time!r}")
    if not (is_integer(cosine_period) and is_real(cosine_period) and cosine_period >= 1):
        raise ValueError(
            f"cosine_period must be an integer of at least 1 that a float holds, "
            f"got {cosine_period!r}"
        )
    t = float(sample_time)  # an int cubes exactly, to an int too large to divide by 3.0
    if not math.isfinite(6.5 * (t * t * t / 3.0)):  # the first entry of the true Q_k to overflow
        raise ValueError(f"sample_time {sample_time!r} overflows the true process noise")
    eye2 = np.eye(2)
    f_mat = np.block([[eye2, t * eye2], [np.zeros((2, 2)), eye2]])
    h_mat = np.hstack([eye2, np.zeros((2, 2))])
    q_base = np.block(
        [[(t * t * t / 3.0) * eye2, (t * t / 2.0) * eye2], [(t * t / 2.0) * eye2, t * eye2]]
    )
    try:  # the true Q_k ranges over 5.5 q_base to 6.5 q_base
        spd_factor(np.array([5.5 * q_base, 6.5 * q_base]))
    except NotPositiveDefinite as exc:
        raise ValueError(
            f"sample_time {sample_time!r} gives a true process noise that is not positive definite"
        ) from exc
    r_base = np.array([[1.0, 0.5], [0.5, 1.0]])

    def true_q(k: int) -> np.ndarray:
        return (6.0 + 0.5 * math.cos(math.pi * k / cosine_period)) * q_base

    def true_r(k: int) -> np.ndarray:
        return (100.0 + 50.0 * math.cos(math.pi * k / cosine_period)) * r_base

    return ModelSpec(
        n=4,
        m=2,
        F=lambda k: f_mat,
        H=lambda k: h_mat,
        trueQ=true_q,
        trueR=true_r,
    )


def simulate_truth(
    model: ModelSpec, x0: np.ndarray, steps: int, rng: SeededRng | Sequence[SeededRng]
) -> Trajectory:
    """Simulate ground truth and measurements for steps k = 1..steps.

    The initial state x0 is deterministic; noise at step k uses the true
    covariances evaluated at k, factored once in one stacked Cholesky. Per
    step the process noise is drawn before the measurement noise, so the
    stream layout is reproducible, and all of a stream's draws are taken
    at once. Only the states recur; all z_k = H_k x_k + v_k are one product
    after. For a stack of B trials, rng is a sequence of B streams, one
    per row: each row draws from its own stream in row order, the arrays
    gain a leading axis of B rows, and every row equals the trajectory its
    stream gives alone. One stream is run as a one-row stack.
    """
    n, m = model.n, model.m
    ks = range(1, steps + 1)
    q_lower = spd_factor(np.array([model.trueQ(k) for k in ks])).lower
    r_lower = spd_factor(np.array([model.trueR(k) for k in ks])).lower
    single = isinstance(rng, SeededRng)
    streams = [rng] if single else rng
    draws = np.array([s.standard_normal(steps * (n + m)) for s in streams])
    draws = draws.reshape(len(streams), steps, n + m)
    # Each noise stack is overwritten in place by the x_k or z_k it enters.
    states = np.matvec(q_lower, draws[..., :n])
    measurements = np.matvec(r_lower, draws[..., n:])
    x = np.asarray(x0, dtype=float)
    for k in ks:
        x = np.add(np.matvec(model.F(k), x), states[:, k - 1], out=states[:, k - 1])
    h_tab = np.array([model.H(k) for k in ks])
    np.add(np.matvec(h_tab, states), measurements, out=measurements)
    if single:
        states, measurements = states[0], measurements[0]
    return Trajectory(states=states, measurements=measurements)


def scenario_defaults() -> tuple[np.ndarray, np.ndarray, int]:
    """Default initial state, initial estimate covariance, and step count."""
    x0 = np.array([100.0, 100.0, 10.0, 10.0])
    p0 = 100.0 * np.eye(4)
    return x0, p0, 150
