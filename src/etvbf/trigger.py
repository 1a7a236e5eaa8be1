"""Closed-loop stochastic event-triggered sensor schedule.

The sensor compares its measurement against the estimator-fed-back
prediction and keeps the measurement to itself with probability
exp(-0.5 e^T Y e), so small innovations are transmitted rarely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SeededRng
from .numerics import require_spd

__all__ = ["TriggerConfig", "TriggerOutcome", "trigger_probability", "sensor_decide"]


@dataclass(frozen=True)
class TriggerConfig:
    """Trigger weighting matrix Y (symmetric PSD); larger Y means more transmissions.

    Y = 0 keeps every measurement back. An indefinite Y would make the
    silence probability exceed one, so it is rejected here.
    """

    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Y", require_spd(self.Y, "Y", semidefinite=True))


@dataclass(frozen=True)
class TriggerOutcome:
    """Per-step transmit decision; the measurement is attached iff gamma = 1."""

    gamma: int
    measurement: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma not in (0, 1):
            raise ValueError("gamma must be 0 or 1")
        if (self.measurement is None) != (self.gamma == 0):
            raise ValueError("measurement must be present exactly when gamma = 1")


def trigger_probability(e: np.ndarray, cfg: TriggerConfig) -> float:
    """P(no transmission | innovation e) = exp(-0.5 e^T Y e)."""
    e = np.asarray(e, dtype=float)
    return math.exp(-0.5 * float(e @ cfg.Y @ e))


def sensor_decide(
    z: np.ndarray, z_pred: np.ndarray, cfg: TriggerConfig, rng: SeededRng
) -> TriggerOutcome:
    """Draw zeta ~ U[0,1] and withhold the measurement when zeta <= exp(-0.5 e^T Y e)."""
    z = np.asarray(z, dtype=float)
    phi = trigger_probability(z - np.asarray(z_pred, dtype=float), cfg)
    zeta = rng.uniform()
    if zeta <= phi:
        return TriggerOutcome(gamma=0)
    return TriggerOutcome(gamma=1, measurement=z)
