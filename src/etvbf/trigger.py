"""Closed-loop stochastic event-triggered sensor schedule.

The sensor compares its measurement against the estimator-fed-back
prediction and keeps the measurement to itself with probability
exp(-0.5 e^T Y e), so small innovations are transmitted rarely. Each
decision is one sensor's and takes one uniform draw from its own stream.
A stack of sensors is decided row by row with trigger_probability, and
carries its decisions as which rows sent and their innovations, not as
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SeededRng
from .numerics import require_spd

__all__ = ["TriggerConfig", "TriggerOutcome", "trigger_probability", "sensor_decide"]

# Outcomes are one sensor's (~5 us a sensor_decide call); a stack is decided row by
# row with trigger_probability's per-row form and carried as (sent, e), never as outcomes.


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
    """One sensor's per-step decision; the measurement is attached iff gamma = 1."""

    gamma: int
    measurement: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.gamma, np.ndarray) or self.gamma not in (0, 1):
            raise ValueError(f"gamma must be one sensor's 0 or 1, got {self.gamma!r}")
        if (self.measurement is None) != (self.gamma == 0):
            raise ValueError("measurement must be present exactly when gamma = 1")


# Every silent decision is this one immutable outcome.
_SILENT = TriggerOutcome(gamma=0)


def trigger_probability(e: np.ndarray, cfg: TriggerConfig):
    """P(no transmission | innovation e) = exp(-0.5 e^T Y e); one per row of a stack."""
    e = np.asarray(e, dtype=float)
    # Both forms take the same products and numpy's exp, which runs one loop for
    # a scalar and a stack alike, so a row's decision is the one its innovation
    # gets alone; math.exp, the platform's libm, can differ from it in the last bit.
    if e.ndim == 1:
        return np.exp(-0.5 * e.dot(cfg.Y).dot(e))
    return np.exp(-0.5 * np.vecdot(np.vecmat(e, cfg.Y), e))


def sensor_decide(
    z: np.ndarray, z_pred: np.ndarray, cfg: TriggerConfig, rng: SeededRng
) -> TriggerOutcome:
    """Withhold the measurement z when a uniform draw from rng is <= exp(-0.5 e^T Y e).

    One sensor decides: a stack of measurements raises ValueError.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"sensor_decide decides one measurement, not an array of {z.shape}")
    if rng.random() <= trigger_probability(z - z_pred, cfg):
        return _SILENT
    return TriggerOutcome(gamma=1, measurement=z)
