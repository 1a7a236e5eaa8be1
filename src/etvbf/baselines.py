"""Known-covariance Kalman baselines sharing the model and trigger interfaces.

One step, clset_kf_step, serves both the known-covariance event-triggered
Kalman filter (fixed nominal covariances) and the oracle Kalman filter
(the true time-varying covariances and an always-transmit outcome). It
takes the adaptive filter's one measurement_update, whose core the
trigger outcome picks per row, and steps one state or a stack of them
along a leading trial axis. The non-triggered variational filter is the
adaptive filter fed an always-transmit outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import innovation, measurement_update, sent_rows
from .numerics import symmetrize
from .trigger import TriggerOutcome

__all__ = ["KfState", "clset_kf_step"]


@dataclass(frozen=True)
class KfState:
    """Kalman filter state: estimate and error covariance."""

    x_hat: np.ndarray
    P: np.ndarray


def clset_kf_step(
    state: KfState,
    F: np.ndarray,
    H: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    Y: np.ndarray,
    outcome: TriggerOutcome,
) -> KfState:
    """Event-triggered Kalman filter step with the given covariances Q and R.

    On a transmission this is the standard update; without one, the
    trigger still shrinks the covariance through the Y-augmented
    innovation term while the estimate stays at the prediction. Every row
    of a stack takes measurement_update with the core of its own outcome,
    and F, H, Q, R may hold one matrix per row. A gamma not shaped like
    the state's rows raises ValueError.
    """
    sent = sent_rows(outcome, state)
    x_pred = np.matvec(F, state.x_hat)
    p_pred = symmetrize(F @ state.P @ F.mT) + Q
    e = innovation(sent, outcome.measurement, np.matvec(H, x_pred))
    return KfState(*measurement_update(x_pred, p_pred, R, e, sent, H, Y)[:2])
