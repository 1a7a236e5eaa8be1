"""Known-covariance Kalman baselines sharing the model and trigger interfaces.

Covers the known-covariance event-triggered Kalman filter and an oracle
Kalman filter that is handed the true time-varying noise covariances.
Both reuse the adaptive filter's transmit and silent updates with known
covariances in place of the variational estimates, and step one state or
a stack of them along a leading trial axis. The non-triggered variational
filter is the adaptive filter fed an always-transmit outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import kalman_update, silent_update
from .numerics import symmetrize
from .trigger import TriggerOutcome

__all__ = ["KfState", "clset_kf_step", "kf_oracle_step"]


@dataclass(frozen=True)
class KfState:
    """Kalman filter state: estimate and error covariance."""

    x_hat: np.ndarray
    P: np.ndarray


def _kf_predict(state: KfState, F: np.ndarray, Q: np.ndarray):
    x_pred = np.matvec(F, state.x_hat)
    p_pred = symmetrize(F @ state.P @ F.T) + Q
    return x_pred, p_pred


def clset_kf_step(
    state: KfState,
    F: np.ndarray,
    H: np.ndarray,
    q_bar: np.ndarray,
    r_bar: np.ndarray,
    Y: np.ndarray,
    outcome: TriggerOutcome,
) -> KfState:
    """Event-triggered Kalman filter with fixed nominal covariances.

    On a transmission this is the standard update; without one, the
    trigger still shrinks the covariance through the Y-augmented
    innovation term while the estimate stays at the prediction. Each row
    of a stack takes only the update of its own trigger branch.
    """
    x_pred, p_pred = _kf_predict(state, F, q_bar)
    sent = np.asarray(outcome.gamma) == 1
    if sent.all():
        return KfState(*kalman_update(x_pred, p_pred, outcome.measurement, H, r_bar))
    if not sent.any():
        return KfState(x_hat=x_pred, P=silent_update(p_pred, H, r_bar, Y)[0])
    x_hat, p_hat = x_pred.copy(), np.empty_like(p_pred)
    x_hat[sent], p_hat[sent] = kalman_update(
        x_pred[sent], p_pred[sent], outcome.measurement[sent], H, r_bar
    )
    p_hat[~sent] = silent_update(p_pred[~sent], H, r_bar, Y)[0]
    return KfState(x_hat=x_hat, P=p_hat)


def kf_oracle_step(
    state: KfState,
    F: np.ndarray,
    H: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    z: np.ndarray,
) -> KfState:
    """Standard Kalman recursion fed the true time-varying covariances."""
    x_pred, p_pred = _kf_predict(state, F, Q)
    return KfState(*kalman_update(x_pred, p_pred, z, H, R))
