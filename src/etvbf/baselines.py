"""Known-covariance Kalman baselines sharing the model and trigger interfaces.

One step, clset_kf_step, serves both the known-covariance event-triggered
Kalman filter (fixed nominal covariances) and the oracle Kalman filter
(the true time-varying covariances and an always-transmit outcome). It
reuses the adaptive filter's transmit and silent updates and its by_branch
row split, and steps one state or a stack of them along a leading trial
axis. The non-triggered variational filter is the adaptive filter fed an
always-transmit outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import by_branch, kalman_update, sent_rows, silent_update
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
    innovation term while the estimate stays at the prediction. Each row
    of a stack takes only the update of its own trigger branch, and F, H,
    Q, R may hold one matrix per row. A gamma not shaped like the state's
    rows raises ValueError.
    """
    sent, z = sent_rows(outcome, state), outcome.measurement
    H, R = (a if a.ndim > 2 else np.broadcast_to(a, sent.shape + a.shape) for a in (H, R))
    x_pred = np.matvec(F, state.x_hat)
    p_pred = symmetrize(F @ state.P @ F.mT) + Q
    return KfState(
        *by_branch(
            sent,
            lambda r: kalman_update(x_pred[r], p_pred[r], z[r], H[r], R[r]),
            lambda r: (x_pred[r], silent_update(p_pred[r], H[r], R[r], Y)[0]),
        )
    )
