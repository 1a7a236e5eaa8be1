"""Known-covariance Kalman baselines sharing the model and the adaptive filter's update.

One step, clset_kf_step, serves both the known-covariance event-triggered
Kalman filter (fixed nominal covariances) and the oracle Kalman filter
(the true time-varying covariances, every row sent). It takes the
adaptive filter's one measurement_update and the (sent, e) pair that
filter.sweep takes, for one state or a stack along a leading trial axis.
The non-triggered variational filter is the adaptive filter with every
row sent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import measurement_update
from .numerics import symmetrize

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
    sent,
    e: np.ndarray,
) -> KfState:
    """Event-triggered Kalman filter step with the given covariances Q and R.

    On a transmission this is the standard update; without one, the
    trigger still shrinks the covariance through the Y-augmented
    innovation term while the estimate stays at the prediction. sent says
    which rows transmitted and e is the innovation against H F x_hat, 0 on
    a silent row (see filter.innovation). Each row takes measurement_update
    with the core of its own decision, and F, H, Q, R may hold one matrix
    per row. A sent not shaped like the state's rows raises ValueError.
    """
    rows = state.x_hat.shape[:-1]
    if np.shape(sent) != rows:
        raise ValueError(f"sent {np.shape(sent)} and state rows {rows} differ")
    x_pred = np.matvec(F, state.x_hat)
    p_pred = symmetrize(F @ state.P @ F.mT) + Q
    return KfState(*measurement_update(x_pred, p_pred, R, e, sent, H, Y)[:2])
