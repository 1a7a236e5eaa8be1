"""Known-covariance Kalman baselines sharing the model and the adaptive filter's update.

A Kalman step is kf_predict, then the adaptive filter's one
measurement_update on the (sent, e) pair that filter.sweep takes, for one
state or a stack along a leading trial axis. The known-covariance
event-triggered Kalman filter gives both the fixed nominal covariances;
the oracle Kalman filter gives them the true time-varying covariances and
sends every row. The non-triggered variational filter is the adaptive
filter with every row sent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import symmetrize

__all__ = ["KfState", "kf_predict"]


@dataclass
class KfState:
    """Kalman filter state: estimate and error covariance.

    The harness rebinds a predicted state's x_hat and P to its update's.
    """

    x_hat: np.ndarray
    P: np.ndarray


def kf_predict(state: KfState, F: np.ndarray, Q: np.ndarray) -> KfState:
    """The Kalman prediction (F x_hat, sym(F P F^T) + Q); F and Q may hold one matrix per row."""
    return KfState(np.matvec(F, state.x_hat), symmetrize(F @ state.P @ F.mT) + Q)
