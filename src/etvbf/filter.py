"""Adaptive variational filter with event-triggered measurement updates.

One filter step runs a prediction, then a fixed-point sweep loop that
alternately refines the state, the predicted error covariance (as an
inverse-Wishart posterior over a bank of nominal process noise
covariances), the measurement noise covariance, and the mixture weights,
for either trigger branch. The no-measurement branch still extracts
information from the fact that the innovation was small enough to stay
below the stochastic trigger. The two branch updates, kalman_update and
silent_update, are plain functions of a predicted covariance that the
known-covariance Kalman baselines reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    dirichlet_expected_log,
    iw_expected_logdet,
    iw_mean_of_inverse,
    normalize_log_weights,
)
from .numerics import Singular, log_multivariate_gamma, require_spd, spd_factor, symmetrize
from .trigger import TriggerConfig, TriggerOutcome

__all__ = [
    "FilterConfig",
    "FilterState",
    "Prediction",
    "IterationState",
    "StepDiagnostics",
    "initial_state",
    "kalman_update",
    "silent_update",
    "predict",
    "init_iteration",
    "update_joint_no_meas",
    "update_state_meas",
    "update_predicted_cov",
    "update_meas_cov",
    "update_mixture",
    "check_convergence",
    "etvbf_step",
]


@dataclass(frozen=True)
class FilterConfig:
    """Tuning parameters: nominal covariance bank, prior dofs, and loop control."""

    nominal_q: np.ndarray  # (M, n, n) nominal process noise covariances
    dof_g: np.ndarray  # M inverse-Wishart dofs for the predicted covariance
    r0: np.ndarray  # nominal measurement noise covariance
    s0: float  # initial measurement-noise dof
    alpha0: np.ndarray  # M initial Dirichlet concentrations
    rho: float  # forgetting factor in (0, 1]
    trigger: TriggerConfig
    max_iterations: int = 50
    tol: float = 1e-6  # relative state-change threshold ending the sweep loop

    def __post_init__(self):
        object.__setattr__(self, "nominal_q", require_spd(self.nominal_q, "nominal_q", ndim=3))
        object.__setattr__(self, "dof_g", np.asarray(self.dof_g, dtype=float))
        object.__setattr__(self, "r0", require_spd(self.r0, "r0"))
        object.__setattr__(self, "alpha0", np.asarray(self.alpha0, dtype=float))
        m_size, n = self.nominal_q.shape[:2]
        if self.dof_g.shape != (m_size,) or np.any(self.dof_g <= n - 1):
            raise ValueError("dof_g must hold one dof above n - 1 per nominal covariance")
        if self.r0.shape != self.trigger.Y.shape:
            raise ValueError("r0 must be shaped like the trigger's Y")
        if not self.s0 > 0.0:
            raise ValueError("s0 must be positive")
        if self.alpha0.shape != (m_size,) or np.any(self.alpha0 <= 0):
            raise ValueError("alpha0 must hold one positive value per nominal covariance")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FilterState:
    """Recursive state carried between steps."""

    x_hat: np.ndarray
    P: np.ndarray
    s: float
    S: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class Prediction:
    """Per-step priors: predicted state, covariance bank, forgotten dofs."""

    x_pred: np.ndarray
    G_j: np.ndarray  # (M, n, n) IW scales g_j (F P F^T + Qbar_j)
    log_norm_j: np.ndarray  # g_j log|G_j|/2 - n g_j log2/2 - log Gamma_n(g_j/2)
    s_prior: float
    S_prior: np.ndarray
    alpha_prior: np.ndarray


@dataclass
class IterationState:
    """Mutable quantities refined by the fixed-point sweeps within one step."""

    x: np.ndarray
    P: np.ndarray
    g: float
    G: np.ndarray
    s: float
    S: np.ndarray
    chi: np.ndarray  # mixture weights over the nominal bank, summing to one
    alpha: np.ndarray
    p_tilde: np.ndarray  # G / g, the working predicted covariance
    r_tilde: np.ndarray  # S / s, the working measurement covariance
    Pxz: np.ndarray | None = None  # gamma = 0 branch only
    Pzz: np.ndarray | None = None  # gamma = 0 branch only


@dataclass(frozen=True)
class StepDiagnostics:
    """Read-only per-step extras for the experiment harness."""

    iterations: int
    p_tilde: np.ndarray
    r_tilde: np.ndarray
    chi: np.ndarray


def initial_state(x0_hat: np.ndarray, p0: np.ndarray, cfg: FilterConfig) -> FilterState:
    """Filter state before the first step: S starts at s0 * R0."""
    return FilterState(
        x_hat=np.asarray(x0_hat, dtype=float),
        P=np.asarray(p0, dtype=float),
        s=cfg.s0,
        S=cfg.s0 * cfg.r0,
        alpha=cfg.alpha0.copy(),
    )


def predict(prev: FilterState, F: np.ndarray, cfg: FilterConfig) -> Prediction:
    """Propagate the state, build the covariance bank, and forget old dofs."""
    n = F.shape[0]
    g_j = cfg.dof_g[:, None, None] * (symmetrize(F @ prev.P @ F.T) + cfg.nominal_q)
    log_gamma_j = np.array([log_multivariate_gamma(n, 0.5 * g) for g in cfg.dof_g])
    return Prediction(
        x_pred=F @ prev.x_hat,
        G_j=g_j,
        log_norm_j=0.5 * cfg.dof_g * spd_factor(g_j).log_det()
        - 0.5 * n * cfg.dof_g * math.log(2.0)
        - log_gamma_j,
        s_prior=cfg.rho * prev.s,
        S_prior=cfg.rho * prev.S,
        alpha_prior=cfg.rho * prev.alpha,
    )


def init_iteration(pred: Prediction, cfg: FilterConfig) -> IterationState:
    """Sweep-zero initialization from the priors."""
    chi0 = pred.alpha_prior / pred.alpha_prior.sum()
    g0 = float(chi0 @ cfg.dof_g)
    big_g0 = (chi0[:, None, None] * pred.G_j).sum(axis=0)
    return IterationState(
        x=pred.x_pred.copy(),
        P=big_g0 / g0,
        g=g0,
        G=big_g0,
        s=pred.s_prior,
        S=pred.S_prior.copy(),
        chi=chi0,
        alpha=pred.alpha_prior.copy(),
        p_tilde=big_g0 / g0,
        r_tilde=pred.S_prior / pred.s_prior,
    )


def kalman_update(
    x_pred: np.ndarray, p_pred: np.ndarray, z: np.ndarray, H: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transmission branch: standard gain update of (x_pred, p_pred) with z ~ N(Hx, R)."""
    ph_t = p_pred @ H.T
    gain_t = spd_factor(symmetrize(H @ ph_t) + R).solve(ph_t.T)
    x_hat = x_pred + gain_t.T @ (z - H @ x_pred)
    p_hat = symmetrize(p_pred - ph_t @ gain_t)
    return x_hat, p_hat


def silent_update(
    p_pred: np.ndarray, H: np.ndarray, R: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """No-transmission branch: joint state/measurement covariance blocks (P, Pxz, Pzz).

    With the measurement withheld, the state and the unseen measurement
    stay jointly Gaussian; the trigger contributes Y as extra information
    on the measurement block. The blocks are those of
    (Phi^{-1} + diag(0, Y))^{-1}, rearranged so that only the
    well-conditioned m-by-m matrix I + Y (H P H^T + R) is ever solved
    against (the direct forms would need Y^{-1}, which blows up for the
    small trigger weights used in practice). The estimate stays at the
    prediction.
    """
    m = Y.shape[0]
    ph_t = p_pred @ H.T
    c = symmetrize(H @ ph_t) + R
    gain_core = np.eye(m) + Y @ c
    try:
        p_xz = np.linalg.solve(gain_core.T, ph_t.T).T
        p_zz = symmetrize(np.linalg.solve(gain_core.T, c))
    except np.linalg.LinAlgError as exc:
        raise Singular("trigger-augmented innovation matrix is singular") from exc
    return symmetrize(p_pred - p_xz @ Y @ ph_t.T), p_xz, p_zz


def update_joint_no_meas(
    it: IterationState, x_pred: np.ndarray, H: np.ndarray, Y: np.ndarray
) -> None:
    """No-transmission branch with the working covariances (see silent_update)."""
    it.P, it.Pxz, it.Pzz = silent_update(it.p_tilde, H, it.r_tilde, Y)
    it.x = x_pred.copy()


def update_state_meas(
    it: IterationState, x_pred: np.ndarray, z: np.ndarray, H: np.ndarray
) -> None:
    """Transmission branch: standard gain update with the working covariances."""
    it.x, it.P = kalman_update(x_pred, it.p_tilde, z, H, it.r_tilde)
    it.Pxz = None
    it.Pzz = None


def update_predicted_cov(
    it: IterationState, x_pred: np.ndarray, cfg: FilterConfig, pred: Prediction
) -> None:
    """Refresh the inverse-Wishart posterior over the predicted covariance."""
    shift = it.x - x_pred
    a_mat = it.P + np.outer(shift, shift)
    it.g = float(it.chi @ cfg.dof_g) + 1.0
    it.G = symmetrize((it.chi[:, None, None] * pred.G_j).sum(axis=0) + a_mat)
    it.p_tilde = it.G / it.g


def update_meas_cov(
    it: IterationState,
    gamma: int,
    z: np.ndarray | None,
    H: np.ndarray,
    pred: Prediction,
) -> None:
    """Refresh the inverse-Wishart posterior over the measurement covariance."""
    if gamma == 1:
        residual = z - H @ it.x
        b_mat = np.outer(residual, residual) + H @ it.P @ H.T
    else:
        hp_xz = H @ it.Pxz
        b_mat = H @ it.P @ H.T - hp_xz.T - hp_xz + it.Pzz
    it.s = pred.s_prior + 1.0
    it.S = symmetrize(pred.S_prior + b_mat)
    it.r_tilde = it.S / it.s


def update_mixture(it: IterationState, pred: Prediction, cfg: FilterConfig) -> None:
    """Reweight the nominal covariance bank and refresh the Dirichlet posterior.

    Both inverse-Wishart moments of the posterior IW(g, G) come from one
    Cholesky factor of G.
    """
    g_factor = spd_factor(it.G)
    e_p_inv = iw_mean_of_inverse(it.g, g_factor)
    e_logdet_p = iw_expected_logdet(it.g, g_factor)
    # The -(n + 1) E{log|P|} / 2 of each IW log density is common to all
    # components and cancels in the normalisation, so it is left out.
    log_w = (
        pred.log_norm_j
        - 0.5 * np.sum(pred.G_j * e_p_inv, axis=(1, 2))
        - 0.5 * cfg.dof_g * e_logdet_p
    )
    log_w += dirichlet_expected_log(it.alpha)
    it.chi = normalize_log_weights(log_w)
    it.alpha = pred.alpha_prior + it.chi


def check_convergence(x_new: np.ndarray, x_old: np.ndarray, tol: float) -> bool:
    """Relative state change ||x_new - x_old|| / ||x_old|| within tol."""
    denom = float(np.linalg.norm(x_old))
    diff = float(np.linalg.norm(x_new - x_old))
    if denom == 0.0:
        return diff == 0.0
    return diff / denom <= tol


def etvbf_step(
    state: FilterState,
    F: np.ndarray,
    H: np.ndarray,
    outcome: TriggerOutcome,
    cfg: FilterConfig,
) -> tuple[FilterState, StepDiagnostics]:
    """One full filter step: prediction, fixed-point sweeps, posterior extraction."""
    pred = predict(state, F, cfg)
    it = init_iteration(pred, cfg)
    x_prev = it.x.copy()
    iterations = 0
    for _ in range(cfg.max_iterations):
        if outcome.gamma == 0:
            update_joint_no_meas(it, pred.x_pred, H, cfg.trigger.Y)
        else:
            update_state_meas(it, pred.x_pred, outcome.measurement, H)
        update_predicted_cov(it, pred.x_pred, cfg, pred)
        update_meas_cov(it, outcome.gamma, outcome.measurement, H, pred)
        update_mixture(it, pred, cfg)
        iterations += 1
        if check_convergence(it.x, x_prev, cfg.tol):
            break
        x_prev = it.x.copy()
    new_state = FilterState(x_hat=it.x, P=it.P, s=it.s, S=it.S, alpha=it.alpha)
    diagnostics = StepDiagnostics(
        iterations=iterations, p_tilde=it.p_tilde, r_tilde=it.r_tilde, chi=it.chi
    )
    return new_state, diagnostics
