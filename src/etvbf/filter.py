"""Adaptive variational filter with event-triggered measurement updates.

One filter step runs a prediction, then a fixed-point sweep loop that
alternately refines the state, the predicted error covariance (as an
inverse-Wishart posterior over a bank of nominal process noise
covariances), the measurement noise covariance, and the mixture weights.
The trigger outcome decides one thing per sweep: the branch update leaves
the state x, its covariance P and the measurement scatter
B = E{(z - Hx)(z - Hx)^T}, and every later update is branch-free. The
no-measurement branch still extracts information from the fact that the
innovation was small enough to stay below the stochastic trigger. The two
branch updates, kalman_update and silent_update, are plain functions of a
predicted covariance that the known-covariance Kalman baselines reuse.

Every function takes one filter state, or a stack of B of them along a
leading trial axis (x_hat of shape (B, n), P of shape (B, n, n), s of
shape (B,), and so on). etvbf_step runs one sweep loop for both: a single
state goes through it as it is, not as a stack of one. A stack is stepped
in lockstep: rows that converge leave the sweep loop, and rows with
different trigger outcomes share every update except the branch update.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import iw_mean_of_inverse, normalize_log_weights
from .numerics import (
    Singular,
    digamma,
    log_multivariate_gamma,
    require_spd,
    spd_factor,
    symmetrize,
)
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
        if self.dof_g.shape != (m_size,) or not np.all(self.dof_g > n - 1):
            raise ValueError("dof_g must hold one dof above n - 1 per nominal covariance")
        if self.r0.shape != self.trigger.Y.shape:
            raise ValueError("r0 must be shaped like the trigger's Y")
        if not self.s0 > 0.0:
            raise ValueError("s0 must be positive")
        if self.alpha0.shape != (m_size,) or not np.all(self.alpha0 > 0):
            raise ValueError("alpha0 must hold one positive value per nominal covariance")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer of at least 1")


@dataclass(frozen=True)
class FilterState:
    """Recursive state carried between steps."""

    x_hat: np.ndarray
    P: np.ndarray
    s: np.ndarray  # the dof: () for a single state, (B,) for a stack
    S: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class Prediction:
    """Per-step priors: predicted state, covariance bank, forgotten dofs."""

    x_pred: np.ndarray
    G_j: np.ndarray  # (..., M, n, n) IW scales g_j (F P F^T + Qbar_j)
    log_norm_j: np.ndarray  # g_j log|G_j|/2 - n g_j log2/2 - log Gamma_n(g_j/2)
    s_prior: np.ndarray
    S_prior: np.ndarray
    alpha_prior: np.ndarray


@dataclass
class IterationState:
    """Mutable quantities refined by the fixed-point sweeps within one step."""

    x: np.ndarray
    P: np.ndarray
    g: np.ndarray
    G: np.ndarray
    s: np.ndarray
    S: np.ndarray
    chi: np.ndarray  # mixture weights over the nominal bank, summing to one
    alpha: np.ndarray
    p_tilde: np.ndarray  # G / g, the working predicted covariance
    r_tilde: np.ndarray  # S / s, the working measurement covariance
    B: np.ndarray | None = None  # scatter E{(z - Hx)(z - Hx)^T}, set by the branch update


@dataclass(frozen=True)
class StepDiagnostics:
    """Read-only per-step extras for the experiment harness."""

    iterations: np.integer | np.ndarray  # sweeps: a numpy integer, or one per row of a stack
    p_tilde: np.ndarray
    r_tilde: np.ndarray
    chi: np.ndarray


def initial_state(x0_hat: np.ndarray, p0: np.ndarray, cfg: FilterConfig) -> FilterState:
    """Filter state before the first step: S starts at s0 * R0.

    A stack of B initial estimates x0_hat of shape (B, n) gives a stack of
    B states that share p0. Raises ValueError when x0_hat or p0 does not
    match the dimension n of the nominal covariance bank, or when p0 is not
    a finite symmetric positive definite matrix.
    """
    x0_hat = np.asarray(x0_hat, dtype=float)
    n = cfg.nominal_q.shape[-1]
    if x0_hat.ndim < 1 or x0_hat.shape[-1] != n or np.shape(p0) != (n, n):
        raise ValueError(
            f"x0_hat {x0_hat.shape} and p0 {np.shape(p0)} must match the nominal_q dimension {n}"
        )
    p0 = require_spd(p0, "p0")
    rows = x0_hat.shape[:-1]
    return FilterState(
        x_hat=x0_hat,
        P=np.broadcast_to(p0, rows + p0.shape).copy(),
        s=np.full(rows, cfg.s0),
        S=np.broadcast_to(cfg.s0 * cfg.r0, rows + cfg.r0.shape).copy(),
        alpha=np.broadcast_to(cfg.alpha0, rows + cfg.alpha0.shape).copy(),
    )


def take_rows(stack, rows):
    """The same dataclass holding the given rows of every array field of a stack."""
    return dataclasses.replace(
        stack,
        **{
            f.name: value[rows]
            for f in dataclasses.fields(stack)
            if (value := getattr(stack, f.name)) is not None
        },
    )


def _per_matrix(v) -> np.ndarray:
    """A per-row scalar (or a plain scalar) shaped to scale a stack of matrices."""
    return np.asarray(v)[..., None, None]


def predict(prev: FilterState, F: np.ndarray, cfg: FilterConfig) -> Prediction:
    """Propagate the state, build the covariance bank, and forget old dofs."""
    n = F.shape[0]
    fpf = symmetrize(F @ prev.P @ F.T)
    g_j = cfg.dof_g[:, None, None] * (fpf[..., None, :, :] + cfg.nominal_q)
    log_gamma_j = np.array([log_multivariate_gamma(n, 0.5 * g) for g in cfg.dof_g])
    return Prediction(
        x_pred=np.matvec(F, prev.x_hat),
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
    chi0 = pred.alpha_prior / pred.alpha_prior.sum(axis=-1, keepdims=True)
    g0 = np.vecdot(chi0, cfg.dof_g)
    big_g0 = (chi0[..., None, None] * pred.G_j).sum(axis=-3)
    p0 = big_g0 / _per_matrix(g0)
    return IterationState(
        x=pred.x_pred.copy(),
        P=p0,
        g=g0,
        G=big_g0,
        s=pred.s_prior,
        S=pred.S_prior.copy(),
        chi=chi0,
        alpha=pred.alpha_prior.copy(),
        p_tilde=p0,
        r_tilde=pred.S_prior / _per_matrix(pred.s_prior),
    )


def kalman_update(
    x_pred: np.ndarray, p_pred: np.ndarray, z: np.ndarray, H: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transmission branch: standard gain update of (x_pred, p_pred) with z ~ N(Hx, R)."""
    ph_t = p_pred @ H.T
    gain_t = spd_factor(symmetrize(H @ ph_t) + R).solve(ph_t.mT)
    x_hat = x_pred + np.matvec(gain_t.mT, z - np.matvec(H, x_pred))
    p_hat = symmetrize(p_pred - ph_t @ gain_t)
    return x_hat, p_hat


def silent_update(
    p_pred: np.ndarray, H: np.ndarray, R: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """No-transmission branch: the state, cross and measurement covariance blocks.

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
        p_xz = np.linalg.solve(gain_core.mT, ph_t.mT).mT
        p_zz = symmetrize(np.linalg.solve(gain_core.mT, c))
    except np.linalg.LinAlgError as exc:
        raise Singular("trigger-augmented innovation matrix is singular") from exc
    return symmetrize(p_pred - p_xz @ Y @ ph_t.mT), p_xz, p_zz


def update_joint_no_meas(
    it: IterationState, x_pred: np.ndarray, H: np.ndarray, Y: np.ndarray
) -> None:
    """No-transmission branch with the working covariances (see silent_update)."""
    it.P, p_xz, p_zz = silent_update(it.p_tilde, H, it.r_tilde, Y)
    it.x = x_pred.copy()
    hp_xz = H @ p_xz
    it.B = H @ it.P @ H.T - hp_xz.mT - hp_xz + p_zz


def update_state_meas(
    it: IterationState, x_pred: np.ndarray, z: np.ndarray, H: np.ndarray
) -> None:
    """Transmission branch: standard gain update with the working covariances."""
    it.x, it.P = kalman_update(x_pred, it.p_tilde, z, H, it.r_tilde)
    residual = z - np.matvec(H, it.x)
    it.B = residual[..., :, None] * residual[..., None, :] + H @ it.P @ H.T


def update_predicted_cov(it: IterationState, pred: Prediction, cfg: FilterConfig) -> None:
    """Refresh the inverse-Wishart posterior over the predicted covariance."""
    shift = it.x - pred.x_pred
    a_mat = it.P + shift[..., :, None] * shift[..., None, :]
    it.g = np.vecdot(it.chi, cfg.dof_g) + 1.0
    it.G = symmetrize((it.chi[..., None, None] * pred.G_j).sum(axis=-3) + a_mat)
    it.p_tilde = it.G / _per_matrix(it.g)


def update_meas_cov(it: IterationState, pred: Prediction) -> None:
    """Refresh the inverse-Wishart posterior over the measurement covariance from it.B."""
    it.s = pred.s_prior + 1.0
    it.S = symmetrize(pred.S_prior + it.B)
    it.r_tilde = it.S / _per_matrix(it.s)


def update_mixture(it: IterationState, pred: Prediction, cfg: FilterConfig) -> None:
    """Reweight the nominal covariance bank and refresh the Dirichlet posterior.

    Both inverse-Wishart moments of the posterior IW(g, G) come from one
    Cholesky factor of G, and one digamma call serves
    E{log|P|} = log|G| - n log 2 - sum_i psi((g + 1 - i)/2) and
    E{log mu_j} = psi(alpha_j) - psi(sum alpha).
    """
    g_factor = spd_factor(it.G)
    n, m_size = it.G.shape[-1], it.alpha.shape[-1]
    e_p_inv = iw_mean_of_inverse(it.g, g_factor)
    half_dofs = 0.5 * np.asarray(it.g)[..., None] + np.arange(0.0, -0.5 * n, -0.5)
    psi = digamma(
        np.concatenate([it.alpha, it.alpha.sum(axis=-1, keepdims=True), half_dofs], axis=-1)
    )
    e_logdet_p = g_factor.log_det() - n * math.log(2.0) - psi[..., m_size + 1 :].sum(axis=-1)
    # The -(n + 1) E{log|P|} / 2 of each IW log density is common to all
    # components and cancels in the normalisation, so it is left out.
    log_w = (
        pred.log_norm_j
        - 0.5 * np.sum(pred.G_j * e_p_inv[..., None, :, :], axis=(-2, -1))
        - 0.5 * cfg.dof_g * e_logdet_p[..., None]
        + (psi[..., :m_size] - psi[..., m_size, None])
    )
    it.chi = normalize_log_weights(log_w)
    it.alpha = pred.alpha_prior + it.chi


def check_convergence(x_new: np.ndarray, x_old: np.ndarray, tol: float):
    """Relative state change ||x_new - x_old|| / ||x_old|| within tol, per row of a stack.

    Written as ||x_new - x_old|| <= tol ||x_old||, so that x_old = 0 passes
    only for an unchanged state.
    """
    step = x_new - x_old
    return np.sqrt(np.vecdot(step, step)) <= tol * np.sqrt(np.vecdot(x_old, x_old))


def _merge(parts, size: int) -> np.ndarray:
    """One array of size rows holding the values of each (rows, values) pair at its rows."""
    first = parts[0][1]
    merged = np.empty((size,) + first.shape[1:], dtype=first.dtype)
    for rows, values in parts:
        merged[rows] = values
    return merged


# Fields of IterationState that the branch update sets.
_BRANCH_FIELDS = ("x", "P", "B")


def _branch_sweep(
    it: IterationState, sent, x_pred: np.ndarray, z, H: np.ndarray, cfg: FilterConfig
) -> None:
    """The trigger-dependent half of a sweep: x, P and B of each row from its own branch."""
    if sent.all():
        update_state_meas(it, x_pred, z, H)
    elif not sent.any():
        update_joint_no_meas(it, x_pred, H, cfg.trigger.Y)
    else:
        silent = ~sent
        sent_it, silent_it = take_rows(it, sent), take_rows(it, silent)
        update_state_meas(sent_it, x_pred[sent], z[sent], H)
        update_joint_no_meas(silent_it, x_pred[silent], H, cfg.trigger.Y)
        for field in _BRANCH_FIELDS:
            parts = [(sent, getattr(sent_it, field)), (silent, getattr(silent_it, field))]
            setattr(it, field, _merge(parts, sent.size))


# Fields of IterationState that a row's last sweep leaves as the step's results.
_RESULT_FIELDS = ("x", "P", "s", "S", "alpha", "p_tilde", "r_tilde", "chi")


def etvbf_step(
    state: FilterState,
    F: np.ndarray,
    H: np.ndarray,
    outcome: TriggerOutcome,
    cfg: FilterConfig,
) -> tuple[FilterState, StepDiagnostics]:
    """One full filter step: prediction, fixed-point sweeps, posterior extraction.

    A single state and a stack, which takes an outcome with one gamma per
    row, run the same sweep loop. Each row sweeps until it converges and
    then leaves the loop, so its result is exactly what stepping it alone
    would give. A gamma not shaped like the state's rows raises ValueError.
    """
    gamma, z = np.asarray(outcome.gamma), outcome.measurement
    if gamma.shape != np.shape(state.s):
        raise ValueError(f"outcome gamma {gamma.shape} and state rows {np.shape(state.s)} differ")
    sent = gamma == 1
    pred = predict(state, F, cfg)
    it = init_iteration(pred, cfg)
    rows = None  # the input row of each row still sweeping, once rows leave
    left = []  # (input rows, sweeps, result fields) of the rows that left the loop
    x_prev = it.x  # the updates rebind it.x and never write into it
    for sweep in range(1, cfg.max_iterations + 1):
        _branch_sweep(it, sent, pred.x_pred, z, H, cfg)
        update_meas_cov(it, pred)
        update_predicted_cov(it, pred, cfg)
        update_mixture(it, pred, cfg)
        done = check_convergence(it.x, x_prev, cfg.tol) | (sweep == cfg.max_iterations)
        stopped = np.count_nonzero(done)  # a single state's 0-d flag stops all rows or none
        if stopped == done.size:
            break
        if stopped:
            if rows is None:
                rows = np.arange(done.size)
            left.append((rows[done], sweep, {f: getattr(it, f)[done] for f in _RESULT_FIELDS}))
            keep = ~done
            rows, sent, z = rows[keep], sent[keep], z[keep]
            it, pred = take_rows(it, keep), take_rows(pred, keep)
        x_prev = it.x
    final = {f: getattr(it, f) for f in _RESULT_FIELDS}
    if rows is None:
        iterations = sweep + np.zeros(gamma.shape, dtype=int)  # a numpy integer for a single state
    else:  # rows left early: put each back at its input row
        left.append((rows, sweep, final))
        iterations = _merge([(r, np.full(r.size, s)) for r, s, _ in left], gamma.size)
        final = {f: _merge([(r, p[f]) for r, _, p in left], gamma.size) for f in _RESULT_FIELDS}
    new_state = FilterState(final["x"], final["P"], final["s"], final["S"], final["alpha"])
    diagnostics = StepDiagnostics(iterations, final["p_tilde"], final["r_tilde"], final["chi"])
    return new_state, diagnostics
