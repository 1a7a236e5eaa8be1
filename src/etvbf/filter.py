"""Adaptive variational filter with event-triggered measurement updates.

One filter step runs a fixed-point sweep loop on one IterationState.
predict builds it at sweep zero: the step's priors, and iterates that
start from them. Each sweep refines the state, the predicted error
covariance (as an inverse-Wishart posterior over a bank of nominal process
noise covariances), the measurement noise covariance, and the mixture
weights. The trigger outcome decides one thing per sweep: the branch
update gives the state x, its covariance P and the measurement scatter
B = E{(z - Hx)(z - Hx)^T}, and every later update is branch-free. The
no-measurement branch still extracts information from the fact that the
innovation was small enough to stay below the stochastic trigger. by_branch
is the one place that splits rows by trigger outcome, here and in the
known-covariance Kalman baselines, which reuse kalman_update and
silent_update, plain functions of a predicted covariance.

Every function takes one filter state, or a stack of B of them along a
leading trial axis (x_hat of shape (B, n), P of shape (B, n, n), s of
shape (B,), and so on). etvbf_step runs one sweep loop for both: a single
state goes through it as it is, not as a stack of one. A stack is stepped
in lockstep: rows that converge leave the sweep loop and are written into
the step's results, and rows with different trigger outcomes share every
update except the branch update.
"""

from __future__ import annotations

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
    "IterationState",
    "StepDiagnostics",
    "initial_state",
    "kalman_update",
    "silent_update",
    "predict",
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


@dataclass
class IterationState:
    """One step's variational posterior: the step's priors, then the iterates.

    predict builds it at sweep zero. No sweep rebinds the priors (x_pred to
    alpha_prior); the updates rebind the iterates and never write into any
    array, so an array of one sweep is never changed by a later one.
    """

    x_pred: np.ndarray
    G_j: np.ndarray  # (..., M, n, n) IW scales g_j (F P F^T + Qbar_j)
    log_norm_j: np.ndarray  # g_j log|G_j|/2 - n g_j log2/2 - log Gamma_n(g_j/2)
    s_prior: np.ndarray
    S_prior: np.ndarray
    alpha_prior: np.ndarray
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
    return type(stack)(**{k: v[rows] for k, v in vars(stack).items()})


def _per_matrix(v) -> np.ndarray:
    """A per-row scalar (or a plain scalar) shaped to scale a stack of matrices."""
    return np.asarray(v)[..., None, None]


def predict(prev: FilterState, F: np.ndarray, cfg: FilterConfig) -> IterationState:
    """Sweep zero of a step: the step's priors, and iterates that start from them.

    The state is propagated, the covariance bank built and old dofs
    forgotten; the bank starts weighted by the Dirichlet mean of its weights.
    """
    n = F.shape[0]
    fpf = symmetrize(F @ prev.P @ F.T)
    g_j = cfg.dof_g[:, None, None] * (fpf[..., None, :, :] + cfg.nominal_q)
    log_gamma_j = np.array([log_multivariate_gamma(n, 0.5 * g) for g in cfg.dof_g])
    log_det_j = spd_factor(g_j).log_det()
    log_norm_j = 0.5 * cfg.dof_g * log_det_j - 0.5 * n * cfg.dof_g * math.log(2.0) - log_gamma_j
    x_pred = np.matvec(F, prev.x_hat)
    s_prior, S_prior, alpha_prior = cfg.rho * prev.s, cfg.rho * prev.S, cfg.rho * prev.alpha
    chi0 = alpha_prior / alpha_prior.sum(axis=-1, keepdims=True)
    g0 = np.vecdot(chi0, cfg.dof_g)
    big_g0 = (chi0[..., None, None] * g_j).sum(axis=-3)
    p0 = big_g0 / _per_matrix(g0)
    return IterationState(
        x_pred=x_pred, G_j=g_j, log_norm_j=log_norm_j,
        s_prior=s_prior, S_prior=S_prior, alpha_prior=alpha_prior,
        x=x_pred, P=p0, g=g0, G=big_g0, s=s_prior, S=S_prior, chi=chi0, alpha=alpha_prior,
        p_tilde=p0, r_tilde=S_prior / _per_matrix(s_prior),
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
    m, n = H.shape
    ph_t = p_pred @ H.T
    c = symmetrize(H @ ph_t) + R
    gain_core = np.eye(m) + Y @ c
    try:
        solved = np.linalg.solve(gain_core.mT, np.concatenate([ph_t.mT, c], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise Singular("trigger-augmented innovation matrix is singular") from exc
    p_xz, p_zz = solved[..., :n].mT, symmetrize(solved[..., n:])
    return symmetrize(p_pred - p_xz @ Y @ ph_t.mT), p_xz, p_zz


def sent_rows(outcome: TriggerOutcome, state) -> np.ndarray:
    """Which rows of a state transmit; raises ValueError unless gamma has one entry per row."""
    gamma, rows = np.asarray(outcome.gamma), state.x_hat.shape[:-1]
    if gamma.shape != rows:
        raise ValueError(f"outcome gamma {gamma.shape} and state rows {rows} differ")
    return gamma == 1


def by_branch(sent, transmit, silent):
    """Each row's results from its own trigger branch: transmit where sent, silent elsewhere.

    transmit and silent map a row selector to a tuple of arrays with one
    leading entry per selected row. When every row takes one branch, that
    branch runs once on all of them, selected by ... with no gather, so a
    single state stays unstacked; a mixed stack runs each branch on its
    rows and scatters the results back by mask.
    """
    if sent.all():
        return transmit(...)
    if not sent.any():
        return silent(...)
    unsent, merged = ~sent, []
    for sent_part, silent_part in zip(transmit(sent), silent(unsent)):
        out = np.empty(sent.shape + sent_part.shape[1:], dtype=sent_part.dtype)
        out[sent], out[unsent] = sent_part, silent_part
        merged.append(out)
    return tuple(merged)


def update_joint_no_meas(
    x_pred: np.ndarray, p_tilde: np.ndarray, r_tilde: np.ndarray, H: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """No-transmission branch with the working covariances: (x, P, B), see silent_update."""
    P, p_xz, p_zz = silent_update(p_tilde, H, r_tilde, Y)
    hp_xz = H @ p_xz
    return x_pred.copy(), P, H @ P @ H.T - hp_xz.mT - hp_xz + p_zz


def update_state_meas(
    x_pred: np.ndarray, p_tilde: np.ndarray, r_tilde: np.ndarray, z: np.ndarray, H: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmission branch: (x, P, B) of the standard gain update with the working covariances."""
    x, P = kalman_update(x_pred, p_tilde, z, H, r_tilde)
    residual = z - np.matvec(H, x)
    return x, P, residual[..., :, None] * residual[..., None, :] + H @ P @ H.T


def update_predicted_cov(it: IterationState, cfg: FilterConfig) -> None:
    """Refresh the inverse-Wishart posterior over the predicted covariance."""
    shift = it.x - it.x_pred
    a_mat = it.P + shift[..., :, None] * shift[..., None, :]
    it.g = np.vecdot(it.chi, cfg.dof_g) + 1.0
    it.G = symmetrize((it.chi[..., None, None] * it.G_j).sum(axis=-3) + a_mat)
    it.p_tilde = it.G / _per_matrix(it.g)


def update_meas_cov(it: IterationState, B: np.ndarray) -> None:
    """Refresh the inverse-Wishart posterior over the measurement covariance from scatter B."""
    it.s = it.s_prior + 1.0
    it.S = symmetrize(it.S_prior + B)
    it.r_tilde = it.S / _per_matrix(it.s)


def update_mixture(it: IterationState, cfg: FilterConfig) -> None:
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
        it.log_norm_j
        - 0.5 * np.sum(it.G_j * e_p_inv[..., None, :, :], axis=(-2, -1))
        - 0.5 * cfg.dof_g * e_logdet_p[..., None]
        + (psi[..., :m_size] - psi[..., m_size, None])
    )
    it.chi = normalize_log_weights(log_w)
    it.alpha = it.alpha_prior + it.chi


def check_convergence(x_new: np.ndarray, x_old: np.ndarray, tol: float):
    """Relative state change ||x_new - x_old|| / ||x_old|| within tol, per row of a stack.

    Written as ||x_new - x_old|| <= tol ||x_old||, so that x_old = 0 passes
    only for an unchanged state.
    """
    step = x_new - x_old
    return np.sqrt(np.vecdot(step, step)) <= tol * np.sqrt(np.vecdot(x_old, x_old))


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
    sent, z = sent_rows(outcome, state), outcome.measurement
    it = predict(state, F, cfg)
    # The updates rebind the fields of it and never write into their arrays.
    # So the arrays of the sweep where the first rows stop hold those rows'
    # results at their input rows; they become the step's results, and rows
    # that sweep on in the compacted stack are written into them as they stop.
    final, rows = it, np.arange(sent.size)  # rows: the input row of each row still sweeping
    x_prev = it.x
    for sweep in range(1, cfg.max_iterations + 1):
        it.x, it.P, B = by_branch(
            sent,
            lambda r: update_state_meas(it.x_pred[r], it.p_tilde[r], it.r_tilde[r], z[r], H),
            lambda r: update_joint_no_meas(
                it.x_pred[r], it.p_tilde[r], it.r_tilde[r], H, cfg.trigger.Y
            ),
        )
        update_meas_cov(it, B)
        update_predicted_cov(it, cfg)
        update_mixture(it, cfg)
        done = check_convergence(it.x, x_prev, cfg.tol) | (sweep == cfg.max_iterations)
        stopped = np.count_nonzero(done)  # a single state's 0-d flag stops all rows or none
        if stopped:
            if it is final:  # the first rows to stop; a numpy integer for a single state
                iterations = sweep + np.zeros(sent.shape, dtype=int)
            else:
                for f in _RESULT_FIELDS:
                    getattr(final, f)[rows[done]] = getattr(it, f)[done]
                iterations[rows[done]] = sweep
            if stopped == done.size:
                break
            keep = ~done
            rows, sent, z = rows[keep], sent[keep], z[keep]
            it = take_rows(it, keep)
        x_prev = it.x
    new_state = FilterState(final.x, final.P, final.s, final.S, final.alpha)
    return new_state, StepDiagnostics(iterations, final.p_tilde, final.r_tilde, final.chi)
