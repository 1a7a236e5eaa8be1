"""Adaptive variational filter with event-triggered measurement updates.

A filter step is predict, which builds its sweep-zero IterationState (the
priors, and iterates that start from them), then sweeps. Each sweep
refines the state, the predicted error covariance (as an inverse-Wishart
posterior over a bank of nominal process noise covariances, whose scales
are affine in F P F^T), the measurement noise covariance, and the mixture
weights. Every row takes one Gaussian conditioning, measurement_update,
which gives the state x, its covariance P and the measurement scatter
B = E{(z - Hx)(z - Hx)^T}. A row's trigger decision only picks that
update's m-by-m core: a transmission conditions on z, and silence adds
the trigger's information Y on the innovation, which was small enough to
stay below the stochastic trigger. A step's decisions come as the pair
(sent, e): which rows sent, and the innovation, formed once per step and
zero on a silent row, so no sweep reads an untransmitted measurement.
The Kalman baselines take it once, after their own baselines.kf_predict.

Every function but etvbf_step takes one filter state, or a stack of B of
them along a leading row axis (x_hat of shape (B, n), P of shape (B, n, n),
...), and one F or H, or one per row. etvbf_step is one state's whole step:
predict, then sweeps until the state stops. The harness steps its stacks
with predict and sweep in its own row loop, where rows leave and join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import normalize_log_weights
from .numerics import (
    NotPositiveDefinite,
    Singular,
    digamma,
    is_integer,
    is_real,
    require_spd,
    spd_factor,
    symmetrize,
)
from .trigger import TriggerConfig, TriggerOutcome

__all__ = [
    "FilterConfig",
    "FilterState",
    "IterationState",
    "initial_state",
    "predict",
    "measurement_update",
    "update_predicted_cov",
    "update_meas_cov",
    "update_mixture",
    "check_convergence",
    "sweep",
    "posterior",
    "etvbf_step",
]


@dataclass(frozen=True)
class FilterConfig:
    """Tuning parameters: nominal covariance bank, one prior for the bank, and loop control."""

    nominal_q: np.ndarray  # (M, n, n) nominal process noise covariances
    dof_g: float  # the inverse-Wishart dof of every component's predicted covariance
    r0: np.ndarray  # nominal measurement noise covariance
    s0: float  # initial measurement-noise dof
    alpha0: float  # the initial Dirichlet concentration of every component
    rho: float  # forgetting factor in (0, 1]
    trigger: TriggerConfig
    max_iterations: int = 50
    tol: float = 1e-6  # relative state-change threshold ending the sweep loop
    scaled_q: np.ndarray = field(init=False, repr=False)  # (M, n, n) dof-scaled bank dof_g Qbar_j

    def __post_init__(self):
        object.__setattr__(self, "nominal_q", require_spd(self.nominal_q, "nominal_q", ndim=3))
        object.__setattr__(self, "r0", require_spd(self.r0, "r0"))
        m_size, n = self.nominal_q.shape[:2]
        # Each scalar's one rule: a real number in (low, high], with no high bound but rho's.
        for name, low, high in (("dof_g", n - 1, None), ("alpha0", 0, None), ("s0", 0, None),
                                ("rho", 0, 1), ("tol", 0, None)):
            value = getattr(self, name)
            if not (is_real(value) and low < value and (high is None or value <= high)):
                rule = f"above {low}" if high is None else f"in ({low}, {high}]"
                raise ValueError(f"{name} must be one real number {rule}, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (is_integer(steps := self.max_iterations) and steps >= 1):
            raise ValueError(f"max_iterations must be an integer of at least 1, got {steps!r}")
        if self.r0.shape != self.trigger.Y.shape:
            raise ValueError("r0 must be shaped like the trigger's Y")
        with np.errstate(over="ignore"):  # finite settings can still have a product too large
            scaled_q = self.dof_g * self.nominal_q
            products = (("scaled bank dof_g * nominal_q", scaled_q),
                        ("initial scale s0 * r0", self.s0 * self.r0),
                        ("Dirichlet sum M * alpha0", m_size * self.alpha0))
        for name, product in products:
            if not np.isfinite(product).all():
                raise ValueError(f"the {name} overflows")
        object.__setattr__(self, "scaled_q", scaled_q)


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
    array, so only the harness's row loop writes, into the arrays of its
    latest sweep. A sweep derives the dofs s_prior + 1 and dof_g + 1.
    """

    x_pred: np.ndarray
    fpf: np.ndarray  # F P F^T: component j's IW scale is G_j = dof_g (fpf + Qbar_j)
    # dof_g log|fpf + Qbar_j| / 2: the part of component j's IW log normaliser,
    # dof_g log|G_j| / 2 - n dof_g log 2 / 2 - log Gamma_n(dof_g / 2), that is not
    # the same for every component (see update_mixture)
    log_norm_j: np.ndarray
    s_prior: np.ndarray
    S_prior: np.ndarray
    alpha_prior: np.ndarray
    x: np.ndarray
    P: np.ndarray
    S: np.ndarray
    chi: np.ndarray  # mixture weights over the nominal bank, summing to one
    alpha: np.ndarray
    p_tilde: np.ndarray  # the working predicted covariance: fpf + sum_j chi_j Qbar_j at sweep zero
    r_tilde: np.ndarray  # S / s, the working measurement covariance; s = s_prior + 1 once swept
    iterations: np.ndarray  # sweeps run: 0 from predict, one count per row of a stack


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
        alpha=np.full(rows + cfg.nominal_q.shape[:1], cfg.alpha0),
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
    forgotten; the bank starts weighted by the Dirichlet mean of its weights,
    so p_tilde starts at F P F^T + sum_j chi_j Qbar_j. Forgetting scales the
    dof, scale and concentrations by rho: s_prior = rho s, not the
    rho (s - m - 1) + m + 1 of Sarkka and Nummenmaa (IEEE TAC 2009).
    """
    fpf = symmetrize(F @ prev.P @ F.mT)
    log_norm_j = 0.5 * cfg.dof_g * spd_factor(fpf[..., None, :, :] + cfg.nominal_q).log_det()
    x_pred = np.matvec(F, prev.x_hat)
    s_prior, S_prior, alpha_prior = cfg.rho * prev.s, cfg.rho * prev.S, cfg.rho * prev.alpha
    chi0 = alpha_prior / alpha_prior.sum(axis=-1, keepdims=True)
    p0 = fpf + (chi0[..., None, None] * cfg.nominal_q).sum(axis=-3)
    return IterationState(
        x_pred=x_pred, fpf=fpf, log_norm_j=log_norm_j,
        s_prior=s_prior, S_prior=S_prior, alpha_prior=alpha_prior,
        x=x_pred, P=p0, S=S_prior, chi=chi0, alpha=alpha_prior,
        p_tilde=p0, r_tilde=S_prior / _per_matrix(s_prior),
        iterations=np.zeros(chi0.shape[:-1], dtype=int),
    )


def innovation(sent, z, z_pred) -> np.ndarray:
    """A step's innovation e: z - z_pred on sent rows, and 0 on silent ones.

    A silent row's z (None for a silent single state) enters no arithmetic.
    """
    if np.ndim(sent) == 0:
        return z - z_pred if sent else np.zeros_like(z_pred)
    return np.where(sent[:, None], z, z_pred) - z_pred


def measurement_update(
    x_pred: np.ndarray, p_pred: np.ndarray, R: np.ndarray, e: np.ndarray, sent, H: np.ndarray,
    Y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition (x_pred, p_pred) on the step's measurement; (x, P, B) for every row.

    With ph = p_pred H^T and C = H ph + R, one stacked solve gives each
    row's m-by-m core K: C^{-1} on a sent row, conditioning on z ~ N(Hx, R);
    on a silent row (Y^{-1} + C)^{-1}, solved as (I + Y C)^{-1} Y so that
    Y^{-1} is never formed (I + Y C is nonsingular for SPD C, and Y = 0
    gives K = 0). e is the innovation, 0 on silent rows, so the estimate
    stays at the prediction there. Then x = x_pred + ph K e,
    P = p_pred - ph K ph^T, and, with r = R K e, the scatter
    B = r r^T + R - R K R: r r^T + H P H^T on a sent row, and the joint
    posterior's Theta_zz - H Theta_xz - Theta_zx H^T + H Theta_xx H^T on a
    silent one. Raises Singular when a core system cannot be solved.
    """
    ph = p_pred @ H.mT
    c = symmetrize(H @ ph) + R
    eye, per_row = np.eye(c.shape[-1]), np.asarray(sent)[..., None, None]
    try:
        k = np.linalg.solve(np.where(per_row, c, eye + Y @ c), np.where(per_row, eye, Y))
    except np.linalg.LinAlgError as exc:
        raise Singular("innovation core matrix is singular") from exc
    k_e = np.matvec(k, e)
    r = np.matvec(R, k_e)
    x = x_pred + np.matvec(ph, k_e)
    P = symmetrize(p_pred - ph @ k @ ph.mT)
    return x, P, r[..., :, None] * r[..., None, :] + symmetrize(R - R @ k @ R)


def update_predicted_cov(it: IterationState, cfg: FilterConfig) -> None:
    """Refresh the predicted covariance's IW(dof_g + 1, sum_j chi_j G_j + A) as p_tilde."""
    shift = it.x - it.x_pred
    a_mat = it.P + shift[..., :, None] * shift[..., None, :]
    # sum_j chi_j G_j = dof_g fpf + sum_j chi_j dof_g Qbar_j, one row at a time:
    # a 2-D @ over the rows would make a row's bits depend on its stack.
    mixed_q = np.vecmat(it.chi, cfg.scaled_q.reshape(it.chi.shape[-1], -1)).reshape(a_mat.shape)
    it.p_tilde = symmetrize(cfg.dof_g * it.fpf + mixed_q + a_mat) / (cfg.dof_g + 1.0)


def update_meas_cov(it: IterationState, B: np.ndarray) -> None:
    """Refresh the inverse-Wishart posterior IW(s_prior + 1, S) over the measurement covariance."""
    it.S = symmetrize(it.S_prior + B)
    it.r_tilde = it.S / _per_matrix(it.s_prior + 1.0)


def update_mixture(it: IterationState, cfg: FilterConfig) -> None:
    """Reweight the nominal covariance bank and refresh the Dirichlet posterior.

    With d = dof_g, log w_j is E{log IW(P; d, G_j)} + E{log mu_j} under the
    posteriors P ~ IW(d + 1, (d + 1) p_tilde) and mu ~ Dir(alpha), where
    G_j = d (fpf + Qbar_j). The expected IW log density is
    d log|G_j|/2 - tr(G_j E{P^{-1}})/2 - (d + n + 1) E{log|P|}/2
    - n d log 2/2 - log Gamma_n(d/2), with E{P^{-1}} = p_tilde^{-1} and
    tr(G_j E{P^{-1}}) = d <fpf, p_tilde^{-1}> + <d Qbar_j, p_tilde^{-1}>.
    One d for the whole bank makes every term but log_norm_j and
    <d Qbar_j, p_tilde^{-1}> the same for every component, n d log d / 2 of
    d log|G_j| / 2 included, and so is psi(sum alpha) of E{log mu_j}, so they
    cancel when the weights are normalised:
    log w_j = log_norm_j - <d Qbar_j, p_tilde^{-1}>/2 + psi(alpha_j).
    A p_tilde that overflowed (a huge dof_g can make it) or is not numerically
    SPD (a sample_time of 1e102 can make it), or an alpha that underflowed (a
    tiny rho can make it) is a breakdown: NotPositiveDefinite.
    """
    if not np.isfinite(it.p_tilde).all():
        raise NotPositiveDefinite("p_tilde: matrix contains non-finite entries")
    try:
        np.linalg.cholesky(it.p_tilde)  # the SPD check alone; inv does not use the factor
        p_inv = np.linalg.inv(it.p_tilde)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"p_tilde: {exc}") from exc
    try:
        psi = digamma(it.alpha)
    except ValueError as exc:  # a concentration rho^k decays while its chi_j is 0 underflows
        raise NotPositiveDefinite(f"alpha: {exc}") from exc
    p_inv = p_inv.reshape(it.chi.shape[:-1] + (-1,))
    log_w = (
        it.log_norm_j - 0.5 * np.matvec(cfg.scaled_q.reshape(psi.shape[-1], -1), p_inv) + psi
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


def sweep(it: IterationState, sent, e, H: np.ndarray, cfg: FilterConfig):
    """One fixed-point sweep on every row of it; returns which rows stop after it.

    Row i takes measurement_update with the core of its outcome sent[i],
    its innovation e[i] (see innovation) and H[i]. A row stops when its
    state changed by at most tol, or at its max_iterations-th sweep.
    """
    x_prev = it.x
    it.x, it.P, B = measurement_update(
        it.x_pred, it.p_tilde, it.r_tilde, e, sent, H, cfg.trigger.Y
    )
    update_meas_cov(it, B)
    update_predicted_cov(it, cfg)
    update_mixture(it, cfg)
    it.iterations = it.iterations + 1
    return check_convergence(it.x, x_prev, cfg.tol) | (it.iterations == cfg.max_iterations)


def posterior(it: IterationState) -> FilterState:
    """The state a step carries forward: its latest sweep's iterates, and dof s_prior + 1."""
    return FilterState(it.x, it.P, it.s_prior + 1.0, it.S, it.alpha)


def etvbf_step(
    state: FilterState,
    F: np.ndarray,
    H: np.ndarray,
    outcome: TriggerOutcome,
    cfg: FilterConfig,
) -> tuple[FilterState, IterationState]:
    """One full filter step of a single state: prediction, then sweeps until it stops.

    Returns the posterior and the step's IterationState, whose priors and
    last sweep's iterates (iterations, p_tilde, r_tilde, chi, ...) the
    posterior shares. A stacked state raises ValueError: run_trials, or
    predict and sweep, step stacks.
    """
    if state.x_hat.ndim != 1:
        raise ValueError(
            f"etvbf_step steps a single state, not a stack of {state.x_hat.shape[:-1]}; "
            "step stacks with run_trials, or with predict and sweep"
        )
    sent = outcome.gamma == 1
    it = predict(state, F, cfg)
    e = innovation(sent, outcome.measurement, np.matvec(H, it.x_pred))
    while not sweep(it, sent, e, H, cfg):
        pass
    return posterior(it), it
