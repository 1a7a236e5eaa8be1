"""Shared test utilities: random SPD matrices, dense reference formulas, field bytes, kf_step,
a step's innovation and the measurement scatter."""

import math
from types import SimpleNamespace

import numpy as np
import scipy.special

from etvbf.baselines import KfState, kf_predict
from etvbf.filter import innovation, measurement_update, update_meas_cov
from etvbf.numerics import Singular, SpdFactor, digamma, spd_factor


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix: A A^T + dim * I, scaled."""
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def field_bytes(*objs) -> list[dict]:
    """The bytes of every field of each dataclass, to check later that nothing wrote into them."""
    return [{k: np.asarray(v).tobytes() for k, v in vars(obj).items()} for obj in objs]


def kf_step(state, F, H, Q, R, Y, sent, e) -> KfState:
    """One Kalman step as the harness runs it: kf_predict, then measurement_update on (sent, e)."""
    pred = kf_predict(state, F, Q)
    return KfState(*measurement_update(pred.x_hat, pred.P, R, e, sent, H, Y)[:2])


def innovation_of(sent, z, z_pred) -> np.ndarray:
    """e = z - z_pred where sent and 0 where silent: filter.innovation on a stack, and
    etvbf_step's own form on one state, whose silent z may be None."""
    if np.ndim(sent) == 0:
        return z - z_pred if sent else np.zeros_like(z_pred)
    return innovation(sent, z - z_pred)


def scatter(r_tilde: np.ndarray, k: np.ndarray, k_e: np.ndarray) -> np.ndarray:
    """The measurement scatter B that update_meas_cov forms from measurement_update's core
    k and k e against r_tilde, read off as the S it gives over a zero S_prior."""
    it = SimpleNamespace(
        r_tilde=r_tilde, S_prior=np.zeros_like(r_tilde), s_prior=np.zeros(r_tilde.shape[:-2])
    )
    update_meas_cov(it, k, k_e)
    return it.S


def dense_theta(
    p_tilde: np.ndarray, r_tilde: np.ndarray, h: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Brute-force joint covariance: (Phi_tilde^{-1} + diag(0, Y))^{-1}."""
    n = p_tilde.shape[0]
    m = r_tilde.shape[0]
    p_inv = np.linalg.inv(p_tilde)
    r_inv = np.linalg.inv(r_tilde)
    phi_inv = np.block(
        [[p_inv + h.T @ r_inv @ h, -h.T @ r_inv], [-r_inv @ h, r_inv]]
    )
    penalty = np.zeros((n + m, n + m))
    penalty[n:, n:] = y
    return np.linalg.inv(phi_inv + penalty)


def dense_kalman_update(
    x_pred: np.ndarray, p_pred: np.ndarray, z: np.ndarray, h: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Textbook gain update with an explicit inverse: P - P H^T (H P H^T + R)^{-1} H P."""
    s_inv = np.linalg.inv(h @ p_pred @ h.T + r)
    gain = p_pred @ h.T @ s_inv
    return x_pred + gain @ (z - h @ x_pred), p_pred - gain @ h @ p_pred


def block_inverse(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Invert the block matrix [[A, B], [C, D]].

    Uses the Schur-complement block formula: with E = D - C A^{-1} B,

        [[A, B], [C, D]]^{-1} =
        [[A^{-1} + A^{-1} B E^{-1} C A^{-1}, -A^{-1} B E^{-1}],
         [-E^{-1} C A^{-1},                   E^{-1}]]

    Raises Singular when A or E cannot be inverted.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"top-left block is singular: {exc}") from exc
    schur = d - c @ a_inv @ b
    try:
        e_inv = np.linalg.inv(schur)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"Schur complement is singular: {exc}") from exc
    top_left = a_inv + a_inv @ b @ e_inv @ c @ a_inv
    top_right = -a_inv @ b @ e_inv
    bottom_left = -e_inv @ c @ a_inv
    return np.block([[top_left, top_right], [bottom_left, e_inv]])


def iw_log_pdf(dof: float, scale: np.ndarray, p: np.ndarray) -> float:
    """Log density of IW(dof, scale) at an SPD matrix p."""
    n, g = scale.shape[0], dof
    scale_factor = spd_factor(scale)
    p_factor = spd_factor(np.asarray(p, dtype=float))
    trace_term = float(np.trace(p_factor.solve(scale)))
    return (
        0.5 * g * scale_factor.log_det()
        - 0.5 * (g + n + 1) * p_factor.log_det()
        - 0.5 * trace_term
        - 0.5 * g * n * math.log(2.0)
        - scipy.special.multigammaln(0.5 * g, n)
    )


def multivariate_digamma(n: int, a: float) -> float:
    """Multivariate digamma psi_n(a) = sum_{i=1..n} psi(a + (1-i)/2)."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if not a > 0.5 * (n - 1):
        raise ValueError(f"multivariate digamma requires a > (n-1)/2, got a={a}, n={n}")
    return sum(digamma(a + 0.5 * (1 - i)) for i in range(1, n + 1))


def iw_mean_of_inverse(dof, scale: SpdFactor) -> np.ndarray:
    """E{P^{-1}} = g G^{-1} for P ~ IW(g, G), given the factor of G; one dof per matrix.

    The reference for the identity the mixture update uses: E{P^{-1}} = p_tilde^{-1}.
    """
    return np.asarray(dof)[..., None, None] * scale.inverse()


def iw_expected_logdet(dof: float, scale: SpdFactor) -> float:
    """E{log |P|} = log|G| - n log 2 - psi_n(g/2) for P ~ IW(g, G), given the factor of G."""
    n = scale.lower.shape[-1]
    return scale.log_det() - n * math.log(2.0) - multivariate_digamma(n, 0.5 * dof)


def dirichlet_expected_log(alpha: np.ndarray) -> np.ndarray:
    """E{log mu_j} = psi(alpha_j) - psi(sum alpha) for mu ~ Dir(alpha)."""
    return digamma(alpha) - digamma(alpha.sum())
