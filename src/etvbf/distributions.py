"""Moment formulas of the conjugate priors, on plain arrays, and seeded sampling.

The variational updates need E{P^{-1}} and E{log|P|} of an inverse-Wishart
posterior, given its dof and one Cholesky factor of its scale, and
E{log mu_j} of a Dirichlet concentration vector. Sampling is limited to
what the simulation needs: Gaussian noise and, through SeededRng.uniform,
the trigger draws.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import SpdFactor, digamma, multivariate_digamma, spd_factor

__all__ = [
    "SeededRng",
    "iw_mean_of_inverse",
    "iw_expected_logdet",
    "dirichlet_expected_log",
    "normalize_log_weights",
    "sample_gaussian",
]


class SeededRng:
    """Deterministic random stream keyed by an integer or tuple of integers.

    Identical keys produce identical streams across runs and platforms.
    An instance is single-owner mutable state: one per trial, never shared.
    """

    def __init__(self, seed):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def uniform(self) -> float:
        """Uniform draw over [0, 1)."""
        return float(self._gen.random())

    def standard_normal(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)


def iw_mean_of_inverse(dof: float, scale: SpdFactor) -> np.ndarray:
    """E{P^{-1}} = g G^{-1} for P ~ IW(g, G), given the factor of G."""
    return dof * scale.inverse()


def iw_expected_logdet(dof: float, scale: SpdFactor) -> float:
    """E{log |P|} = log|G| - n log 2 - psi_n(g/2) for P ~ IW(g, G), given the factor of G."""
    n = scale.dim
    return scale.log_det() - n * math.log(2.0) - multivariate_digamma(n, 0.5 * dof)


def dirichlet_expected_log(alpha: np.ndarray) -> np.ndarray:
    """E{log mu_j} = psi(alpha_j) - psi(sum alpha) for mu ~ Dir(alpha)."""
    psi_total = digamma(float(alpha.sum()))
    return np.array([digamma(a) - psi_total for a in alpha])


def normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """Softmax of a log-weight vector, shift-invariant and overflow-safe."""
    log_w = np.atleast_1d(np.asarray(log_w, dtype=float))
    if log_w.size == 0:
        raise ValueError("log weights must be nonempty")
    top = float(log_w.max())
    if not math.isfinite(top):
        raise ValueError("degenerate log weights: no finite component")
    w = np.exp(log_w - top)
    return w / w.sum()


def sample_gaussian(rng: SeededRng, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Draw from N(mean, cov) using the lower Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    factor = spd_factor(np.asarray(cov, dtype=float))
    return mean + factor.lower @ rng.standard_normal(mean.shape[0])
