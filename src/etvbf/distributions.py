"""Parameter containers and moment formulas for the conjugate priors.

Inverse-Wishart, Dirichlet, and categorical distributions supply the
expectations consumed by the variational updates; sampling is limited to
what the simulation needs (Gaussian noise and uniform trigger draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import digamma, multivariate_digamma, spd_factor

__all__ = [
    "InverseWishart",
    "Dirichlet",
    "CategoricalWeights",
    "SeededRng",
    "iw_mean_of_inverse",
    "iw_expected_logdet",
    "dirichlet_expected_log",
    "normalize_log_weights",
    "sample_gaussian",
    "sample_uniform",
]


@dataclass(frozen=True)
class InverseWishart:
    """Inverse-Wishart parameters: dimension, degrees of freedom, scale matrix."""

    dim: int
    dof: float
    scale: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float)
        if scale.shape != (self.dim, self.dim):
            raise ValueError(f"scale shape {scale.shape} does not match dim {self.dim}")
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class Dirichlet:
    """Dirichlet concentration vector; every component must be positive."""

    concentration: np.ndarray

    def __post_init__(self):
        conc = np.atleast_1d(np.asarray(self.concentration, dtype=float))
        if conc.size == 0 or np.any(conc <= 0.0):
            raise ValueError("concentration components must all be positive")
        object.__setattr__(self, "concentration", conc)


@dataclass(frozen=True)
class CategoricalWeights:
    """Probability vector over mixture components; sums to one."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probabilities, dtype=float))
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", probs)


class SeededRng:
    """Deterministic random stream keyed by an integer or tuple of integers.

    Identical keys produce identical streams across runs and platforms.
    An instance is single-owner mutable state: one per trial, never shared.
    """

    def __init__(self, seed):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def uniform(self) -> float:
        return float(self._gen.random())

    def standard_normal(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)


def iw_mean_of_inverse(iw: InverseWishart) -> np.ndarray:
    """E{P^{-1}} = dof * scale^{-1} for P ~ IW(dof, scale)."""
    return iw.dof * spd_factor(iw.scale).inverse()


def iw_expected_logdet(iw: InverseWishart) -> float:
    """E{log |P|} = log|G| - n log 2 - psi_n(g/2) for P ~ IW(g, G)."""
    logdet_scale = spd_factor(iw.scale).log_det()
    return logdet_scale - iw.dim * math.log(2.0) - multivariate_digamma(iw.dim, 0.5 * iw.dof)


def dirichlet_expected_log(d: Dirichlet) -> np.ndarray:
    """E{log mu_j} = psi(alpha_j) - psi(sum alpha)."""
    total = float(d.concentration.sum())
    return np.array([digamma(a) - digamma(total) for a in d.concentration])


def normalize_log_weights(log_w: np.ndarray) -> CategoricalWeights:
    """Softmax of a log-weight vector, shift-invariant and overflow-safe."""
    log_w = np.atleast_1d(np.asarray(log_w, dtype=float))
    if log_w.size == 0:
        raise ValueError("log weights must be nonempty")
    top = float(log_w.max())
    if not math.isfinite(top):
        raise ValueError("degenerate log weights: no finite component")
    w = np.exp(log_w - top)
    return CategoricalWeights(w / w.sum())


def sample_gaussian(rng: SeededRng, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Draw from N(mean, cov) using the lower Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    factor = spd_factor(np.asarray(cov, dtype=float))
    return mean + factor.lower @ rng.standard_normal(mean.shape[0])


def sample_uniform(rng: SeededRng) -> float:
    """Uniform draw over [0, 1)."""
    return rng.uniform()
