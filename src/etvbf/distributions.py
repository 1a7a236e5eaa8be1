"""Normalised mixture weights and seeded sampling.

The mixture update, which forms its own inverse-Wishart and Dirichlet
moments, normalises its log weights here, along any leading trial axes.
Sampling is limited to what the simulation needs: Gaussian noise and the
trigger's uniform draws, one at a time (SeededRng.uniform) or a trial's
whole table at once (SeededRng.uniforms).
"""

from __future__ import annotations

import numpy as np

from .numerics import spd_factor

__all__ = [
    "SeededRng",
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

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniform draws over [0, 1): bitwise count calls of uniform."""
        return self._gen.random(count)

    def standard_normal(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)


def normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of log weights, shift-invariant and overflow-safe."""
    log_w = np.atleast_1d(np.asarray(log_w, dtype=float))
    if log_w.shape[-1] == 0:
        raise ValueError("log weights must be nonempty")
    top = log_w.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("degenerate log weights: no finite component")
    w = np.exp(log_w - top)
    return w / w.sum(axis=-1, keepdims=True)


def sample_gaussian(rng: SeededRng, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Draw from N(mean, cov) using the lower Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    factor = spd_factor(np.asarray(cov, dtype=float))
    return mean + factor.lower @ rng.standard_normal(mean.shape[0])
