"""Normalised mixture weights and seeded sampling.

The mixture update, which forms its own inverse-Wishart and Dirichlet
moments, normalises its log weights here, along any leading trial axes.
Sampling draws from SeededRng, a numpy Generator keyed by the trial:
Gaussian noise (standard_normal) and the trigger's uniform draws, one at a
time (random()) or a trial's whole table at once (random(n)).
"""

from __future__ import annotations

import numpy as np

from .numerics import spd_factor

__all__ = [
    "SeededRng",
    "normalize_log_weights",
    "sample_gaussian",
]


class SeededRng(np.random.Generator):
    """A numpy Generator keyed by an integer or tuple of integers: PCG64(SeedSequence(seed)).

    Identical keys produce identical streams across runs and platforms.
    An instance is single-owner mutable state: one per trial, never shared.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(np.random.SeedSequence(seed)))


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
