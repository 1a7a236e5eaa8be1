"""Dense SPD linear algebra and special functions for covariance updates.

All matrices handled here are small (dimension <= 6 in practice), so every
routine works on plain dense ndarrays, the SPD ones also on (M, n, n) stacks.
Positive definiteness failures are never masked with jitter: they signal a
real breakdown of the filter iteration and must propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "Singular",
    "SpdFactor",
    "require_spd",
    "symmetrize",
    "digamma",
    "multivariate_digamma",
    "log_multivariate_gamma",
    "spd_factor",
]


class NotPositiveDefinite(Exception):
    """A matrix expected to be SPD failed Cholesky factorization."""


class Singular(Exception):
    """A matrix that must be solved against is numerically singular."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average away roundoff-level asymmetry: (M + M^T)/2, per matrix of a stack."""
    return 0.5 * (m + m.mT)


def _symmetric_scale(m: np.ndarray, name: str) -> np.ndarray:
    """Each matrix's largest entry (at least 1), once m is finite and symmetric to 1e-8 of it."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    if (np.abs(m - m.mT).max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise ValueError(f"{name} must be symmetric")
    return scale


def require_spd(m, name: str, ndim: int = 2, semidefinite: bool = False) -> np.ndarray:
    """The one SPD check of config matrices: m as floats, or ValueError naming it.

    Semidefinite lets eigenvalues dip to -1e-12 of each matrix's scale.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != ndim or m.size == 0:
        raise ValueError(f"{name} must be a nonempty array of {ndim} axes, got {m.shape}")
    scale = _symmetric_scale(m, name)
    low = np.linalg.eigvalsh(m).min(axis=-1)
    if not np.all(low >= -1e-12 * scale if semidefinite else low > 0.0):
        raise ValueError(f"{name} must be positive {'semi' if semidefinite else ''}definite")
    return m


# Asymptotic series coefficients for psi(x): the x^{-2k} terms are
# -B_{2k}/(2k), Bernoulli numbers B_2..B_14.
_DIGAMMA_SERIES = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

_DIGAMMA_SHIFT = 8.0


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Uses the recurrence psi(x+1) = psi(x) + 1/x to shift the argument
    above 8, then the asymptotic series; absolute error is below 1e-12
    over [1e-3, 1e6].
    """
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for coeff in _DIGAMMA_SERIES:
        series += coeff * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x + series


def multivariate_digamma(n: int, a: float) -> float:
    """Multivariate digamma psi_n(a) = sum_{i=1..n} psi(a + (1-i)/2)."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if not a > 0.5 * (n - 1):
        raise ValueError(f"multivariate digamma requires a > (n-1)/2, got a={a}, n={n}")
    return sum(digamma(a + 0.5 * (1 - i)) for i in range(1, n + 1))


def log_multivariate_gamma(n: int, a: float) -> float:
    """log Gamma_n(a) = (n(n-1)/4) log pi + sum_{i=1..n} log Gamma(a + (1-i)/2)."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if not a > 0.5 * (n - 1):
        raise ValueError(f"log_multivariate_gamma requires a > (n-1)/2, got a={a}, n={n}")
    out = 0.25 * n * (n - 1) * math.log(math.pi)
    for i in range(1, n + 1):
        out += math.lgamma(a + 0.5 * (1 - i))
    return out


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of an SPD matrix, or a stack of them, with derived queries."""

    lower: np.ndarray

    def log_det(self) -> float | np.ndarray:
        """log determinant of the factored matrix; one per matrix of a stack."""
        return 2.0 * np.sum(np.log(np.diagonal(self.lower, axis1=-2, axis2=-1)), axis=-1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs for the factored matrix M."""
        y = np.linalg.solve(self.lower, rhs)
        return np.linalg.solve(self.lower.mT, y)

    def inverse(self) -> np.ndarray:
        """Explicit SPD inverse of the factored matrix."""
        return symmetrize(self.solve(np.eye(self.lower.shape[-1])))


def spd_factor(m: np.ndarray) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix, or a stack of them.

    The input is symmetrized before factorization; asymmetry beyond
    roundoff level is rejected as require_spd does. Raises
    NotPositiveDefinite when any matrix has a nonpositive pivot, which for
    the filter iterates means a numerical-stability violation.
    """
    m = np.asarray(m, dtype=float)
    _symmetric_scale(m, "matrix")
    try:
        lower = np.linalg.cholesky(symmetrize(m))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(lower=lower)

