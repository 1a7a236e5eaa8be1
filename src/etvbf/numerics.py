"""Dense SPD linear algebra and special functions for covariance updates.

All matrices handled here are small (dimension <= 6 in practice), so every
routine works on plain dense ndarrays. Positive definiteness failures are
never masked with jitter: they signal a real breakdown of the filter
iteration and must propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "Singular",
    "SpdFactor",
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
    """Average away roundoff-level asymmetry: (M + M^T)/2."""
    return 0.5 * (m + m.T)


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
    """Lower Cholesky factor of an SPD matrix with derived queries."""

    dim: int
    lower: np.ndarray

    def log_det(self) -> float:
        """log determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs for the factored matrix M."""
        y = np.linalg.solve(self.lower, rhs)
        return np.linalg.solve(self.lower.T, y)

    def inverse(self) -> np.ndarray:
        """Explicit SPD inverse of the factored matrix."""
        return symmetrize(self.solve(np.eye(self.dim)))


def spd_factor(m: np.ndarray) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    The input is symmetrized before factorization; asymmetry beyond
    roundoff level is rejected. Raises NotPositiveDefinite when the
    matrix has a nonpositive pivot, which for the filter iterates means
    a numerical-stability violation.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = symmetrize(m)
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(dim=m.shape[0], lower=lower)

