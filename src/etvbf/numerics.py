"""Dense SPD linear algebra and special functions for covariance updates.

All matrices handled here are small (dimension <= 6 in practice), so every
routine works on plain dense ndarrays, the SPD ones also on (M, n, n) stacks.
Positive definiteness failures are never masked with jitter: they signal a
real breakdown of the filter iteration and must propagate. spd_factor
factors finite, exactly symmetric input as it is, which is what the filter
builds, and checks any other input's symmetry to a tolerance first; it
rejects the same inputs either way. A factor's solve and inverse go through
one explicit inverse of the triangular factor. No code in the package calls
SpdFactor.solve or .inverse any more: the mixture update inverts p_tilde
directly. They stay only because the benchmark's tracer (bench/spans.py,
bench/test_bench.py) names them, and they go when it no longer does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "Singular",
    "SpdFactor",
    "is_integer",
    "is_real",
    "require_spd",
    "symmetrize",
    "digamma",
    "spd_factor",
]


class NotPositiveDefinite(Exception):
    """A matrix expected to be SPD failed Cholesky factorization."""


class Singular(Exception):
    """A matrix that must be solved against is numerically singular."""


def is_integer(v) -> bool:
    """Whether v is an integer setting: a numbers.Integral, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether v is a real setting: one finite numbers.Real that a float holds, not a bool."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the largest float
        return False


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
# -B_{2k}/(2k), Bernoulli numbers B_2..B_14, k = 1..7.
_DIGAMMA_SERIES = np.array(
    [-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0, -1.0 / 132.0, 691.0 / 32760.0, -1.0 / 12.0]
)
_DIGAMMA_POWERS = np.arange(1.0, 8.0)
_DIGAMMA_STEPS = np.arange(8.0)
_TINY = np.finfo(float).tiny  # the smallest normal float; a subnormal x's 1/x can overflow


def digamma(x):
    """Digamma function psi(x), elementwise for x at least the smallest normal float.

    Uses the recurrence psi(x+1) = psi(x) + 1/x to shift every argument by
    8, then the asymptotic series in 1/x, which no finite x overflows;
    absolute error is below 1e-12 over [1e-3, 1e6] and for large x. A
    subnormal or smaller x raises ValueError, as its 1/x can overflow.
    Returns a float for a scalar argument.
    """
    x = np.asarray(x, dtype=float)
    if not x.min() >= _TINY:
        raise ValueError(f"digamma requires x > 0 and normal, got a minimum of {x.min()}")
    recurrence = (1.0 / (x[..., None] + _DIGAMMA_STEPS)).sum(axis=-1)
    x = x + _DIGAMMA_STEPS.size
    inv = 1.0 / x
    series = np.vecdot((inv * inv)[..., None] ** _DIGAMMA_POWERS, _DIGAMMA_SERIES)
    return np.log(x) - 0.5 * inv + series - recurrence


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of an SPD matrix, or a stack of them, with derived queries."""

    lower: np.ndarray

    def log_det(self) -> float | np.ndarray:
        """log determinant of the factored matrix; one per matrix of a stack."""
        return 2.0 * np.sum(np.log(np.diagonal(self.lower, axis1=-2, axis2=-1)), axis=-1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs for the factored matrix M = L L^T, as L^{-T} (L^{-1} rhs)."""
        inv_lower = np.linalg.inv(self.lower)
        return inv_lower.mT @ (inv_lower @ rhs)

    def inverse(self) -> np.ndarray:
        """Explicit SPD inverse L^{-T} L^{-1} of the factored matrix, exactly symmetric."""
        inv_lower = np.linalg.inv(self.lower)
        return symmetrize(inv_lower.mT @ inv_lower)


def spd_factor(m: np.ndarray) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix, or a stack of them.

    Nonempty, finite, exactly symmetric input (m == m^T bitwise, as every
    matrix the filter builds is) is factored as it is, with no tolerance
    check. Any other input is checked as require_spd does, non-square,
    non-finite or asymmetric beyond roundoff level raising ValueError, and
    symmetrized before factorization. Raises NotPositiveDefinite when any
    matrix has a nonpositive pivot, which for the filter iterates means a
    numerical-stability violation.
    """
    m = np.asarray(m, dtype=float)
    nonempty_square = m.size > 0 and m.ndim >= 2 and m.shape[-1] == m.shape[-2]
    # symmetrize would return exactly symmetric input unchanged: 0.5 (a + a) = a.
    if not (nonempty_square and np.isfinite(m).all() and (m == m.mT).all()):
        _symmetric_scale(m, "matrix")
        m = symmetrize(m)
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(lower=lower)

