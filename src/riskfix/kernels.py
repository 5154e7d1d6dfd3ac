"""Scalar special functions for the non-negative least squares risk theory.

The two kernels

    G(x) = Phi(x) - x*phi(x) + x^2*Phi(-x)
    H(x) = Phi(x) - G(x)    = x*phi(x) - x^2*Phi(-x)

give the exact sequence-model expectations for the positive orthant:
``E err(s) = s^2 * sum_i G(mu_i/s)`` and ``E lrt = E err + 2 s^2 * sum_i
H(mu_i/s)``.  All functions accept scalars or arrays.  Phi is scipy's
``ndtr`` ufunc, loaded from its compiled module without importing
``scipy.special`` (see ``_scipy_core``).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._scipy_core import ndtr
from .errors import DomainError

# Beyond this point G and H are 1 and 0 to double precision; evaluating the
# formulas there only churns cancellation noise.
_TAIL_CUTOFF = 40.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    _require_finite(x)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def normal_cdf(x):
    """Standard normal distribution function Phi(x), abs. error below 1e-12."""
    x = np.asarray(x, dtype=float)
    _require_finite(x)
    out = ndtr(x)
    return out if out.ndim else float(out)


def kernel_G(x):
    """G(x) = Phi(x) - x phi(x) + x^2 Phi(-x) for x >= 0.

    Strictly increasing from G(0) = 1/2 to 1; inputs past the tail cutoff
    return the limit 1 exactly.
    """
    x = np.asarray(x, dtype=float)
    _require_finite(x)
    if np.any(x < 0):
        raise DomainError("kernel_G is defined for x >= 0")
    xs = np.minimum(x, _TAIL_CUTOFF)
    g = ndtr(xs) - xs * _phi(xs) + xs * xs * ndtr(-xs)
    g = np.where(x > _TAIL_CUTOFF, 1.0, g)
    return g if g.ndim else float(g)


def kernel_H(x):
    """H(x) = x phi(x) - x^2 Phi(-x) = Phi(x) - G(x) for x >= 0.

    Non-negative with sup H < 0.13; inputs past the tail cutoff return 0.
    Tiny negative cancellation residue in the far tail is clamped to 0.
    """
    x = np.asarray(x, dtype=float)
    _require_finite(x)
    if np.any(x < 0):
        raise DomainError("kernel_H is defined for x >= 0")
    xs = np.minimum(x, _TAIL_CUTOFF)
    h = xs * _phi(xs) - xs * xs * ndtr(-xs)
    h = np.where(x > _TAIL_CUTOFF, 0.0, np.maximum(h, 0.0))
    return h if h.ndim else float(h)


@dataclass(frozen=True)
class DiscretePrior:
    """Finite discrete distribution of a non-negative signal coordinate.

    ``atoms`` is a sequence of (value, weight) pairs; weights must be
    positive and sum to one within 1e-12, values must be non-negative.
    """

    atoms: tuple

    def __init__(self, atoms):
        atoms = tuple((float(v), float(w)) for v, w in atoms)
        if not atoms:
            raise DomainError("prior needs at least one atom")
        values = np.array([v for v, _ in atoms])
        weights = np.array([w for _, w in atoms])
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(weights))):
            raise DomainError("prior atoms must be finite")
        if np.any(values < 0):
            raise DomainError("prior values must be non-negative")
        if np.any(weights <= 0):
            raise DomainError("prior weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError(f"prior weights sum to {weights.sum()!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def point_mass(cls, value: float) -> "DiscretePrior":
        return cls([(value, 1.0)])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def mass_at_zero(self) -> float:
        return float(sum(w for v, w in self.atoms if v == 0.0))


def prior_G(prior: DiscretePrior, omega: float) -> float:
    """E G(U/omega) under the prior."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    return float(np.dot(prior.weights, kernel_G(prior.values / omega)))


def prior_H(prior: DiscretePrior, omega: float) -> float:
    """E H(U/omega) under the prior."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    return float(np.dot(prior.weights, kernel_H(prior.values / omega)))


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _require_finite(x) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError("input must be finite")
