"""Discrete probability distributions and the two-level spike family.

A distribution here is a plain vector of probabilities over n >= 2 states.
The spike family splits the states into a "low" group of k entries sharing
mass 1 - p_max and a "high" group of n - k entries sharing mass p_max; the
group fraction omega = k/n.  Low-group entries always come first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FamilyError, RangeError

# Construction accepts probability vectors whose sum differs from 1 by at
# most this much (accumulated float error from upstream normalizations).
SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteDistribution:
    """Validated, immutable probability vector.

    Parameters
    ----------
    probs : array_like
        Probabilities, each in [0, 1], summing to 1 within ``SUM_TOL``.
        Zero entries are permitted.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise DimensionError(
                f"need a 1-d probability vector with n >= 2 entries, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise RangeError("probabilities must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise RangeError("probabilities must lie in [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise RangeError(f"probabilities sum to {total!r}, expected 1 within {SUM_TOL}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        """Number of states."""
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.n


def check_family_size(n: int) -> None:
    """DimensionError unless `n` is a family alphabet size: an integer (int or
    numpy integer, not bool) with 2 <= n < 2**53, the exact float64 integers."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DimensionError(f"family needs an integer n, got {n!r}")
    if n < 2:
        raise DimensionError(f"family needs n >= 2, got {n}")
    if n >= 2 ** 53:
        raise DimensionError("family needs n < 2**53, the range of exact float64 integers")


@dataclass(frozen=True)
class FamilyPoint:
    """Parameter point of the two-level family.

    Exactly one of ``omega`` (continuous mode, 0 < omega < 1) or ``k``
    (integer mode, 1 <= k <= n-1) must be given; in integer mode
    omega = k/n.  ``p_max`` is the total mass of the high group and may
    take the boundary values 0 and 1.
    """

    n: int
    p_max: float
    omega: float | None = None
    k: int | None = None

    def __post_init__(self):
        check_family_size(self.n)
        if (self.omega is None) == (self.k is None):
            raise FamilyError("give exactly one of omega (continuous) or k (integer)")
        if self.k is not None:
            if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
                raise FamilyError(f"k must be an integer, got {self.k!r}")
            if not 1 <= self.k <= self.n - 1:
                raise FamilyError(f"k must lie in [1, {self.n - 1}], got {self.k}")
        else:
            if not 0.0 < float(self.omega) < 1.0:
                raise FamilyError(f"omega must lie in (0, 1), got {self.omega}")
        if not 0.0 <= float(self.p_max) <= 1.0:
            raise RangeError(f"p_max must lie in [0, 1], got {self.p_max}")

    @property
    def mode(self) -> str:
        return "integer" if self.k is not None else "continuous"

    @property
    def omega_value(self) -> float:
        """Group fraction omega, resolved to k/n in integer mode."""
        if self.k is not None:
            return self.k / self.n
        return float(self.omega)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def uniform(n: int) -> DiscreteDistribution:
    """Uniform distribution over n >= 2 states, n an int or numpy integer, not bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"uniform needs an integer n, got {n!r}")
    if n < 2:
        raise DimensionError(f"uniform needs n >= 2, got {n}")
    return DiscreteDistribution(np.full(n, 1.0 / n))


def spike_family(point: FamilyPoint) -> DiscreteDistribution:
    """Materialize an integer-mode family point as a distribution.

    The first k entries each carry (1 - p_max)/k, the remaining n - k
    entries each carry p_max/(n - k).
    """
    if point.mode != "integer":
        raise FamilyError("spike_family needs an integer-mode point (k set)")
    n, k, p_max = point.n, point.k, float(point.p_max)
    probs = np.empty(n, dtype=np.float64)
    probs[:k] = (1.0 - p_max) / k
    probs[k:] = p_max / (n - k)
    return DiscreteDistribution(probs)
