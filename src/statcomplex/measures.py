"""Entropy, divergences, and related functionals on discrete distributions.

`entropy_normalized` and `disequilibrium_sq`, like `complexity_value`, are
one-row `kernels.rows_hd` calls through `_hd`; the formulas here serve only
the pairwise `total_variation` and `jsd`.

Log conventions
---------------
* ``jsd`` takes ``unit="bits"`` (default) or ``unit="nats"``.
* 0 * log 0 is taken as 0 throughout.

Sums over probability vectors rely on numpy's pairwise summation, which
keeps the accumulation error negligible for dimensions well beyond 2**16.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import DiscreteDistribution
from .errors import DimensionError, RangeError
from .kernels import ComplexityKind, rows_hd

LN2 = math.log(2.0)


def _distribution(d) -> DiscreteDistribution:
    """`d` validated; a DiscreteDistribution is valid already and comes back as it is."""
    if not isinstance(d, DiscreteDistribution):
        d = DiscreteDistribution(np.asarray(d, dtype=np.float64))
    return d


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    a, b = _distribution(p).probs, _distribution(q).probs
    if a.size != b.size:
        raise DimensionError(f"dimension mismatch: {a.size} vs {b.size}")
    return a, b


def _hd(p, kinds=()) -> tuple[float, dict]:
    """(h, {kind: d}) of one distribution, for each of `kinds`, by `rows_hd`."""
    row = np.array(_distribution(p).probs, ndmin=2)  # a copy: rows_hd overwrites it for jsd
    h, d = rows_hd(row, row.shape[1], lambda t: t.sum(axis=1), kinds=kinds)
    return float(h[0]), {kind: float(column[0]) for kind, column in d.items()}


def _neg_plogp(p: np.ndarray) -> float:
    """Unnormalized Shannon entropy in nats, with 0 log 0 := 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0.0, p * np.log(p), 0.0)
    return float(-t.sum())


# ---------------------------------------------------------------------------
# entropy and disequilibria
# ---------------------------------------------------------------------------

def entropy_normalized(p) -> float:
    """Shannon entropy divided by log(n), clipped to [0, 1]; base-free.

    A uniform input gives 1 up to rounding, a one-hot input exactly +0.0.
    """
    return _hd(p)[0]


def disequilibrium_sq(p) -> float:
    """Squared Euclidean distance to the uniform reference, sum (p_i - 1/n)^2."""
    return _hd(p, (ComplexityKind.SQ,))[1][ComplexityKind.SQ]


def total_variation(p, q) -> float:
    """Total variation distance, half the L1 distance; in [0, 1]."""
    return _total_variation(*_pair(p, q))


def _total_variation(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(a - b).sum())


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _unit_scale(unit: str) -> float:
    if unit == "bits":
        return 1.0 / LN2
    if unit == "nats":
        return 1.0
    raise RangeError(f"unit must be 'bits' or 'nats', got {unit!r}")


def jsd(p, q, unit: str = "bits") -> float:
    """Jensen-Shannon divergence via the mixture m = (p + q)/2.

    Computed as H(m) - (H(p) + H(q))/2 with unnormalized entropies, then
    converted to the requested unit.  Symmetric, nonnegative, bounded by
    log 2 in the chosen unit, and bounded above by total_variation(p, q)
    when evaluated in nats.
    """
    return _jsd_nats(*_pair(p, q)) * _unit_scale(unit)


def _jsd_nats(a: np.ndarray, b: np.ndarray) -> float:
    m = 0.5 * (a + b)
    v_nats = _neg_plogp(m) - 0.5 * (_neg_plogp(a) + _neg_plogp(b))
    # mathematically 0 <= v <= ln 2 * TV: each state's term is (a_i + b_i)/4
    # times phi(t) = (1 + t) ln(1 + t) + (1 - t) ln(1 - t), t = (a_i - b_i)/(a_i + b_i),
    # and phi, convex with phi(0) = 0 and phi(1) = 2 ln 2, lies below 2 ln 2 |t|.
    # Clip the float residue near-identical inputs leave outside those bounds.
    return min(max(v_nats, 0.0), LN2 * _total_variation(a, b))
