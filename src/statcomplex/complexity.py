"""Statistical complexity: entropy times disequilibrium.

Three disequilibrium kinds are supported, each paired with the normalized
Shannon entropy of the distribution:

- ``sq``:  sum of squared deviations from the uniform distribution
- ``jsd``: Jensen-Shannon divergence from uniform, in bits
- ``tv``:  squared total variation distance from uniform

The first and third are base-free; the Jensen-Shannon kind fixes bits so
that complexity values are comparable across alphabet sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, measures
from .dist import FamilyPoint
from .errors import DimensionError, FamilyError, RangeError
from .kernels import ComplexityKind
from .rows import write_rows


def disequilibrium(dist, kind: ComplexityKind) -> float:
    """Distance of `dist` from the uniform reference, per `kind`."""
    return measures._hd(dist, (kind,))[1][kind]


def complexity_value(dist, kind: ComplexityKind = ComplexityKind.SQ) -> float:
    """C = normalized entropy times disequilibrium of the chosen kind."""
    h, d = measures._hd(dist, (kind,))
    return h * d[kind]


@dataclass(frozen=True)
class FamilyEvaluation:
    """Entropy factor, disequilibrium and complexity at one family point."""

    kind: ComplexityKind
    point: FamilyPoint
    h: float
    d: float
    c: float

    def __post_init__(self):
        if abs(self.c - self.h * self.d) > 1e-12 * max(1.0, abs(self.c)):
            raise RangeError("complexity must equal entropy factor times disequilibrium")


def family_eval(kind: ComplexityKind, point: FamilyPoint) -> FamilyEvaluation:
    """Evaluate one two-level family point through the closed forms."""
    h, d, c = kernels.family_hdc(kind, float(point.n), point.omega_value, point.p_max)
    return FamilyEvaluation(kind=kind, point=point, h=h, d=d, c=c)


def check_family_size(n: int) -> None:
    """DimensionError unless the family is defined at alphabet size `n`: 2 <= n < 2**53."""
    if n < 2:
        raise DimensionError(f"family needs n >= 2, got {n}")
    if n >= 2 ** 53:
        raise DimensionError("family needs n < 2**53, the range of exact float64 integers")


def family_surface(kind: ComplexityKind, n: int, omegas, p_maxes) -> np.ndarray:
    """Complexity over the outer grid omegas x p_maxes; shape (len(w), len(p))."""
    check_family_size(n)
    w = np.asarray(omegas, dtype=np.float64)
    p = np.asarray(p_maxes, dtype=np.float64)
    if w.ndim != 1 or p.ndim != 1 or w.size == 0 or p.size == 0:
        raise RangeError("grid axes must be non-empty 1-d arrays")
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise FamilyError("omega grid values must lie strictly inside (0, 1)")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise RangeError("p_max grid values must lie in [0, 1]")
    return np.asarray(kernels.family_c_grid(kind, float(n), w[:, None], p[None, :]))


def simplex3_surface(kind: ComplexityKind, m: int) -> np.ndarray:
    """Complexity over the lattice {(i/m, j/m, 1-i/m-j/m)}; NaN off-simplex."""
    if m < 2:
        raise RangeError("simplex lattice needs m >= 2")
    return np.asarray(kernels.simplex3_c_grid(kind, int(m)))


def write_family_grid_csv(path, kind: ComplexityKind, n: int, omegas, p_maxes) -> None:
    """Rows (omega, p_max, c), omega-major order; CSV, or JSON for a .json path."""
    surf = family_surface(kind, n, omegas, p_maxes)
    ps = np.asarray(p_maxes, dtype=np.float64).tolist()
    write_rows(path, ("omega", "p_max", "c"), (
        (w, p, c)
        for w, row in zip(np.asarray(omegas, dtype=np.float64).tolist(), surf)
        for p, c in zip(ps, row.tolist())))


def write_simplex_grid_csv(path, kind: ComplexityKind, m: int) -> None:
    """Rows (p1, p2, c) over the simplex lattice, off-simplex cells skipped;
    CSV, or JSON for a .json path."""
    surf = simplex3_surface(kind, m)
    write_rows(path, ("p1", "p2", "c"), (
        (i / m, j / m, c)
        for i in range(m + 1) for j, c in enumerate(surf[i, :m + 1 - i].tolist())))
