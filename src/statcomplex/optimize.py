"""Optima and stationary structure of the two-level complexity surfaces.

The two-level family C(omega, p_max) is exactly symmetric under the twin
map (omega, p_max) -> (1 - omega, 1 - p_max): it is the same distribution
with the group roles swapped.  Every optimum therefore comes in a mirror
pair; results are reported on the p_max >= 1/2 branch, and the continuous
coarse search grids that branch only.

The squared-distance kind is special: its closed form is unbounded as
omega approaches 0 or 1 (vanishing group size amplifies the per-cell
deviation), so its search domain is restricted to omega in
[1/n, 1 - 1/n], the range realizable by integer group counts.  The other
two kinds are bounded and searched over the open interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .complexity import ComplexityKind, family_eval, simplex3_surface
from .dist import FamilyPoint
from .errors import DimensionError, RangeError
from .rows import write_rows

_COARSE = 512
_DESCENT_TOL = 1e-7
_OMEGA_CLIP = 1e-9

_TABLE_SIZES = (3, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class OptimumRecord:
    """Location and value of a family complexity maximum."""

    kind: ComplexityKind
    n: int
    c_star: float
    p_max_star: float
    omega_star: float
    mode: str = "continuous"

    def __post_init__(self):
        if not 0.0 < self.omega_star < 1.0:
            raise RangeError("omega_star must lie strictly inside (0, 1)")
        if not 0.0 <= self.p_max_star <= 1.0:
            raise RangeError("p_max_star must lie in [0, 1]")
        point = FamilyPoint(n=self.n, omega=self.omega_star, p_max=self.p_max_star)
        if abs(self.c_star - family_eval(self.kind, point).c) > 1e-10:
            raise RangeError("c_star is inconsistent with its (omega, p_max) location")

    @property
    def n_minus_k_star(self) -> int:
        """Number of cells in the heavy group at the optimum."""
        return int(round(self.n * (1.0 - self.omega_star)))


@dataclass(frozen=True)
class ResidualTriple:
    """First-order conditions of the squared-TV complexity at a point.

    f1 and f2 are the partial derivatives with respect to p_max and omega;
    f3 is their difference in simplified form.  All three vanish together
    exactly at an interior stationary point.
    """

    n: int
    omega: float
    p_max: float
    f1: float
    f2: float
    f3: float

    def __post_init__(self):
        if abs(self.f3 - (self.f1 - self.f2)) > 1e-10 * max(1.0, abs(self.f3)):
            raise RangeError("difference residual must equal f1 - f2")


@dataclass(frozen=True)
class SimplexExtremum:
    """A classified stationary point of the 3-state complexity surface."""

    probs: tuple
    c: float
    kind: str  # "max" | "min" | "saddle"

    def __post_init__(self):
        if self.kind not in ("max", "min", "saddle"):
            raise RangeError("extremum kind must be max, min or saddle")


def _omega_band(kind: ComplexityKind, n: int):
    if kind is ComplexityKind.SQ:
        return 1.0 / n, 1.0 - 1.0 / n
    return _OMEGA_CLIP, 1.0 - _OMEGA_CLIP


def _c_at(kind: ComplexityKind, n: int, omega: float, p_max: float) -> float:
    return kernels.family_hdc(kind, float(n), omega, p_max)[2]


def _ascend(kind, n, omega, p_max, w_lo, w_hi, step0):
    """Coordinate ascent with step halving; deterministic and derivative-free.

    With w_lo == w_hi == omega every omega move is skipped, which leaves a
    1-d ascent in p_max.
    """
    c = _c_at(kind, n, omega, p_max)
    step = step0
    while step >= _DESCENT_TOL:
        improved = True
        while improved:
            improved = False
            for dw, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                w2 = min(max(omega + dw, w_lo), w_hi)
                p2 = min(max(p_max + dp, 0.0), 1.0)
                if w2 == omega and p2 == p_max:
                    continue
                c2 = _c_at(kind, n, w2, p2)
                if c2 > c:
                    omega, p_max, c = w2, p2, c2
                    improved = True
        step *= 0.5
    return omega, p_max, c


@functools.lru_cache(maxsize=128)
def maximize_family(kind: ComplexityKind, n: int, mode: str = "continuous") -> OptimumRecord:
    """Global maximum of the family complexity surface for alphabet size n.

    Continuous mode treats omega as a real parameter: a coarse grid over
    the p_max >= 1/2 twin branch, which holds a twin of every cell of the
    full grid since the omega band is symmetric, then coordinate ascent.
    (For sq above n ~ 1e10 the band edge 1 - 1/n rounds in float, so there
    the branches no longer mirror each other exactly; this branch is the
    reported one.)
    Integer mode scans every group count k in [1, n - 1] and refines p_max
    for each.  Ties are broken toward the smaller omega, then smaller
    p_max: among the branch's grid cells in continuous mode, among the
    refined optima in integer mode.  The result is mapped onto the
    p_max >= 1/2 twin branch.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DimensionError("alphabet size must be an integer")
    if n < 3:
        raise DimensionError("family optimization needs an alphabet of size >= 3")
    if n >= 2 ** 53:
        raise DimensionError("family optimization needs an alphabet of size < 2**53")
    if mode not in ("continuous", "integer"):
        raise RangeError(f"unknown optimization mode {mode!r}")
    if mode == "integer" and n > 2 ** 16:  # one ascent per group count: 2**16 takes seconds
        raise RangeError(f"integer mode takes n <= 2**16, got {n}")

    w_lo, w_hi = _omega_band(kind, n)

    if mode == "continuous":
        grid = np.arange(1, _COARSE) / _COARSE
        ws = grid[(grid >= w_lo) & (grid <= w_hi)]
        ws = np.unique(np.concatenate([ws, [w_lo, w_hi]]))
        ps = np.arange(_COARSE // 2, _COARSE + 1) / _COARSE  # one twin branch
        surf = np.asarray(kernels.family_c_grid(kind, float(n), ws, ps))
        i, j = divmod(int(np.argmax(surf)), ps.size)
        omega, p_max, c = _ascend(kind, n, float(ws[i]), float(ps[j]), w_lo, w_hi, 1.0 / _COARSE)
    else:
        ws = np.arange(1, n, dtype=np.int64) / float(n)
        ps_coarse = np.arange(17) / 16.0
        surf = np.asarray(kernels.family_c_grid(kind, float(n), ws, ps_coarse))
        best = None
        for row, w in enumerate(ws.tolist()):
            j = int(np.argmax(surf[row]))
            _, p_k, c_k = _ascend(kind, n, w, float(ps_coarse[j]), w, w, 1.0 / 16.0)
            key = (-c_k, w, p_k)
            if best is None or key < best[0]:
                best = (key, w, p_k, c_k)
        _, omega, p_max, c = best

    if p_max < 0.5:
        omega, p_max = 1.0 - omega, 1.0 - p_max
        c = _c_at(kind, n, omega, p_max)
    return OptimumRecord(kind=kind, n=int(n), c_star=c, p_max_star=p_max,
                         omega_star=omega, mode=mode)


def threshold(kind: ComplexityKind, n: int, fraction: float = 0.25) -> float:
    """Decision threshold: a fixed fraction of the attainable maximum."""
    if not 0.0 < fraction < 1.0:
        raise RangeError("threshold fraction must lie strictly inside (0, 1)")
    return fraction * maximize_family(kind, n).c_star


def build_optimum_table(kinds=None, ns=_TABLE_SIZES, mode: str = "continuous"):
    """Optimum records for each (kind, n) pair, kind-major order."""
    kinds = list(ComplexityKind) if kinds is None else [ComplexityKind.parse(k) if isinstance(k, str) else k for k in kinds]
    return [maximize_family(k, int(n), mode=mode) for k in kinds for n in ns]


def write_table_csv(path, records) -> None:
    """One row per record; CSV, or JSON for a .json path."""
    write_rows(path, ("kind", "n", "c_star", "p_max_star", "omega_star", "n_minus_k_star"),
               ((r.kind.value, r.n, r.c_star, r.p_max_star, r.omega_star, r.n_minus_k_star)
                for r in records), indent=2)


def tv_residuals(n: int, omega: float, p_max: float) -> ResidualTriple:
    """First-order residuals of C_tv at an interior family point.

    The simplified difference f3 times log(n) depends only on (omega,
    p_max), not on n, which makes the stationary geometry size-free.
    """
    if n < 2:
        raise DimensionError("alphabet size must be at least 2")
    if not 0.0 < omega < 1.0 or not 0.0 < p_max < 1.0:
        raise RangeError("residuals are defined on the open unit square only")
    ln_n = math.log(n)
    u = p_max + omega - 1.0
    t_low = (1.0 - p_max) * math.log((1.0 - p_max) / omega)
    t_high = p_max * math.log(p_max / (1.0 - omega))
    h = 1.0 - (t_low + t_high) / ln_n
    ln_ratio = math.log(p_max / (1.0 - omega)) - math.log((1.0 - p_max) / omega)
    ratio_diff = p_max / (1.0 - omega) - (1.0 - p_max) / omega
    f1 = 2.0 * u * (h - u * ln_ratio / (2.0 * ln_n))
    f2 = 2.0 * u * (h - u * ratio_diff / (2.0 * ln_n))
    f3 = (u * u / ln_n) * (ratio_diff - ln_ratio)
    return ResidualTriple(n=int(n), omega=omega, p_max=p_max, f1=f1, f2=f2, f3=f3)


def lemma3_residual(x: float, y: float, z: float) -> float:
    """Cyclic log residual, nonnegative whenever 0 < x <= y <= z <= 1.

    Vanishes (to roundoff, well below 1e-12) when x == y or y == z.
    """
    if not 0.0 < x <= y <= z <= 1.0:
        raise RangeError("arguments must satisfy 0 < x <= y <= z <= 1")
    return (y * math.log(x) - x * math.log(y)
            + x * math.log(z) - z * math.log(x)
            + z * math.log(y) - y * math.log(z))


def brute_force_simplex(kind: ComplexityKind, n: int = 3, step: float = 1e-3):
    """Scan the 3-state simplex lattice and classify stationary points.

    A lattice point qualifies when both forward-difference components
    change sign across it; the second-difference Hessian then separates
    maxima, minima and saddles.  Saddle points do not show up as local
    extrema among lattice neighbors, which is why the sign-flip test is
    used instead of a neighborhood comparison.  Nearby duplicates (flat
    ties straddling an off-lattice stationary point) are merged.
    """
    if n != 3:
        raise DimensionError("the exhaustive simplex scan supports n = 3 only")
    if not 0.0 < step <= 1e-2:
        raise RangeError("step must lie in (0, 0.01]")
    m = int(round(1.0 / step))
    surf = simplex3_surface(kind, m)

    dx = surf[1:, :] - surf[:-1, :]
    dy = surf[:, 1:] - surf[:, :-1]
    flip_x = np.zeros(surf.shape, dtype=bool)
    flip_y = np.zeros(surf.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        flip_x[1:-1, :] = (dx[:-1, :] * dx[1:, :]) <= 0.0
        flip_y[:, 1:-1] = (dy[:, :-1] * dy[:, 1:]) <= 0.0

    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    interior = (ii >= 1) & (jj >= 1) & (ii + jj <= m - 2)
    candidates = np.argwhere(flip_x & flip_y & interior)

    classified = []
    for i, j in candidates:
        hxx = surf[i + 1, j] - 2.0 * surf[i, j] + surf[i - 1, j]
        hyy = surf[i, j + 1] - 2.0 * surf[i, j] + surf[i, j - 1]
        hxy = (surf[i + 1, j + 1] - surf[i + 1, j - 1]
               - surf[i - 1, j + 1] + surf[i - 1, j - 1]) / 4.0
        det = hxx * hyy - hxy * hxy
        if det > 0.0 and hxx < 0.0:
            label = "max"
        elif det > 0.0 and hxx > 0.0:
            label = "min"
        elif det < 0.0:
            label = "saddle"
        else:
            continue
        classified.append((label, float(surf[i, j]), int(i), int(j)))

    order = {"max": 0, "saddle": 1, "min": 2}
    classified.sort(key=lambda t: (order[t[0]], -t[1] if t[0] == "max" else t[1], t[2], t[3]))

    kept = []
    # ridge cells around one off-lattice stationary point can fire a few
    # percent apart; genuine same-class points sit >= 0.49 apart here
    radius = max(3, int(round(0.04 * m)))
    for label, c, i, j in classified:
        dup = any(lab == label and abs(i - ki) <= radius and abs(j - kj) <= radius
                  for lab, ki, kj in kept)
        if not dup:
            kept.append((label, i, j))
    results = []
    for label, i, j in kept:
        p1, p2 = i / m, j / m
        results.append(SimplexExtremum(probs=(p1, p2, 1.0 - p1 - p2),
                                       c=float(surf[i, j]), kind=label))
    results.sort(key=lambda e: (order[e.kind], -e.c if e.kind == "max" else e.c,
                                e.probs[0], e.probs[1]))
    return results
