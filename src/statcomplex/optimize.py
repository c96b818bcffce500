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

The maximum is solved from the structure of the surface, not searched
for: the kind fixes where its peak lies.  sq peaks on the band edge
omega = 1 - 1/n, where dC/domega is still rising; jsd on the edge
p_max = 1, where the log singularities of h and d leave dC/dp_max -> +inf;
tv inside, since there dC/dp_max -> -inf at p_max = 1.  A small grid
brackets the peak; an edge peak is a 1-d golden-section search along the
edge, the tv peak a Newton solve of the conditions `tv_residuals`
evaluates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .complexity import ComplexityKind, simplex3_surface
from .dist import check_family_size
from .errors import DimensionError, RangeError
from .rows import write_rows

_CELLS = 32            # coarse grid step 1/32 in omega and p_max
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_XTOL = 1e-12          # golden-section brackets end below this width
_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-12    # a Newton step this small leaves an error at roundoff
_OMEGA_CLIP = 1e-9

_TABLE_SIZES = (3, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class OptimumRecord:
    """Location and value of a family complexity maximum, as `maximize_family`
    solves it: c_star is the closed form at its location.  Not re-validated."""

    kind: ComplexityKind
    n: int
    c_star: float
    p_max_star: float
    omega_star: float
    mode: str = "continuous"

    @property
    def n_minus_k_star(self) -> int:
        """Number of cells in the heavy group at the optimum."""
        return int(round(self.n * (1.0 - self.omega_star)))


@dataclass(frozen=True)
class ResidualTriple:
    """First-order conditions of the squared-TV complexity at a point.

    f1 and f2 are the partial derivatives with respect to p_max and omega;
    f3 is their difference in simplified form, not re-validated.  All three
    vanish together exactly at an interior stationary point.
    """

    n: int
    omega: float
    p_max: float
    f1: float
    f2: float
    f3: float


@dataclass(frozen=True)
class SimplexExtremum:
    """A classified stationary point of the 3-state complexity surface."""

    probs: tuple
    c: float
    kind: str  # "max" | "min" | "saddle"


def _omega_band(kind: ComplexityKind, n: int):
    if kind is ComplexityKind.SQ:
        return 1.0 / n, 1.0 - 1.0 / n
    return _OMEGA_CLIP, 1.0 - _OMEGA_CLIP


def _c_at(kind: ComplexityKind, n: int, omega: float, p_max: float) -> float:
    return kernels.family_hdc(kind, float(n), omega, p_max)[2]


def _golden(f, a: float, b: float):
    """(x, f(x)) at the largest f of a golden-section search of [a, b] for one peak."""
    x1, x2 = b - _GOLD * (b - a), a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 >= f2 else (x2, f2)
    while b - a > _XTOL:
        if f2 > f1:  # the peak lies in [x1, b]
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLD * (b - a)
            f2 = f(x2)
            if f2 > best[1]:
                best = (x2, f2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLD * (b - a)
            f1 = f(x1)
            if f1 > best[1]:
                best = (x1, f1)
    return best


def _tv_newton(n: int, omega: float, p_max: float, box):
    """Newton's method on the tv first-order conditions, in r = ln(1 - omega)
    and s = ln(1 - p_max).

    Solves f1 = f2 = 0 of `tv_residuals` with their common factor 2u divided
    out (u = 0 is the line of minima), both times ln n:
    g1 = ln n * h - u * lnratio / 2 and g2 = ln n * h - u * ratiodiff / 2.
    Both groups' shares 1 - omega and 1 - p_max shrink as n grows, and g2
    has a pole at omega = 1; in the log coordinates the steps stay inside
    the square and 1 - p_max can reach the float limit.  Started on the
    edge p_max = 1, s starts at the root of g1 as 1 - p_max -> 0.  Returns
    (omega, p_max), or None when an iterate leaves `box` = (omega_lo,
    omega_hi, p_lo) or the steps do not settle.
    """
    w_lo, w_hi, p_lo = box
    r_lo, r_hi, s_hi = math.log1p(-w_hi), math.log1p(-w_lo), math.log1p(-p_lo)
    ln_n = math.log(n)
    r = math.log1p(-omega)
    if p_max < 1.0:
        s = math.log1p(-p_max)
    else:
        s = min(math.log(omega) - r - 2.0 * (ln_n + r) / omega, s_hi)
    for _ in range(_NEWTON_STEPS):
        v, w = math.exp(r), -math.expm1(r)
        q, p = math.exp(s), -math.expm1(s)
        u = w - q
        ln_p, ln_w = math.log1p(-q), math.log(w)
        lnratio = ln_p - r - s + ln_w
        ratiodiff = p / v - q / w
        lh = ln_n - q * (s - ln_w) - p * (ln_p - r)
        g1 = lh - 0.5 * u * lnratio
        g2 = lh - 0.5 * u * ratiodiff
        wv = w * v
        # d/dr = -v d/domega
        g1_r = v * (ratiodiff + 0.5 * (lnratio + u / wv))
        g2_r = v * (ratiodiff + 0.5 * (ratiodiff + u * (p / (v * v) + q / (w * w))))
        g1_s = q * lnratio + 0.5 * (q * lnratio + u / p)
        g2_s = q * lnratio + 0.5 * q * (ratiodiff + u / wv)
        det = g1_r * g2_s - g1_s * g2_r
        if det == 0.0:
            return None
        dr = (g2 * g1_s - g1 * g2_s) / det
        ds = (g1 * g2_r - g2 * g1_r) / det
        r += dr
        s += ds
        if not (r_lo <= r <= r_hi and s <= s_hi):
            return None
        if abs(dr) <= _NEWTON_TOL * max(1.0, -r) and abs(ds) <= _NEWTON_TOL * max(1.0, -s):
            return -math.expm1(r), -math.expm1(s)
    return None


def _box_max(kind: ComplexityKind, n: int, box):
    """(omega, p_max, c) of the peak in box = (omega_lo, omega_hi, p_lo, p_hi):
    golden sections in p_max nested in one in omega."""
    w_lo, w_hi, p_lo, p_hi = box

    def best_p(w):
        return _golden(lambda p: _c_at(kind, n, w, p), p_lo, p_hi)

    omega, _ = _golden(lambda w: best_p(w)[1], w_lo, w_hi)
    p_max, c = best_p(omega)
    return omega, p_max, c


def _continuous_max(kind: ComplexityKind, n: int):
    """(omega, p_max, c) of the largest C over the band and the p_max >= 1/2 branch.

    The cell of a coarse grid picks the peak and the grid lines next to it
    bracket it.  The kind places it: sq on the band edge omega = 1 - 1/n
    and jsd on the edge p_max = 1, each a 1-d golden-section search along
    the edge; tv inside, a Newton solve, or the bracketed search when
    Newton fails.
    """
    w_lo, w_hi = _omega_band(kind, n)
    grid = np.arange(1, _CELLS) / _CELLS
    # the band's ends and the grid lines strictly inside it, sorted and distinct
    # (np.unique would import numpy.ma, about 10 ms in a fresh process)
    ws = np.concatenate(([w_lo], grid[(grid > w_lo) & (grid < w_hi)], [w_hi]))
    ps = np.arange(_CELLS // 2, _CELLS + 1) / _CELLS  # one twin branch
    surf = kernels.family_c_grid(kind, float(n), ws[:, None], ps[None, :])
    i, j = divmod(int(np.argmax(surf)), ps.size)
    w0, p0 = float(ws[i]), float(ps[j])
    c0 = _c_at(kind, n, w0, p0)
    box = (float(ws[max(i - 1, 0)]), float(ws[min(i + 1, ws.size - 1)]),
           p0 - 1.0 / _CELLS, min(p0 + 1.0 / _CELLS, 1.0))
    if kind is ComplexityKind.SQ:
        p_max, c = _golden(lambda p: _c_at(kind, n, w_hi, p), box[2], box[3])
        omega = w_hi
    elif kind is ComplexityKind.JSD:
        omega, c = _golden(lambda w: _c_at(kind, n, w, 1.0), box[0], box[1])
        p_max = 1.0
    else:
        found = _tv_newton(n, w0, p0, box[:3])
        if found is None:
            omega, p_max, c = _box_max(kind, n, box)
        else:
            omega, p_max = found
            c = _c_at(kind, n, omega, p_max)
    if c < c0:
        return w0, p0, c0
    return omega, p_max, c


def _integer_max(kind: ComplexityKind, n: int):
    """(omega, p_max, c) of the largest C over the group counts k in [1, n - 1].

    Row k's C is 0 at p_max = 1 - k/n, and the twin map sends its side
    below that point onto row n - k's side above it, so every row is
    searched on p_max in [1 - k/n, 1] only: bracketed by a 16-cell grid,
    then one golden-section search over all rows at once.
    """
    ws = np.arange(1, n, dtype=np.int64) / float(n)
    ps = np.arange(17) / 16.0
    surf = kernels.family_c_grid(kind, float(n), ws[:, None], ps[None, :])
    floor = 1.0 - ws
    surf[ps[None, :] < floor[:, None]] = -np.inf
    j = np.argmax(surf, axis=1)
    best_p = ps[j]
    best_c = surf[np.arange(ws.size), j]

    def keep(x, fx):
        better = fx > best_c
        best_c[better] = fx[better]
        best_p[better] = x[better]

    a = np.maximum(ps[np.maximum(j - 1, 0)], floor)
    b = ps[np.minimum(j + 1, ps.size - 1)]
    x1, x2 = b - _GOLD * (b - a), a + _GOLD * (b - a)
    f = kernels.family_c_grid(kind, float(n), np.concatenate([ws, ws]), np.concatenate([x1, x2]))
    f1, f2 = f[:ws.size], f[ws.size:]
    keep(x1, f1)
    keep(x2, f2)
    # every bracket starts at most 2/16 wide and shrinks by _GOLD per step
    for _ in range(math.ceil(math.log(_XTOL * 8.0) / math.log(_GOLD))):
        up = f2 > f1  # the peak lies in [x1, b]
        a = np.where(up, x1, a)
        b = np.where(up, b, x2)
        x_new = np.where(up, a + _GOLD * (b - a), b - _GOLD * (b - a))
        f_new = kernels.family_c_grid(kind, float(n), ws, x_new)
        keep(x_new, f_new)
        x1, f1, x2, f2 = (np.where(up, x2, x_new), np.where(up, f2, f_new),
                          np.where(up, x_new, x1), np.where(up, f_new, f1))
    k = int(np.argmax(best_c))  # ties: the smallest omega
    omega, p_max = float(ws[k]), float(best_p[k])
    return omega, p_max, _c_at(kind, n, omega, p_max)


@functools.lru_cache(maxsize=128)
def maximize_family(kind: ComplexityKind, n: int, mode: str = "continuous") -> OptimumRecord:
    """Global maximum of the family complexity surface for alphabet size n.

    Continuous mode treats omega as a real parameter.  A grid of step 1/32
    over the band and the p_max >= 1/2 twin branch, which holds a twin of
    every cell of the full grid since the band is symmetric, brackets the
    peak (33 x 17 cells for jsd and tv; band edges included).  The kind
    picks the solve: a 1-d golden-section search along the edge
    omega = 1 - 1/n for sq and p_max = 1 for jsd, Newton's method on the
    stationarity conditions for tv.  The result is never below the best
    grid cell.  (For sq above n ~ 1e10 the band edge 1 - 1/n rounds in
    float, so there the branches no longer mirror each other exactly; this
    branch is the reported one.  For n from about 5.5e15 to 6e15 the rounded
    edge lies so far below 1 - 1/n that the best cell is on the lower edge
    omega = 1/n, and that cell is the result.)
    Integer mode brackets p_max for every group count k in [1, n - 1] on a
    17-point grid and refines all rows in one batched golden-section
    search.  Ties are broken toward the smaller omega: among the branch's
    grid cells (then the smaller p_max) in continuous mode, among the
    refined rows in integer mode.  The result is mapped onto the
    p_max >= 1/2 twin branch.  n obeys `check_family_size` and is at least
    3; every path sets c_star by the closed form at the returned location.
    """
    kernels._check_kind(kind)
    check_family_size(n)
    if n < 3:
        raise DimensionError("family optimization needs an alphabet of size >= 3")
    if mode not in ("continuous", "integer"):
        raise RangeError(f"unknown optimization mode {mode!r}")
    if mode == "integer" and n > 2 ** 16:  # n - 1 rows per solve
        raise RangeError(f"integer mode takes n <= 2**16, got {n}")

    if mode == "continuous":
        omega, p_max, c = _continuous_max(kind, n)
    else:
        omega, p_max, c = _integer_max(kind, n)
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
    """Optimum records for each (kind, n) pair, kind-major order; all kinds by default."""
    kinds = list(ComplexityKind) if kinds is None else kinds
    return [maximize_family(k, n, mode=mode) for k in kinds for n in ns]


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
    check_family_size(n)
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
