"""Complexity kernels in plain Python and numpy, and the complexity kind.

Kernels
-------
rows_hd(p, n, rowsum, scratch=None, kinds=all)
    Entropy factor and the disequilibrium of each kind, per row of a table
    of n-state distributions, from one pass over the table.  A row's
    complexity is h * d[kind].  The point measures are one-row calls.
family_hdc(kind, n, omega, p_max)
    Closed-form (entropy factor, disequilibrium, complexity) of one
    two-level family point.  Continuous omega permitted.
family_c_grid(kind, n, omegas, p_maxes)
    Complexity at broadcast (omega, p_max) pairs, an outer grid or a batch
    of points: the same closed form in separable terms, with no 2-d log
    for sq and tv and two for jsd.
simplex3_c_grid(kind, m)
    Complexity surface over the 3-state simplex lattice {(i/m, j/m)}.

The Jensen-Shannon disequilibrium is reported in bits; the other two are
log-free, so the complexity values are base-independent.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import RangeError

_LN2 = math.log(2.0)
_TINY = np.finfo(np.float64).tiny

# Lattice rows per block of `simplex3_c_grid`: bounds its temporaries.
_SIMPLEX_ROW_CHUNK = 256


class ComplexityKind(enum.Enum):
    """Disequilibrium flavor used in the complexity product."""

    SQ = "sq"
    JSD = "jsd"
    TV = "tv"

    @classmethod
    def parse(cls, text: str) -> "ComplexityKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise RangeError(f"unknown complexity kind {text!r}; expected one of: {valid}")


def rows_hd(p: np.ndarray, n: int, rowsum, scratch: np.ndarray = None,
            kinds=tuple(ComplexityKind)) -> tuple:
    """The entropy factor h of each row of `p`, a table of n-state distributions,
    and the disequilibrium d of each of `kinds`: returns (h, {kind: d}).

    h is clipped to [0, 1].  The point measures (`complexity_value` and the rest)
    are one-row calls: outside the family closed forms, this is the one route
    to h and d.  A column may stand for several equal states:
    `rowsum(t)` sums a table `t` shaped like `p` over all n states of each
    row.  The kinds are taken tv, sq, then jsd, which overwrites `p`, since a
    fresh temporary per step costs more in page faults than the arithmetic.
    `scratch`, a float64 array of `p`'s shape, is overwritten in place of the
    one table-sized temporary; without it, that temporary is allocated.
    Apart from it and what `rowsum` allocates, the kernel allocates only row
    vectors.
    """
    log_n = math.log(n)
    u = 1.0 / n
    # p ln p with 0 ln 0 = 0; terms below the smallest normal float are negligible
    t = np.maximum(p, _TINY, out=scratch)
    np.log(t, out=t)
    t *= p
    h_nats = 0.0 - rowsum(t)  # not -rowsum(t), which turns a zero entropy into -0.0
    d = {}
    if ComplexityKind.TV in kinds or ComplexityKind.SQ in kinds:
        np.subtract(p, u, out=t)
        if ComplexityKind.TV in kinds:
            np.abs(t, out=t)
            d[ComplexityKind.TV] = (0.5 * rowsum(t)) ** 2
        if ComplexityKind.SQ in kinds:
            t *= t  # |p - u| squared is (p - u) squared, bit for bit
            d[ComplexityKind.SQ] = rowsum(t)
    if ComplexityKind.JSD in kinds:
        m = p  # the mixture (p + u) / 2 >= u / 2 > 0
        m += u
        m *= 0.5
        np.log(m, out=t)
        t *= m
        d[ComplexityKind.JSD] = np.maximum(-rowsum(t) - 0.5 * (h_nats + log_n), 0.0) / _LN2
    return np.clip(h_nats / log_n, 0.0, 1.0), d


def family_hdc(kind: ComplexityKind, n: float, omega: float, p_max: float):
    """Two-level family point: returns (h, d, c) with c = h * d.

    h is the normalized entropy factor; at p_max in {0, 1} the vanished
    group contributes nothing (0 log 0 := 0).  d is the disequilibrium of
    the requested kind; for the Jensen-Shannon kind it is the divergence
    from the uniform reference in bits.
    """
    ln_n = math.log(n)
    t_low = 0.0 if p_max >= 1.0 else (1.0 - p_max) * math.log((1.0 - p_max) / omega)
    t_high = 0.0 if p_max <= 0.0 else p_max * math.log(p_max / (1.0 - omega))
    h = 1.0 - (t_low + t_high) / ln_n
    if kind is ComplexityKind.SQ:
        d = (p_max + omega - 1.0) ** 2 / (n * omega * (1.0 - omega))
    elif kind is ComplexityKind.TV:
        d = (p_max + omega - 1.0) ** 2
    else:
        # mixture with the uniform reference: group masses (1-p+w)/2, (1+p-w)/2
        a = 0.5 * (1.0 - p_max + omega)
        b = 0.5 * (1.0 + p_max - omega)
        h_mix = 1.0 - (a * math.log(a / omega) + b * math.log(b / (1.0 - omega))) / ln_n
        d = (h_mix - 0.5 * (h + 1.0)) * ln_n / _LN2
    return h, d, h * d


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x with 0 ln 0 = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def family_c_grid(kind: ComplexityKind, n: float, omegas: np.ndarray, p_maxes: np.ndarray) -> np.ndarray:
    """C of `family_hdc` at the broadcast pairs of omegas and p_maxes, in separable form.

    Pass omegas[:, None] and p_maxes[None, :] for the outer grid, or two
    arrays of one shape for a batch of points; the result has their
    broadcast shape.  With l1 = ln w and l2 = ln(1 - w), the
    entropy factor is h = 1 + [l1 + p (l2 - l1) - xlx(1 - p) - xlx(p)] / ln n:
    one product and terms of w or p alone, no log of a pair.  sq and tv
    multiply h by u**2 with u = (w + p) - 1, which is exactly 0 wherever
    w + p == 1 in float.  The Jensen-Shannon divergence is xlx(w) + xlx(1 - w)
    + xlx(p) + xlx(1 - p), halved, less xlx(a) + xlx(b) for the mixture
    masses a = (1 - p + w) / 2 and b = 1 - a: the only logs of a pair.  It is
    set to 0 on the line w + p == 1.
    """
    w = np.asarray(omegas, dtype=np.float64)
    p = np.asarray(p_maxes, dtype=np.float64)
    ln_n = math.log(n)
    l1 = np.log(w)
    l2 = np.log(1.0 - w)
    q = _xlogx(1.0 - p) + _xlogx(p)
    # ln n * (1 - h), the divergence from uniform in nats
    kl = (l1 - l2) * p
    kl -= l1
    kl += q
    if kind is ComplexityKind.JSD:
        # by groups: the entropy of the mixture (masses a, b = 1 - a) less the
        # mean of those of the point (1 - p, p) and of uniform (w, 1 - w)
        a = 1.0 - p + w
        a *= 0.5
        b = 1.0 - a
        d = 0.5 * (_xlogx(w) + _xlogx(1.0 - w)) + 0.5 * q
        t = np.log(a)
        t *= a
        d -= t
        np.log(b, out=t)
        t *= b
        d -= t
        d /= _LN2
        d[w + p == 1.0] = 0.0
    else:
        d = w + p
        d -= 1.0
        d *= d
        if kind is ComplexityKind.SQ:
            d /= n * w * (1.0 - w)
    kl /= ln_n
    h = np.subtract(1.0, kl, out=kl)
    h *= d
    return h


def simplex3_c_grid(kind: ComplexityKind, m: int) -> np.ndarray:
    """Surface over {(i/m, j/m): i + j <= m}; cells outside the simplex are NaN."""
    xs = np.arange(m + 1) / m
    out = np.full((m + 1, m + 1), np.nan)
    for i0 in range(0, m + 1, _SIMPLEX_ROW_CHUNK):
        i1 = min(i0 + _SIMPLEX_ROW_CHUNK, m + 1)
        x = xs[i0:i1, None]
        y = xs[None, :]
        z = 1.0 - x - y
        inside = z >= -1e-12
        cells = np.stack(np.broadcast_arrays(x, y, np.maximum(z, 0.0)), axis=-1)[inside]
        h, d = rows_hd(cells, 3, lambda t: t[:, 0] + t[:, 1] + t[:, 2], kinds=(kind,))
        out[i0:i1][inside] = h * d[kind]
    return out
