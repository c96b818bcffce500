"""Closed-form kernels of the complexity surfaces, in plain Python and numpy.

Kernels
-------
family_hdc(kind, n, omega, p_max)
    Closed-form (entropy factor, disequilibrium, complexity) of one
    two-level family point.  Continuous omega permitted.
family_c_grid(kind, n, omegas, p_maxes)
    Complexity surface over an (omega, p_max) grid.
simplex3_c_grid(kind, m)
    Complexity surface over the 3-state simplex lattice {(i/m, j/m)}.

Kind codes: 0 = squared-distance, 1 = Jensen-Shannon (bits), 2 = squared
total variation.  The Jensen-Shannon disequilibrium is reported in bits;
the other two are log-free, so the complexity values are base-independent.
"""

from __future__ import annotations

import math

import numpy as np

KIND_SQ = 0
KIND_JSD = 1
KIND_TV = 2

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_THIRD = 1.0 / 3.0

# Lattice rows per block of `simplex3_c_grid`: bounds its temporaries.
_SIMPLEX_ROW_CHUNK = 256


def family_hdc(kind: int, n: float, omega: float, p_max: float):
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
    if kind == KIND_SQ:
        d = (p_max + omega - 1.0) ** 2 / (n * omega * (1.0 - omega))
    elif kind == KIND_TV:
        d = (p_max + omega - 1.0) ** 2
    else:
        # mixture with the uniform reference: group masses (1-p+w)/2, (1+p-w)/2
        a = 0.5 * (1.0 - p_max + omega)
        b = 0.5 * (1.0 + p_max - omega)
        h_mix = 1.0 - (a * math.log(a / omega) + b * math.log(b / (1.0 - omega))) / ln_n
        d = (h_mix - 0.5 * (h + 1.0)) * ln_n / _LN2
    return h, d, h * d


def family_c_grid(kind: int, n: float, omegas: np.ndarray, p_maxes: np.ndarray) -> np.ndarray:
    w = np.asarray(omegas, dtype=np.float64)[:, None]
    p = np.asarray(p_maxes, dtype=np.float64)[None, :]
    ln_n = math.log(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_low = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / w), 0.0)
        t_high = np.where(p > 0.0, p * np.log(p / (1.0 - w)), 0.0)
    h = 1.0 - (t_low + t_high) / ln_n
    if kind == KIND_SQ:
        d = (p + w - 1.0) ** 2 / (n * w * (1.0 - w))
    elif kind == KIND_TV:
        d = np.broadcast_to((p + w - 1.0) ** 2, h.shape)
    else:
        a = 0.5 * (1.0 - p + w)
        b = 0.5 * (1.0 + p - w)
        h_mix = 1.0 - (a * np.log(a / w) + b * np.log(b / (1.0 - w))) / ln_n
        d = (h_mix - 0.5 * (h + 1.0)) * ln_n / _LN2
    return h * d


def simplex3_c_grid(kind: int, m: int) -> np.ndarray:
    """Surface over {(i/m, j/m): i + j <= m}; cells outside the simplex are NaN."""
    xs = np.arange(m + 1) / m
    out = np.full((m + 1, m + 1), np.nan)
    third = _THIRD
    for i0 in range(0, m + 1, _SIMPLEX_ROW_CHUNK):
        i1 = min(i0 + _SIMPLEX_ROW_CHUNK, m + 1)
        x = xs[i0:i1, None]
        y = xs[None, :]
        z = 1.0 - x - y
        valid = z >= -1e-12
        z = np.where(valid, np.maximum(z, 0.0), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            hx = np.where(x > 0.0, -x * np.log(x), 0.0)
            hy = np.where(y > 0.0, -y * np.log(y), 0.0)
            hz = np.where(z > 0.0, -z * np.log(z), 0.0)
        h_nats = hx + hy + hz
        h = h_nats / _LN3
        if kind == KIND_SQ:
            d = (x - third) ** 2 + (y - third) ** 2 + (z - third) ** 2
        elif kind == KIND_TV:
            tv = 0.5 * (np.abs(x - third) + np.abs(y - third) + np.abs(z - third))
            d = tv * tv
        else:
            mx = 0.5 * (x + third)
            my = 0.5 * (y + third)
            mz = 0.5 * (z + third)
            h_mix = -(mx * np.log(mx) + my * np.log(my) + mz * np.log(mz))
            d = (h_mix - 0.5 * (h_nats + _LN3)) / _LN2
        out[i0:i1, :] = np.where(valid, h * d, np.nan)
    return out
