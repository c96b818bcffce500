"""Reference values computed from the paper's definitions with numpy alone.

Nothing here imports statcomplex. The benchmark checks the program's
outputs against these values, against the published tables and against
properties of the method, never against stored program output.

Definitions used:

- A window's spectrum is the squared DFT magnitude over all N bins,
  normalized to sum to 1. An all-zero window is the uniform spectrum.
- H = -sum p ln p / ln N, with 0 ln 0 = 0.
- sq: D = sum (p - 1/N)^2.  jsd: D = JSD(p, u) in bits.  tv: D = TV(p, u)^2.
- C = H * D.
- The two-level family puts mass 1 - p on k equal cells and p on the
  other n - k equal cells; k may be real (k = omega * n).
"""

from __future__ import annotations

import math
import wave

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

KINDS = ("sq", "jsd", "tv")
LN2 = math.log(2.0)

# Published optimum tables: kind -> n -> (c*, p_max*, omega*).
PUBLISHED = {
    "sq": {3: (0.1932, 0.8315, 0.6666), 256: (0.1994, 0.7044, 0.9960),
           512: (0.1942, 0.7008, 0.9980), 1024: (0.1898, 0.6979, 0.9990),
           2048: (0.1861, 0.6955, 0.9995)},
    "jsd": {3: (0.1266, 1.0, 0.4083), 256: (0.4482, 1.0, 0.8703),
            512: (0.4790, 1.0, 0.8897), 1024: (0.5065, 1.0, 0.9051),
            2048: (0.5312, 1.0, 0.9171)},
    "tv": {3: (0.1289, 0.8241, 0.6751), 256: (0.4789, 0.9976, 0.8752),
           512: (0.5120, 0.9991, 0.8901), 1024: (0.5410, 0.9997, 0.9022),
           2048: (0.5667, 0.9999, 0.9122)},
}
# Published 25%-of-maximum detection thresholds at N = 2048.
PUBLISHED_THRESHOLD_2048 = {"sq": 0.0465, "jsd": 0.1328, "tv": 0.1417}

WINDOW_STATES = {1: "on", 0: "off", -1: "mixed"}


def xlogx(p):
    """Elementwise p ln p with 0 ln 0 = 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def complexity_rows(p, n):
    """C of each row of `p`, a distribution over n states: {kind: array}."""
    u = 1.0 / n
    h_nats = -xlogx(p).sum(axis=-1)
    dev = p - u
    mix_nats = -xlogx(0.5 * (p + u)).sum(axis=-1)
    d = {"sq": (dev * dev).sum(axis=-1),
         "jsd": (mix_nats - 0.5 * (h_nats + math.log(n))) / LN2,
         "tv": (0.5 * np.abs(dev).sum(axis=-1)) ** 2}
    h = h_nats / math.log(n)
    return {kind: h * d[kind] for kind in KINDS}


def window_spectra(x, n, hop, chunk=64):
    """Yield (p, zero) per chunk of windows: normalized spectra and all-zero flags."""
    frames = sliding_window_view(np.asarray(x, dtype=np.float64), n)[::hop]
    for i0 in range(0, frames.shape[0], chunk):
        power = np.abs(np.fft.fft(frames[i0:i0 + chunk], axis=1)) ** 2
        total = power.sum(axis=1, keepdims=True)
        zero = total[:, 0] == 0.0
        p = np.where(zero[:, None], 1.0 / n, power / np.where(zero, 1.0, total[:, 0])[:, None])
        yield p, zero


def window_complexity(x, n, hop):
    """C of every full window ({kind: array}) and the mask of all-zero windows."""
    parts, zeros = {kind: [] for kind in KINDS}, []
    for p, zero in window_spectra(x, n, hop):
        c = complexity_rows(p, n)
        for kind in KINDS:
            c[kind][zero] = 0.0
            parts[kind].append(c[kind])
        zeros.append(zero)
    return {kind: np.concatenate(parts[kind]) for kind in KINDS}, np.concatenate(zeros)


def window_distributions(x, n, hop):
    """Normalized spectra of every full window, one row per window."""
    return np.concatenate([p for p, _ in window_spectra(x, n, hop)])


def window_states(n_samples, rate, n, hop, t_on):
    """1 for windows inside the closed on-interval, 0 outside it, -1 across its edge."""
    starts = np.arange((n_samples - n) // hop + 1) * hop
    first, last = starts / rate, (starts + n - 1) / rate
    t_start, t_end = t_on
    inside = (first >= t_start) & (last <= t_end)
    outside = (last < t_start) | (first > t_end)
    return np.where(inside, 1, np.where(outside, 0, -1))


def read_record(path):
    """Samples of a .f64 (little-endian float64) or 16-bit mono .wav file."""
    path = str(path)
    if path.endswith(".wav"):
        with wave.open(path, "rb") as wf:
            if wf.getsampwidth() != 2 or wf.getnchannels() != 1:
                raise ValueError(f"{path}: expected 16-bit mono WAV")
            frames = wf.readframes(wf.getnframes())
        return np.frombuffer(frames, dtype="<i2").astype(np.float64)
    return np.fromfile(path, dtype="<f8")


# ---------------------------------------------------------------------------
# the two-level family
# ---------------------------------------------------------------------------

def two_level(kind, n, k, p):
    """C of the two-level distribution from its group sums; broadcasts k and p."""
    k = np.asarray(k, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    low, high, u = (1.0 - p) / k, p / (n - k), 1.0 / n
    h_nats = -(k * xlogx(low) + (n - k) * xlogx(high))
    if kind == "sq":
        d = k * (low - u) ** 2 + (n - k) * (high - u) ** 2
    elif kind == "tv":
        d = (0.5 * (k * np.abs(low - u) + (n - k) * np.abs(high - u))) ** 2
    else:
        mix_nats = -(k * xlogx(0.5 * (low + u)) + (n - k) * xlogx(0.5 * (high + u)))
        d = (mix_nats - 0.5 * (h_nats + math.log(n))) / LN2
    return h_nats / math.log(n) * d


def integer_grid_max(kind, n, p_step=1e-3, rows=64):
    """Largest C over every group count k in [1, n-1] and p on a grid of step p_step."""
    ps = np.arange(int(round(1.0 / p_step)) + 1) * p_step
    best = -math.inf
    for k0 in range(1, n, rows):
        ks = np.arange(k0, min(k0 + rows, n), dtype=np.float64)[:, None]
        best = max(best, float(two_level(kind, n, ks, ps[None, :]).max()))
    return best


def continuous_max(kind, n, points=201, zooms=12):
    """Maximum of C over real omega and p, by a grid refined around its best cell.

    The sq kind is searched over omega in [1/n, 1 - 1/n], the range integer
    group counts realize, since its closed form is unbounded outside it.
    """
    lo, hi = (1.0 / n, 1.0 - 1.0 / n) if kind == "sq" else (1e-9, 1.0 - 1e-9)
    ws, ps = np.linspace(lo, hi, points), np.linspace(0.0, 1.0, points)
    for _ in range(zooms):
        c = two_level(kind, n, n * ws[:, None], ps[None, :])
        i, j = np.unravel_index(int(np.argmax(c)), c.shape)
        best, dw, dp = float(c[i, j]), ws[1] - ws[0], ps[1] - ps[0]
        ws = np.linspace(max(lo, ws[i] - 2 * dw), min(hi, ws[i] + 2 * dw), 41)
        ps = np.linspace(max(0.0, ps[j] - 2 * dp), min(1.0, ps[j] + 2 * dp), 41)
    return best


def simplex3(kind, x, y):
    """C of the 3-state distribution (x, y, 1 - x - y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = np.stack([x, y, np.maximum(1.0 - x - y, 0.0)], axis=-1)
    return complexity_rows(p, 3)[kind]


# ---------------------------------------------------------------------------
# rounding as written by the program's files
# ---------------------------------------------------------------------------

def round_sig(v, digits=6):
    """Round to `digits` significant digits, as '%.6g' does."""
    v = np.asarray(v, dtype=np.float64)
    mag = np.abs(v)
    exp = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    scale = 10.0 ** (digits - 1 - exp)
    return np.where(mag > 0.0, np.round(v * scale) / scale, 0.0)


def rounded_match(written, exact, digits=6, boundary=1e-9, floor=1e-12):
    """Mask of written values equal to `exact` rounded to `digits` digits.

    Where `exact` lies within `boundary` (relative) of a rounding boundary
    either neighbour is accepted; below `floor` in absolute difference any
    value is accepted, since such values are zero up to rounding.
    """
    written = np.asarray(written, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    ok = np.abs(written - exact) <= floor
    for e in (exact * (1.0 - boundary), exact * (1.0 + boundary)):
        r = round_sig(e, digits)
        ok |= np.abs(written - r) <= 1e-12 * np.abs(r)
    return ok
