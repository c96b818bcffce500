"""Multi-harmonic burst synthesis and complexity-based burst detection.

A record is a sum of cosine components gated by an on-interval indicator,
embedded in white Gaussian noise that runs for the whole record.  The
detector slices the record into windows, turns each window's normalized
spectrum into a probability distribution, computes its statistical
complexity, and flags windows whose complexity exceeds a threshold set
as a fixed fraction of the maximum attainable at that alphabet size.

Seeding: the config seed s expands into two independent child streams,
``[s, 0]`` for drawing random signal structure (bins and phases, see
`reference_config`) and ``[s, 1]`` for the noise, so the same structure
can be re-noised and vice versa.
"""

from __future__ import annotations

import math
import operator
import os
import reprlib
import threading
import wave
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .complexity import ComplexityKind
from .errors import AliasingError, DataShapeError, RangeError
from .kernels import rows_hd
from .optimize import threshold as complexity_threshold
from .rows import (RowList, json_float, json_floats, json_scalar, json_text, open_output,
                   round6, write_rows)

TWO_PI = 2.0 * math.pi
# Largest record, in samples, that a config may describe (512 MiB of float64).
_MAX_SAMPLES = 2 ** 26
# Sample rates must be exact float64 integers: the config arithmetic is in floats.
_MAX_SAMPLE_RATE = 2 ** 53
# A WAV header stores the rate and the byte rate (2 x rate for mono 16-bit) in
# unsigned 32-bit fields.
_MAX_WAV_RATE = 2 ** 31 - 1
# Samples per block of `synthesize` (128 KiB of float64): its work arrays stay in cache.
_SYNTH_BLOCK = 2 ** 14


def _check_sample_rate(sr) -> None:
    if not (isinstance(sr, (int, np.integer)) or float(sr).is_integer()):
        raise RangeError("sample rate must be an integer number of Hz")
    if not sr > 0:
        raise RangeError("sample rate must be positive")
    if not sr < _MAX_SAMPLE_RATE:
        raise RangeError("sample rate must be below 2**53 Hz")


def _check_seed(seed) -> None:
    if not seed >= 0:
        raise RangeError(f"seed must be >= 0, got {seed!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _from_json(d, what: str, converters: dict) -> dict:
    """The keys of the JSON object `d`, each through its converter; a RangeError
    names a key whose value the converter refuses.  Ranges are the constructor's."""
    if not isinstance(d, dict):
        raise RangeError(f"{what} must be a JSON object, got {reprlib.repr(d)}")
    if not d.keys() <= converters.keys():
        raise RangeError(f"unknown {what} keys: {sorted(d.keys() - converters.keys())}")
    values = {}
    for key, value in d.items():
        try:
            values[key] = converters[key](value)
        except (TypeError, ValueError, OverflowError):
            raise RangeError(
                f"{what} key {key!r} has a malformed value {reprlib.repr(value)}") from None
    return values


def _json_int(value) -> int:
    """A JSON integer; a float or a bool, which `int` would take, is refused."""
    if type(value) is not int:
        raise TypeError(value)
    return value


def _json_number(value, convert=float):
    """`convert(value)` for a JSON number: a bool or a string, which `float`
    would take for one, is refused."""
    if isinstance(value, (bool, str)):
        raise TypeError(value)
    return convert(value)


def _json_array(value):
    """A JSON array; `list` would take a string or an object too."""
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _interval(value, number=float):
    """A pair of times, each through `number`; None (the whole record) stays None."""
    if value is None:
        return None
    start, end = value
    return number(start), number(end)


# The converter of each key that `HarmonicComponent.from_dict`
# and `SignalConfig.from_dict` take.
_COMPONENT_KEYS = dict.fromkeys(("amplitude", "frequency", "phase"), _json_number)
_CONFIG_KEYS = {
    # operator.pos takes numbers only, and keeps an int exact
    "sample_rate": lambda value: _json_number(value, operator.pos),
    "duration": _json_number, "components": _json_array, "noise_sigma": _json_number,
    "indicator_on": lambda value: _interval(value, _json_number), "seed": _json_int}


@dataclass(frozen=True)
class HarmonicComponent:
    """One cosine: amplitude * cos(2 pi frequency t + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.frequency > 0.0 or not math.isfinite(self.frequency):
            raise RangeError("component frequency must be positive and finite")
        if self.amplitude < 0.0 or not math.isfinite(self.amplitude):
            raise RangeError("component amplitude must be finite and >= 0")
        if not math.isfinite(self.phase):
            raise RangeError("component phase must be finite")

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "HarmonicComponent":
        values = _from_json(d, "component", _COMPONENT_KEYS)
        if "frequency" not in values:
            raise RangeError("component needs a frequency")
        return cls(**{"amplitude": 1.0, **values})


@dataclass(frozen=True)
class SignalConfig:
    """Full description of one synthetic record, including its seed."""

    sample_rate: int
    duration: float
    components: tuple = ()
    noise_sigma: float = 0.0
    indicator_on: tuple = None
    seed: int = 0

    def __post_init__(self):
        _check_sample_rate(self.sample_rate)
        _check_seed(self.seed)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if not self.duration > 0.0:
            raise RangeError("duration must be positive")
        if not self.sample_rate * self.duration <= _MAX_SAMPLES:
            raise RangeError(f"record of {self.sample_rate * self.duration:.6g} samples "
                             f"exceeds the cap of {_MAX_SAMPLES} samples")
        if self.n_samples < 1:
            raise RangeError(f"record of {self.sample_rate * self.duration:.6g} samples "
                             "rounds to 0 samples")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise RangeError(f"noise level must be finite and >= 0, got {self.noise_sigma!r}")
        object.__setattr__(self, "components", tuple(self.components))
        t_start, t_end = _interval(self.indicator_on) or (0.0, float(self.duration))
        object.__setattr__(self, "indicator_on", (t_start, t_end))
        if not 0.0 <= t_start < t_end <= self.duration:
            raise RangeError("indicator interval must satisfy 0 <= start < end <= duration")
        nyquist = self.sample_rate / 2.0
        for comp in self.components:
            if not isinstance(comp, HarmonicComponent):
                raise RangeError("components must be HarmonicComponent instances")
            if comp.frequency >= nyquist:
                raise AliasingError(
                    f"component at {comp.frequency} Hz is not below the "
                    f"Nyquist rate {nyquist} Hz")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate * self.duration))

    @property
    def signal_power(self) -> float:
        # a float product overflows to inf, where ** 2 raises OverflowError
        return sum(c.amplitude * c.amplitude / 2.0 for c in self.components)

    @property
    def effective_snr(self) -> float:
        """On-interval signal power over noise power; inf for a clean signal.

        When both powers overflow to inf, the ratio is taken from each
        amplitude over the noise level, squared."""
        sigma = self.noise_sigma
        if sigma == 0.0:
            return math.inf
        snr = self.signal_power / (sigma * sigma)
        if math.isnan(snr):
            snr = sum((c.amplitude / sigma) * (c.amplitude / sigma) / 2.0
                      for c in self.components)
        return snr

    def to_dict(self) -> dict:
        return {**vars(self), "components": [c.to_dict() for c in self.components]}

    @classmethod
    def from_dict(cls, d: dict) -> "SignalConfig":
        values = _from_json(d, "config", _CONFIG_KEYS)
        if "sample_rate" not in values or "duration" not in values:
            raise RangeError("config needs sample_rate and duration")
        values["components"] = tuple(map(HarmonicComponent.from_dict, values.get("components", ())))
        return cls(**values)


def reference_config(n_components: int, seed: int = 0, sample_rate: int = 8192,
                     duration: float = 10.0, window_length: int = 2048,
                     snr: float = 1.0, indicator_on=(3.0, 7.0),
                     amplitude: float = 1.0, noise_sigma: float = None) -> SignalConfig:
    """Randomized burst configuration on a fixed experimental frame.

    Frequencies sit exactly on analysis bins: distinct bin indices are
    drawn without replacement from [16, window_length/2 - 16], keeping
    them away from DC and the Nyquist edge so no spectral spreading
    occurs.  Phases are uniform on [0, 2 pi).  When no explicit noise
    level is given it is set so the on-interval signal-to-noise ratio
    equals `snr`.
    """
    if n_components < 0:
        raise RangeError("number of components must be >= 0")
    _check_sample_rate(sample_rate)
    _check_seed(seed)
    if window_length < 64 or window_length & (window_length - 1):
        raise RangeError("window length must be a power of two >= 64")
    rng = np.random.default_rng([seed, 0])
    lo, hi = 16, window_length // 2 - 16
    if n_components > hi - lo + 1:
        raise RangeError("more components requested than admissible bins")
    bins = np.sort(rng.choice(np.arange(lo, hi + 1), size=n_components, replace=False))
    phases = rng.uniform(0.0, TWO_PI, size=n_components)
    comps = tuple(
        HarmonicComponent(amplitude=amplitude, frequency=int(b) * sample_rate / window_length,
                          phase=float(ph))
        for b, ph in zip(bins, phases)
    )
    if noise_sigma is None:
        if n_components == 0:
            raise RangeError("a component-free record needs an explicit noise level")
        if not snr > 0.0:
            raise RangeError(f"signal-to-noise ratio must be positive, got {snr!r}")
        noise_sigma = math.sqrt(n_components * amplitude ** 2 / (2.0 * snr))
    return SignalConfig(sample_rate=sample_rate, duration=duration, components=comps,
                        noise_sigma=noise_sigma, indicator_on=tuple(indicator_on),
                        seed=seed)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def indicator_mask(config: SignalConfig, n: int = None) -> np.ndarray:
    """Boolean per-sample mask of the closed on-interval."""
    n = config.n_samples if n is None else n
    t = np.arange(n) / config.sample_rate
    t_start, t_end = config.indicator_on
    return (t >= t_start) & (t <= t_end)


def _on_range(config: SignalConfig, n: int):
    """Half-open index range [lo, hi), within [0, n], of the samples that
    `indicator_mask` marks on: t_start <= i / rate <= t_end in float64.

    i / rate is correctly rounded, so it never decreases with i and the on
    samples are contiguous.  Both ends are found by bisection on the mask's
    own comparisons, so they are exact however the interval's ends round.
    """
    rate = config.sample_rate
    t_start, t_end = config.indicator_on
    return (bisect_left(range(n), t_start, key=lambda i: i / rate),
            bisect_right(range(n), t_end, key=lambda i: i / rate))


def synthesize(config: SignalConfig) -> np.ndarray:
    """Render the record described by `config`; reproducible given its seed.

    The cosine sum is gated by the on-interval indicator: it is computed
    only on the samples `indicator_mask` marks on (`_on_range`), in blocks
    of `_SYNTH_BLOCK` samples with each sample's terms summed in component
    order, and the other samples stay 0.0.  Noise (if any) covers the full
    record; it is drawn from the child stream [config.seed, 1] in one call
    and added in place, so the call holds about two record-sized arrays,
    the record and the noise.  A record that is not finite in float64, say
    from amplitudes whose sum overflows, raises RangeError.
    """
    n = config.n_samples
    lo, hi = _on_range(config, n)
    x = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as one error
        if config.components:
            term = np.empty(min(_SYNTH_BLOCK, hi - lo))
            for start in range(lo, hi, _SYNTH_BLOCK):
                stop = min(start + _SYNTH_BLOCK, hi)
                t = np.arange(start, stop) / config.sample_rate
                block, term_block = x[start:stop], term[:stop - start]
                for comp in config.components:
                    np.multiply(TWO_PI * comp.frequency, t, out=term_block)
                    term_block += comp.phase
                    np.cos(term_block, out=term_block)
                    term_block *= comp.amplitude
                    block += term_block
        if config.noise_sigma > 0.0:
            rng = np.random.default_rng([config.seed, 1])
            x += rng.normal(0.0, config.noise_sigma, size=n)
    # as in _prescale: a NaN sample makes the peak NaN, an infinite one infinite
    if n and not np.isfinite(max(x.max(), -x.min())):
        raise RangeError("the record overflows float64: the config's amplitudes "
                         "or noise level are too large")
    return x


# ---------------------------------------------------------------------------
# spectra and windowed complexity
# ---------------------------------------------------------------------------

@dataclass
class WindowSeries:
    """Complexity per window, stored as columns; trailing partial window dropped.

    `h` is each window's normalized spectral entropy, clipped to [0, 1], and
    `d` its disequilibrium of `kind`, so that `c_values` is h * d; a window of
    exact zeros, the uniform distribution, has h = 1 and d = 0.
    """

    kind: ComplexityKind
    window_length: int
    hop: int
    threshold: float
    sample_rate: float
    t_centers: np.ndarray
    c_values: np.ndarray
    decisions: np.ndarray
    h: np.ndarray
    d: np.ndarray

    def __len__(self):
        return int(self.c_values.size)


# Windows in flight at once, summed over all threads: bounds the working
# set at a few (chunk x N) arrays.
_CHUNK_WINDOWS = 128
# Fewest windows per batch when the 128 are split between threads.
_MIN_THREAD_WINDOWS = 32
# Smallest work block, in float64 values (2 MiB); see _spectrum_buffers.
_MIN_BLOCK = 1 << 18


def _check_record(samples, window_length) -> np.ndarray:
    """The record as a float64 array, prescaled (`_prescale`), once the window
    length and samples are valid.

    Raises RangeError for a window length that is not a power of two >= 4,
    and DataShapeError for a record that is not 1-d, is shorter than one
    window or holds non-finite samples.
    """
    if (not isinstance(window_length, (int, np.integer)) or window_length < 4
            or window_length & (window_length - 1)):
        raise RangeError(
            f"window length {window_length!r} must be a power of two >= 4")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise DataShapeError("input record must be 1-d")
    if x.size < window_length:
        raise DataShapeError(
            f"record of {x.size} samples is shorter than one window ({window_length})")
    return _prescale(x)


def _prescale(x: np.ndarray) -> np.ndarray:
    """Scale by the power of two nearest max|x|, so |FFT|^2 cannot overflow.

    The scaling is exact in binary floating point and spectra are
    normalized, so every window's distribution is unchanged.  The peak is
    max(x.max(), -x.min()), with no |x| copy: a NaN sample makes it NaN and
    an infinite one makes it infinite, and either raises DataShapeError.
    """
    peak = max(x.max(), -x.min())
    if not np.isfinite(peak):
        raise DataShapeError("input record contains non-finite samples")
    return np.ldexp(x, -np.frexp(peak)[1])


def _mirror_sum(t: np.ndarray) -> np.ndarray:
    """Row sums over all N spectrum bins of a term given on the N/2 + 1 rfft bins.

    A real window's power spectrum is symmetric, p_k = p_{N-k}, so bins
    1 .. N/2 - 1 stand for two bins each.
    """
    return t[:, 0] + t[:, -1] + 2.0 * t[:, 1:-1].sum(axis=1)


def _spectrum_buffers(rows: int, window_length: int, sets: int) -> list:
    """`sets` sets of work arrays for `_batch_columns` on up to `rows`
    windows: the rfft output, the power spectrum and the `rows_hd` scratch.

    All are views of one block; the scratch lies over the rfft output,
    which is spent once the power is taken.  The block holds at least
    `_MIN_BLOCK` values, and rows a call leaves unused are never touched,
    so they cost address space but no memory.  The floor is for glibc,
    which hands the top of its heap back to the system when a free leaves
    more there than twice the largest block it has unmapped.  A block
    sized to a short record's rows can put what one call frees close to
    that limit, and then whether each call faults its memory in again
    depends on the heap's history.  With a 2 MiB floor, a `detect` call
    on a 10 s record at 8192 Hz frees about 3.3 MiB against a limit of
    4 MiB.  The floor adds at most 2 MiB to the resident memory, and only
    where later allocations reuse the untouched part.
    """
    shape = (rows, window_length // 2 + 1)
    size = shape[0] * shape[1]
    block = np.empty(max(3 * size * sets, _MIN_BLOCK))
    return [(block[i:i + 2 * size].view(np.complex128).reshape(shape),
             block[i + 2 * size:i + 3 * size].reshape(shape),
             block[i:i + size].reshape(shape))
            for i in range(0, 3 * size * sets, 3 * size)]


def _batch_columns(frames: np.ndarray, kinds, buffers, spectra=None) -> tuple:
    """(h, {kind: d}) of each row of `frames` over its normalized two-sided power
    spectrum, for each of `kinds` (`kernels.rows_hd`).

    h * d[kind] matches `complexity_value(p, kind)` of the row's normalized
    N-bin power spectrum p; an all-zero row is uniform, with h = 1 and d = 0.
    The spectrum is taken on the N/2 + 1 rfft bins.  `buffers`, one set from
    `_spectrum_buffers` for at least as many rows, holds the table-sized work,
    so the call itself allocates only row vectors.  `spectra`, if given, an
    array of the rows' shape on the rfft bins, receives the normalized
    spectra, an all-zero row as uniform.
    """
    rows, window_length = frames.shape
    spectrum, p, scratch = (b[:rows] for b in buffers)
    np.fft.rfft(frames, axis=1, out=spectrum)
    np.abs(spectrum, out=p)
    p *= p
    total = _mirror_sum(p)
    zero = total == 0.0
    p /= np.where(zero, 1.0, total)[:, None]
    if spectra is not None:
        spectra[...] = p
        spectra[zero] = 1.0 / window_length
    h, d = rows_hd(p, window_length, _mirror_sum, scratch, kinds)
    h[zero] = 1.0
    for column in d.values():
        column[zero] = 0.0
    return h, d


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def complexity_series(samples, window_length: int = 2048, hop: int = None,
                      kind: ComplexityKind = ComplexityKind.TV,
                      threshold: float = None, sample_rate: float = 1.0) -> WindowSeries:
    """Slide a window over `samples`, computing one complexity per position.

    Windows start at multiples of `hop` (default: non-overlapping) and a
    trailing partial window is discarded.  Each window's decision is
    c_value > threshold; when no threshold is given, the 25%-of-maximum
    rule for the window's alphabet size is used.  Windows are processed
    in batches on every usable CPU.  At most 128 windows are in flight in
    total, whatever the number of threads, so the memory used during a call
    beyond a scaled copy of the record and the output columns stays
    O(128 x window_length) whatever the record length.  The values do not
    depend on the number of threads.  A record of at most 2**18 samples
    (2 MiB) gets the columns of every kind from one spectrum pass, and
    between calls one such scaled record and its four columns (h and each
    kind's d, one value per window) are kept: a later call on the same
    record, or one scaled by a power of two, with the same window length and
    hop, of any kind, does not transform it again.  `sample_rate`, which
    sets `t_centers`, must be finite and positive (RangeError otherwise).
    """
    x = _check_record(samples, window_length)
    if hop is None:
        hop = window_length
    if not isinstance(hop, (int, np.integer)) or isinstance(hop, bool) or hop < 1:
        raise RangeError("hop must be a positive integer number of samples")
    window_length, hop = int(window_length), int(hop)
    if not 0.0 < sample_rate < math.inf:
        raise RangeError(f"sample rate must be finite and positive, got {sample_rate!r}")
    if threshold is None:
        threshold = complexity_threshold(kind, window_length)
    return _window_series(x, window_length, hop, kind, threshold, sample_rate)


def _live_windows(rows: np.ndarray, hop: int) -> tuple:
    """The range [lo, hi) of `rows`, windows `hop` samples apart, from the first to
    the last window that holds a nonzero sample; lo == hi when none does.

    When the first and the last window both start with a nonzero sample, that
    is the whole range, at the cost of two reads.  Otherwise the rows' samples
    are searched once: each row's first min(hop, N) samples, then the rest of
    the last row.  That span holds every sample of the rows and none twice,
    and in it row k covers [k * step, k * step + N).
    """
    if rows[0, 0] and rows[-1, 0]:
        return 0, len(rows)
    head = rows[:, :hop]
    step = head.shape[1]
    nonzero = np.flatnonzero(np.concatenate((head.ravel(), rows[-1, step:])))
    if not nonzero.size:
        return 0, 0
    return (max(0, (nonzero[0] - rows.shape[1]) // step + 1),
            min(len(rows), nonzero[-1] // step + 1))


def _transform(frames: np.ndarray, hop: int, kinds, spectra=None) -> tuple:
    """(h, {kind: d}) of every row of `frames`, windows `hop` samples apart, for each
    of `kinds`; `spectra`, if given, receives the rows' spectra (`_batch_columns`).

    A record of more than one chunk runs on one thread per usable CPU: the
    calling thread and the workers of a `concurrent.futures` pool.  The pool
    is shut down before the call returns, which raises the first error of the
    calling thread, or else of a worker, once every thread has ended.  numpy
    releases the interpreter lock in the FFT and the elementwise steps.  The
    threads take chunks of consecutive windows in turn until none is left, so
    a thread on a busy core takes fewer of them, and no thread waits on
    another for more than one chunk.  Each thread's buffers are allocated
    here, before any thread starts, so the threads allocate no table-sized
    array: a thread's own allocations would stay in its own malloc arena and
    raise the peak resident memory.

    A window of exact zeros is uniform, with h = 1 and d = 0, so only the
    windows of a chunk from its first to its last one with a nonzero sample
    (`_live_windows`) are transformed; the others keep those values with no
    FFT.  Silent windows between live ones, and windows whose power
    underflows to zero, get them from `_batch_columns`.
    """
    n_windows, window_length = frames.shape
    threads = 1
    if n_windows > _CHUNK_WINDOWS:
        threads = min(_usable_cpus(), _CHUNK_WINDOWS // _MIN_THREAD_WINDOWS)
    chunk = _CHUNK_WINDOWS // threads
    buffers = _spectrum_buffers(min(chunk, n_windows), window_length, threads)
    h = np.ones(n_windows)
    d = {kind: np.zeros(n_windows) for kind in kinds}
    starts = iter(range(0, n_windows, chunk))
    claim = threading.Lock()

    def run_chunks(thread):
        while True:
            with claim:
                i = next(starts, None)
            if i is None:
                return
            lo, hi = (i + k for k in _live_windows(frames[i:min(i + chunk, n_windows)], hop))
            if lo < hi:
                h[lo:hi], d_rows = _batch_columns(frames[lo:hi], kinds, buffers[thread],
                                                  None if spectra is None else spectra[lo:hi])
                for kind, rows in d_rows.items():
                    d[kind][lo:hi] = rows

    with ThreadPoolExecutor(max(threads - 1, 1)) as pool:
        workers = [pool.submit(run_chunks, thread) for thread in range(1, threads)]
        run_chunks(0)
    for worker in workers:
        worker.result()
    return h, d


# The last record's columns: (prescaled record, window length, hop, h, {kind: d}),
# or None.  Replaced whole, never changed in place, so a concurrent call sees one
# entry or the other.
_memo = None


def _window_series(x: np.ndarray, window_length: int, hop: int, kind: ComplexityKind,
                   threshold: float, sample_rate: float, spectra=None) -> WindowSeries:
    """The engine of `complexity_series`, on arguments it has validated: a checked,
    prescaled record `x` and a finite positive rate; `spectra` as in `_transform`.

    A record of at most `_MIN_BLOCK` samples, the resident overhead the work
    block already allows, is transformed once for every kind and kept in
    `_memo`; a later call on a bit-identical record with the same window length
    and hop only copies its columns out.  A call with `spectra` always
    transforms, since the memo keeps no spectra.  A longer record is
    transformed for `kind` alone and not kept.  On a miss, the old entry is
    dropped before the work buffers are allocated.
    """
    global _memo
    memo = _memo
    if (spectra is None and memo is not None and memo[1:3] == (window_length, hop)
            and np.array_equal(memo[0].view(np.int64), x.view(np.int64))):
        h, d = memo[3].copy(), memo[4][kind].copy()
    else:
        _memo = None
        kept = x.size <= _MIN_BLOCK
        h, columns = _transform(sliding_window_view(x, window_length)[::hop], hop,
                                tuple(ComplexityKind) if kept else (kind,), spectra)
        d = columns[kind]
        if kept:
            _memo = (x, window_length, hop, h, columns)
            h, d = h.copy(), d.copy()
    c_values = h * d
    t_centers = (np.arange(c_values.size) * hop + window_length / 2) / sample_rate
    return WindowSeries(kind=kind, window_length=window_length, hop=hop,
                        threshold=float(threshold), sample_rate=float(sample_rate),
                        t_centers=t_centers, c_values=c_values,
                        decisions=c_values > threshold, h=h, d=d)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

WINDOW_ON = 1
WINDOW_OFF = 0
WINDOW_MIXED = -1

_STATE_JSON = {WINDOW_ON: '"on"', WINDOW_OFF: '"off"', WINDOW_MIXED: '"mixed"'}


def classify_windows(config: SignalConfig, n_samples: int, window_length: int,
                     hop: int) -> np.ndarray:
    """Sample-exact window states (fully on, fully off or mixed) from each window's
    overlap with `_on_range`, the samples that `indicator_mask` marks on."""
    lo, hi = _on_range(config, n_samples)
    starts = np.arange((n_samples - window_length) // hop + 1) * hop
    on_count = np.minimum(starts + window_length, hi) - np.maximum(starts, lo)
    return np.where(on_count >= window_length, WINDOW_ON,
                    np.where(on_count <= 0, WINDOW_OFF, WINDOW_MIXED))


@dataclass(frozen=True)
class DetectionMetrics:
    """Window counts per state and decision, and the mean C of the on and
    off windows; a rate or mean over an empty class is NaN."""

    n_windows: int
    n_on: int
    n_off: int
    n_mixed: int
    n_hit: int
    n_false_alarm: int
    mean_c_on: float
    mean_c_off: float

    STATISTICS = ("hit_rate_on_interval", "false_alarm_rate_off_interval",
                  "mean_c_on", "mean_c_off")

    @property
    def hit_rate_on_interval(self) -> float:
        return self.n_hit / self.n_on if self.n_on else math.nan

    @property
    def false_alarm_rate_off_interval(self) -> float:
        return self.n_false_alarm / self.n_off if self.n_off else math.nan

    def to_dict(self) -> dict:
        """The counts, then `STATISTICS` to 6 significant digits (None for an empty class)."""
        out = {k: v for k, v in vars(self).items() if k not in self.STATISTICS}
        for name in self.STATISTICS:
            value = getattr(self, name)
            out[name] = None if math.isnan(value) else round6(value)
        return out


@dataclass
class DetectionReport:
    """Windowed decisions against the config's ground truth; kind and threshold are the
    series'.  `distributions`: each window's N/2 + 1 bins from `_batch_columns`, or None."""

    config: SignalConfig
    series: WindowSeries
    states: np.ndarray
    metrics: DetectionMetrics
    distributions: np.ndarray = None


def detect(samples, config: SignalConfig, kind: ComplexityKind = ComplexityKind.TV,
           fraction: float = 0.25, window_length: int = 2048,
           include_distributions: bool = False) -> DetectionReport:
    """Threshold the windowed complexity of `samples` against `config`'s truth.

    The threshold is `fraction` of the maximum complexity attainable at
    alphabet size `window_length`.  Only windows fully inside the
    on-interval count toward the hit rate and only fully-outside windows
    toward the false-alarm rate; windows straddling an interval edge are
    reported but excluded from both rates.  `include_distributions` keeps the
    engine's spectra in the report, a window of zeros as uniform.
    """
    x = _check_record(samples, window_length)
    window_length = int(window_length)
    gamma = complexity_threshold(kind, window_length, fraction)
    distributions = None
    if include_distributions:
        # silent windows are not transformed, and keep the uniform distribution
        distributions = np.full(((x.size - window_length) // window_length + 1,
                                 window_length // 2 + 1), 1.0 / window_length)
    series = _window_series(x, window_length, window_length, kind, gamma,
                            config.sample_rate, distributions)
    states = classify_windows(config, x.size, window_length, window_length)
    decisions = series.decisions
    c = series.c_values
    on = states == WINDOW_ON
    off = states == WINDOW_OFF
    metrics = DetectionMetrics(
        n_windows=len(series),
        n_on=int(on.sum()),
        n_off=int(off.sum()),
        n_mixed=int((states == WINDOW_MIXED).sum()),
        n_hit=int((decisions & on).sum()),
        n_false_alarm=int((decisions & off).sum()),
        mean_c_on=float(c[on].mean()) if on.any() else math.nan,
        mean_c_off=float(c[off].mean()) if off.any() else math.nan,
    )
    return DetectionReport(config=config, series=series, states=states, metrics=metrics,
                           distributions=distributions)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def check_sample_output(path, sample_rate: float = None) -> str:
    """The lower-case suffix of `path`, once `write_samples` can write a record there at
    `sample_rate`; RangeError for an unsupported suffix, and for a .wav path without
    a rate or with one outside [1, 2**31 - 1] Hz."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".csv", ".wav", ".raw", ".bin", ".f64"):
        raise RangeError(f"unsupported sample format {suffix!r}")
    if suffix == ".wav":
        if sample_rate is None:
            raise RangeError("writing WAV needs a sample rate")
        rate = int(round(sample_rate))
        if not 0 < rate <= _MAX_WAV_RATE:
            raise RangeError(f"a WAV sample rate must lie in [1, {_MAX_WAV_RATE}] Hz, "
                             f"got {rate}")
    return suffix


def write_samples(path, x, sample_rate: float = None) -> None:
    """Save a record: .csv (header 'x'), .wav (16-bit PCM mono, peak-scaled
    into [-1, 1), at a rate of at most 2**31 - 1 Hz; a non-finite sample raises
    DataShapeError), or .raw/.bin/.f64 (little-endian float64).  The format
    and rate are checked (`check_sample_output`) before the file is opened."""
    suffix = check_sample_output(path, sample_rate)
    path = Path(path)
    x = np.asarray(x, dtype=np.float64)
    if suffix == ".csv":
        with open_output(path) as fh:
            fh.write("x\n")
            fh.writelines(f"{float(v)!r}\n" for v in x)
    elif suffix == ".wav":
        peak = max(x.max(), -x.min()) if x.size else 0.0
        if not np.isfinite(peak):
            raise DataShapeError(f"{path.name}: a WAV record must hold finite samples")
        scale = 32767.0 / peak if peak > 0.0 else 0.0
        ints = np.round(x * scale).astype("<i2")
        with open_output(path, binary=True) as fh, wave.open(fh, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(int(round(sample_rate)))
            wf.writeframes(ints.tobytes())
    else:
        with open_output(path, binary=True) as fh:
            x.astype("<f8").tofile(fh)


def read_samples(path):
    """Load a record; returns (x, sample_rate), rate None unless the format stores it."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip()
                if header != "x":
                    raise DataShapeError(f"expected CSV header 'x', got {header!r}")
                body = fh.read().split()
        except UnicodeDecodeError:  # a ValueError, which the CLI would map to a config error
            raise DataShapeError(f"{path.name}: sample CSV is not UTF-8 text") from None
        try:
            x = np.array([float(v) for v in body])
        except ValueError as exc:
            raise DataShapeError(f"malformed sample value: {exc}") from exc
        return x, None
    if suffix == ".wav":
        try:
            with wave.open(str(path), "rb") as wf:
                if wf.getsampwidth() != 2 or wf.getnchannels() != 1:
                    raise DataShapeError("only mono 16-bit WAV records are supported")
                rate = float(wf.getframerate())
                frames = wf.readframes(wf.getnframes())
                if len(frames) != 2 * wf.getnframes():
                    raise DataShapeError(f"{path.name}: WAV data ends before its last frame")
        except (wave.Error, EOFError) as exc:
            raise DataShapeError(
                f"{path.name}: malformed WAV file ({str(exc) or 'truncated'})") from None
        # one conversion pass; a product by 2**-15 is exact, as the division by 32768 was
        ints = np.frombuffer(frames, dtype="<i2")
        return np.multiply(ints, 2.0 ** -15, dtype=np.float64), rate
    if suffix in (".raw", ".bin", ".f64"):
        size = path.stat().st_size
        if size % 8:
            raise DataShapeError(
                f"{path.name}: {size} bytes is not a whole number of float64 samples")
        return np.fromfile(path, dtype="<f8"), None
    raise RangeError(f"unsupported sample format {suffix!r}")


def write_series_csv(path, series: WindowSeries) -> None:
    """Per-window rows t_center, c_value, decision (0/1); CSV, or JSON for a .json path."""
    write_rows(path, ("t_center", "c_value", "decision"),
               zip(series.t_centers.tolist(), series.c_values.tolist(),
                   series.decisions.view(np.int8).tolist()))


# The layout of `json.dumps(document, indent=2)` for a report's document: each
# field takes its value's JSON text, a list laid out (`rows.RowList`) at its
# nesting, and `distributions` is empty or the member that follows "windows".
# The keys are those of `SignalConfig.to_dict` and `DetectionMetrics.to_dict`,
# in their order.
_REPORT_JSON = """\
{{
  "kind": {kind},
  "window_length": {window_length},
  "threshold": {threshold},
  "config": {{
    "sample_rate": {sample_rate},
    "duration": {duration},
    "components": {components},
    "noise_sigma": {noise_sigma},
    "indicator_on": [
      {t_start},
      {t_end}
    ],
    "seed": {seed}
  }},
  "metrics": {{
    "n_windows": {n_windows},
    "n_on": {n_on},
    "n_off": {n_off},
    "n_mixed": {n_mixed},
    "n_hit": {n_hit},
    "n_false_alarm": {n_false_alarm},
    "hit_rate_on_interval": {hit_rate_on_interval},
    "false_alarm_rate_off_interval": {false_alarm_rate_off_interval},
    "mean_c_on": {mean_c_on},
    "mean_c_off": {mean_c_off}
  }},
  "windows": {windows}{distributions}
}}
"""
_WINDOW_KEYS = ("t_center", "c_value", "decision", "state")
_JSON_BOOLS = ("false", "true")


def _encoded(column):
    """The column encoder of a column of JSON texts encoded in advance."""
    return column


def _mirrored_texts(half) -> list:
    """The JSON texts of a window's N bins from its N/2 + 1 bins `half`: bins
    1 .. N/2 - 1 again, mirrored out to bins N - 1 .. N/2 + 1, reuse their texts."""
    texts = json_floats(half.tolist())
    return texts + texts[-2:0:-1]


def write_report_json(path, report: DetectionReport) -> None:
    """Write the JSON document of `report` to `path`, byte for byte as `json.dump(indent=2)`
    of it as a dict would, in one write and without building that dict.  Its
    `"distributions"`, present when the report holds them, are the N/2 + 1 bins
    with bins 1 .. N/2 - 1 mirrored out to N bins.

    The document is laid out from one template (`_REPORT_JSON`), filled from
    the header scalars, the config's scalars and the metrics, each through
    `json_scalar`, and from its lists, laid out from row templates
    (`rows.RowList`).  The window columns are encoded in advance, each float
    column in one pass (`json_floats`); each window's distribution is encoded
    as the list reads it, over its N/2 + 1 bins, whose texts the mirrored
    bins reuse.  So window and distribution floats are rounded by `round6`;
    component floats are written in full, so that the config echo loads back
    to the same config.
    """
    series = report.series
    config = report.config
    keys = tuple(_COMPONENT_KEYS)
    components = RowList(keys, map(operator.attrgetter(*keys), config.components),
                         (partial(map, json_scalar),) * len(keys))
    decisions = map(_JSON_BOOLS.__getitem__, series.decisions.view(np.int8).tolist())
    states = map(_STATE_JSON.__getitem__, report.states.tolist())
    windows = RowList(_WINDOW_KEYS, zip(json_floats(series.t_centers.tolist()),
                                        json_floats(series.c_values.tolist()),
                                        decisions, states), (_encoded,) * len(_WINDOW_KEYS))
    distributions = ""
    if report.distributions is not None:
        rows = RowList(None, map(_mirrored_texts, report.distributions),
                       (_encoded,) * series.window_length)
        distributions = ',\n  "distributions": ' + json_text(rows, 1)
    t_start, t_end = config.indicator_on
    metrics = {key: json_scalar(value) for key, value in report.metrics.to_dict().items()}
    text = _REPORT_JSON.format(
        kind=json_scalar(series.kind.value), window_length=json_scalar(series.window_length),
        threshold=json_float(series.threshold), sample_rate=json_scalar(config.sample_rate),
        duration=json_scalar(config.duration), components=json_text(components, 2),
        noise_sigma=json_scalar(config.noise_sigma), t_start=json_scalar(t_start),
        t_end=json_scalar(t_end), seed=json_scalar(config.seed), **metrics,
        windows=json_text(windows, 1), distributions=distributions)
    with open_output(path) as fh:
        fh.write(text)
