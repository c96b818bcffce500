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
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .complexity import ComplexityKind
from .dist import DiscreteDistribution, uniform
from .errors import AliasingError, DataShapeError, RangeError
from .kernels import rows_c
from .optimize import threshold as complexity_threshold
from .rows import round6, write_json, write_rows

TWO_PI = 2.0 * math.pi
# Largest record, in samples, that a config may describe (512 MiB of float64).
_MAX_SAMPLES = 2 ** 26
# Sample rates must be exact float64 integers: the config arithmetic is in floats.
_MAX_SAMPLE_RATE = 2 ** 53


def _check_sample_rate(sr) -> None:
    if not (isinstance(sr, (int, np.integer)) or float(sr).is_integer()):
        raise RangeError("sample rate must be an integer number of Hz")
    if not sr > 0:
        raise RangeError("sample rate must be positive")
    if not sr < _MAX_SAMPLE_RATE:
        raise RangeError("sample rate must be below 2**53 Hz")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

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

    def to_dict(self) -> dict:
        return {"amplitude": self.amplitude, "frequency": self.frequency,
                "phase": self.phase}

    @classmethod
    def from_dict(cls, d: dict) -> "HarmonicComponent":
        unknown = set(d) - {"amplitude", "frequency", "phase"}
        if unknown:
            raise RangeError(f"unknown component keys: {sorted(unknown)}")
        if "frequency" not in d:
            raise RangeError("component needs a frequency")
        return cls(amplitude=float(d.get("amplitude", 1.0)),
                   frequency=float(d["frequency"]),
                   phase=float(d.get("phase", 0.0)))


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
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if not self.duration > 0.0:
            raise RangeError("duration must be positive")
        if not self.sample_rate * self.duration <= _MAX_SAMPLES:
            raise RangeError(f"record of {self.sample_rate * self.duration:.6g} samples "
                             f"exceeds the cap of {_MAX_SAMPLES} samples")
        if self.noise_sigma < 0.0:
            raise RangeError("noise level must be >= 0")
        object.__setattr__(self, "components", tuple(self.components))
        if self.indicator_on is None:
            object.__setattr__(self, "indicator_on", (0.0, float(self.duration)))
        else:
            object.__setattr__(self, "indicator_on",
                               (float(self.indicator_on[0]), float(self.indicator_on[1])))
        t_start, t_end = self.indicator_on
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
        return sum(c.amplitude ** 2 / 2.0 for c in self.components)

    @property
    def effective_snr(self) -> float:
        """On-interval signal power over noise power; inf for a clean signal."""
        if self.noise_sigma == 0.0:
            return math.inf
        return self.signal_power / self.noise_sigma ** 2

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "duration": self.duration,
            "components": [c.to_dict() for c in self.components],
            "noise_sigma": self.noise_sigma,
            "indicator_on": list(self.indicator_on),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SignalConfig":
        allowed = {"sample_rate", "duration", "components", "noise_sigma",
                   "indicator_on", "seed"}
        unknown = set(d) - allowed
        if unknown:
            raise RangeError(f"unknown config keys: {sorted(unknown)}")
        if "sample_rate" not in d or "duration" not in d:
            raise RangeError("config needs sample_rate and duration")
        comps = tuple(HarmonicComponent.from_dict(c) for c in d.get("components", ()))
        indicator = d.get("indicator_on")
        return cls(sample_rate=d["sample_rate"], duration=float(d["duration"]),
                   components=comps, noise_sigma=float(d.get("noise_sigma", 0.0)),
                   indicator_on=None if indicator is None else tuple(indicator),
                   seed=int(d.get("seed", 0)))


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
                          phase=ph)
        for b, ph in zip(bins, phases)
    )
    if noise_sigma is None:
        if n_components == 0:
            raise RangeError("a component-free record needs an explicit noise level")
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


def synthesize(config: SignalConfig) -> np.ndarray:
    """Render the record described by `config`; reproducible given its seed.

    The cosine sum is gated by the on-interval indicator; noise (if any)
    covers the full record and is drawn from the child stream
    [config.seed, 1].
    """
    n = config.n_samples
    t = np.arange(n) / config.sample_rate
    clean = np.zeros(n)
    for comp in config.components:
        clean += comp.amplitude * np.cos(TWO_PI * comp.frequency * t + comp.phase)
    x = np.where(indicator_mask(config, n), clean, 0.0)
    if config.noise_sigma > 0.0:
        rng = np.random.default_rng([config.seed, 1])
        x = x + rng.normal(0.0, config.noise_sigma, size=n)
    return x


# ---------------------------------------------------------------------------
# spectra and windowed complexity
# ---------------------------------------------------------------------------

def spectrum_distribution(window) -> DiscreteDistribution:
    """Normalized two-sided spectrum of one window as a distribution.

    Squared DFT magnitudes over all N bins (DC included) are normalized
    to unit sum, so the distribution dimension equals the window length.
    A window of exact zeros has no spectral shape and maps to the uniform
    distribution, the zero-complexity point.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1:
        raise DataShapeError("spectrum input must be a 1-d sample window")
    n = x.size
    if n < 2 or n & (n - 1):
        raise DataShapeError("window length must be a power of two >= 2")
    power = np.abs(np.fft.fft(x)) ** 2
    total = power.sum()
    if total == 0.0:
        return uniform(n)
    return DiscreteDistribution(power / total)


@dataclass
class WindowSeries:
    """Complexity per window, stored as columns; trailing partial window dropped."""

    kind: ComplexityKind
    window_length: int
    hop: int
    threshold: float
    sample_rate: float
    t_centers: np.ndarray
    c_values: np.ndarray
    decisions: np.ndarray

    def __len__(self):
        return int(self.c_values.size)


# Windows per batch: bounds the working set at a few (chunk x N) arrays.
_CHUNK_WINDOWS = 128


def _check_record(samples, window_length) -> np.ndarray:
    """The record as a float64 array, once the window length and samples are valid.

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
    if not np.all(np.isfinite(x)):
        raise DataShapeError("input record contains non-finite samples")
    return x


def _prescale(x: np.ndarray) -> np.ndarray:
    """Scale by the power of two nearest max|x|, so |FFT|^2 cannot overflow.

    The scaling is exact in binary floating point and spectra are
    normalized, so every window's distribution is unchanged.
    """
    return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])


def _frames(x: np.ndarray, window_length: int, hop: int) -> np.ndarray:
    """Read-only (windows, window_length) view of every full window."""
    return sliding_window_view(x, window_length)[::hop]


def _mirror_sum(t: np.ndarray) -> np.ndarray:
    """Row sums over all N spectrum bins of a term given on the N/2 + 1 rfft bins.

    A real window's power spectrum is symmetric, p_k = p_{N-k}, so bins
    1 .. N/2 - 1 stand for two bins each.
    """
    return t[:, 0] + t[:, -1] + 2.0 * t[:, 1:-1].sum(axis=1)


def _batch_complexity(frames: np.ndarray, kind: ComplexityKind) -> np.ndarray:
    """C of each row of `frames` over its normalized two-sided power spectrum.

    Matches `complexity_value(spectrum_distribution(row), kind)`, with
    all-zero rows at exactly 0.
    """
    p = np.abs(np.fft.rfft(frames, axis=1))
    p *= p
    total = _mirror_sum(p)
    zero = total == 0.0
    p /= np.where(zero, 1.0, total)[:, None]
    c = rows_c(kind, p, frames.shape[1], _mirror_sum)
    c[zero] = 0.0
    return c


def complexity_series(samples, window_length: int = 2048, hop: int = None,
                      kind: ComplexityKind = ComplexityKind.TV,
                      threshold: float = None, sample_rate: float = 1.0) -> WindowSeries:
    """Slide a window over `samples`, computing one complexity per position.

    Windows start at multiples of `hop` (default: non-overlapping) and a
    trailing partial window is discarded.  Each window's decision is
    c_value > threshold; when no threshold is given, the 25%-of-maximum
    rule for the window's alphabet size is used.  Windows are processed
    in fixed-size batches, so the memory used beyond a scaled copy of the
    record stays O(batch x window_length) whatever the record length.
    """
    x = _check_record(samples, window_length)
    if hop is None:
        hop = window_length
    if not isinstance(hop, (int, np.integer)) or hop < 1:
        raise RangeError("hop must be a positive integer number of samples")
    if not sample_rate > 0.0:
        raise RangeError("sample rate must be positive")
    if threshold is None:
        threshold = complexity_threshold(kind, window_length)
    frames = _frames(_prescale(x), window_length, hop)
    c_values = np.concatenate([
        _batch_complexity(frames[i:i + _CHUNK_WINDOWS], kind)
        for i in range(0, frames.shape[0], _CHUNK_WINDOWS)])
    t_centers = (np.arange(frames.shape[0]) * hop + window_length / 2) / sample_rate
    return WindowSeries(kind=kind, window_length=window_length, hop=int(hop),
                        threshold=float(threshold), sample_rate=float(sample_rate),
                        t_centers=t_centers, c_values=c_values,
                        decisions=c_values > threshold)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

WINDOW_ON = 1
WINDOW_OFF = 0
WINDOW_MIXED = -1

_STATE_NAMES = {WINDOW_ON: "on", WINDOW_OFF: "off", WINDOW_MIXED: "mixed"}


def classify_windows(config: SignalConfig, n_samples: int, window_length: int,
                     hop: int) -> np.ndarray:
    """Sample-exact window states: fully inside the on-interval, fully outside, or mixed."""
    on_before = np.concatenate(([0], np.cumsum(indicator_mask(config, n_samples))))
    starts = np.arange((n_samples - window_length) // hop + 1) * hop
    on_count = on_before[starts + window_length] - on_before[starts]
    return np.where(on_count == window_length, WINDOW_ON,
                    np.where(on_count == 0, WINDOW_OFF, WINDOW_MIXED))


@dataclass(frozen=True)
class DetectionMetrics:
    n_windows: int
    n_on: int
    n_off: int
    n_mixed: int
    n_hit: int
    n_false_alarm: int

    @property
    def hit_rate_on_interval(self) -> float:
        return self.n_hit / self.n_on if self.n_on else math.nan

    @property
    def false_alarm_rate_off_interval(self) -> float:
        return self.n_false_alarm / self.n_off if self.n_off else math.nan


@dataclass
class DetectionReport:
    """Windowed decisions against the ground truth carried by the config."""

    config: SignalConfig
    kind: ComplexityKind
    threshold: float
    series: WindowSeries
    states: np.ndarray
    metrics: DetectionMetrics
    samples: np.ndarray  # the analysed record, for rebuilding window spectra


def detect(samples, config: SignalConfig, kind: ComplexityKind = ComplexityKind.TV,
           fraction: float = 0.25, window_length: int = 2048) -> DetectionReport:
    """Threshold the windowed complexity of `samples` against `config`'s truth.

    The threshold is `fraction` of the maximum complexity attainable at
    alphabet size `window_length`.  Only windows fully inside the
    on-interval count toward the hit rate and only fully-outside windows
    toward the false-alarm rate; windows straddling an interval edge are
    reported but excluded from both rates.
    """
    x = _check_record(samples, window_length)
    gamma = complexity_threshold(kind, window_length, fraction)
    series = complexity_series(x, window_length=window_length, hop=window_length,
                               kind=kind, threshold=gamma,
                               sample_rate=config.sample_rate)
    states = classify_windows(config, x.size, window_length, window_length)
    decisions = series.decisions
    on = states == WINDOW_ON
    off = states == WINDOW_OFF
    metrics = DetectionMetrics(
        n_windows=len(series),
        n_on=int(on.sum()),
        n_off=int(off.sum()),
        n_mixed=int((states == WINDOW_MIXED).sum()),
        n_hit=int((decisions & on).sum()),
        n_false_alarm=int((decisions & off).sum()),
    )
    return DetectionReport(config=config, kind=kind, threshold=float(gamma),
                           series=series, states=states, metrics=metrics, samples=x)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_samples(path, x, sample_rate: float = None) -> None:
    """Save a record: .csv (header 'x'), .wav (16-bit PCM mono, peak-scaled
    into [-1, 1)), or .raw/.bin/.f64 (little-endian float64)."""
    path = Path(path)
    x = np.asarray(x, dtype=np.float64)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x\n")
            fh.writelines(f"{float(v)!r}\n" for v in x)
    elif suffix == ".wav":
        if sample_rate is None:
            raise RangeError("writing WAV needs a sample rate")
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        scale = 32767.0 / peak if peak > 0.0 else 0.0
        ints = np.round(x * scale).astype("<i2")
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(int(round(sample_rate)))
            wf.writeframes(ints.tobytes())
    elif suffix in (".raw", ".bin", ".f64"):
        x.astype("<f8").tofile(path)
    else:
        raise RangeError(f"unsupported sample format {suffix!r}")


def read_samples(path):
    """Load a record; returns (x, sample_rate), rate None unless the format stores it."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "x":
                raise DataShapeError(f"expected CSV header 'x', got {header!r}")
            body = fh.read().split()
        try:
            x = np.array([float(v) for v in body])
        except ValueError as exc:
            raise DataShapeError(f"malformed sample value: {exc}") from exc
        return x, None
    if suffix == ".wav":
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2 or wf.getnchannels() != 1:
                raise DataShapeError("only mono 16-bit WAV records are supported")
            rate = float(wf.getframerate())
            frames = wf.readframes(wf.getnframes())
        return np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0, rate
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
                   map(int, series.decisions.tolist())))


def report_to_dict(report: DetectionReport, include_distributions: bool = False) -> dict:
    m = report.metrics
    series = report.series
    payload = {
        "kind": report.kind.value,
        "window_length": series.window_length,
        "threshold": round6(report.threshold),
        "config": report.config.to_dict(),
        "metrics": {
            "n_windows": m.n_windows,
            "n_on": m.n_on,
            "n_off": m.n_off,
            "n_mixed": m.n_mixed,
            "n_hit": m.n_hit,
            "n_false_alarm": m.n_false_alarm,
            "hit_rate_on_interval": (None if math.isnan(m.hit_rate_on_interval)
                                     else round6(m.hit_rate_on_interval)),
            "false_alarm_rate_off_interval": (
                None if math.isnan(m.false_alarm_rate_off_interval)
                else round6(m.false_alarm_rate_off_interval)),
        },
        "windows": [
            {
                "t_center": round6(t),
                "c_value": round6(c),
                "decision": decision,
                "state": _STATE_NAMES[state],
            }
            for t, c, decision, state in zip(
                series.t_centers.tolist(), series.c_values.tolist(),
                series.decisions.tolist(), report.states.tolist())
        ],
    }
    if include_distributions:
        frames = _frames(_prescale(report.samples), series.window_length, series.hop)
        payload["distributions"] = [
            [round6(v) for v in spectrum_distribution(frame).probs] for frame in frames
        ]
    return payload


def write_report_json(path, report: DetectionReport,
                      include_distributions: bool = False) -> None:
    write_json(path, report_to_dict(report, include_distributions))
