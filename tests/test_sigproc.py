import contextlib
import dataclasses
import json
import math
import re
import sys
import threading
import wave
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from scalar_reference import (indicator_mask, report_to_dict, scalar_complexity,
                              scalar_disequilibrium, scalar_entropy, spectrum_distribution)
from statcomplex import (
    AliasingError,
    ComplexityKind,
    DataShapeError,
    HarmonicComponent,
    RangeError,
    SignalConfig,
    classify_windows,
    complexity_series,
    detect,
    maximize_family,
    read_samples,
    reference_config,
    synthesize,
    threshold,
    uniform,
    write_report_json,
    write_samples,
    write_series_csv,
)
from statcomplex import rows, sigproc
from statcomplex.sigproc import WINDOW_MIXED, WINDOW_OFF, WINDOW_ON

TV = ComplexityKind.TV
SQ = ComplexityKind.SQ
JSD = ComplexityKind.JSD
N = 2048


@pytest.fixture(autouse=True)
def _empty_series_memo():
    # each test starts as a fresh process does: its first series call transforms
    sigproc._memo = None


def _one_batch(frames, kind):
    """C of one batch over all of `frames`, for `kind` alone."""
    h, d = sigproc._batch_columns(frames, (kind,), sigproc._spectrum_buffers(len(frames), N, 1)[0])
    return h * d[kind]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(AliasingError):
        SignalConfig(sample_rate=8192, duration=1.0,
                     components=(HarmonicComponent(1.0, 4096.0),))
    for sigma in (-0.5, math.nan, math.inf):
        with pytest.raises(RangeError, match="noise level must be finite and >= 0"):
            SignalConfig(sample_rate=8192, duration=1.0, noise_sigma=sigma)
    with pytest.raises(RangeError):
        SignalConfig(sample_rate=8192, duration=1.0, indicator_on=(0.5, 2.0))
    with pytest.raises(RangeError):
        SignalConfig(sample_rate=8000.5, duration=1.0)
    with pytest.raises(RangeError):
        HarmonicComponent(1.0, -10.0)
    for phase in (math.nan, math.inf):
        with pytest.raises(RangeError, match="component phase must be finite"):
            HarmonicComponent(1.0, 10.0, phase)


def test_config_record_length_cap():
    assert SignalConfig(sample_rate=8192, duration=2 ** 26 / 8192).n_samples == 2 ** 26
    for duration, count in ((2 ** 26 / 8192 + 1.0, "6.71171e+07"), (1e9, "8.192e+12"),
                            (math.inf, "inf")):
        message = f"record of {count} samples exceeds the cap of {2 ** 26} samples"
        with pytest.raises(RangeError, match=re.escape(message)):
            SignalConfig(sample_rate=8192, duration=duration)


def test_config_refuses_zero_samples():
    assert SignalConfig(sample_rate=3, duration=0.5).n_samples == 2
    assert SignalConfig(sample_rate=8192, duration=1 / 8192).n_samples == 1
    for rate, duration, count in ((3, 0.1, "0.3"), (1, 0.5, "0.5"), (8192, 1e-300, "8.192e-297")):
        message = f"record of {count} samples rounds to 0 samples"
        with pytest.raises(RangeError, match=re.escape(message)):
            SignalConfig(sample_rate=rate, duration=duration)


def test_config_defaults_and_properties():
    cfg = SignalConfig(sample_rate=8192, duration=10.0,
                       components=(HarmonicComponent(2.0, 100.0),),
                       noise_sigma=1.0)
    assert cfg.indicator_on == (0.0, 10.0)
    assert cfg.n_samples == 81920
    assert cfg.signal_power == 2.0
    assert cfg.effective_snr == 2.0
    clean = SignalConfig(sample_rate=8192, duration=1.0)
    assert clean.effective_snr == math.inf
    # squares past 1.3e154 overflow to inf and do not raise
    loud = SignalConfig(sample_rate=8192, duration=1.0,
                        components=(HarmonicComponent(1e200, 100.0),), noise_sigma=1.0)
    assert loud.signal_power == math.inf and loud.effective_snr == math.inf
    noisy = dataclasses.replace(cfg, noise_sigma=1e200)
    assert noisy.effective_snr == 0.0
    # both squares overflow: the ratio comes from the amplitudes over the noise level
    both = dataclasses.replace(loud, noise_sigma=1e200)
    assert both.signal_power == math.inf and both.effective_snr == 0.5


def test_config_dict_roundtrip():
    cfg = reference_config(3, seed=5)
    back = SignalConfig.from_dict(cfg.to_dict())
    assert back == cfg
    d = cfg.to_dict()
    d["bandwidth"] = 1.0
    with pytest.raises(RangeError):
        SignalConfig.from_dict(d)
    with pytest.raises(RangeError):
        HarmonicComponent.from_dict({"frequency": 10.0, "gain": 2.0})


@pytest.mark.parametrize("key, value", [
    ("sample_rate", True), ("sample_rate", "8192"), ("duration", True), ("duration", "1.5"),
    ("noise_sigma", False), ("noise_sigma", "0.5"), ("indicator_on", [True, 0.5]),
    ("indicator_on", ["0", 0.5]), ("indicator_on", "01"), ("components", "abc"),
    ("components", {}), ("components", ({"frequency": 440.0},)),
])
def test_config_from_dict_refuses_bools_and_strings(key, value):
    good = {"sample_rate": 8192, "duration": 1.0, "noise_sigma": 0.5,
            "indicator_on": [0.25, 0.75], "components": [{"frequency": 440.0}]}
    SignalConfig.from_dict(good)
    with pytest.raises(RangeError, match=f"config key '{key}' has a malformed value"):
        SignalConfig.from_dict({**good, key: value})


@pytest.mark.parametrize("key, value", [("amplitude", True), ("frequency", "440"),
                                        ("phase", False), ("phase", "0")])
def test_component_from_dict_refuses_bools_and_strings(key, value):
    with pytest.raises(RangeError, match=f"component key '{key}' has a malformed value"):
        HarmonicComponent.from_dict({"frequency": 440.0, key: value})


def test_config_numpy_scalars_unchanged():
    # the constructors take numpy scalars as before, and from_dict takes numpy numbers
    cfg = SignalConfig(sample_rate=np.int64(8192), duration=np.float64(1.0),
                       components=(HarmonicComponent(np.float64(2.0), np.float64(440.0)),),
                       noise_sigma=np.float64(0.5), indicator_on=(np.float64(0.25), 0.75))
    assert cfg.sample_rate == 8192 and type(cfg.sample_rate) is int
    back = SignalConfig.from_dict({**cfg.to_dict(), "duration": np.float64(1.0),
                                   "sample_rate": np.int64(8192)})
    assert back == cfg


_GOOD_JSON = {"sample_rate": 8192, "duration": 1.0, "noise_sigma": 0.5,
              "indicator_on": [0.25, 0.75], "components": [{"frequency": 440.0}]}


@pytest.mark.parametrize("key, value", [
    ("sample_rate", True), ("sample_rate", "8192"), ("duration", True), ("duration", "1.5"),
    ("noise_sigma", False), ("noise_sigma", "0.5"), ("indicator_on", [True, 0.5]),
    ("indicator_on", ["0", 0.5]), ("indicator_on", "01"), ("components", "abc"),
    ("components", {}), ("components", ({"frequency": 440.0},)), ("seed", 2.7),
    ("seed", True), ("seed", None), ("duration", None), ("noise_sigma", [1]),
    ("indicator_on", 5), ("indicator_on", [1]), ("components", 5),
])
def test_config_constructor_refuses_what_from_dict_refuses(key, value):
    # one rule set: the constructor refuses each value with from_dict's message
    with pytest.raises(RangeError) as from_json:
        SignalConfig.from_dict({**_GOOD_JSON, key: value})
    fields = {**_GOOD_JSON, "components": (HarmonicComponent(1.0, 440.0),), key: value}
    with pytest.raises(RangeError, match=f"config key '{key}' has a malformed value") as built:
        SignalConfig(**fields)
    assert str(built.value) == str(from_json.value)


@pytest.mark.parametrize("key, value", [("amplitude", True), ("frequency", "440"),
                                        ("phase", False), ("phase", "0"),
                                        ("frequency", None), ("phase", [])])
def test_component_constructor_refuses_what_from_dict_refuses(key, value):
    with pytest.raises(RangeError) as from_json:
        HarmonicComponent.from_dict({"frequency": 440.0, key: value})
    with pytest.raises(RangeError, match=f"component key '{key}' has a malformed value") as built:
        HarmonicComponent(**{"amplitude": 1.0, "frequency": 440.0, key: value})
    assert str(built.value) == str(from_json.value)


@pytest.mark.parametrize("key, value", [
    ("seed", 2.7), ("seed", np.float64(3.0)), ("seed", np.bool_(False)),
    ("indicator_on", ("0.25", "0.75")), ("indicator_on", (0.25,)),
    ("indicator_on", np.array([0.25, 0.75])), ("sample_rate", "8192"),
    ("sample_rate", np.array([8192, 8192])), ("duration", b"1.0"),
    ("noise_sigma", np.bool_(True)), pytest.param("noise_sigma", 10 ** 400, id="noise_sigma-1e400"),
    ("components", iter(())), ("components", [{"frequency": 440.0}]),
])
def test_config_constructor_refuses_python_only_values(key, value):
    # values that JSON cannot hold; before, some were taken and failed later
    # (synthesize raised a bare TypeError on seed 2.7), and some raised one here
    with pytest.raises(RangeError, match=f"config key '{key}' has a malformed value"):
        SignalConfig(**{"sample_rate": 8192, "duration": 1.0, key: value})


@pytest.mark.parametrize("value", [np.bool_(True), None, pytest.param(10 ** 400, id="1e400"),
                                   np.array([1.0, 2.0])])
def test_component_constructor_refuses_python_only_values(value):
    with pytest.raises(RangeError, match="component key 'amplitude' has a malformed value"):
        HarmonicComponent(amplitude=value, frequency=440.0)


def test_config_stores_python_numbers_and_reads_back_from_its_json(tmp_path):
    comps = [HarmonicComponent(np.int64(2), 440, np.float32(0.25)),
             HarmonicComponent(1, np.float64(880.0))]
    cfg = SignalConfig(sample_rate=np.uint16(8192), duration=1, components=comps,
                       noise_sigma=np.float32(0.5), indicator_on=[np.int64(0), 0.5],
                       seed=np.uint8(3))
    assert [type(v) for v in vars(cfg).values()] == [int, float, tuple, float, tuple, int]
    assert {type(t) for t in cfg.indicator_on} == {float}
    assert {type(v) for comp in cfg.components for v in vars(comp).values()} == {float}
    # the config echo of synth and of the report both load back to the same config
    rows.write_json(tmp_path / "config.json", cfg.to_dict())
    assert SignalConfig.from_dict(json.loads((tmp_path / "config.json").read_text())) == cfg
    write_report_json(tmp_path / "report.json", detect(synthesize(cfg), cfg, TV))
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    assert SignalConfig.from_dict(echo) == cfg


def test_reference_config_structure():
    cfg = reference_config(3, seed=0)
    freqs = [c.frequency for c in cfg.components]
    bins = [f * 2048 / 8192 for f in freqs]
    assert len(set(bins)) == 3
    assert bins == sorted(bins)
    for b in bins:
        assert b == int(b), "reference frequencies sit exactly on analysis bins"
        assert 16 <= b <= 1008
    # sigma chosen so on-interval snr is 1
    assert cfg.noise_sigma == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert cfg.effective_snr == pytest.approx(1.0, rel=1e-12)
    # phases are Python floats, so the config's repr and JSON take no numpy path
    for k in (3, 30):
        assert all(type(c.phase) is float for c in reference_config(k, seed=7).components)


def test_reference_config_validation():
    with pytest.raises(RangeError):
        reference_config(0)  # noiseless and empty: level must be explicit
    reference_config(0, noise_sigma=1.0)
    with pytest.raises(RangeError):
        reference_config(3, window_length=1000)
    for snr in (0.0, -1.0, math.nan):
        with pytest.raises(RangeError, match="signal-to-noise ratio must be positive"):
            reference_config(3, snr=snr)
    assert reference_config(3, snr=math.inf).noise_sigma == 0.0
    assert reference_config(3, snr=0.0, noise_sigma=0.5).noise_sigma == 0.5


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_silent_config():
    cfg = SignalConfig(sample_rate=8192, duration=10.0)
    x = synthesize(cfg)
    assert x.shape == (81920,)
    assert np.all(x == 0.0)


def test_synthesize_deterministic():
    cfg = reference_config(3, seed=9)
    x1, x2 = synthesize(cfg), synthesize(cfg)
    assert np.array_equal(x1, x2)
    other = reference_config(3, seed=10)
    assert not np.array_equal(x1, synthesize(other))


def test_synthesize_gating():
    cfg = SignalConfig(sample_rate=8192, duration=1.0,
                       components=(HarmonicComponent(1.0, 512.0),),
                       indicator_on=(0.25, 0.75))
    x = synthesize(cfg)
    mask = indicator_mask(cfg)
    assert np.all(x[~mask] == 0.0)
    assert np.max(np.abs(x[mask])) > 0.9


def test_synthesize_refuses_an_overflowing_record():
    # numpy's overflow and invalid-value warnings would be errors here too
    loud = tuple(HarmonicComponent(1e308, f) for f in (440.0, 880.0))
    for cfg in (SignalConfig(sample_rate=8192, duration=1.0, components=loud),
                SignalConfig(sample_rate=8192, duration=1.0, noise_sigma=1e308)):
        with pytest.raises(RangeError, match="overflows float64"):
            synthesize(cfg)


def _synthesize_whole_record(cfg):
    """`synthesize` by its first formula: every cosine over the whole record, then
    gated by the mask, then the noise added."""
    n = cfg.n_samples
    t = np.arange(n) / cfg.sample_rate
    clean = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for comp in cfg.components:
            clean += comp.amplitude * np.cos(sigproc.TWO_PI * comp.frequency * t + comp.phase)
        x = np.where(indicator_mask(cfg, n), clean, 0.0)
        if cfg.noise_sigma > 0.0:
            x = x + np.random.default_rng([cfg.seed, 1]).normal(0.0, cfg.noise_sigma, size=n)
    if n and not np.isfinite(max(x.max(), -x.min())):
        raise RangeError("the record overflows float64")
    return x


BLOCK = sigproc._SYNTH_BLOCK


@st.composite
def _synth_configs(draw):
    """Configs of at most 2**16 samples at 3, 1000, 8192 or 44100 Hz, with 0 to 40
    components, with or without noise, and an on-interval that is the whole record
    or has its ends on sample times, one float step off them, or on decimals."""
    rate = draw(st.sampled_from([3, 1000, 8192, 44100]))
    n = draw(st.integers(min_value=1, max_value=2 ** 16)
             | st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]))
    duration = n / rate
    sample_time = st.integers(min_value=0, max_value=n).map(lambda i: i / rate)
    end = st.one_of(
        sample_time,
        st.tuples(sample_time, st.sampled_from([-math.inf, math.inf])).map(
            lambda a: math.nextafter(*a)),
        st.integers(min_value=0, max_value=10 * n).map(lambda k: k / 10.0),
        st.integers(min_value=0, max_value=1000 * n).map(lambda k: k / 1000.0))
    indicator_on = draw(st.none() | st.tuples(end, end).map(sorted))
    if indicator_on is not None:
        indicator_on = (indicator_on[0], min(indicator_on[1], duration))
        assume(0.0 <= indicator_on[0] < indicator_on[1])
    amplitude = st.floats(min_value=0.0, max_value=10.0) | st.sampled_from([1e200, 1e308])
    n_components = draw(st.integers(min_value=0, max_value=40))
    components = draw(st.lists(st.builds(
        HarmonicComponent, amplitude=amplitude,
        frequency=st.floats(min_value=0.0, max_value=rate / 2.0, exclude_min=True,
                            exclude_max=True),
        phase=st.floats(min_value=-10.0, max_value=10.0)),
        min_size=n_components, max_size=n_components))
    noise_sigma = draw(st.sampled_from([0.0, 1.0, 1e200, 1e308])
                       | st.floats(min_value=0.0, max_value=5.0))
    return SignalConfig(sample_rate=rate, duration=duration, components=tuple(components),
                        noise_sigma=noise_sigma, indicator_on=indicator_on,
                        seed=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))


def _burst(n, rate, n_components, noise_sigma, indicator_on=None, amplitude=1.0):
    return SignalConfig(sample_rate=rate, duration=n / rate, noise_sigma=noise_sigma,
                        indicator_on=indicator_on, seed=3, components=tuple(
                            HarmonicComponent(amplitude, (k + 1) * rate / 97.0, 0.1 * k)
                            for k in range(n_components)))


# whole records shorter and longer than one block, with and without noise, a
# burst that starts one float step past a sample time, and the overflowing configs
@settings(derandomize=True, deadline=None)
@given(cfg=_synth_configs())
@example(cfg=_burst(BLOCK - 1, 8192, 40, 0.0))
@example(cfg=_burst(2 * BLOCK + 5, 44100, 3, 1.0))
@example(cfg=_burst(BLOCK + 1, 1000, 2, 0.5, (math.nextafter(3 / 1000, 1.0), 15.0)))
@example(cfg=_burst(2 ** 16, 8192, 2, 0.0, amplitude=1e308))
@example(cfg=_burst(100, 3, 0, 1e308))
def test_synthesize_matches_whole_record_formula(cfg):
    try:
        expected = _synthesize_whole_record(cfg)
    except RangeError:
        with pytest.raises(RangeError, match="overflows float64"):
            synthesize(cfg)
        return
    x = synthesize(cfg)
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_constant_window():
    d = spectrum_distribution(np.ones(256))
    expected = np.zeros(256)
    expected[0] = 1.0
    assert np.allclose(d.probs, expected, atol=1e-15)


def test_spectrum_bin_aligned_cosine():
    n, j = 2048, 256
    x = np.cos(2.0 * np.pi * j * np.arange(n) / n)
    d = spectrum_distribution(x)
    assert d.probs[j] == pytest.approx(0.5, abs=1e-9)
    assert d.probs[n - j] == pytest.approx(0.5, abs=1e-9)
    others = np.delete(d.probs, [j, n - j])
    assert np.max(others) < 1e-12


def test_spectrum_zero_window_is_uniform():
    d = spectrum_distribution(np.zeros(128))
    assert np.array_equal(d.probs, uniform(128).probs)


def test_spectrum_validation():
    with pytest.raises(DataShapeError):
        spectrum_distribution(np.ones(100))  # not a power of two
    with pytest.raises(DataShapeError):
        spectrum_distribution(np.ones((2, 64)))


def test_spectrum_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=512)
    a, b = spectrum_distribution(x), spectrum_distribution(3.7 * x)
    assert np.max(np.abs(a.probs - b.probs)) < 1e-12


def test_spectrum_shift_invariance():
    # integer-sample delay of a bin-aligned tone only rotates phases
    n, j = 1024, 100
    grid = np.arange(n + 77)
    x = np.cos(2.0 * np.pi * j * grid / n)
    a = spectrum_distribution(x[:n])
    b = spectrum_distribution(x[77:77 + n])
    assert np.max(np.abs(a.probs - b.probs)) < 1e-9


def test_one_window_quarter_second_burst():
    # a 0.25 s record is exactly one analysis window; a single clean
    # bin-aligned tone concentrates its whole spectrum in two bins
    cfg = SignalConfig(sample_rate=8192, duration=0.25,
                       components=(HarmonicComponent(1.0, 1024.0),),
                       indicator_on=(0.0, 0.25))
    x = synthesize(cfg)
    d = spectrum_distribution(x)
    top = np.sort(d.probs)[-2:]
    assert top.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# windowed complexity
# ---------------------------------------------------------------------------

def test_window_count_reference():
    cfg = reference_config(3, seed=0)
    series = complexity_series(synthesize(cfg), sample_rate=cfg.sample_rate)
    assert len(series) == 40  # floor(10 s * 8192 / 2048)
    assert series.t_centers[0] == pytest.approx(1024 / 8192)
    assert series.threshold == pytest.approx(threshold(TV, 2048), rel=1e-12)


def test_window_count_with_hop():
    x = np.zeros(10000)
    assert len(complexity_series(x, window_length=2048, hop=1024)) == (10000 - 2048) // 1024 + 1
    assert len(complexity_series(x, window_length=2048)) == 4
    for bad in (0, True, np.True_, 1024.0):
        with pytest.raises(RangeError, match="hop must be a positive integer"):
            complexity_series(x, window_length=2048, hop=bad)


def test_series_too_short():
    with pytest.raises(DataShapeError):
        complexity_series(np.zeros(100), window_length=2048)
    with pytest.raises(DataShapeError):
        complexity_series(np.zeros((2, 2048)))


def test_silent_record_never_flags():
    x = np.zeros(8192)
    series = complexity_series(x, window_length=2048, kind=TV)
    assert np.all(series.c_values == 0.0)
    assert not series.decisions.any()


def _oracle_record():
    """Record with all-zero, single-impulse, noise-free tone and noisy windows."""
    x = np.zeros(4 * N)
    x[2500] = 1.0
    t = np.arange(2 * N)
    x[2 * N:] = np.cos(2.0 * np.pi * 200 * t / N)
    x[3 * N:] += np.random.default_rng(4).normal(size=N)
    return x


@pytest.mark.parametrize("kind", list(ComplexityKind))
@pytest.mark.parametrize("hop", [N, N // 4, 64])
def test_series_matches_scalar_oracle(kind, hop):
    x = _oracle_record()
    series = complexity_series(x, window_length=N, hop=hop, kind=kind)
    starts = np.arange(len(series)) * hop
    dists = [spectrum_distribution(x[s:s + N]) for s in starts]
    ref = np.array([scalar_complexity(dist, kind) for dist in dists])
    np.testing.assert_allclose(series.c_values, ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(series.h, [scalar_entropy(dist) for dist in dists],
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(series.d, [scalar_disequilibrium(dist, kind) for dist in dists],
                               rtol=1e-12, atol=1e-14)
    assert np.array_equal(series.c_values, series.h * series.d)
    silent = np.array([not x[s:s + N].any() for s in starts])
    assert silent.any()
    assert np.all(series.c_values[silent] == 0.0)
    assert np.array_equal(series.decisions, series.c_values > series.threshold)


def _engine_record(n_windows, hop):
    """Tone in noise covering `n_windows` windows, with all-zero samples
    over [N, 3N) where the record reaches that far."""
    x = np.cos(2.0 * np.pi * 200 * np.arange(N + (n_windows - 1) * hop) / N)
    x += np.random.default_rng(n_windows).normal(size=x.size)
    x[N:3 * N] = 0.0
    return x


@pytest.mark.parametrize("kind", list(ComplexityKind))
@pytest.mark.parametrize("hop", [64, 1000, 2048])
def test_series_threads_match_one_batch(monkeypatch, kind, hop):
    # every split into threads and chunks gives the values of one batch
    # over all frames, bit for bit, also with more threads than cores
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n_windows in (1, 31, 32, 33, 63, 64, 65, 128, 129, 1505):
            x = _engine_record(n_windows, hop)
            frames = sliding_window_view(sigproc._prescale(x), N)[::hop]
            ref = _one_batch(frames, kind)
            if hop == 64 and n_windows >= 129:
                assert (ref == 0.0).any()
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(sigproc, "_usable_cpus", lambda: cpus)
                sigproc._memo = None  # so that every split runs a pass
                c = complexity_series(x, window_length=N, hop=hop, kind=kind).c_values
                assert np.array_equal(c, ref), (n_windows, cpus)
    finally:
        sys.setswitchinterval(switch)
    monkeypatch.setattr(sigproc, "_usable_cpus", lambda: 4)
    silent = complexity_series(np.zeros(N + 300 * hop), window_length=N, hop=hop, kind=kind)
    assert len(silent) == 301 and np.all(silent.c_values == 0.0)


def test_series_threads_per_record_size(monkeypatch):
    # up to one chunk of windows runs on the calling thread alone; beyond
    # it, one thread per usable CPU, at most 128 / 32, each taking chunks
    # of 128 / threads windows
    counts, calls = [], []
    batch = sigproc._batch_columns

    class CountingPool(ThreadPoolExecutor):
        # each pool counts the calling thread and one per submitted worker
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(1)

        def submit(self, *args, **kwargs):
            counts[-1] += 1
            return super().submit(*args, **kwargs)

    def recording(frames, kinds, buffers, spectra):
        calls.append((threading.get_ident(), frames.shape[0]))
        return batch(frames, kinds, buffers, spectra)

    monkeypatch.setattr(sigproc, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(sigproc, "_batch_columns", recording)
    for cpus, n_windows, threads, chunk in ((8, 128, 1, 128), (1, 1505, 1, 128),
                                            (2, 129, 2, 64), (3, 1505, 3, 42),
                                            (8, 1505, 4, 32)):
        monkeypatch.setattr(sigproc, "_usable_cpus", lambda: cpus)
        counts.clear()
        calls.clear()
        sigproc._memo = None  # so that every case runs a pass
        complexity_series(np.ones(N + (n_windows - 1) * 64), window_length=N, hop=64)
        assert counts == [threads]
        assert max(rows for _, rows in calls) == chunk
        assert sum(rows for _, rows in calls) == n_windows
        assert len({ident for ident, _ in calls}) <= threads
        if threads == 1:
            assert {ident for ident, _ in calls} == {threading.get_ident()}


def _silent_record(hop):
    """Tone in noise over 1505 windows at `hop`, silent up to 5 samples past the
    start of window 384 (the chunks of 32 to 128 windows that end there are
    live only in their last window's tail), over windows 640 to 900, and from
    5 samples into window 1400 to the end."""
    x = np.cos(2.0 * np.pi * 200 * np.arange(N + 1504 * hop) / N)
    x += np.random.default_rng(hop).normal(size=x.size)
    x[:384 * hop + 5] = 0.0
    x[640 * hop:900 * hop + N] = 0.0
    x[1400 * hop + 5:] = 0.0
    return x


def _rows_between_live(frames, chunk):
    """Windows from the first to the last with a nonzero sample, summed over chunks."""
    total = 0
    for i in range(0, len(frames), chunk):
        live = np.flatnonzero(frames[i:i + chunk].any(axis=1))
        total += live[-1] - live[0] + 1 if live.size else 0
    return total


@pytest.mark.parametrize("hop", [64, 1000, 2048])
def test_series_skips_silent_windows(monkeypatch, hop):
    # only each chunk's windows from its first to its last live one reach
    # _batch_columns, and C is still that of one batch over all frames
    rows = []
    batch = sigproc._batch_columns

    def counting(frames, kinds, buffers, spectra):
        rows.append(frames.shape[0])
        return batch(frames, kinds, buffers, spectra)

    x = _silent_record(hop)
    frames = sliding_window_view(sigproc._prescale(x), N)[::hop]
    ref = _one_batch(frames, TV)
    noisy = np.random.default_rng(0).normal(size=x.size)
    noisy[1::2] = 0.0  # hops are even, so no window starts with a zero
    monkeypatch.setattr(sigproc, "_batch_columns", counting)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(sigproc, "_usable_cpus", lambda: cpus)
        rows.clear()
        sigproc._memo = None  # so that every record runs a pass
        series = complexity_series(x, window_length=N, hop=hop)
        assert np.array_equal(series.c_values, ref)
        silent = ~frames.any(axis=1)
        assert np.all(series.h[silent] == 1.0) and np.all(series.d[silent] == 0.0)
        expected = _rows_between_live(frames, 128 // cpus)
        assert sum(rows) == expected < len(frames), cpus
        rows.clear()
        sigproc._memo = None
        assert np.all(complexity_series(np.zeros(x.size), window_length=N, hop=hop).c_values
                      == 0.0)
        assert rows == []
        rows.clear()
        sigproc._memo = None
        complexity_series(noisy, window_length=N, hop=hop)
        assert sum(rows) == len(frames), cpus
    # a window of tiny samples is transformed, its power underflows, and its C is 0
    x = np.zeros(4 * N)
    x[:N] = np.random.default_rng(1).normal(size=N)
    x[2 * N:3 * N] = 1e-200
    rows.clear()
    series = complexity_series(x, window_length=N, hop=N)
    c = series.c_values
    assert rows == [3] and c[0] > 0.0 and np.all(c[1:] == 0.0)
    assert np.all(series.h[1:] == 1.0) and np.all(series.d[1:] == 0.0)


def test_series_sample_rate_must_be_finite_and_positive():
    x = np.zeros(2 * N)
    assert complexity_series(x, window_length=N, sample_rate=8192).t_centers[1] == 1.5 * N / 8192
    for rate in (math.inf, math.nan, 0.0, -8192.0, -math.inf):
        with pytest.raises(RangeError, match="sample rate must be finite and positive"):
            complexity_series(x, window_length=N, sample_rate=rate)


class _PlantedError(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_series_thread_error_reaches_caller(monkeypatch, where):
    # the named side raises on its third chunk, and the other side waits
    # for that before its first, so each case is sure to happen
    monkeypatch.setattr(sigproc, "_usable_cpus", lambda: 4)
    batch = sigproc._batch_columns
    caller = threading.get_ident()
    local = threading.local()
    raised = threading.Event()

    def failing(frames, kinds, buffers, spectra):
        local.calls = getattr(local, "calls", 0) + 1
        if (threading.get_ident() == caller) == (where == "caller"):
            if local.calls == 3:
                raised.set()
                raise _PlantedError(where)
        elif local.calls == 1:
            assert raised.wait(timeout=30)
        return batch(frames, kinds, buffers, spectra)

    monkeypatch.setattr(sigproc, "_batch_columns", failing)
    before = threading.active_count()
    with pytest.raises(_PlantedError, match=where):
        complexity_series(np.ones(N + 1504 * 64), window_length=N, hop=64)
    assert threading.active_count() == before
    assert sigproc._memo is None  # a failed pass leaves no entry


def _fresh_columns(x, window_length=N, hop=64):
    """(c_values, h, d) of every kind from a memo-cleared call each."""
    out = {}
    for kind in ComplexityKind:
        sigproc._memo = None
        s = complexity_series(x, window_length=window_length, hop=hop, kind=kind)
        out[kind] = (s.c_values, s.h, s.d)
    sigproc._memo = None
    return out


def _counting_transform(monkeypatch):
    """Patch `_transform` to log the frame shape of each pass; returns the log."""
    passes = []
    transform = sigproc._transform

    def counting(frames, *args):
        passes.append(frames.shape)
        return transform(frames, *args)

    monkeypatch.setattr(sigproc, "_transform", counting)
    return passes


@pytest.mark.parametrize("order", [(SQ, JSD, TV), (TV, JSD, SQ)])
@pytest.mark.parametrize("hop", [64, N])
def test_series_memo_matches_fresh_calls(monkeypatch, order, hop):
    # a record's kinds after the first come from the memo, bit for bit as a
    # fresh call gives them; so does a silent record's
    for x in (_silent_record(64), _engine_record(300, 64)):
        ref = _fresh_columns(x, hop=hop)
        passes = _counting_transform(monkeypatch)
        for kind in order:
            s = complexity_series(x, window_length=N, hop=hop, kind=kind)
            for got, want in zip((s.c_values, s.h, s.d), ref[kind]):
                assert np.array_equal(got, want), kind
            assert np.array_equal(s.decisions, s.c_values > s.threshold)
        assert len(passes) == 1
        monkeypatch.undo()


def test_series_memo_sees_a_record_changed_in_place(monkeypatch):
    x = _engine_record(200, 64)
    first = complexity_series(x, window_length=N, hop=64).c_values
    x[:N] = 0.0
    after = complexity_series(x, window_length=N, hop=64).c_values
    assert after[0] == 0.0 < first[0]
    # a power-of-two multiple has the same prescaled record, and the same C
    passes = _counting_transform(monkeypatch)
    assert np.array_equal(complexity_series(4.0 * x, window_length=N, hop=64).c_values,
                          after)
    assert passes == []
    assert np.array_equal(after, _fresh_columns(x)[TV][0])


def test_series_memo_keys_on_window_length_and_hop(monkeypatch):
    x = _engine_record(200, 64)
    ref = {(length, hop): _fresh_columns(x, length, hop)
           for length, hop in ((N, 64), (N, 65), (N // 2, 65))}
    passes = _counting_transform(monkeypatch)
    for length, hop, hit in ((N, 64, False), (N, 64, True), (N, 65, False),
                             (N // 2, 65, False), (N // 2, 65, True), (N, 64, False)):
        del passes[:]
        for kind in (JSD, SQ):
            s = complexity_series(x, window_length=length, hop=hop, kind=kind)
            assert np.array_equal(s.c_values, ref[length, hop][kind][0])
        assert len(passes) == (0 if hit else 1), (length, hop)


def test_series_memo_keeps_its_columns_from_the_caller():
    # the columns of a series from a pass and of one from the memo are the caller's
    x = _engine_record(200, 64)
    ref = _fresh_columns(x)
    first, second = (complexity_series(x, window_length=N, hop=64, kind=SQ) for _ in "12")
    for s in (first, second):
        for column in (s.c_values, s.h, s.d, s.decisions, s.t_centers):
            column[:] = 7
    for kind in (SQ, TV):
        s = complexity_series(x, window_length=N, hop=64, kind=kind)
        for got, want in zip((s.c_values, s.h, s.d), ref[kind]):
            assert np.array_equal(got, want), kind
        assert s.t_centers[0] == N / 2


def test_series_memo_holds_no_record_above_its_bound(monkeypatch):
    monkeypatch.setattr(sigproc, "_usable_cpus", lambda: 1)
    small = _engine_record(100, N)
    complexity_series(small, window_length=N, hop=N)
    assert sigproc._memo is not None and sigproc._memo[0].size == small.size
    at_bound = np.resize(small, sigproc._MIN_BLOCK)
    complexity_series(at_bound, window_length=N, hop=N)
    assert sigproc._memo[0].size == sigproc._MIN_BLOCK
    above = np.resize(small, sigproc._MIN_BLOCK + 1)
    passes = _counting_transform(monkeypatch)
    for kind in ComplexityKind:
        s = complexity_series(above, window_length=N, hop=N, kind=kind)
        assert sigproc._memo is None
        assert np.array_equal(s.c_values, _one_batch(
            sliding_window_view(sigproc._prescale(above), N)[::N], kind))
    assert len(passes) == 3


def test_series_memo_two_threads_two_records(monkeypatch):
    # a thread on record a stops inside its pass while this thread runs record
    # b for every kind, then publishes a's entry; each gets its own record's C
    a, b = (np.random.default_rng(seed).normal(size=40 * N) for seed in (1, 2))
    ref = {"a": _fresh_columns(a, hop=N), "b": _fresh_columns(b, hop=N)}
    transform = sigproc._transform
    inside, resume = threading.Event(), threading.Event()
    caller = threading.get_ident()

    def pausing(frames, *args):
        if threading.get_ident() != caller and not inside.is_set():
            inside.set()
            assert resume.wait(timeout=30)
        return transform(frames, *args)

    monkeypatch.setattr(sigproc, "_transform", pausing)
    got = []

    def run(name, x):
        for kind in ComplexityKind:
            got.append((name, kind, complexity_series(x, window_length=N, hop=N, kind=kind)))

    thread = threading.Thread(target=run, args=("a", a))
    thread.start()
    try:
        assert inside.wait(timeout=30)
        run("b", b)
    finally:
        resume.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    run("b", b)
    assert len(got) == 9
    for name, kind, s in got:
        for column, want in zip((s.c_values, s.h, s.d), ref[name][kind]):
            assert np.array_equal(column, want), (name, kind)


def test_series_memo_under_thread_stress():
    # more callers than cores, each on its own record and switching often:
    # every call gets its own record's C, whatever entry the others left
    records = [np.random.default_rng(seed).normal(size=40 * N) for seed in range(6)]
    refs = [_fresh_columns(x, hop=N) for x in records]
    right, wrong = [], []

    def run(i):
        for _ in range(4):
            for kind in ComplexityKind:
                c = complexity_series(records[i], window_length=N, hop=N, kind=kind).c_values
                (right if np.array_equal(c, refs[i][kind][0]) else wrong).append((i, kind))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(records))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(right) == 6 * 4 * 3


def test_spectrum_buffers_layout():
    # every set's arrays are views of one block of at least _MIN_BLOCK
    # values; only a set's scratch and its own rfft output share memory
    for rows, length, sets in ((1, 4, 1), (40, N, 1), (64, N, 2), (32, 4096, 4)):
        buffers = sigproc._spectrum_buffers(rows, length, sets)
        block = buffers[0][0].base
        assert len(buffers) == sets and block.size >= sigproc._MIN_BLOCK
        arrays = [a for s in buffers for a in s]
        for a in arrays:
            assert a.shape == (rows, length // 2 + 1) and a.base is block
        for i, a in enumerate(arrays):
            for j, b in enumerate(arrays[:i]):
                assert np.shares_memory(a, b) == (i == j + 2 and i % 3 == 2), (i, j)


@pytest.mark.parametrize("kind", list(ComplexityKind))
def test_series_extreme_amplitudes(kind):
    x = synthesize(reference_config(3, seed=0))
    base = complexity_series(x, kind=kind).c_values
    # power-of-two scaling is exact, so C is bit-identical
    assert np.array_equal(complexity_series(x * 2.0 ** 600, kind=kind).c_values, base)
    for scale in (1e200, 1e-200):
        c = complexity_series(x * scale, kind=kind).c_values
        np.testing.assert_allclose(c, base, rtol=1e-12, atol=0.0)


def test_series_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(4096)
        x[3000] = bad
        with pytest.raises(DataShapeError, match="non-finite"):
            complexity_series(x, window_length=N)


def test_window_length_validation():
    x = np.zeros(4096)
    cfg = SignalConfig(sample_rate=8192, duration=0.5)
    for bad in (2, 1000, 0, 2048.0):
        with pytest.raises(RangeError, match=f"window length {bad!r}"):
            complexity_series(x, window_length=bad)
        with pytest.raises(RangeError, match=f"window length {bad!r}"):
            detect(x, cfg, TV, window_length=bad)
    assert len(complexity_series(x, window_length=4)) == 1024


def test_bad_records_rejected_before_threshold_solve():
    cfg = SignalConfig(sample_rate=8192, duration=0.5)
    with_nan = np.zeros(4096)
    with_nan[3000] = np.nan
    for bad in (with_nan, np.zeros(100)):
        maximize_family.cache_clear()
        with pytest.raises(DataShapeError):
            detect(bad, cfg, TV, window_length=N)
        with pytest.raises(DataShapeError):
            complexity_series(bad, window_length=N, kind=TV)
        assert maximize_family.cache_info().misses == 0


def test_classify_windows_reference():
    cfg = reference_config(3, seed=0)
    states = classify_windows(cfg, cfg.n_samples, 2048, 2048)
    assert (states == WINDOW_ON).sum() == 16
    assert (states == WINDOW_OFF).sum() == 23
    assert (states == WINDOW_MIXED).sum() == 1
    # window 28 starts exactly at t = 7 s, the closed interval's right edge
    assert states[28] == WINDOW_MIXED
    assert (states[12:28] == WINDOW_ON).all()

    mask = indicator_mask(cfg)
    for hop in (N, N // 4, 64):
        states = classify_windows(cfg, cfg.n_samples, N, hop)
        expected = []
        for start in range(0, cfg.n_samples - N + 1, hop):
            seg = mask[start:start + N]
            expected.append(WINDOW_ON if seg.all()
                            else WINDOW_OFF if not seg.any() else WINDOW_MIXED)
        assert states.tolist() == expected


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_detect_reference_seed0():
    cfg = reference_config(3, seed=0)
    report = detect(synthesize(cfg), cfg, TV)
    m = report.metrics
    assert report.series.threshold == pytest.approx(0.14165773524687753, abs=1e-12)
    assert (m.n_windows, m.n_on, m.n_off, m.n_mixed) == (40, 16, 23, 1)
    assert m.n_hit == 16 and m.hit_rate_on_interval == 1.0
    assert m.n_false_alarm == 0 and m.false_alarm_rate_off_interval == 0.0
    c = report.series.c_values
    assert m.mean_c_on == np.mean(c[report.states == WINDOW_ON])
    assert m.mean_c_off == np.mean(c[report.states == WINDOW_OFF])


def test_detect_distributions_match_scalar_oracle():
    # the engine's half-spectra, mirrored, are the oracle's distributions, and
    # the report writes them to 6 digits; a window of zeros is uniform in both
    x = _oracle_record()
    assert not x[:N].any()
    cfg = SignalConfig(sample_rate=8192, duration=x.size / 8192)
    report = detect(x, cfg, TV, window_length=N, include_distributions=True)
    ref = np.array([spectrum_distribution(x[s:s + N]).probs for s in range(0, x.size, N)])
    half = report.distributions
    assert half.shape == (4, N // 2 + 1)
    assert np.array_equal(half[0], np.full(N // 2 + 1, 1.0 / N))
    mirrored = np.concatenate([half, half[:, -2:0:-1]], axis=1)
    np.testing.assert_allclose(mirrored, ref, rtol=1e-12, atol=1e-14)
    written = np.array(report_to_dict(report)["distributions"])
    assert written.shape == ref.shape
    np.testing.assert_allclose(written, mirrored, rtol=5e-6, atol=0.0)


def test_detect_pure_noise_rarely_flags():
    flagged = []
    for seed in range(20):
        cfg = reference_config(0, seed=seed, noise_sigma=1.0)
        report = detect(synthesize(cfg), cfg, TV)
        flagged.append(np.mean(report.series.decisions))
    assert np.mean(flagged) < 0.10


def test_detect_rate_is_none_when_class_empty(tmp_path):
    # indicator covering the whole record leaves no off-interval windows
    cfg = SignalConfig(sample_rate=8192, duration=1.0,
                       components=(HarmonicComponent(1.0, 1024.0),),
                       indicator_on=(0.0, 1.0))
    report = detect(synthesize(cfg), cfg, TV)
    assert report.metrics.n_off == 0
    assert math.isnan(report.metrics.false_alarm_rate_off_interval)
    payload = report_to_dict(report)
    assert payload["metrics"]["false_alarm_rate_off_interval"] is None
    assert math.isnan(report.metrics.mean_c_off)
    assert payload["metrics"]["mean_c_off"] is None
    assert payload["metrics"]["mean_c_on"] == float(f"{report.metrics.mean_c_on:.6g}")


def test_detect_fraction_validation():
    cfg = reference_config(3, seed=0)
    with pytest.raises(RangeError):
        detect(synthesize(cfg), cfg, TV, fraction=1.5)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_sample_io_roundtrips(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.normal(size=4096)

    raw = tmp_path / "x.f64"
    write_samples(raw, x)
    back, rate = read_samples(raw)
    assert rate is None and np.array_equal(back, x)

    csv = tmp_path / "x.csv"
    write_samples(csv, x)
    back, rate = read_samples(csv)
    assert rate is None and np.array_equal(back, x), "repr floats roundtrip exactly"

    wav = tmp_path / "x.wav"
    write_samples(wav, x, sample_rate=8192)
    back, rate = read_samples(wav)
    assert rate == 8192.0
    scale = np.max(np.abs(x))
    assert np.max(np.abs(back * scale - x)) < 1e-3 * scale, "16-bit quantization only"


def test_sample_io_errors(tmp_path):
    with pytest.raises(RangeError):
        write_samples(tmp_path / "x.flac", np.zeros(16))
    bad = tmp_path / "bad.csv"
    bad.write_text("samples\n0.0\n")
    with pytest.raises(DataShapeError):
        read_samples(bad)
    with pytest.raises(RangeError):
        write_samples(tmp_path / "x.wav", np.zeros(16))  # rate required
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DataShapeError, match="finite samples"):
            write_samples(tmp_path / "x.wav", np.array([0.0, bad, 1.0]), sample_rate=8192)
    assert not (tmp_path / "x.wav").exists()
    cut = tmp_path / "cut.f64"
    write_samples(cut, np.ones(16))
    cut.write_bytes(cut.read_bytes()[:-3])
    with pytest.raises(DataShapeError, match="125 bytes"):
        read_samples(cut)


def test_wav_sample_rate_fits_the_header(tmp_path):
    # the header holds the rate and the byte rate, 2 x rate, as unsigned 32-bit fields
    wav = tmp_path / "x.wav"
    write_samples(wav, np.ones(4), sample_rate=2 ** 31 - 1)
    assert read_samples(wav)[1] == 2 ** 31 - 1
    wav.unlink()
    for rate in (2 ** 31, 5e9, 0, -8192):
        with pytest.raises(RangeError, match="WAV sample rate"):
            write_samples(wav, np.ones(4), sample_rate=rate)
    assert list(tmp_path.iterdir()) == []


def test_wav_reads_every_int16_code(tmp_path):
    # every code, -32768 and 32767 included, reads back as code / 32768, bit for bit
    codes = np.arange(-32768, 32768, dtype="<i2")
    wav = tmp_path / "codes.wav"
    with wave.open(str(wav), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8192)
        wf.writeframes(codes.tobytes())
    back, rate = read_samples(wav)
    assert rate == 8192.0 and back.dtype == np.float64
    assert np.array_equal(back.view(np.int64),
                          (codes.astype(np.float64) / 32768.0).view(np.int64))


def test_series_csv(tmp_path):
    cfg = reference_config(3, seed=0)
    report = detect(synthesize(cfg), cfg, TV)
    path = tmp_path / "series.csv"
    write_series_csv(path, report.series)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_center,c_value,decision"
    assert len(lines) == 41
    t, c, dec = lines[1].split(",")
    assert float(t) == pytest.approx(0.125)
    assert dec in ("0", "1")


def test_report_json(tmp_path):
    cfg = reference_config(3, seed=0)
    report = detect(synthesize(cfg), cfg, TV)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "tv"
    assert payload["window_length"] == 2048
    assert payload["metrics"]["n_hit"] == 16
    assert payload["metrics"]["hit_rate_on_interval"] == 1.0
    assert len(payload["windows"]) == 40
    assert payload["windows"][0]["state"] == "off"
    assert report.distributions is None and "distributions" not in payload
    echoed = SignalConfig.from_dict(payload["config"])
    assert echoed == cfg

    report = detect(synthesize(cfg), cfg, TV, include_distributions=True)
    write_report_json(path, report)
    payload = json.loads(path.read_text())
    assert len(payload["distributions"]) == 40
    assert len(payload["distributions"][0]) == 2048


def test_numpy_integer_window_length_and_hop_are_plain_ints(tmp_path):
    cfg = reference_config(3, seed=0)
    x = synthesize(cfg)
    for length in (2048, np.int64(2048)):
        report = detect(x, cfg, TV, window_length=length)
        assert type(report.series.window_length) is int and type(report.series.hop) is int
        write_report_json(tmp_path / f"{type(length).__name__}.json", report)
    assert (tmp_path / "int64.json").read_bytes() == (tmp_path / "int.json").read_bytes()
    s = complexity_series(x, window_length=np.int64(2048), hop=np.int32(512))
    assert type(s.window_length) is int and type(s.hop) is int
    assert sigproc._memo[1:3] == (2048, 512) and {type(v) for v in sigproc._memo[1:3]} == {int}


# Records for the writer's byte-identity test: (samples, config, include_distributions)
# and the premise each case exists for, checked on `report_to_dict`.
_WRITER_CASES = {
    "k3": (lambda: reference_config(3, seed=4), False,
           lambda d: len(d["config"]["components"]) == 3),
    "k30": (lambda: reference_config(30, seed=5), False,
            lambda d: len(d["config"]["components"]) == 30),
    "exact_zero_window": (lambda: reference_config(3, seed=7, noise_sigma=0.0), False,
                          lambda d: 0.0 in [w["c_value"] for w in d["windows"]]),
    "no_components": (lambda: SignalConfig(sample_rate=8192, duration=2.0, noise_sigma=1.0,
                                           indicator_on=(0.5, 1.5), seed=3), False,
                      lambda d: d["config"]["components"] == []),
    "no_full_on_window": (lambda: reference_config(3, seed=8, duration=2.0,
                                                   indicator_on=(0.3, 0.45)), False,
                          lambda d: d["metrics"]["hit_rate_on_interval"] is None
                          and d["metrics"]["mean_c_on"] is None),
    "distributions": (lambda: reference_config(3, seed=9, duration=1.0,
                                               indicator_on=(0.25, 0.75)), True,
                      lambda d: len(d["distributions"]) == 4),
}


@pytest.mark.parametrize("case", list(_WRITER_CASES))
@pytest.mark.parametrize("kind", list(ComplexityKind))
def test_report_writer_matches_json_dump(tmp_path, kind, case):
    # the templated writer writes exactly the bytes of json.dump(report_to_dict, indent=2)
    make_config, include_distributions, premise = _WRITER_CASES[case]
    cfg = make_config()
    report = detect(synthesize(cfg), cfg, kind, include_distributions=include_distributions)
    payload = report_to_dict(report)
    assert premise(payload)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


class _Recorder:
    """A text file that keeps each piece written to it."""

    def __init__(self, fh, pieces):
        self.fh, self.pieces = fh, pieces

    def write(self, text):
        self.pieces.append(text)
        self.fh.write(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


# A JSON value of a report, once its keys are taken out.
_JSON_VALUE = re.compile(r'-?\d[\d.eE+-]*|true|false|null|NaN|-?Infinity|"\w+"')


def test_report_written_in_pieces_of_one_block(tmp_path, monkeypatch):
    # distributions over many blocks give json.dump's bytes, and no piece written
    # holds more than one block of values: the document is never held whole
    monkeypatch.setattr(rows, "_BLOCK_VALUES", 64)  # 2 distributions of 32 bins
    pieces = []
    real_open = rows.open_output

    @contextlib.contextmanager
    def recording(path, binary=False):
        with real_open(path, binary) as fh:
            yield _Recorder(fh, pieces)

    monkeypatch.setattr(rows, "open_output", recording)
    cfg = reference_config(3, seed=9, duration=1.0, indicator_on=(0.25, 0.75))
    report = detect(synthesize(cfg), cfg, TV, window_length=32, include_distributions=True)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    payload = report_to_dict(report)
    assert len(payload["distributions"]) == 256
    assert path.read_text() == json.dumps(payload, indent=2) + "\n" == "".join(pieces)
    counts = [len(_JSON_VALUE.findall(re.sub(r'"\w+": ', "", piece))) for piece in pieces]
    assert max(counts) == 64
