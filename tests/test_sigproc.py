import json
import math
import re

import numpy as np
import pytest

from statcomplex import (
    AliasingError,
    ComplexityKind,
    DataShapeError,
    HarmonicComponent,
    RangeError,
    SignalConfig,
    classify_windows,
    complexity_series,
    complexity_value,
    detect,
    indicator_mask,
    maximize_family,
    read_samples,
    reference_config,
    report_to_dict,
    spectrum_distribution,
    synthesize,
    threshold,
    uniform,
    write_report_json,
    write_samples,
    write_series_csv,
)
from statcomplex.sigproc import WINDOW_MIXED, WINDOW_OFF, WINDOW_ON

TV = ComplexityKind.TV
SQ = ComplexityKind.SQ
N = 2048


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(AliasingError):
        SignalConfig(sample_rate=8192, duration=1.0,
                     components=(HarmonicComponent(1.0, 4096.0),))
    with pytest.raises(RangeError):
        SignalConfig(sample_rate=8192, duration=1.0, noise_sigma=-0.5)
    with pytest.raises(RangeError):
        SignalConfig(sample_rate=8192, duration=1.0, indicator_on=(0.5, 2.0))
    with pytest.raises(RangeError):
        SignalConfig(sample_rate=8000.5, duration=1.0)
    with pytest.raises(RangeError):
        HarmonicComponent(1.0, -10.0)


def test_config_record_length_cap():
    assert SignalConfig(sample_rate=8192, duration=2 ** 26 / 8192).n_samples == 2 ** 26
    for duration, count in ((2 ** 26 / 8192 + 1.0, "6.71171e+07"), (1e9, "8.192e+12"),
                            (math.inf, "inf")):
        message = f"record of {count} samples exceeds the cap of {2 ** 26} samples"
        with pytest.raises(RangeError, match=re.escape(message)):
            SignalConfig(sample_rate=8192, duration=duration)


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


def test_reference_config_validation():
    with pytest.raises(RangeError):
        reference_config(0)  # noiseless and empty: level must be explicit
    reference_config(0, noise_sigma=1.0)
    with pytest.raises(RangeError):
        reference_config(3, window_length=1000)


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
    with pytest.raises(RangeError):
        complexity_series(x, window_length=2048, hop=0)


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
    ref = np.array([complexity_value(spectrum_distribution(x[s:s + N]), kind)
                    for s in starts])
    np.testing.assert_allclose(series.c_values, ref, rtol=1e-12, atol=1e-14)
    silent = np.array([not x[s:s + N].any() for s in starts])
    assert silent.any()
    assert np.all(series.c_values[silent] == 0.0)
    assert np.array_equal(series.decisions, series.c_values > series.threshold)


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
    assert report.threshold == pytest.approx(0.14165773524687753, abs=1e-12)
    assert (m.n_windows, m.n_on, m.n_off, m.n_mixed) == (40, 16, 23, 1)
    assert m.n_hit == 16 and m.hit_rate_on_interval == 1.0
    assert m.n_false_alarm == 0 and m.false_alarm_rate_off_interval == 0.0


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
    cut = tmp_path / "cut.f64"
    write_samples(cut, np.ones(16))
    cut.write_bytes(cut.read_bytes()[:-3])
    with pytest.raises(DataShapeError, match="125 bytes"):
        read_samples(cut)


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
    assert "distributions" not in payload
    echoed = SignalConfig.from_dict(payload["config"])
    assert echoed == cfg

    write_report_json(path, report, include_distributions=True)
    payload = json.loads(path.read_text())
    assert len(payload["distributions"]) == 40
    assert len(payload["distributions"][0]) == 2048
