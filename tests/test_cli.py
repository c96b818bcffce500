import builtins
import io
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from statcomplex import write_samples
from statcomplex.cli import main


def run_module(*args):
    """Run the installed CLI in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "statcomplex", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_default(tmp_path):
    assert main(["tables", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "tables.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,n,c_star,p_max_star,omega_star,n_minus_k_star"
    assert len(lines) == 16  # 3 kinds x 5 sizes
    row = next(l for l in lines if l.startswith("tv,512,"))
    fields = row.split(",")
    assert float(fields[2]) == pytest.approx(0.5120, abs=5e-4)
    assert fields[5] == "56"


def test_tables_json_and_subsets(tmp_path):
    assert main(["tables", "--kinds", "sq", "--sizes", "3,256",
                 "--format", "json", "--out-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "tables.json").read_text())
    assert [r["n"] for r in rows] == [3, 256]
    assert rows[0]["kind"] == "sq"
    assert rows[0]["c_star"] == pytest.approx(0.193239, abs=1e-6)
    # the parser is built once per process: the --kinds above must not stick
    assert main(["tables", "--sizes", "3", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "tables.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["sq", "jsd", "tv"]


def test_tables_integer_mode(tmp_path):
    assert main(["tables", "--kinds", "jsd", "--sizes", "256", "--mode", "integer",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "tables.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[5] == "33"


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_family(tmp_path):
    assert main(["grid", "--kind", "tv", "--n", "64", "--step", "0.05",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,p_max,c"
    assert len(lines) == 1 + 19 * 21  # interior omegas x inclusive p grid


def test_grid_simplex(tmp_path):
    assert main(["grid", "--kind", "sq", "--n", "3", "--simplex", "--step", "0.02",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    m = 50
    assert len(lines) == 1 + (m + 1) * (m + 2) // 2
    # --simplex implies n = 3
    implied, explicit = tmp_path / "implied", tmp_path / "explicit"
    assert main(["grid", "--kind", "sq", "--simplex", "--step", "0.05",
                 "--out-dir", str(implied)]) == 0
    assert main(["grid", "--kind", "sq", "--simplex", "--n", "3", "--step", "0.05",
                 "--out-dir", str(explicit)]) == 0
    data = (implied / "grid.csv").read_bytes()
    assert data.count(b"\n") == 1 + 231
    assert data == (explicit / "grid.csv").read_bytes()


def test_grid_json_format(tmp_path):
    assert main(["grid", "--kind", "jsd", "--n", "16", "--step", "0.1",
                 "--format", "json", "--out-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "grid.json").read_text())
    assert len(rows) == 9 * 11
    assert set(rows[0]) == {"omega", "p_max", "c"}


def test_grid_rejects_bad_requests(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert main(["grid", "--kind", "sq", "--step", "0.2", *out]) == 3
    assert main(["grid", "--kind", "sq", "--step", "1e-5", *out]) == 3
    assert main(["grid", "--kind", "sq", "--n", "4", "--simplex", *out]) == 3
    assert main(["grid", "--kind", "manhattan", *out]) == 3


@pytest.mark.parametrize("argv", [
    ["synth", "--components", "3", "--output", "out/x.xyz"],
    ["grid", "--kind", "sq", "--simplex", "--n", "4"],
    ["grid", "--kind", "tv", "--n", "1"]])
def test_refused_synth_or_grid_makes_no_out_dir(tmp_path, capsys, monkeypatch, argv):
    # the sample format and the grid's n are checked before the out-dir is made
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out-dir", "d"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_grid_n_below_2_exit_3(tmp_path, capsys):
    for n in ("1", "0"):
        assert main(["grid", "--kind", "tv", "--n", n, "--out-dir", str(tmp_path)]) == 3
        assert f"got {n}" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_huge_alphabet_sizes_exit_3(tmp_path, capsys):
    huge = "1" + "0" * 400
    assert main(["tables", "--sizes", huge, "--out-dir", str(tmp_path)]) == 3
    assert main(["grid", "--kind", "tv", "--n", huge, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("error:") == 2
    assert list(tmp_path.iterdir()) == []


def test_tables_integer_mode_size_cap_exit_3(tmp_path, capsys):
    assert main(["tables", "--mode", "integer", "--sizes", "65537",
                 "--out-dir", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tables.csv").exists()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_default_outputs(tmp_path, capsys):
    assert main(["synth", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr().out
    assert "effective SNR: 1" in captured
    samples = tmp_path / "samples.f64"
    assert samples.stat().st_size == 81920 * 8
    cfg = json.loads((tmp_path / "config.json").read_text())
    assert cfg["sample_rate"] == 8192
    assert len(cfg["components"]) == 3
    assert cfg["indicator_on"] == [3.0, 7.0]


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--seed", "7", "--out-dir", str(out)]) == 0
    assert (a / "samples.f64").read_bytes() == (b / "samples.f64").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def test_synth_from_config_file(tmp_path):
    cfg = {"sample_rate": 8192, "duration": 1.0,
           "components": [{"amplitude": 1.0, "frequency": 440.0}],
           "noise_sigma": 0.1, "indicator_on": [0.0, 1.0], "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path),
                 "--output", str(tmp_path / "x.wav")]) == 0
    assert (tmp_path / "x.wav").exists()


def test_synth_config_errors(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    bad = tmp_path / "bad.json"

    bad.write_text(json.dumps({"sample_rate": 8192, "duration": 1.0, "gain": 2}))
    assert main(["synth", "--config", str(bad), *out]) == 3

    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), *out]) == 3

    bad.write_text(json.dumps({
        "sample_rate": 8192, "duration": 1.0,
        "components": [{"amplitude": 1.0, "frequency": 5000.0}]}))
    assert main(["synth", "--config", str(bad), *out]) == 3  # above Nyquist

    assert main(["synth", "--config", str(tmp_path / "missing.json"), *out]) == 2


def test_synth_record_length_cap_exit_3(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert main(["synth", "--duration", "inf", *out]) == 3
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"sample_rate": 8192, "duration": 1e9}))
    assert main(["synth", "--config", str(big), *out]) == 3
    assert capsys.readouterr().err.count("exceeds the cap of 67108864 samples") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_synth_huge_sample_rate_exit_3(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert main(["synth", "--sample-rate", str(2 ** 64), *out]) == 3
    big = tmp_path / "big.json"
    big.write_text('{"sample_rate": 1' + "0" * 400 + ', "duration": 1.0}')
    assert main(["synth", "--config", str(big), *out]) == 3
    assert capsys.readouterr().err.count("error: sample rate must be below 2**53 Hz") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("argv", [
    ["--sample-rate", "5000000000", "--duration", "0.000001", "--t-start", "0",
     "--t-end", "0.000001", "--components", "1"],
    ["--config", "fast.json", "--sigma", "0.1"]])
def test_synth_wav_rate_beyond_header_exit_3(tmp_path, capsys, monkeypatch, argv):
    # a WAV header cannot hold a rate above 2**31 - 1 Hz: refused before the file is opened
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fast.json").write_text(json.dumps({"sample_rate": 5000000000,
                                                    "duration": 0.000001}))
    assert main(["synth", *argv, "--output", "x.wav", "--out-dir", "d"]) == 3
    assert capsys.readouterr().err == (
        "error: a WAV sample rate must lie in [1, 2147483647] Hz, got 5000000000\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.json"]


@pytest.mark.parametrize("argv", [["--sigma", "nan"], ["--sigma", "inf"],
                                  ["--sigma", "-1"], ["--snr", "0"], ["--snr", "-1"],
                                  ["--snr", "nan"]])
def test_synth_bad_noise_exit_3(tmp_path, capsys, argv):
    assert main(["synth", *argv, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "noise level must be" in err or "signal-to-noise ratio must be positive" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_overflowing_config_exit_3(tmp_path, capsys):
    # the components' sum overflows float64: one error line, no numpy warning
    # (an error under this suite's filters) and no file
    path = tmp_path / "loud.json"
    path.write_text(json.dumps({
        "sample_rate": 8192, "duration": 1.0,
        "components": [{"amplitude": 1e308, "frequency": 440.0},
                       {"amplitude": 1e308, "frequency": 880.0}]}))
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "--output", str(tmp_path / "x.wav")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loud.json"]


@pytest.mark.parametrize("sigma, amplitude, snr", [("1e200", 1.0, "0"), ("1.0", 1e200, "inf"),
                                                    ("1e200", 1e200, "0.5")])
def test_synth_huge_noise_or_amplitude_exit_0(tmp_path, sigma, amplitude, snr):
    # squaring 1e200 overflows to inf rather than raising after the files are written
    path = tmp_path / "loud.json"
    path.write_text(json.dumps({"sample_rate": 8192, "duration": 1.0, "noise_sigma": 1.0,
                                "components": [{"amplitude": amplitude, "frequency": 440.0}]}))
    result = run_module("synth", "--config", str(path), "--sigma", sigma,
                        "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 0 and result.stderr == ""
    assert f"effective SNR: {snr}\n" in result.stdout
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config.json", "samples.f64"]


@pytest.mark.parametrize("argv", [["--config", "short.json"],
                                  ["--sample-rate", "3", "--duration", "0.1"]])
def test_synth_zero_sample_record_exit_3(tmp_path, capsys, monkeypatch, argv):
    # 3 Hz for 0.1 s rounds to 0 samples: refused before any file is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.json").write_text(json.dumps({"sample_rate": 3, "duration": 0.1}))
    assert main(["synth", *argv, "--output", "x.wav", "--out-dir", "out"]) == 3
    err = capsys.readouterr().err
    assert err == "error: record of 0.3 samples rounds to 0 samples\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.json"]


def test_synth_infinite_snr_is_clean(tmp_path, capsys):
    assert main(["synth", "--snr", "inf", "--out-dir", str(tmp_path)]) == 0
    assert "effective SNR: inf" in capsys.readouterr().out
    assert json.loads((tmp_path / "config.json").read_text())["noise_sigma"] == 0.0


# ---------------------------------------------------------------------------
# process start
# ---------------------------------------------------------------------------

def test_cli_leaves_numpy_ma_unimported(tmp_path):
    # importing numpy.ma takes about 10 ms of a fresh process; np.unique imports it
    assert main(["synth", "--seed", "0", "--out-dir", str(tmp_path / "rec")]) == 0
    script = textwrap.dedent("""
        import sys
        from statcomplex.cli import main
        out = sys.argv[1]
        record = ["--input", f"{out}/rec/samples.f64", "--config", f"{out}/rec/config.json"]
        for kind in ("sq", "jsd", "tv"):
            assert main(["detect", *record, "--kind", kind, "--out-dir", f"{out}/{kind}"]) == 0
        assert main(["tables", "--out-dir", f"{out}/tables"]) == 0
        assert main(["demo", "--experiment", "k3", "--seeds", "0", "--out-dir", f"{out}/demo"]) == 0
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    """)
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

@pytest.fixture()
def synth_dir(tmp_path):
    assert main(["synth", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    return tmp_path


def test_detect_pipeline(synth_dir, capsys):
    code = main(["detect", "--input", str(synth_dir / "samples.f64"),
                 "--config", str(synth_dir / "config.json"),
                 "--out-dir", str(synth_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "threshold: 0.141658" in out
    assert "hit rate (on-interval): 1" in out
    lines = (synth_dir / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 41
    report = json.loads((synth_dir / "report.json").read_text())
    assert report["metrics"]["n_hit"] == 16
    assert report["metrics"]["n_false_alarm"] == 0
    assert "distributions" not in report


def test_detect_kind_and_distributions(synth_dir):
    code = main(["detect", "--input", str(synth_dir / "samples.f64"),
                 "--config", str(synth_dir / "config.json"), "--kind", "sq",
                 "--include-distributions", "--out-dir", str(synth_dir)])
    assert code == 0
    report = json.loads((synth_dir / "report.json").read_text())
    assert report["kind"] == "sq"
    assert len(report["distributions"]) == 40


def test_detect_error_codes(synth_dir, tmp_path):
    cfg = str(synth_dir / "config.json")
    out = ["--out-dir", str(tmp_path)]

    assert main(["detect", "--input", str(tmp_path / "none.f64"),
                 "--config", cfg, *out]) == 2

    short = tmp_path / "short.csv"
    write_samples(short, np.zeros(100))
    assert main(["detect", "--input", str(short), "--config", cfg, *out]) == 4

    wrong_rate = tmp_path / "x.wav"
    write_samples(wrong_rate, np.zeros(4096), sample_rate=4096)
    assert main(["detect", "--input", str(wrong_rate), "--config", cfg, *out]) == 3

    assert main(["detect", "--input", str(synth_dir / "samples.f64"),
                 "--config", cfg, "--kind", "euclid", *out]) == 3


def test_detect_report_path_is_a_directory_exit_2(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["detect", "--input", str(synth_dir / "samples.f64"),
                 "--config", str(synth_dir / "config.json"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{out / 'report.json'}'\n"


def test_detect_bad_sample_files_exit_4(synth_dir, tmp_path, capsys):
    cfg = str(synth_dir / "config.json")
    good = np.fromfile(synth_dir / "samples.f64", dtype="<f8")
    for name, bad in (("nan", np.nan), ("inf", np.inf)):
        x = good.copy()
        x[5000] = bad
        path = tmp_path / f"{name}.f64"
        write_samples(path, x)
        assert main(["detect", "--input", str(path), "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 4
        assert "non-finite" in capsys.readouterr().err
    cut = tmp_path / "cut.f64"
    cut.write_bytes((synth_dir / "samples.f64").read_bytes()[:-3])
    assert main(["detect", "--input", str(cut), "--config", cfg,
                 "--out-dir", str(tmp_path)]) == 4
    assert "float64 samples" in capsys.readouterr().err


@pytest.mark.parametrize("body", [b"x\n0.5\n\xff\xfe\n", b"\xff\xfex\n0.5\n"])
def test_detect_non_utf8_csv_exit_4(synth_dir, tmp_path, capsys, body):
    # a bad byte in the samples or in the header is a data error that names the file
    path = tmp_path / "latin.csv"
    path.write_bytes(body)
    assert main(["detect", "--input", str(path), "--config", str(synth_dir / "config.json"),
                 "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err == "error: latin.csv: sample CSV is not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["random", "empty", "riff_header", "truncated"])
def test_detect_malformed_wav_exit_4(synth_dir, tmp_path, name):
    good = tmp_path / "good.wav"
    write_samples(good, np.fromfile(synth_dir / "samples.f64", dtype="<f8"), sample_rate=8192)
    data = {"random": np.random.default_rng(0).bytes(100), "empty": b"",
            "riff_header": b"RIFF\x04\x00\x00\x00WAVE",
            "truncated": good.read_bytes()[:1001]}[name]
    path = tmp_path / f"{name}.wav"
    path.write_bytes(data)
    result = run_module("detect", "--input", str(path), "--config",
                        str(synth_dir / "config.json"), "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 4
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


_GOOD_CONFIG = {"sample_rate": 8192, "duration": 1.0,
                "components": [{"amplitude": 1.0, "frequency": 440.0}],
                "noise_sigma": 0.1, "indicator_on": [0.25, 0.75], "seed": 3}


@pytest.mark.parametrize("key, value, message", [
    ("duration", None, "config key 'duration'"),
    ("sample_rate", None, "config key 'sample_rate'"),
    ("sample_rate", "8192", "config key 'sample_rate'"),
    ("seed", None, "config key 'seed'"),
    ("noise_sigma", [1], "config key 'noise_sigma'"),
    ("noise_sigma", float("nan"), "noise level must be finite"),
    ("indicator_on", 5, "config key 'indicator_on'"),
    ("indicator_on", [1], "config key 'indicator_on'"),
    ("components", 5, "config key 'components'"),
    ("components", [1], "component must be a JSON object"),
    ("components", [{"frequency": None}], "component key 'frequency'"),
    ("components", [{"frequency": 440.0, "phase": []}], "component key 'phase'"),
    ("seed", 2.7, "config key 'seed'"),
    ("seed", True, "config key 'seed'"),
    ("components", [{"frequency": 440.0, "phase": float("nan")}],
     "component phase must be finite"),
    ("seed", -1, "seed must be >= 0, got -1"),
    # float() takes a bool or a numeric string, and list() a string or an object
    ("duration", True, "config key 'duration'"),
    ("duration", "1.5", "config key 'duration'"),
    ("sample_rate", True, "config key 'sample_rate'"),
    ("noise_sigma", True, "config key 'noise_sigma'"),
    ("noise_sigma", "0.1", "config key 'noise_sigma'"),
    ("indicator_on", [True, 0.75], "config key 'indicator_on'"),
    ("indicator_on", [0.25, "0.75"], "config key 'indicator_on'"),
    ("indicator_on", "01", "config key 'indicator_on'"),
    ("components", "abc", "config key 'components'"),
    ("components", {}, "config key 'components'"),
    ("components", {"frequency": 440.0}, "config key 'components'"),
    ("components", [{"frequency": "440"}], "component key 'frequency'"),
    ("components", [{"frequency": 440.0, "amplitude": True}], "component key 'amplitude'"),
    ("components", [{"frequency": 440.0, "amplitude": "2"}], "component key 'amplitude'"),
    ("components", [{"frequency": 440.0, "phase": False}], "component key 'phase'"),
])
def test_detect_malformed_config_exit_3(tmp_path, capsys, key, value, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_GOOD_CONFIG, key: value}))
    out = tmp_path / "out"
    assert main(["detect", "--input", str(tmp_path / "x.f64"), "--config", str(config),
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", [["synth"], ["detect", "--input", "x.f64"]])
def test_deeply_nested_config_exit_3(tmp_path, capsys, monkeypatch, command):
    # json.load recurses once per nesting level and raises RecursionError, not a ValueError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main([*command, "--config", "deep.json", "--out-dir", "out"]) == 3
    assert capsys.readouterr().err == "error: deep.json: config nests too deeply\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "-1", "--sigma", "1", "--components", "0"],
    ["synth", "--config", "seed3.json", "--seed", "-1"],
    ["synth", "--config", "seed-1.json"],
    ["demo", "--seed", "-1"],
    ["demo", "--seeds", "0", "-1"],
])
def test_negative_seed_exit_3(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for seed in (3, -1):
        (tmp_path / f"seed{seed}.json").write_text(json.dumps({**_GOOD_CONFIG, "seed": seed}))
    assert main([*argv, "--out-dir", "out"]) == 3
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed-1.json", "seed3.json"]


@pytest.mark.parametrize("seeds", [["0", "0"], ["2", "0", "2"]])
def test_demo_repeated_seed_exit_3(tmp_path, capsys, seeds):
    # a repeated seed would write its series twice and weight it double in the means
    assert main(["demo", "--seeds", *seeds, "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: seed {seeds[-1]} is given more than once\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("length", ["2", "1000"])
def test_detect_bad_window_length_exit_3(synth_dir, tmp_path, capsys, length):
    assert main(["detect", "--input", str(synth_dir / "samples.f64"),
                 "--config", str(synth_dir / "config.json"),
                 "--window-length", length, "--out-dir", str(tmp_path)]) == 3
    assert f"window length {length}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def test_demo_single_seed(tmp_path):
    assert main(["demo", "--experiment", "k3", "--seeds", "0",
                 "--out-dir", str(tmp_path)]) == 0
    for kind in ("sq", "jsd", "tv"):
        assert (tmp_path / f"series_{kind}_seed0.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["experiment"] == "k3"
    assert summary["thresholds"]["tv"] == pytest.approx(0.141658, abs=1e-6)
    assert summary["thresholds"]["sq"] == pytest.approx(0.046527, abs=1e-6)
    tv_entry = summary["per_seed"][0]["kinds"]["tv"]
    assert tv_entry["hit_rate_on_interval"] == 1.0


def test_demo_entry_matches_detect_report(tmp_path):
    # demo's per-kind entry is detect's report metrics for the same record and kind
    assert main(["demo", "--experiment", "k3", "--seeds", "0",
                 "--out-dir", str(tmp_path / "demo")]) == 0
    summary = json.loads((tmp_path / "demo" / "summary.json").read_text())
    entries = summary["per_seed"][0]["kinds"]
    assert main(["synth", "--components", "3", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    for kind in ("sq", "jsd", "tv"):
        assert list(entries[kind]) == ["hit_rate_on_interval", "false_alarm_rate_off_interval",
                                       "mean_c_on", "mean_c_off"]
        assert main(["detect", "--input", str(tmp_path / "samples.f64"),
                     "--config", str(tmp_path / "config.json"), "--kind", kind,
                     "--out-dir", str(tmp_path / kind)]) == 0
        metrics = json.loads((tmp_path / kind / "report.json").read_text())["metrics"]
        assert entries[kind] == {key: metrics[key] for key in entries[kind]}
        assert summary["mean_on_interval_c"][kind] == metrics["mean_c_on"]
        assert summary["mean_off_interval_c"][kind] == metrics["mean_c_off"]


def test_demo_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["demo", "--seeds", "0", "1", "--out-dir", str(out)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert ((a / "series_tv_seed1.csv").read_bytes()
            == (b / "series_tv_seed1.csv").read_bytes())


def test_demo_k30_degrades_sq(tmp_path):
    assert main(["demo", "--experiment", "k30", "--seeds", "0",
                 "--out-dir", str(tmp_path)]) == 0
    k30 = json.loads((tmp_path / "summary.json").read_text())
    assert main(["demo", "--experiment", "k3", "--seeds", "0",
                 "--out-dir", str(tmp_path)]) == 0
    k3 = json.loads((tmp_path / "summary.json").read_text())
    assert k30["mean_on_interval_c"]["sq"] < k3["mean_on_interval_c"]["sq"]


# ---------------------------------------------------------------------------
# parser-level failures and module entry
# ---------------------------------------------------------------------------

def test_usage_errors_exit_3(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    detect = ["detect", "--input", "x.f64", "--config", "c.json"]
    # --format is taken only by tables and grid, --seed only by synth and demo
    unscoped = ([*detect, "--format", "json"], [*detect, "--seed", "1"],
                ["tables", "--seed", "1"], ["grid", "--kind", "sq", "--seed", "1"],
                ["synth", "--format", "json"], ["demo", "--format", "json"])
    # an empty selection, and two flags that each set the demo's seeds
    refused = {("tables", "--kinds", ","): "argument --kinds: expected at least one",
               ("tables", "--sizes", ""): "argument --sizes: expected at least one",
               ("demo", "--seed", "3", "--seeds", "1"): "not allowed with argument --seed"}
    for argv in (["frobnicate"], [], ["tables", "--mode", "psychic"], *unscoped,
                 *map(list, refused)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *out])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        if argv in unscoped:
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        if tuple(argv) in refused:
            assert refused[tuple(argv)] in err
    assert list(tmp_path.iterdir()) == []
    # a usage error leaves the shared parser fit for the next call
    assert main(["tables", "--sizes", "3", *out]) == 0


def test_module_entry_point(tmp_path):
    res = run_module("tables", "--sizes", "3", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "tables.csv (3 rows)" in res.stdout
    res = run_module("grid", "--kind", "sq", "--step", "0.5")
    assert res.returncode == 3
    assert "step" in res.stderr


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def test_outputs_rewritten_in_place(tmp_path, monkeypatch):
    # Every output is opened through os.open without O_TRUNC, never by a "w" or
    # "wb" open of its path, also when the out-dir holds an earlier run's files.
    # Opening a descriptor with "w" truncates nothing, so those calls pass.
    record = ["--input", str(tmp_path / "synth" / "samples.f64"),
              "--config", str(tmp_path / "synth" / "config.json")]
    commands = [
        ["synth", "--seed", "0", "--out-dir", str(tmp_path / "synth")],
        ["detect", *record, "--include-distributions", "--out-dir", str(tmp_path / "detect")],
        ["detect", *record, "--out-dir", str(tmp_path / "detect")],
        ["tables", "--sizes", "3,256", "--out-dir", str(tmp_path / "tables")],
        ["grid", "--kind", "tv", "--step", "0.05", "--out-dir", str(tmp_path / "grid")],
        ["demo", "--experiment", "k3", "--seeds", "0", "--out-dir", str(tmp_path / "demo")],
    ]
    for argv in commands:
        assert main(argv) == 0
    outputs = {str(p) for p in tmp_path.rglob("*") if p.is_file()}

    created, truncating = set(), []
    os_open, builtin_open = os.open, builtins.open

    def guarded_os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            truncating.append((os.fspath(path), "O_TRUNC"))
        if flags & os.O_CREAT:
            created.add(os.fspath(path))
        return os_open(path, flags, *args, **kwargs)

    def guarded_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "w" in mode:
            truncating.append((os.fspath(file), mode))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", guarded_os_open)
    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(io, "open", guarded_open)
    for argv in commands:
        assert main(argv) == 0
    monkeypatch.undo()
    assert truncating == []
    assert created == outputs
