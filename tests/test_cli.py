import json
import subprocess
import sys

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
    for argv in (["frobnicate"], [], ["tables", "--mode", "psychic"], *unscoped):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *out])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        if argv in unscoped:
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
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
