"""The output checks accept the program's real outputs and refuse planted errors.

    python3 -m pytest perfbench
"""

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
import statcomplex.cli  # noqa: E402

GRID_M = 100   # step 0.01 keeps the grid files small


def cli(*argv):
    return workloads.run_cli(statcomplex, argv)


@pytest.fixture(scope="module")
def gamma():
    return workloads.thresholds()


@pytest.fixture(scope="module")
def series():
    cfg = statcomplex.reference_config(3, seed=7, duration=8.0, noise_sigma=0.0)
    x = statcomplex.synthesize(cfg)
    s = statcomplex.complexity_series(x, window_length=2048, hop=64,
                                      kind=statcomplex.ComplexityKind.TV, sample_rate=8192)
    c, zero = oracle.window_complexity(x, 2048, 64)
    t = (np.arange(len(s)) * 64 + 1024) / 8192
    return (s.c_values, s.decisions, s.t_centers, len(s)), c["tv"], zero, t


@pytest.fixture(scope="module")
def detect(tmp_path_factory):
    d = tmp_path_factory.mktemp("detect")
    cli("synth", "--components", 3, "--seed", 4, "--output", d / "samples.f64", "--out-dir", d)
    cli("detect", "--input", d / "samples.f64", "--config", d / "config.json", "--kind", "tv",
        "--include-distributions", "--out-dir", d)
    x = oracle.read_record(d / "samples.f64")
    return SimpleNamespace(
        csv=(d / "series.csv").read_text(encoding="utf-8"),
        report=checks.load_json((d / "report.json").read_text(encoding="utf-8")),
        c=oracle.window_complexity(x, 2048, 2048)[0]["tv"],
        states=oracle.window_states(x.size, 8192, 2048, 2048, (3.0, 7.0)),
        n=x.size, dists=oracle.window_distributions(x, 2048, 2048))


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    d = tmp_path_factory.mktemp("grids")
    cli("grid", "--kind", "tv", "--n", 1024, "--step", 1 / GRID_M, "--out-dir", d / "family")
    cli("grid", "--kind", "sq", "--simplex", "--n", 3, "--step", 1 / GRID_M,
        "--format", "json", "--out-dir", d / "simplex")
    return d / "family" / "grid.csv", d / "simplex" / "grid.json"


def check_detect(run, gamma, report=None):
    checks.check_detect("tv", run.csv, run.report if report is None else report, run.c,
                        run.states, run.n, gamma["tv"], dists=run.dists)


def test_series_check_accepts_and_refuses_c_off_by_1e_6(series, gamma):
    columns, c, zero, t = series
    assert zero.any()
    checks.check_series(columns, c, zero, t, gamma["tv"])
    planted = (columns[0] * (1.0 + 1e-6),) + columns[1:]
    with pytest.raises(checks.Mismatch, match="C against the oracle"):
        checks.check_series(planted, c, zero, t, gamma["tv"])


def test_detect_check_accepts_program_output(detect, gamma):
    check_detect(detect, gamma)


def test_detect_check_refuses_threshold_off_by_1e_3(detect, gamma):
    report = copy.deepcopy(detect.report)
    report["threshold"] += 1e-3
    with pytest.raises(checks.Mismatch, match="threshold"):
        check_detect(detect, gamma, report)


def test_detect_check_refuses_wrong_window_state(detect, gamma):
    report = copy.deepcopy(detect.report)
    report["windows"][0]["state"] = "on" if report["windows"][0]["state"] != "on" else "off"
    with pytest.raises(checks.Mismatch, match="window states"):
        check_detect(detect, gamma, report)


def test_detect_check_refuses_changed_c_value(detect, gamma):
    report = copy.deepcopy(detect.report)
    window = report["windows"][-1]
    window["c_value"] = float(f"{window['c_value'] * (1.0 + 2e-5):.6g}")
    with pytest.raises(checks.Mismatch, match="c_value"):
        check_detect(detect, gamma, report)


def test_grid_checks_accept_program_output(grids):
    family, simplex = grids
    checks.check_family_grid_csv(family, "tv", 1024, GRID_M, set(range(0, 9999, 97)))
    checks.check_simplex_grid_json(simplex, "sq", GRID_M, set(range(0, 5151, 53)))


def test_grid_checks_refuse_dropped_row(grids, tmp_path):
    family, simplex = grids
    lines = family.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = tmp_path / "grid.csv"
    dropped.write_text("".join(lines[:500] + lines[501:]), encoding="utf-8")
    with pytest.raises(checks.Mismatch, match="rows, expected"):
        checks.check_family_grid_csv(dropped, "tv", 1024, GRID_M, {0})
    text = simplex.read_text(encoding="utf-8")
    first = text.index("}, ") + 3
    dropped = tmp_path / "grid.json"
    dropped.write_text("[" + text[first:], encoding="utf-8")
    with pytest.raises(checks.Mismatch, match="rows, expected"):
        checks.check_simplex_grid_json(dropped, "sq", GRID_M, {0})


def test_grid_check_refuses_wrong_value(grids, tmp_path):
    family, _ = grids
    lines = family.read_text(encoding="utf-8").splitlines(keepends=True)
    omega, p, c = lines[1 + 4321].strip().split(",")
    lines[1 + 4321] = f"{omega},{p},{float(c) * 1.001:.6g}\n"
    changed = tmp_path / "grid.csv"
    changed.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(checks.Mismatch, match="sampled rows"):
        checks.check_family_grid_csv(changed, "tv", 1024, GRID_M, {4321})


def test_integer_table_check_refuses_c_off_by_1e_6():
    kind = statcomplex.ComplexityKind.TV
    integer = {("tv", 256): statcomplex.maximize_family(kind, 256, mode="integer")}
    continuous = {("tv", 256): statcomplex.maximize_family(kind, 256)}
    grid_max = {("tv", 256): oracle.integer_grid_max("tv", 256)}
    checks.check_integer_table(integer, continuous, grid_max)
    rec = integer["tv", 256]
    planted = SimpleNamespace(c_star=rec.c_star + 1e-6, p_max_star=rec.p_max_star,
                              omega_star=rec.omega_star)
    with pytest.raises(checks.Mismatch, match="two-level value"):
        checks.check_integer_table({("tv", 256): planted}, continuous, grid_max)
