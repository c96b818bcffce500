"""Checks of the program's outputs against the oracle and the published values.

Every check raises `Mismatch` on the first disagreement. The checks read
the CLI's files in a streaming way where they are large, so that the
benchmark's own memory does not hide changes in the program's peak.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

import oracle

# tolerances
SERIES_RTOL = 1e-9       # in-memory C against the oracle, relative
SERIES_ATOL = 1e-12      # ... with this absolute floor
TIE_BAND = 1e-9          # decisions this close to the threshold may go either way
PUBLISHED_THRESHOLD_TOL = 2e-4
OPTIMUM_EVAL_TOL = 1e-10
OPTIMUM_GRID_TOL = 1e-9
CONTINUOUS_TOL = 1e-9


class Mismatch(Exception):
    """An output of the program disagrees with its reference."""


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


def _require_all(mask, message):
    mask = np.asarray(mask, dtype=bool)
    if not mask.all():
        bad = np.flatnonzero(~mask)
        raise Mismatch(f"{message}: {bad.size} of {mask.size} differ, first at {bad[0]}")


def _rounded(written, exact, message):
    _require_all(oracle.rounded_match(written, exact), message)


# ---------------------------------------------------------------------------
# windowed complexity in memory (series)
# ---------------------------------------------------------------------------

def check_series(columns, ref_c, zero, t_centers, gamma):
    """`columns` = (c_values, decisions, t_centers, len) of one WindowSeries."""
    c, decisions, t, length = columns
    _require(length == t_centers.size and c.shape == t_centers.shape,
             f"{length} windows, expected {t_centers.size}")
    _require_all(np.abs(t - t_centers) <= 1e-12 * t_centers, "window centers")
    _require_all(np.abs(c - ref_c) <= np.maximum(SERIES_RTOL * np.abs(ref_c), SERIES_ATOL),
                 "C against the oracle")
    _require_all(c[zero] == 0.0, "C of all-zero windows")
    clear = np.abs(ref_c - gamma) > TIE_BAND
    _require_all((decisions == (ref_c > gamma))[clear], "decisions against oracle C > threshold")


# ---------------------------------------------------------------------------
# detect files
# ---------------------------------------------------------------------------

def check_threshold(kind, written, gamma):
    """Reported threshold: near the published value, and the rounding of the oracle's."""
    _require(abs(written - oracle.PUBLISHED_THRESHOLD_2048[kind]) <= PUBLISHED_THRESHOLD_TOL,
             f"{kind} threshold {written} is not the published "
             f"{oracle.PUBLISHED_THRESHOLD_2048[kind]}")
    _rounded([written], [gamma], f"{kind} threshold against the oracle's {gamma!r}")


def check_detect(kind, series_csv, report, ref_c, states, n_samples, gamma, dists=None):
    """One `statcomplex detect` run: series.csv text and parsed report.json.

    `ref_c` and `states` are the oracle's C and window states; `dists`,
    when given, the oracle's spectra that --include-distributions embeds.
    """
    n_win = n_samples // 2048
    _require(report["kind"] == kind, f"report kind {report['kind']!r}, expected {kind!r}")
    rows = list(csv.DictReader(io.StringIO(series_csv)))
    windows = report["windows"]
    m = report["metrics"]
    _require(m["n_windows"] == n_win == len(windows) == len(rows) == ref_c.size,
             f"{m['n_windows']} windows ({len(windows)} in report, {len(rows)} in csv), "
             f"expected {n_win}")
    thr = float(report["threshold"])
    check_threshold(kind, thr, gamma)

    names = np.array([oracle.WINDOW_STATES[s] for s in states])
    _require_all(np.array([w["state"] for w in windows]) == names, "window states")
    for label, values in (("report", [w["c_value"] for w in windows]),
                          ("series.csv", [float(r["c_value"]) for r in rows])):
        _rounded(values, ref_c, f"{label} c_value against the oracle")
    decided = ref_c > thr
    clear = np.abs(ref_c - thr) > 5e-6 * thr
    for label, values in (("report", [w["decision"] for w in windows]),
                          ("series.csv", [r["decision"] == "1" for r in rows])):
        _require_all((np.array(values, dtype=bool) == decided)[clear],
                     f"{label} decisions against oracle C > threshold")
    t_centers = (np.arange(n_win) * 2048 + 1024) / 8192.0
    _rounded([float(r["t_center"]) for r in rows], t_centers, "series.csv t_center")

    on, off = states == 1, states == 0
    dec = np.array([w["decision"] for w in windows], dtype=bool)
    counts = {"n_on": int(on.sum()), "n_off": int(off.sum()),
              "n_mixed": int((states == -1).sum()),
              "n_hit": int((dec & on).sum()), "n_false_alarm": int((dec & off).sum())}
    for key, want in counts.items():
        _require(m[key] == want, f"metrics {key} = {m[key]}, expected {want}")

    if dists is not None:
        got = np.asarray(report.get("distributions", []), dtype=np.float64)
        _require(got.shape == dists.shape,
                 f"distributions of shape {got.shape}, expected {dists.shape}")
        _rounded(got, dists, "embedded distributions against the oracle")


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------

def _check_grid_rows(label, rows, parse, expect_rows, expect, sample):
    """Count `rows`; compare the sampled ones, read by `parse`, with `expect(index)`."""
    got = {}
    count = 0
    for index, raw in enumerate(rows):
        if index in sample:
            got[index] = parse(raw)
        count += 1
    _require(count == expect_rows, f"{label}: {count} rows, expected {expect_rows}")
    idx = sorted(i for i in sample if i < count)
    written = np.array([got[i] for i in idx], dtype=np.float64)
    exact = np.array([expect(i) for i in idx], dtype=np.float64)
    _rounded(written, exact, f"{label}: sampled rows against the definitions")


def check_family_grid_csv(path, kind, n, m, sample):
    """`grid --kind KIND --n N --step 1/m` CSV: (m-1)(m+1) rows (omega, p_max, c)."""
    def expect(index):
        a, b = divmod(index, m + 1)
        omega, p = (a + 1) / m, b / m
        return omega, p, float(oracle.two_level(kind, n, omega * n, p))

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        _require(header == "omega,p_max,c", f"grid header {header!r}")
        _check_grid_rows("family grid", fh, lambda line: [float(v) for v in line.split(",")],
                         (m - 1) * (m + 1), expect, sample)


_OBJECT = re.compile(r"\{[^{}]*\}")


def check_simplex_grid_json(path, kind, m, sample):
    """`grid --simplex --n 3 --step 1/m --format json`: (m+1)(m+2)/2 rows (p1, p2, c)."""
    # row index -> (i, j): row i of the lattice holds m + 1 - i cells
    first = np.concatenate([[0], np.cumsum(np.arange(m + 1, 0, -1))])

    def expect(index):
        i = int(np.searchsorted(first, index, side="right")) - 1
        x, y = i / m, (index - first[i]) / m
        return x, y, float(oracle.simplex3(kind, x, y))

    def parse(match):
        row = load_json(match.group())
        return row["p1"], row["p2"], row["c"]

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _require(text.lstrip().startswith("[") and text.rstrip().endswith("]"),
             "simplex grid is not a JSON array")
    _check_grid_rows("simplex grid", _OBJECT.finditer(text), parse,
                     int(first[-1]), expect, sample)


# ---------------------------------------------------------------------------
# optimum tables
# ---------------------------------------------------------------------------

_TABLE_HEADER = "kind,n,c_star,p_max_star,omega_star,n_minus_k_star"


def check_table_csv(text, order, records):
    """tables.csv rows in the requested kind-major order, rounding the records."""
    lines = text.strip().splitlines()
    _require(lines and lines[0] == _TABLE_HEADER, "tables.csv header")
    rows = [line.split(",") for line in lines[1:]]
    _require([(r[0], int(r[1])) for r in rows] == order,
             f"tables.csv rows {[(r[0], r[1]) for r in rows]}, expected {order}")
    for r, key in zip(rows, order):
        rec = records[key]
        _rounded([float(v) for v in r[2:5]], [rec.c_star, rec.p_max_star, rec.omega_star],
                 f"tables.csv row {key} against its record")
        _require(int(r[5]) == round(key[1] * (1.0 - rec.omega_star)),
                 f"tables.csv row {key}: n_minus_k_star {r[5]}")
    return {key: [float(v) for v in r[2:5]] for r, key in zip(rows, order)}


def check_continuous_table(written, records, c_ref):
    """Published values within the acceptance gate's tolerances; oracle maximum."""
    for (kind, n), (c, p, w) in written.items():
        c_pub, p_pub, w_pub = oracle.PUBLISHED[kind][n]
        c_tol = 1e-3 if n == 3 else 5e-4
        _require(abs(c - c_pub) <= c_tol and abs(p - p_pub) <= 5e-3 and abs(w - w_pub) <= 5e-3,
                 f"continuous optimum {kind} n={n}: ({c}, {p}, {w}) against published "
                 f"({c_pub}, {p_pub}, {w_pub})")
        c_star = records[kind, n].c_star
        _require(abs(c_star - c_ref[kind, n]) <= CONTINUOUS_TOL,
                 f"continuous c* {kind} n={n} = {c_star!r}, oracle maximum {c_ref[kind, n]!r}")


def check_integer_table(records, continuous, grid_max):
    """Each integer optimum: value at (k*, p*), not beaten on the grid, below continuous."""
    for (kind, n), rec in records.items():
        k = round(rec.omega_star * n)
        _require(1 <= k <= n - 1 and abs(rec.omega_star * n - k) <= 1e-9,
                 f"integer optimum {kind} n={n}: omega* n = {rec.omega_star * n!r}")
        c_eval = float(oracle.two_level(kind, n, k, rec.p_max_star))
        _require(abs(rec.c_star - c_eval) <= OPTIMUM_EVAL_TOL,
                 f"integer c* {kind} n={n} = {rec.c_star!r}, two-level value {c_eval!r}")
        _require(grid_max[kind, n] <= rec.c_star + OPTIMUM_GRID_TOL,
                 f"integer c* {kind} n={n} = {rec.c_star!r} below grid point "
                 f"{grid_max[kind, n]!r}")
        _require(rec.c_star <= continuous[kind, n].c_star + OPTIMUM_GRID_TOL,
                 f"integer c* {kind} n={n} above the continuous optimum")


def load_json(text):
    """json.loads that refuses NaN and infinities, which strict JSON lacks."""
    def refuse(token):
        raise Mismatch(f"non-finite JSON value {token}")
    return json.loads(text, parse_constant=refuse)
