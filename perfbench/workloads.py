"""The four workloads: inputs made through the program, operations, checks.

Each workload builds its inputs from the seed through the program
(`synthesize` or `statcomplex synth`), then offers one round of
operations. Every operation of a workload does the same fixed work; a
round is the smallest set of operations that covers all of its inputs.
Operations call only the program's stable public surface: `cli.main`,
`complexity_series`, `synthesize`, `reference_config`, `maximize_family`
(and its memo's `cache_clear`), `ComplexityKind` and the WindowSeries
columns `c_values`, `decisions`, `t_centers` and `len`.
"""

from __future__ import annotations

import contextlib
import functools
import io
from pathlib import Path

import numpy as np

import checks
import oracle

WINDOW = 2048
RATE = 8192
ON_INTERVAL = (3.0, 7.0)
SERIES_HOP = 64
SERIES_SECONDS = 12.0     # longer than the 10 s reference record
DETECT_SECONDS = 10.0
GRID_STEP = "0.002"
GRID_M = 500
GRID_SAMPLE = 200         # grid rows checked per file against the definitions
TABLE_SIZES = (3, 256, 512, 1024, 2048)


class CliError(Exception):
    """`statcomplex` returned a non-zero exit code."""


def record_seeds(seed, count):
    """Seeds of the records a workload synthesizes, drawn from the run seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def run_cli(program, argv):
    """Run `statcomplex ARGV` in process; returns the paths it reports writing."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = program.cli.main([str(a) for a in argv])
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    if code != 0:
        raise CliError(f"statcomplex {' '.join(map(str, argv))} exited with {code}")
    return [Path(line[len("wrote "):].split(" (")[0])
            for line in out.getvalue().splitlines() if line.startswith("wrote ")]


def clear_memo(program):
    """Empty the optimum memo, as a fresh process has it."""
    clear = getattr(program.maximize_family, "cache_clear", None)
    if clear is not None:
        clear()


class Workload:
    """Base: subclasses define `build_inputs`, `prepare_checks`, `round`, `check`."""

    name = ""

    def __init__(self, program, seed, workdir, trace):
        self.program = program
        self.seed = seed
        self.workdir = Path(workdir)
        self.trace = trace
        self.kinds = [program.ComplexityKind(k) for k in oracle.KINDS]

    def cli(self, *argv):
        return run_cli(self.program, argv)

    def round(self):
        """[(label, operation)]; each operation returns what `check` reads."""
        raise NotImplementedError


class Series(Workload):
    """One record through complexity_series at hop 64, once per kind; memo warm."""

    name = "series"

    def build_inputs(self):
        sc = self.program
        s = record_seeds(self.seed, 3)
        configs = [sc.reference_config(3, seed=s[0], duration=SERIES_SECONDS),
                   sc.reference_config(30, seed=s[1], duration=SERIES_SECONDS),
                   sc.reference_config(3, seed=s[2], duration=SERIES_SECONDS,
                                       noise_sigma=0.0)]
        self.records = [sc.synthesize(c) for c in configs]

    def prepare_checks(self, gamma):
        self.gamma = gamma
        self.refs = [oracle.window_complexity(x, WINDOW, SERIES_HOP) for x in self.records]
        if not self.refs[2][1].any():
            raise checks.Mismatch("the noise-free record has no all-zero window")
        n_win = (self.records[0].size - WINDOW) // SERIES_HOP + 1
        self.t_centers = (np.arange(n_win) * SERIES_HOP + WINDOW / 2) / RATE

    def round(self):
        return [(i, functools.partial(self._op, x)) for i, x in enumerate(self.records)]

    def _op(self, x):
        return {kind.value: self._columns(x, kind) for kind in self.kinds}

    def _columns(self, x, kind):
        self.trace.kind = kind.value
        s = self.program.complexity_series(x, window_length=WINDOW, hop=SERIES_HOP,
                                           kind=kind, sample_rate=RATE)
        return s.c_values, s.decisions, s.t_centers, len(s)

    def check(self, label, result):
        ref_c, zero = self.refs[label]
        for kind, columns in result.items():
            checks.check_series(columns, ref_c[kind], zero, self.t_centers, self.gamma[kind])


class Detect(Workload):
    """`statcomplex detect` on one 10 s record file, once per kind; memo cold."""

    name = "detect"

    def build_inputs(self):
        s = record_seeds(self.seed, 2)
        self.records = []
        for i, (components, ext) in enumerate(((3, "f64"), (30, "wav"))):
            d = self.workdir / f"record{i}"
            self.cli("synth", "--components", components, "--seed", s[i],
                     "--duration", DETECT_SECONDS, "--sample-rate", RATE,
                     "--t-start", ON_INTERVAL[0], "--t-end", ON_INTERVAL[1],
                     "--output", d / f"samples.{ext}", "--out-dir", d)
            self.records.append((d / f"samples.{ext}", d / "config.json"))

    def prepare_checks(self, gamma):
        self.gamma = gamma
        self.refs = []
        for samples, _ in self.records:
            x = oracle.read_record(samples)
            c, _ = oracle.window_complexity(x, WINDOW, WINDOW)
            states = oracle.window_states(x.size, RATE, WINDOW, WINDOW, ON_INTERVAL)
            self.refs.append((c, states, x.size))

    def round(self):
        return [(i, functools.partial(self._op, i)) for i in range(len(self.records))]

    def _op(self, i):
        samples, config = self.records[i]
        written = []
        for kind in oracle.KINDS:
            clear_memo(self.program)
            self.trace.kind = kind
            written += self.cli("detect", "--input", samples, "--config", config,
                                "--kind", kind, "--out-dir", self._out(i, kind))
        return {"written": written}

    def _out(self, i, kind):
        return self.workdir / f"out{i}" / kind

    def check(self, label, result):
        c, states, n_samples = self.refs[label]
        for kind in oracle.KINDS:
            out = self._out(label, kind)
            report = checks.load_json((out / "report.json").read_text(encoding="utf-8"))
            checks.check_detect(kind, (out / "series.csv").read_text(encoding="utf-8"),
                                report, c[kind], states, n_samples, self.gamma[kind])


class Tables(Workload):
    """`statcomplex tables` continuous, then integer; every kind and size, memo cold."""

    name = "tables"

    def build_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.kind_order = [str(k) for k in rng.permutation(oracle.KINDS)]
        self.size_order = [int(n) for n in rng.permutation(TABLE_SIZES)]
        self.order = [(k, n) for k in self.kind_order for n in self.size_order]

    def prepare_checks(self, gamma):
        self.continuous_ref = {(k, n): oracle.continuous_max(k, n) for k, n in self.order}
        self.grid_max = {(k, n): oracle.integer_grid_max(k, n) for k, n in self.order}

    def round(self):
        return [(0, self._op)]

    def _op(self):
        clear_memo(self.program)
        written = []
        for mode in ("continuous", "integer"):
            written += self.cli("tables", "--kinds", ",".join(self.kind_order),
                                "--sizes", ",".join(map(str, self.size_order)),
                                "--mode", mode, "--out-dir", self.workdir / mode)
        return {"written": written}

    def _records(self, mode):
        # memo hits after the operation: the records the CLI just computed
        mf = self.program.maximize_family
        return {(k, n): mf(self.program.ComplexityKind(k), n, mode=mode) for k, n in self.order}

    def check(self, label, result):
        written = {}
        records = {}
        for mode in ("continuous", "integer"):
            records[mode] = self._records(mode)
            text = (self.workdir / mode / "tables.csv").read_text(encoding="utf-8")
            written[mode] = checks.check_table_csv(text, self.order, records[mode])
        checks.check_continuous_table(written["continuous"], records["continuous"],
                                      self.continuous_ref)
        checks.check_integer_table(records["integer"], records["continuous"], self.grid_max)


class Emit(Workload):
    """Bulk output: a family grid as CSV, the simplex grid as JSON, detect with spectra."""

    name = "emit"
    SIMPLEX_KIND = "sq"
    DETECT_KIND = "tv"

    def build_inputs(self):
        d = self.workdir / "record"
        self.cli("synth", "--components", 3, "--seed", record_seeds(self.seed, 1)[0],
                 "--duration", DETECT_SECONDS, "--sample-rate", RATE,
                 "--t-start", ON_INTERVAL[0], "--t-end", ON_INTERVAL[1],
                 "--output", d / "samples.f64", "--out-dir", d)
        self.record = (d / "samples.f64", d / "config.json")

    def prepare_checks(self, gamma):
        self.gamma = gamma[self.DETECT_KIND]
        x = oracle.read_record(self.record[0])
        self.ref_c = oracle.window_complexity(x, WINDOW, WINDOW)[0][self.DETECT_KIND]
        self.ref_p = oracle.window_distributions(x, WINDOW, WINDOW)
        self.states = oracle.window_states(x.size, RATE, WINDOW, WINDOW, ON_INTERVAL)
        self.n_samples = x.size
        rng = np.random.default_rng([self.seed, 1])
        self.family_rows = {0, (GRID_M - 1) * (GRID_M + 1) - 1,
                            *map(int, rng.integers(0, (GRID_M - 1) * (GRID_M + 1), GRID_SAMPLE))}
        n_simplex = (GRID_M + 1) * (GRID_M + 2) // 2
        self.simplex_rows = {0, n_simplex - 1,
                             *map(int, rng.integers(0, n_simplex, GRID_SAMPLE))}

    def round(self):
        return [(0, self._op)]

    def _op(self):
        w = self.workdir
        written = self.cli("grid", "--kind", "tv", "--n", 1024, "--step", GRID_STEP,
                           "--out-dir", w / "family")
        written += self.cli("grid", "--kind", self.SIMPLEX_KIND, "--simplex", "--n", 3,
                            "--step", GRID_STEP, "--format", "json", "--out-dir", w / "simplex")
        clear_memo(self.program)
        self.trace.kind = self.DETECT_KIND
        written += self.cli("detect", "--input", self.record[0], "--config", self.record[1],
                            "--kind", self.DETECT_KIND, "--include-distributions",
                            "--out-dir", w / "detect")
        self.trace.kind = None
        return {"written": written}

    def check(self, label, result):
        w = self.workdir
        checks.check_family_grid_csv(w / "family" / "grid.csv", "tv", 1024, GRID_M,
                                     self.family_rows)
        checks.check_simplex_grid_json(w / "simplex" / "grid.json", self.SIMPLEX_KIND, GRID_M,
                                       self.simplex_rows)
        report = checks.load_json((w / "detect" / "report.json").read_text(encoding="utf-8"))
        checks.check_detect(self.DETECT_KIND,
                            (w / "detect" / "series.csv").read_text(encoding="utf-8"), report,
                            self.ref_c, self.states, self.n_samples, self.gamma,
                            dists=self.ref_p)


WORKLOADS = {w.name: w for w in (Series, Detect, Tables, Emit)}


def thresholds():
    """Independent 25%-of-maximum thresholds at the window length, per kind."""
    return {k: 0.25 * oracle.continuous_max(k, WINDOW) for k in oracle.KINDS}

