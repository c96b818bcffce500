"""Layer spans recorded from outside the program.

`Trace.install` replaces each traced public name of statcomplex, in every
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and operation id. Callers inside the program look
the wrappers up as they would the originals (for example `sigproc` calls
its own imported `complexity_value`), so the spans nest as the calls do.

Aggregates (calls, busy time, self time, amounts) are kept for every span.
A traced `tables` operation makes about 600,000 kernel calls, so raw spans
are kept in memory only for the set-up and the first timed operation, and
`write` saves those to an .npz file when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Public names timed per layer (module -> names). Names a later version of
# the program drops are skipped, and their metrics read 0.
TRACED = {
    "sigproc": ("complexity_series", "spectrum_distribution", "read_samples",
                "classify_windows", "synthesize", "write_samples", "report_to_dict",
                "write_report_json", "write_series_csv"),
    "measures": ("entropy_normalized", "disequilibrium_sq", "total_variation", "jsd"),
    "complexity": ("complexity_value", "family_surface", "simplex3_surface",
                   "write_family_grid_csv", "write_simplex_grid_csv"),
    "kernels": ("family_hdc", "family_c_grid", "simplex3_c_grid"),
    "optimize": ("maximize_family", "write_table_csv"),
    "cli": ("main",),
}
CONSTRUCTOR = ("dist", "DiscreteDistribution")
KEEP_SPANS_OPS = 1

_HDC = "kernels.family_hdc"
_KERNELS = ("kernels.family_hdc", "kernels.family_c_grid", "kernels.simplex3_c_grid")
_SOLVE = "optimize.maximize_family"


class Trace:
    """Span recorder; records nothing until `install` and `begin`."""

    def __init__(self):
        self.op = -1            # operation id; -1 is the set-up
        self.kind = None        # complexity kind the benchmark is running, if any
        self.recording = False
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0.0])  # calls, s, self s, amount
        self.counts = defaultdict(float)
        self._stack = []        # open frames: [name, start, child s, hdc, kernels, span]
        self._names = {}
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_op = array("i")

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every traced name bound anywhere in `package`'s modules."""
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for module_name, names in TRACED.items():
            module = getattr(package, module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                amount = _result_size if name == "family_c_grid" else None
                wrapped = self._wrap(f"{module_name}.{name}", original, amount)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        module = getattr(package, CONSTRUCTOR[0])
        cls = getattr(module, CONSTRUCTOR[1], None)
        if cls is not None:
            cls.__init__ = self._wrap(".".join(CONSTRUCTOR), cls.__init__, None)

    def _wrap(self, name, fn, amount):
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not trace.recording:
                return fn(*args, **kwargs)
            frame = trace._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._close(frame)
            if amount is not None:
                trace.totals[trace._key(name)][3] += amount(result)
            return result

        for attr in ("cache_clear", "cache_info"):   # a memo stays reachable
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- recording ---------------------------------------------------------

    def begin(self, op):
        self.op = op
        self.recording = True

    def end(self):
        self.recording = False

    def add(self, name, amount):
        """Count `amount` under `name` for the current operation."""
        self.counts[self._key(name)] += amount

    def _key(self, name):
        return ("setup" if self.op < 0 else "ops", name, self.kind)

    def _open(self, name):
        span = -1
        if self.op < KEEP_SPANS_OPS:
            span = len(self._span_start)
            self._span_name.append(self._names.setdefault(name, len(self._names)))
            self._span_parent.append(self._stack[-1][5] if self._stack else -1)
            self._span_op.append(self.op)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        frame = [name, 0.0, 0.0, 0, 0, span]
        self._stack.append(frame)
        frame[1] = start = time.perf_counter()
        if span >= 0:
            self._span_start[span] = start
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        name, start, child, hdc, kernels, span = frame
        self._stack.pop()
        if span >= 0:
            self._span_end[span] = end
        duration = end - start
        total = self.totals[self._key(name)]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if name == _HDC:
            hdc += 1
        if name in _KERNELS:
            kernels += 1
        if name == _SOLVE and kernels:
            self.counts[self._key("optimize.maximize_family.solves")] += 1
            self.counts[self._key("optimize.maximize_family.solve_hdc")] += hdc
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += hdc
            parent[4] += kernels

    # -- results -----------------------------------------------------------

    def calls(self, name, phase="ops", kind=None):
        return self._sum(name, 0, phase, kind)

    def seconds(self, name, phase="ops", kind=None):
        return self._sum(name, 1, phase, kind)

    def self_seconds(self, name, phase="ops", kind=None):
        return self._sum(name, 2, phase, kind)

    def amount(self, name, phase="ops", kind=None):
        return self._sum(name, 3, phase, kind)

    def count(self, name, phase="ops", kind=None):
        return sum(v for (p, n, k), v in self.counts.items()
                   if p == phase and n == name and (kind is None or k == kind))

    def _sum(self, name, field, phase, kind):
        return sum(v[field] for (p, n, k), v in self.totals.items()
                   if p == phase and n == name and (kind is None or k == kind))

    def write(self, path):
        """Save the kept spans: name index, names, start, end, parent index, op id."""
        names = sorted(self._names, key=self._names.get)
        np.savez_compressed(path, names=np.array(names), name=np.array(self._span_name),
                            start=np.array(self._span_start), end=np.array(self._span_end),
                            parent=np.array(self._span_parent), op=np.array(self._span_op))


def _result_size(result):
    return int(np.asarray(result).size)


def layer_metrics(trace, n_ops):
    """Per-layer metrics of a traced run, per timed operation unless stated."""
    per_op = 1.0 / n_ops
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def timed(name, calls=False):
        put(f"{name}.s", trace.seconds(name) * per_op, "s/op")
        if calls:
            put(f"{name}.calls", trace.calls(name) * per_op, "count/op")

    timed("sigproc.spectrum_distribution", calls=True)
    put("sigproc.complexity_series.self_s",
        trace.self_seconds("sigproc.complexity_series") * per_op, "s/op")
    for name in ("read_samples", "classify_windows", "report_to_dict",
                 "write_report_json", "write_series_csv"):
        timed(f"sigproc.{name}")
    put("sigproc.synthesize.s", trace.seconds("sigproc.synthesize", "setup"), "s/setup")

    ctor = "dist.DiscreteDistribution"
    put(f"{ctor}.constructions", trace.calls(ctor) * per_op, "count/op")
    put(f"{ctor}.s", trace.seconds(ctor) * per_op, "s/op")
    for kind in (None, "sq", "jsd", "tv"):
        windows = trace.calls("sigproc.spectrum_distribution", kind=kind)
        ratio = trace.calls(ctor, kind=kind) / windows if windows else 0.0
        put("dist.constructions_per_window" + (f".{kind}" if kind else ""), ratio, "ratio")

    for name in ("entropy_normalized", "disequilibrium_sq", "total_variation", "jsd"):
        timed(f"measures.{name}", calls=True)

    timed("complexity.complexity_value", calls=True)
    for name in ("family_surface", "simplex3_surface", "write_family_grid_csv",
                 "write_simplex_grid_csv"):
        timed(f"complexity.{name}")

    timed("kernels.family_hdc", calls=True)
    timed("kernels.family_c_grid", calls=True)
    put("kernels.family_c_grid.cells", trace.amount("kernels.family_c_grid") * per_op,
        "count/op")
    timed("kernels.simplex3_c_grid")

    timed("optimize.maximize_family", calls=True)
    solves = trace.count("optimize.maximize_family.solves")
    calls = trace.calls("optimize.maximize_family")
    put("optimize.maximize_family.solves", solves * per_op, "count/op")
    put("optimize.memo_hit_ratio", 1.0 - solves / calls if calls else 0.0, "ratio")
    put("optimize.family_hdc_per_solve",
        trace.count("optimize.maximize_family.solve_hdc") / solves if solves else 0.0,
        "count/solve")

    timed("cli.main")
    put("cli.self_s", trace.self_seconds("cli.main") * per_op, "s/op")
    put("cli.output_bytes", trace.count("cli.output_bytes") * per_op, "bytes/op")
    return m
