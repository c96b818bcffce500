"""Command-line interface.

Subcommands: tables (optimum tables), grid (surface grids), synth
(signal synthesis), detect (windowed detection), demo (canned
experiments).  Every subcommand takes --out-dir; synth and demo take
--seed; tables and grid take --format.

Exit codes: 0 success, 2 I/O failure, 3 configuration error (bad flags,
unparseable or inconsistent config), 4 data-shape error (bad input
record or file layout).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .complexity import ComplexityKind, write_family_grid_csv, write_simplex_grid_csv
from .dist import check_family_size
from .errors import DataShapeError, RangeError
from .optimize import _TABLE_SIZES, build_optimum_table, threshold, write_table_csv
from .rows import round6, write_json
from .sigproc import (SignalConfig, check_sample_output, detect, read_samples,
                      reference_config, synthesize, write_report_json, write_samples,
                      write_series_csv)

_DEMO_EXPERIMENTS = {"k3": 3, "k30": 30}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _nonempty(items: list) -> list:
    if not items:
        raise argparse.ArgumentTypeError("expected at least one comma-separated value")
    return items


def _int_list(text: str):
    return _nonempty([int(v) for v in text.split(",") if v])


def _kind_list(text: str):
    return _nonempty([ComplexityKind.parse(v) for v in text.split(",") if v])


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_signal_config(path, seed_override=None) -> SignalConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise RangeError(f"{path}: config nests too deeply") from None
    cfg = SignalConfig.from_dict(data)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tables(args) -> int:
    records = build_optimum_table(kinds=args.kinds, ns=args.sizes, mode=args.mode)
    out = _out_dir(args) / f"tables.{args.format}"
    write_table_csv(out, records)
    print(f"wrote {out} ({len(records)} rows)")
    return 0


def cmd_grid(args) -> int:
    if not 1e-4 <= args.step <= 1e-1:
        raise RangeError("grid step must lie in [1e-4, 1e-1]")
    m = int(round(1.0 / args.step))
    kind = ComplexityKind.parse(args.kind)
    n = args.n if args.n is not None else (3 if args.simplex else 1024)
    # every check runs before the out-dir is made
    if not args.simplex:
        check_family_size(n)
    elif n != 3:
        raise RangeError("the simplex grid is defined for n = 3 only")
    out = _out_dir(args) / f"grid.{args.format}"
    if args.simplex:
        write_simplex_grid_csv(out, kind, m)
        n_rows = (m + 1) * (m + 2) // 2
    else:
        omegas = np.arange(1, m) / m
        p_maxes = np.arange(0, m + 1) / m
        write_family_grid_csv(out, kind, n, omegas, p_maxes)
        n_rows = omegas.size * p_maxes.size
    print(f"wrote {out} ({n_rows} rows)")
    return 0


def cmd_synth(args) -> int:
    if args.config is not None:
        cfg = _load_signal_config(args.config, seed_override=args.seed)
        if args.sigma is not None:
            cfg = dataclasses.replace(cfg, noise_sigma=args.sigma)
    else:
        cfg = reference_config(
            args.components,
            seed=0 if args.seed is None else args.seed,
            sample_rate=args.sample_rate, duration=args.duration, snr=args.snr,
            indicator_on=(args.t_start, args.t_end), noise_sigma=args.sigma)
    x = synthesize(cfg)
    if args.output:  # before the out-dir is made
        check_sample_output(args.output, cfg.sample_rate)
    out_dir = _out_dir(args)
    sample_path = Path(args.output) if args.output else out_dir / "samples.f64"
    write_samples(sample_path, x, cfg.sample_rate)
    config_path = out_dir / "config.json"
    write_json(config_path, cfg.to_dict())
    snr = cfg.effective_snr
    print(f"effective SNR: {'inf' if math.isinf(snr) else format(snr, '.6g')}")
    print(f"wrote {sample_path} ({x.size} samples)")
    print(f"wrote {config_path}")
    return 0


def cmd_detect(args) -> int:
    cfg = _load_signal_config(args.config)
    x, rate = read_samples(args.input)
    if rate is not None and int(round(rate)) != cfg.sample_rate:
        raise RangeError(
            f"input sample rate {rate:g} Hz does not match config "
            f"{cfg.sample_rate} Hz")
    kind = ComplexityKind.parse(args.kind)
    report = detect(x, cfg, kind=kind, fraction=args.fraction,
                    window_length=args.window_length,
                    include_distributions=args.include_distributions)
    out_dir = _out_dir(args)
    series_path = out_dir / "series.csv"
    report_path = out_dir / "report.json"
    write_series_csv(series_path, report.series)
    write_report_json(report_path, report)
    m = report.metrics.to_dict()
    print(f"threshold: {report.series.threshold:.6g}")
    for label, key in (("hit rate (on-interval)", "hit_rate_on_interval"),
                       ("false alarms (off-interval)", "false_alarm_rate_off_interval")):
        print(f"{label}: {'n/a' if m[key] is None else format(m[key], '.6g')}")
    print(f"wrote {series_path}")
    print(f"wrote {report_path}")
    return 0


def cmd_demo(args) -> int:
    n_components = _DEMO_EXPERIMENTS[args.experiment]
    if args.seeds is not None:
        seeds = list(args.seeds)
    else:
        seeds = [0 if args.seed is None else args.seed]
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise RangeError(f"seed {repeated} is given more than once")
    window_length = 2048
    fraction = 0.25
    configs = [reference_config(n_components, seed=seed, window_length=window_length)
               for seed in seeds]
    out_dir = _out_dir(args)
    kinds = list(ComplexityKind)
    summary = {
        "experiment": args.experiment,
        "n_components": n_components,
        "seeds": seeds,
        "window_length": window_length,
        "fraction": fraction,
        "thresholds": {k.value: round6(threshold(k, window_length, fraction))
                       for k in kinds},
        "per_seed": [],
    }
    metrics = {k.value: [] for k in kinds}
    written = []
    for seed, cfg in zip(seeds, configs):
        x = synthesize(cfg)
        seed_entry = {"seed": seed, "kinds": {}}
        for kind in kinds:
            report = detect(x, cfg, kind=kind, fraction=fraction,
                            window_length=window_length)
            series_path = out_dir / f"series_{kind.value}_seed{seed}.csv"
            write_series_csv(series_path, report.series)
            written.append(series_path)
            metrics[kind.value].append(report.metrics)
            entry = report.metrics.to_dict()
            seed_entry["kinds"][kind.value] = {k: entry[k] for k in report.metrics.STATISTICS}
        summary["per_seed"].append(seed_entry)
    for name, mean in (("mean_on_interval_c", "mean_c_on"), ("mean_off_interval_c", "mean_c_off")):
        summary[name] = {k: round6(sum(getattr(m, mean) for m in ms) / len(seeds))
                         for k, ms in metrics.items()}
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Built once per process.  Every default must stay immutable (or None),
# so that no call can leave state behind for the next one.
@functools.cache
def _build_parser() -> _Parser:
    out = _Parser(add_help=False)
    out.add_argument("--out-dir", default=".",
                     help="directory for output artifacts (default: .)")
    tabular = _Parser(add_help=False, parents=[out])
    tabular.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="tabular output format (default: csv)")

    parser = _Parser(prog="statcomplex",
                     description="Statistical-complexity analysis and detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", parents=[tabular],
                       help="optimum tables per complexity kind and alphabet size")
    p.add_argument("--kinds", type=_kind_list, default=None,
                   help="comma-separated subset of sq,jsd,tv (default: all)")
    p.add_argument("--sizes", type=_int_list, default=_TABLE_SIZES,
                   help="comma-separated alphabet sizes "
                        f"(default: {','.join(map(str, _TABLE_SIZES))})")
    p.add_argument("--mode", choices=("continuous", "integer"), default="continuous")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("grid", parents=[tabular],
                       help="complexity surface grid over the family or the 3-simplex")
    p.add_argument("--kind", required=True, help="one of sq, jsd, tv")
    p.add_argument("--n", type=int, default=None,
                   help="alphabet size (default: 1024, or 3 with --simplex)")
    p.add_argument("--step", type=float, default=0.01,
                   help="grid step in [1e-4, 1e-1] (default: 0.01)")
    p.add_argument("--simplex", action="store_true",
                   help="grid over the 3-state simplex instead")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("synth", parents=[out],
                       help="synthesize a burst record and write samples plus config echo")
    p.add_argument("--seed", type=int, default=None,
                   help="run seed (overrides any config-file seed)")
    p.add_argument("--config", default=None,
                   help="JSON signal config; omit to build a randomized reference config")
    p.add_argument("--components", type=int, default=3,
                   help="number of harmonic components for the reference config")
    p.add_argument("--sample-rate", type=int, default=8192)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--snr", type=float, default=1.0,
                   help="on-interval signal-to-noise ratio for the reference config")
    p.add_argument("--sigma", type=float, default=None,
                   help="explicit noise level (overrides the SNR rule)")
    p.add_argument("--t-start", type=float, default=3.0)
    p.add_argument("--t-end", type=float, default=7.0)
    p.add_argument("--output", default=None,
                   help="sample file path; extension picks the format "
                        "(.csv/.wav/.raw/.bin/.f64); default OUT_DIR/samples.f64")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", parents=[out],
                       help="windowed complexity detection over a sample file")
    p.add_argument("--input", required=True, help="sample file (.csv/.wav/.raw/.bin/.f64)")
    p.add_argument("--config", required=True,
                   help="JSON signal config describing the record (ground truth)")
    p.add_argument("--kind", default="tv", help="one of sq, jsd, tv (default: tv)")
    p.add_argument("--window-length", type=int, default=2048)
    p.add_argument("--fraction", type=float, default=0.25,
                   help="threshold as a fraction of the attainable maximum")
    p.add_argument("--include-distributions", action="store_true",
                   help="embed per-window distributions in the JSON report")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("demo", parents=[out],
                       help="canned detection experiments with all three kinds")
    p.add_argument("--experiment", choices=sorted(_DEMO_EXPERIMENTS), default="k3")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="run seed (default: 0)")
    seeds.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="seeds to run (default: --seed, else 0)")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
