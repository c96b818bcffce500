"""Benchmark of statcomplex: one workload per run, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from its
`src/`. The run sets up (imports statcomplex, builds the seed's inputs
through the program, runs one warm-up operation), then runs whole rounds
of operations until S seconds of operations have passed, checking every
operation's outputs between operations. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5          # set-ups per untraced run: this process and four fresh ones
PROBE_TIMEOUT_S = 120


def load_program():
    """Import statcomplex from this tree's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import statcomplex
    import statcomplex.cli  # noqa: F401  (the CLI is called as statcomplex.cli.main)
    where = Path(statcomplex.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"statcomplex imported from {where}, not from {ROOT / 'src'}")
    return statcomplex


def set_up(name, seed, workdir, trace, traced):
    """Import, build inputs, run one warm-up operation; returns (workload, warm-up, s)."""
    start = time.perf_counter()
    trace.begin(-1)
    program = load_program()
    if traced:
        trace.install(program)
    workload = workloads.WORKLOADS[name](program, seed, workdir, trace)
    workload.build_inputs()
    label, op = workload.round()[0]
    warm = op()
    trace.end()
    return workload, (label, warm), time.perf_counter() - start


def setup_probe(args):
    """Time one set-up in a fresh process; prints {"setup_s": ...}."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        _, _, seconds = set_up(args.workload, args.seed, tmp, tracing.Trace(), False)
    print(json.dumps({"setup_s": seconds}))


def probe_setups(args, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def output_bytes(result):
    return sum(Path(p).stat().st_size for p in result.get("written", ()))


def measure(args):
    trace = tracing.Trace()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload, (label, warm), setup_s = set_up(args.workload, args.seed, tmp, trace,
                                                  args.trace)
        workload.prepare_checks(workloads.thresholds())
        mismatches = 0
        try:
            workload.check(label, warm)
        except checks.Mismatch as exc:
            mismatches += 1
            print(f"warm-up output check failed: {exc}", file=sys.stderr)

        latencies, attempted, failed, timed = [], 0, 0, 0.0
        ops = workload.round()
        while timed < args.seconds:
            for label, op in ops:
                trace.begin(attempted)
                start = time.perf_counter()
                try:
                    result = op()
                except Exception:   # an operation that raises is counted, not fatal
                    timed += time.perf_counter() - start
                    trace.end()
                    attempted += 1
                    failed += 1
                    traceback.print_exc()
                    continue
                elapsed = time.perf_counter() - start
                trace.end()
                timed += elapsed
                attempted += 1
                if args.trace:
                    trace.add("cli.output_bytes", output_bytes(result))
                try:
                    workload.check(label, result)
                except checks.Mismatch as exc:
                    failed += 1
                    mismatches += 1
                    print(f"operation {attempted - 1} output check failed: {exc}",
                          file=sys.stderr)
                    continue
                latencies.append(elapsed)

    if not latencies:
        raise RuntimeError(f"no operation of {args.workload} completed")
    if args.trace:
        trace.write(WORK / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = tracing.layer_metrics(trace, attempted)
        metrics["trace.op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
    else:
        setups = [setup_s] + probe_setups(args, SETUP_SAMPLES - 1)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latencies) / timed, "op/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB"),
        }
    print(f"{args.workload}: {attempted} operations, {failed} failed, "
          f"{timed:.2f} s of operations", file=sys.stderr)
    return {"correct": mismatches == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
