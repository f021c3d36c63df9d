"""The gdnls benchmark: time one workload of `gdnls` experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload endpoint-scan --seed 0 --seconds 25 --trace 0

One process runs a closed loop: each experiment of the workload in turn,
in-process through `gdnls.cli.run` on a validated config, writing its CSV
and manifest to a scratch directory under `.perfbench/`. Every experiment
of every iteration passes through the output gate (gates.py); failures are
counted, never fatal. Iterations repeat until the next one would end after
`--seconds`, with at least MIN_ITERATIONS of them.

`--trace 0` reports the end-to-end metrics: medians over the iterations,
and `setup_s` as the median of SETUP_SAMPLES fresh interpreters. Their
times are in reference seconds: wall time adjusted for the host's speed
at that moment by the probe of speed.py. Raw wall times are printed and
kept in the results file too.
`--trace 1` alternates untraced and traced iterations and reports the
per-layer metrics of tracing.py plus the tracing overhead; it runs no
speed probe, so its times are raw.

The process is pinned to one CPU and every BLAS/OpenMP thread variable is
set to 1, so that the probe and the work share a core.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record, with the
run environment and every sample, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import gates
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ITERATIONS = 2
HARD_LIMIT_S = 140.0   # stop early rather than overrun the 180 s run limit
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# primary_s: every step of an iteration but the last; secondary_s: the last.
# Times are reference seconds (speed.py).
END_TO_END = {"wall_s": "s", "primary_s": "s", "secondary_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


class Iteration(NamedTuple):
    wall: float
    step_s: list
    outcomes: list      # ResultRecord, or the formatted traceback of a failure
    ref_step_s: tuple = ()   # reference seconds, when a speed probe ran


def one_thread() -> None:
    """Set every BLAS/OpenMP thread variable to 1 (before numpy is imported)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(workload: str, seed: int, probe) -> tuple:
    """(reference seconds, raw seconds) of SETUP_SAMPLES fresh interpreters.

    The child shares the pinned core, so the probe runs only before and
    after it, never alongside, where it would time the child's share too.
    """
    ref, raw = [], []
    for _ in range(SETUP_SAMPLES):
        probe.mark()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        probe.mark()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        start, end = map(float, proc.stdout.split()[-2:])
        ref.append(probe.between(start, end))
        raw.append(end - start)
    return ref, raw


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_iteration(cli, configs, out_dir: Path, tracer=None, probe=None) -> Iteration:
    """One pass over the configs; with a probe, which must be running, also
    in reference seconds."""
    step_s, outcomes, marks = [], [], []
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        if tracer is not None:
            tracer.step = i
        if probe is not None:
            marks.append(probe.mark())
        t = time.perf_counter()
        try:
            outcomes.append(cli.run(cfg, out_dir))
        except Exception:  # a failed experiment is counted, never fatal
            outcomes.append(traceback.format_exc())
        step_s.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    if probe is None:
        return Iteration(wall, step_s, outcomes)
    marks.append(probe.mark())
    ref_step_s = [probe.between(a, b) for a, b in zip(marks, marks[1:])]
    return Iteration(wall, step_s, outcomes, ref_step_s)


def gate_iteration(steps, configs, it: Iteration, out_dir: Path, reference):
    """(failures as {label: messages}, CSV bytes written) of one iteration."""
    failures, csv_bytes = {}, 0
    for step, cfg, outcome in zip(steps, configs, it.outcomes):
        if isinstance(outcome, str):
            failures[step.label] = [outcome]
            continue
        text = (out_dir / f"{step.label}.csv").read_text()
        csv_bytes += len(text.encode())
        ref = reference[step.label] if reference is not None else None
        msgs = gates.check(step.experiment, cfg.parameters, outcome, text, ref)
        if msgs:
            failures[step.label] = msgs
    return failures, csv_bytes


def repeat(seconds: float, min_rounds: int, body) -> None:
    """Call body() (which returns its duration) until the next call would end late."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(body())
        next_end = time.perf_counter() - start + statistics.median(rounds)
        if next_end > HARD_LIMIT_S or (len(rounds) >= min_rounds and next_end > seconds):
            return


def timing(samples: list) -> dict:
    return {"median": statistics.median(samples), "n": len(samples), "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gdnls" / "__init__.py").is_file():
        print(f"error: no gdnls sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        steps = workloads.plan(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin_to_one_cpu()   # inherited by the set-up probes
    one_thread()   # before numpy is imported, here and in the set-up probes
    probe = None if args.trace else speed.SpeedProbe()
    setup = measure_setup(args.workload, args.seed, probe) if probe else ([], [])

    sys.path.insert(0, str(SRC))
    from gdnls import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gdnls from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    configs = [cli.validate_config(s.experiment, s.raw) for s in steps]
    reference = (gates.load_reference()[args.workload]
                 if args.seed == workloads.DEFAULT_SEED else None)
    out_dir = WORK / f"out-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    untraced, traced, failures = [], [], []
    tracer = tracing.Tracer()

    def one(tr=None) -> Iteration:
        if tr is None:
            it = run_iteration(cli, configs, out_dir, probe=probe)
        else:
            tr.iteration = len(traced)
            with tr.installed():
                it = run_iteration(cli, configs, out_dir, tr)
        failed, csv_bytes = gate_iteration(steps, configs, it, out_dir, reference)
        failures.append(failed)
        if tr is not None:
            tr.counts[tr.iteration]["cli.csv_bytes"] = csv_bytes
        return it

    def untraced_round() -> float:
        untraced.append(one())
        return untraced[-1].wall

    def traced_round() -> float:
        wall = untraced_round()
        traced.append(one(tracer))
        return wall + traced[-1].wall

    try:
        if args.trace:
            repeat(args.seconds, 1, traced_round)
        else:
            with probe.running():
                repeat(args.seconds, MIN_ITERATIONS, untraced_round)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(steps) * len(failures)
    failed = sum(len(f) for f in failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(nproc, cpu),
        "steps": [s._asdict() for s in steps],
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "failures": [f for f in failures if f],
    }
    if args.trace:
        metrics, units = layer_report(record, tracer, untraced, traced, steps)
        with gzip.open(results_dir / f"{stem}-spans.csv.gz", "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(tracing.Span._fields)
            out.writerows(tracer.spans)
    else:
        metrics, units = end_to_end_report(record, untraced, steps, setup)
        record["speed_probe"] = {
            "probes": len(probe.probes), "overhead_share": probe.overhead_share(),
            "kernel_s": timing([p.kernel for p in probe.probes]),
            "reference_kernel_s": speed.REFERENCE_KERNEL_S,
        }
    record["metrics"] = metrics
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, metrics, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


def end_to_end_report(record: dict, untraced: list, steps: list, setup: tuple):
    samples = {}
    for prefix, step_s in (("", lambda it: it.ref_step_s), ("raw_", lambda it: it.step_s)):
        samples[prefix + "wall_s"] = [sum(step_s(it)) for it in untraced]
        samples[prefix + "primary_s"] = [sum(step_s(it)[:-1]) for it in untraced]
        samples[prefix + "secondary_s"] = [step_s(it)[-1] for it in untraced]
        for exp, name in workloads.EXPERIMENT_METRICS.items():
            if any(s.experiment == exp for s in steps):
                samples[prefix + name] = [
                    sum(t for t, s in zip(step_s(it), steps) if s.experiment == exp)
                    for it in untraced]
    samples["setup_s"], samples["raw_setup_s"] = setup
    record["timings"] = {name: timing(v) for name, v in samples.items()}
    metrics = {name: statistics.median(samples[name])
               for name in END_TO_END if name in samples}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics, END_TO_END


def layer_report(record: dict, tracer, untraced: list, traced: list, steps: list):
    per_iter = [tracing.layer_metrics(tracer.spans, tracer.counts[k], k, len(steps) - 1)
                for k in range(len(traced))]
    metrics = {m: statistics.median(v[m] for v in per_iter) for m in per_iter[0]}
    untraced_walls = [it.wall for it in untraced]
    traced_walls = [it.wall for it in traced]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    record["timings"] = {"untraced_wall_s": timing(untraced_walls),
                         "traced_wall_s": timing(traced_walls)}
    record["per_iteration"] = per_iter
    record["breakdown"] = tracing.experiment_breakdown(
        tracer.spans, 0, [s.label for s in steps])
    return metrics, {m: tracing.unit_of(m) for m in tracing.PER_LAYER}


def print_report(record: dict, metrics: dict, units: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['git_commit']}")
    for name, t in record["timings"].items():
        print(f"{name:38s} {t['median']:16.6f} s      median of {t['n']}")
    for name, value in metrics.items():
        if name not in record["timings"]:
            print(f"{name:38s} {value:16.6f} {units[name]}")
    print(f"{'failed_ratio':38s} {record['failed_ratio']:16.6f} ratio  "
          f"({record['failed']} of {record['attempted']})")
    for failures in record["failures"]:
        for label, msgs in failures.items():
            print(f"FAILED {label}: {msgs[0]}")


if __name__ == "__main__":
    sys.exit(main())
