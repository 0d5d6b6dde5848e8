"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload classify-stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` of the
same checkout.  A run replays the bundled fixtures against their golden
files first (`detschemes examples` must report all_ok), times set-up in
fresh child interpreters, then runs the workload's problems in a closed loop
(one client, one problem at a time) until `--seconds` of measured problem
time have passed, at least MIN_PROBLEMS problems ran and the current block
of the mix is complete.  Every result is checked against the references in
`refs`.  Measured times are scaled to a reference host speed (see
calibrate()); the unscaled figures are printed alongside.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of the traced run with `--trace 1`.  Each workload run
must use a fresh interpreter: the package memoizes per input for the life
of the process, so a reused process would read cached verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.trace import LAYERS, NullTracer, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "perfbench" / ".out"

#: set-up is timed this many times, each in a fresh child interpreter
SETUP_SAMPLES = 21
#: the host's speed is re-measured at most this often (wall seconds), and a
#: problem is scaled by the median of the CAL_WINDOW measurements around it
CAL_INTERVAL_S = 0.2
CAL_WINDOW = 5
#: reported times are scaled to a host on which calibrate() takes this long,
#: and calibrate() sums this many terms
CAL_REF_S = 0.0036
CAL_TERMS = 8000
#: count metrics cover exactly this many leading problems, so they repeat
#: exactly across runs of one seed whatever the machine's speed
COUNT_WINDOW = 100
#: a run measures at least this many problems, so that at least ten
#: latencies lie beyond the 90th percentile
MIN_PROBLEMS = 100
#: on a host this much slower than the reference, a run ends on unscaled time
RAW_CAP = 1.5
#: a run stops early, even inside a block, once this much wall time has passed
WALL_LIMIT_S = 140.0

#: span name -> per-layer metric of its per-problem median self time
TIME_SPANS = (
    "cli.parse", "cli.emit", "determinantal.minors", "groebner.ensure_gb",
    "determinantal.classify", "determinantal.witness", "complexes.build",
    "complexes.dd_check", "complexes.betti", "complexes.be", "complexes.exactness",
    "grading.hilbert", "determinantal.augment", "determinantal.section",
    "determinantal.flag", "complexes.canonical", "complexes.annihilator",
)
#: counts summed (or, for *_max, maximized) over the count window
COUNTS = (
    ("determinantal.minors_count", "count"), ("ring.minor_terms", "count"),
    ("groebner.gb_size", "count"), ("field.coeff_bits_max", "bits"),
    ("complexes.be_minors_count", "count"), ("grading.piece_size_max", "count"),
)
#: ratios over the count window: metric -> (numerator count, denominator count)
RATIOS = {
    "determinantal.witness_found_ratio": ("determinantal.witness_found",
                                          "determinantal.witness_searches"),
    "determinantal.witness_generalized_share": ("determinantal.witness_generalized",
                                                "determinantal.witness_found"),
    "grading.groebner_engine_share": ("grading.groebner_pieces", "grading.pieces"),
}


def import_package():
    """Import detschemes from this checkout's src/, and nowhere else."""
    import detschemes
    import detschemes.cli  # noqa: F401  (not imported by the package itself)

    if Path(detschemes.__file__).resolve().parent != SRC / "detschemes":
        raise ImportError(f"detschemes imported from {detschemes.__file__}, not {SRC}")
    return detschemes


def set_up(ds, workload_cls, seed):
    """Build the workload, generate the first problems, run the warm-up."""
    workload = workload_cls(ds)
    stream = workload.stream(seed)
    stream[COUNT_WINDOW - 1]
    warm = workload.stream(seed, warmup=True)
    for i in range(len(workload.warmup)):
        workload.run(warm[i], NullTracer())
    return workload, stream


def examples_gate():
    """`detschemes examples` in a child interpreter; True iff all_ok."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "detschemes.cli", "examples", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return False
    return proc.returncode == 0 and report["results"]["all_ok"] is True


def monotonic():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(args):
    """Median set-up time of fresh interpreters, each scaled by the host speed
    measured just before it.

    A sample runs from just before the child is started to the moment the
    child has set up and prints its clock.  The child reports that moment
    itself because waiting on a child with a timeout polls it at up to
    50 ms intervals, which would round the samples up to those steps.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = CAL_REF_S / calibrate()
        t0 = monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, timeout=120, capture_output=True, text=True,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"set-up failed with exit code {child.returncode}; not timing")
        samples.append((float(child.stdout) - t0, scale))
    return (statistics.median(dt * scale for dt, scale in samples),
            statistics.median(dt for dt, _ in samples))


@functools.cache
def _calibration_input():
    rng = random.Random(0)
    keys = [tuple(rng.randrange(8) for _ in range(6)) for _ in range(CAL_TERMS)]
    return keys, [rng.getrandbits(90) for _ in range(CAL_TERMS)]


def calibrate():
    """Seconds that a fixed piece of pure-Python work takes on the host now.

    The work is of the kind the package spends its time on (big-integer
    coefficients summed into a dict keyed by exponent tuples), written here
    on a fixed input, so it does not depend on the package under test.  The
    garbage collector is off while it runs, so its time does not grow with
    the package's heap; the minimum of two repeats discards interrupts.  A
    shared host's speed changes by tens of percent within seconds; times
    scaled by CAL_REF_S / calibrate() vary a fraction as much from run to
    run as unscaled ones (perfbench/README.md).
    """
    keys, coeffs = _calibration_input()
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            acc = {}
            for k, c in zip(keys, coeffs):
                acc[k] = acc.get(k, 0) + c * 3 % 1000003
            total = 0
            for k in keys[::3]:
                total += acc[k]
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def failing_layer(exc):
    """Layer (module of the package) where an exception was raised."""
    layer = "cli"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "detschemes" and path.stem in LAYERS:
            layer = path.stem
    return layer


def percentile(values, q):
    """q-th percentile (0 < q < 100) with Python's default 'exclusive' method."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload, stream, seconds, tracer, min_problems=MIN_PROBLEMS):
    """Closed loop over the stream.

    Returns the raw per-problem latencies, each problem's host-speed scale,
    the failure count, failures per layer, and the measured seconds scaled to
    the reference host.  A problem's scale is CAL_REF_S over the median of
    the CAL_WINDOW calibrations nearest to it: the last ones before it
    started and the first ones after it ended.  The loop ends on time scaled
    by the calibrations so far, so a run does the same work on a fast or a
    slow host and its cache sizes (hence peak RSS) do not follow the host's
    speed.  Counting for the trace runs after each problem's time is taken.
    """
    block = len(workload.block)
    latencies, cal_at, errors = [], [], Counter()
    failed = 0
    timed = raw_timed = 0.0
    wall0 = last_cal = time.perf_counter()
    cals = [calibrate()]
    i = 0
    while not ((timed >= seconds or raw_timed >= RAW_CAP * seconds)
               and i >= min_problems and i % block == 0):
        now = time.perf_counter()
        if now - wall0 > WALL_LIMIT_S:
            print(f"wall limit reached after {i} problems", file=sys.stderr)
            break
        if now - last_cal >= CAL_INTERVAL_S:
            cals.append(calibrate())
            last_cal = now
        problem = stream[i]
        tracer.problem = i
        t0 = time.perf_counter()
        try:
            with tracer.span("problem"):
                out = workload.run(problem, tracer)
        except Exception as exc:  # a failing problem is counted, the run goes on
            dt = time.perf_counter() - t0
            mismatches = [(failing_layer(exc), f"{type(exc).__name__}: {exc}")]
        else:
            dt = time.perf_counter() - t0
            mismatches = workload.check(problem, out)
        tracer.flush()
        if mismatches:
            failed += 1
            for layer, msg in mismatches:
                errors[layer] += 1
                print(f"problem {i} ({problem.label}): [{layer}] {msg}", file=sys.stderr)
        latencies.append(dt)
        cal_at.append(len(cals) - 1)
        timed += dt * CAL_REF_S / statistics.median(cals[-CAL_WINDOW:])
        raw_timed += dt
        i += 1
    cals.append(calibrate())
    half = CAL_WINDOW // 2
    scales = [CAL_REF_S / statistics.median(cals[max(0, k - half):k + CAL_WINDOW - half])
              for k in cal_at]
    return latencies, scales, failed, errors, sum(x * s for x, s in zip(latencies, scales))


def end_to_end(latencies, failed, setup_s):
    ms = [x * 1000.0 for x in latencies]
    return {
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "problems/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, scales, errors):
    per_problem = {}
    for name, pid, self_s in tracer.self_times():
        spans = per_problem.setdefault(name, {})
        spans[pid] = spans.get(pid, 0.0) + self_s * scales[pid]
    metrics = {}
    for name in TIME_SPANS:
        values = list(per_problem.get(name, {}).values())
        metrics[f"{name}_ms"] = (statistics.median(values) * 1000.0 if values else 0.0, "ms")
    window = tracer.totals(range(COUNT_WINDOW))
    for name, unit in COUNTS:
        metrics[name] = (window.get(name, 0), unit)
    for name, (num, den) in RATIOS.items():
        metrics[name] = (window[num] / window[den] if window.get(den) else 0.0, "share")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    return metrics, per_problem


def print_trace_report(tracer, per_problem, latencies, raw, metrics):
    total = sum(latencies)
    print(f"{'span':28s} {'self ms':>10s} {'problems':>9s} {'share of e2e':>13s}")
    covered = 0.0
    for name in sorted(per_problem):
        values = per_problem[name]
        part = sum(values.values())
        if name != "problem":
            covered += part
        print(f"{name:28s} {part * 1000.0:10.1f} {len(values):9d} {part / total:13.3%}")
    print(f"layer spans cover {covered / total:.1%} of end-to-end time; the rest is "
          "benchmark glue between the calls")
    n = len(raw)
    print(f"span bookkeeping: {tracer.overhead_s * 1000.0:.2f} ms unscaled in {len(tracer.spans)} "
          f"spans ({tracer.overhead_s / n * 1e6:.1f} us/problem, "
          f"{tracer.overhead_s / sum(raw):.3%} of unscaled end-to-end time); the whole tracing "
          "overhead is this run's figures minus an untraced run's of the same seed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        ds = import_package()
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        set_up(ds, workload_cls, args.seed)
        print(monotonic())
        return 0

    if not examples_gate():
        print("detschemes examples does not report all_ok; not timing", file=sys.stderr)
        return 1
    setup_s, raw_setup_s = setup_seconds(args)
    workload, stream = set_up(ds, workload_cls, args.seed)

    tracer = Tracer() if args.trace else NullTracer()
    with workload.instrumented(tracer) if args.trace else contextlib.nullcontext():
        raw, scales, failed, errors, timed = measure(workload, stream, args.seconds, tracer)
    latencies = [x * s for x, s in zip(raw, scales)]
    n = len(latencies)
    print(f"workload {args.workload}, seed {args.seed}: {n} problems "
          f"({n // len(workload.block)} blocks of {len(workload.block)}), "
          f"{timed:.2f} s measured (host-speed scaled), closed loop with one client")
    print(f"fail_ratio {failed / n:.4f} share ({failed} of {n})")
    print(f"host speed: times below are scaled by {statistics.median(scales):.4f} "
          f"(median; range {min(scales):.4f}-{max(scales):.4f}) to the reference host")
    e2e = end_to_end(latencies, failed, setup_s)
    raw_e2e = end_to_end(raw, failed, raw_setup_s)
    for name, (value, unit) in e2e.items():
        note = f" ({n - int(0.9 * n)} samples beyond)" if name == "latency_p90_ms" else ""
        if raw_e2e[name][0] != value:
            note += f"  (unscaled {raw_e2e[name][0]:.4f})"
        print(f"  {name:16s} {value:12.4f} {unit}{note}")
    if args.trace:
        metrics, per_problem = per_layer(tracer, scales, errors)
        print_trace_report(tracer, per_problem, latencies, raw, metrics)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
