"""Closed-loop benchmark of the symmlu public entry points.

    python3 perfbench/run.py --workload pure|mixed|oracle --seed N --seconds S --trace 0|1

One caller, in one process with one BLAS thread, runs the workload's
operations in passes, each call straight after the previous one returns,
and stops at a pass boundary: the first after S seconds, or an earlier one
if the next pass would end after 1.4 S.  Inputs and their
expected answers are built from the seed before timing starts; every answer
is checked after the window.

The host this runs on is shared, and its speed moves every call in a run
alike (see calibrate.py).  Between operations the benchmark times fixed
calibration kernels, and scales each call's latency to the speed of an
unloaded host: by the kernel calls next to it, or, for operations marked
long, by the whole run's speed factor.  An operation's latency is the median
of its scaled calls.  ops_per_s is operations per second of the sum of these
latencies (one call of every operation, back to back), latency_p50_ms is
their median and latency_tail_ms their 75th percentile.  setup_s is the
median of SETUP_SAMPLES fresh interpreters started with --setup-probe, each
timing import, input generation and one warm-up call of each operation
kind, and each scaled by kernel calls just before and after it.  The report
line gives the unscaled values and the run's plain wall-clock rate as well.
`attempted` counts the distinct operations and `failed` those with at least
one failing call, so both depend only on the seed.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced
passes for S/2 seconds, then as many passes with per-layer spans on.  It
prints per-layer metrics per pass and the tracing overhead, one line each, puts the counts and the always-positive layer times in the
summary line, and writes the spans to .perfbench/spans_<workload>.csv.

--smoke shrinks every workload to a few small inputs, for the benchmark's
own tests; --inject-wrong adds one operation whose expected answer is
deliberately wrong, to show that the check counts it.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  The line before it is a JSON report with
the failure breakdown and the run's settings.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 5
TAIL_PCT = 75

# Failures that ROADMAP item 1 (inexact multiplicities of Majorana points)
# already records: (kind, family, reasons, smallest n).  They count in
# `failed` and fail_frac like any other failure, but only a failure outside
# this list makes `correct` false.
KNOWN_DEFECTS = (
    ("equiv", "degenerate", ("miss",), 0),
    ("classify", "degenerate", ("wrong_class", "exception:SymmluError"), 0),
    ("equiv", "dicke", ("miss",), 0),
    ("equiv", "generic", ("miss",), 48),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pure", "mixed", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-wrong", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_passes(ops, seconds, passes=None, tracer=None, cal=None):
    """Passes until `seconds` have elapsed, or exactly `passes` passes.

    `cal` times calibration kernels between operations.  Returns (records,
    passes, wall) with one (op index, start, latency, result, exception)
    record per call.
    """
    records = []
    done = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(len(records), 1.0 / passes)
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # the failure is counted, the loop goes on
                result, error = None, exc
            records.append((i, t0, time.perf_counter() - t0, result, error))
            if cal is not None:
                cal.after_op(records[-1][2])
        done += 1
        elapsed = time.perf_counter() - start
        if passes is None and (elapsed >= seconds or elapsed * (done + 1) / done > 1.4 * seconds):
            return records, done, elapsed
        if done == passes:
            return records, done, elapsed


def op_latencies(ops, records, cal=None):
    """Per operation, the median of its calls' latencies, scaled by `cal` if given."""
    calls = [[] for _ in ops]
    run_factor = cal.run_factor() if cal is not None else 1.0
    for i, t0, lat, _, _ in records:
        if cal is None or ops[i].long:
            calls[i].append(lat * run_factor)
        else:
            calls[i].append(lat * cal.local(t0, lat))
    return [statistics.median(c) for c in calls]


def _known_defect(op, reason):
    return any(
        op.kind == kind and op.family == family and reason in reasons and op.n >= n_min
        for kind, family, reasons, n_min in KNOWN_DEFECTS
    )


def check_records(ops, records):
    """Failed operations by reason and by family, and how many are not known defects.

    An operation fails if any of its calls fails; its first failing call
    gives the reason.
    """
    reasons = {}
    for i, _, _, result, error in records:
        if i in reasons:
            continue
        reason = f"exception:{type(error).__name__}" if error is not None else ops[i].check(result)
        if reason is not None:
            reasons[i] = reason
    by_reason, by_family = {}, {}
    unexpected = 0
    for i, reason in reasons.items():
        op = ops[i]
        by_reason[reason] = by_reason.get(reason, 0) + 1
        fam = f"{op.kind}/{op.family}"
        by_family[fam] = by_family.get(fam, 0) + 1
        if not _known_defect(op, reason):
            unexpected += 1
    return len(reasons), unexpected, by_reason, by_family


def nearest_rank(sorted_vals, pct):
    return sorted_vals[max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)]


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter running this script with --setup-probe (unscaled)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    cmd += ["--smoke"] if args.smoke else []
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "symmlu").is_dir():
        print(f"symmlu sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of the import cost)
    import symmlu
    import workloads

    wl = workloads.BY_NAME[args.workload](args.seed, smoke=args.smoke)
    for warm in wl.warmups:
        warm()
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    from calibrate import Calibration
    from spans import Tracer, summary_names

    setup_samples, setup_scaled = [], []
    for _ in range(SETUP_SAMPLES):
        cal = Calibration()
        cal.sample_round()
        setup_samples.append(_setup_probe(args))
        cal.sample_round()
        setup_scaled.append(setup_samples[-1] * statistics.mean(cal.factors))

    ops = wl.ops + (workloads.wrong_answer_ops() if args.inject_wrong else [])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "using_numba": bool(symmlu.USING_NUMBA),
        "operations": len(ops),
        "long_operations": sum(op.long for op in ops),
        "setup_in_process_s": own_setup,
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        records, passes, untraced_wall = run_passes(ops, args.seconds / 2)
        tracer = Tracer()
        with tracer:
            traced, _, traced_wall = run_passes(ops, 0, passes=passes, tracer=tracer)
        metrics = tracer.metrics([r[2] for r in traced])
        overhead = sum(op_latencies(ops, traced)) / sum(op_latencies(ops, records)) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans_{args.workload}.csv")
        records += traced
        layers_s = sum(
            v for name, (v, _) in metrics.items() if name.endswith(".self_s") and not name.startswith("harness.")
        )
        report.update(
            passes=passes,
            untraced_s=untraced_wall,
            traced_s=traced_wall,
            spans=len(tracer.spans),
            layers_self_s_per_pass=layers_s,
            op_s_per_pass=layers_s + metrics["harness.self_s"][0],
        )
    else:
        cal = Calibration()
        cal.sample_round()
        records, passes, wall = run_passes(ops, args.seconds, cal=cal)
        cal.sample_round()
        scaled = op_latencies(ops, records, cal)
        metrics, unscaled = {}, {}
        for out, lats, setup in ((metrics, scaled, setup_scaled), (unscaled, op_latencies(ops, records), setup_samples)):
            lat = sorted(lats)
            out["ops_per_s"] = (len(ops) / sum(lat), "1/s")
            out["latency_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
            out["latency_tail_ms"] = (nearest_rank(lat, TAIL_PCT) * 1e3, "ms")
            out["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        groups = {}
        for op, t in zip(ops, scaled):
            groups.setdefault(f"{op.kind}/{op.family}/{op.n}", []).append(t * 1e3)
        report.update(
            passes=passes,
            calls=len(records),
            wall_s=wall,
            wall_ops_per_s=len(records) / wall,
            latency_tail_pct=TAIL_PCT,
            run_speed_factor=cal.run_factor(),
            calibration_calls=len(cal.mids),
            unscaled={name: v for name, (v, _) in unscaled.items()},
            scaled_ms_median_by_group={k: round(statistics.median(v), 3) for k, v in groups.items()},
        )

    failed, unexpected, by_reason, by_family = check_records(ops, records)
    report.update(
        fail_frac=failed / len(ops),
        fail_by_reason=by_reason,
        fail_by_family=by_family,
        unexpected_failures=unexpected,
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        metrics = {name: metrics[name] for name, _ in summary_names()}
    print(f"fail_frac {failed / len(ops):.6g} frac")
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
