"""Timed and traced runs of the benchmark workloads, with output checks.

The loop is closed: one client in one process starts the next op when the
previous one returns. A timed run (``--trace 0``) reports the end-to-end
metrics with tracing off; a traced run (``--trace 1``) alternates plain and
traced runs of the same ops and reports the per-layer metrics, with the
tracing cost as ``trace.overhead_pct``. Both print one JSON result as the
last line of standard output and write a stamped record of every op to
``results/`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from shrinkcut import pipeline
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import (
    DISTINCT_SEEDS,
    WORKLOADS,
    Workload,
    check_report,
    op_config,
    quality_loss_pct,
    same_outcome,
    warm_up,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# The quality metrics are taken over the first cycle of distinct op seeds,
# so they depend only on the workload seed, not on how many ops fit into the
# timed window. A timed run completes at least one op more, so that at least
# one op repeats an earlier one.
QUALITY_OPS = DISTINCT_SEEDS
MIN_TIMED_OPS = DISTINCT_SEEDS + 1
# Per-layer metrics are means over the first TRACE_OPS traced ops, so their
# counts repeat exactly for a given seed; later pairs only sharpen the
# overhead estimate.
TRACE_OPS = 2
# Set-up is measured this many times per timed run (the run's own set-up
# plus fresh processes) and reported as the median.
SETUP_SAMPLES = 3
# Converts set-up time from reference loops back to seconds: about the
# reference loop's time on the 2.1 GHz Xeon VM where the bounds were set
# (2.3 to 4.7 ms there). It fixes the scale only; nothing is compared with it.
REFERENCE_NOMINAL_S = 0.004

# (name, unit, better); gated in BENCHMARK.json and printed on the last line.
#
# The CPU speed of a shared 2-core VM drifts by up to 2x over minutes,
# so a wall-clock time read at one moment says more about the neighbours
# than about the code. The gated times are therefore divided by the time of
# a fixed reference loop measured right next to them, which cancels most of
# that drift: op_cost_p50 is an op's wall time in reference loops, and
# setup_s is set-up time in reference loops times REFERENCE_NOMINAL_S.
END_TO_END = (
    ("op_cost_p50", "ref_loops", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed and recorded but not gated. Wall-clock op times carry the drift
# above (run-to-run spreads of 0.15-0.3 of the median). The quality figures
# vary from seed to seed by more than any bound could allow (one 4-op sample
# of a seed-dependent heuristic); for a fixed seed they must not change
# unless a PR changes what the pipeline computes. error_rate is 0 on a good
# run and is gated as failed/attempted in the result line instead.
REPORT_ONLY = (
    ("setup_wall_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("quality_loss_pct", "%"),
    ("feasible_before_repair_rate", "ratio"),
    ("error_rate", "ratio"),
)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(workload: Workload):
    """Build the workload's instance and run the warm-up op; returns the instance."""
    inst = workload.load()
    warm_up(workload)
    return inst


def probe_setup(workload: Workload, count: int) -> list[dict]:
    """Set-up samples of ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload.name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def run_op(workload: Workload, inst, workload_seed: int, index: int) -> tuple[dict, object]:
    """One op; returns its record and its report (None if it raised)."""
    config = op_config(workload, workload_seed, index)
    record = {"op": index, "instance": config.name, "seed": config.seed}
    start = time.perf_counter()
    try:
        report = pipeline.run_pipeline(config, inst=inst)
    except pipeline.PipelineError as exc:
        record.update(seconds=time.perf_counter() - start, problems=[str(exc)])
        return record, None
    record.update(
        seconds=time.perf_counter() - start,
        objective=report.final_objective,
        feasible_before_repair=report.feasible_before_repair,
        feasible_after=report.feasible_after,
        final_size=report.final_size,
        problems=check_report(workload, report),
    )
    if report.gap_pct is not None or report.rsq_pct is not None:
        record["quality_loss_pct"] = quality_loss_pct(report)
    return record, report


def _keep_going(start: float, seconds: float, done: int, min_ops: int) -> bool:
    return done < min_ops or time.perf_counter() - start < seconds


def _reference_loop() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def reference_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop: the machine's speed right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def timed_run(workload: Workload, inst, seed: int, seconds: float, min_ops: int) -> dict:
    """Closed-loop ops for ``seconds`` (at least ``min_ops``).

    The reference loop runs before every op and after the last one; each op
    records the mean of the two readings around it as ``ref_s``. Each op
    that repeats an earlier op's seed must return the same answer.
    """
    ops, first = [], {}
    start = time.perf_counter()
    ref = reference_seconds()
    while _keep_going(start, seconds, len(ops), min_ops):
        record, report = run_op(workload, inst, seed, len(ops))
        earlier = first.setdefault(record["seed"], report)
        if earlier is not report and None not in (earlier, report):
            if not same_outcome(earlier, report):
                record["problems"].append("an op repeating an earlier seed changed its answer")
        after = reference_seconds()
        record["ref_s"] = (ref + after) / 2.0
        ref = after
        ops.append(record)
    return {"ops": ops, "elapsed": time.perf_counter() - start}


def traced_run(workload: Workload, inst, seed: int, seconds: float, min_ops: int) -> dict:
    """Pairs of (plain, traced) runs of op i until ``seconds`` have passed.

    Per-layer metrics come from the first ``min_ops`` traced ops; the
    overhead is the median ratio of traced to plain op time over the pairs.
    Each pair also checks that tracing left the answer unchanged.
    """
    plain_ops, traced_ops = [], []
    tracer = Tracer(keep_spans=min_ops)
    with tracer:
        workload.load()  # parses the MDKP file (instances.load_s); MIS is generated
    start = time.perf_counter()
    while _keep_going(start, seconds, len(plain_ops), min_ops):
        index = len(plain_ops)
        plain, plain_report = run_op(workload, inst, seed, index)
        with tracer:
            tracer.begin_op(index)
            traced, traced_report = run_op(workload, inst, seed, index)
            tracer.end_op()
        traced["traced"] = True
        traced["problems"].extend(tracer.problems.get(index, []))
        if plain_report is not None and traced_report is not None:
            if not same_outcome(plain_report, traced_report):
                traced["problems"].append("the traced op returned another answer")
        plain_ops.append(plain)
        traced_ops.append(traced)
    # Each pair runs back to back, so its ratio is little affected by drift.
    overhead = 100.0 * (
        statistics.median(t["seconds"] / p["seconds"] for p, t in zip(plain_ops, traced_ops))
        - 1.0
    )
    spans = [
        {"op": op, "id": sid, "parent": parent, "target": target, "start": s, "end": e}
        for op, sid, parent, target, s, e in tracer.spans
    ]
    return {
        "ops": plain_ops + traced_ops,
        "layers": layer_metrics(tracer.ops[:min_ops], tracer.setup, overhead),
        "pairs": len(plain_ops),
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(timed: dict, setup: list[dict], quality_ops: int) -> tuple[dict, dict]:
    """(values, sample counts) for END_TO_END and REPORT_ONLY metrics."""
    ops = timed["ops"]
    seconds = [r["seconds"] for r in ops]
    first = ops[:quality_ops]
    losses = [r["quality_loss_pct"] for r in first if "quality_loss_pct" in r]
    # An op that raised has no quality figure; it already counts as failed.
    quality = statistics.fmean(losses) if losses else 100.0
    values = {
        "op_cost_p50": statistics.median(r["seconds"] / r["ref_s"] for r in ops),
        "op_s_p50": statistics.median(seconds),
        "op_s_p90": _p90(seconds),
        "ops_per_s": len(ops) / timed["elapsed"],
        "setup_s": statistics.median(
            REFERENCE_NOMINAL_S * s["wall_s"] / s["ref_s"] for s in setup
        ),
        "setup_wall_s": statistics.median(s["wall_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_loss_pct": quality,
        "feasible_before_repair_rate": (
            statistics.fmean(bool(r.get("feasible_before_repair")) for r in first)
        ),
        "error_rate": sum(bool(r["problems"]) for r in ops) / len(ops),
    }
    samples = {
        "op_cost_p50": len(ops),
        "op_s_p50": len(ops),
        "op_s_p90": len(ops),
        "ops_per_s": len(ops),
        "setup_s": len(setup),
        "setup_wall_s": len(setup),
        "peak_rss_mb": 1,
        "quality_loss_pct": len(first),
        "feasible_before_repair_rate": len(first),
        "error_rate": len(ops),
    }
    return values, samples


def layer_samples(traced: dict, traced_ops: int) -> dict:
    samples = {name: traced_ops for name, _, _ in PER_LAYER}
    samples["instances.load_s"] = 1
    samples["trace.overhead_pct"] = traced["pairs"]
    return samples


def _git_sha() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(ops: list[dict], metrics: dict, units: dict) -> dict:
    failed = sum(bool(r["problems"]) for r in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _print_table(rows) -> None:
    for name, value, unit, n, note in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<9} n={n:<4} {note}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print this process's set-up sample (used internally)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv, process_start: float) -> int:
    """Run one workload; ``process_start`` is perf_counter() at interpreter start."""
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    inst = set_up(workload)
    # The reference loop runs right after set-up, to read the speed it ran at.
    own_setup = {"wall_s": time.perf_counter() - process_start, "ref_s": reference_seconds()}
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0

    record = {"stamp": stamp(args)}
    if args.trace == 0:
        setup = [own_setup] + probe_setup(workload, SETUP_SAMPLES - 1)
        timed = timed_run(workload, inst, args.seed, args.seconds, MIN_TIMED_OPS)
        values, samples = end_to_end(timed, setup, QUALITY_OPS)
        ops = timed["ops"]
        units = {name: unit for name, unit, _ in END_TO_END}
        rows = [(n, values[n], u, samples[n], "") for n, u, _ in END_TO_END]
        rows += [(n, values[n], u, samples[n], "(report only)") for n, u in REPORT_ONLY]
        record["setup_samples"] = setup
    else:
        traced = traced_run(workload, inst, args.seed, args.seconds, TRACE_OPS)
        values, samples = traced["layers"], layer_samples(traced, TRACE_OPS)
        ops = traced["ops"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        rows = [(n, values[n], u, samples[n], "") for n, u, _ in PER_LAYER]
        record["spans"] = traced["spans"]
    result = result_line(ops, values, units)
    record.update(
        metrics={name: {"value": values[name], "unit": unit, "samples": samples[name]} for name, _, unit, _, _ in rows},
        ops=ops,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: seed {args.seed}, {len(ops)} ops, trace {args.trace}, "
          f"nproc {record['stamp']['nproc']}, threads {record['stamp']['thread_env']}")
    _print_table(rows)
    for r in ops:
        for problem in r["problems"]:
            print(f"op {r['op']} (seed {r['seed']}): {problem}", file=sys.stderr)
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
