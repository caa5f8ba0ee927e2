"""Smoke runs of the benchmark command, one per workload with and without the tracer.

Each runs ``perfbench/run.py --seed 1 --seconds 0`` in a fresh process and reads
the result line it prints last. Untraced, ``--seconds 0`` still runs the five
timed ops, and op 4 repeats op 0's seed, so ``correct`` asks every solver on the
path (the SDP, shrinking, annealing, exact enumeration) to be deterministic.
Traced, it still runs the two pairs the per-layer metrics come from, the tracer
checks every lifted energy against ``evaluate_qubo``, and each workload's case
checks the counts that show the run went through the layers it exists for.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["mis-spectral", "mis-shrink", "mdkp-sdp"])
def test_a_benchmark_smoke_run_is_correct(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
        + ["--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stdout + run.stderr
    if not trace:
        return
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    # every QUBO build and Max-Cut reduction passes through the traced names
    assert m["qubo.quad_terms"] > 0 and m["maxcut.edges"] > 0, m
    if workload == "mdkp-sdp":
        # no solve reaches the sweep cap; the MDKP penalty is one broadcast per
        # selection, that is per merge, while every pair is still scored
        assert m["sdp.cap_hit_rate"] == 0, m
        assert m["feasibility.penalty_calls"] == m["shrink.merges"] > 0, m
        assert m["shrink.pairs_scored"] > 0, m
    if workload == "mis-shrink":
        # the tracer wraps the scorer make_penalty returns: one call per scored pair
        assert m["feasibility.penalty_calls"] == m["shrink.pairs_scored"] > 0, m
