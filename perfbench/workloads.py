"""The benchmark's workloads: instances, pipeline configs and output checks.

Each workload loads one hot layer of the pipeline heavily and bypasses or
barely touches another (see README.md beside this file):

* ``mis-shrink``   -- shrinking and MIS penalty calls dominate;
* ``mdkp-sdp``     -- one capped SDP solve and exact enumeration dominate;
* ``mis-spectral`` -- the default settings: the spectral rule keeps every
  node, so SDP and shrinking do no work and annealing dominates.

An op is one ``run_pipeline(config, inst=inst)`` call on an instance built
during set-up; only the op seed changes from op to op. Op i takes the
(i mod DISTINCT_SEEDS)-th seed derived from the benchmark's workload seed, so
every run measures the same few seeds over and over, and every op after the
first cycle repeats an earlier one and must return the same answer.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from shrinkcut import pipeline
from shrinkcut.pipeline import PipelineConfig, Report

ROOT = Path(__file__).resolve().parent.parent

# Independence number of the 64-vertex transposition-code conflict graph:
# the best value known from the literature, not verified here (brute force
# reaches only n <= 32). It scales rsq_pct; it never gates correctness.
TC64_BEST_KNOWN = 20.0


def _generator_module():
    path = ROOT / "scripts" / "generate_instances.py"
    spec = importlib.util.spec_from_file_location("generate_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tc64():
    """1tc.64: conflict graph over all 6-bit strings (64 vertices)."""
    inst = _generator_module().transposition_conflict_graph(6)
    return replace(inst, known_optimum=TC64_BEST_KNOWN)


def synth24x4():
    """Bundled 24-item, 4-row knapsack; its optimum 735 is brute-force verified."""
    return pipeline.load_instance("mdkp", ROOT / "data" / "mdkp" / "synth24x4.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: PipelineConfig
    load: Callable[[], object]
    # An optimum proven by enumeration; results may never beat it.
    verified_optimum: float | None
    # A tiny bundled instance of the same kind and the config changes that
    # make it valid there: the warm-up op that runs every code path once.
    warmup_path: str
    warmup_changes: dict


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mis-shrink",
            why="shrink-bound: ~40k supernode pairs and MIS penalty calls per op, "
            "4 converging SDP solves, a tiny SA solve",
            config=PipelineConfig(
                kind="mis",
                name="1tc.64",
                stop_mode="k",
                k=33,
                recalc="fixed",
                backend="sa",
                sa_sweeps=500,
            ),
            load=tc64,
            verified_optimum=None,
            warmup_path="data/mis/1tc.8.txt",
            warmup_changes={"k": 5},
        ),
        Workload(
            name="mdkp-sdp",
            why="SDP-bound: one solve at the 1000-sweep cap, local correlation "
            "updates instead of re-solves, exact enumeration of 2^20 states",
            config=PipelineConfig(
                kind="mdkp",
                name="synth24x4",
                use_slack=True,
                stop_mode="k",
                k=21,
                recalc="local",
                backend="exact",
            ),
            load=synth24x4,
            verified_optimum=735.0,
            warmup_path="data/mdkp/example3x1.txt",
            warmup_changes={"k": 3},
        ),
        Workload(
            name="mis-spectral",
            why="default settings: the spectral rule keeps every node, so SDP "
            "and shrinking are bypassed and SA on all 64 variables dominates",
            config=PipelineConfig(kind="mis", name="1tc.64", backend="sa"),
            load=tc64,
            verified_optimum=None,
            warmup_path="data/mis/1tc.8.txt",
            warmup_changes={},
        ),
    )
}


DISTINCT_SEEDS = 4


def op_seed(workload_seed: int, index: int) -> int:
    """Pipeline seed of op ``index`` under the benchmark's workload seed."""
    entropy = [workload_seed, index % DISTINCT_SEEDS]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def op_config(workload: Workload, workload_seed: int, index: int) -> PipelineConfig:
    return replace(workload.config, seed=op_seed(workload_seed, index))


def warm_up(workload: Workload) -> None:
    """Run the workload's config once on its tiny bundled instance."""
    inst = pipeline.load_instance(workload.config.kind, ROOT / workload.warmup_path)
    pipeline.run_pipeline(replace(workload.config, **workload.warmup_changes), inst=inst)


def quality_loss_pct(report: Report) -> float:
    """gap_pct for MDKP, 100 - rsq_pct for MIS: lower is better, 0 is the reference."""
    if report.gap_pct is not None:
        return report.gap_pct
    return 100.0 - report.rsq_pct


def check_report(workload: Workload, report: Report) -> list[str]:
    """Problems with one op's result; an empty list means it passed."""
    problems = []
    if not report.feasible_after:
        problems.append("final answer is infeasible")
    if report.gap_pct is None and report.rsq_pct is None:
        problems.append("report carries no quality figure")
    best = workload.verified_optimum
    if best is not None and report.final_objective > best + 1e-9 * abs(best):
        problems.append(
            f"objective {report.final_objective} beats the verified optimum {best}"
        )
    return problems


def same_outcome(a: Report, b: Report) -> bool:
    """Whether two runs of one (instance, seed) returned the same answer."""
    return (
        a.final_objective == b.final_objective
        and a.feasible_before_repair == b.feasible_before_repair
        and a.feasible_after == b.feasible_after
        and a.final_size == b.final_size
    )
