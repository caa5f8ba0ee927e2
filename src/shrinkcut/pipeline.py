"""End-to-end orchestration: instance -> QUBO -> Max-Cut -> shrink -> solve
-> lift -> verify/repair -> local search -> metrics.

``run_pipeline`` executes one instance and returns a :class:`Report`;
``run_bench`` sweeps (instance, strategy) pairs into a CSV mirroring the
usual benchmark table columns. All randomness flows from the single
config seed through a splittable seed sequence, and bench timings default
to reported zeros so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .feasibility import is_feasible, make_penalty, repair
from .instances import (
    MdkpInstance,
    MisInstance,
    QapInstance,
    load_optima,
    parse_mdkp,
    parse_mis_edgelist,
    parse_qaplib,
)
from .maxcut import graph_to_qubo, qubo_to_maxcut
from .qubo import (
    DEFAULT_MULTIPLIER,
    PenaltyPolicy,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    recommend_penalty,
)
from .reconstruct import decode_solution, lift_solution
from .shrink import ShrinkConfig, run_shrink
from .solvers import solve_qubo

KINDS = ("mdkp", "mis", "qap")
STRATEGIES = ("2/3", "1/2", "adaptive")
PHASES = ("correlation", "shrinking", "solving", "repair", "local_search")

CSV_COLUMNS = (
    "Instance",
    "Strategy",
    "ConstraintAware",
    "InitialSize",
    "FinalSize",
    "FinalObjective",
    "Feasible",
    "TotalTime_s",
    "Gap_pct",
    "RSQ_pct",
    "Correlation_s",
    "Shrinking_s",
    "Solving_s",
    "Repair_s",
    "LocalSearch_s",
)


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name and partial progress."""

    def __init__(self, stage: str, message: str, partial: dict | None = None):
        super().__init__(f"pipeline stage {stage!r} failed: {message}")
        self.stage = stage
        self.partial = dict(partial or {})


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs; echoed verbatim into the report."""

    kind: str
    instance: str | None = None
    name: str | None = None
    penalty_multiplier: float | None = None
    use_slack: bool = False
    constraint_aware: bool = True
    # shrink knobs, defaulting to ShrinkConfig's (its seed is derived from ``seed``)
    stop_mode: str = ShrinkConfig.stop_mode
    k: int | None = ShrinkConfig.k
    alpha: float = ShrinkConfig.alpha
    energy_order: str = ShrinkConfig.energy_order
    weight_mode: str = ShrinkConfig.weight_mode
    lam: float = ShrinkConfig.lam
    recalc: str = ShrinkConfig.recalc
    r: int = ShrinkConfig.r
    delta: float = ShrinkConfig.delta
    tau: float = ShrinkConfig.tau
    reference_protected: bool = ShrinkConfig.reference_protected
    sdp_rank: int | None = ShrinkConfig.sdp_rank
    sdp_tol: float = ShrinkConfig.sdp_tol
    sdp_max_sweeps: int = ShrinkConfig.sdp_max_sweeps
    backend: str = "exact"
    sa_sweeps: int | None = None
    vqe_layers: int = 1
    do_repair: bool = True
    local_search: bool = True
    seed: int = 0
    timings: str = "wall"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.backend not in ("exact", "sa", "vqe"):
            raise ValueError(f"backend must be exact/sa/vqe, got {self.backend!r}")
        if self.timings not in ("wall", "zero"):
            raise ValueError(f"timings must be 'wall' or 'zero', got {self.timings!r}")


@dataclass(frozen=True)
class Report:
    """One pipeline run, in benchmark-table vocabulary.

    ``gap_pct`` is populated for MDKP/QAP and ``rsq_pct`` for MIS (when a
    best-known value exists); sizes count decision-carrying nodes, i.e. the
    Max-Cut node count minus the reference.
    """

    instance: str
    initial_size: int
    final_size: int
    final_objective: float
    feasible_before_repair: bool
    feasible_after: bool
    repair_iterations: int
    gap_pct: float | None
    rsq_pct: float | None
    phase_timings: dict[str, float]
    seed: int
    config: dict

    def __post_init__(self) -> None:
        for phase in PHASES:
            if phase not in self.phase_timings:
                raise ValueError(f"phase_timings is missing {phase!r}")
            if self.phase_timings[phase] < 0:
                raise ValueError(f"phase {phase!r} has negative timing")
        if self.gap_pct is not None and self.rsq_pct is not None:
            raise ValueError("gap_pct and rsq_pct cannot both be populated")

    @property
    def total_time(self) -> float:
        return sum(self.phase_timings.values())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def optimality_gap(best: float, obtained: float, sense: str = "max") -> float:
    """Percentage gap to the best-known value, nonnegative for suboptimal results.

    Maximization problems use (best - obtained)/best, minimization problems
    (obtained - best)/best.
    """
    if best == 0:
        raise ValueError("optimality gap is undefined for best = 0")
    if sense == "max":
        return (best - obtained) / best * 100.0
    if sense == "min":
        return (obtained - best) / best * 100.0
    raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def rsq(best: float, obtained: float) -> float:
    """Relative solution quality: obtained as a percentage of the best known."""
    if best <= 0:
        raise ValueError(f"relative solution quality needs best > 0, got {best}")
    return obtained / best * 100.0


def objective_value(inst, solution) -> float:
    """Problem-level objective of a decoded solution (profit, set size, or cost)."""
    if isinstance(inst, MdkpInstance):
        bits = np.asarray(solution).reshape(inst.n)
        return float(inst.profits @ bits)
    if isinstance(inst, MisInstance):
        return float(np.asarray(solution).sum())
    if isinstance(inst, QapInstance):
        X = np.asarray(solution, dtype=float).reshape(inst.n, inst.n)
        return float(np.sum(inst.flow * (X @ inst.distance @ X.T)))
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------


def local_search(inst, solution) -> np.ndarray:
    """Feasibility-preserving first-improvement hill climbing to a local optimum.

    MDKP tries adding each excluded item, MIS each non-conflicting vertex,
    QAP all pairwise location swaps; only strict improvements are accepted.
    Raises on infeasible input.
    """
    if not is_feasible(inst, solution):
        raise ValueError("local search requires a feasible starting solution")
    if isinstance(inst, MdkpInstance):
        return _local_search_mdkp(inst, solution)
    if isinstance(inst, MisInstance):
        return _local_search_mis(inst, solution)
    if isinstance(inst, QapInstance):
        return _local_search_qap(inst, solution)
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def _local_search_mdkp(inst: MdkpInstance, solution) -> np.ndarray:
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    loads = inst.weights @ bits
    improved = True
    while improved:
        improved = False
        for i in range(inst.n):
            if bits[i] == 1 or inst.profits[i] <= 0:
                continue
            if np.all(loads + inst.weights[:, i] <= inst.capacities):
                bits[i] = 1
                loads = loads + inst.weights[:, i]
                improved = True
                break
    return bits


def _local_search_mis(inst: MisInstance, solution) -> np.ndarray:
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    adjacency = inst.adjacency()
    improved = True
    while improved:
        improved = False
        for v in range(inst.n):
            if bits[v] == 0 and not any(bits[u] for u in adjacency[v]):
                bits[v] = 1
                improved = True
                break
    return bits


def _local_search_qap(inst: QapInstance, solution) -> np.ndarray:
    X = np.asarray(solution).reshape(inst.n, inst.n).astype(int).copy()
    cost = objective_value(inst, X)
    improved = True
    while improved:
        improved = False
        for a in range(inst.n - 1):
            for b in range(a + 1, inst.n):
                X[[a, b]] = X[[b, a]]
                trial = objective_value(inst, X)
                if trial < cost - 1e-12:
                    cost = trial
                    improved = True
                    break
                X[[a, b]] = X[[b, a]]
            if improved:
                break
    return X


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def load_instance(kind: str, path: str | Path):
    """Parse an instance file, attaching a best-known value from an optima.txt sidecar."""
    path = Path(path)
    text = path.read_text()
    if kind == "mdkp":
        inst = parse_mdkp(text)
    elif kind == "mis":
        inst = parse_mis_edgelist(text)
    elif kind == "qap":
        inst = parse_qaplib(text)
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    sidecar = path.parent / "optima.txt"
    if inst.known_optimum is None and sidecar.exists():
        best = load_optima(sidecar).get(path.stem)
        if best is not None:
            inst = replace(inst, known_optimum=best)
    return inst


def build_model(inst, config: PipelineConfig):
    """Instance -> penalized QUBO under the config's penalty policy."""
    multiplier = config.penalty_multiplier
    if multiplier is None:
        multiplier = DEFAULT_MULTIPLIER[config.kind]
    P = recommend_penalty(inst, PenaltyPolicy(multiplier=multiplier))
    if isinstance(inst, MdkpInstance):
        return build_mdkp_qubo(inst, P, use_slack=config.use_slack)
    if isinstance(inst, MisInstance):
        return build_mis_qubo(inst, P)
    if isinstance(inst, QapInstance):
        return build_qap_qubo(inst, P)
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def _shrink_config(config: PipelineConfig, seed: int) -> ShrinkConfig:
    shared = {f.name: getattr(config, f.name) for f in fields(ShrinkConfig) if f.name != "seed"}
    return ShrinkConfig(**shared, seed=seed)


def _solver_options(config: PipelineConfig) -> dict:
    if config.backend == "sa" and config.sa_sweeps is not None:
        return {"sweeps": config.sa_sweeps}
    if config.backend == "vqe":
        return {"layers": config.vqe_layers}
    return {}


def run_pipeline(config: PipelineConfig, inst=None) -> Report:
    """Run the full pipeline on one instance and return its report.

    ``inst`` may be passed directly (already parsed); otherwise it is loaded
    from ``config.instance``. When ``config.out`` is set the report is also
    written there as JSON.
    """
    partial: dict = {}
    stage = "load"
    try:
        if inst is None:
            if config.instance is None:
                raise ValueError("config has no instance path and no instance was passed")
            inst = load_instance(config.kind, config.instance)
        name = config.name or (Path(config.instance).stem if config.instance else config.kind)
        partial["instance"] = name

        seed_seq = np.random.SeedSequence(config.seed)
        shrink_seed, solver_seed = (
            int(child.generate_state(1)[0]) for child in seed_seq.spawn(2)
        )
        timings = dict.fromkeys(PHASES, 0.0)

        stage = "qubo"
        model = build_model(inst, config)
        partial["initial_size"] = model.n_vars

        stage = "maxcut"
        graph = qubo_to_maxcut(model)
        node_tags = {var + 1: tag for var, tag in enumerate(model.semantics)}
        penalty = make_penalty(inst, node_tags) if config.constraint_aware else None

        stage = "shrink"
        shrink_result = run_shrink(graph, _shrink_config(config, shrink_seed), penalty=penalty)
        timings["correlation"] = shrink_result.stats.sdp_seconds
        timings["shrinking"] = max(
            0.0, shrink_result.stats.shrink_seconds - shrink_result.stats.sdp_seconds
        )
        partial["final_size"] = shrink_result.graph.n_nodes - 1

        stage = "solve"
        t0 = time.perf_counter()
        reduced_model = graph_to_qubo(shrink_result.graph)
        reduced = solve_qubo(
            reduced_model, backend=config.backend, seed=solver_seed, **_solver_options(config)
        )
        lifted = lift_solution(shrink_result, reduced.bits, graph)
        decoded = decode_solution(model, lifted.bits)
        timings["solving"] = time.perf_counter() - t0

        stage = "verify"
        t0 = time.perf_counter()
        feasible_before = is_feasible(inst, decoded)
        repair_iterations = 0
        final = decoded
        if not feasible_before and config.do_repair:
            report = repair(inst, decoded)
            final = report.bits
            repair_iterations = report.iterations
        feasible_after = is_feasible(inst, final)
        timings["repair"] = time.perf_counter() - t0

        stage = "local_search"
        t0 = time.perf_counter()
        if config.local_search and feasible_after:
            final = local_search(inst, final)
        timings["local_search"] = time.perf_counter() - t0

        stage = "metrics"
        objective = objective_value(inst, final)
        gap_pct = None
        rsq_pct = None
        if inst.known_optimum is not None:
            if config.kind == "mdkp":
                gap_pct = optimality_gap(inst.known_optimum, objective, sense="max")
            elif config.kind == "qap":
                gap_pct = optimality_gap(inst.known_optimum, objective, sense="min")
            else:
                rsq_pct = rsq(inst.known_optimum, objective)
        if config.timings == "zero":
            timings = dict.fromkeys(PHASES, 0.0)
        report = Report(
            instance=name,
            initial_size=model.n_vars,
            final_size=shrink_result.graph.n_nodes - 1,
            final_objective=objective,
            feasible_before_repair=feasible_before,
            feasible_after=feasible_after,
            repair_iterations=repair_iterations,
            gap_pct=gap_pct,
            rsq_pct=rsq_pct,
            phase_timings=timings,
            seed=config.seed,
            config=asdict(config),
        )
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc), partial) from exc

    if config.out:
        Path(config.out).write_text(report_to_json(report) + "\n")
    return report


def report_to_json(report: Report) -> str:
    payload = {
        "instance": report.instance,
        "initial_size": report.initial_size,
        "final_size": report.final_size,
        "final_objective": report.final_objective,
        "feasible_before_repair": report.feasible_before_repair,
        "feasible_after": report.feasible_after,
        "repair_iterations": report.repair_iterations,
        "gap_pct": report.gap_pct,
        "rsq_pct": report.rsq_pct,
        "phase_timings": {phase: report.phase_timings[phase] for phase in PHASES},
        "total_time_s": report.total_time,
        "seed": report.seed,
        "config": report.config,
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# benchmark sweep
# ---------------------------------------------------------------------------


def _strategy_config(
    base: PipelineConfig, strategy: str, n_vars: int, seed: int
) -> PipelineConfig:
    """Specialize the base config for one benchmark strategy.

    Fixed-ratio strategies shrink the variable count to floor(2n/3) or
    floor(n/2) (one more node survives: the reference); "adaptive" uses the
    spectral stopping rule.
    """
    if strategy == "2/3":
        return replace(base, stop_mode="k", k=(2 * n_vars) // 3 + 1, seed=seed)
    if strategy == "1/2":
        return replace(base, stop_mode="k", k=n_vars // 2 + 1, seed=seed)
    if strategy == "adaptive":
        return replace(base, stop_mode="spectral", k=None, seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _csv_number(value: float | None, decimals: int) -> str:
    if value is None:
        return ""
    return f"{value:.{decimals}f}"


def _csv_objective(value: float | None) -> str:
    if value is None:
        return ""
    if value == int(value):
        return str(int(value))
    return f"{value:.6f}"


def run_bench(
    base: PipelineConfig,
    instances: list[tuple[str, str]],
    strategies: tuple[str, ...] = STRATEGIES,
    timings: str = "zero",
) -> tuple[str, list[str]]:
    """Run every (instance, strategy) pair and aggregate one CSV.

    ``instances`` is a list of (kind, path). Rows appear in input order with
    strategies in the order given; per-row seeds are split deterministically
    from the base seed, so identical calls produce byte-identical CSV text.
    Failures leave a mostly-empty row and are returned as messages alongside
    the CSV.
    """
    seed_seq = np.random.SeedSequence(base.seed)
    failures: list[str] = []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    zero = _csv_number(0.0, 6)

    def fail(name: str, strategy: str, exc: Exception) -> None:
        failures.append(f"{name}/{strategy}: {exc}")
        row = [name, strategy, str(base.constraint_aware), "", "", "", "False", zero, "", ""]
        writer.writerow(row + [zero] * len(PHASES))

    for kind, path in instances:
        name = Path(path).stem
        try:
            inst = load_instance(kind, path)
            n_vars = build_model(inst, replace(base, kind=kind)).n_vars
        except Exception as exc:
            for strategy in strategies:
                seed_seq.spawn(1)  # keep per-row seeds aligned across reruns
                fail(name, strategy, exc)
            continue
        for strategy in strategies:
            row_seed = int(seed_seq.spawn(1)[0].generate_state(1)[0])
            config = _strategy_config(
                replace(base, kind=kind, instance=path, name=name, timings=timings, out=None),
                strategy,
                n_vars,
                row_seed,
            )
            try:
                report = run_pipeline(config, inst=inst)
            except PipelineError as exc:
                fail(name, strategy, exc)
                continue
            writer.writerow(
                [
                    report.instance,
                    strategy,
                    str(config.constraint_aware),
                    str(report.initial_size),
                    str(report.final_size),
                    _csv_objective(report.final_objective),
                    str(report.feasible_after),
                    _csv_number(report.total_time, 6),
                    _csv_number(report.gap_pct, 4),
                    _csv_number(report.rsq_pct, 4),
                    *[_csv_number(report.phase_timings[phase], 6) for phase in PHASES],
                ]
            )
    return buffer.getvalue(), failures
