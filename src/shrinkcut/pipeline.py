"""End-to-end orchestration: instance -> QUBO -> Max-Cut -> shrink -> solve
-> lift -> verify/repair -> local search -> metrics.

``PROBLEMS`` holds what differs between MDKP, MIS and QAP, one :class:`Problem`
per instance type; each dispatcher (``violations``, ``build_model`` ...) looks it up once.
The record owns the variable layout its builder writes: ``decode_solution``
and ``penalty_summaries`` read variables by position, never by semantics tag.
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
import operator
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import feasibility
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
from .qubo import build_mdkp_qubo, build_mis_qubo, build_qap_qubo, evaluate_qubo
from .qubo import require_choice, require_integer, require_number, require_switch
from .reconstruct import lift_solution
from .shrink import ShrinkConfig, run_shrink
from .solvers import solve_qubo

STRATEGIES = ("2/3", "1/2", "adaptive")
# a lifted solution's three energies may differ by this much of max(1, each |energy|)
LIFT_RTOL = 1e-9
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
        """Check every setting, also those this run never reads, through the code that owns it."""
        require_choice("kind", self.kind, KINDS)
        check_run_settings(vars(self))


def check_run_settings(settings: Mapping[str, Any]) -> None:
    """Check every setting that does not hang on the problem kind.

    ``settings`` maps PipelineConfig's field names to values. The shrink
    knobs and the seed go through ShrinkConfig, the rest through the shared
    checks of ``qubo``; ``kind`` is None (``solve``, ``shrink --graph`` and
    ``to-maxcut --model`` need none) or one of ``KINDS``, and ``instance``,
    ``name`` and ``out`` are None or text.
    """
    if settings["kind"] is not None:
        require_choice("kind", settings["kind"], KINDS)
    for key in ("instance", "name", "out"):
        if settings[key] is not None and not isinstance(settings[key], str):
            raise ValueError(f"{key} must be a string, got {settings[key]!r}")
    if settings["penalty_multiplier"] is not None:
        require_number("penalty_multiplier", settings["penalty_multiplier"], 0, strict=True)
    for key in ("use_slack", "constraint_aware", "do_repair", "local_search"):
        require_switch(key, settings[key])
    shrink_config(settings, settings["seed"])
    require_choice("backend", settings["backend"], ("exact", "sa", "vqe"))
    if settings["sa_sweeps"] is not None:
        require_integer("sa_sweeps", settings["sa_sweeps"], low=1)
    require_integer("vqe_layers", settings["vqe_layers"], low=0)
    require_choice("timings", settings["timings"], ("wall", "zero"))


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
    require_choice("sense", sense, ("max", "min"))
    if best == 0:
        raise ValueError("optimality gap is undefined for best = 0")
    if sense == "max":
        return (best - obtained) / best * 100.0
    return (obtained - best) / best * 100.0


def rsq(best: float, obtained: float) -> float:
    """Relative solution quality: obtained as a percentage of the best known."""
    if best <= 0:
        raise ValueError(f"relative solution quality needs best > 0, got {best}")
    return obtained / best * 100.0


# ---------------------------------------------------------------------------
# problem kinds
# ---------------------------------------------------------------------------


def _qap_cost(inst: QapInstance, solution) -> float:
    X = np.asarray(solution, dtype=float).reshape(inst.n, inst.n)
    return float(np.sum(inst.flow * (X @ inst.distance @ X.T)))


def _local_search_mdkp(inst: MdkpInstance, solution) -> np.ndarray:
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    loads = inst.weights @ bits
    for i in range(inst.n):
        if bits[i] == 1 or inst.profits[i] <= 0:
            continue
        if np.all(loads + inst.weights[:, i] <= inst.capacities):
            bits[i] = 1
            loads = loads + inst.weights[:, i]
    return bits


def _local_search_mis(inst: MisInstance, solution) -> np.ndarray:
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    adjacency = inst.adjacency()
    for v in range(inst.n):
        if bits[v] == 0 and not any(bits[u] for u in adjacency[v]):
            bits[v] = 1
    return bits


def _local_search_qap(inst: QapInstance, solution) -> np.ndarray:
    X = np.asarray(solution).reshape(inst.n, inst.n).astype(int).copy()
    cost = _qap_cost(inst, X)
    improved = True
    while improved:
        improved = False
        for a in range(inst.n - 1):
            for b in range(a + 1, inst.n):
                X[[a, b]] = X[[b, a]]
                trial = _qap_cost(inst, X)
                if trial < cost - 1e-12:
                    cost = trial
                    improved = True
                    break
                X[[a, b]] = X[[b, a]]
            if improved:
                break
    return X


@dataclass(frozen=True)
class Problem:
    """Everything that differs between problem kinds, for one kind."""

    kind: str  # the name PipelineConfig.kind, load_instance and --kind use
    parse: Callable  # instance file text -> instance
    multiplier: float  # the default penalty multiplier
    scale: Callable  # inst -> the scale P = multiplier * scale
    build: Callable  # (inst, P, use_slack) -> penalized QuboModel
    violations: Callable  # (inst, x) -> the violated constraints, human-readable
    repair: Callable  # (inst, x) -> RepairReport with feasible bits
    decode: Callable  # (inst, the model's bits) -> the solution x the checks read
    summaries: Callable  # inst -> each decision variable's merge-penalty summary, in order
    combine: Callable  # folds two summaries into the merged supernode's
    identity: object  # the summary of the reference node and of MDKP's slack bits
    penalty: Callable  # Pi(s_a, s_b) on two supernode summaries
    objective: Callable  # (inst, x) -> profit, set size or cost
    local_search: Callable  # (inst, feasible x) -> a local optimum
    sense: str  # a best-known value is reported as a "max" or "min" gap, or as "rsq"


# The builders are called through this module's globals, so a wrapper
# installed on ``pipeline.build_*_qubo`` (perfbench's tracer) sees every build.
PROBLEMS = {
    MdkpInstance: Problem(
        kind="mdkp",
        parse=parse_mdkp,
        multiplier=10.0,
        scale=lambda inst: (float(inst.profits.max()) if inst.n else 0.0) or 1.0,
        build=lambda inst, P, use_slack: build_mdkp_qubo(inst, P, use_slack=use_slack),
        violations=feasibility.mdkp_violations,
        repair=feasibility.repair_mdkp,
        decode=lambda inst, bits: bits[:inst.n],  # the items; the slack bits follow them
        summaries=feasibility.mdkp_shares,
        combine=operator.add,
        identity=0.0,
        penalty=operator.add,  # s_a + s_b, broadcast over the share vector once per selection
        objective=lambda inst, x: float(inst.profits @ np.asarray(x).reshape(inst.n)),
        local_search=_local_search_mdkp,
        sense="max",
    ),
    MisInstance: Problem(
        kind="mis",
        parse=parse_mis_edgelist,
        multiplier=3.0,
        scale=lambda inst: 1.0,
        build=lambda inst, P, use_slack: build_mis_qubo(inst, P),
        violations=feasibility.mis_violations,
        repair=feasibility.repair_mis,
        decode=lambda inst, bits: bits,  # vertex v is variable v
        summaries=feasibility.mis_masks,
        combine=feasibility.or_masks,
        identity=(0, 0),
        penalty=feasibility.masks_meet,
        objective=lambda inst, x: float(np.asarray(x).sum()),
        local_search=_local_search_mis,
        sense="rsq",
    ),
    QapInstance: Problem(
        kind="qap",
        parse=parse_qaplib,
        multiplier=10.0,
        # max F * max D is the largest F_ik * D_jl, as the entries are nonnegative
        scale=lambda inst: (float(inst.flow.max() * inst.distance.max()) if inst.n else 0.0) or 1.0,
        build=lambda inst, P, use_slack: build_qap_qubo(inst, P),
        violations=feasibility.qap_violations,
        repair=feasibility.repair_qap,
        decode=lambda inst, bits: bits.reshape(inst.n, inst.n),  # cell (i, j) is i * n + j
        summaries=feasibility.qap_masks,
        combine=feasibility.or_masks,
        identity=(0, 0),
        penalty=feasibility.masks_meet,
        objective=_qap_cost,
        local_search=_local_search_qap,
        sense="min",
    ),
}
KINDS = tuple(problem.kind for problem in PROBLEMS.values())


def problem_of(inst) -> Problem:
    """The record of ``inst``'s kind, by its exact type; TypeError for any other."""
    problem = PROBLEMS.get(type(inst))
    if problem is None:
        raise TypeError(f"unsupported instance type {type(inst).__name__}")
    return problem


def violations(inst, x) -> list[str]:
    """The constraints ``x`` violates, human-readable; an empty list means feasible."""
    return problem_of(inst).violations(inst, x)


def is_feasible(inst, x) -> bool:
    return not violations(inst, x)


def repair(inst, x) -> feasibility.RepairReport:
    """The kind's deterministic greedy repair of ``x`` into a feasible solution."""
    return problem_of(inst).repair(inst, x)


def decode_solution(inst, model, bits) -> np.ndarray:
    """``model``'s bits read as a solution of ``inst``, by the kind's variable layout.

    MDKP yields the item selection (slack bits dropped), MIS the vertex
    selection, QAP the n x n assignment matrix. Bits of another length than
    ``model.n_vars`` raise ValueError.
    """
    bits = np.array(bits, dtype=int)
    if bits.shape != (model.n_vars,):
        raise ValueError(f"bits have shape {bits.shape}, expected ({model.n_vars},)")
    return problem_of(inst).decode(inst, bits)


def penalty_summaries(inst, n_vars: int) -> tuple[list | np.ndarray, Callable]:
    """Each Max-Cut node's merge-penalty summary by node id, and the rule that combines two.

    Node v + 1 is variable v of an ``n_vars``-variable model of ``inst``, so
    the summaries are the rule's identity for the reference node 0, then each
    decision variable's summary in variable order, then the identity for
    the variables after them (MDKP's slack bits). A vector of summaries
    (MDKP's shares) is padded as a vector, a list (MIS's and QAP's masks) as
    a list. ``WorkingGraph.contract`` folds an absorbed supernode's summary
    into the survivor's, survivor first.
    """
    problem = problem_of(inst)
    parts = problem.summaries(inst)
    if n_vars < len(parts):
        raise ValueError(f"{problem.kind} needs at least {len(parts)} variables, got {n_vars}")
    identity, pad = problem.identity, n_vars - len(parts)
    if isinstance(parts, np.ndarray):
        return np.pad(parts, (1, pad), constant_values=identity), problem.combine
    return [identity, *parts] + [identity] * pad, problem.combine


def make_penalty(inst) -> Callable[[object, object], float]:
    """The Pi(s_a, s_b) scorer the shrink stage calls on supernode summaries.

    ``select_merge`` calls it once per pair on a list of summaries, and once
    per selection, broadcast over every pair, on a vector.
    """
    return problem_of(inst).penalty


def recommend_penalty(inst, multiplier: float) -> float:
    """Penalty strength P: ``multiplier`` (a finite number > 0) times the kind's ``scale``."""
    require_number("penalty_multiplier", multiplier, 0, strict=True)
    return multiplier * problem_of(inst).scale(inst)


def objective_value(inst, solution) -> float:
    """Problem-level objective of a decoded solution (profit, set size, or cost)."""
    return problem_of(inst).objective(inst, solution)


def local_search(inst, solution) -> np.ndarray:
    """Feasibility-preserving first-improvement hill climbing to a local optimum.

    MDKP tries adding each excluded item, MIS each non-conflicting vertex,
    QAP all pairwise location swaps; only strict improvements are accepted.
    An addition only grows the loads or the selected neighbours, so an item
    or vertex that does not fit never fits later, and MDKP and MIS take one
    ascending pass. A swap can make an earlier pair improving again, so QAP
    restarts after each. Raises on infeasible input.
    """
    if not is_feasible(inst, solution):
        raise ValueError("local search requires a feasible starting solution")
    return problem_of(inst).local_search(inst, solution)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def load_instance(kind: str, path: str | Path):
    """Parse an instance file, attaching a best-known value from an optima.txt sidecar."""
    path = Path(path)
    text = path.read_text()
    require_choice("kind", kind, KINDS)
    problem = next(p for p in PROBLEMS.values() if p.kind == kind)
    inst = problem.parse(text)
    sidecar = path.parent / "optima.txt"
    if inst.known_optimum is None and sidecar.exists():
        best = load_optima(sidecar).get(path.stem)
        if best is not None:
            inst = replace(inst, known_optimum=best)
    return inst


def build_model(inst, config: PipelineConfig):
    """Instance -> penalized QUBO under the config's penalty multiplier; ``config.kind`` must match."""
    problem = problem_of(inst)
    if config.kind != problem.kind:
        raise ValueError(f"config kind {config.kind!r} does not match a {problem.kind!r} instance")
    multiplier = config.penalty_multiplier
    if multiplier is None:
        multiplier = problem.multiplier
    P = recommend_penalty(inst, multiplier)
    return problem.build(inst, P, config.use_slack)


def shrink_penalty(inst, model) -> tuple[Callable, tuple[list | np.ndarray, Callable]]:
    """The merge-penalty scorer and per-node summaries for shrinking ``model``'s Max-Cut graph."""
    return make_penalty(inst), penalty_summaries(inst, model.n_vars)


def shrink_config(settings: Mapping[str, Any], seed: int) -> ShrinkConfig:
    """The ShrinkConfig of ``settings`` (PipelineConfig's field names to values), seeded with ``seed``."""
    shared = {f.name: settings[f.name] for f in fields(ShrinkConfig) if f.name != "seed"}
    return ShrinkConfig(**shared, seed=seed)


def run_pipeline(config: PipelineConfig, inst=None) -> Report:
    """Run the full pipeline on one instance and return its report.

    ``inst`` may be passed directly (already parsed); otherwise it is loaded
    from ``config.instance``. When ``config.out`` is set the report is also
    written there as JSON.

    After lifting, the reduced solver's energy, the lifted energy (offset
    minus cut on the original graph) and ``evaluate_qubo`` of the lifted
    bits must agree within ``LIFT_RTOL`` of the largest of 1 and their
    magnitudes. Shrinking and lifting are lossless, so a miss is a defect:
    it raises ``PipelineError`` at stage "solve", naming all three.
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
        penalty = summaries = None
        if config.constraint_aware:
            penalty, summaries = shrink_penalty(inst, model)

        stage = "shrink"
        shrink_result = run_shrink(graph, shrink_config(vars(config), shrink_seed), penalty, summaries)
        timings["correlation"] = shrink_result.stats.sdp_seconds
        timings["shrinking"] = max(
            0.0, shrink_result.stats.shrink_seconds - shrink_result.stats.sdp_seconds
        )
        partial["final_size"] = shrink_result.graph.n_nodes - 1

        stage = "solve"
        t0 = time.perf_counter()
        reduced_model = graph_to_qubo(shrink_result.graph)
        reduced = solve_qubo(
            reduced_model, config.backend, seed=solver_seed,
            sweeps=config.sa_sweeps, layers=config.vqe_layers,
        )
        lifted = lift_solution(shrink_result, reduced.bits, graph)
        energies = (reduced.energy, lifted.energy, evaluate_qubo(model, lifted.bits))
        if max(energies) - min(energies) > LIFT_RTOL * max(1.0, *map(abs, energies)):
            raise PipelineError(
                stage,
                "lifting changed the energy: reduced solve {!r}, lifted {!r}, "
                "evaluate_qubo {!r}".format(*energies),
                partial,
            )
        decoded = decode_solution(inst, model, lifted.bits)
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
        gap_pct = rsq_pct = None
        if inst.known_optimum is not None:
            sense = problem_of(inst).sense
            if sense == "rsq":
                rsq_pct = rsq(inst.known_optimum, objective)
            else:
                gap_pct = optimality_gap(inst.known_optimum, objective, sense=sense)
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
