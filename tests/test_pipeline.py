"""End-to-end pipeline runs, metrics, local search, and the benchmark sweep."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    CSV_COLUMNS,
    MaxCutGraph,
    MdkpInstance,
    MisInstance,
    PipelineConfig,
    PipelineError,
    QapInstance,
    Report,
    ShrinkConfig,
    build_model,
    evaluate_qubo,
    graph_to_qubo,
    is_feasible,
    lift_solution,
    load_instance,
    local_search,
    make_penalty,
    objective_value,
    optimality_gap,
    penalty_summaries,
    qubo_to_maxcut,
    report_to_json,
    rsq,
    run_bench,
    run_pipeline,
    run_shrink,
)
from shrinkcut import pipeline
from shrinkcut.pipeline import shrink_config
from tests.conftest import every_bitstring, random_mis

PHASE_ZEROS = {
    "correlation": 0.0,
    "shrinking": 0.0,
    "solving": 0.0,
    "repair": 0.0,
    "local_search": 0.0,
}


def test_optimality_gap_for_maximization():
    assert optimality_gap(3418, 2881) == pytest.approx(15.7109420714, abs=1e-9)
    assert optimality_gap(12, 12) == 0.0


def test_optimality_gap_for_minimization():
    assert optimality_gap(9742, 10102, sense="min") == pytest.approx(3.6953, abs=1e-4)


def test_optimality_gap_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="best = 0"):
        optimality_gap(0, 5)
    with pytest.raises(ValueError, match="sense"):
        optimality_gap(1, 1, sense="between")


def test_rsq_is_a_percentage_of_best():
    assert rsq(8, 7) == 87.5
    assert rsq(4, 4) == 100.0
    with pytest.raises(ValueError, match="best > 0"):
        rsq(0, 1)


def test_objective_value_per_kind(mdkp_tiny, mis_triangle, qap_pair):
    assert objective_value(mdkp_tiny, (1, 1, 0)) == 12.0
    assert objective_value(mis_triangle, (0, 1, 0)) == 1.0
    assert objective_value(qap_pair, np.eye(2)) == 20.0
    with pytest.raises(TypeError, match="unsupported instance type"):
        objective_value(object(), (0,))


def test_local_search_fills_remaining_knapsack_capacity(mdkp_tiny):
    assert local_search(mdkp_tiny, (0, 1, 0)).tolist() == [1, 1, 0]
    assert local_search(mdkp_tiny, (1, 1, 0)).tolist() == [1, 1, 0]


def test_local_search_adds_independent_vertices():
    path = MisInstance(n=3, edges=((0, 1), (1, 2)))
    assert local_search(path, (1, 0, 0)).tolist() == [1, 0, 1]


def test_local_search_improves_assignments_by_swapping():
    inst = QapInstance(
        n=3,
        flow=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        distance=np.array([[0.0, 9.0, 1.0], [9.0, 0.0, 2.0], [1.0, 2.0, 0.0]]),
    )
    improved = local_search(inst, np.eye(3))
    assert improved.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert objective_value(inst, improved) == 2.0


def test_local_search_rejects_infeasible_input(mis_triangle):
    with pytest.raises(ValueError, match="feasible starting solution"):
        local_search(mis_triangle, (1, 1, 0))


def test_load_instance_attaches_sidecar_optimum(data_dir):
    inst = load_instance("mis", data_dir / "mis" / "1tc.8.txt")
    assert inst.known_optimum == 4.0
    tiny = load_instance("mdkp", data_dir / "mdkp" / "example3x1.txt")
    assert tiny.known_optimum == 12.0
    with pytest.raises(ValueError, match="kind"):
        load_instance("tsp", data_dir / "mis" / "1tc.8.txt")


def test_run_pipeline_solves_the_worked_knapsack(data_dir, tmp_path):
    out = tmp_path / "report.json"
    config = PipelineConfig(
        kind="mdkp",
        instance=str(data_dir / "mdkp" / "example3x1.txt"),
        backend="exact",
        seed=0,
        out=str(out),
    )
    report = run_pipeline(config)
    assert report.instance == "example3x1"
    assert report.initial_size == 3
    assert report.final_objective == 12.0
    assert report.feasible_after
    assert report.gap_pct == 0.0
    assert report.rsq_pct is None
    assert set(report.phase_timings) == set(PHASE_ZEROS)
    assert all(t >= 0 for t in report.phase_timings.values())
    payload = json.loads(out.read_text())
    assert payload["final_objective"] == 12.0
    assert payload["config"]["seed"] == 0


def test_run_pipeline_accepts_a_parsed_instance(mis_triangle):
    config = PipelineConfig(kind="mis", name="triangle", stop_mode="k", k=2, seed=1)
    report = run_pipeline(config, inst=mis_triangle)
    assert report.instance == "triangle"
    assert report.initial_size == 3
    assert report.final_size == 1
    assert report.final_objective == 1.0
    assert report.feasible_after
    assert report.rsq_pct == 100.0  # the fixture carries its known optimum
    assert report.gap_pct is None


def test_run_pipeline_reports_the_failing_stage():
    config = PipelineConfig(kind="mdkp", instance="/nonexistent/file.txt")
    with pytest.raises(PipelineError, match="stage 'load'") as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "load"

    with pytest.raises(PipelineError, match="no instance path"):
        run_pipeline(PipelineConfig(kind="mdkp"))


def test_run_pipeline_wraps_backend_capacity_errors():
    rng = np.random.default_rng(2)
    edges = tuple(
        (i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.2
    )
    inst = MisInstance(n=30, edges=edges)
    config = PipelineConfig(kind="mis", name="big", stop_mode="k", k=28, backend="exact")
    with pytest.raises(PipelineError, match="capped at 24") as excinfo:
        run_pipeline(config, inst=inst)
    assert excinfo.value.stage == "solve"
    assert excinfo.value.partial["initial_size"] == 30
    assert excinfo.value.partial["final_size"] == 27


def shift_offset(result):
    graph = result.graph
    return replace(result, graph=MaxCutGraph(graph.weights, graph.offset + 1.0))


def flip_one_sign(result):
    sign = result.sign.copy()
    sign[1] = -sign[1]  # variable 0's spin relative to its supernode
    return replace(result, sign=sign)


@pytest.mark.parametrize("corrupt", [shift_offset, flip_one_sign])
def test_run_pipeline_rejects_a_shrink_result_whose_lift_changes_the_energy(
    data_dir, monkeypatch, corrupt
):
    def corrupted_shrink(*args, **kwargs):
        return corrupt(run_shrink(*args, **kwargs))

    monkeypatch.setattr(pipeline, "run_shrink", corrupted_shrink)
    inst = load_instance("mis", data_dir / "mis" / "1tc.8.txt")
    config = PipelineConfig(kind="mis", stop_mode="k", k=4, backend="exact", seed=1)
    with pytest.raises(PipelineError, match="lifting changed the energy") as excinfo:
        run_pipeline(config, inst=inst)
    assert excinfo.value.stage == "solve"
    named = re.search(r"reduced solve (\S+), lifted (\S+), evaluate_qubo (\S+)$", str(excinfo.value))
    reduced, lifted, evaluated = map(float, named.groups())
    assert reduced != lifted == evaluated  # the original graph and QUBO still agree


def test_run_pipeline_final_solution_is_always_feasible():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(6, 12))
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        )
        inst = MisInstance(n=n, edges=edges)
        config = PipelineConfig(
            kind="mis", name=f"rand{trial}", stop_mode="k", k=max(2, n // 2), seed=trial
        )
        report = run_pipeline(config, inst=inst)
        assert report.feasible_after
        assert report.final_objective >= 1.0  # local search never returns an empty set


def test_run_pipeline_zero_timings_mode(mdkp_tiny):
    config = PipelineConfig(kind="mdkp", name="tiny", timings="zero", seed=3)
    report = run_pipeline(config, inst=mdkp_tiny)
    assert report.phase_timings == PHASE_ZEROS
    assert report.total_time == 0.0


@st.composite
def pipeline_cases(draw):
    """A small random instance of any kind and a random pipeline config for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mdkp", "mis", "qap"]))
    if kind == "mis":
        n = draw(st.integers(min_value=1, max_value=11))
        inst = random_mis(rng, n, draw(st.floats(min_value=0.0, max_value=1.0)))
    elif kind == "mdkp":
        n, m = draw(st.integers(1, 8)), draw(st.integers(1, 3))
        inst = MdkpInstance(
            n=n,
            m=m,
            profits=rng.integers(1, 20, n).astype(float),
            weights=rng.integers(0, 20, (m, n)).astype(float),
            capacities=rng.integers(1, 40, m).astype(float),
        )
    else:
        n = draw(st.integers(min_value=1, max_value=3))
        inst = QapInstance(
            n=n,
            flow=rng.integers(0, 10, (n, n)).astype(float),
            distance=rng.integers(0, 10, (n, n)).astype(float),
        )
    config = PipelineConfig(
        kind=kind,
        name="fuzz",
        use_slack=kind == "mdkp" and draw(st.booleans()),
        constraint_aware=draw(st.booleans()),
        lam=draw(st.floats(min_value=0.0, max_value=3.0)),
        recalc=draw(st.sampled_from(["fixed", "delta", "tau", "local"])),
        r=draw(st.integers(min_value=1, max_value=5)),
        delta=draw(st.floats(min_value=0.01, max_value=1.0)),
        tau=draw(st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(st.integers(0, 2**16)),
        timings="zero",
    )
    if draw(st.booleans()):
        config = replace(config, stop_mode="k", k=draw(st.integers(1, 30)))
    else:
        config = replace(
            config,
            alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
            energy_order=draw(st.sampled_from(["ascending", "descending"])),
        )
    if build_model(inst, config).n_vars > 16 or draw(st.booleans()):
        config = replace(config, backend="sa", sa_sweeps=draw(st.integers(1, 40)))
    return inst, config


@settings(max_examples=60, deadline=None)
@given(pipeline_cases())
def test_run_pipeline_is_deterministic_feasible_and_lifts_exactly(case):
    """Any small run repeats byte for byte, ends feasible, and its shrink lifts losslessly."""
    inst, config = case
    first = run_pipeline(config, inst=inst)
    assert report_to_json(run_pipeline(config, inst=inst)) == report_to_json(first)
    assert first.feasible_after

    model = build_model(inst, config)
    graph = qubo_to_maxcut(model)
    penalty = summaries = None
    if config.constraint_aware:
        penalty, summaries = make_penalty(inst), penalty_summaries(inst, model.n_vars)
    result = run_shrink(
        graph, shrink_config(vars(config), config.seed), penalty=penalty, summaries=summaries
    )
    if result.graph.n_nodes > 10:
        return
    reduced_model = graph_to_qubo(result.graph)
    for x in every_bitstring(result.graph.n_nodes - 1):
        lifted = lift_solution(result, x, graph)
        energy = evaluate_qubo(reduced_model, x)
        assert lifted.energy == pytest.approx(energy, rel=1e-12, abs=1e-9)
        assert evaluate_qubo(model, lifted.bits) == pytest.approx(energy, rel=1e-12, abs=1e-9)


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="kind"):
        PipelineConfig(kind="sat")
    with pytest.raises(ValueError, match="backend"):
        PipelineConfig(kind="mis", backend="qpu")
    with pytest.raises(ValueError, match="timings"):
        PipelineConfig(kind="mis", timings="cpu")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        PipelineConfig(kind="mis", seed=-1)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            PipelineConfig(kind="mis", seed=seed)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"stop_mode": "k"}, "stop_mode 'k' needs a target size >= 1, got None"),
        ({"sdp_tol": float("nan")}, "tol must be a finite number > 0, got nan"),
        ({"sdp_rank": 1}, "sdp_rank must be >= 2, got 1"),
        ({"sdp_max_sweeps": 0}, "sdp_max_sweeps must be >= 1, got 0"),
        ({"sa_sweeps": 0}, "sweeps must be >= 1, got 0"),
        ({"sa_sweeps": 2.5}, "sweeps must be an integer, got 2.5"),
        ({"vqe_layers": -1}, "layers must be >= 0, got -1"),
        ({"vqe_layers": True}, "layers must be an integer, got True"),
        ({"penalty_multiplier": float("inf")}, "penalty_multiplier must be a finite number > 0, got inf"),
    ],
)
def test_pipeline_config_checks_every_setting_at_construction(setting, message):
    # the default run (spectral stop, exact backend) reads none of these
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(kind="mis", **setting)


def test_a_k_under_the_spectral_rule_is_rejected_naming_both_settings():
    """The spectral rule picks its own size, so a k beside it would be silently ignored."""
    message = "stop_mode 'spectral' never reads k = 5; drop one"
    with pytest.raises(ValueError, match=re.escape(message)):
        ShrinkConfig(k=5)
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(kind="mis", instance="data/mis/1tc.16.txt", k=5, backend="sa")
    assert ShrinkConfig(stop_mode="k", k=5).k == 5
    assert PipelineConfig(kind="mis", stop_mode="spectral", k=None).k is None


# values of the wrong type, by the base type a field is annotated with; a
# field that does not allow None gets None too
WRONG_TYPE = {
    "str": [5, b"mis", ["mis"]],
    "int": ["abc", 2.5, True, np.float64(3.0)],
    "float": ["abc", True, [0.5]],
    "bool": ["abc", 1, 0, None],
}
# for each numeric field, values outside its range (non-finite ones too for floats)
OUT_OF_RANGE = {
    "penalty_multiplier": [0.0, -1.0, float("nan"), float("inf")],
    "k": [0, -3],
    "alpha": [-0.1, 1.5, float("nan")],
    "lam": [-0.5, float("inf")],
    "r": [0],
    "delta": [0.0, float("nan")],
    "tau": [-0.1, 1.01, float("nan")],
    "sdp_rank": [1],
    "sdp_tol": [0.0, -1e-10, float("inf")],
    "sdp_max_sweeps": [0],
    "sa_sweeps": [0],
    "vqe_layers": [-1],
    "seed": [-1],
}


@pytest.mark.parametrize("field", fields(PipelineConfig), ids=lambda field: field.name)
def test_every_pipeline_setting_rejects_a_wrong_type_and_a_value_out_of_range(field):
    base, *rest = field.type.split(" | ")
    wrong = WRONG_TYPE[base] + ([] if "None" in rest else [None])
    numeric = base in ("int", "float")
    assert numeric == (field.name in OUT_OF_RANGE)  # a new numeric field needs its range here
    for value in wrong + OUT_OF_RANGE.get(field.name, []):
        with pytest.raises(ValueError) as caught:
            PipelineConfig(**{"kind": "mis", field.name: value})
        assert str(caught.value).startswith(f"{field.name} must "), (value, str(caught.value))


def test_report_validation():
    base = dict(
        instance="x",
        initial_size=3,
        final_size=2,
        final_objective=1.0,
        feasible_before_repair=True,
        feasible_after=True,
        repair_iterations=0,
        gap_pct=None,
        rsq_pct=None,
        phase_timings=dict(PHASE_ZEROS),
        seed=0,
        config={},
    )
    assert Report(**base).total_time == 0.0
    with pytest.raises(ValueError, match="missing"):
        Report(**{**base, "phase_timings": {"solving": 0.0}})
    with pytest.raises(ValueError, match="negative"):
        Report(**{**base, "phase_timings": {**PHASE_ZEROS, "repair": -1.0}})
    with pytest.raises(ValueError, match="cannot both"):
        Report(**{**base, "gap_pct": 1.0, "rsq_pct": 99.0})


def test_run_bench_produces_one_row_per_pair(data_dir):
    base = PipelineConfig(kind="mdkp", backend="exact", seed=11)
    csv_text, failures = run_bench(
        base,
        [
            ("mdkp", str(data_dir / "mdkp" / "example3x1.txt")),
            ("mis", str(data_dir / "mis" / "1tc.8.txt")),
        ],
    )
    assert failures == []
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    knap = [r for r in rows if r["Instance"] == "example3x1"]
    assert [r["Strategy"] for r in knap] == ["2/3", "1/2", "adaptive"]
    assert [r["FinalSize"] for r in knap[:2]] == ["2", "1"]
    assert all(r["InitialSize"] == "3" for r in knap)
    assert all(r["Feasible"] == "True" for r in rows)
    assert all(r["TotalTime_s"] == "0.000000" for r in rows)  # zero-timings default
    mis_rows = [r for r in rows if r["Instance"] == "1tc.8"]
    assert all(r["Gap_pct"] == "" for r in mis_rows)
    assert all(r["RSQ_pct"] != "" for r in mis_rows)
    assert all(r["Gap_pct"] != "" and r["RSQ_pct"] == "" for r in knap)


@pytest.mark.filterwarnings("error")
def test_run_bench_shrinks_an_mdkp_instance_without_constraint_rows(tmp_path):
    path = tmp_path / "m0.txt"
    path.write_text("4 0 0\n3 1 4 1\n")  # every selection is feasible: optimum 9
    csv_text, failures = run_bench(PipelineConfig(kind="mdkp"), [("mdkp", str(path))])
    assert failures == []
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in csv_text.strip().split("\n")[1:]]
    assert [(r["FinalSize"], r["FinalObjective"], r["Feasible"]) for r in rows] == [
        ("2", "9", "True"),
        ("2", "9", "True"),
        ("4", "9", "True"),
    ]


def test_run_bench_is_deterministic(data_dir):
    base = PipelineConfig(kind="mis", backend="sa", sa_sweeps=200, seed=5)
    args = (base, [("mis", str(data_dir / "mis" / "1tc.8.txt"))])
    first, _ = run_bench(*args)
    second, _ = run_bench(*args)
    assert first == second


def test_run_bench_records_failures_and_continues(data_dir):
    base = PipelineConfig(kind="mdkp", backend="exact", seed=2)
    csv_text, failures = run_bench(
        base,
        [
            ("mdkp", "/nonexistent/missing.txt"),
            ("mdkp", str(data_dir / "mdkp" / "example3x1.txt")),
        ],
        strategies=("1/2",),
    )
    assert len(failures) == 1
    assert "missing/1/2" in failures[0]
    lines = csv_text.strip().split("\n")
    assert len(lines) == 3
    failed = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert failed["Instance"] == "missing"
    assert failed["Feasible"] == "False"
    assert failed["FinalObjective"] == ""
    good = dict(zip(CSV_COLUMNS, lines[2].split(",")))
    assert good["Instance"] == "example3x1"
    assert good["Feasible"] == "True"


def test_run_bench_failure_rows_keep_later_seeds_aligned(data_dir):
    path = str(data_dir / "mis" / "1tc.8.txt")
    with_failure, _ = run_bench(
        PipelineConfig(kind="mis", backend="sa", seed=9),
        [("mis", "/nonexistent.txt"), ("mis", path)],
        strategies=("1/2",),
    )
    alone, _ = run_bench(
        PipelineConfig(kind="mis", backend="sa", seed=9),
        [("mis", "/nonexistent.txt"), ("mis", path)],
        strategies=("1/2",),
    )
    assert with_failure == alone
