"""Command-line interface, exercised in-process through main()."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    build_mdkp_qubo,
    graph_from_json,
    graph_to_json,
    merge_steps_from_jsonl,
    model_from_json,
    model_to_json,
    qubo_to_maxcut,
)
from shrinkcut.cli import load_config_file, main
from tests.conftest import (
    INSTANCE_TEXTS,
    PARSERS,
    malformed_instance_texts,
    malformed_json_texts,
    valid_json_documents,
)

MDKP_TEXT = "3 1 12\n5 7 4\n2 3 4\n5\n"
TRIANGLE_TEXT = "3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def mdkp_file(tmp_path):
    path = tmp_path / "knap.txt"
    path.write_text(MDKP_TEXT)
    return path


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_TEXT)
    return path


def test_build_qubo_writes_the_worked_model(mdkp_file, tmp_path, mdkp_tiny):
    out = tmp_path / "model.json"
    code = main(
        ["build-qubo", "--kind", "mdkp", "--instance", str(mdkp_file), "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == model_to_json(build_mdkp_qubo(mdkp_tiny, P=70.0))
    assert model_to_json(model_from_json(out.read_text())) == out.read_text()


def test_build_qubo_use_slack_flag_adds_slack_bits(mdkp_file, tmp_path):
    out = tmp_path / "model.json"
    code = main(
        [
            "build-qubo",
            "--kind",
            "mdkp",
            "--instance",
            str(mdkp_file),
            "--use-slack",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert model_from_json(out.read_text()).n_vars == 5


def test_build_qubo_requires_kind_and_instance(mdkp_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["build-qubo", "--instance", str(mdkp_file)])
    assert excinfo.value.code == 2


def test_to_maxcut_from_a_model_file(mdkp_file, tmp_path, mdkp_tiny):
    model_path = tmp_path / "model.json"
    main(["build-qubo", "--kind", "mdkp", "--instance", str(mdkp_file), "--out", str(model_path)])
    out = tmp_path / "graph.json"
    code = main(["to-maxcut", "--model", str(model_path), "--out", str(out)])
    assert code == 0
    assert out.read_text() == graph_to_json(qubo_to_maxcut(build_mdkp_qubo(mdkp_tiny, P=70.0)))
    assert graph_to_json(graph_from_json(out.read_text())) == out.read_text()


def test_to_maxcut_straight_from_an_instance(triangle_file, tmp_path):
    out = tmp_path / "graph.json"
    code = main(["to-maxcut", "--kind", "mis", "--instance", str(triangle_file), "--out", str(out)])
    assert code == 0
    assert graph_from_json(out.read_text()).n_nodes == 4


def test_shrink_writes_reduced_graph_and_merge_log(triangle_file, tmp_path):
    out = tmp_path / "reduced.json"
    steps = tmp_path / "steps.jsonl"
    code = main(
        [
            "shrink",
            "--kind",
            "mis",
            "--instance",
            str(triangle_file),
            "--k",
            "2",
            "--steps-out",
            str(steps),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    reduced = graph_from_json(out.read_text())
    assert reduced.n_nodes == 2
    log = merge_steps_from_jsonl(steps.read_text())
    assert len(log) == 2
    assert [s.order for s in log] == [1, 2]


def test_shrink_accepts_a_graph_file(tmp_path, triangle_file):
    graph_path = tmp_path / "graph.json"
    main(["to-maxcut", "--kind", "mis", "--instance", str(triangle_file), "--out", str(graph_path)])
    out = tmp_path / "reduced.json"
    code = main(["shrink", "--graph", str(graph_path), "--k", "3", "--out", str(out)])
    assert code == 0
    assert graph_from_json(out.read_text()).n_nodes == 3


@pytest.mark.parametrize(
    "edges, offset",
    [
        ("[[0, 1, 1.0], [1, 2, NaN]]", "0.0"),
        ("[[0, 1, Infinity]]", "0.0"),
        ("[[0, 1, 1.0]]", "Infinity"),
    ],
    ids=["nan-weight", "inf-weight", "inf-offset"],
)
def test_shrink_rejects_a_graph_with_a_non_finite_value(tmp_path, capsys, edges, offset):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(
        f'{{"n_nodes": 3, "edges": {edges}, "offset": {offset}, "var_map": [0, 1]}}'
    )
    assert main(["shrink", "--graph", str(graph_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shrinkcut:" in captured.err and "finite" in captured.err


@pytest.mark.parametrize("command", ["to-maxcut --model", "solve --model", "shrink --graph"])
@pytest.mark.parametrize(
    "doc, message",
    [
        ("{}", "missing field"),
        ("[1, 2]", "expected a JSON object, got list"),
        ("not json", "invalid JSON"),
    ],
    ids=["empty-object", "list", "not-json"],
)
def test_json_readers_exit_two_on_a_malformed_document(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert main([*command.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shrinkcut:" in captured.err and message in captured.err


@pytest.mark.parametrize(
    "fields, message",
    [
        ('"edges": 5, "offset": 0.0, "var_map": [0, 1]', "malformed field"),
        ('"edges": [[0, 1, 1.0]], "offset": 0.0, "var_map": [1, 0]', "var_map must be"),
        ('"edges": [[0, 1, 1.0]], "offset": 0.0', "missing field 'var_map'"),
    ],
    ids=["edges-not-a-list", "permuted-var-map", "no-var-map"],
)
def test_shrink_rejects_a_malformed_graph_file(tmp_path, capsys, fields, message):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(f'{{"n_nodes": 3, {fields}}}')
    assert main(["shrink", "--graph", str(graph_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shrinkcut:" in captured.err and message in captured.err


MODEL_FIELDS = '"linear": [0.0, 0.0, 0.0], "offset": 0.0, "semantics": [["spin", 1], ["spin", 2], ["spin", 3]]'
GRAPH_FIELDS = '"offset": 0.0, "var_map": [0, 1]'


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "shrink --graph",
            f'{{"n_nodes": 3, "edges": [[0, 1, 1.0], [0, 1, 5.0], [1, 2, 2.0]], {GRAPH_FIELDS}}}',
            "edge (0, 1) is listed twice",
        ),
        (
            "solve --model",
            f'{{"n_vars": 3, "quadratic": [[0, 1, 3.0], [0, 1, -3.0]], {MODEL_FIELDS}}}',
            "quadratic term (0, 1) is listed twice",
        ),
        (
            "to-maxcut --model",
            f'{{"n_vars": 3, "quadratic": [[0, 1, 3.0], [0, 1, -3.0]], {MODEL_FIELDS}}}',
            "quadratic term (0, 1) is listed twice",
        ),
        (
            "solve --model",
            f'{{"n_vars": 2.9, "quadratic": [[0, 1, 3.0]], {MODEL_FIELDS}}}',
            "n_vars must be a non-negative integer, got 2.9",
        ),
        (
            "shrink --graph",
            f'{{"n_nodes": 2.9, "edges": [[0, 1, 1.0]], {GRAPH_FIELDS}}}',
            "n_nodes must be a non-negative integer, got 2.9",
        ),
        (
            "shrink --graph",
            f'{{"n_nodes": 3, "edges": [[0, 1.7, 1.0]], {GRAPH_FIELDS}}}',
            "edge index must be a non-negative integer, got 1.7",
        ),
    ],
    ids=[
        "repeated-edge",
        "repeated-term-solve",
        "repeated-term-to-maxcut",
        "fractional-n-vars",
        "fractional-n-nodes",
        "fractional-edge-index",
    ],
)
def test_json_readers_exit_two_on_a_repeated_or_non_integral_key(
    tmp_path, capsys, command, doc, message
):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert main([*command.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shrinkcut:" in captured.err and message in captured.err


def test_shrink_reads_stop_mode_and_k_from_the_config_file(data_dir, tmp_path):
    config = tmp_path / "shrink.cfg"
    config.write_text("stop_mode = k\nk = 4\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    out = tmp_path / "reduced.json"
    assert main(["shrink", *instance, "--config", str(config), "--out", str(out)]) == 0
    assert graph_from_json(out.read_text()).n_nodes == 4
    report = tmp_path / "report.json"
    assert main(["pipeline", *instance, "--config", str(config), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["final_size"] == 3  # decision nodes: 4 minus the reference


def test_a_k_from_the_config_file_selects_stop_mode_k(data_dir, tmp_path):
    config = tmp_path / "k.cfg"
    config.write_text("k = 5\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.16.txt")]
    out = tmp_path / "reduced.json"
    assert main(["shrink", *instance, "--config", str(config), "--out", str(out)]) == 0
    assert graph_from_json(out.read_text()).n_nodes == 5
    report = tmp_path / "report.json"
    args = [*instance, "--backend", "exact", "--seed", "0", "--config", str(config)]
    assert main(["pipeline", *args, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["config"]["stop_mode"], doc["config"]["k"]) == ("k", 5)
    assert doc["final_size"] == 4  # decision nodes: 5 minus the reference


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
def test_a_k_with_a_spectral_stop_mode_in_the_config_file_exits_two(
    command, data_dir, tmp_path, capsys
):
    config = tmp_path / "clash.cfg"
    config.write_text("k = 5\nstop_mode = spectral\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.16.txt")]
    assert main([command, *instance, "--config", str(config)]) == 2
    assert "the config file sets 'spectral'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
def test_a_k_from_the_config_file_with_an_alpha_flag_exits_two(
    command, data_dir, tmp_path, capsys
):
    config = tmp_path / "k.cfg"
    config.write_text("k = 5\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.16.txt")]
    assert main([command, *instance, "--config", str(config), "--alpha", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k = 5" in captured.err and "--alpha 0.5" in captured.err


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
def test_k_and_alpha_are_mutually_exclusive_flags(triangle_file, capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                command,
                "--kind",
                "mis",
                "--instance",
                str(triangle_file),
                "--k",
                "2",
                "--alpha",
                "0.5",
            ]
        )
    assert excinfo.value.code == 2
    assert "argument --alpha: not allowed with argument --k" in capsys.readouterr().err


def test_solve_exact_reports_the_known_optimum(mdkp_file, tmp_path):
    model_path = tmp_path / "model.json"
    main(["build-qubo", "--kind", "mdkp", "--instance", str(mdkp_file), "--out", str(model_path)])
    out = tmp_path / "solution.json"
    code = main(
        ["solve", "--model", str(model_path), "--backend", "exact", "--name", "knap", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc == {"instance": "knap", "bits": [1, 1, 0], "energy": -12.0}


def test_solve_rejects_a_model_with_a_nan_coefficient(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        '{"n_vars": 2, "linear": [0.0, 0.0], "quadratic": [[0, 1, NaN]], "offset": 0.0, '
        '"semantics": [["spin", 0], ["spin", 1]]}'
    )
    code = main(["solve", "--model", str(model_path), "--backend", "exact"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shrinkcut:" in captured.err and "non-finite" in captured.err


def test_solve_sa_is_deterministic_across_invocations(mdkp_file, tmp_path):
    model_path = tmp_path / "model.json"
    main(["build-qubo", "--kind", "mdkp", "--instance", str(mdkp_file), "--out", str(model_path)])
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "solve",
                "--model",
                str(model_path),
                "--backend",
                "sa",
                "--seed",
                "4",
                "--sweeps",
                "80",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "backend, config_line, flags",
    [
        ("sa", "sa_sweeps = 1", ["--sweeps", "1"]),
        ("vqe", "vqe_layers = 2", ["--layers", "2"]),
    ],
)
def test_solve_reads_sweeps_and_layers_from_the_config_file(
    data_dir, tmp_path, backend, config_line, flags
):
    model_path = tmp_path / "model.json"
    args = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    main(["build-qubo", *args, "--out", str(model_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"backend = {backend}\n{config_line}\n")
    solve = ["solve", "--model", str(model_path), "--seed", "3"]

    def solution(*extra):
        out = tmp_path / "solution.json"
        assert main([*solve, *extra, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    from_file = solution("--config", str(cfg))
    assert from_file == solution("--backend", backend, *flags)
    assert from_file != solution("--backend", backend)
    # an explicit flag still beats the file
    flag_wins = solution("--config", str(cfg), flags[0], "3")
    assert flag_wins == solution("--backend", backend, flags[0], "3") != from_file


@pytest.mark.parametrize("command", ["solve", "pipeline"])
def test_a_fractional_sweep_count_in_the_config_file_exits_two(
    command, data_dir, tmp_path, capsys
):
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    if command == "solve":
        model_path = tmp_path / "model.json"
        main(["build-qubo", *instance, "--out", str(model_path)])
        instance = ["--model", str(model_path)]
    config = tmp_path / "sweeps.cfg"
    config.write_text("sa_sweeps = 2.5\n")
    assert main([command, *instance, "--backend", "sa", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweeps must be an integer, got 2.5" in captured.err


@pytest.mark.parametrize("command", ["solve", "shrink", "pipeline"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ("--seed -1", "seed must be >= 0, got -1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("seed = 1.5", "seed must be an integer, got 1.5"),
        ("seed = true", "seed must be an integer, got True"),
    ],
)
def test_a_seed_that_is_not_a_non_negative_integer_exits_two(
    command, setting, message, data_dir, tmp_path, capsys
):
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    if command == "solve":
        model_path = tmp_path / "model.json"
        main(["build-qubo", *instance, "--out", str(model_path)])
        instance = ["--model", str(model_path), "--backend", "sa"]
    if setting.startswith("--"):
        extra = setting.split()
    else:
        config = tmp_path / "seed.cfg"
        config.write_text(setting + "\n")
        extra = ["--config", str(config)]
    assert main([command, *instance, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # checked with the settings, not blamed on a pipeline stage
    assert message in captured.err and "stage" not in captured.err


def test_solve_on_the_exact_backend_with_a_negative_seed_exits_two(data_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    assert main(["build-qubo", *instance, "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--model", str(model_path), "--backend", "exact", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


@pytest.mark.parametrize(
    "flags, config_text, message",
    [
        (["--backend", "exact", "--sweeps", "0", "--layers", "-5"], None, "sweeps must be >= 1, got 0"),
        ([], "sdp_tol = nan\nalpha = 7\n", "alpha must lie in [0, 1], got 7"),
    ],
)
def test_solve_checks_every_setting_as_a_pipeline_run_does(
    flags, config_text, message, data_dir, tmp_path, capsys
):
    """Settings the chosen backend never reads exit 2 with the message a pipeline run gives."""
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    model_path = tmp_path / "model.json"
    assert main(["build-qubo", *instance, "--out", str(model_path)]) == 0
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        flags = ["--config", str(config)]
    capsys.readouterr()
    assert main(["pipeline", *instance, *flags]) == 2
    from_pipeline = capsys.readouterr()
    assert main(["solve", "--model", str(model_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == from_pipeline.out == ""
    assert captured.err == from_pipeline.err and message in captured.err


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ("sdp_tol = nan", "tol must be a finite number > 0, got nan"),
        ("sdp_tol = inf", "tol must be a finite number > 0, got inf"),
        ("sdp_tol = 0", "tol must be a finite number > 0, got 0"),
        ("sdp_max_sweeps = yes", "max_sweeps must be an integer, got True"),
        ("sdp_max_sweeps = 2.5", "max_sweeps must be an integer, got 2.5"),
        ("sdp_rank = 3.0", "rank must be an integer, got 3.0"),
    ],
)
def test_an_invalid_sdp_setting_in_the_config_file_exits_two(
    command, setting, message, data_dir, tmp_path, capsys
):
    config = tmp_path / "sdp.cfg"
    config.write_text(setting + "\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    assert main([command, *instance, "--k", "5", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ("lam = nan", "lam must be a finite number >= 0, got nan"),
        ("lam = inf", "lam must be a finite number >= 0, got inf"),
        ("delta = nan", "delta must be a finite number > 0, got nan"),
        ("r = 2.5", "r must be an integer, got 2.5"),
        ("r = yes", "r must be an integer, got True"),
    ],
)
def test_an_invalid_penalty_weight_or_recalc_knob_in_the_config_file_exits_two(
    command, setting, message, data_dir, tmp_path, capsys
):
    config = tmp_path / "shrink.cfg"
    config.write_text(setting + "\n")
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    assert main([command, *instance, "--k", "5", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["shrink", "pipeline"])
@pytest.mark.parametrize("flag", [["--lambda", "nan"], ["--lambda", "inf"], ["--delta", "nan"]])
def test_a_non_finite_penalty_weight_or_drift_flag_exits_two(command, flag, data_dir, capsys):
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    assert main([command, *instance, "--k", "5", "--recalc", "delta", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a finite number" in captured.err
    assert "high <= 0" not in captured.err


@pytest.mark.parametrize("command", ["solve", "pipeline"])
@pytest.mark.parametrize("layers", ["2.5", "yes"])
def test_a_layer_count_that_is_not_an_integer_in_the_config_file_exits_two(
    command, layers, data_dir, tmp_path, capsys
):
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    if command == "solve":
        model_path = tmp_path / "model.json"
        main(["build-qubo", *instance, "--out", str(model_path)])
        instance = ["--model", str(model_path)]
    config = tmp_path / "layers.cfg"
    config.write_text(f"vqe_layers = {layers}\n")
    assert main([command, *instance, "--backend", "vqe", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "layers must be an integer" in captured.err


def test_pipeline_exit_zero_and_report_json(mdkp_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["pipeline", "--kind", "mdkp", "--instance", str(mdkp_file), "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["final_objective"] == 12.0
    assert payload["feasible_after"] is True
    assert payload["gap_pct"] == 0.0


def test_pipeline_exits_one_when_infeasible_and_repair_disabled(tmp_path):
    # a feather-light penalty makes overpacking optimal for the raw QUBO
    instance = tmp_path / "loose.txt"
    instance.write_text("2 1 0\n10 10\n1 1\n1\n")
    code = main(
        [
            "pipeline",
            "--kind",
            "mdkp",
            "--instance",
            str(instance),
            "--penalty-multiplier",
            "0.01",
            "--no-repair",
            "--no-local-search",
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert code == 1
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["feasible_before_repair"] is False
    assert payload["feasible_after"] is False


def test_pipeline_repairs_the_same_case_by_default(tmp_path):
    instance = tmp_path / "loose.txt"
    instance.write_text("2 1 0\n10 10\n1 1\n1\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "pipeline",
            "--kind",
            "mdkp",
            "--instance",
            str(instance),
            "--penalty-multiplier",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["feasible_before_repair"] is False
    assert payload["feasible_after"] is True
    assert payload["repair_iterations"] >= 1


def test_pipeline_config_file_defaults_and_flag_overrides(mdkp_file, tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text(
        "# solver defaults\nlam = 0.5\nbackend = sa\nsa_sweeps = 300\nseed = 9\n"
    )
    out = tmp_path / "report.json"
    code = main(
        [
            "pipeline",
            "--kind",
            "mdkp",
            "--instance",
            str(mdkp_file),
            "--config",
            str(config),
            "--lambda",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    echoed = json.loads(out.read_text())["config"]
    assert echoed["lam"] == 2.0  # explicit flag beats the file
    assert echoed["backend"] == "sa"
    assert echoed["sa_sweeps"] == 300
    assert echoed["seed"] == 9


def test_load_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("coolness = 11\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(config)
    assert main(["pipeline", "--kind", "mis", "--instance", "x", "--config", str(config)]) == 2


def test_a_config_key_set_twice_exits_two_naming_the_key_and_both_lines(
    data_dir, tmp_path, capsys
):
    config = tmp_path / "twice.cfg"
    config.write_text("k = 3\n# a comment\nseed = 1\nk = 5\n")
    with pytest.raises(ValueError, match="config key 'k' is set twice, on lines 1 and 4"):
        load_config_file(config)
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    assert main(["pipeline", *instance, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'k' is set twice, on lines 1 and 4" in captured.err


def test_load_config_file_coercion(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text(
        "use_slack = true\nk = 4\nalpha = 0.25\nname = demo\nsdp_rank = none\n"
        "instance = 2024\nout = yes\n"
    )
    assert load_config_file(config) == {
        "use_slack": True,
        "k": 4,
        "alpha": 0.25,
        "name": "demo",
        "sdp_rank": None,
        "instance": "2024",  # a str field keeps its text: a file named 2024
        "out": "yes",
    }


def test_bench_csv_is_byte_identical_across_runs(mdkp_file, triangle_file, tmp_path):
    args = [
        "bench",
        "--instances",
        f"mdkp:{mdkp_file}",
        f"mis:{triangle_file}",
        "--strategies",
        "1/2",
        "adaptive",
        "--backend",
        "exact",
        "--seed",
        "3",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("Instance,Strategy,ConstraintAware")


def test_bench_reports_failures_with_exit_one(mdkp_file, tmp_path, capsys):
    code = main(
        [
            "bench",
            "--instances",
            "mdkp:/nonexistent.txt",
            f"mdkp:{mdkp_file}",
            "--strategies",
            "1/2",
            "--out",
            str(tmp_path / "bench.csv"),
        ]
    )
    assert code == 1
    assert "bench: nonexistent/1/2" in capsys.readouterr().err


def test_bench_rejects_malformed_instance_specs(mdkp_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--instances", "just-a-path.txt"])
    assert excinfo.value.code == 2


def test_bench_rejects_k_because_each_strategy_sets_the_size(triangle_file, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--instances", f"mis:{triangle_file}", "--k", "3", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "--k is not a bench option" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["k = 3", "stop_mode = spectral"], ids=["k", "stop_mode"])
def test_bench_rejects_size_keys_in_the_config_file(triangle_file, tmp_path, capsys, line):
    config = tmp_path / "bench.cfg"
    config.write_text(f"{line}\n")
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(
            ["bench", "--instances", f"mis:{triangle_file}", "--config", str(config)]
            + ["--out", str(out)]
        )
    assert excinfo.value.code == 2
    assert "is not a bench config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("flags", "config_text", "message"),
    [
        (["--lambda", "nan"], "", "lam must be a finite number >= 0, got nan"),
        ([], "delta = nan\n", "delta must be a finite number > 0, got nan"),
    ],
    ids=["lambda-flag", "delta-config"],
)
def test_bench_rejects_a_bad_shrink_setting_before_any_row(
    triangle_file, tmp_path, capsys, flags, config_text, message
):
    config = tmp_path / "bench.cfg"
    config.write_text(config_text)
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--instances", f"mis:{triangle_file}", "--backend", "sa", "--sweeps", "50"]
        + ["--seed", "1", "--config", str(config), "--out", str(out)]
        + flags
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(message) == 1
    assert "bench:" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "bench"])
@pytest.mark.parametrize(
    "flags, config_text, message",
    [
        ([], "sdp_tol = nan\n", "tol must be a finite number > 0, got nan"),
        (["--sweeps", "0", "--backend", "exact"], "", "sweeps must be >= 1, got 0"),
        (["--layers", "-1"], "", "layers must be >= 0, got -1"),
        ([], "sa_sweeps = 2.5\n", "sweeps must be an integer, got 2.5"),
        (["--penalty-multiplier", "nan"], "", "penalty_multiplier must be a finite number > 0, got nan"),
    ],
    ids=["sdp-tol-on-a-run-that-keeps-every-node", "sweeps", "layers", "fractional-sweeps", "nan-P"],
)
def test_a_setting_the_run_never_reads_is_still_checked_before_any_stage(
    command, flags, config_text, message, data_dir, tmp_path, capsys
):
    # 1tc.8 without --k keeps every node, so no SDP runs, and the exact backend
    # reads neither sweeps nor layers
    path = data_dir / "mis" / "1tc.8.txt"
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    out = tmp_path / "out.txt"
    where = ["--kind", "mis", "--instance", str(path)]
    if command == "bench":
        where = ["--instances", f"mis:{path}"]
    assert main([command, *where, "--config", str(config), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "stage" not in captured.err and "bench:" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["alpha = abc", "tau = abc", "k = abc", "k = 2.5", "k = true", "constraint_aware = abc", "do_repair = 0"],
)
def test_a_config_value_of_the_wrong_type_exits_2_with_one_line_naming_it(line, data_dir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    path = data_dir / "mis" / "1tc.8.txt"
    assert main(["pipeline", "--kind", "mis", "--instance", str(path), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = line.split(" = ")[0]
    assert captured.err.startswith(f"shrinkcut: {key} must ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_shrink_checks_the_sdp_settings_of_a_graph_it_never_solves(tmp_path, triangle_file, capsys):
    graph = tmp_path / "graph.json"
    main(["to-maxcut", "--kind", "mis", "--instance", str(triangle_file), "--out", str(graph)])
    config = tmp_path / "sdp.cfg"
    config.write_text("sdp_tol = nan\n")
    out = tmp_path / "reduced.json"
    for k in ("4", "9"):  # the graph has 4 nodes, so nothing merges
        args = ["shrink", "--graph", str(graph), "--k", k, "--config", str(config)]
        assert main([*args, "--out", str(out)]) == 2
        assert "tol must be a finite number > 0, got nan" in capsys.readouterr().err
        assert not out.exists()


def test_shrink_checks_the_run_settings_of_a_graph_it_only_shrinks(tmp_path, triangle_file, capsys):
    graph = tmp_path / "graph.json"
    main(["to-maxcut", "--kind", "mis", "--instance", str(triangle_file), "--out", str(graph)])
    config = tmp_path / "run.cfg"
    out = tmp_path / "reduced.json"
    for line, message in [
        ("do_repair = 0", "do_repair must be true or false, got 0"),
        ("backend = qpu", "backend must be one of 'exact', 'sa', 'vqe', got 'qpu'"),
        ("penalty_multiplier = abc", "penalty_multiplier must be a finite number > 0, got 'abc'"),
    ]:
        config.write_text(line + "\n")
        args = ["shrink", "--graph", str(graph), "--k", "2", "--config", str(config)]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"shrinkcut: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "shrink"])
def test_a_config_kind_outside_the_kinds_exits_2_from_the_commands_that_take_no_kind(
    command, data_dir, tmp_path, capsys
):
    instance = ["--kind", "mis", "--instance", str(data_dir / "mis" / "1tc.8.txt")]
    model, graph = tmp_path / "model.json", tmp_path / "graph.json"
    assert main(["build-qubo", *instance, "--out", str(model)]) == 0
    assert main(["to-maxcut", *instance, "--out", str(graph)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("kind = sat\n")
    out = tmp_path / "result.json"
    inputs = ["--model", str(model)] if command == "solve" else ["--graph", str(graph), "--k", "3"]
    capsys.readouterr()
    assert main([command, *inputs, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shrinkcut: kind must be one of 'mdkp', 'mis', 'qap', got 'sat'\n"
    assert not out.exists()


def test_the_config_file_sets_out_kind_and_instance_and_a_flag_still_wins(data_dir, tmp_path):
    small, large = data_dir / "mis" / "1tc.8.txt", data_dir / "mis" / "1tc.16.txt"
    from_file = tmp_path / "from-file.json"
    config = tmp_path / "run.cfg"
    config.write_text(f"kind = mis\ninstance = {small}\nout = {from_file}\n")
    assert main(["pipeline", "--config", str(config), "--timings", "zero"]) == 0
    assert json.loads(from_file.read_text())["initial_size"] == 8
    from_flags = tmp_path / "from-flags.json"
    args = ["--instance", str(large), "--out", str(from_flags)]
    assert main(["pipeline", "--config", str(config), "--timings", "zero", *args]) == 0
    assert json.loads(from_flags.read_text())["initial_size"] == 16
    from_file.unlink()
    assert main(["build-qubo", "--config", str(config)]) == 0
    assert model_from_json(from_file.read_text()).n_vars == 8
    assert main(["build-qubo", "--config", str(config), *args]) == 0
    assert model_from_json(from_flags.read_text()).n_vars == 16


@pytest.mark.parametrize("flag", ["--kind", "--instance"])
def test_bench_rejects_a_kind_or_instance_because_each_row_sets_its_own(
    triangle_file, tmp_path, capsys, flag
):
    out = tmp_path / "bench.csv"
    value = "mis" if flag == "--kind" else str(triangle_file)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--instances", f"mis:{triangle_file}", flag, value, "--out", str(out)])
    assert excinfo.value.code == 2
    assert f"{flag} is not a bench option" in capsys.readouterr().err
    assert not out.exists()


def test_verify_accepts_and_rejects_solutions(triangle_file, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"instance": "triangle", "bits": [1, 0, 0]}))
    assert (
        main(["verify", "--kind", "mis", "--instance", str(triangle_file), "--solution", str(good)])
        == 0
    )
    assert "feasible" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instance": "triangle", "bits": [1, 1, 0]}))
    assert (
        main(["verify", "--kind", "mis", "--instance", str(triangle_file), "--solution", str(bad)])
        == 1
    )
    assert "both endpoints selected" in capsys.readouterr().out


def test_repair_round_trips_through_verify(triangle_file, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"instance": "triangle", "bits": [1, 1, 1]}))
    fixed = tmp_path / "fixed.json"
    code = main(
        [
            "repair",
            "--kind",
            "mis",
            "--instance",
            str(triangle_file),
            "--solution",
            str(broken),
            "--out",
            str(fixed),
        ]
    )
    assert code == 0
    doc = json.loads(fixed.read_text())
    assert sum(doc["bits"]) >= 1
    assert (
        main(["verify", "--kind", "mis", "--instance", str(triangle_file), "--solution", str(fixed)])
        == 0
    )


def test_malformed_solution_json_exits_two(triangle_file, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"instance": "triangle"}))
    code = main(
        ["verify", "--kind", "mis", "--instance", str(triangle_file), "--solution", str(broken)]
    )
    assert code == 2
    assert "shrinkcut:" in capsys.readouterr().err


def test_parse_errors_exit_two(tmp_path, capsys):
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("3 1\n")
    code = main(["build-qubo", "--kind", "mdkp", "--instance", str(mangled)])
    assert code == 2
    assert "shrinkcut:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("mis", "3 99 x\n1 2\n", "bad vertex count line '3 99 x'"),
        ("mdkp", "0 1000000000000000000000 0\n", "capacity 0 of 1000000000000000000000"),
    ],
)
def test_a_malformed_instance_header_exits_two(tmp_path, capsys, kind, text, message):
    path = tmp_path / "header.txt"
    path.write_text(text)
    assert main(["build-qubo", "--kind", kind, "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_build_qubo_with_slack_on_an_infinite_capacity_exits_two(tmp_path, capsys):
    path = tmp_path / "inf.txt"
    path.write_text("2 1 0\n5 7\n2 3\ninf\n")
    code = main(["build-qubo", "--kind", "mdkp", "--instance", str(path), "--use-slack"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capacities must be finite" in captured.err


def test_pipeline_on_an_overflowing_mdkp_header_optimum_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("3 1 1e400\n5 7 4\n2 3 4\n5\n")
    assert main(["pipeline", "--kind", "mdkp", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "known optimum must be finite" in captured.err


def test_pipeline_on_a_non_finite_optima_sidecar_value_exits_two(tmp_path, capsys):
    (tmp_path / "triangle.txt").write_text(TRIANGLE_TEXT)
    (tmp_path / "optima.txt").write_text("triangle inf\n")
    args = ["pipeline", "--kind", "mis", "--instance", str(tmp_path / "triangle.txt")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value must be finite" in captured.err


def run_main(args: list[str]) -> tuple[int, str]:
    """``main``'s exit code and standard error; an exception it lets through propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str, accepted: bool) -> None:
    assert code in ((0, 1, 2) if accepted else (2,))
    if code == 2:  # one line naming the problem, no traceback
        assert err.startswith("shrinkcut: ") and err.count("\n") == 1


DOCUMENTS = {kind: valid_json_documents(kind) for kind in sorted(INSTANCE_TEXTS)}


@settings(max_examples=120, deadline=None)
@given(malformed_instance_texts())
def test_cli_exits_2_without_a_traceback_on_an_edited_instance(case):
    kind, text = case
    try:
        PARSERS[kind](text)
        accepted = True
    except ValueError:
        accepted = False
    solution = DOCUMENTS[kind]["solution"]
    with tempfile.TemporaryDirectory() as tmp:
        instance, bits = Path(tmp) / "instance.txt", Path(tmp) / "solution.json"
        instance.write_text(text)
        bits.write_text(json.dumps(solution))
        args = ["verify", "--kind", kind, "--instance", str(instance), "--solution", str(bits)]
        assert_clean_exit(*run_main(args), accepted)


JSON_READERS = {"model": model_from_json, "graph": graph_from_json}
JSON_WRITERS = {"model": model_to_json, "graph": graph_to_json}


@pytest.mark.parametrize("document", ["solution", "model", "graph"])
@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_cli_exits_2_without_a_traceback_on_an_edited_json_document(document, kind, data):
    text = data.draw(malformed_json_texts(DOCUMENTS[kind][document]))
    accepted = True
    if document in JSON_READERS:  # the API raises ValueError or returns what its writer reproduces
        read, write = JSON_READERS[document], JSON_WRITERS[document]
        try:
            parsed = read(text)
        except ValueError:
            accepted = False
        else:
            assert write(read(write(parsed))) == write(parsed)
    with tempfile.TemporaryDirectory() as tmp:
        path, instance = Path(tmp) / "doc.json", Path(tmp) / "instance.txt"
        path.write_text(text)
        instance.write_text(INSTANCE_TEXTS[kind])
        if document == "solution":
            commands = [
                [command, "--kind", kind, "--instance", str(instance), "--solution", str(path)]
                for command in ("verify", "repair")
            ]
        elif document == "model":
            commands = [["to-maxcut", "--model", str(path)]]
        else:
            commands = [["shrink", "--graph", str(path), "--k", "2"]]
        for args in commands:
            assert_clean_exit(*run_main(args), accepted)


@pytest.mark.parametrize(
    "bits",
    ["[1.5, 0, 0]", "[1e400, 0, 0]", f"[{10**23}, 0, 0]", "[true, 0, 0]", "[[1], 0, 0]", '"100"'],
)
def test_verify_rejects_solution_bits_that_are_not_0_1_integers(triangle_file, tmp_path, bits):
    # 1.5 used to be truncated to 1 and checked as feasible; 1e400 and 10**23 crashed
    solution = tmp_path / "solution.json"
    solution.write_text(f'{{"instance": "triangle", "bits": {bits}}}')
    code, err = run_main(
        ["verify", "--kind", "mis", "--instance", str(triangle_file), "--solution", str(solution)]
    )
    assert code == 2
    assert "bits must be a list of 0/1 integers" in err


@pytest.mark.parametrize(
    "args, doc, message",
    [
        (
            ["shrink", "--k", "1", "--graph"],
            {"n_nodes": 2**62, "edges": [], "offset": 0.0, "var_map": []},
            "var_map must be",
        ),
        (
            ["to-maxcut", "--model"],
            {"n_vars": 2**62, "linear": [], "quadratic": [], "offset": 0.0, "semantics": []},
            "0 linear terms for n_vars = 4611686018427387904",
        ),
    ],
)
def test_a_huge_node_or_variable_count_is_rejected_before_allocating(tmp_path, args, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = run_main(args + [str(path)])
    assert code == 2
    assert message in err
