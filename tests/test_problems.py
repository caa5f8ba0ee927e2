"""The per-kind problem records: lookup by instance type, kind names, and the kind check."""

from dataclasses import replace

import pytest

import shrinkcut.pipeline as pipeline
from shrinkcut import (
    KINDS,
    PipelineConfig,
    PipelineError,
    build_model,
    load_instance,
    local_search,
    run_pipeline,
)
from shrinkcut.cli import main
from shrinkcut.pipeline import PROBLEMS, problem_of
from tests.conftest import DATA_DIR


def bundled(kind: str) -> list:
    return sorted(path for path in (DATA_DIR / kind).glob("*.txt") if path.name != "optima.txt")


def test_kinds_are_the_record_names_in_cli_order(capsys):
    assert KINDS == ("mdkp", "mis", "qap")
    assert tuple(problem.kind for problem in PROBLEMS.values()) == KINDS
    with pytest.raises(SystemExit):
        main(["build-qubo", "--kind", "knapsack", "--instance", "unused.txt"])
    choices = capsys.readouterr().err.split("choose from", 1)[1]
    positions = [choices.index(kind) for kind in KINDS]
    assert positions == sorted(positions)


@pytest.mark.parametrize("kind", ["mdkp", "mis", "qap"])
def test_every_bundled_instance_loads_through_the_record_of_its_directory(kind):
    assert bundled(kind)
    for path in bundled(kind):
        assert problem_of(load_instance(kind, path)).kind == kind


def test_build_model_and_local_search_reject_unknown_instance_types():
    with pytest.raises(TypeError, match="unsupported instance type"):
        build_model(object(), PipelineConfig(kind="mis"))
    with pytest.raises(TypeError, match="unsupported instance type"):
        local_search(object(), (0,))


@pytest.mark.parametrize("kind", ["mdkp", "qap"])
def test_a_config_kind_that_is_not_the_instance_kind_fails_at_the_qubo_stage(kind):
    inst = load_instance("mis", DATA_DIR / "mis" / "1tc.8.txt")
    config = PipelineConfig(kind=kind, stop_mode="k", k=5, timings="zero")
    with pytest.raises(ValueError, match=f"'{kind}'.*'mis'"):
        build_model(inst, config)
    with pytest.raises(PipelineError, match=f"'{kind}'.*'mis'") as failure:
        run_pipeline(config, inst=inst)
    assert failure.value.stage == "qubo"
    report = run_pipeline(replace(config, kind="mis"), inst=inst)
    assert report.gap_pct is None
    assert report.rsq_pct == 100.0


def test_records_reach_builders_and_scorers_through_the_pipeline_module(monkeypatch):
    # perfbench's tracer wraps these names on shrinkcut.pipeline; a record that
    # held the functions themselves would bypass the wrappers
    calls = []

    def spy(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)

    for name in ("build_mdkp_qubo", "build_mis_qubo", "build_qap_qubo", "make_penalty"):
        spy(name)
    for kind in KINDS:
        inst = load_instance(kind, bundled(kind)[0])
        pipeline.shrink_penalty(inst, build_model(inst, PipelineConfig(kind=kind)))
    assert calls == [
        "build_mdkp_qubo", "make_penalty",
        "build_mis_qubo", "make_penalty",
        "build_qap_qubo", "make_penalty",
    ]
