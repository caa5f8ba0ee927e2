"""The per-kind problem records: lookup by type, kind names, the kind check, the variable layout."""

from dataclasses import replace

import numpy as np
import pytest

import shrinkcut.pipeline as pipeline
from shrinkcut import (
    KINDS,
    PipelineConfig,
    PipelineError,
    build_model,
    decode_solution,
    load_instance,
    local_search,
    penalty_summaries,
    run_pipeline,
)
from shrinkcut.cli import main
from shrinkcut.pipeline import PROBLEMS, problem_of
from tests.conftest import (
    DATA_DIR,
    assert_same_summaries,
    tag_decode_solution,
    tag_penalty_summaries,
)


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


@pytest.mark.parametrize("kind", ["mdkp", "mis", "qap"])
def test_each_record_reads_the_variables_where_its_builders_tags_put_them(kind):
    """Decoding and the penalty summaries by position equal the tag-reading oracles.

    On every bundled instance (MDKP with slack off and on), for the summaries
    by node and for the all-zero, all-one and 50 random bit vectors: a
    builder that moved a variable without its record would fail here.
    """
    rng = np.random.default_rng(29)
    for path in bundled(kind):
        inst = load_instance(kind, path)
        for use_slack in (False, True) if kind == "mdkp" else (False,):
            model = build_model(inst, PipelineConfig(kind=kind, use_slack=use_slack))
            n = model.n_vars
            parts, _ = penalty_summaries(inst, n)
            want = tag_penalty_summaries(inst, dict(enumerate(model.semantics, 1)))
            assert_same_summaries(inst, parts, want)
            assert_same_summaries(inst, pipeline.shrink_penalty(inst, model)[1][0], want)
            samples = [np.zeros(n, dtype=int), np.ones(n, dtype=int), *rng.integers(0, 2, (50, n))]
            for bits in samples:
                assert np.array_equal(
                    decode_solution(inst, model, bits), tag_decode_solution(model, bits)
                )
