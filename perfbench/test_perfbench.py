"""Fast self-tests of the benchmark: inputs, metric names, tracer restore, smoke runs."""

from __future__ import annotations

import json

import pytest

import harness
import tracing
from shrinkcut import serialize_mdkp, serialize_mis_edgelist
from workloads import DISTINCT_SEEDS, WORKLOADS, op_config, op_seed

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _names_and_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _serialized(inst) -> str:
    return serialize_mdkp(inst) if hasattr(inst, "capacities") else serialize_mis_edgelist(inst)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_for_a_seed(name):
    workload = WORKLOADS[name]
    assert _serialized(workload.load()) == _serialized(workload.load())
    assert [op_config(workload, 7, i) for i in range(3)] == [
        op_config(workload, 7, i) for i in range(3)
    ]
    seeds = {op_seed(s, i) for s in (7, 8) for i in range(DISTINCT_SEEDS)}
    assert len(seeds) == 2 * DISTINCT_SEEDS
    assert op_seed(7, DISTINCT_SEEDS + 1) == op_seed(7, 1)


def test_benchmark_json_lists_the_workloads_and_metrics_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _names_and_units("end_to_end") == {n: u for n, u, _ in harness.END_TO_END}
    assert _names_and_units("per_layer") == {n: u for n, u, _ in tracing.PER_LAYER}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert better == {n: b for n, _, b in harness.END_TO_END + tracing.PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_smoke_run_has_no_errors_and_prints_the_benchmark_metrics(name):
    workload = WORKLOADS[name]
    inst = harness.set_up(workload)
    timed = harness.timed_run(workload, inst, seed=3, seconds=0, min_ops=1)
    setup = [{"wall_s": 1.0, "ref_s": harness.reference_seconds()}]
    values, _ = harness.end_to_end(timed, setup, quality_ops=1)
    assert values["error_rate"] == 0
    units = {n: u for n, u, _ in harness.END_TO_END}
    line = harness.result_line(timed["ops"], values, units)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _names_and_units("end_to_end")


def _wrapped_targets() -> list[tuple[object, str, object]]:
    with tracing.Tracer() as tracer:
        return list(tracer.patched)


@pytest.mark.parametrize("name", ["mis-shrink", "mis-spectral"])
def test_traced_run_restores_every_wrapped_function(name):
    targets = _wrapped_targets()
    assert len(targets) > 20
    assert all(owner.__dict__[attr] is original for owner, attr, original in targets)

    workload = WORKLOADS[name]
    inst = harness.set_up(workload)
    traced = harness.traced_run(workload, inst, seed=3, seconds=0, min_ops=1)

    assert all(owner.__dict__[attr] is original for owner, attr, original in targets)
    assert not any(r["problems"] for r in traced["ops"])
    layers = traced["layers"]
    assert set(layers) == set(_names_and_units("per_layer"))
    if name == "mis-spectral":
        assert layers["shrink.pairs_scored"] == 0 and layers["sdp.solves"] == 0
        assert layers["spectral.keep_all_rate"] == 1
    else:
        assert layers["shrink.pairs_scored"] > 0 and layers["sdp.solves"] > 0
        assert layers["feasibility.penalty_calls"] == layers["shrink.pairs_scored"]
