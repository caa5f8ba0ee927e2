"""Lifting reduced solutions through the signed partition, and decoding them by kind."""

import numpy as np
import pytest

from shrinkcut import (
    MergeStep,
    ShrinkConfig,
    ShrinkResult,
    ShrinkStats,
    WorkingGraph,
    binary_to_spins,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    decode_solution,
    evaluate_qubo,
    graph_to_qubo,
    lift_solution,
    qubo_to_maxcut,
    run_shrink,
    solve_exact,
)
from tests.conftest import every_bitstring, naive_replay, random_graph, random_qubo


def contracted(graph, merges) -> ShrinkResult:
    """The ShrinkResult of contracting ``graph`` by explicit (i, j, sigma) merges.

    Unlike ``run_shrink``, the merges may absorb the reference node 0, so
    node 0 can end up in any reduced node, with either sign.
    """
    working = WorkingGraph.from_graph(graph)
    for i, j, sigma in merges:
        working.contract(i, j, sigma)
    reduced, node_order = working.to_graph()
    return ShrinkResult(
        graph=reduced,
        node_order=node_order,
        steps=tuple(MergeStep(t, *merge) for t, merge in enumerate(merges, start=1)),
        label=np.searchsorted(working.ids, working.rep),
        sign=working.sign,
        target_k=reduced.n_nodes,
        stats=ShrinkStats(merges=len(merges), recalcs=0, sdp_seconds=0.0, shrink_seconds=0.0),
    )


def random_merges(rng, n, k) -> list[tuple[int, int, int]]:
    """A uniformly random signed merge order from n nodes down to k, the reference included."""
    ids, merges = list(range(n)), []
    while len(ids) > k:
        a, b = rng.choice(len(ids), size=2, replace=False)
        merges.append((ids[a], ids[b], 1 if rng.random() < 0.5 else -1))
        del ids[a]
    return merges


def test_lift_equals_the_gauge_fixed_replay_of_the_merge_log():
    """Lifting from the signed partition gives the spins of unwinding the merge log."""
    rng = np.random.default_rng(47)
    chained = reference_absorbed = False
    for trial in range(40):
        n = int(rng.integers(3, 10))
        graph = random_graph(rng, n, density=0.8)
        k = int(rng.integers(1, n))
        if trial % 2 == 0:
            result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=k, seed=trial))
            assert result.label[0] == 0 and result.sign[0] == 1  # the reference survives
        else:
            result = contracted(graph, random_merges(rng, n, k))
        survivors_so_far = set()
        for step in result.steps:
            chained = chained or step.i in survivors_so_far
            reference_absorbed = reference_absorbed or step.i == 0
            survivors_so_far.add(step.j)
        for x in every_bitstring(result.graph.n_nodes - 1):
            reduced_spins = binary_to_spins(result.graph, x).tolist()
            full = naive_replay(result.steps, dict(zip(result.node_order, reduced_spins)))
            expected = np.array([full[v] for v in range(n)])
            if expected[0] == -1:
                expected = -expected
            assert lift_solution(result, x, graph).spins.tolist() == expected.tolist()
    assert chained  # some node absorbed another before being absorbed itself
    assert reference_absorbed  # some explicit merge orders swallowed the reference node


def test_lift_without_steps_passes_bits_through():
    graph = random_graph(np.random.default_rng(8), 5)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=5))
    for x in every_bitstring(4):
        lifted = lift_solution(result, x, graph)
        assert tuple(lifted.bits) == x
        energy = evaluate_qubo(graph_to_qubo(graph), x)
        assert lifted.energy == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_lifted_energies_equal_reduced_energies_exhaustively():
    rng = np.random.default_rng(21)
    for trial in range(8):
        graph = random_graph(rng, 8, density=0.8)
        result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, seed=trial))
        reduced_model = graph_to_qubo(result.graph)
        original_model = graph_to_qubo(graph)
        for x in every_bitstring(result.graph.n_nodes - 1):
            lifted = lift_solution(result, x, graph)
            assert lifted.energy == pytest.approx(
                evaluate_qubo(reduced_model, x), rel=1e-12, abs=1e-9
            )
            assert lifted.energy == pytest.approx(
                evaluate_qubo(original_model, lifted.bits), rel=1e-12, abs=1e-9
            )


def test_lift_survives_an_absorbed_reference_node():
    rng = np.random.default_rng(33)
    graph = random_graph(rng, 7, density=0.9)
    # 0 joins 3, the reduced reference, with the opposite spin: every lift flips the gauge
    merges = [(0, 3, -1), (2, 3, 1), (1, 5, -1), (4, 6, 1), (5, 6, -1)]
    result = contracted(graph, merges)
    assert result.node_order == (3, 6)
    assert result.label[0] == 0 and result.sign[0] == -1
    original_model = graph_to_qubo(graph)
    reduced_model = graph_to_qubo(result.graph)
    for x in every_bitstring(result.graph.n_nodes - 1):
        lifted = lift_solution(result, x, graph)
        assert lifted.energy == pytest.approx(
            evaluate_qubo(reduced_model, x), rel=1e-12, abs=1e-9
        )
        assert lifted.energy == pytest.approx(
            evaluate_qubo(original_model, lifted.bits), rel=1e-12, abs=1e-9
        )


@pytest.mark.parametrize("other_size", [3, 6])
def test_lift_solution_rejects_a_graph_of_another_size(other_size):
    graph = random_graph(np.random.default_rng(9), 4)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=4))
    other = random_graph(np.random.default_rng(10), other_size)
    with pytest.raises(ValueError, match=f"covers 4 original nodes, the graph has {other_size}"):
        lift_solution(result, (0, 0, 0), other)


def test_exact_solution_of_the_reduced_knapsack_lifts_cleanly(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    graph = qubo_to_maxcut(model)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, seed=0))
    reduced_model = graph_to_qubo(result.graph)
    solution = solve_exact(reduced_model)
    lifted = lift_solution(result, solution.bits, graph)
    assert lifted.energy == pytest.approx(solution.energy, rel=1e-12)
    assert evaluate_qubo(model, lifted.bits) == pytest.approx(lifted.energy, rel=1e-12)


def test_decode_solution_mdkp_drops_slack_bits(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0, use_slack=True)
    decoded = decode_solution(mdkp_tiny, model, (1, 0, 1, 1, 0))
    assert decoded.tolist() == [1, 0, 1]


def test_decode_solution_reads_vertices(mis_triangle):
    bits = np.array([0, 1, 0])
    decoded = decode_solution(mis_triangle, build_mis_qubo(mis_triangle, P=2.0), bits)
    assert decoded.tolist() == [0, 1, 0]
    decoded[1] = 0  # a copy: the caller's bits stay as they were
    assert bits.tolist() == [0, 1, 0]


def test_decode_solution_reshapes_assignments(qap_pair):
    model = build_qap_qubo(qap_pair, P=100.0)
    decoded = decode_solution(qap_pair, model, (0, 1, 1, 0))
    assert decoded.tolist() == [[0, 1], [1, 0]]


def test_decode_solution_rejects_bad_inputs(mdkp_tiny):
    for use_slack, n_vars in ((False, 3), (True, 5)):
        model = build_mdkp_qubo(mdkp_tiny, P=70.0, use_slack=use_slack)
        for bits in ((1, 0), (1, 0, 1, 1), (1, 0, 1, 1, 0, 0)):
            message = rf"shape \({len(bits)},\), expected \({n_vars},\)"
            with pytest.raises(ValueError, match=message):
                decode_solution(mdkp_tiny, model, bits)
    with pytest.raises(TypeError, match="unsupported instance type"):
        decode_solution(object(), model, np.zeros(5))
