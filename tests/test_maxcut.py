"""QUBO <-> Max-Cut reduction, spin transforms, and edge provenance."""

import json

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    binary_to_spins,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    classify_edges,
    cut_value,
    evaluate_qubo,
    graph_from_json,
    graph_to_json,
    graph_to_qubo,
    qubo_to_maxcut,
    spins_to_binary,
)
from tests.conftest import (
    every_bitstring,
    maxcut_graph,
    naive_cut_value,
    qubo_model,
    random_graph,
    random_qubo,
)


def test_mdkp_worked_example_graph_weights(mdkp_tiny):
    graph = qubo_to_maxcut(build_mdkp_qubo(mdkp_tiny, P=70.0))
    assert graph.n_nodes == 4
    assert graph.offset == 1750.0
    assert graph.edges == {
        (0, 1): 145.0,
        (0, 2): 217.0,
        (0, 3): 284.0,
        (1, 2): 420.0,
        (1, 3): 560.0,
        (2, 3): 840.0,
    }
    # node v+1 is variable v
    assert spins_to_binary(graph, (1, -1, 1, -1)).tolist() == [1, 0, 1]


def test_energy_equals_offset_minus_cut_exhaustively():
    rng = np.random.default_rng(23)
    for _ in range(25):
        model = random_qubo(rng, int(rng.integers(1, 7)))
        graph = qubo_to_maxcut(model)
        for x in every_bitstring(model.n_vars):
            spins = binary_to_spins(graph, x)
            expected = graph.offset - naive_cut_value(graph, spins)
            assert evaluate_qubo(model, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_zero_weight_edges_are_dropped():
    # lin[0] = -1 and quad (0,1) = 2 make the reference edge to node 1 vanish
    model = qubo_model({(0, 1): 2.0}, (-1.0, 0.0))
    graph = qubo_to_maxcut(model)
    assert (0, 1) not in graph.edges
    assert graph.edges == {(0, 2): -1.0, (1, 2): 1.0}


def test_graph_to_qubo_inverts_the_reduction(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    graph = qubo_to_maxcut(model)
    again = graph_to_qubo(graph, semantics=model.semantics)
    assert again.quad == model.quad
    assert again.lin.tolist() == model.lin.tolist()
    assert again.offset == model.offset


def test_round_trip_starting_from_a_graph():
    rng = np.random.default_rng(5)
    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(2, 7)))
        again = qubo_to_maxcut(graph_to_qubo(graph))
        assert again.edges == graph.edges
        assert again.offset == graph.offset


def test_cut_value_hand_example():
    graph = maxcut_graph(3, {(0, 1): 2.0, (0, 2): -1.0, (1, 2): 4.0})
    # partition {0} vs {1, 2} cuts edges (0,1) and (0,2)
    assert cut_value(graph, (1, -1, -1)) == 1.0
    assert cut_value(graph, (1, 1, 1)) == 0.0
    assert cut_value(graph, (1, 1, -1)) == 3.0


def test_cut_value_rejects_bad_spins():
    graph = maxcut_graph(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="\\+1 or -1"):
        cut_value(graph, (1, 0))
    with pytest.raises(ValueError, match="shape"):
        cut_value(graph, (1, 1, 1))


def test_spin_transforms_are_gauge_invariant_inverses():
    rng = np.random.default_rng(17)
    model = random_qubo(rng, 5)
    graph = qubo_to_maxcut(model)
    for x in every_bitstring(5):
        spins = binary_to_spins(graph, x)
        assert spins[0] == 1
        assert tuple(spins_to_binary(graph, spins)) == x
        # flipping every spin names the same partition, hence the same bits
        assert tuple(spins_to_binary(graph, -spins)) == x


def test_graph_validation_rejects_bad_edges_and_var_map():
    with pytest.raises(ValueError, match="square"):
        MaxCutGraph(np.zeros((2, 3)), offset=0.0)
    with pytest.raises(ValueError, match="symmetric with a zero diagonal"):
        MaxCutGraph([[0.0, 1.0], [0.0, 0.0]], offset=0.0)
    with pytest.raises(ValueError, match="symmetric with a zero diagonal"):
        MaxCutGraph([[1.0, 0.0], [0.0, 0.0]], offset=0.0)

    def from_edges(edges: str, n_nodes: int = 2) -> MaxCutGraph:
        var_map = list(range(n_nodes - 1))
        return graph_from_json(
            f'{{"n_nodes": {n_nodes}, "edges": {edges}, "offset": 0.0, "var_map": {var_map}}}'
        )

    with pytest.raises(ValueError, match="ordered pair"):
        from_edges("[[1, 0, 1.0]]")
    with pytest.raises(ValueError, match="ordered pair"):
        from_edges("[[0, 2, 1.0]]")
    with pytest.raises(ValueError, match=r"stores a zero or non-finite weight 0\.0"):
        from_edges("[[0, 1, 0.0]]")
    for var_map in ("[1]", "[null]", "[0, 1]", "{}"):
        with pytest.raises(ValueError, match="var_map must be \\[0, ..., 0\\]"):
            graph_from_json(
                f'{{"n_nodes": 2, "edges": [[0, 1, 1.0]], "offset": 0.0, "var_map": {var_map}}}'
            )
    for weight in ("NaN", "Infinity", "-Infinity"):
        message = r"edge \(0, 2\) stores a zero or non-finite weight -?(nan|inf)"
        with pytest.raises(ValueError, match=message):
            from_edges(f"[[0, 1, 1.0], [0, 2, {weight}]]", n_nodes=3)
    nan, inf = float("nan"), float("inf")
    for weight in (nan, inf, -inf):
        with pytest.raises(ValueError, match="weights and offset must be finite"):
            MaxCutGraph([[0.0, weight], [weight, 0.0]], offset=0.0)
    for offset in (nan, inf, -inf):
        with pytest.raises(ValueError, match="weights and offset must be finite"):
            maxcut_graph(2, {(0, 1): 1.0}, offset=offset)


def test_graph_json_rejects_repeated_and_non_integral_keys():
    def document(n_nodes, edges: str) -> str:
        return f'{{"n_nodes": {n_nodes}, "edges": {edges}, "offset": 0.0, "var_map": [0, 1]}}'

    with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed twice"):
        graph_from_json(document(3, "[[0, 1, 1.0], [0, 1, 5.0], [1, 2, 2.0]]"))
    for edges in ("[[0, 1.7, 1.0]]", "[[0.0, 1, 1.0]]", "[[false, 1, 1.0]]", "[[-1, 1, 1.0]]"):
        with pytest.raises(ValueError, match="edge index must be a non-negative integer"):
            graph_from_json(document(3, edges))
    for n_nodes in ("2.9", "3.0", "true", "-1"):
        with pytest.raises(ValueError, match="n_nodes must be a non-negative integer"):
            graph_from_json(document(n_nodes, "[[0, 1, 1.0]]"))


def test_stored_weights_are_symmetric_read_only_copies_with_positive_zeros():
    source = np.array([[0.0, -0.0, 2.0], [-0.0, 0.0, 0.0], [2.0, 0.0, -0.0]])
    graph = MaxCutGraph(source, offset=0.0)
    source[0, 2] = source[2, 0] = 5.0
    assert graph.weights.tolist() == [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    assert not np.signbit(graph.weights).any()
    assert graph.n_nodes == 3
    with pytest.raises(ValueError, match="read-only"):
        graph.weights[0, 1] = 1.0
    assert graph.edges == {(0, 2): 2.0}
    assert graph.edges is graph.edges  # derived once
    with pytest.raises(TypeError):
        graph.edges[(0, 1)] = 1.0


def test_classify_edges_qap_pair_and_dominance(qap_pair):
    full = qubo_to_maxcut(build_qap_qubo(qap_pair, P=100.0))
    objective_model = qubo_model(
        {(0, 3): 20.0, (1, 2): 20.0},
        (0.0, 0.0, 0.0, 0.0),
        semantics=tuple(("assign", i, j) for i in range(2) for j in range(2)),
    )
    tags = classify_edges(full, qubo_to_maxcut(objective_model))
    objective = {k for k, t in tags.items() if t == "objective"}
    constraint = {k for k, t in tags.items() if t == "constraint"}
    # the one-hot penalty cancels out of reference edges when groups have size 2
    assert objective == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)}
    assert constraint == {(1, 2), (1, 3), (2, 4), (3, 4)}
    smallest_constraint = min(abs(full.edges[k]) for k in constraint)
    largest_objective = max(abs(full.edges[k]) for k in objective)
    assert smallest_constraint > largest_objective


def test_classify_edges_mis_triangle_all_constraint(mis_triangle):
    full = qubo_to_maxcut(build_mis_qubo(mis_triangle, P=2.0))
    objective_model = qubo_model(
        {}, (-1.0, -1.0, -1.0), semantics=tuple(("vertex", v) for v in range(3))
    )
    tags = classify_edges(full, qubo_to_maxcut(objective_model))
    assert set(tags.values()) == {"constraint"}


def test_graph_json_round_trips_exactly(mdkp_tiny):
    graph = qubo_to_maxcut(build_mdkp_qubo(mdkp_tiny, P=70.0))
    text = graph_to_json(graph)
    again = graph_from_json(text)
    assert graph_to_json(again) == text
    assert again.weights.tobytes() == graph.weights.tobytes()


def test_graph_json_keeps_unmapped_nodes_unmapped():
    # node 2 has no edge, yet it still stands for variable 1
    graph = maxcut_graph(3, {(0, 1): 1.0}, offset=2.0)
    text = graph_to_json(graph)
    assert json.loads(text)["var_map"] == [0, 1]
    assert graph_to_json(graph_from_json(text)) == text
