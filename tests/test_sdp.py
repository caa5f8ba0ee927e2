"""Low-rank Max-Cut relaxation: objective bound, convergence, determinism."""

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    default_rank,
    extract_correlations,
    sdp_objective,
    solve_maxcut_sdp,
)
from tests.conftest import brute_maxcut_value, random_graph


def triangle_graph() -> MaxCutGraph:
    return MaxCutGraph(
        n_nodes=3,
        edges={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        offset=0.0,
        var_map={1: 0, 2: 1},
    )


def test_triangle_relaxation_reaches_nine_quarters():
    # best cut of the unit triangle is 2; the relaxation attains 9/4
    vecs = solve_maxcut_sdp(triangle_graph(), seed=3)
    X = extract_correlations(vecs)
    assert sdp_objective(triangle_graph(), X) == pytest.approx(2.25, abs=1e-3)


def test_single_edge_embedding_anti_aligns():
    graph = MaxCutGraph(n_nodes=2, edges={(0, 1): 4.0}, offset=0.0, var_map={1: 0})
    X = extract_correlations(solve_maxcut_sdp(graph, seed=0))
    assert X.entries[0, 1] == pytest.approx(-1.0, abs=1e-6)
    assert sdp_objective(graph, X) == pytest.approx(4.0, abs=1e-6)


def test_objective_history_is_monotone_and_converged():
    rng = np.random.default_rng(31)
    for trial in range(10):
        graph = random_graph(rng, int(rng.integers(3, 9)))
        vecs = solve_maxcut_sdp(graph, seed=trial)
        history = np.array(vecs.objective_history)
        assert len(history) == vecs.sweeps_used
        assert np.all(np.diff(history) >= -1e-9)
        assert vecs.sweeps_used < 1000  # converged well before the cap


def test_relaxation_upper_bounds_the_exact_cut():
    rng = np.random.default_rng(47)
    for trial in range(10):
        graph = random_graph(rng, int(rng.integers(2, 8)))
        X = extract_correlations(solve_maxcut_sdp(graph, seed=trial))
        assert sdp_objective(graph, X) >= brute_maxcut_value(graph) - 1e-6


def test_embedding_rows_stay_unit_length():
    graph = random_graph(np.random.default_rng(1), 7)
    vecs = solve_maxcut_sdp(graph, seed=5)
    norms = np.linalg.norm(vecs.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_correlations_are_clamped_with_unit_diagonal():
    graph = random_graph(np.random.default_rng(2), 8)
    X = extract_correlations(solve_maxcut_sdp(graph, seed=9))
    assert np.array_equal(X.entries, X.entries.T)
    assert np.all(X.entries <= 1.0)
    assert np.all(X.entries >= -1.0)
    assert np.allclose(np.diag(X.entries), 1.0)


def test_same_seed_reproduces_the_embedding_bit_for_bit():
    graph = random_graph(np.random.default_rng(3), 6)
    a = solve_maxcut_sdp(graph, seed=42)
    b = solve_maxcut_sdp(graph, seed=42)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.objective_history == b.objective_history


def test_different_seeds_start_from_different_embeddings():
    graph = random_graph(np.random.default_rng(4), 6)
    a = solve_maxcut_sdp(graph, seed=0, max_sweeps=1)
    b = solve_maxcut_sdp(graph, seed=1, max_sweeps=1)
    assert not np.array_equal(a.vectors, b.vectors)


def test_default_rank_grows_like_sqrt_of_two_n():
    assert default_rank(1) == 3
    assert default_rank(8) == 5
    assert default_rank(50) == 11
    assert all(default_rank(n) >= 2 for n in range(1, 30))


def test_isolated_nodes_keep_their_initial_direction():
    graph = MaxCutGraph(n_nodes=3, edges={(0, 1): 1.0}, offset=0.0, var_map={1: 0, 2: 1})
    vecs = solve_maxcut_sdp(graph, seed=6)
    # node 2 has no neighbors, so its vector must survive with unit norm
    assert np.linalg.norm(vecs.vectors[2]) == pytest.approx(1.0, abs=1e-9)


def test_sdp_objective_accepts_raw_matrices():
    graph = triangle_graph()
    assert sdp_objective(graph, np.ones((3, 3))) == 0.0
    assert sdp_objective(graph, np.eye(3)) == 1.5
    anti = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    assert sdp_objective(graph, anti) == 3.0
    with pytest.raises(ValueError, match="graph size"):
        sdp_objective(graph, np.eye(2))


def test_solver_validates_parameters():
    graph = triangle_graph()
    with pytest.raises(ValueError, match="rank"):
        solve_maxcut_sdp(graph, rank=1)
    with pytest.raises(ValueError, match="tol"):
        solve_maxcut_sdp(graph, tol=0.0)
    with pytest.raises(ValueError, match="max_sweeps"):
        solve_maxcut_sdp(graph, max_sweeps=0)


@pytest.mark.parametrize("n_nodes", [0, 1, 3])
def test_a_graph_without_edges_stops_after_one_sweep_with_the_initial_vectors(n_nodes):
    graph = MaxCutGraph(
        n_nodes=n_nodes, edges={}, offset=0.0, var_map={v: v - 1 for v in range(1, n_nodes)}
    )
    vecs = solve_maxcut_sdp(graph, seed=4)
    initial = np.random.default_rng(4).standard_normal((n_nodes, default_rank(n_nodes)))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    assert vecs.sweeps_used == 1
    assert vecs.objective_history == (0.0,)
    assert np.array_equal(vecs.vectors, initial)


def test_a_node_whose_neighbour_sum_vanishes_keeps_its_initial_vector():
    # node 2's gradient is 1e-20 * v1, below the 1e-12 floor: it must not move
    graph = MaxCutGraph(
        n_nodes=3, edges={(0, 1): 1.0, (1, 2): 1e-20}, offset=0.0, var_map={1: 0, 2: 1}
    )
    vecs = solve_maxcut_sdp(graph, seed=0)
    initial = np.random.default_rng(0).standard_normal((3, default_rank(3)))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    assert np.array_equal(vecs.vectors[2], initial[2])
    assert not np.array_equal(vecs.vectors[0], initial[0])
