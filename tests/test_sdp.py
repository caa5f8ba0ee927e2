"""Low-rank Max-Cut relaxation: objective bound, convergence, determinism."""

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    PipelineConfig,
    build_model,
    default_rank,
    extract_correlations,
    qubo_to_maxcut,
    sdp_objective,
    solve_maxcut_sdp,
)
from shrinkcut.pipeline import load_instance
from shrinkcut.sdp import class_sweep_order, colour_classes
from tests.conftest import (
    DATA_DIR,
    assert_same_embedding,
    brute_maxcut_value,
    maxcut_graph,
    random_graph,
    transposition_conflict_graph,
)


def triangle_graph() -> MaxCutGraph:
    return maxcut_graph(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})


def test_triangle_relaxation_reaches_nine_quarters():
    # best cut of the unit triangle is 2; the relaxation attains 9/4
    vecs = solve_maxcut_sdp(triangle_graph(), seed=3)
    X = extract_correlations(vecs)
    assert sdp_objective(triangle_graph(), X) == pytest.approx(2.25, abs=1e-3)


def test_single_edge_embedding_anti_aligns():
    graph = maxcut_graph(2, {(0, 1): 4.0})
    X = extract_correlations(solve_maxcut_sdp(graph, seed=0))
    assert X[0, 1] == pytest.approx(-1.0, abs=1e-6)
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
    assert np.array_equal(X, X.T)
    assert np.all(X <= 1.0)
    assert np.all(X >= -1.0)
    assert np.allclose(np.diag(X), 1.0)


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
    graph = maxcut_graph(3, {(0, 1): 1.0})
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
    graph = maxcut_graph(n_nodes, {})
    vecs = solve_maxcut_sdp(graph, seed=4)
    initial = np.random.default_rng(4).standard_normal((n_nodes, default_rank(n_nodes)))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    assert vecs.sweeps_used == 1
    assert vecs.objective_history == (0.0,)
    assert np.array_equal(vecs.vectors, initial)


def test_a_node_whose_neighbour_sum_vanishes_keeps_its_initial_vector():
    # node 2's gradient is 1e-20 * v1, below the 1e-12 floor: it must not move
    graph = maxcut_graph(3, {(0, 1): 1.0, (1, 2): 1e-20})
    vecs = solve_maxcut_sdp(graph, seed=0)
    initial = np.random.default_rng(0).standard_normal((3, default_rank(3)))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    assert np.array_equal(vecs.vectors[2], initial[2])
    assert not np.array_equal(vecs.vectors[0], initial[0])


@pytest.mark.parametrize("tol",[np.nan, np.inf, -np.inf, -1e-10, True, "1e-10", None])
def test_solver_rejects_a_tolerance_that_is_not_a_finite_positive_number(tol):
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        solve_maxcut_sdp(triangle_graph(), tol=tol)


@pytest.mark.parametrize("name", ["rank", "max_sweeps"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_solver_rejects_a_rank_or_sweep_cap_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        solve_maxcut_sdp(triangle_graph(), **{name: value})
    numpy_count = solve_maxcut_sdp(triangle_graph(), **{name: np.int64(3)}, seed=1)
    plain = solve_maxcut_sdp(triangle_graph(), **{name: 3}, seed=1)
    assert np.array_equal(numpy_count.vectors, plain.vectors)


def test_the_ascent_stops_at_the_first_sweep_that_adds_at_most_tol_times_the_objective():
    rng = np.random.default_rng(53)
    for trial in range(20):
        graph = random_graph(rng, int(rng.integers(3, 13)))
        for tol in (1e-3, 1e-10):
            history = np.array(solve_maxcut_sdp(graph, tol=tol, seed=trial).objective_history)
            stop = np.diff(history) <= tol * np.abs(history[1:])
            assert not stop[:-1].any()
            assert stop.size == 0 or stop[-1]


def unit_rows(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    rows = rng.standard_normal((n, rank))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_a_warm_start_equals_the_loop_oracle_in_its_visit_order():
    rng = np.random.default_rng(59)
    paths = set()
    for trial in range(20):
        n = int(rng.integers(1, 12))
        graph = random_graph(rng, n, density=float(rng.uniform(0.2, 1.0)))
        paths.add(class_sweep_order(graph.weights) is None)
        rank = int(rng.integers(2, 7))
        # a partly converged embedding, and one that starts anywhere
        partial = solve_maxcut_sdp(graph, rank=rank, max_sweeps=2, seed=trial).vectors
        for initial in (partial, unit_rows(rng, n, rank)):
            options = dict(tol=float(rng.choice([1e-12, 1e-6, 1e-3])), max_sweeps=40)
            got = assert_same_embedding(graph, initial=initial, **options)
            assert got.vectors.shape[1] == rank
            # the seed is not read, and an explicit rank that agrees changes nothing
            again = solve_maxcut_sdp(graph, rank=rank, seed=trial + 1, initial=initial, **options)
            assert np.array_equal(again.vectors, got.vectors)
    assert paths == {True, False}  # both the node loop and class sweeps ran


def test_a_converged_embedding_passed_back_in_stops_within_two_sweeps():
    rng = np.random.default_rng(61)
    for trial in range(10):
        graph = random_graph(rng, int(rng.integers(3, 13)))
        converged = solve_maxcut_sdp(graph, seed=trial)
        warm = solve_maxcut_sdp(graph, initial=converged.vectors)
        assert warm.sweeps_used <= 2
        # the starting objective is the converged solve's last entry; coordinate
        # updates at a fixed point may move it by rounding only
        start = converged.objective_history[-1]
        assert min(warm.objective_history) >= start - 1e-12 * abs(start)


def test_an_initial_embedding_on_a_graph_without_edges_is_returned_as_given():
    initial = unit_rows(np.random.default_rng(5), 3, 4)
    vecs = solve_maxcut_sdp(maxcut_graph(3, {}), initial=initial)
    assert vecs.sweeps_used == 1
    assert np.array_equal(vecs.vectors, initial)


def test_the_callers_initial_embedding_is_never_written():
    graph = random_graph(np.random.default_rng(6), 8)
    initial = unit_rows(np.random.default_rng(7), 8, 5)
    before = initial.copy()
    vecs = solve_maxcut_sdp(graph, initial=initial)
    assert np.array_equal(initial, before)
    assert not np.shares_memory(vecs.vectors, initial)
    assert not np.array_equal(vecs.vectors, initial)


def _bad_initial(case: str):
    good = unit_rows(np.random.default_rng(8), 3, 4)
    if case == "extra row":
        return good.tolist() + [[1.0, 0.0, 0.0, 0.0]], None
    if case == "one dimension":
        return good[0], None
    if case == "non-unit row":
        good[1] *= 1.0 + 1e-6
    elif case == "nan":
        good[2, 0] = np.nan
    elif case == "infinite":
        good[0, 3] = np.inf
    return good, 5 if case == "rank disagrees" else None


@pytest.mark.parametrize(
    "case, message",
    [
        ("extra row", r"one row per node \(3\), got shape \(4, 4\)"),
        ("one dimension", r"one row per node \(3\), got shape \(4,\)"),
        ("non-unit row", "rows must be unit vectors"),
        ("nan", "must be finite"),
        ("infinite", "must be finite"),
        ("rank disagrees", r"rank 5 != the initial embedding's rank 4"),
    ],
)
def test_a_bad_initial_embedding_is_rejected(case, message):
    initial, rank = _bad_initial(case)
    with pytest.raises(ValueError, match=message):
        solve_maxcut_sdp(triangle_graph(), rank=rank, initial=initial)


def test_colour_classes_are_independent_sets_coloured_greedily_in_ascending_order():
    rng = np.random.default_rng(67)
    picks = set()
    for trial in range(60):
        n = int(rng.integers(0, 16))
        graph = random_graph(rng, n, density=float(rng.uniform(0.05, 1.0)))
        W = graph.weights
        classes = colour_classes(W)
        colour = {int(v): k for k, members in enumerate(classes) for v in members}
        # every node with an edge, and no other, in exactly one class
        assert sorted(colour) == np.flatnonzero(W.any(axis=1)).tolist()
        assert sum(len(members) for members in classes) == len(colour)
        for k, members in enumerate(classes):
            assert members.size and np.all(np.diff(members) > 0)
            assert not W[np.ix_(members, members)].any()
            # each node took the smallest colour its lower neighbours left free
            for v in members.tolist():
                lower = {colour[u] for u in np.flatnonzero(W[v]).tolist() if u < v}
                assert set(range(k)) <= lower
        active = len(colour)
        picked = class_sweep_order(W)
        picks.add(picked is None)
        if classes and active >= 3 * len(classes):
            assert picked is not None
            assert [c.tolist() for c in picked] == [c.tolist() for c in classes]
        else:
            assert picked is None
    assert picks == {True, False}


def _bundled_graph(kind: str, name: str, **options) -> MaxCutGraph:
    inst = load_instance(kind, DATA_DIR / kind / f"{name}.txt")
    return qubo_to_maxcut(build_model(inst, PipelineConfig(kind=kind, **options)))


def _tc_graph(bits: int) -> MaxCutGraph:
    inst = transposition_conflict_graph(bits)
    return qubo_to_maxcut(build_model(inst, PipelineConfig(kind="mis")))


@pytest.mark.parametrize(
    "build, nodes, colours, class_sweeps",
    [
        (lambda: _bundled_graph("mdkp", "synth24x4", use_slack=True), 61, 34, False),  # 1.79
        (lambda: _bundled_graph("mdkp", "synth24x4"), 25, 25, False),
        (lambda: _bundled_graph("mdkp", "example3x1"), 4, 4, False),
        (lambda: _bundled_graph("qap", "rand6"), 37, 25, False),  # 1.48
        (lambda: _bundled_graph("qap", "pair2"), 5, 5, False),
        (lambda: _tc_graph(3), 9, 4, False),  # 1tc.8: 2.25
        (lambda: _tc_graph(4), 17, 5, True),  # 1tc.16: 3.40
        (lambda: _tc_graph(6), 65, 7, True),  # 1tc.64: 9.29
        (lambda: _tc_graph(9), 513, 12, True),  # 1tc.512: 42.75
    ],
    ids=[
        "synth24x4-slack", "synth24x4", "example3x1", "rand6", "pair2",
        "1tc.8", "1tc.16", "1tc.64", "1tc.512",
    ],
)
def test_the_density_rule_sweeps_by_classes_only_from_three_nodes_per_colour(
    build, nodes, colours, class_sweeps
):
    W = build().weights
    classes = colour_classes(W)
    active = sum(len(members) for members in classes)
    assert (len(W), active, len(classes)) == (nodes, nodes, colours)
    assert (class_sweep_order(W) is not None) == class_sweeps
