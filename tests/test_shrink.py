"""Correlation-guided graph contraction: selection, bookkeeping, policies."""

import re

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    MergeStep,
    ShrinkConfig,
    SuperNode,
    WorkingGraph,
    local_correlation_update,
    merge_score,
    merge_steps_from_jsonl,
    merge_steps_to_jsonl,
    run_shrink,
    select_merge,
)
from shrinkcut.shrink import _fold_correlations
from tests.conftest import maxcut_graph, random_graph


def demo_graph() -> MaxCutGraph:
    """Four nodes in a cycle-like layout with one chord."""
    return maxcut_graph(4, {(0, 1): 5.0, (0, 2): 2.0, (1, 3): 3.0, (2, 3): 4.0})


def demo_correlations() -> np.ndarray:
    return np.array(
        [
            [1.0, 0.9, 0.3, -0.2],
            [0.9, 1.0, 0.5, -0.8],
            [0.3, 0.5, 1.0, 0.7],
            [-0.2, -0.8, 0.7, 1.0],
        ]
    )


def test_contract_folds_edges_onto_the_survivor():
    working = WorkingGraph.from_graph(demo_graph())
    constant = working.contract(0, 1, 1)
    assert constant == 0.0
    assert working.offset == 0.0
    assert working.nodes() == [1, 2, 3]
    assert working.weights.tolist() == [[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]]


def test_contract_with_negative_sigma_adjusts_the_offset():
    working = WorkingGraph.from_graph(demo_graph())
    # (1 - sigma)/2 * (w(0,1) + w(0,2)) = 7 leaves the offset at -7
    constant = working.contract(0, 1, -1)
    assert constant == 7.0
    assert working.offset == -7.0
    assert working.nodes() == [1, 2, 3]
    assert working.weights[0].tolist() == [0.0, -2.0, 3.0]


def test_contract_drops_edges_that_cancel_exactly():
    graph = maxcut_graph(4, {(1, 2): 7.0, (1, 3): 2.0, (2, 3): -2.0})
    working = WorkingGraph.from_graph(graph)
    working.contract(1, 2, 1)
    assert working.weights[working.position(2), working.position(3)] == 0.0
    assert working.edge_count == 0


def test_contract_validates_arguments():
    working = WorkingGraph.from_graph(demo_graph())
    with pytest.raises(ValueError, match="not in graph"):
        working.contract(9, 1, 1)
    with pytest.raises(ValueError, match="itself"):
        working.contract(1, 1, 1)
    with pytest.raises(ValueError, match="sigma"):
        working.contract(0, 1, 0)


def test_to_graph_compacts_surviving_ids_in_ascending_order():
    working = WorkingGraph.from_graph(demo_graph())
    working.contract(1, 3, -1)
    reduced, node_order = working.to_graph()
    assert node_order == (0, 2, 3)
    assert reduced.n_nodes == 3
    # original w(0,1)=5 folded onto (0,3) with sigma=-1
    assert reduced.edges == {(0, 2): -5.0, (0, 1): 2.0, (1, 2): 4.0}


def test_effective_correlation_averages_sign_adjusted_members():
    supernodes = {v: SuperNode(id=v) for v in range(4)}
    E = _fold_correlations(demo_correlations(), supernodes, absorbed=0, survivor=1, sigma=-1)
    # supernode 1 = {1: +1, 0: -1}; its pairs with 2 contribute X[1,2] and -X[0,2]: (0.5 - 0.3) / 2
    assert E.shape == (3, 3)
    assert E[0, 1] == pytest.approx(0.1)
    assert E[1, 0] == pytest.approx(0.1)
    assert E[0, 2] == E[2, 0] == pytest.approx(-0.3)  # (X[1,3] - X[0,3]) / 2
    assert E[1, 2] == E[2, 1] == 0.7  # pairs without the survivor are untouched


def test_merge_score_discounts_penalty_linearly():
    assert merge_score(-0.1, 0.2, 1.5) == pytest.approx(-0.2)
    assert merge_score(0.9, 0.0, 5.0) == pytest.approx(0.9)


def test_select_merge_picks_the_strongest_pair():
    supernodes = {v: SuperNode(id=v) for v in range(4)}
    absorbed, survivor, sigma = select_merge(supernodes, demo_correlations(), lam=0.0)
    assert (absorbed, survivor) == (1, 0)  # reference node survives
    assert sigma == 1


def test_select_merge_without_protection_absorbs_the_smaller_id():
    supernodes = {v: SuperNode(id=v) for v in range(4)}
    absorbed, survivor, sigma = select_merge(
        supernodes, demo_correlations(), lam=0.0, protected=frozenset()
    )
    assert (absorbed, survivor, sigma) == (0, 1, 1)


def test_select_merge_sigma_follows_the_correlation_sign():
    X = np.array([[1.0, -0.9], [-0.9, 1.0]])
    supernodes = {0: SuperNode(id=0), 1: SuperNode(id=1)}
    absorbed, survivor, sigma = select_merge(supernodes, X, lam=0.0)
    assert (absorbed, survivor, sigma) == (1, 0, -1)


def test_select_merge_zero_correlation_defaults_to_positive_sigma():
    X = np.zeros((2, 2))
    np.fill_diagonal(X, 1.0)
    supernodes = {0: SuperNode(id=0), 1: SuperNode(id=1)}
    _, _, sigma = select_merge(supernodes, X, lam=0.0)
    assert sigma == 1


def test_select_merge_breaks_ties_with_the_rng_deterministically():
    X = np.full((3, 3), 0.5)
    np.fill_diagonal(X, 1.0)
    supernodes = {v: SuperNode(id=v) for v in range(3)}
    picks = {
        select_merge(supernodes, X, rng=np.random.default_rng(seed))[:2]
        for seed in range(20)
    }
    # all three pairs tie; different seeds reach more than one of them
    assert picks <= {(1, 0), (2, 0), (1, 2)}
    assert len(picks) > 1
    a = select_merge(supernodes, X, rng=np.random.default_rng(7))
    b = select_merge(supernodes, X, rng=np.random.default_rng(7))
    assert a == b


def test_select_merge_penalty_steers_away_from_constraint_mixing():
    X = np.eye(4)
    X[1, 2] = X[2, 1] = 0.9
    X[0, 1] = X[1, 0] = 0.8

    def penalty(a: SuperNode, b: SuperNode) -> float:
        return 1.0 if {a.id, b.id} == {1, 2} else 0.0

    supernodes = {v: SuperNode(id=v) for v in range(4)}
    unpenalized = select_merge(supernodes, X, lam=0.0, penalty=penalty)
    assert (unpenalized[0], unpenalized[1]) == (1, 2)
    penalized = select_merge(supernodes, X, lam=0.2, penalty=penalty)
    assert (penalized[0], penalized[1]) == (1, 0)


def test_select_merge_needs_two_supernodes():
    with pytest.raises(ValueError, match="at least two"):
        select_merge({0: SuperNode(id=0)}, np.eye(1))


def test_select_merge_needs_one_correlation_row_per_supernode():
    supernodes = {0: SuperNode(id=0, members={0: 1, 3: -1}), 1: SuperNode(id=1), 2: SuperNode(id=2)}
    with pytest.raises(ValueError, match="one correlation row per supernode"):
        select_merge(supernodes, demo_correlations())  # 4 x 4: one row per original node


def test_run_shrink_worked_example_first_merge():
    result = run_shrink(
        demo_graph(),
        ShrinkConfig(stop_mode="k", k=3, reference_protected=False),
        initial_correlations=demo_correlations(),
    )
    assert result.steps == (MergeStep(order=1, i=0, j=1, sigma=1),)
    assert result.node_order == (1, 2, 3)
    assert result.graph.edges == {(0, 1): 2.0, (0, 2): 3.0, (1, 2): 4.0}
    assert result.graph.offset == 0.0
    assert result.supernodes[1].members == {1: 1, 0: 1}
    assert result.stats.merges == 1
    assert result.stats.sdp_seconds == 0.0  # seeded correlations, no solve needed


def test_run_shrink_protects_the_reference_node_by_default():
    result = run_shrink(
        demo_graph(),
        ShrinkConfig(stop_mode="k", k=3),
        initial_correlations=demo_correlations(),
    )
    assert result.steps == (MergeStep(order=1, i=1, j=0, sigma=1),)
    assert 0 in result.supernodes
    assert result.supernodes[0].members == {0: 1, 1: 1}


def test_run_shrink_spectral_stop_on_the_path_graph():
    path = maxcut_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
    shrunk = run_shrink(path, ShrinkConfig(stop_mode="spectral", alpha=0.25, seed=1))
    assert shrunk.target_k == 2
    assert shrunk.graph.n_nodes == 2
    kept = run_shrink(path, ShrinkConfig(stop_mode="spectral", alpha=0.9, seed=1))
    assert kept.target_k == 3
    assert kept.steps == ()
    assert kept.stats.merges == 0
    assert kept.stats.sdp_seconds == 0.0  # no merge needed, so no relaxation solve
    assert kept.graph.weights.tobytes() == path.weights.tobytes()


def test_run_shrink_reaches_an_explicit_target_size():
    graph = random_graph(np.random.default_rng(3), 10, density=0.8)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=4, seed=9))
    assert result.graph.n_nodes == 4
    assert result.stats.merges == 6
    assert [s.order for s in result.steps] == [1, 2, 3, 4, 5, 6]
    member_union = sorted(
        node for sn in result.supernodes.values() for node in sn.members
    )
    assert member_union == list(range(10))


def test_run_shrink_is_deterministic_for_a_fixed_seed():
    graph = random_graph(np.random.default_rng(4), 12, density=0.6)
    config = ShrinkConfig(stop_mode="k", k=5, recalc="fixed", r=2, seed=21)
    a = run_shrink(graph, config)
    b = run_shrink(graph, config)
    assert a.steps == b.steps
    assert a.graph.weights.tobytes() == b.graph.weights.tobytes()
    assert a.graph.offset == b.graph.offset


def test_fixed_recalc_resolves_every_r_merges():
    graph = random_graph(np.random.default_rng(5), 8, density=1.0)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=2, recalc="fixed", r=1, seed=2))
    # a refresh after every merge except the last one before stopping
    assert result.stats.merges == 6
    assert result.stats.recalcs == 5


def test_delta_recalc_with_a_huge_threshold_never_fires():
    graph = random_graph(np.random.default_rng(6), 9, density=0.9)
    result = run_shrink(
        graph, ShrinkConfig(stop_mode="k", k=3, recalc="delta", delta=1e9, seed=3)
    )
    assert result.stats.recalcs == 0


def test_delta_recalc_with_a_tiny_threshold_tracks_edge_loss():
    graph = random_graph(np.random.default_rng(7), 8, density=1.0)
    result = run_shrink(
        graph, ShrinkConfig(stop_mode="k", k=3, recalc="delta", delta=1e-9, seed=4)
    )
    # a complete graph loses edges at every contraction
    assert result.stats.recalcs == result.stats.merges - 1


def test_tau_zero_never_resolves():
    graph = random_graph(np.random.default_rng(8), 8, density=0.9)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, recalc="tau", tau=0.0, seed=5))
    assert result.stats.recalcs == 0


def test_local_recalc_solves_the_relaxation_only_once():
    graph = random_graph(np.random.default_rng(9), 10, density=0.8)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, recalc="local", seed=6))
    assert result.stats.recalcs == 0
    assert result.stats.sdp_seconds > 0.0
    assert result.graph.n_nodes == 3


def test_local_correlation_update_rescales_only_the_affected_blocks():
    # supernode 1 holds nodes 1 and 0; only the supernode weights enter
    weights = np.array([[0.0, 3.0, -4.0], [3.0, 0.0, 0.0], [-4.0, 0.0, 0.0]])
    working = WorkingGraph(weights, ids=[1, 2, 3], offset=0.0)
    E = np.full((3, 3), 0.5)  # rows and columns: supernodes 1, 2, 3
    np.fill_diagonal(E, 1.0)
    local_correlation_update(E, working, survivor=1, affected={2, 3})
    assert E[0, 1] == pytest.approx(3.0 / np.sqrt(7.0 * 3.0))
    assert E[0, 2] == pytest.approx(-4.0 / np.sqrt(7.0 * 4.0))
    assert np.array_equal(E, E.T)
    # untouched entries keep their old values bit for bit
    assert E[1, 2] == 0.5
    assert np.diag(E).tolist() == [1.0, 1.0, 1.0]


def test_local_correlation_update_zeroes_isolated_neighbors():
    weights = np.array([[0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    working = WorkingGraph(weights, ids=[1, 2, 3], offset=0.0)
    E = np.full((3, 3), 0.5)  # rows and columns: supernodes 1, 2, 3
    np.fill_diagonal(E, 1.0)
    local_correlation_update(E, working, survivor=1, affected={3})
    assert E[0, 2] == E[2, 0] == 0.0
    assert E[0, 1] == 0.5  # supernode 2 was not affected


def test_run_shrink_rejects_bad_initial_correlations():
    with pytest.raises(ValueError, match="shape"):
        run_shrink(
            demo_graph(),
            ShrinkConfig(stop_mode="k", k=2),
            initial_correlations=np.eye(3),
        )
    bad = np.full((4, 4), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        run_shrink(demo_graph(), ShrinkConfig(stop_mode="k", k=2), initial_correlations=bad)


def test_shrink_config_validation():
    with pytest.raises(ValueError, match="stop_mode"):
        ShrinkConfig(stop_mode="none")
    with pytest.raises(ValueError, match="target size"):
        ShrinkConfig(stop_mode="k", k=None)
    with pytest.raises(ValueError, match="alpha"):
        ShrinkConfig(alpha=1.2)
    with pytest.raises(ValueError, match="lam"):
        ShrinkConfig(lam=-0.5)
    with pytest.raises(ValueError, match="recalc"):
        ShrinkConfig(recalc="never")
    with pytest.raises(ValueError, match="tau"):
        ShrinkConfig(recalc="tau", tau=2.0)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"lam": float("nan")}, "lam must be a finite number >= 0, got nan"),
        ({"lam": float("inf")}, "lam must be a finite number >= 0, got inf"),
        ({"lam": True}, "lam must be a finite number >= 0, got True"),
        ({"delta": float("nan")}, "delta must be a finite number > 0, got nan"),
        ({"delta": float("inf")}, "delta must be a finite number > 0, got inf"),
        ({"delta": 0.0}, "delta must be a finite number > 0, got 0.0"),
        ({"r": 2.5}, "r must be an integer, got 2.5"),
        ({"r": True}, "r must be an integer, got True"),
        ({"r": 0}, "r must be >= 1, got 0"),
    ],
)
def test_shrink_config_rejects_a_penalty_weight_or_recalc_knob_out_of_range(setting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ShrinkConfig(**setting)


def test_shrink_config_accepts_numpy_and_integer_numbers():
    config = ShrinkConfig(lam=0, delta=np.float64(0.5), r=np.int64(3))
    assert (config.lam, config.delta, config.r) == (0, 0.5, 3)


def test_supernode_and_merge_step_validation():
    with pytest.raises(ValueError, match="must contain itself"):
        SuperNode(id=3, members={2: 1})
    with pytest.raises(ValueError, match="relative sign"):
        SuperNode(id=3, members={3: 1, 2: 0})
    with pytest.raises(ValueError, match="sigma"):
        MergeStep(order=1, i=0, j=1, sigma=2)
    with pytest.raises(ValueError, match="itself"):
        MergeStep(order=1, i=2, j=2, sigma=1)


def test_merge_steps_jsonl_round_trip():
    steps = (
        MergeStep(order=1, i=4, j=0, sigma=-1),
        MergeStep(order=2, i=2, j=3, sigma=1),
    )
    text = merge_steps_to_jsonl(steps)
    assert text.count("\n") == 2
    assert merge_steps_from_jsonl(text) == steps
    assert merge_steps_from_jsonl("") == ()


def test_merge_steps_jsonl_reports_bad_lines():
    with pytest.raises(ValueError, match="line 1: invalid JSON"):
        merge_steps_from_jsonl("not json\n")
    with pytest.raises(ValueError, match="line 1: missing field"):
        merge_steps_from_jsonl('{"order": 1, "i": 0, "j": 1}\n')
    with pytest.raises(ValueError, match="line 2: expected a JSON object, got list"):
        merge_steps_from_jsonl('{"order": 1, "i": 0, "j": 1, "sigma": 1}\n[1, 2]\n')
    with pytest.raises(ValueError, match="line 1: malformed field"):
        merge_steps_from_jsonl('{"order": 1, "i": 0, "j": 1, "sigma": null}\n')
