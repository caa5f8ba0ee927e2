"""Correlation-guided graph contraction: selection, bookkeeping, policies."""

import itertools
import operator
import re

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    MdkpInstance,
    MergeStep,
    PipelineConfig,
    ShrinkConfig,
    WorkingGraph,
    build_model,
    load_instance,
    local_correlation_update,
    make_penalty,
    merge_score,
    merge_steps_from_jsonl,
    merge_steps_to_jsonl,
    penalty_summaries,
    qubo_to_maxcut,
    run_shrink,
    select_merge,
    solve_maxcut_sdp,
)
from shrinkcut import shrink as shrink_module
from shrinkcut.pipeline import shrink_penalty
from tests.conftest import DATA_DIR, maxcut_graph, random_graph, tc64


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
    assert working.rep.tolist() == [1, 1, 2, 3]
    assert working.sizes.tolist() == [2, 1, 1]
    assert working.sign.tolist() == [1, 1, 1, 1]


def test_contract_with_negative_sigma_adjusts_the_offset():
    working = WorkingGraph.from_graph(demo_graph())
    # (1 - sigma)/2 * (w(0,1) + w(0,2)) = 7 leaves the offset at -7
    constant = working.contract(0, 1, -1)
    assert constant == 7.0
    assert working.offset == -7.0
    assert working.nodes() == [1, 2, 3]
    assert working.weights[0].tolist() == [0.0, -2.0, 3.0]
    assert working.rep.tolist() == [1, 1, 2, 3]
    assert working.sizes.tolist() == [2, 1, 1]
    assert working.sign.tolist() == [-1, 1, 1, 1]


def test_contract_folds_representatives_and_signs_relative_to_the_survivor():
    working = WorkingGraph.from_graph(demo_graph())
    working.contract(1, 2, -1)
    assert working.rep.tolist() == [0, 2, 2, 3]
    assert working.sizes.tolist() == [1, 2, 1]
    assert working.sign.tolist() == [1, -1, 1, 1]
    # 2 joins 0 flipped, so 1 (flipped against 2) ends up aligned with 0
    working.contract(2, 0, -1)
    assert working.rep.tolist() == [0, 0, 0, 3]
    assert working.sizes.tolist() == [3, 1]
    assert working.sign.tolist() == [1, 1, -1, 1]
    assert np.searchsorted(working.ids, working.rep).tolist() == [0, 0, 0, 1]


def test_shrink_folds_mdkp_shares_one_supernode_at_a_time(monkeypatch):
    """The survivor adds the absorbed supernode's item share, already summed, in one step.

    Shares 0.1, 0.2 and 0.3 sit on nodes 1, 2 and 3. After 3 joins 2 and 2
    joins 1, node 1's summary must be 0.1 + (0.2 + 0.3), not (0.1 + 0.2) +
    0.3, which differs in the last bit.
    """
    inst = MdkpInstance(
        n=3,
        m=1,
        profits=np.ones(3),
        weights=np.array([[1.0, 2.0, 3.0]]),
        capacities=np.array([10.0]),
    )
    member_order, pairwise = (0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3)
    assert member_order != pairwise
    scripted = iter([(3, 2, 1), (2, 1, -1), (1, 0, 1)])
    seen = []

    def scripted_merge(supernodes, correlations, summaries=None, **options):
        seen.append(list(summaries))
        return next(scripted)

    monkeypatch.setattr("shrinkcut.shrink.select_merge", scripted_merge)
    graph = maxcut_graph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    run_shrink(
        graph,
        ShrinkConfig(stop_mode="k", k=1),
        penalty=make_penalty(inst),
        summaries=penalty_summaries(inst, 3),
    )
    assert seen == [[0.0, 0.1, 0.2, 0.3], [0.0, 0.1, 0.5], [0.0, pairwise]]


def test_contract_drops_edges_that_cancel_exactly():
    graph = maxcut_graph(4, {(1, 2): 7.0, (1, 3): 2.0, (2, 3): -2.0})
    working = WorkingGraph.from_graph(graph)
    working.contract(1, 2, 1)
    assert working.weights[working.rows(2)[0], working.rows(3)[0]] == 0.0
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


def test_contract_averages_sign_adjusted_correlations():
    working = WorkingGraph.from_graph(demo_graph())
    working.correlations = demo_correlations()
    working.contract(0, 1, -1)
    E = working.correlations
    # supernode 1 = {1: +1, 0: -1}; its pairs with 2 contribute X[1,2] and -X[0,2]: (0.5 - 0.3) / 2
    assert E.shape == (3, 3)
    assert E[0, 1] == pytest.approx(0.1)
    assert E[1, 0] == pytest.approx(0.1)
    assert E[0, 2] == E[2, 0] == pytest.approx(-0.3)  # (X[1,3] - X[0,3]) / 2
    assert E[1, 2] == E[2, 1] == 0.7  # pairs without the survivor are untouched


def test_contract_normalises_the_size_weighted_signed_embedding_sum():
    working = WorkingGraph.from_graph(demo_graph())
    working.contract(3, 0, 1)  # supernode 0 now holds nodes 0 and 3
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    before = V.copy()
    working.vectors = V
    # row 2 ({2}) absorbs row 0 ({0, 3}) with sigma -1: along 1 * (0.6, 0.8) - 2 * (1, 0)
    working.contract(0, 2, -1)
    folded = working.vectors
    assert np.array_equal(V, before)
    assert folded.shape == (2, 2)
    assert folded[0].tolist() == [0.0, 1.0]
    assert folded[1] == pytest.approx(np.array([-1.4, 0.8]) / np.hypot(1.4, 0.8))


def test_contract_never_writes_the_callers_weights_correlations_or_embedding():
    W = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    E = np.array([[1.0, 0.2, -0.4], [0.2, 1.0, 0.6], [-0.4, 0.6, 1.0]])
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    before = W.copy(), E.copy(), V.copy()
    working = WorkingGraph(W, [0, 1, 2], 0.0)
    working.correlations, working.vectors = E, V
    working.contract(1, 2, -1)
    for given, copy in zip((W, E, V), before):
        assert np.array_equal(given, copy)
    # the fold itself lands in the compacted copies: row 1 is now {2, 1}
    assert working.weights.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert working.correlations[0, 1] == working.correlations[1, 0] == pytest.approx(-0.3)


def test_contract_keeps_the_survivor_vector_when_the_embedding_sum_vanishes():
    working = WorkingGraph.from_graph(maxcut_graph(2, {(0, 1): 1.0}))
    working.vectors = np.array([[0.6, 0.8], [0.6, 0.8]])
    working.contract(0, 1, -1)
    assert working.vectors.tolist() == [[0.6, 0.8]]


def test_merge_score_discounts_penalty_linearly():
    assert merge_score(-0.1, 0.2, 1.5) == pytest.approx(-0.2)
    assert merge_score(0.9, 0.0, 5.0) == pytest.approx(0.9)


def test_select_merge_picks_the_strongest_pair():
    supernodes = list(range(4))
    absorbed, survivor, sigma = select_merge(supernodes, demo_correlations(), lam=0.0)
    assert (absorbed, survivor) == (1, 0)  # reference node survives
    assert sigma == 1


def test_select_merge_without_protection_absorbs_the_smaller_id():
    supernodes = list(range(4))
    absorbed, survivor, sigma = select_merge(
        supernodes, demo_correlations(), lam=0.0, protected=frozenset()
    )
    assert (absorbed, survivor, sigma) == (0, 1, 1)


def test_select_merge_sigma_follows_the_correlation_sign():
    X = np.array([[1.0, -0.9], [-0.9, 1.0]])
    absorbed, survivor, sigma = select_merge([0, 1], X, lam=0.0)
    assert (absorbed, survivor, sigma) == (1, 0, -1)


def test_select_merge_zero_correlation_defaults_to_positive_sigma():
    X = np.zeros((2, 2))
    np.fill_diagonal(X, 1.0)
    _, _, sigma = select_merge([0, 1], X, lam=0.0)
    assert sigma == 1


def test_select_merge_breaks_ties_with_the_rng_deterministically():
    X = np.full((3, 3), 0.5)
    np.fill_diagonal(X, 1.0)
    supernodes = list(range(3))
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


def test_select_merge_scores_one_ulp_apart_tie_and_the_rng_draws_in_pair_order():
    # (0, 3) scores one ulp below (1, 2); both tie, listed in ascending (a, b) order
    best = 1.0
    X = np.full((4, 4), 0.5)
    X[0, 3] = np.nextafter(best, 0.0)  # 0.99999999999999989, the 1tc.16 runner-up
    X[1, 2] = best
    supernodes = list(range(4))
    tied = [(0, 3), (1, 2)]
    picks = set()
    for seed in range(20):
        want = tied[int(np.random.default_rng(seed).integers(len(tied)))]
        got = select_merge(supernodes, X, rng=np.random.default_rng(seed), protected=frozenset())
        assert got[:2] == want
        picks.add(got[:2])
    assert picks == set(tied)
    # without an rng the first tied pair in that order wins, though it scores lower
    assert select_merge(supernodes, X, protected=frozenset())[:2] == (0, 3)


def test_select_merge_a_score_gap_of_1e_9_is_not_a_tie():
    X = np.full((4, 4), 0.5)
    X[0, 3] = 0.9 - 1e-9
    X[1, 2] = 0.9
    supernodes = list(range(4))
    for seed in range(20):
        got = select_merge(supernodes, X, rng=np.random.default_rng(seed), protected=frozenset())
        assert got[:2] == (1, 2)


@pytest.fixture
def empty_mask_cache(monkeypatch):
    """Empties the cached strict-upper mask (and again on each call); the test's end restores it."""

    def empty():
        mask = np.zeros((0, 0), dtype=bool)
        mask.flags.writeable = False
        monkeypatch.setattr(shrink_module, "_upper", mask)

    empty()
    return empty


def test_the_cached_upper_mask_is_read_only_and_slices_to_each_size(empty_mask_cache):
    for size in (5, 3, 9, 1, 9, 2):
        mask = shrink_module._upper_mask(size)
        assert not mask.flags.writeable
        assert np.array_equal(mask, ~np.tri(size, dtype=bool))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, -1] = False
    assert not shrink_module._upper.flags.writeable and len(shrink_module._upper) == 9


def _tc_shrink(inst, k):
    model = build_model(inst, PipelineConfig(kind="mis"))
    penalty, summaries = shrink_penalty(inst, model)
    config = ShrinkConfig(stop_mode="k", k=k, recalc="fixed", seed=1)
    return run_shrink(qubo_to_maxcut(model), config, penalty, summaries).steps


def test_select_merge_answers_the_same_whichever_size_grows_the_cached_mask(empty_mask_cache):
    """A 1tc.64 and a 1tc.8 shrink log the same merges run alone or in either order."""
    small, large = load_instance("mis", DATA_DIR / "mis" / "1tc.8.txt"), tc64()

    def shrinks(*cases):
        empty_mask_cache()
        return [_tc_shrink(inst, k) for inst, k in cases]

    alone = shrinks((small, 5)) + shrinks((large, 33))
    assert len(alone[0]) == 4 and len(alone[1]) == 32
    assert shrinks((small, 5), (large, 33)) == alone
    assert shrinks((large, 33), (small, 5)) == alone[::-1]


@pytest.mark.parametrize("recalc", ["fixed", "local"])
def test_run_shrink_calls_the_penalty_once_per_pair_at_every_selection(recalc):
    """The benchmark counts one penalty call per scored pair over a whole shrink."""
    calls = []

    def counting(s_a, s_b):
        calls.append((s_a, s_b))
        return 0.0

    graph = random_graph(np.random.default_rng(4), 9)
    config = ShrinkConfig(stop_mode="k", k=3, recalc=recalc, r=2)
    run_shrink(graph, config, penalty=counting, summaries=(list(range(9)), operator.add))
    assert len(calls) == sum(size * (size - 1) // 2 for size in range(4, 10))
    # the first selection scores the nine original nodes' summaries in pair order
    assert calls[:36] == list(itertools.combinations(range(9), 2))


@pytest.mark.parametrize("recalc", ["fixed", "delta", "tau", "local"])
def test_run_shrink_scores_the_mdkp_share_vector_with_one_call_per_merge(recalc):
    """synth24x4 with slack (61 nodes): the share vector merges as a list of the same shares.

    The vector is scored with one broadcast call per selection, the list
    with one call per pair; both must log the same merges and reduce to the
    same graph.
    """
    inst = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    model = build_model(inst, PipelineConfig(kind="mdkp", use_slack=True))
    graph = qubo_to_maxcut(model)
    shares, combine = penalty_summaries(inst, model.n_vars)
    calls = []

    def counting(s_a, s_b):
        calls.append((s_a, s_b))
        return s_a + s_b

    config = ShrinkConfig(stop_mode="k", k=21, recalc=recalc, seed=30)
    broadcast = run_shrink(graph, config, counting, (shares, combine))
    per_pair = run_shrink(graph, config, operator.add, (shares.tolist(), combine))
    assert broadcast.steps == per_pair.steps
    assert np.array_equal(broadcast.graph.weights, per_pair.graph.weights)
    assert len(calls) == broadcast.stats.merges == len(broadcast.steps) == graph.n_nodes - 21


def test_select_merge_penalty_steers_away_from_constraint_mixing():
    X = np.eye(4)
    X[1, 2] = X[2, 1] = 0.9
    X[0, 1] = X[1, 0] = 0.8
    summaries = ["reference", "row 0", "row 0 too", "row 1"]

    def penalty(s_a: str, s_b: str) -> float:
        return 1.0 if {s_a, s_b} == {"row 0", "row 0 too"} else 0.0

    supernodes = list(range(4))
    unpenalized = select_merge(supernodes, X, lam=0.0, penalty=penalty, summaries=summaries)
    assert (unpenalized[0], unpenalized[1]) == (1, 2)
    penalized = select_merge(supernodes, X, lam=0.2, penalty=penalty, summaries=summaries)
    assert (penalized[0], penalized[1]) == (1, 0)


@pytest.mark.parametrize("seeded", [False, True], ids=["no-rng", "rng"])
@pytest.mark.parametrize("size", range(2, 7))
def test_select_merge_calls_the_penalty_once_per_pair_in_combinations_order(size, seeded):
    """The benchmark counts one call per scored pair, and ties follow this order."""
    supernodes = [2 * t for t in range(size)]
    summaries = [("summary", t) for t in range(size)]
    X = np.full((size, size), 0.5)
    weights = np.random.default_rng(size).permutation(size * size).tolist()
    calls = []

    def pi(s_a: tuple, s_b: tuple) -> float:
        return weights[s_a[1] * size + s_b[1]] / len(weights)

    def penalty(s_a: tuple, s_b: tuple) -> float:
        calls.append((s_a, s_b))
        return pi(s_a, s_b)

    rng = np.random.default_rng(0) if seeded else None
    absorbed, survivor, _ = select_merge(
        supernodes,
        X,
        lam=1.0,
        penalty=penalty,
        summaries=summaries,
        rng=rng,
        protected=frozenset(),
    )
    pairs = list(itertools.combinations(summaries, 2))
    assert len(calls) == len(pairs)
    assert all(a is x and b is y for (a, b), (x, y) in zip(calls, pairs))
    # each pair's score carries its own penalty: the pick is the least penalised
    best = min(pairs, key=lambda pair: pi(*pair))
    assert (absorbed, survivor) == (supernodes[best[0][1]], supernodes[best[1][1]])


@pytest.mark.parametrize("size", range(2, 9))
def test_select_merge_maps_every_upper_triangle_pair_back_to_its_supernodes(size):
    supernodes = np.array([10 + 3 * t for t in range(size)])
    for row, col in itertools.combinations(range(size), 2):
        X = np.full((size, size), 0.25)
        X[row, col] = X[col, row] = -0.75
        X[col, row] = 0.9  # the lower triangle is never read
        expected = (10 + 3 * row, 10 + 3 * col, -1)
        got = select_merge(supernodes, X, protected=frozenset())
        assert got == expected
        assert all(type(value) is int for value in got)  # plain ints from a numpy id array


def test_select_merge_needs_one_summary_per_supernode_with_a_penalty():
    supernodes = [0, 1, 2]
    for summaries in (None, [0.0, 0.1]):
        with pytest.raises(ValueError, match="one summary per supernode"):
            select_merge(supernodes, np.eye(3), penalty=operator.add, summaries=summaries)


def test_select_merge_needs_two_supernodes():
    with pytest.raises(ValueError, match="at least two"):
        select_merge([0], np.eye(1))


def test_select_merge_needs_one_correlation_row_per_supernode():
    supernodes = [0, 1, 2]
    with pytest.raises(ValueError, match="one correlation row per supernode"):
        select_merge(supernodes, demo_correlations())  # 4 x 4: one row per original node


@pytest.fixture
def demo_solve(monkeypatch):
    """Every SDP solve of ``run_shrink`` yields ``demo_correlations()``."""
    monkeypatch.setattr(
        "shrinkcut.shrink.extract_correlations", lambda embedding: demo_correlations()
    )


def test_run_shrink_protects_the_reference_node(demo_solve):
    # the best pair is (0, 1); node 0 is the reference, so 1 is absorbed into it
    result = run_shrink(demo_graph(), ShrinkConfig(stop_mode="k", k=3))
    assert result.steps == (MergeStep(order=1, i=1, j=0, sigma=1),)
    assert result.node_order == (0, 2, 3)
    assert result.graph.edges == {(0, 1): 2.0, (0, 2): 3.0, (1, 2): 4.0}
    assert result.graph.offset == 0.0
    assert result.label.tolist() == [0, 0, 1, 2]
    assert result.sign.tolist() == [1, 1, 1, 1]
    assert result.stats.merges == 1


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
    assert len(result.label) == len(result.sign) == 10
    assert sorted(set(result.label.tolist())) == [0, 1, 2, 3]
    assert result.sign[list(result.node_order)].tolist() == [1, 1, 1, 1]


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


def record_sdp_solves(monkeypatch) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Patch ``run_shrink``'s solver to log (a copy of ``initial``, the solved vectors)."""
    calls = []

    def recording_solve(graph, **options):
        initial = options["initial"]
        embedding = solve_maxcut_sdp(graph, **options)
        calls.append((None if initial is None else initial.copy(), embedding.vectors.copy()))
        return embedding

    monkeypatch.setattr("shrinkcut.shrink.solve_maxcut_sdp", recording_solve)
    return calls


def replay_embedding_fold(vectors, ids, sizes, steps):
    """Fold ``vectors`` (rows: ``ids``, with member counts ``sizes``) over ``steps`` by hand."""
    vectors, ids, sizes = vectors.copy(), list(ids), list(sizes)
    for step in steps:
        a, b = ids.index(step.i), ids.index(step.j)
        v = sizes[b] * vectors[b] + step.sigma * sizes[a] * vectors[a]
        if np.linalg.norm(v) >= 1e-12:
            vectors[b] = v / np.linalg.norm(v)
        sizes[b] += sizes[a]
        vectors = np.delete(vectors, a, axis=0)
        del ids[a], sizes[a]
    return vectors, ids, sizes


@pytest.mark.parametrize(
    "options",
    [
        dict(recalc="fixed", r=2),
        dict(recalc="delta", delta=1e-9),
        dict(recalc="tau", tau=1.0),
    ],
)
def test_run_shrink_warm_starts_every_resolve_from_the_folded_embedding(monkeypatch, options):
    calls = record_sdp_solves(monkeypatch)
    graph = random_graph(np.random.default_rng(10), 11, density=0.7)
    result = run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, seed=7, **options))
    assert len(calls) == result.stats.recalcs + 1 >= 3
    assert calls[0][0] is None  # the first solve starts cold
    rank = calls[0][1].shape[1]
    vectors, ids, sizes = calls[0][1], list(range(11)), [1] * 11
    done = 0
    for initial, solved in calls[1:]:
        merged = result.steps[done:done + len(ids) - len(initial)]  # since the previous solve
        vectors, ids, sizes = replay_embedding_fold(vectors, ids, sizes, merged)
        done += len(merged)
        assert initial.shape == (len(ids), rank)
        assert np.allclose(np.linalg.norm(initial, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(initial, vectors)
        vectors = solved


def test_local_recalc_solves_once_and_keeps_no_embedding(monkeypatch):
    calls = record_sdp_solves(monkeypatch)
    graph = random_graph(np.random.default_rng(9), 10, density=0.8)
    run_shrink(graph, ShrinkConfig(stop_mode="k", k=3, recalc="local", seed=6))
    assert len(calls) == 1
    assert calls[0][0] is None


def test_local_correlation_update_rescales_only_the_affected_blocks():
    # supernode 1 holds nodes 1 and 0; only the supernode weights enter
    weights = np.array([[0.0, 3.0, -4.0], [3.0, 0.0, 0.0], [-4.0, 0.0, 0.0]])
    working = WorkingGraph(weights, ids=[1, 2, 3], offset=0.0)
    E = np.full((3, 3), 0.5)  # rows and columns: supernodes 1, 2, 3
    np.fill_diagonal(E, 1.0)
    working.correlations = E
    local_correlation_update(working, survivor_row=0, affected_rows=[1, 2])  # supernodes 2 and 3
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
    working.correlations = E
    local_correlation_update(working, survivor_row=0, affected_rows=[2])  # supernode 3
    assert E[0, 2] == E[2, 0] == 0.0
    assert E[0, 1] == 0.5  # supernode 2 was not affected


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
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ],
)
def test_shrink_config_rejects_a_penalty_weight_or_recalc_knob_out_of_range(setting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ShrinkConfig(**setting)


def test_shrink_config_accepts_numpy_and_integer_numbers():
    config = ShrinkConfig(lam=0, delta=np.float64(0.5), r=np.int64(3), seed=np.uint32(7))
    assert (config.lam, config.delta, config.r, config.seed) == (0, 0.5, 3, 7)


def test_merge_step_validation():
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
    # a fractional field used to be truncated, and an infinite one crashed
    for field in ('"i": 0.5', '"i": 1e400', '"i": true'):
        with pytest.raises(ValueError, match="line 1: malformed field: fields must be integers"):
            merge_steps_from_jsonl(f'{{"order": 1, {field}, "j": 1, "sigma": 1}}\n')
