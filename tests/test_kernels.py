"""The array kernels against one-edge-at-a-time loop oracles on float data.

``evaluate_qubo``, ``cut_value``, ``laplacian`` and ``sdp_objective`` read
the stored arrays ``QuboModel.pairs`` and ``MaxCutGraph.weights``; the
oracles in ``tests/conftest.py`` walk the derived ``quad`` and ``edges``
dicts instead. ``qubo_to_maxcut`` and ``graph_to_qubo`` build whole arrays;
their oracles build the same arrays one dict entry at a time, and the two
must store the same bytes. The shrinker keeps one S x S supernode correlation
matrix and folds rows on every merge; its oracle averages the sign-adjusted
member pairs of an n x n matrix over the member lists and signs that
``WorkingGraph.contract`` folds.
``solve_sa`` runs on Python scalars with sparse field updates; its oracle is
the dense numpy loop, and the two must agree bit for bit.
``solve_maxcut_sdp`` sums its objective over the edge arrays and, on a
graph with at least three nodes per colour, updates one colour class per
matrix product; its oracle updates node by node in the same visit order and
sums the objective one edge at a time. The two must return the same
embedding bit for bit on the node loop, and the same sweep count with
vectors within 1e-12 on class sweeps; the same graph read from JSON with its
edges in another order must give the same embedding bit for bit.
``WorkingGraph`` contracts one dense row into another; its oracle folds a
dict-of-dicts graph one edge at a time, and the two must hold the same ids,
edges and weights after every contraction.
``_energy_chunks`` splits the variables into a low and a high half
and takes one matrix product per block, with the offset and both
half-energies in its factors, into one buffer that each block overwrites;
its oracle sums ``((B @ U) * B)`` row by row,
and the two must give the same energies in the same counter order (equal on
integer data, within rounding on float data).
The merge penalty scores two supernode summaries, which ``WorkingGraph.
contract`` folds as it merges: vertex and neighbour bitmasks for MIS, row
and column bitmasks for QAP, a sum of item capacity shares for MDKP. Its
oracles rebuild the vertex sets and adjacency, the row and column sets, or
the item loads on every call, and must agree on every pair after every
merge: exactly for MIS and QAP, within 1e-12 relative for MDKP, whose shares
round differently from summed loads. Every folded summary must equal the one
rebuilt from its member list, bit for bit.
MIS repair and MDKP and MIS local search take one pass; their oracles rescan
from the start after every change, and the two must give the same bits and,
for repair, the same round count.
"""

import itertools
import json
import math
import operator
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkcut import (
    MaxCutGraph,
    MdkpInstance,
    MisInstance,
    PipelineConfig,
    QapInstance,
    QuboModel,
    ShrinkConfig,
    WorkingGraph,
    build_model,
    cut_value,
    evaluate_qubo,
    extract_correlations,
    graph_from_json,
    graph_to_json,
    graph_to_qubo,
    laplacian,
    local_correlation_update,
    local_search,
    make_penalty,
    penalty_summaries,
    qubo_to_maxcut,
    repair_mdkp,
    repair_mis,
    run_shrink,
    sdp_objective,
    select_merge,
    solve_maxcut_sdp,
    solve_exact,
    solve_sa,
)
from shrinkcut import shrink as shrink_module
from shrinkcut import solvers
from shrinkcut.pipeline import load_instance, run_pipeline
from shrinkcut.sdp import class_sweep_order
from shrinkcut.solvers import _energy_chunks
from tests.conftest import (
    DATA_DIR,
    NaiveWorkingGraph,
    assert_same_embedding,
    assert_same_summaries,
    maxcut_graph,
    naive_cut_value,
    naive_energy_chunks,
    naive_effective_correlation,
    naive_graph_to_qubo,
    naive_laplacian,
    naive_local_search_mdkp,
    naive_local_search_mis,
    naive_pi_mdkp,
    naive_pi_mis,
    naive_pi_qap,
    naive_qubo_energy,
    naive_qubo_to_maxcut,
    naive_repair_mis,
    naive_sdp_objective,
    naive_solve_maxcut_sdp,
    naive_solve_sa,
    qubo_model,
    random_mis,
    replay_summaries,
    summary_from_scratch,
    supernode_members,
    tag_penalty_summaries,
    tc64,
)

RTOL = 1e-9

coefficients = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(
    lambda w: w != 0.0
)


@st.composite
def float_models(draw) -> QuboModel:
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return qubo_model(
        {key: draw(coefficients) for key in keys},
        draw(st.lists(coefficients, min_size=n, max_size=n)),
        draw(coefficients),
    )


@st.composite
def float_graphs(draw) -> MaxCutGraph:
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return maxcut_graph(n, {key: draw(coefficients) for key in keys}, draw(coefficients))


def _symmetrize(values, n: int) -> np.ndarray:
    A = np.reshape(values, (n, n))
    return np.triu(A) + np.triu(A, 1).T


def symmetric_matrices(n: int):
    """Random symmetric float matrices with entries in [-1, 1]."""
    entries = st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=n * n,
        max_size=n * n,
    )
    return entries.map(lambda values: _symmetrize(values, n))


def _scale(values) -> float:
    """Magnitude that bounds the rounding error of a sum of ``values``."""
    return max(1.0, float(np.sum(np.abs(values))))


@settings(max_examples=60, deadline=None)
@given(float_models(), st.data())
def test_evaluate_qubo_matches_the_loop_oracle(model, data):
    x = data.draw(st.lists(st.integers(0, 1), min_size=model.n_vars, max_size=model.n_vars))
    terms = [model.offset, *model.lin, *model.quad.values()]
    assert abs(evaluate_qubo(model, x) - naive_qubo_energy(model, x)) <= RTOL * _scale(terms)


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.data())
def test_cut_value_matches_the_loop_oracle(graph, data):
    spins = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=graph.n_nodes, max_size=graph.n_nodes)
    )
    expected = naive_cut_value(graph, spins)
    scale = _scale(list(graph.edges.values()))
    assert abs(cut_value(graph, spins) - expected) <= RTOL * scale


@settings(max_examples=60, deadline=None)
@given(float_graphs())
def test_laplacian_matches_the_loop_oracle(graph):
    expected = np.array(naive_laplacian(graph))
    scale = _scale(list(graph.edges.values()))
    assert np.allclose(laplacian(graph), expected, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_sdp_objective_matches_the_loop_oracle(graph, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((graph.n_nodes, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    X = V @ V.T
    expected = naive_sdp_objective(graph, X.tolist())
    scale = _scale(list(graph.edges.values()))
    assert abs(sdp_objective(graph, X) - expected) <= RTOL * scale


# small pools make folded edges cancel to exactly 0 (0.1 - 0.1 does too)
integer_weights = st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
float_weights = st.one_of(st.sampled_from([-0.3, -0.1, 0.1, 0.3]), coefficients)


@st.composite
def contraction_cases(draw) -> tuple[MaxCutGraph, list[tuple[int, int, int]], bool]:
    """A random graph, a random signed contraction sequence over it, and whether it is integral.

    Each contraction is (absorbed, survivor, sigma); the reference node 0
    may be absorbed like any other.
    """
    integral = draw(st.booleans())
    weights = integer_weights if integral else float_weights
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = maxcut_graph(n, {key: draw(weights) for key in keys}, draw(weights))
    ids = list(range(n))
    merges = []
    for _ in range(draw(st.integers(min_value=0, max_value=n - 1))):
        absorbed, survivor = draw(st.permutations(ids))[:2]
        ids.remove(absorbed)
        merges.append((absorbed, survivor, draw(st.sampled_from([-1, 1]))))
    return graph, merges, integral


@settings(max_examples=200, deadline=None)
@given(contraction_cases())
# the reference is absorbed and w(1, 2) cancels to 0; then w(1, 3) = 1 is folded with sigma -1
@example(
    (
        maxcut_graph(4, {(0, 2): 2.0, (1, 2): -2.0, (0, 3): 1.0}),
        [(0, 1, 1), (1, 3, -1)],
        True,
    )
)
def test_dense_contraction_matches_the_dict_oracle(case):
    graph, merges, integral = case
    working = WorkingGraph.from_graph(graph)
    oracle = NaiveWorkingGraph(graph)
    # float sums differ from the oracle's only in order: bound them by the total weight
    scale = sum(abs(w) for w in graph.edges.values()) + abs(graph.offset)
    for absorbed, survivor, sigma in merges:
        constant = working.contract(absorbed, survivor, sigma)
        expected = oracle.contract(absorbed, survivor, sigma)
        assert working.nodes() == sorted(oracle.adj)
        reduced, node_order = working.to_graph()
        edges = {(node_order[a], node_order[b]): w for (a, b), w in reduced.edges.items()}
        assert edges == oracle.edges()
        assert working.edge_count == len(edges)
        for v, row in zip(working.nodes(), working.weights):
            cols = np.flatnonzero(row)
            assert dict(zip(working.ids[cols].tolist(), row[cols].tolist())) == oracle.adj[v]
        if integral:
            assert (constant, working.offset) == (expected, oracle.offset)
        else:
            assert abs(constant - expected) <= 1e-12 * scale
            assert abs(working.offset - oracle.offset) <= 1e-12 * scale


def _block_write(X, members_s, members_k, sign, value) -> None:
    """What a local update means for the n x n matrix: every sign-adjusted member pair of s and k."""
    for u in members_s:
        for v in members_k:
            X[u, v] = X[v, u] = value * sign[u] * sign[v]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_folded_correlations_track_the_member_pair_oracle(n, data):
    X = data.draw(symmetric_matrices(n))
    partition = WorkingGraph.from_graph(maxcut_graph(n, {}))
    partition.correlations = X.copy()  # every node starts as its own supernode
    while partition.n_nodes > 1:
        absorbed, survivor = data.draw(st.permutations(partition.nodes()))[:2]
        sigma = data.draw(st.sampled_from([-1, 1]))
        partition.contract(absorbed, survivor, sigma)
        ids, E = partition.nodes(), partition.correlations
        groups = supernode_members(partition)  # from the representatives alone
        members = dict(zip(ids, groups))
        if len(ids) > 1 and data.draw(st.booleans()):
            # a local update on a random graph over the surviving supernodes
            weights = np.zeros((len(ids), len(ids)))
            for r, c in itertools.combinations(range(len(ids)), 2):
                weights[r, c] = weights[c, r] = data.draw(st.sampled_from([0.0, -2.0, 0.5, 3.0]))
            working = WorkingGraph(weights, ids=ids, offset=0.0)
            working.correlations = E  # the update writes into the partition's correlations
            affected = set(data.draw(st.lists(st.sampled_from(ids), max_size=len(ids))))
            s = ids.index(survivor)
            local_correlation_update(working, s, [ids.index(k) for k in affected - {survivor}])
            degree = np.abs(weights).sum(axis=1)
            for k in affected - {survivor}:
                t = ids.index(k)
                d = degree[s] * degree[t]
                value = 0.0 if d == 0.0 else weights[s, t] / np.sqrt(d)
                _block_write(X, members[survivor], members[k], partition.sign, value)
        assert E.shape == (len(ids), len(ids))
        assert partition.sizes.tolist() == [len(group) for group in groups]
        for r, group_r in enumerate(groups):
            for c, group_c in enumerate(groups):
                if r != c:
                    expected = naive_effective_correlation(group_r, group_c, partition.sign, X)
                    assert abs(E[r, c] - expected) <= 1e-12


def random_merges(draw, n_nodes: int) -> list[tuple[int, int, int]]:
    """A random signed merge sequence over Max-Cut nodes 0..n_nodes.

    Each merge is (absorbed, survivor, sigma) between two surviving nodes.
    """
    ids = list(range(n_nodes + 1))
    merges = []
    for _ in range(draw(st.integers(min_value=0, max_value=n_nodes))):
        absorbed, survivor = draw(st.permutations(ids))[:2]
        ids.remove(absorbed)
        merges.append((absorbed, survivor, draw(st.sampled_from([-1, 1]))))
    return merges


def layout_tags(tags: list[tuple]) -> dict[int, tuple]:
    """``tags`` on Max-Cut nodes 1..len(tags) in variable order; node 0 is the reference."""
    return dict(enumerate(tags, 1))


@st.composite
def mis_merge_cases(draw):
    """A random conflict graph, its vertex tags and a random merge sequence."""
    n = draw(st.integers(min_value=1, max_value=20))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    inst = random_mis(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, density)
    tags = layout_tags([("vertex", u) for u in range(n)])
    return inst, tags, random_merges(draw, len(tags))


@st.composite
def qap_merge_cases(draw):
    """A QAP size, its assignment tags and a random merge sequence (flows play no part)."""
    n = draw(st.integers(min_value=1, max_value=4))
    inst = QapInstance(n=n, flow=np.zeros((n, n)), distance=np.zeros((n, n)))
    tags = layout_tags([("assign", i, j) for i in range(n) for j in range(n)])
    return inst, tags, random_merges(draw, len(tags))


@st.composite
def mdkp_merge_cases(draw):
    """Random integer or float MDKP rows, item and slack tags and a random merge sequence."""
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        weights = rng.integers(0, 50, (m, n)).astype(float)
        capacities = rng.integers(1, 100, m).astype(float)
    else:
        weights = rng.uniform(0.0, 50.0, (m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
        capacities = rng.uniform(0.5, 100.0, m)
    inst = MdkpInstance(n=n, m=m, profits=np.ones(n), weights=weights, capacities=capacities)
    slack = [("slack", 0, k) for k in range(draw(st.integers(min_value=0, max_value=3)))]
    tags = layout_tags([("item", i) for i in range(n)] + slack)
    return inst, tags, random_merges(draw, len(tags))


PENALTY_ORACLES = {MisInstance: naive_pi_mis, QapInstance: naive_pi_qap, MdkpInstance: naive_pi_mdkp}


@settings(max_examples=200, deadline=None)
@given(st.one_of(mis_merge_cases(), qap_merge_cases(), mdkp_merge_cases()))
# vertex 0 joins supernode 2: the fold must OR in its neighbours, so pair (2, 3) turns to 1.0
@example(
    (
        MisInstance(n=3, edges=((0, 2),)),
        {1: ("vertex", 0), 2: ("vertex", 1), 3: ("vertex", 2)},
        [(1, 2, 1)],
    )
)
# node 4 absorbs [3], then [2, 1]: the fold must add supernode 2's summed share in one step
@example(
    (
        MdkpInstance(
            n=4,
            m=2,
            profits=np.ones(4),
            weights=np.array([[5.9, 8.4, 7.3, 3.7], [4.5, 3.7, 1.1, 2.0]]),
            capacities=np.array([6.4, 7.0]),
        ),
        {1: ("item", 0), 2: ("item", 1), 3: ("item", 2), 4: ("item", 3)},
        [(3, 4, 1), (1, 2, -1), (2, 4, 1)],
    )
)
def test_penalty_equals_the_oracle_on_every_pair_after_every_merge(case):
    """MIS and QAP exactly; MDKP within rounding. Every summary is checked against two oracles.

    The per-node summaries, built by position, first equal the ones read
    from the tags: a float64 vector for MDKP, a list of bitmask tuples for
    MIS and QAP. ``WorkingGraph.contract`` folds the summaries as it
    merges, keeping their form. Replaying the merge log with the pairwise
    rule must give every summary bit for bit.
    Rebuilt from scratch over the supernode's original nodes, MIS and QAP
    masks must match exactly and MDKP's share sum within 1e-12 relative,
    since it adds the shares in another order. The MDKP scorer adds
    per-item shares mean_j(w_ji / C_j) where the oracle adds item loads
    before dividing, so the two round differently even on integer weights.
    """
    inst, tags, merges = case
    oracle = PENALTY_ORACLES[type(inst)]
    penalty = make_penalty(inst)
    node_summaries = penalty_summaries(inst, len(tags))
    assert_same_summaries(inst, node_summaries[0], tag_penalty_summaries(inst, tags))
    partition = WorkingGraph.from_graph(maxcut_graph(len(tags) + 1, {}), node_summaries)
    done = []

    def assert_every_pair_matches():
        replayed = replay_summaries(node_summaries, range(len(tags) + 1), done)
        assert list(replayed) == sorted(replayed) == partition.nodes()
        assert_same_summaries(inst, partition.summaries, list(replayed.values()))
        groups = supernode_members(partition)
        for members, summary in zip(groups, partition.summaries):
            rebuilt = summary_from_scratch(node_summaries, members)
            if isinstance(inst, MdkpInstance):
                assert abs(summary - rebuilt) <= 1e-12 * abs(rebuilt)
            else:
                assert summary == rebuilt
        rows = zip(groups, partition.summaries)
        for (a, s_a), (b, s_b) in itertools.permutations(rows, 2):
            got, want = penalty(s_a, s_b), oracle(a, b, inst, tags)
            if isinstance(inst, MdkpInstance):
                assert abs(got - want) <= 1e-12 * want
            else:
                assert got == want

    assert_every_pair_matches()
    for merge in merges:
        partition.contract(*merge)
        done.append(merge)
        assert_every_pair_matches()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(mis_merge_cases(), qap_merge_cases(), mdkp_merge_cases()).map(lambda case: case[0]),
    st.sampled_from(["fixed", "local"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_shrink_on_folded_summaries_logs_the_merges_of_summaries_rebuilt_at_every_selection(
    inst, recalc, seed, data
):
    """Folding the summaries merge by merge picks the same merges as rebuilding them each time.

    The rebuilt run hands ``select_merge`` every supernode's summary as
    replayed afresh from the merge log so far, and checks that it equals the
    folded one bit for bit. It hands them over as a list, which is scored
    pair by pair, so for MDKP it checks the folded run's one broadcast per
    selection against the per-pair scores, merge for merge.
    """
    kind = {MisInstance: "mis", QapInstance: "qap", MdkpInstance: "mdkp"}[type(inst)]
    model = build_model(inst, PipelineConfig(kind=kind))
    graph = qubo_to_maxcut(model)
    node_summaries = penalty_summaries(inst, model.n_vars)
    k = data.draw(st.integers(min_value=1, max_value=graph.n_nodes))
    config = ShrinkConfig(stop_mode="k", k=k, recalc=recalc, r=2, seed=seed)
    options = {"penalty": make_penalty(inst), "summaries": node_summaries}
    folded = run_shrink(graph, config, **options)

    select_merge = shrink_module.select_merge

    merged = []

    def select_on_rebuilt_summaries(supernodes, correlations, summaries=None, **kwargs):
        replayed = replay_summaries(node_summaries, range(graph.n_nodes), merged)
        assert list(replayed) == supernodes.tolist()
        rebuilt = list(replayed.values())
        assert_same_summaries(inst, summaries, rebuilt)
        merged.append(select_merge(supernodes, correlations, summaries=rebuilt, **kwargs))
        return merged[-1]

    with mock.patch.object(shrink_module, "select_merge", select_on_rebuilt_summaries):
        rebuilt = run_shrink(graph, config, **options)
    assert rebuilt.steps == folded.steps
    assert len(folded.steps) == max(0, graph.n_nodes - k)


@st.composite
def share_selections(draw):
    """Ascending supernode ids, correlations, float shares spanning six decades, lam and protection.

    Half the cases draw the shares and correlations from a few values, so
    that many pairs tie exactly and the tie window and rng decide.
    """
    size = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    supernodes = np.sort(rng.choice(10 * size, size, replace=False))
    if draw(st.booleans()):
        shares = rng.choice([0.0, 1e-6, 1e-3, 1.0], size)
        correlations = rng.choice([-0.5, 0.25, 0.5], (size, size))
    else:
        shares = 10.0 ** rng.uniform(-6.0, 0.0, size)
        correlations = rng.uniform(-1.0, 1.0, (size, size))
    lam = draw(st.sampled_from([0.0, 0.5, 1.5, 1e3]))
    protected = draw(st.sampled_from([frozenset(), frozenset({int(supernodes[-1])})]))
    return supernodes, correlations, shares, lam, protected


@settings(max_examples=200, deadline=None)
@given(share_selections(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
# every pair ties: the rng draw over all six pairs must land on the same one
@example((np.arange(4), np.full((4, 4), 0.5), np.zeros(4), 1.5, frozenset({0})), 5)
def test_select_merge_scores_a_share_vector_with_one_call_and_picks_as_the_list_does(case, seed):
    """One broadcast call of the scorer gives every pair the penalty the per-pair calls give.

    The same shares handed over as a list of Python floats are scored pair
    by pair; both must pick the same merge and leave the rng in the same
    state, so the tie sets and the draw over them agree too.
    """
    supernodes, correlations, shares, lam, protected = case
    calls = []

    def counting(s_a, s_b):
        calls.append((s_a, s_b))
        return s_a + s_b

    def pick(summaries, penalty):
        rng = None if seed is None else np.random.default_rng(seed)
        merge = select_merge(
            supernodes, correlations, lam, penalty, summaries, rng=rng, protected=protected
        )
        return merge, None if rng is None else rng.bit_generator.state

    assert pick(shares, counting) == pick(shares.tolist(), operator.add)
    assert len(calls) == 1
    assert calls[0][0].shape == (len(shares), 1) and calls[0][1] is shares


@st.composite
def mis_selections(draw):
    """A random conflict graph and a random vertex selection, feasible or not."""
    n = draw(st.integers(min_value=1, max_value=16))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    inst = random_mis(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, density)
    return inst, np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@st.composite
def mdkp_selections(draw):
    """Random integer or float MDKP rows, some profits 0, and a random item selection."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        weights = rng.integers(0, 20, (m, n)).astype(float)
        capacities = rng.integers(1, 60, m).astype(float)
    else:
        weights = rng.uniform(0.0, 20.0, (m, n)) * 10.0 ** rng.integers(-2, 3, (m, n))
        capacities = rng.uniform(0.5, 60.0, m)
    profits = rng.integers(0, 3, n).astype(float)
    inst = MdkpInstance(n=n, m=m, profits=profits, weights=weights, capacities=capacities)
    return inst, np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(mis_selections())
def test_mis_repair_and_local_search_equal_the_restart_oracles(case):
    inst, bits = case
    report, expected = repair_mis(inst, bits), naive_repair_mis(inst, bits)
    assert np.array_equal(report.bits, expected.bits)
    assert report.iterations == expected.iterations
    grown = local_search(inst, report.bits)
    assert np.array_equal(grown, naive_local_search_mis(inst, report.bits))


@settings(max_examples=200, deadline=None)
@given(mdkp_selections())
def test_mdkp_local_search_equals_the_restart_oracle(case):
    inst, bits = case
    start = repair_mdkp(inst, bits).bits
    assert np.array_equal(local_search(inst, start), naive_local_search_mdkp(inst, start))


integer_coefficients = st.integers(-9, 9).filter(bool).map(float)
six_decade_coefficients = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=-3, max_value=3),
)
# integers give ties and exactly-zero fields; the rest spread over six decades
annealing_coefficients = st.one_of(integer_coefficients, six_decade_coefficients)
temperatures = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def annealing_models(draw, linear=st.one_of(st.just(0.0), annealing_coefficients)) -> QuboModel:
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return qubo_model(
        {key: draw(annealing_coefficients) for key in keys},
        draw(st.lists(linear, min_size=n, max_size=n)),
        draw(annealing_coefficients),
    )


# zero linear terms give fields that cancel and uncoupled variables with
# deltas of exactly 0, which are always accepted and never frozen
annealing_cases = st.one_of(annealing_models(), annealing_models(linear=st.just(0.0)))
schedules = st.one_of(
    st.just((None, None)),
    st.tuples(temperatures, temperatures).map(lambda pair: (max(pair), min(pair))),
    temperatures.map(lambda t: (t, t)),
    # T = 1e-9 freezes the state after its first quiet sweep, so almost every
    # later sweep is skipped; T = 1e9 accepts almost every move and never freezes
    st.sampled_from([1e-9, 1e9]).map(lambda t: (t, t)),
)


def assert_same_annealing_result(model, **options):
    got = solve_sa(model, **options)
    want = naive_solve_sa(model, **options)
    assert got.bits.tolist() == want.bits.tolist()
    assert got.energy == want.energy


@settings(max_examples=100, deadline=None)
@given(
    annealing_cases,
    st.integers(min_value=1, max_value=100),
    schedules,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_solve_sa_equals_the_numpy_loop_oracle_bit_for_bit(model, sweeps, schedule, seed):
    t_start, t_end = schedule
    assert_same_annealing_result(model, seed=seed, sweeps=sweeps, t_start=t_start, t_end=t_end)


def _six_decade_model(rng, n):
    pairs = np.triu(rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n)), 1)
    pairs[rng.random((n, n)) < 0.5] = 0.0
    lin = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    return QuboModel(pairs, lin, 0.0, tuple(("spin", i) for i in range(n)))


@pytest.mark.parametrize(
    "n, sweeps, t_start, t_end",
    [
        (1, 140_000, None, None),  # five draw blocks of 32,768 sweeps
        (3, 70_000, None, None),
        (10, 20_000, None, None),
        (10, 20_000, 1e-2, 1e-2),  # frozen across block boundaries
        (24, 6_000, 1e3, 1e-3),
    ],
)
def test_solve_sa_equals_the_oracle_across_draw_blocks(n, sweeps, t_start, t_end):
    assert n * sweeps > solvers.DRAW_BLOCK
    model = _six_decade_model(np.random.default_rng(n * sweeps), n)
    assert_same_annealing_result(model, seed=n, sweeps=sweeps, t_start=t_start, t_end=t_end)


def _integer_model(rng, n):
    pairs = np.triu(rng.integers(-9, 10, (n, n)).astype(float), 1)
    lin = rng.integers(-9, 10, n).astype(float)
    return QuboModel(pairs, lin, 0.0, tuple(("spin", i) for i in range(n)))


# 1e-300 and 1e-320 (subnormal) sit below the limits' temperature floor, so
# every uphill test reaches math.exp; 1e-289 is just above it; at 1e300 the
# limits are huge and almost every move is accepted
@pytest.mark.parametrize("temperature", [1e-320, 1e-300, 1e-289, 1e300])
@pytest.mark.parametrize("build", [_integer_model, _six_decade_model])
def test_solve_sa_equals_the_oracle_at_extreme_constant_temperatures(build, temperature):
    model = build(np.random.default_rng(11), 12)
    for seed in range(3):
        with np.errstate(over="ignore"):  # the oracle's -delta / T is -inf at 1e-320
            assert_same_annealing_result(
                model, seed=seed, sweeps=150, t_start=temperature, t_end=temperature
            )


def test_solve_sa_equals_the_oracle_on_the_1tc64_mis_model():
    model = graph_to_qubo(qubo_to_maxcut(build_model(tc64(), PipelineConfig(kind="mis"))))
    # the pipeline seed of perfbench op 0 under --seed 1
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
    assert_same_annealing_result(model, seed=seed, sweeps=2000)


def test_solve_sa_equals_the_oracle_on_the_1tc64_mis_model_at_the_default_sweeps():
    # 200 n = 12,800 sweeps, frozen for more than half of them
    model = graph_to_qubo(qubo_to_maxcut(build_model(tc64(), PipelineConfig(kind="mis"))))
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
    assert_same_annealing_result(model, seed=seed)


def _no_limits(temperatures, draws):
    """+inf everywhere: no uphill test is decided before ``math.exp``."""
    return np.full(draws.shape, np.inf)


def exp_arguments(model, skip, **options):
    """The result of ``solve_sa`` and every argument it passes to ``math.exp``, in call order.

    With ``skip=False`` every uphill limit is +inf, so no sweep is skipped
    and every uphill test reaches ``math.exp``, as in the sweep-by-sweep loop.
    """
    log = []
    logging_math = types.SimpleNamespace(exp=lambda z: log.append(z) or math.exp(z), inf=math.inf)
    with mock.patch.object(solvers, "math", logging_math):
        if skip:
            solution = solve_sa(model, **options)
        else:
            with mock.patch.object(solvers, "_uphill_limits", _no_limits):
                solution = solve_sa(model, **options)
    return solution, log


def assert_skips_only_rejecting_sweeps(model, **options):
    """The run with limits makes a subsequence of the full run's uphill tests, in order.

    Best-state results can agree even after two trajectories part; the exp
    arguments carry the state and the temperature of every uphill test, so a
    skipped sweep or a limit test that rejected a move ``math.exp`` would
    have accepted shows up here.
    """
    reference, full = exp_arguments(model, skip=False, **options)
    solution, kept = exp_arguments(model, skip=True, **options)
    remaining = iter(full)
    assert all(any(z == w for w in remaining) for z in kept)
    assert solution.bits.tolist() == reference.bits.tolist()
    assert solution.energy == reference.energy
    return full, kept


@settings(max_examples=60, deadline=None)
@given(
    annealing_cases,
    st.integers(min_value=1, max_value=400),
    schedules,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_solve_sa_skips_only_sweeps_that_reject_every_move(model, sweeps, schedule, seed):
    t_start, t_end = schedule
    assert_skips_only_rejecting_sweeps(
        model, seed=seed, sweeps=sweeps, t_start=t_start, t_end=t_end
    )


def test_solve_sa_skips_only_rejecting_sweeps_on_the_1tc64_mis_model():
    model = graph_to_qubo(qubo_to_maxcut(build_model(tc64(), PipelineConfig(kind="mis"))))
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
    full, kept = assert_skips_only_rejecting_sweeps(model, seed=seed)
    assert len(kept) < len(full) / 2  # the skip and the limits do engage


def test_first_live_sweep_finds_every_draw_the_loop_would_accept():
    rng = np.random.default_rng(5)
    deltas = rng.uniform(1.0, 10.0, 8)
    temperatures = 10.0 ** rng.uniform(-1.0, 0.5, 40)
    # the loop's own acceptance bounds, from math.exp; each is below 0.4
    bounds = np.array([[math.exp(-d / t) for d in deltas] for t in temperatures])
    beyond_margin = bounds * (1 + 2 * solvers.LIMIT_MARGIN)

    def first_live(draws):
        return solvers._first_live_sweep(deltas, solvers._uphill_limits(temperatures, draws))

    assert first_live(beyond_margin) is None
    for row, col in [(0, 0), (17, 3), (39, 7)]:
        for draw in (np.nextafter(bounds[row, col], 0.0), bounds[row, col]):
            draws = beyond_margin.copy()
            draws[row, col] = draw  # an accept, then a reject inside the margin
            assert first_live(draws) == row
            draws[-1, 0] = 0.0
            assert first_live(draws) == row


def test_uphill_limits_are_infinite_for_a_zero_draw_a_tiny_temperature_or_an_overflow():
    temperatures = np.array([1.0, 1e-290, np.nextafter(1e-290, 0.0), 1e-300, 1e-320, 1e308])
    draws = np.array([[0.5, 0.0, 2.0**-53]] * len(temperatures))
    limits = solvers._uphill_limits(temperatures, draws)
    assert limits[:, 1].tolist() == [math.inf] * len(temperatures)  # u = 0
    assert np.isinf(limits[2:5]).all()  # below the temperature floor
    assert limits[-1, 2] == math.inf  # 1e308 * (1e-9 - ln 2^-53) overflows
    assert np.isfinite(limits[:2, [0, 2]]).all() and np.isfinite(limits[-1, 0])
    assert limits[1, 0] > 0
    assert limits[0, 0] == pytest.approx(solvers.LIMIT_MARGIN + math.log(2.0), rel=1e-15)
    # exp(-1000) underflows to 0 in the loop; a draw of exactly 0 still counts as live
    draws = np.full((3, 1), 0.5)
    draws[2, 0] = 0.0
    limits = solvers._uphill_limits(np.ones(3), draws)
    assert solvers._first_live_sweep(np.array([1e3]), limits) == 2
    # below the floor every row is live, and math.exp decides
    tiny = np.full(3, 1e-300)
    assert solvers._first_live_sweep(np.array([1e300]), solvers._uphill_limits(tiny, draws)) == 0


@settings(max_examples=500, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**53 - 1),
    st.floats(min_value=1e-290, max_value=1e300),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-12)),
)
def test_a_cost_above_its_uphill_limit_is_one_math_exp_rejects(k, temperature, relative):
    u = k * 2.0**-53  # the grid rng.random draws from
    limit = float(solvers._uphill_limits(np.array([temperature]), np.array([[u]]))[0, 0])
    if math.isinf(limit):
        return
    delta = math.nextafter(limit, math.inf) * (1 + relative)  # one ulp above, then a little more
    assert not u < math.exp(-delta / temperature)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=100_000),
    st.tuples(temperatures, temperatures).map(lambda pair: (max(pair), min(pair))),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
)
def test_sliced_schedule_equals_the_whole_ramp(sweeps, schedule, cuts):
    t_start, t_end = schedule
    if sweeps == 1:
        whole = np.array([t_start])
    else:
        whole = t_start * (t_end / t_start) ** (np.arange(sweeps) / (sweeps - 1))
    bounds = sorted({0, sweeps, *(int(c * sweeps) for c in cuts)})
    sliced = np.concatenate(
        [solvers._schedule(t_start, t_end, sweeps, a, b) for a, b in zip(bounds, bounds[1:])]
    )
    assert sliced.tobytes() == whole.tobytes()


@st.composite
def sdp_graphs(draw) -> MaxCutGraph:
    """Random graphs on 1-12 nodes; some nodes are stripped of every edge."""
    n = draw(st.integers(min_value=1, max_value=12))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 3)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not {i, j} & isolated]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return maxcut_graph(n, {key: draw(annealing_coefficients) for key in keys})


@settings(max_examples=100, deadline=None)
@given(
    sdp_graphs(),
    st.one_of(st.none(), st.integers(min_value=2, max_value=8)),
    st.integers(min_value=1, max_value=60),
    # 1e-12 runs about a fifth of random graphs to a 60-sweep cap; 0.1 stops
    # most after two or three sweeps
    st.sampled_from([1e-12, 1e-6, 1e-3, 0.1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_solve_maxcut_sdp_equals_the_loop_oracle_in_its_visit_order(
    graph, rank, max_sweeps, tol, seed, data
):
    options = dict(rank=rank, max_sweeps=max_sweeps, tol=tol, seed=seed)
    got = assert_same_embedding(graph, **options)
    # the same edge list read from JSON in another order stores the same bytes and embedding
    doc = json.loads(graph_to_json(graph))
    doc["edges"] = data.draw(st.permutations(doc["edges"]))
    shuffled = graph_from_json(json.dumps(doc))
    assert shuffled.weights.tobytes() == graph.weights.tobytes()
    again = solve_maxcut_sdp(shuffled, **options)
    assert np.array_equal(again.vectors, got.vectors)
    assert again.objective_history == got.objective_history
    assert again.sweeps_used == got.sweeps_used


def test_solve_maxcut_sdp_and_the_oracle_may_stop_one_sweep_apart_on_a_mixed_sign_graph():
    # near the optimum 7 the last gains are about 7e-12, and tol * |f| is 7e-12;
    # with numpy's x86-64 kernels the class-order solve stops at sweep 17 and
    # the loop oracle at 18, their gains 5e-14 apart, far inside the 7.9e-10
    # objective agreement
    edges = {(0, 6): 7.0, (1, 7): -1.0, (3, 7): -4.0, (3, 8): -775.0, (7, 10): -2.0}
    graph = maxcut_graph(11, edges)
    options = dict(max_sweeps=25, tol=1e-12, seed=14102)
    order = np.concatenate(class_sweep_order(graph.weights)).tolist()
    got = solve_maxcut_sdp(graph, **options)
    want = naive_solve_maxcut_sdp(graph, order=order, **options)
    assert abs(got.sweeps_used - want.sweeps_used) <= 1
    assert assert_same_embedding(graph, **options).sweeps_used == got.sweeps_used


def test_solve_maxcut_sdp_equals_the_oracle_on_the_synth24x4_slack_graph():
    synth = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    graph = qubo_to_maxcut(build_model(synth, PipelineConfig(kind="mdkp", use_slack=True)))
    assert class_sweep_order(graph.weights) is None  # 61 nodes, 34 colours
    # penalty-weighted: the objective (about 1.26e9) settles within a few
    # sweeps while the vectors keep drifting along a flat face
    got = assert_same_embedding(graph, seed=5)
    assert got.sweeps_used < 10
    capped = solve_maxcut_sdp(graph, seed=5, max_sweeps=1000, tol=1e-300)
    settled = sdp_objective(graph, extract_correlations(got))
    reference = sdp_objective(graph, extract_correlations(capped))
    assert abs(settled - reference) <= 1e-9 * abs(reference)


def test_solve_maxcut_sdp_equals_the_oracle_on_the_1tc64_mis_graph():
    graph = qubo_to_maxcut(build_model(tc64(), PipelineConfig(kind="mis")))
    assert class_sweep_order(graph.weights) is not None  # 65 nodes, 7 colours
    assert_same_embedding(graph, seed=11)


@st.composite
def enumeration_cases(draw) -> tuple[QuboModel, int, bool]:
    """A 1-16 variable model, a chunk, and whether every coefficient is an integer."""
    n = draw(st.integers(min_value=1, max_value=16))
    integral = draw(st.booleans())
    coefficient = integer_coefficients if integral else six_decade_coefficients
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    linear = st.one_of(st.just(0.0), coefficient)
    model = qubo_model(
        {key: draw(coefficient) for key in keys},
        draw(st.lists(linear, min_size=n, max_size=n)),
        draw(coefficient),
    )
    return model, draw(st.integers(min_value=1, max_value=(1 << n) + 1)), integral


def enumerate_energies(chunks) -> np.ndarray:
    """Concatenate (first counter, energies) blocks, checking they follow on.

    ``_energy_chunks`` overwrites one buffer with each block, so each is
    copied before the next is requested.
    """
    blocks = []
    expected_start = 0
    for start, energies in chunks:
        assert start == expected_start
        expected_start += energies.size
        blocks.append(energies.copy())
    return np.concatenate(blocks)


@settings(max_examples=100, deadline=None)
@given(enumeration_cases())
def test_energy_chunks_equal_the_row_by_row_oracle(case):
    model, chunk, integral = case
    got = enumerate_energies(_energy_chunks(model, chunk))
    want = enumerate_energies(naive_energy_chunks(model))
    assert got.shape == (1 << model.n_vars,)
    if integral:
        assert np.array_equal(got, want)
        solution = solve_exact(model, chunk=chunk)
        assert int(solution.bits @ (1 << np.arange(model.n_vars))) == int(np.argmin(want))
        assert solution.energy == evaluate_qubo(model, solution.bits)
    else:
        scale = _scale([*model.quad.values(), *model.lin, model.offset])
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_solve_exact_breaks_ties_across_blocks_toward_the_lowest_counter():
    # chunk=1 gives one block per high pattern, so tied states sit in different blocks
    flat = qubo_model({}, (0.0,) * 5, offset=2.0)
    assert solve_exact(flat, chunk=1).bits.tolist() == [0] * 5
    # energies 0, -1, -1, -1 over counters 0-3; counters 2 and 3 form the second block
    tied = qubo_model({(0, 1): 1.0}, (-1.0, -1.0))
    solution = solve_exact(tied, chunk=1)
    assert solution.bits.tolist() == [1, 0]
    assert solution.energy == -1.0


def test_solve_exact_equals_the_oracle_on_the_20_variable_mdkp_reduced_model(monkeypatch):
    captured = []
    original = solvers.solve_exact

    def capture(model, **options):
        captured.append(model)
        return original(model, **options)

    monkeypatch.setattr(solvers, "solve_exact", capture)
    synth = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    # the pipeline seed of perfbench's mdkp-sdp op 0 under --seed 1
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
    config = PipelineConfig(
        kind="mdkp", use_slack=True, stop_mode="k", k=21, recalc="local", backend="exact", seed=seed
    )
    run_pipeline(config, inst=synth)
    (model,) = captured
    assert model.n_vars == 20
    got = enumerate_energies(_energy_chunks(model))
    want = enumerate_energies(naive_energy_chunks(model, 1 << 16))
    assert np.array_equal(got, want)
    solution = original(model)
    assert int(solution.bits @ (1 << np.arange(20))) == int(np.argmin(want))
    assert solution.energy == evaluate_qubo(model, solution.bits)


def test_solve_exact_holds_one_energy_block_on_the_20_variable_mdkp_reduced_model():
    captured = []  # the reduced model of perfbench's mdkp-sdp op 0 under --seed 1
    synth = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
    config = PipelineConfig(
        kind="mdkp", use_slack=True, stop_mode="k", k=21, recalc="local", backend="exact", seed=seed
    )
    original = solvers.solve_exact

    def capture(model, **options):
        captured.append(model)
        return original(model, **options)

    with mock.patch.object(solvers, "solve_exact", capture):
        run_pipeline(config, inst=synth)
    (model,) = captured
    assert model.n_vars == 20
    # 16 blocks of 2^16 energies (512 KiB each) and about 0.4 MB of factors:
    # one reused buffer peaks near 0.9 MB, a new array per product, made
    # while the previous block is still referenced, near 1.4 MB
    tracemalloc.start()
    try:
        solve_exact(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (1 << 16)  # two blocks


def test_solve_exact_equals_the_oracle_at_the_24_variable_cap_with_couplings_across_the_halves():
    synth = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    model = build_model(synth, PipelineConfig(kind="mdkp"))  # no slack bits: 24 variables
    assert model.n_vars == 24 and model.offset == 1_261_155_350.0
    assert np.count_nonzero(model.pairs[:10, 10:]) > 0  # the low half L is 10 variables
    best_energy, best_counter = np.inf, 0
    blocks = zip(_energy_chunks(model, 1 << 16), naive_energy_chunks(model, 1 << 16), strict=True)
    for (start, got), (want_start, want) in blocks:
        assert start == want_start and np.array_equal(got, want)
        idx = int(np.argmin(want))
        if want[idx] < best_energy:
            best_energy, best_counter = want[idx], start + idx
    solution = solve_exact(model)
    assert int(solution.bits @ (1 << np.arange(24))) == best_counter
    assert solution.energy == evaluate_qubo(model, solution.bits) == best_energy


def test_solve_exact_finds_the_closed_form_optimum_of_a_24_variable_separable_model():
    lin = np.random.default_rng(53).integers(1, 10, size=24) * np.resize([1.0, -1.0, -1.0], 24)
    model = qubo_model({}, lin, offset=4.0)
    solution = solve_exact(model)
    assert solution.bits.tolist() == (lin < 0).astype(int).tolist()
    assert solution.energy == 4.0 + lin[lin < 0].sum()


@st.composite
def reduction_models(draw) -> QuboModel:
    """Models on 0-12 variables, integer or float, some variables without pairs.

    Linear terms may be 0.0, so a reference weight can come out as -0.0 (a
    variable with no pairs and lin 0.0) or cancel to exactly 0.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    coefficient = integer_coefficients if draw(st.booleans()) else coefficients
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not {i, j} & isolated]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    linear = st.one_of(st.just(0.0), coefficient)
    return qubo_model(
        {key: draw(coefficient) for key in keys},
        draw(st.lists(linear, min_size=n, max_size=n)),
        draw(coefficient),
    )


def assert_same_reductions(model: QuboModel) -> None:
    """Both reductions store the same bytes as their dict oracles."""
    graph = qubo_to_maxcut(model)
    want = naive_qubo_to_maxcut(model)
    assert graph.weights.tobytes() == want.weights.tobytes()
    assert graph.offset == want.offset
    again = graph_to_qubo(graph)
    oracle = naive_graph_to_qubo(graph)
    assert again.pairs.tobytes() == oracle.pairs.tobytes()
    assert again.lin.tobytes() == oracle.lin.tobytes()
    assert (again.offset, again.semantics) == (oracle.offset, oracle.semantics)


@settings(max_examples=200, deadline=None)
@given(reduction_models())
# variable 1 has no pairs and lin 0.0: its reference weight is -0.0 before it is stored
@example(qubo_model({}, (1.0, 0.0)))
# lin[0] = -1 cancels the half pair sum 1 exactly
@example(qubo_model({(0, 1): 2.0}, (-1.0, 0.0)))
def test_reductions_store_the_same_bytes_as_the_dict_oracles(model):
    assert_same_reductions(model)


@settings(max_examples=100, deadline=None)
@given(float_graphs())
def test_graph_to_qubo_stores_the_same_bytes_as_the_dict_oracle(graph):
    got, want = graph_to_qubo(graph), naive_graph_to_qubo(graph)
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.lin.tobytes() == want.lin.tobytes()
    assert (got.offset, got.semantics) == (want.offset, want.semantics)


def test_reductions_store_the_same_bytes_as_the_dict_oracles_on_the_bundled_instances():
    files = sorted(path for path in DATA_DIR.glob("*/*.txt") if path.name != "optima.txt")
    assert len(files) == 6
    for path in files:
        kind = path.parent.name
        assert_same_reductions(build_model(load_instance(kind, path), PipelineConfig(kind=kind)))
    synth = load_instance("mdkp", DATA_DIR / "mdkp" / "synth24x4.txt")
    assert_same_reductions(build_model(synth, PipelineConfig(kind="mdkp", use_slack=True)))
