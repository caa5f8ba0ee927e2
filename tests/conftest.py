"""Shared fixtures and deliberately naive reference oracles.

The oracles recompute everything by direct enumeration or textbook formulas,
independent of the library's vectorized implementations, so tests compare
two different computational paths.
"""

from __future__ import annotations

import importlib.util
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from shrinkcut import (
    MaxCutGraph,
    MdkpInstance,
    MergeStep,
    MisInstance,
    QapInstance,
    QuboModel,
    EmbeddingVectors,
    RepairReport,
    Solution,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    coefficient_scale,
    default_rank,
    evaluate_qubo,
    graph_to_json,
    model_to_json,
    parse_mdkp,
    parse_mis_edgelist,
    parse_qaplib,
    qubo_to_maxcut,
    serialize_mdkp,
    serialize_mis_edgelist,
    serialize_qaplib,
    slack_bit_count,
    solve_maxcut_sdp,
)
from shrinkcut.sdp import class_sweep_order

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def generator():
    """scripts/generate_instances.py, loaded as a module."""
    path = DATA_DIR.parent / "scripts" / "generate_instances.py"
    spec = importlib.util.spec_from_file_location("generate_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def transposition_conflict_graph(bits: int) -> MisInstance:
    """1tc.<2**bits> from scripts/generate_instances.py (not bundled)."""
    return generator().transposition_conflict_graph(bits)


def tc64() -> MisInstance:
    """1tc.64 (64 vertices)."""
    return transposition_conflict_graph(6)


# ---------------------------------------------------------------------------
# models and graphs from term dicts
# ---------------------------------------------------------------------------


def qubo_model(quad: dict, lin, offset: float = 0.0, semantics=None) -> QuboModel:
    """QuboModel with quad[(i, j)] at pairs[i, j] (i < j); ("spin", i) tags by default."""
    n = len(lin)
    pairs = np.zeros((n, n))
    for (i, j), w in quad.items():
        pairs[i, j] = w
    if semantics is None:
        semantics = tuple(("spin", i) for i in range(n))
    return QuboModel(pairs, lin, offset, semantics)


def maxcut_graph(n: int, edges: dict, offset: float = 0.0) -> MaxCutGraph:
    """MaxCutGraph on n nodes with edges[(i, j)] at weights[i, j] and weights[j, i]."""
    weights = np.zeros((n, n))
    for (i, j), w in edges.items():
        weights[i, j] = weights[j, i] = w
    return MaxCutGraph(weights, offset)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def every_bitstring(n: int):
    """All 0/1 tuples of length n, in bit-counter order (bit i = variable i)."""
    for counter in range(1 << n):
        yield tuple((counter >> i) & 1 for i in range(n))


def naive_qubo_energy(model: QuboModel, x) -> float:
    """Energy by direct summation (no numpy dot products)."""
    energy = model.offset
    for i, value in enumerate(x):
        energy += model.lin[i] * value
    for (i, j), w in model.quad.items():
        energy += w * x[i] * x[j]
    return energy


def brute_qubo_minimum(model: QuboModel) -> tuple[tuple[int, ...], float]:
    """Global minimizer by enumeration; ties go to the lowest bit counter."""
    best_x = None
    best_e = np.inf
    for x in every_bitstring(model.n_vars):
        e = naive_qubo_energy(model, x)
        if e < best_e:
            best_e = e
            best_x = x
    return best_x, best_e


def naive_energy_chunks(model: QuboModel, chunk: int = 1 << 18):
    """Yield (first counter, energies) for all 2^n assignments, one row each.

    The direct form ``((B @ U) * B).sum(1) + B @ lin + offset`` over the
    bit-pattern rows B of ``chunk`` consecutive counters; ``_energy_chunks``
    must give the same energies in the same counter order.
    """
    n = model.n_vars
    upper, lin = model.pairs, model.lin
    total = 1 << n
    for start in range(0, total, chunk):
        counters = np.arange(start, min(start + chunk, total), dtype=np.int64)
        B = ((counters[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        yield start, ((B @ upper) * B).sum(axis=1) + B @ lin + model.offset


def brute_independence_number(inst: MisInstance) -> int:
    """Largest independent set size by enumerating every vertex subset."""
    edges = [(1 << u) | (1 << v) for u, v in inst.edges]
    return max(
        subset.bit_count()
        for subset in range(1 << inst.n)
        if all(subset & edge != edge for edge in edges)
    )


def naive_cut_value(graph: MaxCutGraph, spins) -> float:
    total = 0.0
    for (i, j), w in graph.edges.items():
        total += 0.5 * w * (1.0 - spins[i] * spins[j])
    return total


def naive_laplacian(graph: MaxCutGraph) -> list[list[float]]:
    """Textbook L = D - A with A = |w|, one edge at a time."""
    n = graph.n_nodes
    L = [[0.0] * n for _ in range(n)]
    for (i, j), w in graph.edges.items():
        value = abs(w)
        L[i][j] -= value
        L[j][i] -= value
        L[i][i] += value
        L[j][j] += value
    return L


def naive_sdp_objective(graph: MaxCutGraph, X) -> float:
    total = 0.0
    for (i, j), w in graph.edges.items():
        total += 0.5 * w * (1.0 - X[i][j])
    return total


def naive_replay(steps: tuple[MergeStep, ...], spins: dict[int, int]) -> dict[int, int]:
    """Assign spins to absorbed nodes by unwinding a merge log.

    ``spins`` maps surviving original node ids to +/-1. Steps are replayed
    newest-first; each sets spin(i) = sigma * spin(j). A step whose survivor
    has no spin yet, or whose absorbed node already has one, is an error.
    """
    assigned = dict(spins)
    for value in assigned.values():
        if value not in (1, -1):
            raise ValueError(f"spins must be +1 or -1, got {value}")
    for step in reversed(steps):
        if step.j not in assigned:
            raise ValueError(
                f"merge step {step.order}: survivor node {step.j} has no spin assigned"
            )
        if step.i in assigned:
            raise ValueError(
                f"merge step {step.order}: absorbed node {step.i} already has a spin"
            )
        assigned[step.i] = step.sigma * assigned[step.j]
    return assigned


def naive_effective_correlation(a: list[int], b: list[int], sign, correlations) -> float:
    """Mean sign-adjusted correlation over all member pairs of two supernodes.

    ``a`` and ``b`` are member lists; ``sign[v]`` is node v's relative spin.
    """
    sa, sb = np.asarray(sign, dtype=float)[a], np.asarray(sign, dtype=float)[b]
    block = correlations[np.ix_(a, b)]
    return float(np.mean(sa[:, None] * sb[None, :] * block))


def summary_from_scratch(node_summaries, members: list[int]):
    """A supernode's penalty summary rebuilt from its member list alone.

    ``node_summaries`` is ``penalty_summaries``' (summary by node id, combine
    rule); the members' summaries are combined in list order. MIS and QAP
    masks OR together, so any order gives the same bits; MDKP's float sums
    round differently from ``WorkingGraph.contract``'s pairwise fold, which
    ``replay_summaries`` reproduces bit for bit.
    """
    parts, combine = node_summaries
    return reduce(combine, [parts[v] for v in members])


def replay_summaries(node_summaries, ids, merges) -> dict:
    """Each supernode's penalty summary, replayed from a merge log: {supernode id: summary}.

    Starts with one summary per id in ``ids`` and, for each ``(absorbed,
    survivor, ...)`` in order, combines the survivor's summary with the
    absorbed one's, survivor first: the pairwise rule that
    ``WorkingGraph.contract`` folds by, so the two must agree bit for bit.
    """
    parts, combine = node_summaries
    summary = {v: parts[v] for v in ids}
    for absorbed, survivor, *_ in merges:
        summary[survivor] = combine(summary[survivor], summary.pop(absorbed))
    return summary


def supernode_members(working) -> list[list[int]]:
    """Each surviving supernode's original nodes, ascending, taken from ``working.rep``."""
    return [np.flatnonzero(working.rep == i).tolist() for i in working.nodes()]


def tag_decode_solution(model: QuboModel, bits) -> np.ndarray:
    """QUBO bits read through the model's semantics tags alone.

    The pipeline decodes by each kind's variable layout and never reads the
    tags; this oracle maps ("item", i), ("vertex", v) and ("assign", i, j)
    to their slots one tag at a time, so the two agree only where a
    builder's tags and its record's layout do. Slack bits are dropped.
    """
    bits = np.asarray(bits, dtype=int)
    if bits.shape != (model.n_vars,):
        raise ValueError(f"bits have shape {bits.shape}, expected ({model.n_vars},)")
    kinds = {tag[0] for tag in model.semantics}
    if kinds <= {"item", "slack"}:
        items = [(tag[1], i) for i, tag in enumerate(model.semantics) if tag[0] == "item"]
        out = np.zeros(len(items), dtype=int)
        for item, var in items:
            out[item] = bits[var]
        return out
    if kinds == {"vertex"}:
        out = np.zeros(model.n_vars, dtype=int)
        for var, tag in enumerate(model.semantics):
            out[tag[1]] = bits[var]
        return out
    assert kinds == {"assign"}, kinds
    n = int(round(np.sqrt(model.n_vars)))
    out = np.zeros((n, n), dtype=int)
    for var, tag in enumerate(model.semantics):
        out[tag[1], tag[2]] = bits[var]
    return out


def tag_penalty_summaries(inst, node_tags: dict[int, tuple]) -> list:
    """Each Max-Cut node's merge-penalty summary by node id, read from semantics tags.

    ``node_tags`` maps node ids to tags. ("item", i) takes item i's capacity
    share mean_j(w_ji / C_j), ("vertex", u) u's (vertex mask, neighbour
    mask) and ("assign", i, j) the cell's row-and-column mask twice; the
    reference node 0 and slack bits hold 0.0 (MDKP) or (0, 0). The list is
    ``max(node_tags) + 1`` long. ``penalty_summaries`` builds the same list
    by position, from the kind's record.
    """
    identity: object = (0, 0)
    if isinstance(inst, MdkpInstance):
        shares = np.mean(inst.weights / inst.capacities[:, None], axis=0).tolist()
        read = {"item": lambda tag: shares[tag[1]]}
        identity = 0.0
    elif isinstance(inst, MisInstance):
        adjacency = inst.adjacency()
        read = {"vertex": lambda tag: (1 << tag[1], sum(1 << v for v in adjacency[tag[1]]))}
    else:
        read = {"assign": lambda tag: (1 << tag[1] | 1 << (inst.n + tag[2]),) * 2}
    parts = {node: read[tag[0]](tag) for node, tag in node_tags.items() if tag[0] in read}
    size = max(node_tags, default=0) + 1
    return [parts.get(node, identity) for node in range(size)]


def assert_same_summaries(inst, got, want) -> None:
    """``got`` holds ``want``'s penalty summaries bit for bit, in ``inst``'s kind's form.

    MDKP's are one float64 vector of capacity shares, which the merge score
    broadcasts over; MIS's and QAP's are a list of Python bitmask tuples,
    scored pair by pair. ``want`` may be a list, a vector or any sequence.
    """
    if isinstance(inst, MdkpInstance):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert np.array_equal(got, want)
    else:
        assert type(got) is list and [type(s) for s in got] == [type(s) for s in want]
        assert got == list(want)


def _decision_tags(members: list[int], node_tags: dict[int, tuple]) -> list[tuple]:
    return [node_tags[v] for v in members if v in node_tags]


def naive_pi_mis(
    a: list[int], b: list[int], inst: MisInstance, node_tags: dict[int, tuple]
) -> float:
    """1.0 when a conflict edge runs between the two supernodes, else 0.0.

    Builds both vertex sets and the instance's whole adjacency on every call;
    the MIS scorer of ``make_penalty`` on the two folded summaries must give
    the same value for every pair.
    """
    tags_a = _decision_tags(a, node_tags)
    tags_b = _decision_tags(b, node_tags)
    verts_a = {tag[1] for tag in tags_a if tag[0] == "vertex"}
    verts_b = {tag[1] for tag in tags_b if tag[0] == "vertex"}
    if not verts_a or not verts_b:
        return 0.0
    adjacency = inst.adjacency()
    for u in verts_a:
        if adjacency[u] & verts_b:
            return 1.0
    return 0.0


def naive_pi_mdkp(
    a: list[int], b: list[int], inst: MdkpInstance, node_tags: dict[int, tuple]
) -> float:
    """Mean fractional capacity the merged item set would consume, over all rows.

    Sums the item columns of both supernodes and divides by the capacities
    on every call; slack bits and the reference node are ignored. The MDKP
    scorer of ``make_penalty`` on the two folded summaries must agree for
    every pair, up to rounding.
    """
    items = [
        tag[1]
        for tag in _decision_tags(a, node_tags) + _decision_tags(b, node_tags)
        if tag[0] == "item"
    ]
    if not items:
        return 0.0
    used = inst.weights[:, items].sum(axis=1)
    return float(np.mean(used / inst.capacities))


def naive_pi_qap(
    a: list[int], b: list[int], inst: QapInstance, node_tags: dict[int, tuple]
) -> float:
    """1.0 when the supernodes share a facility or a location, else 0.0.

    Builds both row and column sets on every call; the QAP scorer of
    ``make_penalty`` on the two folded summaries must give the same value for
    every pair.
    """
    assigns_a = [tag for tag in _decision_tags(a, node_tags) if tag[0] == "assign"]
    assigns_b = [tag for tag in _decision_tags(b, node_tags) if tag[0] == "assign"]
    rows_a = {t[1] for t in assigns_a}
    cols_a = {t[2] for t in assigns_a}
    rows_b = {t[1] for t in assigns_b}
    cols_b = {t[2] for t in assigns_b}
    if (rows_a & rows_b) or (cols_a & cols_b):
        return 1.0
    return 0.0


def naive_repair_mis(inst: MisInstance, x) -> RepairReport:
    """``repair_mis`` as a restart loop: rescan the sorted edges from the start after every drop.

    Each round drops the higher-degree endpoint (ties: the higher index) of
    the first violated edge; ``repair_mis`` must return the same bits and
    round count.
    """
    bits = np.asarray(x).reshape(inst.n).astype(int).copy()
    adjacency = inst.adjacency()
    edges = sorted(inst.edges)
    iterations = 0
    while True:
        conflict = None
        for u, v in edges:
            if bits[u] == 1 and bits[v] == 1:
                conflict = (u, v)
                break
        if conflict is None:
            break
        u, v = conflict
        drop = u if len(adjacency[u]) > len(adjacency[v]) else v
        bits[drop] = 0
        iterations += 1
    return RepairReport(bits=bits, iterations=iterations)


def naive_local_search_mdkp(inst: MdkpInstance, solution) -> np.ndarray:
    """MDKP local search as a restart loop: rescan from item 0 after every addition."""
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    loads = inst.weights @ bits
    improved = True
    while improved:
        improved = False
        for i in range(inst.n):
            if bits[i] == 1 or inst.profits[i] <= 0:
                continue
            if np.all(loads + inst.weights[:, i] <= inst.capacities):
                bits[i] = 1
                loads = loads + inst.weights[:, i]
                improved = True
                break
    return bits


def naive_local_search_mis(inst: MisInstance, solution) -> np.ndarray:
    """MIS local search as a restart loop: rescan from vertex 0 after every addition."""
    bits = np.asarray(solution).reshape(inst.n).astype(int).copy()
    adjacency = inst.adjacency()
    improved = True
    while improved:
        improved = False
        for v in range(inst.n):
            if bits[v] == 0 and not any(bits[u] for u in adjacency[v]):
                bits[v] = 1
                improved = True
                break
    return bits


def naive_solve_sa(
    model: QuboModel,
    seed: int = 0,
    sweeps: int | None = None,
    t_start: float | None = None,
    t_end: float | None = None,
) -> Solution:
    """Metropolis annealing on numpy scalars: dense field updates and ``np.exp``.

    The same schedule, draws and best-state tracking as ``solve_sa``, written
    as the direct per-variable loop; ``solve_sa`` must return the same bits
    and energy.
    """
    n = model.n_vars
    if n == 0:
        return Solution(bits=np.zeros(0, dtype=int), energy=model.offset)
    if sweeps is None:
        sweeps = 200 * n
    scale = coefficient_scale(model)
    if t_start is None:
        t_start = scale
    if t_end is None:
        t_end = 1e-3 * scale

    rng = np.random.default_rng(seed)
    sym = model.pairs + model.pairs.T
    lin = model.lin

    x = rng.integers(0, 2, size=n)
    fields = sym @ x
    energy = evaluate_qubo(model, x)
    best_bits = x.copy()
    best_energy = energy

    if sweeps == 1:
        temperatures = np.array([t_start])
    else:
        temperatures = t_start * (t_end / t_start) ** (np.arange(sweeps) / (sweeps - 1))

    for temperature in temperatures:
        accept_draws = rng.random(n)
        for i in range(n):
            delta = (1 - 2 * x[i]) * (lin[i] + fields[i])
            if delta <= 0 or accept_draws[i] < np.exp(-delta / temperature):
                step = 1 - 2 * x[i]
                x[i] += step
                fields += sym[:, i] * step
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best_bits = x.copy()

    return Solution(bits=best_bits, energy=evaluate_qubo(model, best_bits))


def naive_solve_maxcut_sdp(
    graph: MaxCutGraph,
    rank: int | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
    seed: int = 0,
    initial: np.ndarray | None = None,
    order: list[int] | None = None,
) -> EmbeddingVectors:
    """Mixing-method coordinate ascent with per-node bookkeeping.

    The same initialization (a copy of ``initial`` if given, whose width is
    the rank, else seeded normals), ascending neighbour order, updates and
    stopping rule as ``solve_maxcut_sdp``, written as the direct loop: each
    sweep visits the nodes one at a time in ``order`` (default ascending),
    each node takes ``np.linalg.norm`` of its gradient, and the objective is
    summed one edge at a time from ``graph.edges`` in ascending key order,
    before the first sweep and after every sweep. It stops once a sweep
    raises the objective by at most ``tol`` times its new value. On a graph
    that ``solve_maxcut_sdp`` sweeps node by node, it must return the same
    vectors, history and sweep count; on one it sweeps by colour classes,
    the oracle visiting the nodes in class order must take the same number
    of sweeps to vectors within rounding.
    """
    n = graph.n_nodes
    if initial is not None:
        vectors = np.array(initial, dtype=float)
        rank = vectors.shape[1]
    else:
        if rank is None:
            rank = default_rank(n)
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, rank))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

    neighbors: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    # in ascending (i, j) key order every node's list comes out ascending
    edges = sorted(graph.edges.items())
    for (i, j), w in edges:
        neighbors[i].append(j)
        weights[i].append(w)
        neighbors[j].append(i)
        weights[j].append(w)
    nbr_idx = [np.array(nb, dtype=int) for nb in neighbors]
    nbr_w = [np.array(ws) for ws in weights]

    def objective() -> float:
        terms = [w * (1.0 - float(np.sum(vectors[i] * vectors[j]))) for (i, j), w in edges]
        return 0.5 * float(np.sum(np.array(terms, dtype=float)))

    history: list[float] = []
    previous = objective()
    for _ in range(max_sweeps):
        for i in range(n) if order is None else order:
            if nbr_idx[i].size == 0:
                continue
            g = nbr_w[i] @ vectors[nbr_idx[i]]
            norm = np.linalg.norm(g)
            if norm < 1e-12:
                continue
            vectors[i] = -g / norm
        current = objective()
        history.append(current)
        if current - previous <= tol * abs(current):
            break
        previous = current
    return EmbeddingVectors(vectors=vectors, objective_history=tuple(history))


def assert_same_embedding(graph, **options):
    """``solve_maxcut_sdp`` against the loop oracle visiting the nodes in the same order.

    On the node loop the two agree bit for bit. A class sweep sums each
    gradient in one matrix product instead of one product per node, so there
    the two take the same sweeps to vectors within 1e-12 and objectives
    within 1e-12 of the total absolute edge weight. The stop rule compares
    each gain with ``tol`` times the objective, so a run whose gain at the
    other's last sweep exceeds that threshold by no more than the objective
    agreement may stop later; the two are then compared over the sweeps both
    take. Any other difference in the sweep counts fails.
    """
    got = solve_maxcut_sdp(graph, **options)
    classes = class_sweep_order(graph.weights)
    if classes is None:
        want = naive_solve_maxcut_sdp(graph, **options)
        assert np.array_equal(got.vectors, want.vectors)
        assert got.objective_history == want.objective_history
        assert got.sweeps_used == want.sweeps_used
        return got
    order = np.concatenate(classes).tolist()
    want = naive_solve_maxcut_sdp(graph, order=order, **options)
    agreement = 1e-12 * max(1.0, float(np.sum(np.abs(list(graph.edges.values())))))
    first = got
    if got.sweeps_used != want.sweeps_used:
        shorter, longer = sorted((got, want), key=lambda run: run.sweeps_used)
        last = shorter.sweeps_used
        start = naive_solve_maxcut_sdp(graph, **{**options, "max_sweeps": 0}).vectors
        initial = 0.5 * sum(w * (1.0 - start[i] @ start[j]) for (i, j), w in graph.edges.items())
        history = (initial, *longer.objective_history)
        gain = history[last] - history[last - 1]
        assert gain - options.get("tol", 1e-10) * abs(history[last]) <= agreement
        capped = {**options, "max_sweeps": last}
        got = solve_maxcut_sdp(graph, **capped)
        want = naive_solve_maxcut_sdp(graph, order=order, **capped)
    assert got.sweeps_used == want.sweeps_used
    assert np.abs(got.vectors - want.vectors).max() <= 1e-12
    gaps = np.subtract(got.objective_history, want.objective_history)
    assert np.abs(gaps).max() <= agreement
    return first


class NaiveWorkingGraph:
    """Dict-of-dicts working graph with one-edge-at-a-time contraction.

    The reference for ``WorkingGraph``: the same ids, edges, weights and
    offset after every contraction, walking neighbour dicts instead of rows.
    """

    def __init__(self, graph: MaxCutGraph) -> None:
        self.adj: dict[int, dict[int, float]] = {v: {} for v in range(graph.n_nodes)}
        for (i, j), w in graph.edges.items():
            self.adj[i][j] = w
            self.adj[j][i] = w
        self.offset = graph.offset

    def contract(self, i: int, j: int, sigma: int) -> float:
        nbrs_i = self.adj.pop(i)
        constant = (1.0 - sigma) / 2.0 * sum(nbrs_i.values())
        self.offset -= constant
        for k, w in nbrs_i.items():
            del self.adj[k][i]
            if k == j:
                continue
            merged = self.adj[j].get(k, 0.0) + sigma * w
            if merged == 0.0:
                self.adj[j].pop(k, None)
                self.adj[k].pop(j, None)
            else:
                self.adj[j][k] = merged
                self.adj[k][j] = merged
        return constant

    def edges(self) -> dict[tuple[int, int], float]:
        """Every edge once, keyed by (smaller id, larger id)."""
        return {(i, j): w for i, nbrs in self.adj.items() for j, w in nbrs.items() if i < j}


def naive_qubo_to_maxcut(model: QuboModel) -> MaxCutGraph:
    """The reduction one dict entry at a time, dropping edges of weight 0.

    Only the per-variable pair sums come from the array, so float rounding
    matches ``qubo_to_maxcut``'s and the two must store the same bytes.
    """
    Q = model.pairs
    quad_row_sum = (Q + Q.T).sum(axis=1)
    edges = {(i + 1, j + 1): w / 2.0 for (i, j), w in model.quad.items()}
    for v in range(model.n_vars):
        edges[(0, v + 1)] = -model.lin[v] - 0.5 * quad_row_sum[v]
    edges = {k: w for k, w in edges.items() if w != 0.0}
    return maxcut_graph(model.n_vars + 1, edges, model.offset)


def naive_graph_to_qubo(graph: MaxCutGraph) -> QuboModel:
    """The inverse reduction one dict entry at a time (row sums from the array, as above)."""
    quad = {(i - 1, j - 1): 2.0 * w for (i, j), w in graph.edges.items() if i >= 1}
    lin = np.zeros(graph.n_nodes - 1) - graph.weights[1:].sum(axis=1)
    semantics = tuple(("spin", node) for node in range(1, graph.n_nodes))
    return qubo_model(quad, lin, graph.offset, semantics)


def brute_maxcut_value(graph: MaxCutGraph) -> float:
    """Maximum cut weight by enumerating spin assignments (reference fixed +1)."""
    best = -np.inf
    n = graph.n_nodes
    for counter in range(1 << max(0, n - 1)):
        spins = [1] + [1 - 2 * ((counter >> i) & 1) for i in range(n - 1)]
        best = max(best, naive_cut_value(graph, spins))
    return float(best)


# ---------------------------------------------------------------------------
# term-loop QUBO builders
# ---------------------------------------------------------------------------


class _TermAccumulator:
    """Sparse coefficient accumulator; drops exact zeros when it builds the model."""

    def __init__(self, semantics: list) -> None:
        self.semantics = semantics
        self.quad: dict[tuple[int, int], float] = {}
        self.lin = np.zeros(len(semantics))
        self.offset = 0.0

    def add_quad(self, i: int, j: int, w: float) -> None:
        if i == j:
            self.lin[i] += w  # x_i^2 = x_i for binary variables
            return
        key = (i, j) if i < j else (j, i)
        self.quad[key] = self.quad.get(key, 0.0) + w

    def build(self) -> QuboModel:
        quad = {k: w for k, w in self.quad.items() if w != 0.0}
        return qubo_model(quad, self.lin, float(self.offset), tuple(self.semantics))


def naive_build_mdkp_qubo(inst: MdkpInstance, P: float, use_slack: bool = False) -> QuboModel:
    """MDKP QUBO term by term: one pair loop per capacity row over its nonzero terms."""
    semantics: list = [("item", i) for i in range(inst.n)]
    slack_vars: list[list[tuple[int, float]]] = []  # per constraint: (var index, 2^k)
    if use_slack:
        for j in range(inst.m):
            bits = []
            for k in range(slack_bit_count(inst.capacities[j])):
                bits.append((len(semantics), float(2**k)))
                semantics.append(("slack", j, k))
            slack_vars.append(bits)
    acc = _TermAccumulator(semantics)
    for i in range(inst.n):
        acc.lin[i] -= inst.profits[i]
    for j in range(inst.m):
        terms = [(i, float(inst.weights[j, i])) for i in range(inst.n) if inst.weights[j, i] != 0]
        if use_slack:
            terms.extend(slack_vars[j])
        C = float(inst.capacities[j])
        # P * (sum_a c_a x_a - C)^2 expanded with x^2 = x
        for a, (va, ca) in enumerate(terms):
            acc.lin[va] += P * (ca * ca - 2.0 * C * ca)
            for vb, cb in terms[a + 1:]:
                acc.add_quad(va, vb, 2.0 * P * ca * cb)
        acc.offset += P * C * C
    return acc.build()


def naive_build_mis_qubo(inst: MisInstance, P: float) -> QuboModel:
    """MIS QUBO term by term: -1 per vertex, P per edge."""
    acc = _TermAccumulator([("vertex", v) for v in range(inst.n)])
    for v in range(inst.n):
        acc.lin[v] -= 1.0
    for u, v in inst.edges:
        acc.add_quad(u, v, P)
    return acc.build()


def naive_build_qap_qubo(inst: QapInstance, P: float) -> QuboModel:
    """QAP QUBO term by term: a fourfold (i, k, j, l) loop, then a pair loop per one-hot group."""
    n = inst.n
    acc = _TermAccumulator([("assign", i, j) for i in range(n) for j in range(n)])
    for i in range(n):
        for k in range(n):
            f = float(inst.flow[i, k])
            if f == 0:
                continue
            for j in range(n):
                for l in range(n):
                    d = float(inst.distance[j, l])
                    if d != 0:
                        acc.add_quad(i * n + j, k * n + l, f * d)
    # one-hot penalties: (sum - 1)^2 = sum + 2*sum_pairs - 2*sum + 1
    groups = [[i * n + j for j in range(n)] for i in range(n)]  # rows
    groups += [[i * n + j for i in range(n)] for j in range(n)]  # columns
    for members in groups:
        for a, va in enumerate(members):
            acc.lin[va] -= P
            for vb in members[a + 1:]:
                acc.add_quad(va, vb, 2.0 * P)
        acc.offset += P
    return acc.build()


# ---------------------------------------------------------------------------
# random problem factories
# ---------------------------------------------------------------------------


def random_qubo(rng: np.random.Generator, n: int, bound: int = 9) -> QuboModel:
    """Random integer-coefficient QUBO with generic spin semantics."""
    quad = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = int(rng.integers(-bound, bound + 1))
            if w != 0:
                quad[(i, j)] = float(w)
    lin = [float(rng.integers(-bound, bound + 1)) for _ in range(n)]
    return qubo_model(quad, lin, float(rng.integers(-bound, bound + 1)))


def random_graph(
    rng: np.random.Generator, n: int, density: float = 0.7, bound: int = 9
) -> MaxCutGraph:
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = int(rng.integers(-bound, bound + 1))
                if w != 0:
                    edges[(i, j)] = float(w)
    return maxcut_graph(n, edges, float(rng.integers(-bound, bound + 1)))


def random_mis(rng: np.random.Generator, n: int, density: float = 0.3) -> MisInstance:
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    )
    return MisInstance(n=n, edges=edges)


# ---------------------------------------------------------------------------
# worked-example fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def mdkp_tiny() -> MdkpInstance:
    """3 items, one capacity row; optimum 12 at items {0, 1}."""
    return MdkpInstance(
        n=3,
        m=1,
        profits=np.array([5.0, 7.0, 4.0]),
        weights=np.array([[2.0, 3.0, 4.0]]),
        capacities=np.array([5.0]),
        known_optimum=12.0,
    )


@pytest.fixture
def mis_triangle() -> MisInstance:
    return MisInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), known_optimum=1.0)


@pytest.fixture
def qap_pair() -> QapInstance:
    """Two facilities with flow 5, two locations at distance 2; optimum 20."""
    return QapInstance(
        n=2,
        flow=np.array([[0.0, 5.0], [5.0, 0.0]]),
        distance=np.array([[0.0, 2.0], [2.0, 0.0]]),
        known_optimum=20.0,
    )


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


# ---------------------------------------------------------------------------
# malformed-input strategies
# ---------------------------------------------------------------------------

# one small valid instance per kind, with its parser and writer
INSTANCE_TEXTS = {
    "mdkp": "3 1 12\n5 7 4\n2 3 4\n5\n",
    "mis": "3\n1 2\n1 3\n2 3\n",
    "qap": "2\n0 5\n5 0\n0 2\n2 0\n",
}
PARSERS = {"mdkp": parse_mdkp, "mis": parse_mis_edgelist, "qap": parse_qaplib}
WRITERS = {"mdkp": serialize_mdkp, "mis": serialize_mis_edgelist, "qap": serialize_qaplib}
BUILDERS = {"mdkp": build_mdkp_qubo, "mis": build_mis_qubo, "qap": build_qap_qubo}

# tokens that are negative, fractional, non-finite, overflowing, hexadecimal,
# a comment mark or a word, beside a few plain counts
ODD_TOKENS = (
    "-1", "-0", "0", "1", "2", "7", "1.5", "2e0", "1e21", "1e400", "nan", "-inf", "0x10", "#", "abc"
)

# JSON values of every type, with integers past int64 and floats that json
# writes as NaN and Infinity; weights stay small enough for the SDP not to overflow
json_scalars = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 3, 2**63, -(2**70), 0.5, -2.5, 1e19]
    + [float("nan"), float("inf"), "", "0", "x"]
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "bits"]), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def malformed_instance_texts(draw) -> tuple[str, str]:
    """(kind, text): a small valid instance after one to four token or line edits."""
    kind = draw(st.sampled_from(sorted(INSTANCE_TEXTS)))
    lines = [line.split() for line in INSTANCE_TEXTS[kind].splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append([])
        # half the edits hit the header line, where the counts are
        row = draw(st.just(0) | st.integers(0, len(lines) - 1))
        line = lines[row]
        edits = ["replace", "replace", "insert", "delete", "drop line", "repeat line", "join lines"]
        edit = draw(st.sampled_from(edits))
        if edit == "replace" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(ODD_TOKENS)))
        elif edit == "delete" and line:
            del line[draw(st.integers(0, len(line) - 1))]
        elif edit == "drop line":
            del lines[row]
        elif edit == "repeat line":
            lines.insert(row, list(line))
        elif edit == "join lines" and row:
            lines[row - 1] += lines.pop(row)
    end = draw(st.sampled_from(["", "\n"]))
    return kind, "\n".join(" ".join(line) for line in lines) + end


def valid_json_documents(kind: str) -> dict[str, dict]:
    """The solution, QUBO model and Max-Cut graph documents of INSTANCE_TEXTS[kind]."""
    model = BUILDERS[kind](PARSERS[kind](INSTANCE_TEXTS[kind]), 10.0)
    return {
        "solution": {"instance": kind, "bits": [0] * model.n_vars},
        "model": json.loads(model_to_json(model)),
        "graph": json.loads(graph_to_json(qubo_to_maxcut(model))),
    }


@st.composite
def malformed_json_texts(draw, document: dict) -> str:
    """``document`` after one to three edits: a field replaced or dropped, a list
    entry replaced, dropped or added, or the whole document replaced; the text
    is sometimes cut short."""
    doc = json.loads(json.dumps(document))  # a deep copy
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict) or not doc or draw(st.integers(0, 9)) == 0:
            doc = draw(json_values)
            continue
        key = draw(st.sampled_from(sorted(doc)))
        field = doc[key]
        edit = draw(st.sampled_from(["replace", "drop", "entry", "entry"]))
        if edit == "replace":
            doc[key] = draw(json_values)
        elif edit == "drop":
            del doc[key]
        elif isinstance(field, list):
            # the entry itself, or one position of an edge or quadratic-term row
            target = field
            rows = [entry for entry in field if isinstance(entry, list)]
            if rows and draw(st.booleans()):
                target = draw(st.sampled_from(rows))
            spot = draw(st.integers(0, len(target)))
            action = draw(st.sampled_from(["set", "drop", "add"]))
            if action == "add" or spot == len(target):
                target.insert(spot, draw(json_scalars))
            elif action == "set":
                target[spot] = draw(json_scalars)
            else:
                del target[spot]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text
