"""Shared fixtures and deliberately naive reference oracles.

The oracles recompute everything by direct enumeration or textbook formulas,
independent of the library's vectorized implementations, so tests compare
two different computational paths.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    MdkpInstance,
    MergeStep,
    MisInstance,
    QapInstance,
    QuboModel,
    EmbeddingVectors,
    Solution,
    SuperNode,
    coefficient_scale,
    default_rank,
    evaluate_qubo,
    slack_bit_count,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def transposition_conflict_graph(bits: int) -> MisInstance:
    """1tc.<2**bits> from scripts/generate_instances.py (not bundled)."""
    path = DATA_DIR.parent / "scripts" / "generate_instances.py"
    spec = importlib.util.spec_from_file_location("generate_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.transposition_conflict_graph(bits)


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


def naive_cut_value(graph: MaxCutGraph, spins) -> float:
    total = 0.0
    for (i, j), w in graph.edges.items():
        total += 0.5 * w * (1.0 - spins[i] * spins[j])
    return total


def naive_laplacian(graph: MaxCutGraph, weight_mode: str = "absolute") -> list[list[float]]:
    """Textbook L = D - A, one edge at a time."""
    n = graph.n_nodes
    L = [[0.0] * n for _ in range(n)]
    for (i, j), w in graph.edges.items():
        value = abs(w) if weight_mode == "absolute" else w
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


def naive_effective_correlation(a: SuperNode, b: SuperNode, correlations) -> float:
    """Mean sign-adjusted correlation over all member pairs of two supernodes."""
    ua = np.fromiter(a.members.keys(), dtype=int, count=len(a.members))
    sa = np.fromiter(a.members.values(), dtype=float, count=len(a.members))
    ub = np.fromiter(b.members.keys(), dtype=int, count=len(b.members))
    sb = np.fromiter(b.members.values(), dtype=float, count=len(b.members))
    block = correlations[np.ix_(ua, ub)]
    return float(np.mean(sa[:, None] * sb[None, :] * block))


def naive_pi_mis(
    a: SuperNode, b: SuperNode, inst: MisInstance, node_tags: dict[int, tuple]
) -> float:
    """1.0 when a conflict edge runs between the two supernodes, else 0.0.

    Builds both vertex sets and the instance's whole adjacency on every call;
    the MIS scorer of ``make_penalty`` must give the same value for every pair.
    """
    tags_a = [node_tags[v] for v in a.members if v in node_tags]
    tags_b = [node_tags[v] for v in b.members if v in node_tags]
    verts_a = {tag[1] for tag in tags_a if tag[0] == "vertex"}
    verts_b = {tag[1] for tag in tags_b if tag[0] == "vertex"}
    if not verts_a or not verts_b:
        return 0.0
    adjacency = inst.adjacency()
    for u in verts_a:
        if adjacency[u] & verts_b:
            return 1.0
    return 0.0


def _decision_tags(sn: SuperNode, node_tags: dict[int, tuple]) -> list[tuple]:
    return [node_tags[v] for v in sn.members if v in node_tags]


def naive_pi_mdkp(
    a: SuperNode, b: SuperNode, inst: MdkpInstance, node_tags: dict[int, tuple]
) -> float:
    """Mean fractional capacity the merged item set would consume, over all rows.

    Sums the item columns of both supernodes and divides by the capacities
    on every call; slack bits and the reference node are ignored. The MDKP
    scorer of ``make_penalty`` must agree for every pair, up to rounding.
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
    a: SuperNode, b: SuperNode, inst: QapInstance, node_tags: dict[int, tuple]
) -> float:
    """1.0 when the supernodes share a facility or a location, else 0.0.

    Builds both row and column sets on every call; the QAP scorer of
    ``make_penalty`` must give the same value for every pair.
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
) -> EmbeddingVectors:
    """Mixing-method coordinate ascent with per-node bookkeeping.

    The same initialization, ascending neighbour order, updates and stopping
    rule as ``solve_maxcut_sdp``, written as the direct loop: each node takes
    ``np.linalg.norm`` of its gradient, and the objective is summed one edge
    at a time from ``graph.edges`` in ascending key order, before the first
    sweep and after every sweep. It stops once a sweep raises the objective
    by at most ``tol`` times its new value. ``solve_maxcut_sdp`` must return
    the same vectors, history and sweep count.
    """
    n = graph.n_nodes
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
        for i in range(n):
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
    return EmbeddingVectors(
        vectors=vectors, rank=rank, objective_history=tuple(history), sweeps_used=len(history)
    )


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


def naive_graph_to_qubo(graph: MaxCutGraph, semantics=None) -> QuboModel:
    """The inverse reduction one dict entry at a time (row sums from the array, as above)."""
    quad = {(i - 1, j - 1): 2.0 * w for (i, j), w in graph.edges.items() if i >= 1}
    lin = np.zeros(graph.n_nodes - 1) - graph.weights[1:].sum(axis=1)
    if semantics is None:
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
