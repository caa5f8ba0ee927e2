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
    MisInstance,
    QapInstance,
    QuboModel,
    EmbeddingVectors,
    Solution,
    SuperNode,
    coefficient_scale,
    default_rank,
    evaluate_qubo,
    sdp_objective,
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
    upper = model.quad_matrix()
    lin = np.asarray(model.lin)
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


def naive_weighted_degrees(graph: MaxCutGraph, absolute: bool = False) -> list[float]:
    degrees = [0.0] * graph.n_nodes
    for (i, j), w in graph.edges.items():
        value = abs(w) if absolute else w
        degrees[i] += value
        degrees[j] += value
    return degrees


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
    upper = model.quad_matrix()
    sym = upper + upper.T
    lin = np.asarray(model.lin)

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
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    seed: int = 0,
) -> EmbeddingVectors:
    """Mixing-method coordinate ascent with per-node bookkeeping.

    The same initialization, ascending neighbour order and updates as
    ``solve_maxcut_sdp``, written as the direct loop: each node takes
    ``np.linalg.norm`` of its gradient and of its own move, and every sweep
    calls ``sdp_objective``. ``solve_maxcut_sdp`` must return the same
    vectors, history and sweep count.
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
    for (i, j), w in sorted(graph.edges.items()):
        neighbors[i].append(j)
        weights[i].append(w)
        neighbors[j].append(i)
        weights[j].append(w)
    nbr_idx = [np.array(nb, dtype=int) for nb in neighbors]
    nbr_w = [np.array(ws) for ws in weights]

    history: list[float] = []
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        max_move = 0.0
        for i in range(n):
            if nbr_idx[i].size == 0:
                continue
            g = nbr_w[i] @ vectors[nbr_idx[i]]
            norm = np.linalg.norm(g)
            if norm < 1e-12:
                continue
            new_v = -g / norm
            move = np.linalg.norm(new_v - vectors[i])
            if move > max_move:
                max_move = move
            vectors[i] = new_v
        history.append(sdp_objective(graph, vectors @ vectors.T))
        if max_move < tol:
            break
    return EmbeddingVectors(
        vectors=vectors, rank=rank, objective_history=tuple(history), sweeps_used=sweeps
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


def brute_maxcut_value(graph: MaxCutGraph) -> float:
    """Maximum cut weight by enumerating spin assignments (reference fixed +1)."""
    best = -np.inf
    n = graph.n_nodes
    for counter in range(1 << max(0, n - 1)):
        spins = [1] + [1 - 2 * ((counter >> i) & 1) for i in range(n - 1)]
        best = max(best, naive_cut_value(graph, spins))
    return float(best)


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
    lin = tuple(float(rng.integers(-bound, bound + 1)) for _ in range(n))
    offset = float(rng.integers(-bound, bound + 1))
    return QuboModel(
        n_vars=n,
        quad=quad,
        lin=lin,
        offset=offset,
        semantics=tuple(("spin", i) for i in range(n)),
    )


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
    return MaxCutGraph(
        n_nodes=n,
        edges=edges,
        offset=float(rng.integers(-bound, bound + 1)),
        var_map={v + 1: v for v in range(n - 1)},
    )


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
