"""Max-Cut semidefinite relaxation via low-rank coordinate ascent.

Spins z_i in {-1, +1} are relaxed to unit vectors v_i; the relaxed objective

    (1/2) sum_{(i,j) in E} w_ij (1 - v_i . v_j)

is maximized by cyclic coordinate updates: with g = sum_j w_ij v_j, the
optimal v_i given all others is -g / ||g||. Each update is an exact argmax,
so the objective is non-decreasing sweep over sweep. At rank
ceil(sqrt(2n)) + 1 the low-rank formulation attains the SDP optimum.
The Gram matrix X_ij = v_i . v_j is the correlation output consumed by the
shrinking stage.

The ascent starts from seeded random unit vectors, or from a given
embedding: the shrinking stage warm-starts every re-solve from the previous
solve's vectors, folded over the merges since, as the mixing method does
(Wang, Chang & Kolter, arXiv:1706.00476). It stops on the relative gain in
the objective, as the mixing method also does: with f_0 the objective of the
initial vectors and f_t its value after sweep t, it stops once
f_t - f_{t-1} <= tol * |f_t|, or after ``max_sweeps`` sweeps. The default
tol is 1e-10. The vectors can keep drifting along a flat face of the
objective long after its value has settled, so a stop on their displacement
may never fire. The objective is read once per sweep from the edge list, in
O(m * rank): the per-edge dot products v_i . v_j in ascending (i, j) order,
each summed over the rank, weighted by w_ij (1 - v_i . v_j) and summed, both
sums by numpy's pairwise ``sum``.

A sweep visits the nodes in one of two orders, chosen by density
(``class_sweep_order``). Nodes of one colour class share no edge, so
updating a whole class at once is an exact Gauss-Seidel pass over its nodes
(block coordinate ascent, Erdogdu et al., arXiv:1807.04428). With at least
three nodes per colour of a greedy colouring, a sweep updates the classes in
colour order, each by one matrix product, its row norms and one division.
Otherwise it visits the nodes in ascending order, and each update is one
gather-and-multiply over the node's neighbours (the nonzero entries of its
row of ``graph.weights``) in ascending order, then a division by -||g||.
The 1tc conflict graphs from 1tc.16 up take class sweeps; the MDKP and QAP
graphs, and 1tc.8, take the node loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .maxcut import MaxCutGraph
from .qubo import require_integer, require_number

_GRADIENT_FLOOR = 1e-12


@dataclass(frozen=True)
class EmbeddingVectors:
    """Unit-vector embedding produced by the relaxation solver."""

    vectors: np.ndarray            # shape (n_nodes, rank), rows unit length
    objective_history: tuple[float, ...] = field(default_factory=tuple)  # one value per sweep

    def __post_init__(self) -> None:
        _require_unit_rows(self.vectors)

    @property
    def sweeps_used(self) -> int:
        return len(self.objective_history)


def _require_unit_rows(vectors: np.ndarray) -> None:
    deviation = np.abs(np.linalg.norm(vectors, axis=1) - 1.0)
    if np.any(deviation > 1e-9):
        worst = deviation.max()
        raise ValueError(f"embedding rows must be unit vectors (worst deviation {worst:.2e})")


def default_rank(n_nodes: int) -> int:
    """Embedding rank sufficient for the rank-constrained optimum."""
    return max(2, int(ceil(sqrt(2.0 * n_nodes))) + 1)


def colour_classes(weights: np.ndarray, limit: int | None = None) -> list[np.ndarray] | None:
    """Greedy colouring of the nodes with an edge, in ascending node order.

    Each node takes the smallest colour that none of its lower neighbours
    (the nonzero entries of its row of ``weights``) holds. Returns one array
    per colour, in colour order, listing the class's nodes in ascending
    order; or None as soon as a node needs more than ``limit`` colours.
    """
    heads, tails = np.nonzero(np.tril(weights))
    starts = np.searchsorted(heads, np.arange(len(weights) + 1)).tolist()
    tails = tails.tolist()
    colours: dict[int, int] = {}
    classes: list[list[int]] = []
    for node in np.flatnonzero(weights.any(axis=1)).tolist():
        taken = {colours[j] for j in tails[starts[node] : starts[node + 1]]}
        colour = 0
        while colour in taken:
            colour += 1
        if colour == len(classes):
            if colour == limit:
                return None
            classes.append([])
        classes[colour].append(node)
        colours[node] = colour
    return [np.array(members) for members in classes]


def class_sweep_order(weights: np.ndarray) -> list[np.ndarray] | None:
    """The colour classes a solve sweeps one block at a time, or None for the node loop.

    A sweep goes by classes when the graph has edges and at least three
    nodes with an edge per colour of ``colour_classes``; below that, the
    per-class overhead outweighs the per-node calls it saves. The colouring
    stops at the first colour past that share.
    """
    active = np.count_nonzero(weights.any(axis=1))
    return colour_classes(weights, limit=active // 3) or None


def require_sdp_limits(tol: float, max_sweeps: int, prefix: str = "") -> None:
    """ValueError unless ``max_sweeps`` is an integer >= 1 (not a bool) and
    ``tol`` a finite number > 0.

    ``require_integer`` and ``require_number`` word the messages, naming each
    setting with ``prefix`` in front ("sdp_" for the shrink settings).
    """
    require_integer(prefix + "max_sweeps", max_sweeps, low=1)
    require_number(prefix + "tol", tol, 0, strict=True)


def solve_maxcut_sdp(
    graph: MaxCutGraph,
    rank: int | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> EmbeddingVectors:
    """Run the mixing coordinate ascent until a sweep raises the relaxed
    objective by at most ``tol`` times its new value, or for ``max_sweeps``
    sweeps.

    Deterministic for fixed (graph, rank, tol, seed, initial): the ascent
    starts from ``initial`` (one unit row per node; ``rank`` defaults to its
    width, ``seed`` is not used, and the array is copied, never written) or
    else from seeded componentwise normals (normalized). Updates visit the
    colour classes of ``class_sweep_order`` in turn, each class as one block,
    or, when that returns None, the nodes in ascending order, each reading
    its neighbours in ascending order. A node without edges, or whose
    gradient norm is below 1e-12, keeps its vector. ``objective_history``
    holds the objective after each sweep, so a graph without edges stops
    after one sweep with history ``(0.0,)``.
    ``rank`` must be an integer >= 2, ``max_sweeps`` an integer >= 1 and
    ``tol`` a finite number > 0.
    """
    n = graph.n_nodes
    if initial is not None:
        initial = np.array(initial, dtype=float, order="C")
        if initial.ndim != 2 or len(initial) != n:
            raise ValueError(
                f"initial embedding needs one row per node ({n}), got shape {initial.shape}"
            )
        if rank is None:
            rank = initial.shape[1]
    elif rank is None:
        rank = default_rank(n)
    require_integer("rank", rank, low=2)
    require_sdp_limits(tol, max_sweeps)
    if initial is None:
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, rank))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    else:
        if initial.shape[1] != rank:
            raise ValueError(f"rank {rank} != the initial embedding's rank {initial.shape[1]}")
        if not np.isfinite(initial).all():
            raise ValueError("initial embedding must be finite")
        _require_unit_rows(initial)
        vectors = initial

    W = graph.weights
    heads, tails = np.nonzero(np.triu(W))
    edge_weights = W[heads, tails]
    classes = class_sweep_order(W)
    if classes is None:
        rows = vectors
        # (row view, ascending neighbour indices, their weights) for every node
        # with an edge, in ascending node order; a node without edges never moves
        updates = [
            (row, idx, w_row[idx])
            for row, w_row in zip(rows, W)
            if (idx := np.flatnonzero(w_row)).size
        ]

        def sweep() -> None:
            for row, idx, w in updates:
                g = w.dot(rows.take(idx, axis=0))
                norm = sqrt(g.dot(g))
                if norm < _GRADIENT_FLOOR:
                    continue
                np.divide(g, -norm, out=row)

    else:
        # the nodes with an edge in class order, so that each class is one
        # contiguous block of rows; the edge list keeps its order
        order = np.concatenate(classes)
        rows = vectors[order]
        position = np.empty(n, dtype=int)
        position[order] = np.arange(len(order))
        heads, tails = position[heads], position[tails]
        # negated, so that each product is -g exactly and the update one division
        block_weights = -W[np.ix_(order, order)]
        ends = np.cumsum([len(c) for c in classes]).tolist()
        blocks = [
            (block_weights[start:end], rows[start:end])
            for start, end in zip([0, *ends], ends)
        ]

        def sweep() -> None:
            for w, block in blocks:
                g = w.dot(rows)
                norm = np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
                np.divide(g, norm, out=block, where=norm >= _GRADIENT_FLOOR)

    def objective() -> float:
        dots = (rows.take(heads, axis=0) * rows.take(tails, axis=0)).sum(axis=1)
        return 0.5 * float((edge_weights * (1.0 - dots)).sum())

    history: list[float] = []
    previous = objective()
    for _ in range(max_sweeps):
        sweep()
        current = objective()
        history.append(current)
        if current - previous <= tol * abs(current):
            break
        previous = current
    if classes is not None:
        vectors[order] = rows
    return EmbeddingVectors(vectors=vectors, objective_history=tuple(history))


def extract_correlations(vecs: EmbeddingVectors) -> np.ndarray:
    """Gram matrix X_ij = v_i . v_j, clamped into [-1, 1], with a unit diagonal."""
    gram = vecs.vectors @ vecs.vectors.T
    np.clip(gram, -1.0, 1.0, out=gram)
    np.fill_diagonal(gram, 1.0)
    return gram


def sdp_objective(graph: MaxCutGraph, X: np.ndarray) -> float:
    """Relaxed cut value (1/2) sum w_ij (1 - X_ij) for a correlation matrix."""
    X = np.asarray(X)
    if X.shape != (graph.n_nodes, graph.n_nodes):
        raise ValueError(f"correlation matrix shape {X.shape} != graph size {graph.n_nodes}")
    return 0.5 * float(np.sum(np.triu(graph.weights) * (1.0 - X)))
