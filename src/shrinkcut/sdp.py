"""Max-Cut semidefinite relaxation via low-rank coordinate ascent.

Spins z_i in {-1, +1} are relaxed to unit vectors v_i; the relaxed objective

    (1/2) sum_{(i,j) in E} w_ij (1 - v_i . v_j)

is maximized by cyclic coordinate updates: with g = sum_j w_ij v_j, the
optimal v_i given all others is -g / ||g||. Each update is an exact argmax,
so the objective is non-decreasing sweep over sweep. At rank
ceil(sqrt(2n)) + 1 the low-rank formulation attains the SDP optimum.
The Gram matrix X_ij = v_i . v_j is the correlation output consumed by the
shrinking stage.

The ascent stops on the relative gain in the objective, as the mixing method
does (Wang, Chang & Kolter, arXiv:1706.00476): with f_0 the objective of the
initial vectors and f_t its value after sweep t, it stops once
f_t - f_{t-1} <= tol * |f_t|, or after ``max_sweeps`` sweeps. The default
tol is 1e-10. The vectors can keep drifting along a flat face of the
objective long after its value has settled, so a stop on their displacement
may never fire. The objective is read once per sweep from the edge list, in
O(m * rank): the per-edge dot products v_i . v_j in ascending (i, j) order,
each summed by ``np.sum`` over the rank, weighted by w_ij (1 - v_i . v_j)
and summed by ``np.sum``.

A node update is one gather-and-multiply over the node's neighbour list (the
nonzero entries of its row of ``graph.weights``), in ascending neighbour
order, then a division by -||g|| into the node's row.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import ceil, inf, sqrt

import numpy as np

from .maxcut import MaxCutGraph
from .qubo import require_integer

_GRADIENT_FLOOR = 1e-12


@dataclass(frozen=True)
class EmbeddingVectors:
    """Unit-vector embedding produced by the relaxation solver."""

    vectors: np.ndarray            # shape (n_nodes, rank), rows unit length
    rank: int
    objective_history: tuple[float, ...] = field(default_factory=tuple)
    sweeps_used: int = 0

    def __post_init__(self) -> None:
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"embedding rows must be unit vectors (worst deviation {worst:.2e})")


def default_rank(n_nodes: int) -> int:
    """Embedding rank sufficient for the rank-constrained optimum."""
    return max(2, int(ceil(sqrt(2.0 * n_nodes))) + 1)


def solve_maxcut_sdp(
    graph: MaxCutGraph,
    rank: int | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
    seed: int = 0,
) -> EmbeddingVectors:
    """Run the mixing coordinate ascent until a sweep raises the relaxed
    objective by at most ``tol`` times its new value, or for ``max_sweeps``
    sweeps.

    Deterministic for fixed (graph, rank, tol, seed): initialization draws
    seeded componentwise normals (normalized), updates visit nodes in
    ascending order, and each node reads its neighbours in ascending order.
    A node without edges, or whose gradient norm is below 1e-12, keeps its
    vector. ``objective_history`` holds the objective after each sweep, so a
    graph without edges stops after one sweep with history ``(0.0,)``.
    ``rank`` and ``max_sweeps`` must be integers (not bools) and ``tol`` a
    finite number > 0.
    """
    n = graph.n_nodes
    if rank is None:
        rank = default_rank(n)
    require_integer("rank", rank)
    require_integer("max_sweeps", max_sweeps)
    if rank < 2:
        raise ValueError(f"rank must be at least 2, got {rank}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

    W = graph.weights
    # (row view, ascending neighbour indices, their weights) for every node
    # with an edge, in ascending node order; a node without edges never moves
    nonzero = [np.flatnonzero(w_row) for w_row in W]
    updates = [
        (row, idx, w_row[idx]) for row, idx, w_row in zip(vectors, nonzero, W) if idx.size
    ]
    heads, tails = np.nonzero(np.triu(W))
    edge_weights = W[heads, tails]

    def objective() -> float:
        dots = np.sum(vectors[heads] * vectors[tails], axis=1)
        return 0.5 * float(np.sum(edge_weights * (1.0 - dots)))

    history: list[float] = []
    previous = objective()
    for _ in range(max_sweeps):
        for row, idx, w in updates:
            g = w.dot(vectors.take(idx, axis=0))
            norm = sqrt(g.dot(g))
            if norm < _GRADIENT_FLOOR:
                continue
            np.divide(g, -norm, out=row)
        current = objective()
        history.append(current)
        if current - previous <= tol * abs(current):
            break
        previous = current
    return EmbeddingVectors(
        vectors=vectors,
        rank=rank,
        objective_history=tuple(history),
        sweeps_used=len(history),
    )


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
