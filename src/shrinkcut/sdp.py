"""Max-Cut semidefinite relaxation via low-rank coordinate ascent.

Spins z_i in {-1, +1} are relaxed to unit vectors v_i; the relaxed objective

    (1/2) sum_{(i,j) in E} w_ij (1 - v_i . v_j)

is maximized by cyclic coordinate updates: with g = sum_j w_ij v_j, the
optimal v_i given all others is -g / ||g||. Each update is an exact argmax,
so the objective is non-decreasing sweep over sweep. At rank
ceil(sqrt(2n)) + 1 the low-rank formulation attains the SDP optimum.
The Gram matrix X_ij = v_i . v_j is the correlation output consumed by the
shrinking stage. The per-sweep objective history is the Gram matrix against
the upper triangle of the graph's dense weight matrix, built once per solve,
with ``sdp_objective``'s arithmetic.

A node update is one gather-and-multiply over the node's neighbour list, in
ascending neighbour order, then a division by -||g|| into the node's row, so
the embedding depends on the weighted edge set and not on the order of
``graph.edges``. The stopping displacement is taken once per sweep, from the
row differences against a copy made at the start of the sweep: every node
moves at most once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .maxcut import MaxCutGraph

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


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Gram matrix of the embedding, entries clamped to [-1, 1]."""

    entries: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.entries.shape != (self.n, self.n):
            raise ValueError(f"correlation matrix must be {self.n}x{self.n}")


def default_rank(n_nodes: int) -> int:
    """Embedding rank sufficient for the rank-constrained optimum."""
    return max(2, int(ceil(sqrt(2.0 * n_nodes))) + 1)


def solve_maxcut_sdp(
    graph: MaxCutGraph,
    rank: int | None = None,
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    seed: int = 0,
) -> EmbeddingVectors:
    """Run the mixing coordinate ascent until the largest per-sweep vector
    displacement falls below ``tol`` or ``max_sweeps`` is reached.

    Deterministic for fixed (graph, rank, tol, seed): initialization draws
    seeded componentwise normals (normalized), updates visit nodes in
    ascending order, and each node reads its neighbours in ascending order.
    A node without edges, or whose gradient norm is below 1e-12, keeps its
    vector.

    The displacement is the largest row of ``vectors - before``, where
    ``before`` is the embedding at the start of the sweep. The vectors and
    the history equal those of a loop that takes ``np.linalg.norm`` of each
    node's move bit for bit; the displacement sums each row in a different
    order, so a stop decision can differ from that loop's only when the
    displacement lies within a few ulp of ``tol``.
    """
    n = graph.n_nodes
    if rank is None:
        rank = default_rank(n)
    if rank < 2:
        raise ValueError(f"rank must be at least 2, got {rank}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

    W = graph.weight_matrix()
    # (row view, ascending neighbour indices, their weights) for every node
    # with an edge, in ascending node order; a node without edges never moves
    nonzero = [np.flatnonzero(w_row) for w_row in W]
    updates = [
        (row, idx, w_row[idx]) for row, idx, w_row in zip(vectors, nonzero, W) if idx.size
    ]
    upper = np.triu(W)

    history: list[float] = []
    before = np.empty_like(vectors)
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        np.copyto(before, vectors)
        for row, idx, w in updates:
            g = w.dot(vectors.take(idx, axis=0))
            norm = sqrt(g.dot(g))
            if norm < _GRADIENT_FLOOR:
                continue
            np.divide(g, -norm, out=row)
        history.append(0.5 * float(np.sum(upper * (1.0 - vectors @ vectors.T))))
        moves = vectors - before
        max_move = sqrt(np.max(np.einsum("ij,ij->i", moves, moves), initial=0.0))
        if max_move < tol:
            break
    return EmbeddingVectors(
        vectors=vectors,
        rank=rank,
        objective_history=tuple(history),
        sweeps_used=sweeps,
    )


def extract_correlations(vecs: EmbeddingVectors) -> CorrelationMatrix:
    """Gram matrix X_ij = v_i . v_j, clamped into [-1, 1]."""
    gram = vecs.vectors @ vecs.vectors.T
    np.clip(gram, -1.0, 1.0, out=gram)
    np.fill_diagonal(gram, 1.0)
    return CorrelationMatrix(entries=gram, n=gram.shape[0])


def sdp_objective(graph: MaxCutGraph, X: CorrelationMatrix | np.ndarray) -> float:
    """Relaxed cut value (1/2) sum w_ij (1 - X_ij) for a correlation matrix."""
    entries = X.entries if isinstance(X, CorrelationMatrix) else np.asarray(X)
    if entries.shape != (graph.n_nodes, graph.n_nodes):
        raise ValueError(
            f"correlation matrix shape {entries.shape} != graph size {graph.n_nodes}"
        )
    return 0.5 * float(np.sum(np.triu(graph.weight_matrix()) * (1.0 - entries)))
