"""QUBO <-> weighted Max-Cut reduction around a reference node.

A QUBO on n variables maps to a weighted graph on n+1 nodes: node 0 is the
reference carrying the linear terms, node v+1 stands for variable v. Binary
values correspond to spins via x_v = (1 - z_0 * z_{v+1}) / 2, and energies
satisfy the exact identity

    evaluate_qubo(model, x) = graph.offset - cut_value(graph, spins(x))

for every binary x. Substituting the spin transform into the QUBO and matching
coefficients yields the weights used here:

    w(v+1, u+1) = quad[(v, u)] / 2
    w(0, v+1)   = -lin[v] - (1/2) * sum_u quad[(v, u)]

with the QUBO offset carried over unchanged. Zero-weight edges are dropped.
The identity is enforced by exhaustive enumeration in the test suite.

The numbering is fixed, so no graph stores a node-to-variable map: binary
vectors and spin vectors convert by slicing off node 0. A reduced graph from
``shrink`` keeps the same numbering over its own nodes.

``MaxCutGraph.edges`` is the stored format; the kernels read the dense
symmetric :meth:`MaxCutGraph.weight_matrix` instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qubo import QuboModel, VarTag, json_document, pair_matrix


@dataclass(frozen=True)
class MaxCutGraph:
    """Weighted undirected graph; node 0 is the reference, node v+1 is variable v."""

    n_nodes: int
    edges: dict[tuple[int, int], float]
    offset: float

    def __post_init__(self) -> None:
        for (i, j), w in self.edges.items():
            if not (0 <= i < j < self.n_nodes):
                raise ValueError(f"edge key ({i}, {j}) is not an ordered pair within range")
            if w == 0:
                raise ValueError(f"edge ({i}, {j}) stores a zero weight")
            if not math.isfinite(w):
                raise ValueError(f"edge ({i}, {j}) stores a non-finite weight {w}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")

    @cached_property
    def _weight_matrix(self) -> np.ndarray:
        return pair_matrix(self.edges, self.n_nodes, symmetric=True)

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric edge weights, 0 off the edge set (built once, read-only)."""
        return self._weight_matrix

    def weighted_degrees(self, absolute: bool = False) -> np.ndarray:
        """Sum of incident edge weights per node (absolute values on request)."""
        W = self.weight_matrix()
        return (np.abs(W) if absolute else W).sum(axis=1)


def qubo_to_maxcut(model: QuboModel) -> MaxCutGraph:
    """Reduce a QUBO to its equivalent weighted Max-Cut graph (see module docs)."""
    Q = model.quad_matrix()
    quad_row_sum = (Q + Q.T).sum(axis=1)
    edges = {(i + 1, j + 1): w / 2.0 for (i, j), w in model.quad.items()}
    for v in range(model.n_vars):
        edges[(0, v + 1)] = -model.lin[v] - 0.5 * quad_row_sum[v]
    edges = {k: w for k, w in edges.items() if w != 0.0}
    return MaxCutGraph(n_nodes=model.n_vars + 1, edges=edges, offset=model.offset)


def graph_to_qubo(graph: MaxCutGraph, semantics: tuple[VarTag, ...] | None = None) -> QuboModel:
    """Inverse reduction: rebuild the QUBO whose energies are offset - cut.

    Nodes 1..n-1 become variables 0..n-2. ``semantics`` defaults to generic
    ("spin", node) tags.
    """
    quad = {(i - 1, j - 1): 2.0 * w for (i, j), w in graph.edges.items() if i >= 1}
    lin = np.zeros(graph.n_nodes - 1) - graph.weight_matrix()[1:].sum(axis=1)
    if semantics is None:
        semantics = tuple(("spin", node) for node in range(1, graph.n_nodes))
    return QuboModel(
        n_vars=graph.n_nodes - 1,
        quad=quad,
        lin=tuple(float(v) for v in lin),
        offset=graph.offset,
        semantics=semantics,
    )


def cut_value(graph: MaxCutGraph, spins) -> float:
    """Total weight of edges crossing the spin partition: (1/2) sum w (1 - z_i z_j)."""
    spins = np.asarray(spins)
    if spins.shape != (graph.n_nodes,):
        raise ValueError(f"spins have shape {spins.shape}, expected ({graph.n_nodes},)")
    if not np.all(np.abs(spins) == 1):
        raise ValueError("spins must be +1 or -1")
    z = spins.astype(float)
    W = graph.weight_matrix()
    return 0.25 * (float(W.sum()) - float(z @ W @ z))


def spins_to_binary(graph: MaxCutGraph, spins) -> np.ndarray:
    """Map spins to binary variables, gauge-fixing the reference to +1 first."""
    spins = np.asarray(spins)
    if spins.shape != (graph.n_nodes,):
        raise ValueError(f"spins have shape {spins.shape}, expected ({graph.n_nodes},)")
    if spins[0] == -1:
        spins = -spins
    return (1 - spins[1:].astype(int)) // 2


def binary_to_spins(graph: MaxCutGraph, x) -> np.ndarray:
    """Inverse of :func:`spins_to_binary` under the gauge z_0 = +1."""
    x = np.asarray(x, dtype=int)
    if x.shape != (graph.n_nodes - 1,):
        raise ValueError(f"bits have shape {x.shape}, expected ({graph.n_nodes - 1},)")
    return np.concatenate(([1], 1 - 2 * x))


def classify_edges(full: MaxCutGraph, objective_only: MaxCutGraph) -> dict[tuple[int, int], str]:
    """Tag each edge of ``full`` as constraint-derived or objective-derived.

    ``objective_only`` is the graph of the same build with penalties removed;
    an edge whose weight changed (or did not exist) under penalties carries
    constraint contributions.
    """
    provenance: dict[tuple[int, int], str] = {}
    for key, w in full.edges.items():
        base = objective_only.edges.get(key)
        provenance[key] = "objective" if base is not None and base == w else "constraint"
    return provenance


def graph_to_json(graph: MaxCutGraph) -> str:
    """The graph as JSON; ``var_map`` is always the identity [0, ..., n-2]."""
    doc = {
        "n_nodes": graph.n_nodes,
        "edges": [[i, j, w] for (i, j), w in sorted(graph.edges.items())],
        "offset": graph.offset,
        "var_map": list(range(graph.n_nodes - 1)),
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str) -> MaxCutGraph:
    """Inverse of :func:`graph_to_json`; any ``var_map`` but the identity is rejected."""
    with json_document(text, "graph JSON", ("n_nodes", "edges", "offset", "var_map")) as doc:
        n_nodes = int(doc["n_nodes"])
        if doc["var_map"] != list(range(n_nodes - 1)):
            raise ValueError(
                f"graph JSON: var_map must be [0, ..., {n_nodes - 2}] (node v+1 is variable v)"
            )
        return MaxCutGraph(
            n_nodes=n_nodes,
            edges={(int(i), int(j)): float(w) for i, j, w in doc["edges"]},
            offset=float(doc["offset"]),
        )
