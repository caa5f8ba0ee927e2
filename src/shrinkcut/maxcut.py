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

``MaxCutGraph.edges`` is the stored format; the kernels read the dense
symmetric :meth:`MaxCutGraph.weight_matrix` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qubo import QuboModel, VarTag, pair_matrix


@dataclass(frozen=True)
class MaxCutGraph:
    """Weighted undirected graph; node 0 is the reference and maps to no variable."""

    n_nodes: int
    edges: dict[tuple[int, int], float]
    offset: float
    var_map: dict[int, int]  # node (>= 1) -> QUBO variable index

    def __post_init__(self) -> None:
        for (i, j), w in self.edges.items():
            if not (0 <= i < j < self.n_nodes):
                raise ValueError(f"edge key ({i}, {j}) is not an ordered pair within range")
            if w == 0:
                raise ValueError(f"edge ({i}, {j}) stores a zero weight")
        if 0 in self.var_map:
            raise ValueError("reference node 0 must not map to a variable")

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
    return MaxCutGraph(
        n_nodes=model.n_vars + 1,
        edges=edges,
        offset=model.offset,
        var_map={v + 1: v for v in range(model.n_vars)},
    )


def graph_to_qubo(graph: MaxCutGraph, semantics: tuple[VarTag, ...] | None = None) -> QuboModel:
    """Inverse reduction: rebuild the QUBO whose energies are offset - cut.

    Nodes 1..n-1 become variables 0..n-2 (the graph's var_map is regenerated by
    callers that need a different association). ``semantics`` defaults to
    generic ("spin", node) tags.
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
    n_vars = max(graph.var_map.values(), default=-1) + 1
    x = np.zeros(n_vars, dtype=int)
    for node, var in graph.var_map.items():
        x[var] = (1 - int(spins[node])) // 2
    return x


def binary_to_spins(graph: MaxCutGraph, x) -> np.ndarray:
    """Inverse of :func:`spins_to_binary` under the gauge z_0 = +1."""
    x = np.asarray(x)
    spins = np.ones(graph.n_nodes, dtype=int)
    for node, var in graph.var_map.items():
        spins[node] = 1 - 2 * int(x[var])
    return spins


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
    doc = {
        "n_nodes": graph.n_nodes,
        "edges": [[i, j, w] for (i, j), w in sorted(graph.edges.items())],
        "offset": graph.offset,
        "var_map": [graph.var_map.get(node) for node in range(1, graph.n_nodes)],
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str) -> MaxCutGraph:
    doc = json.loads(text)
    edges = {(int(i), int(j)): float(w) for i, j, w in doc["edges"]}
    var_map = {
        node: int(var)
        for node, var in zip(range(1, int(doc["n_nodes"])), doc["var_map"])
        if var is not None
    }
    return MaxCutGraph(
        n_nodes=int(doc["n_nodes"]),
        edges=edges,
        offset=float(doc["offset"]),
        var_map=var_map,
    )
