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

with the QUBO offset carried over unchanged. The identity is enforced by
exhaustive enumeration in the test suite.

The numbering is fixed, so no graph stores a node-to-variable map: binary
vectors and spin vectors convert by slicing off node 0. A reduced graph from
``shrink`` keeps the same numbering over its own nodes.

A graph stores its weights once, as a read-only symmetric float array with a
zero diagonal and +0.0 wherever there is no edge; the kernels read it
directly. The ``{(i, j): w}`` view :attr:`MaxCutGraph.edges` is derived on
first use, for JSON, edge provenance and edge counts.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qubo import QuboModel, VarTag, json_document, json_index, nonzero_terms, pairs_from_json


@dataclass(frozen=True, eq=False)
class MaxCutGraph:
    """Weighted graph, stored as a read-only float copy of ``weights``; node 0 is the reference."""

    weights: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float) + 0.0  # a copy; -0.0 becomes +0.0
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {weights.shape}")
        if not (np.isfinite(weights).all() and math.isfinite(self.offset)):
            raise ValueError("weights and offset must be finite")
        if np.diag(weights).any() or not np.array_equal(weights, weights.T):
            raise ValueError("weights must be symmetric with a zero diagonal")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @cached_property
    def edges(self) -> Mapping[tuple[int, int], float]:
        """The edges as a read-only ``{(i, j): w}`` view with i < j, keys ascending."""
        return nonzero_terms(np.triu(self.weights, 1))


def qubo_to_maxcut(model: QuboModel) -> MaxCutGraph:
    """Reduce a QUBO to its equivalent weighted Max-Cut graph (see module docs)."""
    Q = model.pairs + model.pairs.T
    weights = np.zeros((model.n_vars + 1, model.n_vars + 1))
    weights[1:, 1:] = Q / 2.0
    weights[0, 1:] = weights[1:, 0] = -model.lin - 0.5 * Q.sum(axis=1)
    return MaxCutGraph(weights, model.offset)


def graph_to_qubo(graph: MaxCutGraph, semantics: tuple[VarTag, ...] | None = None) -> QuboModel:
    """Inverse reduction: rebuild the QUBO whose energies are offset - cut.

    Nodes 1..n-1 become variables 0..n-2. ``semantics`` defaults to generic
    ("spin", node) tags.
    """
    W = graph.weights
    lin = np.zeros(graph.n_nodes - 1) - W[1:].sum(axis=1)
    if semantics is None:
        semantics = tuple(("spin", node) for node in range(1, graph.n_nodes))
    return QuboModel(2.0 * np.triu(W[1:, 1:], 1), lin, graph.offset, semantics)


def cut_value(graph: MaxCutGraph, spins) -> float:
    """Total weight of edges crossing the spin partition: (1/2) sum w (1 - z_i z_j)."""
    spins = np.asarray(spins)
    if spins.shape != (graph.n_nodes,):
        raise ValueError(f"spins have shape {spins.shape}, expected ({graph.n_nodes},)")
    if not np.all(np.abs(spins) == 1):
        raise ValueError("spins must be +1 or -1")
    z = spins.astype(float)
    W = graph.weights
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
    base = objective_only.edges
    return {key: "objective" if base.get(key) == w else "constraint" for key, w in full.edges.items()}


def graph_to_json(graph: MaxCutGraph) -> str:
    """The graph as JSON; ``var_map`` is always the identity [0, ..., n-2]."""
    doc = {
        "n_nodes": graph.n_nodes,
        "edges": [[i, j, w] for (i, j), w in graph.edges.items()],
        "offset": graph.offset,
        "var_map": list(range(graph.n_nodes - 1)),
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str) -> MaxCutGraph:
    """Inverse of :func:`graph_to_json`; any ``var_map`` but the identity is rejected."""
    with json_document(text, "graph JSON", ("n_nodes", "edges", "offset", "var_map")) as doc:
        n_nodes = json_index(doc["n_nodes"], "n_nodes")
        if doc["var_map"] != list(range(n_nodes - 1)):
            raise ValueError(
                f"graph JSON: var_map must be [0, ..., {n_nodes - 2}] (node v+1 is variable v)"
            )
        upper = pairs_from_json(doc["edges"], n_nodes, "edge")
        return MaxCutGraph(upper + upper.T, float(doc["offset"]))
