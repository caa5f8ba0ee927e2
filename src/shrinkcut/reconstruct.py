"""Lifting reduced-problem solutions back to the original problem.

A shrink run returns its signed partition: reduced node t stands for the
supernode ``node_order[t]``, whose members carry their spin relative to it.
Each original node takes the spin of its reduced node times its relative
sign. The lifted spin vector is then gauge-fixed to the reference node and
read as the binary variables of the original QUBO (node v+1 is variable v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxcut import MaxCutGraph, binary_to_spins, cut_value, spins_to_binary
from .qubo import QuboModel
from .shrink import ShrinkResult


@dataclass(frozen=True)
class LiftedSolution:
    """Original-problem assignment recovered from a reduced solution."""

    bits: np.ndarray
    spins: np.ndarray
    energy: float


def lift_solution(
    result: ShrinkResult, reduced_bits, original_graph: MaxCutGraph
) -> LiftedSolution:
    """Turn reduced-problem bits into an original-problem assignment.

    Reduced bits become reduced-node spins; every member of supernode
    ``node_order[t]`` takes reduced spin t times its relative sign. The
    global spin gauge is then fixed so the reference node sits on the +1
    side (a global flip cuts the same weight).
    """
    reduced_spins = binary_to_spins(result.graph, reduced_bits).tolist()
    full = {
        node: sign * z
        for survivor, z in zip(result.node_order, reduced_spins)
        for node, sign in result.supernodes[survivor].members.items()
    }
    n = original_graph.n_nodes
    if sorted(full) != list(range(n)):
        missing = sorted(set(range(n)) - set(full))
        raise ValueError(f"lifted spins do not cover all original nodes; missing {missing}")
    spins = np.array([full[v] for v in range(n)], dtype=int)

    if spins[0] == -1:
        spins = -spins
    bits = spins_to_binary(original_graph, spins)
    energy = original_graph.offset - cut_value(original_graph, spins)
    return LiftedSolution(bits=bits, spins=spins, energy=energy)


def decode_solution(model: QuboModel, bits) -> np.ndarray:
    """Interpret QUBO bits through the model's variable semantics.

    MDKP models yield the item selection vector (slack bits dropped), MIS
    models the vertex selection vector, QAP models the n x n assignment
    matrix. Models with only generic "spin" tags are returned unchanged.
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
    if kinds == {"assign"}:
        n = int(round(np.sqrt(model.n_vars)))
        if n * n != model.n_vars:
            raise ValueError(f"assignment model has non-square size {model.n_vars}")
        out = np.zeros((n, n), dtype=int)
        for var, tag in enumerate(model.semantics):
            out[tag[1], tag[2]] = bits[var]
        return out
    if kinds == {"spin"}:
        return bits.copy()
    raise ValueError(f"cannot decode mixed/unknown semantics kinds {sorted(kinds)}")
