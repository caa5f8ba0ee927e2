"""Lifting reduced-problem solutions back to the original problem.

A shrink run returns its signed partition as two arrays over the original
nodes: ``label[v]``, the reduced node that holds v, and ``sign[v]``, v's spin
relative to it. Lifting is one gather, reduced spins[label] * sign. The
lifted spin vector is then gauge-fixed to the reference node and read as the
binary variables of the original QUBO (node v+1 is variable v). Reading those
bits as an instance's solution is ``pipeline.decode_solution``'s job: each
kind's record owns its variable layout, and nothing here reads semantics tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxcut import MaxCutGraph, binary_to_spins, cut_value, spins_to_binary
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

    Reduced bits become reduced-node spins; original node v takes the spin
    of reduced node ``label[v]`` times ``sign[v]``. The global spin gauge is
    then fixed so the reference node sits on the +1 side (a global flip cuts
    the same weight).
    """
    spins = binary_to_spins(result.graph, reduced_bits)[result.label] * result.sign
    if len(spins) != original_graph.n_nodes:
        raise ValueError(
            f"the shrink covers {len(spins)} original nodes, the graph has "
            f"{original_graph.n_nodes}"
        )
    if spins[0] == -1:
        spins = -spins
    bits = spins_to_binary(original_graph, spins)
    energy = original_graph.offset - cut_value(original_graph, spins)
    return LiftedSolution(bits=bits, spins=spins, energy=energy)
