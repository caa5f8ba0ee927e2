"""Constraint checking, merge penalties, and greedy solution repair.

The shrink stage can discount merges that would entangle constraint
structure. ``penalty_summaries`` gives each Max-Cut node a summary of its
constraint structure, from the problem instance and the node ->
variable-tag mapping, and the rule that combines two summaries: vertex and
neighbour bitmasks for MIS and facility-row and location-column bitmasks
for QAP, combined by OR, and for MDKP the item's capacity share
mean_j(w_ji / C_j), combined by +. The shrink stage folds each supernode's
summary as it merges, and ``make_penalty`` gives the scoring function
Pi(s_a, s_b) on two summaries: O(1) arithmetic, for MDKP the sum s_a + s_b,
which is the mean fractional capacity of the merged items up to rounding.
The repair routines turn an arbitrary bitstring into a feasible solution
with deterministic greedy rules.

scipy is loaded only by the QAP repair (``hungarian``), so other commands
start without it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import MdkpInstance, MisInstance, QapInstance, _fmt

_LEX_TOL = 1e-9


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair pass: the fixed bits and how much changed."""

    bits: np.ndarray
    iterations: int
    feasible: bool


# ---------------------------------------------------------------------------
# violation checks
# ---------------------------------------------------------------------------


def _check_bits(x, size: int, what: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.size != size:
        raise ValueError(f"{what} solution must have {size} bits, got {arr.size}")
    arr = arr.reshape(size).astype(int)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} solution must be 0/1 valued")
    return arr


def mdkp_violations(inst: MdkpInstance, x) -> list[str]:
    """Human-readable list of capacity rows the selection overruns (empty if feasible)."""
    bits = _check_bits(x, inst.n, "MDKP")
    loads = inst.weights @ bits
    out = []
    for j in range(inst.m):
        if loads[j] > inst.capacities[j]:
            out.append(
                f"constraint {j}: load {_fmt(loads[j])} exceeds capacity "
                f"{_fmt(inst.capacities[j])}"
            )
    return out


def mis_violations(inst: MisInstance, x) -> list[str]:
    bits = _check_bits(x, inst.n, "MIS")
    out = []
    for u, v in inst.edges:
        if bits[u] == 1 and bits[v] == 1:
            out.append(f"edge ({u}, {v}): both endpoints selected")
    return out


def qap_violations(inst: QapInstance, x) -> list[str]:
    bits = _check_bits(x, inst.n * inst.n, "QAP").reshape(inst.n, inst.n)
    out = []
    for i in range(inst.n):
        s = int(bits[i].sum())
        if s != 1:
            out.append(f"facility {i}: assigned to {s} locations, expected 1")
    for j in range(inst.n):
        s = int(bits[:, j].sum())
        if s != 1:
            out.append(f"location {j}: hosts {s} facilities, expected 1")
    return out


def violations(inst, x) -> list[str]:
    """Dispatch to the per-problem check; empty list means feasible."""
    if isinstance(inst, MdkpInstance):
        return mdkp_violations(inst, x)
    if isinstance(inst, MisInstance):
        return mis_violations(inst, x)
    if isinstance(inst, QapInstance):
        return qap_violations(inst, x)
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def is_feasible(inst, x) -> bool:
    return not violations(inst, x)


# ---------------------------------------------------------------------------
# merge penalties
# ---------------------------------------------------------------------------


def penalty_summaries(inst, node_tags: dict[int, tuple]) -> tuple[list, Callable]:
    """Each Max-Cut node's merge-penalty summary by node id, and the rule that combines two.

    ``node_tags`` maps Max-Cut node ids to variable semantics tags; the list
    is ``max(node_tags) + 1`` long, and the reference node 0 and slack bits
    hold the rule's identity. A supernode's summary is its members'
    summaries combined in member order (``WorkingGraph.contract`` folds
    them). MIS holds (vertex mask, neighbour mask) and QAP one bit per
    facility row and one per location column, as (mask, mask), both
    combined by OR; MDKP holds item i's capacity share mean_j(w_ji / C_j),
    combined by +.
    """
    if isinstance(inst, MdkpInstance):
        shares = np.mean(inst.weights / inst.capacities[:, None], axis=0).tolist()
        parts = {node: shares[tag[1]] for node, tag in node_tags.items() if tag[0] == "item"}
        identity, combine = 0.0, operator.add
    elif isinstance(inst, MisInstance):
        neighbours = [0] * inst.n
        for u, v in inst.edges:
            neighbours[u] |= 1 << v
            neighbours[v] |= 1 << u
        vertices = {node: tag[1] for node, tag in node_tags.items() if tag[0] == "vertex"}
        parts = {node: (1 << u, neighbours[u]) for node, u in vertices.items()}
        identity, combine = (0, 0), _or_masks
    elif isinstance(inst, QapInstance):
        # bit i is facility row i and bit n + j location column j; a cell
        # reaches exactly the bits it holds, so one AND finds a shared one
        cells = {node: tag[1:] for node, tag in node_tags.items() if tag[0] == "assign"}
        parts = {node: (1 << i | 1 << (inst.n + j),) * 2 for node, (i, j) in cells.items()}
        identity, combine = (0, 0), _or_masks
    else:
        raise TypeError(f"unsupported instance type {type(inst).__name__}")
    return [parts.get(node, identity) for node in range(max(node_tags, default=0) + 1)], combine


def make_penalty(inst) -> Callable[[object, object], float]:
    """The Pi(s_a, s_b) scorer the shrink stage calls on every pair of supernode summaries.

    MIS: 1.0 when a's neighbour mask meets b's vertex mask (a conflict edge
    runs between the two supernodes), else 0.0. QAP: 1.0 when the two share
    a facility row or a location column, else 0.0. MDKP: s_a + s_b, the
    mean fractional capacity mean_j((u_a + u_b)_j / C_j) of the merged item
    loads u, up to rounding; this is ``operator.add`` itself, so no Python
    frame runs per pair.
    """
    if isinstance(inst, MdkpInstance):
        return operator.add
    if isinstance(inst, (MisInstance, QapInstance)):
        return _masks_meet
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def _or_masks(s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
    return s[0] | t[0], s[1] | t[1]


def _masks_meet(s_a: tuple[int, int], s_b: tuple[int, int]) -> float:
    return 1.0 if s_a[1] & s_b[0] else 0.0


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def repair_mdkp(inst: MdkpInstance, x) -> RepairReport:
    """Drop items until every capacity row holds.

    Each round targets the row with the largest overshoot and removes the
    selected item with the worst profit-to-weight ratio in that row (ties:
    lowest item index).
    """
    bits = _check_bits(x, inst.n, "MDKP").copy()
    iterations = 0
    while True:
        overshoot = inst.weights @ bits - inst.capacities
        worst = int(np.argmax(overshoot))
        if overshoot[worst] <= 0:
            break
        row = inst.weights[worst]
        best_item = -1
        best_ratio = np.inf
        for i in range(inst.n):
            if bits[i] == 1 and row[i] > 0:
                ratio = inst.profits[i] / row[i]
                if ratio < best_ratio:
                    best_ratio = ratio
                    best_item = i
        bits[best_item] = 0
        iterations += 1
    return RepairReport(bits=bits, iterations=iterations, feasible=True)


def repair_mis(inst: MisInstance, x) -> RepairReport:
    """Deselect vertices until no conflict edge has both endpoints chosen.

    Each round resolves the lexicographically smallest violated edge by
    dropping its higher-degree endpoint (ties: the higher vertex index).
    Dropping a vertex never violates an edge, so one pass over the sorted
    edges visits the violated ones in that order.
    """
    bits = _check_bits(x, inst.n, "MIS").copy()
    adjacency = inst.adjacency()
    iterations = 0
    for u, v in sorted(inst.edges):
        if bits[u] == 1 and bits[v] == 1:
            bits[u if len(adjacency[u]) > len(adjacency[v]) else v] = 0
            iterations += 1
    return RepairReport(bits=bits, iterations=iterations, feasible=True)


def hungarian(cost: np.ndarray) -> tuple[int, ...]:
    """Minimum-cost assignment; among optima, the lexicographically smallest.

    Returns ``assignment`` with assignment[row] = column. The result is fully
    deterministic: row 0's column is the smallest possible in any optimal
    assignment, then row 1's given row 0, and so on (cost compared within
    1e-9).
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if n == 0:
        return ()
    # Imported here, not at module level: scipy.optimize takes most of the
    # package's import time, and only QAP repair reaches this function.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    best_total = float(cost[rows, cols].sum())

    assignment: list[int] = []
    free_cols = sorted(range(n))
    fixed_cost = 0.0
    for row in range(n):
        chosen = None
        for col in free_cols:
            trial = fixed_cost + float(cost[row, col])
            rest_rows = list(range(row + 1, n))
            rest_cols = [c for c in free_cols if c != col]
            if rest_rows:
                sub = cost[np.ix_(rest_rows, rest_cols)]
                r, c = linear_sum_assignment(sub)
                trial += float(sub[r, c].sum())
            if trial <= best_total + _LEX_TOL:
                chosen = col
                break
        if chosen is None:  # unreachable: the optimum itself always qualifies
            raise RuntimeError("no column completes an optimal assignment")
        assignment.append(chosen)
        free_cols.remove(chosen)
        fixed_cost += float(cost[row, chosen])
    return tuple(assignment)


def repair_qap(inst: QapInstance, x) -> RepairReport:
    """Rebuild a permutation matrix, keeping as many selected cells as possible.

    Selected cells get cost -1 and everything else 0, so the assignment
    solver retains a maximum consistent subset of the input's choices and
    fills the rest deterministically.
    """
    bits = _check_bits(x, inst.n * inst.n, "QAP").reshape(inst.n, inst.n)
    cost = np.where(bits == 1, -1.0, 0.0)
    assignment = hungarian(cost)
    repaired = np.zeros((inst.n, inst.n), dtype=int)
    for i, j in enumerate(assignment):
        repaired[i, j] = 1
    iterations = int(sum(1 for i in range(inst.n) if not np.array_equal(bits[i], repaired[i])))
    return RepairReport(bits=repaired, iterations=iterations, feasible=True)


def repair(inst, x) -> RepairReport:
    """Dispatch to the per-problem repair routine."""
    if isinstance(inst, MdkpInstance):
        return repair_mdkp(inst, x)
    if isinstance(inst, MisInstance):
        return repair_mis(inst, x)
    if isinstance(inst, QapInstance):
        return repair_qap(inst, x)
    raise TypeError(f"unsupported instance type {type(inst).__name__}")
