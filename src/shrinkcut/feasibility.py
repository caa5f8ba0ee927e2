"""Constraint checking, merge penalties, and greedy solution repair.

The shrink stage can discount merges that would entangle constraint
structure: ``make_penalty`` builds a scoring function Pi(a, b) over supernode
pairs from the problem instance and the node -> variable-tag mapping. It
memoises one summary per supernode, keyed by (id, member count), and scores a
pair with O(1) arithmetic on the two summaries: vertex and neighbour bitmasks
for MIS, facility-row and location-column bitmasks for QAP, and for MDKP the
sum of the items' capacity shares mean_j(w_ji / C_j), so that Pi = s_a + s_b
is the mean fractional capacity of the merged items up to rounding. The
repair routines turn an arbitrary bitstring into a feasible solution with
deterministic greedy rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .instances import MdkpInstance, MisInstance, QapInstance
from .shrink import SuperNode

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


def make_penalty(inst, node_tags: dict[int, tuple]):
    """Build the Pi(a, b) scorer the shrink stage calls once per supernode pair.

    ``node_tags`` maps Max-Cut node ids to variable semantics tags; the
    reference node 0 has no entry and slack bits count for nothing. Each
    supernode gets a summary of its decision members, memoised per
    (supernode id, member count): within one shrink member sets only ever
    grow, so an id and a count name one member set. Pi is then O(1)
    arithmetic on the two summaries:

    - MIS: the summary is (vertex mask, neighbour mask), and Pi is 1.0 when
      a's neighbour mask meets b's vertex mask (a conflict edge runs between
      the two supernodes), else 0.0.
    - QAP: the summary holds one bit per facility row and one per location
      column of the assignment members, and Pi is 1.0 when the two
      supernodes share a row or a column, else 0.0.
    - MDKP: Pi is the mean fractional capacity the merged item set would
      consume, mean_j((u_a + u_b)_j / C_j) for the item loads u. That equals
      s_a + s_b, where item i's share is mean_j(w_ji / C_j) and a summary s
      adds its items' shares to 0.0 in member order; the two forms agree in
      exact arithmetic and can differ only in rounding.
    """
    if isinstance(inst, MdkpInstance):
        shares = np.mean(inst.weights / inst.capacities[:, None], axis=0).tolist()
        parts = {node: shares[tag[1]] for node, tag in node_tags.items() if tag[0] == "item"}
    elif isinstance(inst, MisInstance):
        neighbours = [0] * inst.n
        for u, v in inst.edges:
            neighbours[u] |= 1 << v
            neighbours[v] |= 1 << u
        parts = {
            node: (1 << tag[1], neighbours[tag[1]])
            for node, tag in node_tags.items()
            if tag[0] == "vertex"
        }
    elif isinstance(inst, QapInstance):
        # bit i is facility row i and bit n + j location column j; a cell
        # reaches exactly the bits it holds, so one AND finds a shared one
        parts = {}
        for node, tag in node_tags.items():
            if tag[0] == "assign":
                mask = 1 << tag[1] | 1 << (inst.n + tag[2])
                parts[node] = (mask, mask)
    else:
        raise TypeError(f"unsupported instance type {type(inst).__name__}")
    additive = isinstance(inst, MdkpInstance)
    summaries: dict[tuple[int, int], float | tuple[int, int]] = {}

    def summarise(sn: SuperNode) -> float | tuple[int, int]:
        found = [parts[node] for node in sn.members if node in parts]
        if additive:
            total = 0.0
            for share in found:
                total += share
            return total
        own = reach = 0
        for bits, reached in found:
            own |= bits
            reach |= reached
        return own, reach

    def penalty(a: SuperNode, b: SuperNode) -> float:
        key = (a.id, len(a.members))
        try:
            summary_a = summaries[key]
        except KeyError:
            summary_a = summaries[key] = summarise(a)
        key = (b.id, len(b.members))
        try:
            summary_b = summaries[key]
        except KeyError:
            summary_b = summaries[key] = summarise(b)
        if additive:
            return summary_a + summary_b
        return 1.0 if summary_a[1] & summary_b[0] else 0.0

    return penalty


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
    """
    bits = _check_bits(x, inst.n, "MIS").copy()
    adjacency = inst.adjacency()
    edges = sorted(inst.edges)
    iterations = 0
    while True:
        conflict = None
        for u, v in edges:
            if bits[u] == 1 and bits[v] == 1:
                conflict = (u, v)
                break
        if conflict is None:
            break
        u, v = conflict
        drop = u if len(adjacency[u]) > len(adjacency[v]) else v
        bits[drop] = 0
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


def _fmt(v: float) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else str(f)
