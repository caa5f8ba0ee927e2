"""Per-kind constraint checks, merge-penalty summaries and greedy repairs.

``mdkp_violations``, ``mis_violations`` and ``qap_violations`` list the
constraints a bitstring breaks, and ``repair_mdkp``, ``repair_mis`` and
``repair_qap`` turn any bitstring into a feasible solution with
deterministic greedy rules. ``mdkp_shares``, ``mis_masks`` and ``qap_masks``
give each decision variable its merge-penalty summary, from the instance
alone and in the builder's variable order (items, vertices, cells i * n + j).
MDKP's are one float64 vector, summed and scored by + (the merged items'
mean fractional capacity, up to rounding), broadcast over all pairs at once;
MIS's and QAP's are lists of Python bitmasks, OR-ed and scored pair by pair
by ``masks_meet``. Each kind's record in ``pipeline.PROBLEMS`` names these
functions and owns the variable layout, and the dispatchers (``violations``,
``repair``, ``penalty_summaries`` ...) live there. No function here reads a
QUBO model's semantics tags, which are written for JSON only.

scipy is loaded only by the QAP repair (``hungarian``), so other commands
start without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import MdkpInstance, MisInstance, QapInstance, _fmt

_LEX_TOL = 1e-9


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair pass: the fixed bits and how much changed."""

    bits: np.ndarray
    iterations: int


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


# ---------------------------------------------------------------------------
# merge penalties
# ---------------------------------------------------------------------------


def mdkp_shares(inst: MdkpInstance) -> np.ndarray:
    """Each item i's capacity share mean_j(w_ji / C_j), in item order, as one float64 vector."""
    if inst.m == 0:  # without constraint rows an item uses no capacity
        return np.zeros(inst.n)
    return np.mean(inst.weights / inst.capacities[:, None], axis=0).astype(float, copy=False)


def mis_masks(inst: MisInstance) -> list[tuple[int, int]]:
    """Each vertex u's (vertex mask, neighbour mask), in vertex order."""
    neighbours = [0] * inst.n
    for u, v in inst.edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return [(1 << u, mask) for u, mask in enumerate(neighbours)]


def qap_masks(inst: QapInstance) -> list[tuple[int, int]]:
    """Each cell (i, j)'s row-and-column mask, twice, in variable order i * n + j."""
    # bit i is facility row i and bit n + j location column j; a cell
    # reaches exactly the bits it holds, so one AND finds a shared one
    n = inst.n
    return [(1 << i | 1 << (n + j),) * 2 for i in range(n) for j in range(n)]


def or_masks(s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
    return s[0] | t[0], s[1] | t[1]


def masks_meet(s_a: tuple[int, int], s_b: tuple[int, int]) -> float:
    """1.0 when a's neighbour mask meets b's vertex mask (a conflict edge, a shared row or column)."""
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
        if overshoot.max(initial=0.0) <= 0:  # also with no rows at all
            break
        row = inst.weights[int(np.argmax(overshoot))]
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
    return RepairReport(bits=bits, iterations=iterations)


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
    return RepairReport(bits=bits, iterations=iterations)


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
    return RepairReport(bits=repaired, iterations=iterations)
