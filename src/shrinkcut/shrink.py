"""Correlation-guided contraction of weighted Max-Cut graphs.

Nodes are greedily merged in pairs, guided by a correlation matrix from the
low-rank SDP relaxation: pick the supernode pair with the strongest effective
correlation (optionally discounted by a constraint-mixing penalty), fix the
relative spin sign to the correlation's sign, and contract. Every contraction
subtracts a constant from the graph offset so that the reduced problem's
energies equal the original energies of the lifted assignments exactly.

Correlations go stale as the graph changes; ``recalc`` picks one of four
refresh policies (fixed period, edge-count drift, correlation-strength
threshold, or cheap local rescaling with no re-solves).

The shrink state has one owner, ``WorkingGraph``: the edge weights W, the
correlations E, the supernode sizes, the penalty summaries and (unless
``recalc`` is "local", which never re-solves) the last solve's S x rank
embedding V, all aligned over the surviving supernodes in ascending id, plus
each original node's representative and relative sign. Absorbing a into b
with sign sigma is one ``WorkingGraph.contract`` call: W[b] += sigma * W[a];
E[b] becomes the size-weighted mean of the two sign-adjusted rows, so E[a, b]
stays the mean sign-adjusted correlation over all node pairs of a and b; V[b]
becomes the unit vector along |b| v_b + sigma |a| v_a (or stays v_b if that
sum vanishes); b's summary combines with a's; a's nodes take b as their
representative, their signs times sigma. Row a is then dropped everywhere:
W and E are copied once, with ``take`` over every other row and then every
other column, and V, the sizes and the ids with one ``take`` each. No other
index is built per merge: both rows come from one ``searchsorted``, and
the merge scores read E through a slice of one cached strict-upper mask. A
re-solve starts from V and replaces E with the SDP correlations of the graph
W (whose node order is those same ids); only the first solve starts from
seeded random vectors.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations, starmap
from typing import Any, Callable

import numpy as np

from .maxcut import MaxCutGraph
from .qubo import json_document, require_choice, require_integer, require_number, require_switch
from .sdp import extract_correlations, require_sdp_limits, solve_maxcut_sdp
from .spectral import laplacian, select_target_size, symmetric_eigenvalues

PenaltyFn = Callable[[Any, Any], float]  # Pi on two supernode summaries
NodeSummaries = tuple[list, Callable[[Any, Any], Any]]  # summary by node id, combine rule

_TIE_WINDOW = 1e-12  # merge scores this close to the best tie with it

_upper = np.zeros((0, 0), dtype=bool)  # ~np.tri of the largest size seen so far
_upper.flags.writeable = False


def _upper_mask(size: int) -> np.ndarray:
    """The strict-upper-triangle mask of a size x size matrix, as a read-only view.

    One mask is cached, that of the largest size seen (n^2 bytes); smaller
    sizes slice its top-left corner, which is their own ``~np.tri``. The
    slice is taken from the mask read or built here, so a caller in another
    thread that swaps the cache meanwhile cannot shrink it.
    """
    global _upper
    mask = _upper
    if len(mask) < size:
        mask = ~np.tri(size, dtype=bool)
        mask.flags.writeable = False
        _upper = mask
    return mask[:size, :size]


@dataclass(frozen=True)
class MergeStep:
    """One contraction: node i was absorbed into node j with spin(i) = sigma * spin(j)."""

    order: int
    i: int
    j: int
    sigma: int

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if self.i == self.j:
            raise ValueError(f"merge step {self.order} absorbs node {self.i} into itself")


@dataclass(frozen=True)
class ShrinkConfig:
    """Knobs for a shrink run.

    stop_mode "k" stops at the node count ``k``; "spectral", which takes no
    ``k``, derives the count from the cumulative Laplacian eigenvalue mass of
    the *initial* graph (fraction ``alpha``, eigenvalues in ``energy_order``).
    """

    stop_mode: str = "spectral"
    k: int | None = None
    alpha: float = 0.9
    energy_order: str = "ascending"
    weight_mode: str = "absolute"
    lam: float = 1.5
    recalc: str = "fixed"
    r: int = 10
    delta: float = 0.1
    tau: float = 0.5
    seed: int = 0
    reference_protected: bool = True
    sdp_rank: int | None = None
    sdp_tol: float = 1e-10
    sdp_max_sweeps: int = 1000

    def __post_init__(self) -> None:
        require_choice("stop_mode", self.stop_mode, ("k", "spectral"))
        if self.k is not None:
            require_integer("k", self.k, low=1)
            if self.stop_mode == "spectral":
                raise ValueError(f"stop_mode 'spectral' never reads k = {self.k}; drop one")
        elif self.stop_mode == "k":
            raise ValueError("stop_mode 'k' needs a target size >= 1, got None")
        require_number("alpha", self.alpha, 0, 1)
        require_choice("energy_order", self.energy_order, ("ascending", "descending"))
        require_choice("weight_mode", self.weight_mode, ("absolute", "raw"))
        require_number("lam", self.lam, 0)
        require_choice("recalc", self.recalc, ("fixed", "delta", "tau", "local"))
        require_integer("r", self.r, low=1)
        require_number("delta", self.delta, 0, strict=True)
        require_number("tau", self.tau, 0, 1)
        require_integer("seed", self.seed, low=0)
        require_switch("reference_protected", self.reference_protected)
        require_sdp_limits(self.sdp_rank, self.sdp_tol, self.sdp_max_sweeps, prefix="sdp_")


@dataclass(frozen=True)
class ShrinkStats:
    merges: int
    recalcs: int
    sdp_seconds: float
    shrink_seconds: float


@dataclass(frozen=True)
class ShrinkResult:
    """Reduced graph plus everything needed to lift a reduced solution back up.

    ``node_order[t]`` is the original node id behind reduced node t. The
    signed partition is two length-n arrays over the original nodes:
    ``label[v]`` is the reduced node that holds v, and ``sign[v]`` is v's
    spin relative to it. ``steps`` is the merge log, in order.
    """

    graph: MaxCutGraph
    node_order: tuple[int, ...]
    steps: tuple[MergeStep, ...]
    label: np.ndarray
    sign: np.ndarray
    target_k: int
    stats: ShrinkStats


class WorkingGraph:
    """The shrink state: everything a contraction folds, aligned over the surviving supernodes.

    ``ids`` lists the surviving supernode ids (each its representative's
    original id) in ascending order. Row and column t of ``weights`` (whose
    diagonal is always 0) and of ``correlations``, row t of ``vectors``,
    ``sizes[t]`` (its original node count) and ``summaries[t]`` (its penalty
    summary) belong to supernode ``ids[t]``. ``correlations`` and ``vectors``
    (an SDP embedding) stay None until the caller sets them; ``summaries``
    stays None unless given as (summary by node id, combine rule). Over the
    original nodes, ``rep[v]`` is the id of v's supernode and ``sign[v]`` is
    v's spin relative to it. By default each id stands for itself alone.
    """

    def __init__(
        self,
        weights: np.ndarray,
        ids: np.ndarray | list[int],
        offset: float,
        summaries: NodeSummaries | None = None,
    ) -> None:
        self.weights = weights
        self.ids = np.asarray(ids)
        self.offset = offset
        self.sizes = np.ones(len(self.ids), dtype=int)
        self.rep = np.arange(int(self.ids.max(initial=-1)) + 1)
        self.sign = np.ones(len(self.rep), dtype=int)
        self.correlations: np.ndarray | None = None
        self.vectors: np.ndarray | None = None
        self.summaries = self.combine = None
        if summaries is not None:
            parts, self.combine = summaries
            self.summaries = [parts[i] for i in self.nodes()]

    @classmethod
    def from_graph(
        cls, graph: MaxCutGraph, summaries: NodeSummaries | None = None
    ) -> "WorkingGraph":
        return cls(np.array(graph.weights), np.arange(graph.n_nodes), graph.offset, summaries)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return np.count_nonzero(self.weights) // 2

    def nodes(self) -> list[int]:
        return self.ids.tolist()

    def rows(self, *nodes: int) -> list[int]:
        """Rows of ``nodes`` in ``weights``, found with one ``searchsorted``."""
        rows = self.ids.searchsorted(nodes).tolist()
        for t, node in zip(rows, nodes):
            if t == len(self.ids) or self.ids[t] != node:
                raise ValueError(f"node {node} not in graph")
        return rows

    def contract(self, i: int, j: int, sigma: int) -> float:
        """Absorb node i into node j with spin(i) = sigma * spin(j), folding all the state.

        With a, b the rows of i and j and n_a, n_b their sizes: W[b] becomes
        W[b] + sigma * W[a] (mirrored into column b, with no self-loop; an
        edge that cancels to exactly 0 is gone); E[b] becomes
        (n_b E[b] + sigma n_a E[a]) / (n_a + n_b), mirrored; V[b] becomes the
        unit vector along n_b V[b] + sigma n_a V[a], or stays if that sum's
        norm is below 1e-12; b's size grows by n_a and its summary is
        combine(b's, a's). i's original nodes take j as their representative,
        their signs times sigma. Row and column a are then dropped: a and b
        come from one ``searchsorted`` over the ids, and W, E, V, the sizes
        and the ids are compacted with ``take`` over one index of every row
        but a (W and E along rows, then columns). The folded rows are
        written into those compacted copies, so the arrays the state held
        before (the caller's W, E and V) are never written. The constant
        (1 - sigma)/2 * sum_k w(i,k) is subtracted from the offset so
        original and reduced energies coincide. Returns that constant.
        """
        a, b = self.rows(i, j)
        if i == j:
            raise ValueError(f"cannot contract node {i} into itself")
        if sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {sigma}")
        W = self.weights
        constant = (1.0 - sigma) / 2.0 * float(W[a].sum())
        self.offset -= constant
        row = W[b] + sigma * W[a]
        row[b] = 0.0
        keep = np.arange(len(self.ids) - 1)
        keep[a:] += 1  # every row but a, in order
        t = b - (a < b)  # b's row once a is dropped
        self.weights, self.ids = W.take(keep, 0).take(keep, 1), self.ids.take(keep)
        self.weights[t] = self.weights[:, t] = row.take(keep)
        n_a, n_b = self.sizes[a], self.sizes[b]
        if self.correlations is not None:
            E = self.correlations
            folded = (n_b * E[b] + sigma * n_a * E[a]) / (n_a + n_b)
            self.correlations = E.take(keep, 0).take(keep, 1)
            self.correlations[t] = self.correlations[:, t] = folded.take(keep)
        if self.vectors is not None:
            folded = n_b * self.vectors[b] + sigma * n_a * self.vectors[a]
            norm = np.linalg.norm(folded)
            self.vectors = self.vectors.take(keep, 0)
            if norm >= 1e-12:
                self.vectors[t] = folded / norm
        self.sizes[b] += n_a
        self.sizes = self.sizes.take(keep)
        if self.summaries is not None:
            self.summaries[b] = self.combine(self.summaries[b], self.summaries[a])
            del self.summaries[a]
        moved = self.rep == i
        self.sign[moved] *= sigma
        self.rep[moved] = j
        return constant

    def to_graph(self) -> tuple[MaxCutGraph, tuple[int, ...]]:
        """Compact to contiguous node ids 0..m-1 (surviving ids ascending).

        Returns the compacted graph and ``node_order`` mapping each reduced
        node index to the original id it represents.
        """
        return MaxCutGraph(self.weights, self.offset), tuple(self.nodes())


def merge_score(correlation: float | np.ndarray, penalty: float | np.ndarray, lam: float):
    """Strong correlations are good merge candidates, constraint mixing is not (elementwise)."""
    return np.abs(correlation) - lam * penalty


def select_merge(
    supernodes: np.ndarray | list[int],
    correlations: np.ndarray,
    lam: float = 1.5,
    penalty: PenaltyFn | None = None,
    summaries: list | None = None,
    rng: np.random.Generator | None = None,
    protected: frozenset[int] = frozenset({0}),
) -> tuple[int, int, int]:
    """Pick the best-scoring supernode pair to contract next.

    ``supernodes`` lists the surviving supernode ids in ascending order
    (``WorkingGraph.ids``), ``summaries`` their penalty summaries, and
    ``penalty`` is called once per pair, on two summaries. ``correlations``
    is the S x S supernode correlation matrix in the same order; only its
    upper triangle is read. Returns (absorbed, survivor, sigma) as ids: the
    smaller id is absorbed into the larger, except that a protected node
    (the reference) always survives. Every pair whose score lies within
    1e-12 of the best ties with it, so that a last-bit difference in the
    correlations (a BLAS kernel's summation order, say) cannot pick the
    merge; ties are broken uniformly at random with ``rng`` among the tied
    pairs in ascending (a, b) order.

    The pairs' correlations are read through a slice of one cached
    read-only strict-upper mask.
    """
    size = len(supernodes)
    if size < 2:
        raise ValueError(f"need at least two supernodes to merge, got {size}")
    if correlations.shape != (size, size):
        raise ValueError(f"need one correlation row per supernode, got shape {correlations.shape}")
    if penalty is not None and (summaries is None or len(summaries) != size):
        raise ValueError("a penalty needs one summary per supernode")
    corr = correlations[_upper_mask(size)]  # the pairs row < col, row-major
    pi = 0.0
    if penalty is not None:  # combinations yields the pairs in the same order
        pairs = combinations(summaries, 2)
        pi = np.fromiter(starmap(penalty, pairs), float, count=len(corr))
    score = merge_score(corr, pi, lam)
    ties = np.flatnonzero(score >= score.max() - _TIE_WINDOW)
    pick = ties[0] if rng is None or len(ties) == 1 else ties[int(rng.integers(len(ties)))]
    row, col = 0, int(pick) + 1
    while col >= size:  # row r holds the pairs (r, r + 1) .. (r, size - 1)
        row += 1
        col -= size - 1 - row
    a, b = int(supernodes[row]), int(supernodes[col])
    sigma = -1 if corr[pick] < 0 else 1
    return (b, a, sigma) if a in protected else (a, b, sigma)


def local_correlation_update(working: WorkingGraph, survivor_row: int, affected_rows) -> None:
    """Rescale ``working.correlations`` around a fresh merge without re-solving the SDP.

    ``survivor_row`` is the survivor's row s and ``affected_rows`` the rows
    k of its affected neighbours (s not among them), both after the merge.
    Each E[s, k] and E[k, s] becomes w(s, k) / sqrt(d_s * d_k) with absolute
    weighted degrees (0 when a degree vanishes). Entries not touching s are
    left exactly as they were.
    """
    s, ks = survivor_row, affected_rows
    degrees = np.abs(working.weights).sum(axis=1)
    scale = np.sqrt(degrees[s] * degrees[ks])
    nonzero = (degrees[s] > 0.0) & (degrees[ks] > 0.0)
    values = np.zeros(len(ks))
    np.divide(working.weights[s, ks], scale, out=values, where=nonzero)
    working.correlations[s, ks] = working.correlations[ks, s] = values


def run_shrink(
    graph: MaxCutGraph,
    config: ShrinkConfig | None = None,
    penalty: PenaltyFn | None = None,
    summaries: NodeSummaries | None = None,
) -> ShrinkResult:
    """Shrink ``graph`` down to the target node count by repeated contraction.

    ``penalty`` (if given) scores how badly two supernodes mix constraint
    structure from their penalty summaries, folded from ``summaries``.
    """
    if config is None:
        config = ShrinkConfig()
    t_start = time.perf_counter()
    n = graph.n_nodes
    if n < 1:
        raise ValueError("cannot shrink an empty graph")

    seed_seq = np.random.SeedSequence(config.seed)
    tie_rng = np.random.default_rng(seed_seq.spawn(1)[0])

    if config.stop_mode == "k":
        target_k = int(config.k)  # validated in ShrinkConfig
    else:
        spectrum = symmetric_eigenvalues(laplacian(graph, config.weight_mode))
        target_k = select_target_size(spectrum, config.alpha, config.energy_order)

    working = WorkingGraph.from_graph(graph, summaries)
    sdp_seconds = 0.0
    recalcs = 0
    steps: list[MergeStep] = []

    def finish() -> ShrinkResult:
        reduced, node_order = working.to_graph()
        stats = ShrinkStats(
            merges=len(steps),
            recalcs=recalcs,
            sdp_seconds=sdp_seconds,
            shrink_seconds=time.perf_counter() - t_start,
        )
        return ShrinkResult(
            graph=reduced,
            node_order=node_order,
            steps=tuple(steps),
            label=np.searchsorted(working.ids, working.rep),
            sign=working.sign,
            target_k=target_k,
            stats=stats,
        )

    if target_k >= n:
        return finish()

    protected = frozenset({0}) if config.reference_protected else frozenset()

    sdp_seed = int(seed_seq.spawn(1)[0].generate_state(1)[0])  # read by the cold first solve only

    def solve_correlations() -> None:
        nonlocal sdp_seconds
        reduced, _ = working.to_graph()  # node order: the ascending supernode ids
        t0 = time.perf_counter()
        embedding = solve_maxcut_sdp(
            reduced,
            rank=config.sdp_rank,
            tol=config.sdp_tol,
            max_sweeps=config.sdp_max_sweeps,
            seed=sdp_seed,
            initial=working.vectors,
        )
        working.correlations = extract_correlations(embedding)
        sdp_seconds += time.perf_counter() - t0
        if config.recalc != "local":  # "local" never re-solves, so keeps no embedding
            working.vectors = embedding.vectors

    solve_correlations()

    merges_since_solve = 0
    edges_at_solve = working.edge_count

    while working.n_nodes > target_k:
        absorbed, survivor, sigma = select_merge(
            working.ids,
            working.correlations,
            lam=config.lam,
            penalty=penalty,
            summaries=working.summaries,
            rng=tie_rng,
            protected=protected,
        )
        if config.recalc == "local":  # the neighbours of either row, read before the merge
            a, b = working.rows(absorbed, survivor)
            touched = (working.weights[a] != 0) | (working.weights[b] != 0)
            touched[[a, b]] = False
            affected = np.flatnonzero(touched)
            affected -= affected > a  # the rows once a is dropped
            survivor_row = b - (a < b)
        working.contract(absorbed, survivor, sigma)
        steps.append(MergeStep(order=len(steps) + 1, i=absorbed, j=survivor, sigma=sigma))
        merges_since_solve += 1

        if working.n_nodes <= target_k:
            break

        if config.recalc == "local":
            local_correlation_update(working, survivor_row, affected)
            continue
        if config.recalc == "fixed":
            due = merges_since_solve >= config.r
        elif config.recalc == "delta":
            drift = abs(working.edge_count - edges_at_solve)
            due = drift != 0 if edges_at_solve == 0 else drift / edges_at_solve > config.delta
        else:  # tau
            upper = working.correlations[_upper_mask(working.n_nodes)]
            due = np.abs(upper).max() < config.tau
        if due:
            solve_correlations()
            recalcs += 1
            merges_since_solve = 0
            edges_at_solve = working.edge_count

    return finish()


def merge_steps_to_jsonl(steps: tuple[MergeStep, ...]) -> str:
    """One JSON object per line: {"order": ..., "i": ..., "j": ..., "sigma": ...}."""
    lines = [
        json.dumps({"order": s.order, "i": s.i, "j": s.j, "sigma": s.sigma})
        for s in steps
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def merge_steps_from_jsonl(text: str) -> tuple[MergeStep, ...]:
    keys = ("order", "i", "j", "sigma")  # MergeStep's fields, in order
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        with json_document(line, f"line {lineno}", keys) as obj:
            values = [obj[key] for key in keys]
            if not all(type(value) is int for value in values):  # not 1.5, 1e400 or true
                raise TypeError(f"fields must be integers, got {values}")
            steps.append(MergeStep(*values))
    return tuple(steps)
