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

The state is the edge weights W of the working graph, the correlations E and
the signed partition, all aligned over the surviving supernodes in ascending
representative id, and all reduced by one contraction. Absorbing a into b with
sign sigma sets W[b] += sigma * W[a], appends a's members to b's, multiplies
their signs by sigma, and makes E[b] the size-weighted mean of the two
sign-adjusted rows, so E[a, b] stays the mean sign-adjusted correlation over
all member pairs of a and b. Each supernode's penalty summary (if any) takes
a's members one at a time in member order. W, E, the member lists and the
summaries then drop a's row.
Unless ``recalc`` is "local" (which never re-solves), the state also holds
the last solve's S x rank embedding V, whose row b becomes the unit vector
along |b| v_b + sigma |a| v_a (or stays v_b if that sum vanishes) before row
a is dropped. A re-solve starts from V and replaces E with the SDP
correlations of the graph W (whose node order is those same ids); only the
first solve starts from seeded random vectors.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, starmap
from math import inf
from typing import Any, Callable

import numpy as np

from .maxcut import MaxCutGraph
from .qubo import json_document, require_integer, require_seed
from .sdp import extract_correlations, solve_maxcut_sdp
from .spectral import laplacian, select_target_size, symmetric_eigenvalues

PenaltyFn = Callable[[Any, Any], float]  # Pi on two supernode summaries
NodeSummaries = tuple[list, Callable[[Any, Any], Any]]  # summary by node id, combine rule

_TIE_WINDOW = 1e-12  # merge scores this close to the best tie with it


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

    stop_mode "k" stops at an explicit node count; "spectral" derives the
    count from the cumulative Laplacian eigenvalue mass of the *initial*
    graph (fraction ``alpha``, eigenvalues taken in ``energy_order``).
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
        if self.stop_mode not in ("k", "spectral"):
            raise ValueError(f"stop_mode must be 'k' or 'spectral', got {self.stop_mode!r}")
        if self.stop_mode == "k":
            if self.k is None or self.k < 1:
                raise ValueError(f"stop_mode 'k' needs a target size >= 1, got {self.k}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.energy_order not in ("ascending", "descending"):
            raise ValueError(f"energy_order must be 'ascending' or 'descending', got {self.energy_order!r}")
        if self.weight_mode not in ("absolute", "raw"):
            raise ValueError(f"weight_mode must be 'absolute' or 'raw', got {self.weight_mode!r}")
        lam, delta = self.lam, self.delta
        if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0 <= lam < inf:
            raise ValueError(f"lam must be a finite number >= 0, got {lam!r}")
        if self.recalc not in ("fixed", "delta", "tau", "local"):
            raise ValueError(f"recalc must be one of fixed/delta/tau/local, got {self.recalc!r}")
        require_integer("r", self.r)
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < inf:
            raise ValueError(f"delta must be a finite number > 0, got {delta!r}")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        require_seed(self.seed)


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
    """Dense S x S edge weights over the surviving nodes, which keep their original ids.

    ``ids`` lists the surviving node ids in ascending order; row and column t
    of ``weights`` belong to node ``ids[t]``. The diagonal is always 0.
    ``members[t]`` lists the original nodes that row t stands for, its
    representative ``ids[t]`` first, and ``sign[v]`` is original node v's
    spin relative to its representative. By default each id stands for
    itself alone. Given ``summaries``, ``self.summaries[t]`` is row t's
    penalty summary: its members' summaries combined in member order.
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
        self.members = [[i] for i in self.ids.tolist()]
        self.sign = np.ones(int(self.ids.max(initial=-1)) + 1, dtype=int)
        self.node_summaries = summaries
        self.summaries = None if summaries is None else [summaries[0][i] for i in self.nodes()]

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

    def position(self, i: int) -> int:
        """Row of node ``i`` in ``weights``."""
        t = int(np.searchsorted(self.ids, i))
        if t == len(self.ids) or self.ids[t] != i:
            raise ValueError(f"node {i} not in graph")
        return t

    def contract(self, i: int, j: int, sigma: int) -> float:
        """Absorb node i into node j with spin(i) = sigma * spin(j).

        Row j becomes W[j] + sigma * W[i] (mirrored into column j, with no
        self-loop), and row and column i are dropped; an edge that cancels to
        exactly 0 is gone. i's members follow j's, their signs times sigma,
        and j's summary takes their summaries one at a time (MDKP's sum of
        i's summary would round differently). The constant (1 - sigma)/2 *
        sum_k w(i,k) is subtracted from the offset so original and reduced
        energies coincide. Returns that constant.
        """
        a, b = self.position(i), self.position(j)
        if i == j:
            raise ValueError(f"cannot contract node {i} into itself")
        if sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {sigma}")
        W = self.weights
        constant = (1.0 - sigma) / 2.0 * float(W[a].sum())
        self.offset -= constant
        row = W[b] + sigma * W[a]
        row[b] = 0.0
        W[b] = W[:, b] = row
        keep = self.ids != i
        self.weights, self.ids = W[np.ix_(keep, keep)], self.ids[keep]
        absorbed = self.members.pop(a)
        self.sign[absorbed] *= sigma
        self.members[b - (a < b)] += absorbed
        if self.summaries is not None:
            node_summaries, combine = self.node_summaries
            parts = [node_summaries[v] for v in absorbed]
            self.summaries[b] = reduce(combine, parts, self.summaries[b])
            del self.summaries[a]
        return constant

    def label(self) -> np.ndarray:
        """The row of each original node, from the member lists."""
        label = np.empty(len(self.sign), dtype=int)
        for t, group in enumerate(self.members):
            label[group] = t
        return label

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
    supernodes: list[list[int]],
    correlations: np.ndarray,
    lam: float = 1.5,
    penalty: PenaltyFn | None = None,
    summaries: list | None = None,
    rng: np.random.Generator | None = None,
    protected: frozenset[int] = frozenset({0}),
) -> tuple[int, int, int]:
    """Pick the best-scoring supernode pair to contract next.

    ``supernodes`` holds one member list per surviving supernode, its
    representative first, in ascending representative id (``WorkingGraph.
    members``), ``summaries`` their penalty summaries, and ``penalty`` is
    called once per pair, on two summaries. ``correlations`` is the S x S
    supernode correlation matrix in the same order; only its upper triangle
    is read. Returns (absorbed, survivor, sigma) as representative ids: the
    smaller id is absorbed into the larger, except that a protected node
    (the reference) always survives. Every pair whose score lies within
    1e-12 of the best ties with it, so that a last-bit difference in the
    correlations (a BLAS kernel's summation order, say) cannot pick the
    merge; ties are broken uniformly at random with ``rng`` among the tied
    pairs in ascending (a, b) order.
    """
    size = len(supernodes)
    if size < 2:
        raise ValueError(f"need at least two supernodes to merge, got {size}")
    if correlations.shape != (size, size):
        raise ValueError(f"need one correlation row per supernode, got shape {correlations.shape}")
    if penalty is not None and (summaries is None or len(summaries) != size):
        raise ValueError("a penalty needs one summary per supernode")
    corr = correlations[~np.tri(size, dtype=bool)]  # the pairs row < col, row-major
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
    a, b = supernodes[row][0], supernodes[col][0]
    sigma = -1 if corr[pick] < 0 else 1
    return (b, a, sigma) if a in protected else (a, b, sigma)


def local_correlation_update(
    correlations: np.ndarray,
    working: WorkingGraph,
    survivor: int,
    affected: set[int],
) -> None:
    """Rescale correlations around a fresh merge without re-solving the SDP.

    ``correlations`` is aligned with ``working.ids``. For each affected
    neighbor supernode k, the entries E[survivor, k] and E[k, survivor]
    become w(survivor, k) / sqrt(d_survivor * d_k) with absolute weighted
    degrees after the merge (0 when a degree vanishes). Entries not touching
    the survivor are left exactly as they were.
    """
    s = working.position(survivor)
    ks = np.searchsorted(working.ids, sorted(set(affected) - {survivor}))
    degrees = np.abs(working.weights).sum(axis=1)
    scale = np.sqrt(degrees[s] * degrees[ks])
    nonzero = (degrees[s] > 0.0) & (degrees[ks] > 0.0)
    values = np.zeros(len(ks))
    np.divide(working.weights[s, ks], scale, out=values, where=nonzero)
    correlations[s, ks] = correlations[ks, s] = values


def _fold_correlations(
    correlations: np.ndarray, members: list[list[int]], a: int, b: int, sigma: int
) -> np.ndarray:
    """The S x S correlations after absorbing row ``a`` into row ``b`` with sign ``sigma``.

    ``members`` (aligned with the rows) is read before the merge. Row and
    column b become the size-weighted mean of both sign-adjusted rows; row
    and column a are dropped. The diagonal is never read.
    """
    n_a, n_b = len(members[a]), len(members[b])
    row = (n_b * correlations[b] + sigma * n_a * correlations[a]) / (n_a + n_b)
    correlations[b] = correlations[:, b] = row
    keep = np.arange(len(members)) != a
    return correlations[np.ix_(keep, keep)]


def _fold_embedding(
    vectors: np.ndarray, members: list[list[int]], a: int, b: int, sigma: int
) -> np.ndarray:
    """The S x rank embedding after absorbing row ``a`` into row ``b`` with sign ``sigma``.

    ``members`` (aligned with the rows) is read before the merge. Row b
    becomes the unit vector along the size-weighted sum of both sign-adjusted
    rows, or keeps its vector if that sum's norm is below 1e-12; row a is
    dropped. ``vectors`` is not written.
    """
    n_a, n_b = len(members[a]), len(members[b])
    row = n_b * vectors[b] + sigma * n_a * vectors[a]
    norm = np.linalg.norm(row)
    folded = np.delete(vectors, a, axis=0)
    if norm >= 1e-12:
        folded[b - (a < b)] = row / norm
    return folded


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
            label=working.label(),
            sign=working.sign,
            target_k=target_k,
            stats=stats,
        )

    if target_k >= n:
        return finish()

    protected = frozenset({0}) if config.reference_protected else frozenset()

    sdp_seed = int(seed_seq.spawn(1)[0].generate_state(1)[0])  # read by the cold first solve only
    vectors = None  # the last solve's embedding, folded like E; never kept under "local"

    def solve_correlations() -> np.ndarray:
        nonlocal sdp_seconds, vectors
        reduced, _ = working.to_graph()  # node order: the ascending supernode ids
        t0 = time.perf_counter()
        embedding = solve_maxcut_sdp(
            reduced,
            rank=config.sdp_rank,
            tol=config.sdp_tol,
            max_sweeps=config.sdp_max_sweeps,
            seed=sdp_seed,
            initial=vectors,
        )
        gram = extract_correlations(embedding)
        sdp_seconds += time.perf_counter() - t0
        if config.recalc != "local":
            vectors = embedding.vectors
        return gram

    correlations = solve_correlations()

    merges_since_solve = 0
    edges_at_solve = working.edge_count

    while working.n_nodes > target_k:
        absorbed, survivor, sigma = select_merge(
            working.members,
            correlations,
            lam=config.lam,
            penalty=penalty,
            summaries=working.summaries,
            rng=tie_rng,
            protected=protected,
        )
        a, b = working.position(absorbed), working.position(survivor)
        rows = working.weights[[a, b]]
        affected = set(working.ids[rows.any(axis=0)].tolist()) - {absorbed, survivor}
        correlations = _fold_correlations(correlations, working.members, a, b, sigma)
        if vectors is not None:
            vectors = _fold_embedding(vectors, working.members, a, b, sigma)
        working.contract(absorbed, survivor, sigma)
        steps.append(MergeStep(order=len(steps) + 1, i=absorbed, j=survivor, sigma=sigma))
        merges_since_solve += 1

        if working.n_nodes <= target_k:
            break

        if config.recalc == "local":
            local_correlation_update(correlations, working, survivor, affected)
            continue
        if config.recalc == "fixed":
            due = merges_since_solve >= config.r
        elif config.recalc == "delta":
            drift = abs(working.edge_count - edges_at_solve)
            due = drift != 0 if edges_at_solve == 0 else drift / edges_at_solve > config.delta
        else:  # tau
            due = np.abs(correlations[~np.tri(len(correlations), dtype=bool)]).max() < config.tau
        if due:
            correlations = solve_correlations()
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
