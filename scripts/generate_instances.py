"""Regenerate the bundled benchmark instances under data/.

Every file is deterministic (fixed seeds) and every recorded optimum is
re-verified here by brute force before it is written:

* data/mis/1tc.8.txt, 1tc.16.txt — conflict graphs over all b-bit strings
  (b = 3, 4): two strings conflict when their single-adjacent-transposition
  balls intersect. Independent sets are exactly the codes correcting one
  adjacent transposition; optima (4 and 8) are confirmed by branch and bound.
* data/mdkp/example3x1.txt — the tiny 3-item knapsack with optimum 12.
* data/mdkp/synth24x4.txt — seeded 24-item, 4-constraint knapsack whose
  capacities all sit in [511, 1022] so each row needs exactly 9 slack bits
  (24 + 4*9 = 60 variables in the slack formulation); optimum found by
  enumerating all 2^24 selections.
* data/qap/pair2.txt, rand6.txt — a hand-checkable 2-facility instance and
  a seeded 6-facility instance, optima by permutation enumeration.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from shrinkcut import (
    MdkpInstance,
    MisInstance,
    QapInstance,
    serialize_mdkp,
    serialize_mis_edgelist,
    serialize_qaplib,
    slack_bit_count,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def transposition_conflict_graph(bits: int) -> MisInstance:
    """Conflict graph over all ``bits``-bit strings.

    The ball of a string is itself plus every string reachable by swapping
    one adjacent bit pair; two strings conflict when their balls intersect.
    """
    n = 1 << bits

    def ball(x: int) -> set[int]:
        out = {x}
        for i in range(bits - 1):
            a = (x >> i) & 1
            b = (x >> (i + 1)) & 1
            if a != b:
                out.add(x ^ (0b11 << i))
        return out

    balls = [ball(x) for x in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if balls[u] & balls[v]:
                edges.append((u, v))
    return MisInstance(n=n, edges=tuple(edges))


def mis_optimum(inst: MisInstance) -> int:
    """Largest independent set size by branch and bound on Python-int vertex sets.

    Each branch picks a remaining vertex of largest remaining degree and
    either takes it, dropping its neighbours, or drops it alone. A greedy
    clique cover of the remaining vertices bounds the branch: an independent
    set holds at most one vertex of each clique.
    """
    masks = [0] * inst.n
    for u, v in inst.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0

    def cliques(rest: int) -> int:
        count = 0
        while rest:
            candidates = rest
            while candidates:  # grow a clique from the lowest candidate
                v = (candidates & -candidates).bit_length() - 1
                rest &= ~(1 << v)
                candidates &= masks[v]
            count += 1
        return count

    def search(rest: int, size: int) -> None:
        nonlocal best
        if size + cliques(rest) <= best:
            return
        if not rest:
            best = size
            return
        members = [v for v in range(inst.n) if rest >> v & 1]
        v = max(members, key=lambda u: (masks[u] & rest).bit_count())
        search(rest & ~masks[v] & ~(1 << v), size + 1)
        search(rest & ~(1 << v), size)

    search((1 << inst.n) - 1, 0)
    return best


def brute_force_mdkp(inst: MdkpInstance, chunk: int = 1 << 18) -> float:
    """Optimal profit by enumerating all item subsets in vectorized chunks."""
    n = inst.n
    best = 0.0
    for start in range(0, 1 << n, chunk):
        counters = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        B = ((counters[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        loads = B @ inst.weights.T
        feasible = np.all(loads <= inst.capacities[None, :], axis=1)
        if feasible.any():
            best = max(best, float((B[feasible] @ inst.profits).max()))
    return best


def brute_force_qap(inst: QapInstance) -> float:
    best = np.inf
    for perm in itertools.permutations(range(inst.n)):
        cost = sum(
            inst.flow[i, k] * inst.distance[perm[i], perm[k]]
            for i in range(inst.n)
            for k in range(inst.n)
        )
        best = min(best, float(cost))
    return best


def make_mis_files() -> None:
    out_dir = DATA / "mis"
    out_dir.mkdir(parents=True, exist_ok=True)
    optima = {}
    for bits, name, expected in ((3, "1tc.8", 4), (4, "1tc.16", 8)):
        inst = transposition_conflict_graph(bits)
        found = mis_optimum(inst)
        if found != expected:
            raise AssertionError(f"{name}: branch and bound found {found}, expected {expected}")
        (out_dir / f"{name}.txt").write_text(serialize_mis_edgelist(inst))
        optima[name] = found
        print(f"{name}: {inst.n} vertices, {len(inst.edges)} edges, optimum {found}")
    (out_dir / "optima.txt").write_text(
        "".join(f"{name} {value}\n" for name, value in optima.items())
    )


def make_mdkp_files() -> None:
    out_dir = DATA / "mdkp"
    out_dir.mkdir(parents=True, exist_ok=True)

    tiny = MdkpInstance(
        n=3,
        m=1,
        profits=np.array([5.0, 7.0, 4.0]),
        weights=np.array([[2.0, 3.0, 4.0]]),
        capacities=np.array([5.0]),
        known_optimum=12.0,
    )
    assert brute_force_mdkp(tiny) == 12.0
    (out_dir / "example3x1.txt").write_text(serialize_mdkp(tiny))
    print("example3x1: optimum 12 confirmed")

    rng = np.random.default_rng(240817)
    n, m = 24, 4
    profits = rng.integers(10, 101, size=n).astype(float)
    weights = rng.integers(1, 121, size=(m, n)).astype(float)
    capacities = np.clip(np.round(0.4 * weights.sum(axis=1)), 511, 1022)
    for c in capacities:
        assert slack_bit_count(c) == 9, f"capacity {c} needs != 9 slack bits"
    inst = MdkpInstance(n=n, m=m, profits=profits, weights=weights, capacities=capacities)
    optimum = brute_force_mdkp(inst)
    inst = MdkpInstance(
        n=n, m=m, profits=profits, weights=weights, capacities=capacities,
        known_optimum=optimum,
    )
    (out_dir / "synth24x4.txt").write_text(serialize_mdkp(inst))
    print(f"synth24x4: capacities {capacities.astype(int).tolist()}, optimum {optimum:.0f}")


def make_qap_files() -> None:
    out_dir = DATA / "qap"
    out_dir.mkdir(parents=True, exist_ok=True)
    optima = {}

    pair2 = QapInstance(
        n=2,
        flow=np.array([[0.0, 5.0], [5.0, 0.0]]),
        distance=np.array([[0.0, 2.0], [2.0, 0.0]]),
    )
    optima["pair2"] = brute_force_qap(pair2)
    assert optima["pair2"] == 20.0
    (out_dir / "pair2.txt").write_text(serialize_qaplib(pair2))
    print(f"pair2: optimum {optima['pair2']:.0f}")

    rng = np.random.default_rng(60417)
    n = 6
    flow = rng.integers(0, 10, size=(n, n)).astype(float)
    flow = np.triu(flow, 1)
    flow = flow + flow.T
    distance = rng.integers(1, 10, size=(n, n)).astype(float)
    distance = np.triu(distance, 1)
    distance = distance + distance.T
    rand6 = QapInstance(n=n, flow=flow, distance=distance)
    optima["rand6"] = brute_force_qap(rand6)
    (out_dir / "rand6.txt").write_text(serialize_qaplib(rand6))
    print(f"rand6: optimum {optima['rand6']:.0f}")

    (out_dir / "optima.txt").write_text(
        "".join(f"{name} {value:.0f}\n" for name, value in optima.items())
    )


def main() -> None:
    make_mis_files()
    make_mdkp_files()
    make_qap_files()
    print(f"instances written under {DATA}")


if __name__ == "__main__":
    main()
