"""Regenerate the bundled benchmark instances under data/.

Every file is deterministic (fixed seeds) and every recorded optimum is
proven here before it is written:

* data/mis/1tc.8.txt, 1tc.16.txt — conflict graphs over all b-bit strings
  (b = 3, 4): two strings conflict when their single-adjacent-transposition
  balls intersect. Independent sets are exactly the codes correcting one
  adjacent transposition; optima (4 and 8) are proven by HiGHS.
* data/mdkp/example3x1.txt — the tiny 3-item knapsack with optimum 12.
* data/mdkp/synth24x4.txt — seeded 24-item, 4-constraint knapsack whose
  capacities all sit in [511, 1022] so each row needs exactly 9 slack bits
  (24 + 4*9 = 60 variables in the slack formulation); optimum proven by HiGHS.
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


def binary_optimum(profits, rows, limits) -> int:
    """Largest ``profits @ x`` over 0/1 vectors x with ``rows @ x <= limits``.

    One HiGHS branch and cut (``scipy.optimize.milp``) with no gap allowed.
    The value is returned only when HiGHS reports a proven optimum, its
    objective and its dual bound lie within 1e-6 of one integer, and the
    rounded solution meets every row exactly and attains that integer;
    anything else, such as a limit that ran out, raises RuntimeError.
    scipy.optimize is imported here, not at module level, so that loading
    this module for ``transposition_conflict_graph`` stays cheap.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    profits, rows, limits = (np.asarray(a, dtype=float) for a in (profits, rows, limits))
    if profits.size == 0:  # HiGHS rejects an empty objective
        return 0
    res = milp(
        -profits,
        integrality=1,
        bounds=Bounds(0, 1),
        constraints=[LinearConstraint(rows, ub=limits)] if len(rows) else [],
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS proved no optimum: {res.message}")
    value = round(-res.fun)
    if max(abs(-res.fun - value), abs(-res.mip_dual_bound - value)) > 1e-6:
        raise RuntimeError(
            f"objective {-res.fun} and bound {-res.mip_dual_bound} are not one integer"
        )
    x = np.round(res.x)
    if np.any(rows @ x > limits) or profits @ x != value:
        raise RuntimeError(f"the rounded solution does not attain {value} within the rows")
    return value


def mis_optimum(inst: MisInstance) -> int:
    """Independence number: at most one endpoint of each edge."""
    edges = np.array(inst.edges, dtype=int).reshape(-1, 2)
    return binary_optimum(np.ones(inst.n), np.eye(inst.n)[edges].sum(axis=1), np.ones(len(edges)))


def brute_force_qap(inst: QapInstance) -> float:
    """Least cost over every facility permutation."""
    return min(
        float((inst.flow * inst.distance[np.ix_(perm, perm)]).sum())
        for perm in itertools.permutations(range(inst.n))
    )


def make_mis_files() -> None:
    out_dir = DATA / "mis"
    out_dir.mkdir(parents=True, exist_ok=True)
    optima = {}
    for bits, name, expected in ((3, "1tc.8", 4), (4, "1tc.16", 8)):
        inst = transposition_conflict_graph(bits)
        found = mis_optimum(inst)
        if found != expected:
            raise AssertionError(f"{name}: HiGHS found {found}, expected {expected}")
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
    assert binary_optimum(tiny.profits, tiny.weights, tiny.capacities) == 12
    (out_dir / "example3x1.txt").write_text(serialize_mdkp(tiny))
    print("example3x1: optimum 12 confirmed")

    rng = np.random.default_rng(240817)
    n, m = 24, 4
    profits = rng.integers(10, 101, size=n).astype(float)
    weights = rng.integers(1, 121, size=(m, n)).astype(float)
    capacities = np.clip(np.round(0.4 * weights.sum(axis=1)), 511, 1022)
    for c in capacities:
        assert slack_bit_count(c) == 9, f"capacity {c} needs != 9 slack bits"
    optimum = binary_optimum(profits, weights, capacities)
    inst = MdkpInstance(
        n=n, m=m, profits=profits, weights=weights, capacities=capacities,
        known_optimum=float(optimum),
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
