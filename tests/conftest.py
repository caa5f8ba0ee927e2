"""Shared fixtures and deliberately naive reference oracles.

The oracles recompute everything by direct enumeration or textbook formulas,
independent of the library's vectorized implementations, so tests compare
two different computational paths.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from shrinkcut import MaxCutGraph, MdkpInstance, MisInstance, QapInstance, QuboModel

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def every_bitstring(n: int):
    """All 0/1 tuples of length n, in bit-counter order (bit i = variable i)."""
    for counter in range(1 << n):
        yield tuple((counter >> i) & 1 for i in range(n))


def naive_qubo_energy(model: QuboModel, x) -> float:
    """Energy by direct summation (no numpy dot products)."""
    energy = model.offset
    for i, value in enumerate(x):
        energy += model.lin[i] * value
    for (i, j), w in model.quad.items():
        energy += w * x[i] * x[j]
    return energy


def brute_qubo_minimum(model: QuboModel) -> tuple[tuple[int, ...], float]:
    """Global minimizer by enumeration; ties go to the lowest bit counter."""
    best_x = None
    best_e = np.inf
    for x in every_bitstring(model.n_vars):
        e = naive_qubo_energy(model, x)
        if e < best_e:
            best_e = e
            best_x = x
    return best_x, best_e


def naive_cut_value(graph: MaxCutGraph, spins) -> float:
    total = 0.0
    for (i, j), w in graph.edges.items():
        total += 0.5 * w * (1.0 - spins[i] * spins[j])
    return total


def naive_weighted_degrees(graph: MaxCutGraph, absolute: bool = False) -> list[float]:
    degrees = [0.0] * graph.n_nodes
    for (i, j), w in graph.edges.items():
        value = abs(w) if absolute else w
        degrees[i] += value
        degrees[j] += value
    return degrees


def naive_laplacian(graph: MaxCutGraph, weight_mode: str = "absolute") -> list[list[float]]:
    """Textbook L = D - A, one edge at a time."""
    n = graph.n_nodes
    L = [[0.0] * n for _ in range(n)]
    for (i, j), w in graph.edges.items():
        value = abs(w) if weight_mode == "absolute" else w
        L[i][j] -= value
        L[j][i] -= value
        L[i][i] += value
        L[j][j] += value
    return L


def naive_sdp_objective(graph: MaxCutGraph, X) -> float:
    total = 0.0
    for (i, j), w in graph.edges.items():
        total += 0.5 * w * (1.0 - X[i][j])
    return total


def brute_maxcut_value(graph: MaxCutGraph) -> float:
    """Maximum cut weight by enumerating spin assignments (reference fixed +1)."""
    best = -np.inf
    n = graph.n_nodes
    for counter in range(1 << max(0, n - 1)):
        spins = [1] + [1 - 2 * ((counter >> i) & 1) for i in range(n - 1)]
        best = max(best, naive_cut_value(graph, spins))
    return float(best)


# ---------------------------------------------------------------------------
# random problem factories
# ---------------------------------------------------------------------------


def random_qubo(rng: np.random.Generator, n: int, bound: int = 9) -> QuboModel:
    """Random integer-coefficient QUBO with generic spin semantics."""
    quad = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = int(rng.integers(-bound, bound + 1))
            if w != 0:
                quad[(i, j)] = float(w)
    lin = tuple(float(rng.integers(-bound, bound + 1)) for _ in range(n))
    offset = float(rng.integers(-bound, bound + 1))
    return QuboModel(
        n_vars=n,
        quad=quad,
        lin=lin,
        offset=offset,
        semantics=tuple(("spin", i) for i in range(n)),
    )


def random_graph(
    rng: np.random.Generator, n: int, density: float = 0.7, bound: int = 9
) -> MaxCutGraph:
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = int(rng.integers(-bound, bound + 1))
                if w != 0:
                    edges[(i, j)] = float(w)
    return MaxCutGraph(
        n_nodes=n,
        edges=edges,
        offset=float(rng.integers(-bound, bound + 1)),
        var_map={v + 1: v for v in range(n - 1)},
    )


def random_mis(rng: np.random.Generator, n: int, density: float = 0.3) -> MisInstance:
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    )
    return MisInstance(n=n, edges=edges)


# ---------------------------------------------------------------------------
# worked-example fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def mdkp_tiny() -> MdkpInstance:
    """3 items, one capacity row; optimum 12 at items {0, 1}."""
    return MdkpInstance(
        n=3,
        m=1,
        profits=np.array([5.0, 7.0, 4.0]),
        weights=np.array([[2.0, 3.0, 4.0]]),
        capacities=np.array([5.0]),
        known_optimum=12.0,
    )


@pytest.fixture
def mis_triangle() -> MisInstance:
    return MisInstance(n=3, edges=((0, 1), (0, 2), (1, 2)), known_optimum=1.0)


@pytest.fixture
def qap_pair() -> QapInstance:
    """Two facilities with flow 5, two locations at distance 2; optimum 20."""
    return QapInstance(
        n=2,
        flow=np.array([[0.0, 5.0], [5.0, 0.0]]),
        distance=np.array([[0.0, 2.0], [2.0, 0.0]]),
        known_optimum=20.0,
    )


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
