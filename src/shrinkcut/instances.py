"""Benchmark instance models and parsers.

Three problem families are supported:

* multidimensional knapsack (MDKP): maximize profit under m capacity rows,
* maximum independent set (MIS): largest vertex set with no internal edge,
* quadratic assignment (QAP): permutation minimizing sum of flow x distance.

All parsers consume plain whitespace-separated text and fail loudly with the
position of the offending token; nothing is silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Raised when an instance stream is malformed."""


def _check_optimum(value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"known optimum must be finite, got {value}")


@dataclass(frozen=True)
class MdkpInstance:
    """Multidimensional knapsack data: n items, m capacity constraints."""

    n: int
    m: int
    profits: np.ndarray          # shape (n,)
    weights: np.ndarray          # shape (m, n)
    capacities: np.ndarray       # shape (m,)
    known_optimum: float | None = None

    def __post_init__(self) -> None:
        if self.profits.shape != (self.n,):
            raise ValueError(f"profits must have shape ({self.n},), got {self.profits.shape}")
        if self.weights.shape != (self.m, self.n):
            raise ValueError(
                f"weights must have shape ({self.m}, {self.n}), got {self.weights.shape}"
            )
        if self.capacities.shape != (self.m,):
            raise ValueError(
                f"capacities must have shape ({self.m},), got {self.capacities.shape}"
            )
        for name in ("profits", "weights", "capacities"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"all {name} must be finite")
        _check_optimum(self.known_optimum)
        if np.any(self.profits < 0):
            raise ValueError("all profits must be nonnegative")
        if np.any(self.weights < 0):
            raise ValueError("all weights must be nonnegative")
        if np.any(self.capacities <= 0):
            raise ValueError("all capacities must be positive")


@dataclass(frozen=True)
class MisInstance:
    """Undirected graph for maximum independent set; 0-based edges in either orientation."""

    n: int
    edges: tuple[tuple[int, int], ...]
    known_optimum: int | None = None

    def __post_init__(self) -> None:
        _check_optimum(self.known_optimum)
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n} vertices")
        if len({(min(e), max(e)) for e in self.edges}) != len(self.edges):
            raise ValueError("edge set contains duplicates")

    def adjacency(self) -> list[set[int]]:
        """Neighbor sets per vertex."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class QapInstance:
    """Quadratic assignment data: n x n flow and distance matrices."""

    n: int
    flow: np.ndarray
    distance: np.ndarray
    known_optimum: float | None = None

    def __post_init__(self) -> None:
        if self.flow.shape != (self.n, self.n):
            raise ValueError(f"flow must have shape ({self.n}, {self.n}), got {self.flow.shape}")
        if self.distance.shape != (self.n, self.n):
            raise ValueError(
                f"distance must have shape ({self.n}, {self.n}), got {self.distance.shape}"
            )
        if not (np.all(np.isfinite(self.flow)) and np.all(np.isfinite(self.distance))):
            raise ValueError("flow/distance entries must be finite")
        _check_optimum(self.known_optimum)
        if np.any(self.flow < 0) or np.any(self.distance < 0):
            raise ValueError("flow/distance entries must be nonnegative")


class _TokenStream:
    """Sequential numeric token reader with positional error messages."""

    def __init__(self, text: str):
        self._tokens = text.split()
        self._pos = 0

    def next_float(self, what: str) -> float:
        if self._pos >= len(self._tokens):
            raise ParseError(f"unexpected end of input while reading {what} (token {self._pos})")
        tok = self._tokens[self._pos]
        self._pos += 1
        try:
            return float(tok)
        except ValueError as exc:
            raise ParseError(f"bad numeric token {tok!r} for {what} (token {self._pos - 1})") from exc

    def next_floats(self, count: int, what: str) -> np.ndarray:
        """The next ``count`` tokens; token k is named ``what k`` in errors.

        Fails before reading any if fewer than ``count`` tokens are left,
        naming the first missing one and ``count``.
        """
        left = len(self._tokens) - self._pos
        if count > left:
            raise ParseError(
                f"unexpected end of input while reading {what} {left} of {count}"
                f" (token {len(self._tokens)})"
            )
        return np.array([self.next_float(f"{what} {k}") for k in range(count)], dtype=float)

    def next_count(self, what: str) -> int:
        value = self.next_float(what)
        if not value.is_integer() or value < 0:
            raise ParseError(
                f"expected a non-negative integer for {what}, got {value} (token {self._pos - 1})"
            )
        return int(value)

    def expect_end(self) -> None:
        if self._pos != len(self._tokens):
            raise ParseError(
                f"trailing input: expected {self._pos} tokens, found {len(self._tokens)}"
            )


def parse_mdkp(text: str) -> MdkpInstance:
    """Parse an MDKP stream: header ``n m opt`` (opt 0 = unknown), n profits,
    m rows of n weights, then m capacities."""
    stream = _TokenStream(text)
    n = stream.next_count("item count n")
    m = stream.next_count("constraint count m")
    opt = stream.next_float("header optimum")
    profits = stream.next_floats(n, "profit")
    weights = stream.next_floats(m * n, "weight entry")
    # with no items, m rows hold no token: reading the m capacities first
    # bounds m by the input before it becomes an array dimension
    capacities = stream.next_floats(m, "capacity")
    weights = weights.reshape(m, n)  # row-major
    stream.expect_end()
    return MdkpInstance(
        n=n,
        m=m,
        profits=profits,
        weights=weights,
        capacities=capacities,
        known_optimum=None if opt == 0 else opt,
    )


def serialize_mdkp(inst: MdkpInstance) -> str:
    """Canonical writer for :func:`parse_mdkp` (round-trips)."""
    opt = inst.known_optimum if inst.known_optimum is not None else 0
    parts = [f"{inst.n} {inst.m} {_fmt(opt)}"]
    parts.append(" ".join(_fmt(p) for p in inst.profits))
    for j in range(inst.m):
        parts.append(" ".join(_fmt(w) for w in inst.weights[j]))
    parts.append(" ".join(_fmt(c) for c in inst.capacities))
    return "\n".join(parts) + "\n"


def parse_mis_edgelist(text: str) -> MisInstance:
    """Parse an MIS edge list: first line ``n``, then ``u v`` lines, 1-based.

    Duplicate and reversed pairs collapse to one edge; self-loops are errors.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty MIS instance")
    try:
        (n,) = map(int, lines[0].split())
    except ValueError as exc:  # not exactly one token, or not an integer
        raise ParseError(f"bad vertex count line {lines[0]!r}") from exc
    edges: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad endpoint in {line!r}") from exc
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: endpoint out of range in {line!r} (n={n})")
        a, b = u - 1, v - 1
        edges.add((min(a, b), max(a, b)))
    return MisInstance(n=n, edges=tuple(sorted(edges)))


def serialize_mis_edgelist(inst: MisInstance) -> str:
    """Canonical writer for :func:`parse_mis_edgelist` (round-trips)."""
    lines = [str(inst.n)]
    for u, v in sorted(inst.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_qaplib(text: str) -> QapInstance:
    """Parse a QAP stream: n, then n^2 flow entries row-major, then n^2 distances."""
    stream = _TokenStream(text)
    n = stream.next_count("size n")
    flow = stream.next_floats(n * n, "flow entry").reshape(n, n)
    distance = stream.next_floats(n * n, "distance entry").reshape(n, n)
    stream.expect_end()
    return QapInstance(n=n, flow=flow, distance=distance)


def serialize_qaplib(inst: QapInstance) -> str:
    """Canonical writer for :func:`parse_qaplib` (round-trips)."""
    parts = [str(inst.n)]
    for row in inst.flow:
        parts.append(" ".join(_fmt(x) for x in row))
    for row in inst.distance:
        parts.append(" ".join(_fmt(x) for x in row))
    return "\n".join(parts) + "\n"


def load_optima(path: str | Path) -> dict[str, float]:
    """Read a sidecar file of ``name value`` lines (known optima); a name may appear once."""
    table: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'name value', got {raw!r}")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value in {raw!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: value must be finite, got {raw!r}")
        if parts[0] in lines:
            raise ParseError(
                f"{path}: {parts[0]!r} is listed twice, on lines {lines[parts[0]]} and {lineno}"
            )
        lines[parts[0]] = lineno
        table[parts[0]] = value
    return table


def _fmt(x: float) -> str:
    """Render a number without a spurious trailing .0 for integral values."""
    xf = float(x)
    if xf == int(xf):
        return str(int(xf))
    return repr(xf)
