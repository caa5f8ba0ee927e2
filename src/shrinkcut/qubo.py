"""Penalized QUBO construction and evaluation.

A :class:`QuboModel` is the minimization objective

    E(x) = sum_{i<j} quad[(i,j)] x_i x_j + sum_i lin[i] x_i + offset

over binary x. Builders encode each problem's objective plus quadratic
constraint penalties of strength P. Every variable carries a semantics tag:

    ("item", i)       MDKP decision variable for item i
    ("slack", j, k)   MDKP slack bit k of constraint j (weight 2^k)
    ("vertex", v)     MIS decision variable for vertex v
    ("assign", i, j)  QAP flattened variable x_{ij} (facility i at location j)
    ("spin", node)    generic variable re-derived from a Max-Cut node

The ``quad`` dict is the stored format; energies and solvers read its
upper-triangular array view :meth:`QuboModel.quad_matrix`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instances import MdkpInstance, MisInstance, QapInstance

VarTag = tuple  # ("item", i) | ("slack", j, k) | ("vertex", v) | ("assign", i, j) | ("spin", n)


@dataclass(frozen=True)
class QuboModel:
    """Immutable QUBO: pairwise coefficients (keys i<j), linear terms, offset."""

    n_vars: int
    quad: dict[tuple[int, int], float]
    lin: tuple[float, ...]
    offset: float
    semantics: tuple[VarTag, ...]

    def __post_init__(self) -> None:
        if len(self.lin) != self.n_vars:
            raise ValueError(f"lin has length {len(self.lin)}, expected {self.n_vars}")
        if len(self.semantics) != self.n_vars:
            raise ValueError(
                f"semantics has length {len(self.semantics)}, expected {self.n_vars}"
            )
        for (i, j), w in self.quad.items():
            if not (0 <= i < j < self.n_vars):
                raise ValueError(f"quad key ({i}, {j}) is not an ordered pair within range")
            if w == 0:
                raise ValueError(f"quad key ({i}, {j}) stores a zero coefficient")

    @cached_property
    def _quad_matrix(self) -> np.ndarray:
        return pair_matrix(self.quad, self.n_vars)

    def quad_matrix(self) -> np.ndarray:
        """``quad`` as an upper-triangular n_vars x n_vars array (built once, read-only)."""
        return self._quad_matrix


def pair_matrix(
    pairs: dict[tuple[int, int], float], n: int, symmetric: bool = False
) -> np.ndarray:
    """Read-only n x n array with pairs[(i, j)] at [i, j] (and at [j, i] if symmetric)."""
    ij = np.array(list(pairs), dtype=int).reshape(-1, 2)
    values = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
    matrix = np.zeros((n, n))
    matrix[ij[:, 0], ij[:, 1]] = values
    if symmetric:
        matrix[ij[:, 1], ij[:, 0]] = values
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class PenaltyPolicy:
    """Penalty strength policy: P is lambda_pen times a problem-derived scale."""

    multiplier: float = 10.0

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError(f"penalty multiplier must be positive, got {self.multiplier}")


#: Default penalty multipliers per problem kind (smallest of the recommended ranges).
DEFAULT_MULTIPLIER = {"mdkp": 10.0, "mis": 3.0, "qap": 10.0}


def recommend_penalty(inst, policy: PenaltyPolicy) -> float:
    """Penalty strength P for an instance under ``policy``.

    MDKP: P = multiplier * max profit (multiplier alone if there are no items).
    MIS:  P = multiplier.
    QAP:  P = multiplier * max |F_ik * D_jl| over all index combinations.
    """
    if isinstance(inst, MdkpInstance):
        scale = float(np.max(inst.profits)) if inst.n > 0 else 1.0
        if scale == 0.0:
            scale = 1.0
        return policy.multiplier * scale
    if isinstance(inst, MisInstance):
        return policy.multiplier
    if isinstance(inst, QapInstance):
        if inst.n == 0:
            return policy.multiplier
        scale = float(np.max(np.abs(np.outer(inst.flow, inst.distance))))
        if scale == 0.0:
            scale = 1.0
        return policy.multiplier * scale
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


class _QuboBuilder:
    """Accumulates coefficients; drops exact zeros on finalization."""

    def __init__(self, n_vars: int, semantics: list[VarTag]):
        self.n_vars = n_vars
        self.semantics = semantics
        self.quad: dict[tuple[int, int], float] = {}
        self.lin = np.zeros(n_vars)
        self.offset = 0.0

    def add_quad(self, i: int, j: int, w: float) -> None:
        if i == j:
            # x_i^2 = x_i for binary variables
            self.lin[i] += w
            return
        key = (i, j) if i < j else (j, i)
        self.quad[key] = self.quad.get(key, 0.0) + w

    def build(self) -> QuboModel:
        quad = {k: w for k, w in self.quad.items() if w != 0.0}
        return QuboModel(
            n_vars=self.n_vars,
            quad=quad,
            lin=tuple(float(v) for v in self.lin),
            offset=float(self.offset),
            semantics=tuple(self.semantics),
        )


def slack_bit_count(capacity: float) -> int:
    """Number of slack bits for one capacity row: floor(log2(C + 1))."""
    return int(math.floor(math.log2(capacity + 1)))


def build_mdkp_qubo(inst: MdkpInstance, P: float, use_slack: bool = False) -> QuboModel:
    """MDKP as a QUBO: minimize -profit + P * sum_j (load_j [+ slack_j] - C_j)^2.

    Without slack the squared penalty acts directly on the residual, so exact
    fills are free and any deviation is charged. With ``use_slack`` each
    constraint j gains floor(log2(C_j + 1)) power-of-two slack bits appended
    after the item variables and the penalty becomes an equality form.
    """
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    semantics: list[VarTag] = [("item", i) for i in range(inst.n)]
    slack_vars: list[list[tuple[int, float]]] = []  # per constraint: (var index, 2^k)
    if use_slack:
        for j in range(inst.m):
            bits = []
            for k in range(slack_bit_count(inst.capacities[j])):
                bits.append((len(semantics), float(2 ** k)))
                semantics.append(("slack", j, k))
            slack_vars.append(bits)
    builder = _QuboBuilder(len(semantics), semantics)

    for i in range(inst.n):
        builder.lin[i] -= inst.profits[i]

    for j in range(inst.m):
        terms: list[tuple[int, float]] = [
            (i, float(inst.weights[j, i])) for i in range(inst.n) if inst.weights[j, i] != 0
        ]
        if use_slack:
            terms.extend(slack_vars[j])
        C = float(inst.capacities[j])
        # P * (sum_a c_a x_a - C)^2 expanded with x^2 = x
        for a, (va, ca) in enumerate(terms):
            builder.lin[va] += P * (ca * ca - 2.0 * C * ca)
            for vb, cb in terms[a + 1:]:
                builder.add_quad(va, vb, 2.0 * P * ca * cb)
        builder.offset += P * C * C
    return builder.build()


def build_mis_qubo(inst: MisInstance, P: float) -> QuboModel:
    """MIS as a QUBO: minimize -|S| + P * (number of conflict edges inside S)."""
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    if P <= 1:
        warnings.warn(
            f"MIS penalty P={P} does not exceed 1; dropping a conflicting vertex "
            "is then never favored and minimizers may be infeasible",
            stacklevel=2,
        )
    builder = _QuboBuilder(inst.n, [("vertex", v) for v in range(inst.n)])
    for v in range(inst.n):
        builder.lin[v] -= 1.0
    for u, v in inst.edges:
        builder.add_quad(u, v, P)
    return builder.build()


def build_qap_qubo(inst: QapInstance, P: float) -> QuboModel:
    """QAP as a QUBO over x_{ij} (variable index i*n + j).

    Objective: sum over ordered pairs of F_ik * D_jl * x_ij * x_kl. Penalties:
    P * (row sum - 1)^2 for every facility row and P * (column sum - 1)^2 for
    every location column; their constant parts put 2nP into the offset.
    """
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    n = inst.n
    semantics = [("assign", i, j) for i in range(n) for j in range(n)]
    builder = _QuboBuilder(n * n, semantics)

    def var(i: int, j: int) -> int:
        return i * n + j

    for i in range(n):
        for k in range(n):
            f = float(inst.flow[i, k])
            if f == 0:
                continue
            for j in range(n):
                for l in range(n):
                    d = float(inst.distance[j, l])
                    if d == 0:
                        continue
                    builder.add_quad(var(i, j), var(k, l), f * d)

    # one-hot penalties: (sum - 1)^2 = sum + 2*sum_pairs - 2*sum + 1
    groups = [[var(i, j) for j in range(n)] for i in range(n)]  # rows
    groups += [[var(i, j) for i in range(n)] for j in range(n)]  # columns
    for members in groups:
        for a, va in enumerate(members):
            builder.lin[va] -= P
            for vb in members[a + 1:]:
                builder.add_quad(va, vb, 2.0 * P)
        builder.offset += P
    return builder.build()


def evaluate_qubo(model: QuboModel, x) -> float:
    """Energy of a binary assignment under ``model``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_vars,):
        raise ValueError(f"assignment has shape {x.shape}, expected ({model.n_vars},)")
    return model.offset + float(np.dot(model.lin, x)) + float(x @ model.quad_matrix() @ x)


def coefficient_scale(model: QuboModel) -> float:
    """Largest absolute coefficient magnitude (used for annealing schedules)."""
    values = [abs(w) for w in model.quad.values()] + [abs(v) for v in model.lin]
    return max(values, default=1.0) or 1.0


def decision_indices(model: QuboModel) -> list[int]:
    """Indices of decision variables (everything except slack bits)."""
    return [i for i, tag in enumerate(model.semantics) if tag[0] != "slack"]


def model_to_json(model: QuboModel) -> str:
    doc = {
        "n_vars": model.n_vars,
        "linear": list(model.lin),
        "quadratic": [[i, j, w] for (i, j), w in sorted(model.quad.items())],
        "offset": model.offset,
        "semantics": [list(tag) for tag in model.semantics],
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text: str) -> QuboModel:
    doc = json.loads(text)
    quad = {(int(i), int(j)): float(w) for i, j, w in doc["quadratic"]}
    semantics = tuple(tuple(tag) for tag in doc["semantics"])
    return QuboModel(
        n_vars=int(doc["n_vars"]),
        quad=quad,
        lin=tuple(float(v) for v in doc["linear"]),
        offset=float(doc["offset"]),
        semantics=semantics,
    )
