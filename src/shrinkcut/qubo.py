"""Penalized QUBO construction and evaluation.

A :class:`QuboModel` is the minimization objective

    E(x) = sum_{i<j} quad[(i,j)] x_i x_j + sum_i lin[i] x_i + offset

over binary x. Builders write each problem's objective plus quadratic
constraint penalties of strength P as a matrix expression, expanded with
x^2 = x: MDKP -p.x + P * |Ax - C|^2 (A: the weights, then an optional slack
block), MIS -sum(x) + P * sum_{(u,v) in E} x_u x_v, QAP x^T kron(F, D) x + P *
the squared residuals of every row and column sum. P is a multiplier times a
per-kind scale, both in ``pipeline.PROBLEMS``. Every variable carries a
semantics tag, written for the model JSON (``model_to_json``):

    ("item", i)       MDKP decision variable for item i
    ("slack", j, k)   MDKP slack bit k of constraint j (weight 2^k)
    ("vertex", v)     MIS decision variable for vertex v
    ("assign", i, j)  QAP flattened variable x_{ij} (facility i at location j)
    ("spin", node)    generic variable re-derived from a Max-Cut node

No pipeline code reads the tags back: each kind's record in
``pipeline.PROBLEMS`` decodes bits and builds merge-penalty summaries by the
position its builder writes (MDKP's slack bits after the n items).

A model stores its coefficients once, as read-only float arrays: ``pairs``
(strictly upper triangular, +0.0 off the term set) and ``lin``. Energies,
solvers and the Max-Cut reduction read them directly; the ``{(i, j): w}``
view :attr:`QuboModel.quad` is derived on first use, for JSON and term counts.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .instances import MdkpInstance, MisInstance, QapInstance

VarTag = tuple  # ("item", i) | ("slack", j, k) | ("vertex", v) | ("assign", i, j) | ("spin", n)


@dataclass(frozen=True, eq=False)
class QuboModel:
    """Immutable QUBO; ``pairs`` and ``lin`` are stored as read-only float copies."""

    pairs: np.ndarray
    lin: np.ndarray
    offset: float
    semantics: tuple[VarTag, ...]

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=float) + 0.0  # a copy; -0.0 becomes +0.0
        lin = np.array(self.lin, dtype=float)
        n = len(self.semantics)
        if pairs.shape != (n, n):
            raise ValueError(f"pairs has shape {pairs.shape}, expected ({n}, {n})")
        if lin.shape != (n,):
            raise ValueError(f"lin has shape {lin.shape}, expected ({n},)")
        if not (np.isfinite(pairs).all() and np.isfinite(lin).all() and math.isfinite(self.offset)):
            raise ValueError("pairs, lin and offset must be finite")
        if np.tril(pairs).any():
            raise ValueError("pairs must be strictly upper triangular")
        pairs.flags.writeable = lin.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "lin", lin)

    @property
    def n_vars(self) -> int:
        return len(self.lin)

    @cached_property
    def quad(self) -> Mapping[tuple[int, int], float]:
        """The nonzero pairs as a read-only ``{(i, j): w}`` view, keys ascending."""
        return nonzero_terms(self.pairs)


def nonzero_terms(upper: np.ndarray) -> Mapping[tuple[int, int], float]:
    """Read-only ``{(i, j): w}`` view of the nonzero entries of ``upper``, in row-major order."""
    rows, cols = np.nonzero(upper)
    return MappingProxyType(dict(zip(zip(rows.tolist(), cols.tolist()), upper[rows, cols].tolist())))


def slack_bit_count(capacity: float) -> int:
    """Number of slack bits for one capacity row: floor(log2(C + 1))."""
    return int(math.floor(math.log2(capacity + 1)))


def build_mdkp_qubo(inst: MdkpInstance, P: float, use_slack: bool = False) -> QuboModel:
    """MDKP as a QUBO: minimize -p.x + P * sum_j (a_j.x - C_j)^2, a_j the rows of A.

    A holds the item weights. Without slack the squared penalty acts directly
    on the residual, so exact fills are free and any deviation is charged.
    With ``use_slack`` each constraint j gains floor(log2(C_j + 1)) slack bits
    after the items, and A holds 2^k at row j, slack bit (j, k), so the
    penalty becomes an equality form. In row order, row j adds
    P * (a_j^2 - 2 C_j a_j) to the linear terms, 2P * a_j a_j^T to the pairs
    and P * C_j^2 to the offset.
    """
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    counts = [slack_bit_count(C) for C in inst.capacities.tolist()] if use_slack else []
    semantics: list[VarTag] = [("item", i) for i in range(inst.n)]
    semantics += [("slack", j, k) for j, count in enumerate(counts) for k in range(count)]
    A = np.zeros((inst.m, len(semantics)))
    A[:, :inst.n] = inst.weights
    powers = [2.0**k for count in counts for k in range(count)]
    A[np.repeat(np.arange(len(counts)), counts), np.arange(inst.n, len(semantics))] = powers
    lin = np.zeros(len(semantics))
    lin[:inst.n] -= inst.profits  # 0.0 - p: a zero profit stays +0.0
    pairs = np.zeros((len(semantics), len(semantics)))
    offset = 0.0
    for a, C in zip(A, inst.capacities.tolist()):
        lin += P * (a * a - 2.0 * C * a)
        pairs += np.outer(2.0 * P * a, a)
        offset += P * C * C
    return QuboModel(np.triu(pairs, 1), lin, float(offset), tuple(semantics))


def build_mis_qubo(inst: MisInstance, P: float) -> QuboModel:
    """MIS as a QUBO: minimize -|S| + P * (number of conflict edges inside S).

    Linear terms -1, and P on the pair of each edge.
    """
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    if P <= 1:
        warnings.warn(
            f"MIS penalty P={P} does not exceed 1; dropping a conflicting vertex "
            "is then never favored and minimizers may be infeasible",
            stacklevel=2,
        )
    edges = np.array(inst.edges, dtype=int).reshape(-1, 2)
    pairs = np.zeros((inst.n, inst.n))
    pairs[edges.min(axis=1), edges.max(axis=1)] = P  # MisInstance rejects repeated edges
    semantics = tuple(("vertex", v) for v in range(inst.n))
    return QuboModel(pairs, np.full(inst.n, -1.0), 0.0, semantics)


def build_qap_qubo(inst: QapInstance, P: float) -> QuboModel:
    """QAP as a QUBO over x_{ij} (variable index i*n + j).

    Objective x^T K x with K = kron(F, D), so K[i*n + j, k*n + l] = F_ik * D_jl.
    Penalties P * (row sum - 1)^2 and P * (column sum - 1)^2 for every row and
    column give pairs K + K^T + 2P * S, S marking the pairs that share a row or
    a column, and linear terms diag(K) - P - P. The offset adds P 2n times in
    order, since 2nP can round differently.
    """
    if P <= 0:
        raise ValueError(f"penalty P must be positive, got {P}")
    n = inst.n
    K = np.kron(inst.flow, inst.distance)
    row, col = np.divmod(np.arange(n * n), n)
    shared = (row[:, None] == row) | (col[:, None] == col)
    pairs = K + K.T + 2.0 * P * shared
    offset = 0.0
    for _ in range(2 * n):
        offset += P
    semantics = tuple(("assign", i, j) for i in range(n) for j in range(n))
    return QuboModel(np.triu(pairs, 1), np.diag(K) - P - P, float(offset), semantics)


def evaluate_qubo(model: QuboModel, x) -> float:
    """Energy of a binary assignment under ``model``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_vars,):
        raise ValueError(f"assignment has shape {x.shape}, expected ({model.n_vars},)")
    return model.offset + float(np.dot(model.lin, x)) + float(x @ model.pairs @ x)


def coefficient_scale(model: QuboModel) -> float:
    """Largest absolute coefficient magnitude (used for annealing schedules)."""
    largest = max(np.abs(model.pairs).max(initial=0.0), np.abs(model.lin).max(initial=0.0))
    return float(largest) or 1.0


def model_to_json(model: QuboModel) -> str:
    doc = {
        "n_vars": model.n_vars,
        "linear": model.lin.tolist(),
        "quadratic": [[i, j, w] for (i, j), w in model.quad.items()],
        "offset": model.offset,
        "semantics": [list(tag) for tag in model.semantics],
    }
    return json.dumps(doc, indent=2) + "\n"


@contextmanager
def json_document(text: str, what: str, keys: tuple[str, ...]):
    """Parse ``text`` as a JSON object holding ``keys`` and yield it.

    Bad JSON, a document that is not an object, a missing key, or a field of
    the wrong shape (a TypeError while reading it) raises ValueError
    prefixed with ``what``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what}: missing field {missing[0]!r}")
    try:
        yield doc
    except TypeError as exc:
        raise ValueError(f"{what}: malformed field: {exc}") from exc


def json_index(value, what: str) -> int:
    """``value`` if it is a JSON integer >= 0 (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


# The setting checks: every user-set value goes through one of these four, so a
# value of the wrong type fails with a ValueError, as one out of range does.


def require_integer(name: str, value, low: int | None = None) -> None:
    """ValueError unless ``value`` is an integer (numpy's too, never a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def require_number(
    name: str, value, low: float, high: float = math.inf, strict: bool = False
) -> None:
    """ValueError unless ``value`` is a finite real number (never a bool) in [low, high].

    ``strict`` excludes ``low`` itself; a finite ``high`` words the message
    "must lie in [low, high]", an infinite one "must be a finite number >= low".
    """
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if real and (low < value if strict else low <= value) and value <= high and value < math.inf:
        return  # NaN fails each comparison; a huge int is compared, never converted
    if high < math.inf:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    relation = ">" if strict else ">="
    raise ValueError(f"{name} must be a finite number {relation} {low}, got {value!r}")


def require_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """ValueError unless ``value`` is one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")


def require_switch(name: str, value) -> None:
    """ValueError unless ``value`` is a bool (numpy's too): an on/off setting."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def pairs_from_json(rows, n: int, what: str) -> np.ndarray:
    """n x n array holding w at [i, j] for each [i, j, w] of ``rows``, zero elsewhere.

    A non-integral index, a pair that is not i < j < n, a pair listed twice,
    and a zero or non-finite weight raise ValueError naming ``what``.
    """
    upper = np.zeros((n, n))
    for i, j, w in rows:
        i, j, w = json_index(i, f"{what} index"), json_index(j, f"{what} index"), float(w)
        if not i < j < n:
            raise ValueError(f"{what} ({i}, {j}) is not an ordered pair within range")
        if upper[i, j] != 0.0:  # zero weights never get stored
            raise ValueError(f"{what} ({i}, {j}) is listed twice")
        if w == 0.0 or not math.isfinite(w):
            raise ValueError(f"{what} ({i}, {j}) stores a zero or non-finite weight {w}")
        upper[i, j] = w
    return upper


def model_from_json(text: str) -> QuboModel:
    keys = ("n_vars", "linear", "quadratic", "offset", "semantics")
    with json_document(text, "QUBO model JSON", keys) as doc:
        n_vars = json_index(doc["n_vars"], "n_vars")
        lin = [float(v) for v in doc["linear"]]
        if len(lin) != n_vars:  # checked before the n_vars x n_vars pair array is built
            raise ValueError(f"QUBO model JSON: {len(lin)} linear terms for n_vars = {n_vars}")
        return QuboModel(
            pairs=pairs_from_json(doc["quadratic"], n_vars, "quadratic term"),
            lin=lin,
            offset=float(doc["offset"]),
            semantics=tuple(tuple(tag) for tag in doc["semantics"]),
        )
