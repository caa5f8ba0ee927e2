"""QUBO solving backends: exact enumeration, simulated annealing, toy VQE.

All backends minimize the QUBO energy and return a :class:`Solution`. The
exact backend is the ground truth for small problems (up to 24 variables);
simulated annealing scales to the reduced problems the pipeline produces;
the VQE backend is a deliberately small statevector simulation for
experimentation, not performance. Exact enumeration and VQE share one
chunked pass over all 2^n energies: the variables split into a low part L
of min(n // 2, 10) variables (the counter's low bits) and a high part H,
and each block of high patterns is one matrix product against all 2^len(L)
low patterns, flattened in counter order. The product's factors carry the
offset and both half-energies as well as the couplings between the parts,
so nothing passes over a block after it is written. Every product is written
into one buffer of max(chunk, 2^len(L)) energies at most (chunk defaults to
2^16, 512 KB of float64), allocated once per pass, so a block is valid only
until the next one is requested. Exact enumeration breaks ties toward the
lowest counter.

Annealing draws its uniforms and its slice of the cooling schedule in blocks
of about ``DRAW_BLOCK`` values, so its memory does not grow with the sweep
count. From each draw u it computes an uphill limit T (1e-9 - ln u) and
rejects a move whose cost exceeds it without calling ``math.exp``; a frozen
state skips every sweep in which all its flip costs exceed their limits. The
margin 1e-9 is far wider than the rounding on either side (about 1e-13), so
``math.exp`` would reject each such move too, and the answers are those of
the sweep-by-sweep loop, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubo import QuboModel, coefficient_scale, evaluate_qubo, require_integer, require_number

EXACT_MAX_VARS = 24
VQE_MAX_VARS = 16
# solve_vqe_sim's search: random restarts, coordinate passes per restart,
# grid angles per coordinate, and the most probable basis states it reads out
VQE_RESTARTS = 2
VQE_PASSES = 3
VQE_GRID = 12
VQE_SHOTS = 8
# uniforms drawn per block by solve_sa, whatever the sweep count; the block's
# uphill limits take as much again
DRAW_BLOCK = 1 << 15
# absolute slack on -ln u in solve_sa's uphill limits
LIMIT_MARGIN = 1e-9
# below this temperature T * LIMIT_MARGIN is subnormal; such rows get +inf limits
LIMIT_MIN_TEMPERATURE = 1e-290


@dataclass(frozen=True)
class Solution:
    """A binary assignment and its QUBO energy."""

    bits: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=int)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("solution bits must be a flat 0/1 array")
        object.__setattr__(self, "bits", bits)


def _bits(counter: int, n: int) -> np.ndarray:
    """Variable i of the assignment numbered ``counter`` is bit i."""
    return ((counter >> np.arange(n)) & 1).astype(int)


def _patterns(n: int) -> np.ndarray:
    """All 2^n assignments of n variables as float rows, in counter order."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)


def _energy_chunks(model: QuboModel, chunk: int = 1 << 16):
    """Yield (first counter, energies) for all 2^n assignments in counter order.

    The low min(n // 2, 10) variables L (the counter's low bits) and the
    rest H split every energy into
    E[h, l] = (X_H @ U_LH.T)[h] @ X_L[l] + E_H[h] + E_L[l], where X_L and X_H
    hold each part's bit patterns, U_LH couples L to H and E_H carries the
    offset. So E = left @ right with ``left = [X_H @ U_LH.T | E_H | 1]`` and
    ``right = [X_L.T ; 1 ; E_L]``, both built once. Each block is
    ``left[h:h + rows] @ right`` over ``rows = max(1, chunk >> len(L))`` high
    patterns, flattened row-major, so it holds max(chunk, 2^len(L)) energies
    at most and starts at counter ``h << len(L)``. On integer data whose
    partial sums stay below 2^53 every energy is exact, so it is the same
    double in any summation order; on float data it is within rounding.

    Every product is written with ``out=`` into one buffer of
    min(rows, 2^len(H)) x 2^len(L) floats, allocated before the first block,
    and each yielded block is a flat view of it. So a block is valid only
    until the next one is requested: a caller that keeps one must copy it.
    A pass then maps its buffer's pages once, not once per block.

    The default chunk 2^16 keeps that one buffer near the cache. Measured
    with one BLAS thread on a 2-core VM, on synth24x4's QUBO without slack
    and its leading 20 variables: 2^17 made 20 variables about 1.3x slower
    and 2^18 about 2x, and 2^15 made 24 about 5% slower. At 24 variables
    L = 10 took 26 ms against 32 ms at n // 2 = 12, for about 1.5 MB more
    peak memory (the 2^14 rows of ``left``); 9 and 11 were no faster.
    """
    n = model.n_vars
    low = min(n // 2, 10)
    upper, lin = model.pairs, model.lin
    X_L = _patterns(low)
    X_H = _patterns(n - low)
    E_L = ((X_L @ upper[:low, :low]) * X_L).sum(axis=1) + X_L @ lin[:low]
    E_H = ((X_H @ upper[low:, low:]) * X_H).sum(axis=1) + X_H @ lin[low:] + model.offset
    left = np.column_stack([X_H @ upper[:low, low:].T, E_H, np.ones(len(X_H))])
    right = np.vstack([X_L.T, np.ones(len(X_L)), E_L])
    rows = max(1, chunk >> low)
    block = np.empty((min(rows, len(X_H)), len(X_L)))
    for h in range(0, len(X_H), rows):
        part = left[h : h + rows]
        yield h << low, np.matmul(part, right, out=block[: len(part)]).ravel()


def solve_exact(model: QuboModel, chunk: int = 1 << 16) -> Solution:
    """Global minimum by full enumeration of all 2^n assignments.

    Energies come from ``_energy_chunks`` one block at a time, in counter
    order, each read before the next overwrites it; the one buffer holds
    max(chunk, 2^min(n // 2, 10)) energies at most. Ties go to the lowest
    counter (bit i of the counter is variable i). The returned energy is
    ``evaluate_qubo`` of the chosen bits, so it does not depend on the
    enumeration's arithmetic or on ``chunk``.
    """
    n = model.n_vars
    if n > EXACT_MAX_VARS:
        raise ValueError(
            f"exact enumeration is capped at {EXACT_MAX_VARS} variables, got {n}"
        )
    require_integer("chunk", chunk, low=1)
    if n == 0:
        return Solution(bits=np.zeros(0, dtype=int), energy=model.offset)
    best_energy = np.inf
    best_counter = 0
    for start, energies in _energy_chunks(model, chunk):
        idx = int(energies.argmin())
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_counter = start + idx
    bits = _bits(best_counter, n)
    return Solution(bits=bits, energy=evaluate_qubo(model, bits))


def _schedule(t_start: float, t_end: float, sweeps: int, first: int, stop: int) -> np.ndarray:
    """Temperatures of sweeps ``first`` to ``stop - 1`` of the geometric ramp.

    Element by element the same doubles as the whole ``sweeps``-long array,
    so a block of sweeps needs only its own slice.
    """
    if sweeps == 1:
        return np.array([t_start])
    return t_start * (t_end / t_start) ** (np.arange(first, stop) / (sweeps - 1))


def _uphill_limits(temperatures: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per draw, the largest flip cost the loop might accept: T (1e-9 - ln u).

    One temperature per row of ``draws``. A draw u = 0, a row with
    T < ``LIMIT_MIN_TEMPERATURE`` and a product that overflows give +inf,
    which rejects nothing. Any cost above its limit is rejected by
    ``u < math.exp(-delta / T)`` too (see ``solve_sa``).
    """
    with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; T near the float max
        limits = np.log(draws)
        np.subtract(LIMIT_MARGIN, limits, out=limits)  # in place: no third block-sized array
        limits *= temperatures[:, None]
    limits[temperatures < LIMIT_MIN_TEMPERATURE] = np.inf
    return limits


def _first_live_sweep(costs: np.ndarray, limits: np.ndarray) -> int | None:
    """First row of ``limits`` in which some flip cost of a frozen state is within its limit.

    A row with no such cost is a sweep that rejects every move without
    calling ``math.exp``. None if no row qualifies.
    """
    hits = np.flatnonzero((costs <= limits).any(axis=1))
    return int(hits[0]) if hits.size else None


def solve_sa(
    model: QuboModel,
    seed: int = 0,
    sweeps: int | None = None,
    t_start: float | None = None,
    t_end: float | None = None,
) -> Solution:
    """Single-flip Metropolis annealing with a geometric cooling schedule.

    Each sweep visits every variable once in index order; the temperature
    ramps from the largest coefficient magnitude down to a 1e-3 fraction of
    it. The state and local fields are plain Python lists, and a flip
    updates only the fields of the flipped variable's nonzero couplings, so
    a sweep costs O(n + flips x degree) on sparse couplings. An uphill move
    is accepted when ``u < math.exp(-delta / T)``. ``math.exp`` and
    ``np.exp`` can round to neighbouring floats, so a decision can differ
    from one made with ``np.exp``; the draws u are multiples of 2^-53, so
    that happens with probability at most about 2^-53 per uphill attempt.
    The best-seen state's energy is recomputed from scratch before returning.

    The uniforms are drawn ``max(1, DRAW_BLOCK // n)`` sweeps at a time, one
    ``(rows, n)`` array per block, with the schedule's slice for the same
    sweeps: the same stream as one ``rng.random(n)`` per sweep, with memory
    that does not grow with ``sweeps``. Each block also gets its uphill
    limits T (1e-9 - ln u) from ``_uphill_limits``. A move whose cost
    exceeds its limit is rejected before ``math.exp`` is called, and
    ``math.exp`` would reject it too. The product with T rounds to nearest,
    so delta > limit gives delta / T > s exactly, where s is the rounded
    1e-9 - fl(ln u). ``np.log`` is within a few ulp of ln u, |ln u| <= 37 for
    u >= 2^-53, and the loop's z = fl(delta / T) adds one more rounding, so
    z > -ln u + 1e-9 - 1e-13, and ``math.exp(-z)``, within a few ulp of
    exp(-z) < u exp(-0.9999e-9), is below u. The argument needs only the
    accuracy of ``np.log``, not its bits, so it holds for every SIMD kernel
    numpy dispatches. A limit is +inf, which leaves the decision to
    ``math.exp``, for u = 0, for a product that overflows, and for
    T < 1e-290, so that no limit rests on subnormal arithmetic.

    A sweep that accepts no move leaves the state frozen; from then on one
    compare of its flip costs with the limits of the next L buffered sweeps
    (L doubling while nothing is found, reset to 1 by a flip) jumps to the
    first sweep in which some cost is within its limit. The sweeps before it
    would reject every move at the limit test, so the result equals the
    sweep-by-sweep loop bit for bit. ``seed`` must be an integer >= 0 and
    ``sweeps`` an integer >= 1 (neither a bool). The parameters are checked
    before anything else, also for a model without variables.
    """
    n = model.n_vars
    require_integer("seed", seed, low=0)
    if sweeps is not None:
        require_integer("sweeps", sweeps, low=1)
    scale = coefficient_scale(model)
    if t_start is None:
        t_start = scale
    if t_end is None:
        t_end = 1e-3 * scale
    if not (0 < t_end <= t_start < math.inf):
        raise ValueError(f"need 0 < t_end <= t_start < inf, got {t_end} and {t_start}")
    if n == 0:
        return Solution(bits=np.zeros(0, dtype=int), energy=model.offset)
    if sweeps is None:
        sweeps = 200 * n

    rng = np.random.default_rng(seed)
    sym = model.pairs + model.pairs.T
    # (j, sym[j, i]) for the nonzero couplings of each variable i; skipping the
    # zeros changes at most the sign of a zero field, which no decision reads
    couplings = []
    for column in sym.T:
        nonzero = np.flatnonzero(column)
        couplings.append(list(zip(nonzero.tolist(), column[nonzero].tolist())))
    lin = model.lin.tolist()

    initial = rng.integers(0, 2, size=n)
    fields = (sym @ initial).tolist()
    energy = evaluate_qubo(model, initial)
    x = initial.tolist()
    best_bits = x.copy()
    best_energy = energy

    rows = max(1, DRAW_BLOCK // n)
    frozen = None  # the flip costs of a state the last sweep left unchanged
    ahead = 1
    for first in range(0, sweeps, rows):
        temperatures = _schedule(t_start, t_end, sweeps, first, min(first + rows, sweeps))
        draws = rng.random((len(temperatures), n))
        limits = _uphill_limits(temperatures, draws)
        sweep = 0
        while sweep < len(temperatures):
            if frozen is not None:
                # skip the sweeps in which every flip cost is above its limit
                live = _first_live_sweep(frozen, limits[sweep : sweep + ahead])
                if live is None:
                    sweep += ahead
                    ahead *= 2
                    continue
                sweep += live
            temperature = float(temperatures[sweep])
            accept_draws = draws[sweep].tolist()
            accept_limits = limits[sweep].tolist()
            flipped = False
            for i in range(n):
                bit = x[i]
                delta = lin[i] + fields[i]
                if bit:
                    delta = -delta
                if delta <= accept_limits[i] and (
                    delta <= 0 or accept_draws[i] < math.exp(-delta / temperature)
                ):
                    flipped = True
                    if bit:
                        x[i] = 0
                        for j, w in couplings[i]:
                            fields[j] -= w
                    else:
                        x[i] = 1
                        for j, w in couplings[i]:
                            fields[j] += w
                    energy += delta
                    if energy < best_energy:
                        best_energy = energy
                        best_bits = x.copy()
            if flipped:
                frozen = None
                ahead = 1
            elif frozen is None:
                # the loop's own deltas, each positive since none was accepted
                costs = model.lin + np.array(fields)
                frozen = np.where(np.array(x, dtype=bool), -costs, costs)
            sweep += 1

    return Solution(bits=best_bits, energy=evaluate_qubo(model, best_bits))


def _apply_ry_layer(state: np.ndarray, angles: np.ndarray, n: int) -> np.ndarray:
    """One RY rotation per qubit on a real statevector of length 2^n."""
    state = state.reshape([2] * n)
    for q in range(n):
        axis = n - 1 - q  # qubit q is bit q of the basis index
        lo = np.take(state, 0, axis=axis)
        hi = np.take(state, 1, axis=axis)
        c = np.cos(angles[q] / 2.0)
        s = np.sin(angles[q] / 2.0)
        new_lo = c * lo - s * hi
        new_hi = s * lo + c * hi
        state = np.stack([new_lo, new_hi], axis=axis)
    return state.reshape(-1)


def _cz_ring_mask(n: int) -> np.ndarray:
    """Sign flips applied by a ring of CZ gates over all 2^n basis states."""
    states = np.arange(1 << n)
    mask = np.ones(1 << n)
    pairs = {tuple(sorted((q, (q + 1) % n))) for q in range(n)} if n > 1 else set()
    for a, b in sorted(pairs):
        both = ((states >> a) & 1) & ((states >> b) & 1)
        mask *= np.where(both == 1, -1.0, 1.0)
    return mask


def solve_vqe_sim(model: QuboModel, layers: int = 1, seed: int = 0) -> Solution:
    """Tiny variational circuit simulation (capped at 16 variables).

    The ansatz is an initial RY layer followed by ``layers`` blocks of a CZ
    ring plus another RY layer. Angles are tuned by seeded random-restart
    coordinate search over a fixed angle grid against the exact expected
    energy, read from one 2^n array that each block of ``_energy_chunks``
    is copied into before the next one overwrites it. The returned solution
    is the best of the ``VQE_SHOTS`` highest-probability basis states, and
    its energy is ``evaluate_qubo`` of those bits. ``layers`` and ``seed``
    must be integers >= 0 (neither a bool).
    """
    n = model.n_vars
    if n > VQE_MAX_VARS:
        raise ValueError(f"VQE simulation is capped at {VQE_MAX_VARS} variables, got {n}")
    require_integer("layers", layers, low=0)
    require_integer("seed", seed, low=0)
    if n == 0:
        return Solution(bits=np.zeros(0, dtype=int), energy=model.offset)

    energies = np.empty(1 << n)
    for start, block in _energy_chunks(model):
        energies[start : start + block.size] = block
    cz_mask = _cz_ring_mask(n)
    n_angles = n * (layers + 1)
    grid_angles = np.linspace(0.0, 2.0 * np.pi, VQE_GRID, endpoint=False)

    def statevector(angles: np.ndarray) -> np.ndarray:
        state = np.zeros(1 << n)
        state[0] = 1.0
        state = _apply_ry_layer(state, angles[:n], n)
        for layer in range(layers):
            state = state * cz_mask
            block = angles[(layer + 1) * n : (layer + 2) * n]
            state = _apply_ry_layer(state, block, n)
        return state

    def expected_energy(angles: np.ndarray) -> float:
        amp = statevector(angles)
        return float((amp * amp) @ energies)

    rng = np.random.default_rng(seed)
    best_angles = None
    best_value = np.inf
    for _ in range(VQE_RESTARTS):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_angles)
        value = expected_energy(angles)
        for _ in range(VQE_PASSES):
            improved = False
            for idx in range(n_angles):
                saved = angles[idx]
                for candidate in grid_angles:
                    angles[idx] = candidate
                    trial = expected_energy(angles)
                    if trial < value - 1e-12:
                        value = trial
                        saved = candidate
                        improved = True
                angles[idx] = saved
            if not improved:
                break
        if value < best_value:
            best_value = value
            best_angles = angles.copy()

    amp = statevector(best_angles)
    probs = amp * amp
    top = np.argsort(-probs, kind="stable")[:VQE_SHOTS]
    top_sorted = np.sort(top)
    state_energies = energies[top_sorted]
    pick = int(top_sorted[int(np.argmin(state_energies))])
    bits = _bits(pick, n)
    return Solution(bits=bits, energy=evaluate_qubo(model, bits))


def solve_qubo(
    model: QuboModel, backend: str = "exact", seed: int = 0, sweeps: int | None = None,
    layers: int = 1, t_start: float | None = None, t_end: float | None = None,
) -> Solution:
    """Solve with the backend named "exact", "sa" or "vqe", checking every setting on each.

    Exact reads no setting, annealing ``seed``, ``sweeps``, ``t_start`` and
    ``t_end`` (None keeps its defaults), and VQE ``layers`` and ``seed``.
    """
    require_integer("seed", seed, low=0)
    if sweeps is not None:
        require_integer("sweeps", sweeps, low=1)
    require_integer("layers", layers, low=0)
    for key, value in (("t_start", t_start), ("t_end", t_end)):
        if value is not None:
            require_number(key, value, 0, strict=True)
    if None not in (t_start, t_end) and t_end > t_start:
        raise ValueError(f"t_end must be <= t_start, got {t_end} and {t_start}")
    if backend == "exact":
        return solve_exact(model)
    if backend == "sa":
        return solve_sa(model, seed=seed, sweeps=sweeps, t_start=t_start, t_end=t_end)
    if backend == "vqe":
        return solve_vqe_sim(model, layers=layers, seed=seed)
    raise ValueError(f"unknown backend {backend!r}; expected 'exact', 'sa', or 'vqe'")
