"""Solving backends: exact enumeration, simulated annealing, toy VQE."""

import json
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shrinkcut import (
    Solution,
    build_mdkp_qubo,
    coefficient_scale,
    evaluate_qubo,
    model_from_json,
    solve_exact,
    solve_qubo,
    solve_sa,
    solve_vqe_sim,
    solvers,
)
from tests.conftest import brute_qubo_minimum, qubo_model, random_qubo


def test_solution_coerces_and_validates_bits():
    s = Solution(bits=[1, 0, 1], energy=-2.0)
    assert s.bits.dtype == int
    assert s.bits.tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="0/1"):
        Solution(bits=[0, 2], energy=0.0)
    with pytest.raises(ValueError, match="flat"):
        Solution(bits=[[0], [1]], energy=0.0)


def test_solve_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = random_qubo(rng, int(rng.integers(1, 9)))
        solution = solve_exact(model)
        brute_x, brute_e = brute_qubo_minimum(model)
        assert solution.energy == pytest.approx(brute_e, rel=1e-12, abs=1e-12)
        assert evaluate_qubo(model, solution.bits) == pytest.approx(brute_e, abs=1e-12)


def test_solve_exact_breaks_ties_toward_the_lowest_counter():
    # an all-zero objective makes every state optimal; counter 0 must win
    flat = qubo_model({}, (0.0, 0.0, 0.0), offset=1.0)
    assert solve_exact(flat).bits.tolist() == [0, 0, 0]
    assert solve_exact(flat).energy == 1.0


def test_solve_exact_on_the_worked_knapsack(mdkp_tiny):
    solution = solve_exact(build_mdkp_qubo(mdkp_tiny, P=70.0))
    assert solution.bits.tolist() == [1, 1, 0]
    assert solution.energy == -12.0


def test_solve_exact_chunking_does_not_change_the_answer():
    model = random_qubo(np.random.default_rng(43), 6)
    assert solve_exact(model, chunk=3).energy == solve_exact(model).energy
    assert solve_exact(model, chunk=3).bits.tolist() == solve_exact(model).bits.tolist()


@pytest.mark.parametrize("chunk", [0, -1])
def test_solve_exact_rejects_a_chunk_below_one(chunk):
    model = random_qubo(np.random.default_rng(43), 4)
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        solve_exact(model, chunk=chunk)


def test_solve_exact_enforces_the_variable_cap():
    big = qubo_model({}, [0.0] * 25)
    with pytest.raises(ValueError, match="capped at 24"):
        solve_exact(big)


def test_solve_exact_empty_model_returns_the_offset():
    empty = qubo_model({}, (), offset=3.5)
    solution = solve_exact(empty)
    assert solution.bits.size == 0
    assert solution.energy == 3.5


def test_solve_sa_energy_is_recomputed_from_the_returned_bits():
    rng = np.random.default_rng(47)
    for seed in range(5):
        model = random_qubo(rng, 10)
        solution = solve_sa(model, seed=seed)
        assert solution.energy == pytest.approx(
            evaluate_qubo(model, solution.bits), rel=1e-12, abs=1e-12
        )


def test_solve_sa_finds_the_optimum_on_small_models():
    rng = np.random.default_rng(53)
    for seed in range(10):
        model = random_qubo(rng, 8)
        _, brute_e = brute_qubo_minimum(model)
        assert solve_sa(model, seed=seed).energy == pytest.approx(brute_e, abs=1e-9)


def test_solve_sa_is_deterministic_per_seed():
    model = random_qubo(np.random.default_rng(59), 12)
    a = solve_sa(model, seed=7)
    b = solve_sa(model, seed=7)
    assert a.bits.tolist() == b.bits.tolist()
    assert a.energy == b.energy


def test_solve_sa_validates_schedule_parameters():
    model = random_qubo(np.random.default_rng(61), 4)
    with pytest.raises(ValueError, match="sweeps"):
        solve_sa(model, sweeps=0)
    with pytest.raises(ValueError, match="t_end"):
        solve_sa(model, t_start=1.0, t_end=2.0)
    with pytest.raises(ValueError, match="t_end"):
        solve_sa(model, t_end=0.0)
    for t_start, t_end in ((np.inf, 1.0), (np.inf, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="t_start"):
            solve_sa(model, t_start=t_start, t_end=t_end)
    with pytest.raises(ValueError, match="t_end"):
        solve_sa(model, t_start=1.0, t_end=np.nan)
    # a single sweep is legal and still returns a coherent solution
    solution = solve_sa(model, sweeps=1, seed=1)
    assert evaluate_qubo(model, solution.bits) == pytest.approx(solution.energy)


@pytest.mark.parametrize("sweeps", [2.5, 3.0, True, "3"])
def test_solve_sa_rejects_a_sweep_count_that_is_not_an_integer(sweeps):
    model = random_qubo(np.random.default_rng(61), 4)
    with pytest.raises(ValueError, match="sweeps must be an integer"):
        solve_sa(model, sweeps=sweeps)
    numpy_count = solve_sa(model, sweeps=np.int64(3))
    assert numpy_count.bits.tolist() == solve_sa(model, sweeps=3).bits.tolist()


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ],
)
def test_annealing_and_vqe_reject_a_seed_that_is_not_a_non_negative_integer(seed, message):
    for model in (random_qubo(np.random.default_rng(61), 4), qubo_model({}, ())):
        # the exact backend never reads the seed, but solve_qubo checks it there too
        for solve in (solve_sa, solve_vqe_sim, partial(solve_qubo, backend="exact")):
            with pytest.raises(ValueError, match=message):
                solve(model, seed=seed)


def test_solve_sa_checks_its_parameters_also_on_a_model_without_variables():
    empty = qubo_model({}, (), offset=2.5)
    with pytest.raises(ValueError, match="sweeps must be an integer, got 2.5"):
        solve_sa(empty, sweeps=2.5, t_start=-1.0, t_end=5.0)
    with pytest.raises(ValueError, match="sweeps must be >= 1"):
        solve_sa(empty, sweeps=0)
    with pytest.raises(ValueError, match="t_start must be a finite number > 0, got -1.0"):
        solve_sa(empty, t_start=-1.0)
    with pytest.raises(ValueError, match="t_end must be <= t_start, got 2.0 and 1.0"):
        solve_sa(empty, t_start=1.0, t_end=2.0)
    solution = solve_sa(empty, seed=1)
    assert solution.bits.tolist() == [] and solution.energy == 2.5


def test_solve_sa_memory_does_not_grow_with_the_sweep_count():
    # frozen after at most one flip (setting the bit costs 1 at T = 1e-3), so
    # a million sweeps are skipped block by block; the whole schedule is 8 MB
    model = qubo_model({}, [1.0])
    tracemalloc.start()
    try:
        solve_sa(model, seed=0, sweeps=10**6, t_start=1e-3, t_end=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_solve_vqe_sim_reaches_the_optimum_on_tiny_models():
    rng = np.random.default_rng(67)
    for seed in range(3):
        model = random_qubo(rng, 3)
        _, brute_e = brute_qubo_minimum(model)
        solution = solve_vqe_sim(model, seed=seed)
        assert solution.energy == pytest.approx(brute_e, abs=1e-9)
        assert evaluate_qubo(model, solution.bits) == pytest.approx(solution.energy)


def test_solve_vqe_sim_reports_the_energy_of_its_bits():
    """Its energy is ``evaluate_qubo`` of the returned bits, bit for bit, as for the other backends."""
    rng = np.random.default_rng(83)

    def six_decades() -> float:
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-3, 4))

    for seed in range(30):
        n = int(rng.integers(2, 9))
        quad = {(i, j): six_decades() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6}
        model = qubo_model(quad, [six_decades() for _ in range(n)], six_decades())
        solution = solve_vqe_sim(model, seed=seed)
        assert solution.energy == evaluate_qubo(model, solution.bits)


def test_solve_vqe_sim_is_deterministic_per_seed():
    model = random_qubo(np.random.default_rng(71), 4)
    a = solve_vqe_sim(model, seed=5)
    b = solve_vqe_sim(model, seed=5)
    assert a.bits.tolist() == b.bits.tolist()
    assert a.energy == b.energy


def test_solve_vqe_sim_handles_one_and_two_qubits():
    one = qubo_model({}, (-2.0,), offset=0.5)
    assert solve_vqe_sim(one, seed=0).bits.tolist() == [1]
    two = qubo_model({(0, 1): 3.0}, (-1.0, -1.0))
    solution = solve_vqe_sim(two, seed=0)
    assert solution.energy == -1.0  # either single variable, never both


def test_solve_vqe_sim_enforces_cap_and_parameters():
    big = qubo_model({}, [0.0] * 17)
    with pytest.raises(ValueError, match="capped at 16"):
        solve_vqe_sim(big)
    small = qubo_model({}, (0.0,))
    with pytest.raises(ValueError, match="layers must be >= 0, got -1"):
        solve_vqe_sim(small, layers=-1)


@pytest.mark.parametrize("layers", [2.5, 1.0, True, "1"])
def test_solve_vqe_sim_rejects_a_layer_count_that_is_not_an_integer(layers):
    model = random_qubo(np.random.default_rng(71), 3)
    with pytest.raises(ValueError, match="layers must be an integer"):
        solve_vqe_sim(model, layers=layers)
    with pytest.raises(ValueError, match="layers must be an integer"):
        solve_vqe_sim(qubo_model({}, ()), layers=layers)
    numpy_count = solve_vqe_sim(model, layers=np.int64(1), seed=2)
    assert numpy_count.bits.tolist() == solve_vqe_sim(model, layers=1, seed=2).bits.tolist()


VQE_GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "vqe_golden.json").read_text())


@pytest.mark.parametrize(
    "case", VQE_GOLDEN["cases"], ids=lambda c: f"{c['model']}-layers{c['layers']}-seed{c['seed']}"
)
def test_solve_vqe_sim_matches_the_vqe_golden_file(case):
    """Bits and energy equal those an earlier revision wrote, exactly.

    The models have integer coefficients: example3x1's QUBO without and with
    slack bits (3 and 5 variables), 1tc.8's (8) and a seeded random one (10).
    Every enumerated energy is then exact, so only the statevector arithmetic
    could move a coordinate-search decision. Regenerate the file only for a
    deliberate change of ``solve_vqe_sim``'s answers: rerun it with its
    default options on each case's stored model, layers and seed, and write
    back the bits and energy.
    """
    model = model_from_json(json.dumps(VQE_GOLDEN["models"][case["model"]]))
    solution = solve_vqe_sim(model, layers=case["layers"], seed=case["seed"])
    assert solution.bits.tolist() == case["bits"]
    assert solution.energy == case["energy"]


def test_solve_qubo_dispatches_by_backend_name(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert solve_qubo(model, backend="exact").energy == -12.0
    assert solve_qubo(model, backend="sa", seed=0).energy == -12.0
    assert solve_qubo(model, backend="vqe", seed=0).energy == -12.0
    with pytest.raises(ValueError, match="unknown backend"):
        solve_qubo(model, backend="qpu")


def test_solve_qubo_forwards_backend_options(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    solution = solve_qubo(model, backend="sa", seed=3, sweeps=50)
    assert evaluate_qubo(model, solution.bits) == pytest.approx(solution.energy)


@pytest.mark.parametrize("backend", ["exact", "sa", "vqe"])
@pytest.mark.parametrize(
    "setting, message",
    [
        (dict(sweeps=0), "sweeps must be >= 1, got 0"),
        (dict(layers=-1), "layers must be >= 0, got -1"),
        (dict(t_start=float("nan")), "t_start must be a finite number > 0, got nan"),
        (dict(t_start=1.0, t_end=2.0), "t_end must be <= t_start, got 2.0 and 1.0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ],
    ids=["sweeps", "layers", "t_start", "t_end-above-t_start", "seed"],
)
def test_solve_qubo_checks_every_setting_on_every_backend(backend, setting, message, mdkp_tiny):
    # the same message whether or not the backend reads the setting
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_qubo(model, backend=backend, **setting)


@pytest.mark.parametrize(
    "solve", [solve_sa, partial(solve_qubo, backend="sa")], ids=["direct", "solve_qubo"]
)
@pytest.mark.parametrize(
    "setting, message",
    [
        (dict(t_start=True), "t_start must be a finite number > 0, got True"),
        (dict(t_start=5.0, t_end=True), "t_end must be a finite number > 0, got True"),
        (dict(t_end=0.0), "t_end must be a finite number > 0, got 0.0"),
        (dict(t_start=float("inf")), "t_start must be a finite number > 0, got inf"),
        (dict(t_start=1.0, t_end=2.0), "t_end must be <= t_start, got 2.0 and 1.0"),
        # above the default t_start, the model's largest coefficient
        (dict(t_end=5000.0), "t_end must be <= t_start, got 5000.0 and 1684.0"),
    ],
    ids=["bool-t_start", "bool-t_end", "zero-t_end", "inf-t_start", "order", "order-default"],
)
def test_solve_sa_checks_its_temperatures_as_solve_qubo_does(solve, setting, message, mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert coefficient_scale(model) == 1684.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(model, **setting)


def test_solve_qubo_hands_each_backend_only_the_settings_it_reads(monkeypatch, mdkp_tiny):
    # looked up as module globals at each call, where perfbench's tracer wraps them
    calls = []
    for name in ("solve_exact", "solve_sa", "solve_vqe_sim"):
        monkeypatch.setattr(solvers, name, lambda model, _name=name, **kw: calls.append((_name, kw)))
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    settings = dict(seed=3, sweeps=40, layers=2, t_start=50.0, t_end=0.5)
    for backend in ("exact", "sa", "vqe"):
        solve_qubo(model, backend, **settings)
    assert calls == [
        ("solve_exact", {}),
        ("solve_sa", dict(seed=3, sweeps=40, t_start=50.0, t_end=0.5)),
        ("solve_vqe_sim", dict(layers=2, seed=3)),
    ]
