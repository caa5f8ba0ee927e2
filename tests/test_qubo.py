"""Penalized QUBO builders, evaluation, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    MdkpInstance,
    PenaltyPolicy,
    QuboModel,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    coefficient_scale,
    decision_indices,
    evaluate_qubo,
    model_from_json,
    model_to_json,
    recommend_penalty,
    slack_bit_count,
)
from tests.conftest import brute_qubo_minimum, every_bitstring, naive_qubo_energy


def test_mdkp_worked_example_coefficients(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert model.n_vars == 3
    assert model.lin == (-1125.0, -1477.0, -1684.0)
    assert model.quad == {(0, 1): 840.0, (0, 2): 1120.0, (1, 2): 1680.0}
    assert model.offset == 1750.0
    assert model.semantics == (("item", 0), ("item", 1), ("item", 2))


def test_mdkp_worked_example_minimizer_is_the_known_optimum(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    best_x, best_e = brute_qubo_minimum(model)
    assert best_x == (1, 1, 0)
    assert best_e == -12.0


def test_mdkp_worked_example_spot_energies(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    # empty knapsack pays the full squared residual P * C^2
    assert evaluate_qubo(model, (0, 0, 0)) == 1750.0
    # item 0 alone leaves residual 3: -5 + 70 * 9
    assert evaluate_qubo(model, (1, 0, 0)) == 625.0
    # overweight pack (load 9, residual 4): -16 + 70 * 16
    assert evaluate_qubo(model, (1, 1, 1)) == 1104.0


def test_mdkp_energy_matches_penalty_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        inst = MdkpInstance(
            n=n,
            m=m,
            profits=rng.integers(1, 20, n).astype(float),
            weights=rng.integers(0, 10, (m, n)).astype(float),
            capacities=rng.integers(5, 30, m).astype(float),
        )
        P = float(rng.integers(1, 50))
        model = build_mdkp_qubo(inst, P=P)
        for x in every_bitstring(n):
            xv = np.array(x, dtype=float)
            expected = -float(inst.profits @ xv)
            for j in range(m):
                expected += P * float(inst.weights[j] @ xv - inst.capacities[j]) ** 2
            assert evaluate_qubo(model, x) == pytest.approx(expected, rel=1e-12)


def test_mdkp_slack_variables_implement_an_equality_penalty(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0, use_slack=True)
    kappa = slack_bit_count(5.0)
    assert kappa == 2
    assert model.n_vars == 3 + kappa
    assert model.semantics[3:] == (("slack", 0, 0), ("slack", 0, 1))
    assert decision_indices(model) == [0, 1, 2]
    for x in every_bitstring(model.n_vars):
        items = np.array(x[:3], dtype=float)
        slack = x[3] * 1.0 + x[4] * 2.0
        load = float(mdkp_tiny.weights[0] @ items)
        expected = -float(mdkp_tiny.profits @ items) + 70.0 * (load + slack - 5.0) ** 2
        assert evaluate_qubo(model, x) == pytest.approx(expected, rel=1e-12)


def test_slack_bit_count_uses_floor_log2_of_capacity_plus_one():
    assert slack_bit_count(1.0) == 1
    assert slack_bit_count(5.0) == 2
    assert slack_bit_count(7.0) == 3
    assert slack_bit_count(511.0) == 9
    assert slack_bit_count(1022.0) == 9


def test_mis_triangle_coefficients_and_optimum(mis_triangle):
    model = build_mis_qubo(mis_triangle, P=2.0)
    assert model.lin == (-1.0, -1.0, -1.0)
    assert model.quad == {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0}
    assert model.offset == 0.0
    best_x, best_e = brute_qubo_minimum(model)
    assert sum(best_x) == 1
    assert best_e == -1.0


def test_mis_penalty_at_most_one_warns(mis_triangle):
    with pytest.warns(UserWarning, match="does not exceed 1"):
        build_mis_qubo(mis_triangle, P=1.0)


def test_qap_pair_coefficients(qap_pair):
    model = build_qap_qubo(qap_pair, P=100.0)
    assert model.n_vars == 4
    assert model.lin == (-200.0, -200.0, -200.0, -200.0)
    assert model.offset == 400.0
    # objective couplings: x00 with x11 and x01 with x10, each 2 * 5 * 2 = 20
    assert model.quad[(0, 3)] == 20.0
    assert model.quad[(1, 2)] == 20.0
    # one-hot couplings inside every row and column
    for pair in ((0, 1), (2, 3), (0, 2), (1, 3)):
        assert model.quad[pair] == 200.0


def test_qap_pair_energies_for_named_states(qap_pair):
    model = build_qap_qubo(qap_pair, P=100.0)
    assert evaluate_qubo(model, (1, 0, 0, 1)) == 20.0  # identity assignment
    assert evaluate_qubo(model, (0, 1, 1, 0)) == 20.0  # swapped assignment
    assert evaluate_qubo(model, (1, 1, 0, 0)) == 200.0  # facility 0 in two places
    assert evaluate_qubo(model, (1, 0, 0, 0)) == 200.0  # facility 1 unplaced
    assert evaluate_qubo(model, (1, 1, 1, 1)) == 440.0
    assert evaluate_qubo(model, (0, 0, 0, 0)) == 400.0


def test_qap_energy_matches_flow_distance_formula():
    rng = np.random.default_rng(11)
    from shrinkcut import QapInstance

    for _ in range(5):
        n = 3
        flow = rng.integers(0, 6, (n, n)).astype(float)
        distance = rng.integers(0, 6, (n, n)).astype(float)
        inst = QapInstance(n=n, flow=flow, distance=distance)
        P = 500.0
        model = build_qap_qubo(inst, P=P)
        for x in every_bitstring(n * n):
            X = np.array(x, dtype=float).reshape(n, n)
            cost = float(np.sum(flow * (X @ distance @ X.T)))
            penalty = float(np.sum((X.sum(axis=1) - 1.0) ** 2))
            penalty += float(np.sum((X.sum(axis=0) - 1.0) ** 2))
            assert evaluate_qubo(model, x) == pytest.approx(cost + P * penalty, rel=1e-12)


def test_recommend_penalty_worked_values(mdkp_tiny, mis_triangle, qap_pair):
    assert recommend_penalty(mdkp_tiny, PenaltyPolicy(multiplier=10.0)) == 70.0
    assert recommend_penalty(mis_triangle, PenaltyPolicy(multiplier=3.0)) == 3.0
    assert recommend_penalty(qap_pair, PenaltyPolicy(multiplier=10.0)) == 100.0


def test_recommend_penalty_rejects_unknown_instance_type():
    with pytest.raises(TypeError, match="unsupported instance type"):
        recommend_penalty(object(), PenaltyPolicy())


def test_penalty_policy_rejects_nonpositive_multiplier():
    with pytest.raises(ValueError, match="positive"):
        PenaltyPolicy(multiplier=0.0)


def test_builders_reject_nonpositive_penalty(mdkp_tiny, mis_triangle, qap_pair):
    with pytest.raises(ValueError, match="positive"):
        build_mdkp_qubo(mdkp_tiny, P=0.0)
    with pytest.raises(ValueError, match="positive"):
        build_mis_qubo(mis_triangle, P=-1.0)
    with pytest.raises(ValueError, match="positive"):
        build_qap_qubo(qap_pair, P=0.0)


def test_qubo_model_validates_lengths_and_quad_keys():
    with pytest.raises(ValueError, match="lin has length"):
        QuboModel(n_vars=2, quad={}, lin=(1.0,), offset=0.0, semantics=(("spin", 0), ("spin", 1)))
    with pytest.raises(ValueError, match="ordered pair"):
        QuboModel(
            n_vars=2,
            quad={(1, 0): 1.0},
            lin=(0.0, 0.0),
            offset=0.0,
            semantics=(("spin", 0), ("spin", 1)),
        )
    with pytest.raises(ValueError, match="zero coefficient"):
        QuboModel(
            n_vars=2,
            quad={(0, 1): 0.0},
            lin=(0.0, 0.0),
            offset=0.0,
            semantics=(("spin", 0), ("spin", 1)),
        )
    nan, inf = float("nan"), float("inf")
    for quad, lin, offset in (
        ({(0, 1): nan}, (0.0, 0.0), 0.0),
        ({(0, 1): -inf}, (0.0, 0.0), 0.0),
        ({(0, 1): 1.0}, (0.0, inf), 0.0),
        ({(0, 1): 1.0}, (nan, 0.0), 0.0),
        ({(0, 1): 1.0}, (0.0, 0.0), nan),
    ):
        with pytest.raises(ValueError, match="finite"):
            QuboModel(
                n_vars=2, quad=quad, lin=lin, offset=offset, semantics=(("spin", 0), ("spin", 1))
            )


def test_evaluate_qubo_rejects_wrong_length(mis_triangle):
    model = build_mis_qubo(mis_triangle, P=2.0)
    with pytest.raises(ValueError, match="shape"):
        evaluate_qubo(model, (0, 1))


def test_coefficient_scale_is_largest_absolute_coefficient(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert coefficient_scale(model) == 1684.0
    empty = QuboModel(n_vars=1, quad={}, lin=(0.0,), offset=3.0, semantics=(("spin", 0),))
    assert coefficient_scale(empty) == 1.0


def test_model_json_round_trips_exactly(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0, use_slack=True)
    again = model_from_json(model_to_json(model))
    assert again == model


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=6))
def test_evaluate_qubo_matches_direct_summation(seed, n):
    from tests.conftest import random_qubo

    rng = np.random.default_rng(seed)
    model = random_qubo(rng, n)
    x = tuple(int(b) for b in rng.integers(0, 2, n))
    assert evaluate_qubo(model, x) == pytest.approx(naive_qubo_energy(model, x), rel=1e-12)
