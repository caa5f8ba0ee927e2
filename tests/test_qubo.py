"""Penalized QUBO builders, evaluation, and serialization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    MdkpInstance,
    MisInstance,
    PenaltyPolicy,
    QapInstance,
    QuboModel,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    coefficient_scale,
    evaluate_qubo,
    model_from_json,
    model_to_json,
    recommend_penalty,
    slack_bit_count,
)
from shrinkcut.pipeline import load_instance
from tests.conftest import (
    DATA_DIR,
    brute_qubo_minimum,
    every_bitstring,
    naive_build_mdkp_qubo,
    naive_build_mis_qubo,
    naive_build_qap_qubo,
    naive_qubo_energy,
)


def test_mdkp_worked_example_coefficients(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert model.n_vars == 3
    assert model.lin.tolist() == [-1125.0, -1477.0, -1684.0]
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
    assert model.lin.tolist() == [-1.0, -1.0, -1.0]
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
    assert model.lin.tolist() == [-200.0, -200.0, -200.0, -200.0]
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
    spins = (("spin", 0), ("spin", 1))
    with pytest.raises(ValueError, match="lin has shape"):
        QuboModel(np.zeros((2, 2)), lin=(1.0,), offset=0.0, semantics=spins)
    with pytest.raises(ValueError, match="pairs has shape"):
        QuboModel(np.zeros((2, 3)), lin=(0.0, 0.0), offset=0.0, semantics=spins)
    with pytest.raises(ValueError, match="pairs has shape"):
        QuboModel(np.zeros((2, 2)), lin=(0.0, 0.0), offset=0.0, semantics=spins[:1])
    for pairs in ([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="strictly upper triangular"):
            QuboModel(pairs, lin=(0.0, 0.0), offset=0.0, semantics=spins)
    nan, inf = float("nan"), float("inf")
    for pairs, lin, offset in (
        ([[0.0, nan], [0.0, 0.0]], (0.0, 0.0), 0.0),
        ([[0.0, -inf], [0.0, 0.0]], (0.0, 0.0), 0.0),
        ([[0.0, 1.0], [nan, 0.0]], (0.0, 0.0), 0.0),
        ([[0.0, 1.0], [0.0, 0.0]], (0.0, inf), 0.0),
        ([[0.0, 1.0], [0.0, 0.0]], (nan, 0.0), 0.0),
        ([[0.0, 1.0], [0.0, 0.0]], (0.0, 0.0), nan),
    ):
        with pytest.raises(ValueError, match="pairs, lin and offset must be finite"):
            QuboModel(pairs, lin=lin, offset=offset, semantics=spins)

    def from_terms(quadratic: str, n_vars="2") -> QuboModel:
        return model_from_json(
            f'{{"n_vars": {n_vars}, "linear": [0.0, 0.0], "quadratic": {quadratic}, '
            '"offset": 0.0, "semantics": [["spin", 0], ["spin", 1]]}'
        )

    with pytest.raises(ValueError, match="ordered pair"):
        from_terms("[[1, 0, 1.0]]")
    with pytest.raises(ValueError, match=r"stores a zero or non-finite weight 0\.0"):
        from_terms("[[0, 1, 0.0]]")
    with pytest.raises(ValueError, match="zero or non-finite weight nan"):
        from_terms("[[0, 1, NaN]]")
    with pytest.raises(ValueError, match=r"quadratic term \(0, 1\) is listed twice"):
        from_terms("[[0, 1, 3.0], [0, 1, -3.0]]")
    with pytest.raises(ValueError, match="quadratic term index must be a non-negative integer"):
        from_terms("[[0, 1.7, 3.0]]")
    for n_vars in ("2.9", "2.0", "false", "-2"):
        with pytest.raises(ValueError, match="n_vars must be a non-negative integer"):
            from_terms("[[0, 1, 3.0]]", n_vars)


def test_stored_pairs_and_lin_are_read_only_copies_with_positive_zero_pairs():
    source = np.array([[0.0, -0.0, 1.5], [0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]])
    lin = np.array([-0.0, 1.0, 0.0])
    model = QuboModel(source, lin, 0.0, (("spin", 0), ("spin", 1), ("spin", 2)))
    source[0, 2], lin[1] = 5.0, 5.0
    assert model.pairs.tolist() == [[0.0, 0.0, 1.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert not np.signbit(model.pairs).any()
    assert np.signbit(model.lin).tolist() == [True, False, False]  # lin keeps its zeros' signs
    assert model.n_vars == 3
    for stored in (model.pairs, model.lin):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0
    assert model.quad == {(0, 2): 1.5}
    assert model.quad is model.quad  # derived once
    with pytest.raises(TypeError):
        model.quad[(0, 1)] = 1.0


def test_evaluate_qubo_rejects_wrong_length(mis_triangle):
    model = build_mis_qubo(mis_triangle, P=2.0)
    with pytest.raises(ValueError, match="shape"):
        evaluate_qubo(model, (0, 1))


def test_coefficient_scale_is_largest_absolute_coefficient(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0)
    assert coefficient_scale(model) == 1684.0
    empty = QuboModel(np.zeros((1, 1)), lin=(0.0,), offset=3.0, semantics=(("spin", 0),))
    assert coefficient_scale(empty) == 1.0


def test_model_json_round_trips_exactly(mdkp_tiny):
    model = build_mdkp_qubo(mdkp_tiny, P=70.0, use_slack=True)
    text = model_to_json(model)
    again = model_from_json(text)
    assert model_to_json(again) == text
    assert again.pairs.tobytes() == model.pairs.tobytes()
    assert again.lin.tobytes() == model.lin.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=6))
def test_evaluate_qubo_matches_direct_summation(seed, n):
    from tests.conftest import random_qubo

    rng = np.random.default_rng(seed)
    model = random_qubo(rng, n)
    x = tuple(int(b) for b in rng.integers(0, 2, n))
    assert evaluate_qubo(model, x) == pytest.approx(naive_qubo_energy(model, x), rel=1e-12)


def test_recommend_penalty_for_qap_equals_the_outer_product_form():
    rng = np.random.default_rng(5)
    instances = [QapInstance(n=0, flow=np.zeros((0, 0)), distance=np.zeros((0, 0)))]
    instances.append(QapInstance(n=3, flow=np.zeros((3, 3)), distance=np.ones((3, 3))))
    for _ in range(200):
        n = int(rng.integers(1, 7))
        flow, distance = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4), rng.random((n, n))
        flow[rng.random((n, n)) < 0.4] = 0.0
        instances.append(QapInstance(n=n, flow=flow, distance=distance))
    for inst in instances:
        scale = float(np.max(np.abs(np.outer(inst.flow, inst.distance)))) if inst.n else 1.0
        expected = 2.5 * (scale or 1.0)
        assert recommend_penalty(inst, PenaltyPolicy(multiplier=2.5)) == expected


# ---------------------------------------------------------------------------
# the matrix-expression builders against the term-loop oracles
# ---------------------------------------------------------------------------


def assert_same_model(model: QuboModel, oracle: QuboModel) -> None:
    """Exactly the same model: coefficients, offset and tags (and the signs of zeros)."""
    assert model.pairs.tobytes() == oracle.pairs.tobytes()
    assert model.lin.tobytes() == oracle.lin.tobytes()
    assert model.offset == oracle.offset
    assert model.semantics == oracle.semantics
    assert model_to_json(model) == model_to_json(oracle)


@st.composite
def mdkp_instances(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 10))
    if draw(st.booleans()):
        value, positive = st.integers(0, 30).map(float), st.integers(1, 80).map(float)
    else:
        value, positive = st.floats(0.0, 1e3), st.floats(1e-3, 1e3)
    profits = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    weights = np.array(draw(st.lists(value, min_size=m * n, max_size=m * n)), dtype=float)
    weights = weights.reshape(m, n)
    weights[:, draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)) if n else []] = 0.0
    capacities = np.array(draw(st.lists(positive, min_size=m, max_size=m)), dtype=float)
    return MdkpInstance(n=n, m=m, profits=profits, weights=weights, capacities=capacities)


@st.composite
def mis_instances(draw):
    n = draw(st.integers(0, 15))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(
        st.lists(pairs.filter(lambda e: e[0] != e[1]), unique_by=frozenset, max_size=40)
        if n > 1
        else st.just([])
    )
    return MisInstance(n=n, edges=tuple(edges))  # either orientation, as drawn


@st.composite
def qap_instances(draw):
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0.0), st.integers(0, 9).map(float), st.floats(0.0, 1e2))
    flow, distance = (
        np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
        for _ in range(2)
    )
    return QapInstance(n=n, flow=flow, distance=distance)


penalties = st.one_of(st.integers(2, 500).map(float), st.floats(1.001, 1e4))


@settings(max_examples=300, deadline=None)
@given(mdkp_instances(), penalties, st.booleans())
def test_build_mdkp_qubo_equals_the_term_loop_oracle(inst, P, use_slack):
    assert_same_model(build_mdkp_qubo(inst, P, use_slack), naive_build_mdkp_qubo(inst, P, use_slack))


@settings(max_examples=200, deadline=None)
@given(mis_instances(), penalties)
def test_build_mis_qubo_equals_the_term_loop_oracle(inst, P):
    assert_same_model(build_mis_qubo(inst, P), naive_build_mis_qubo(inst, P))


@settings(max_examples=200, deadline=None)
@given(qap_instances(), penalties)
def test_build_qap_qubo_equals_the_term_loop_oracle(inst, P):
    assert_same_model(build_qap_qubo(inst, P), naive_build_qap_qubo(inst, P))


@pytest.mark.parametrize("multiplier", [10.0, 3.0, 2.5, 0.7, 1.1])
def test_builders_equal_the_term_loop_oracles_on_the_bundled_instances(multiplier):
    files = sorted(path for path in DATA_DIR.glob("*/*.txt") if path.name != "optima.txt")
    assert len(files) == 6
    for path in files:
        inst = load_instance(path.parent.name, path)
        P = recommend_penalty(inst, PenaltyPolicy(multiplier=multiplier))
        if isinstance(inst, MdkpInstance):
            for use_slack in (False, True):
                oracle = naive_build_mdkp_qubo(inst, P, use_slack)
                assert_same_model(build_mdkp_qubo(inst, P, use_slack), oracle)
        elif isinstance(inst, MisInstance):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # P <= 1 at multiplier 0.7
                assert_same_model(build_mis_qubo(inst, P), naive_build_mis_qubo(inst, P))
        else:
            assert_same_model(build_qap_qubo(inst, P), naive_build_qap_qubo(inst, P))
