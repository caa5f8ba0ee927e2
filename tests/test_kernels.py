"""The array kernels against one-edge-at-a-time loop oracles on float data.

``evaluate_qubo``, ``cut_value``, ``weighted_degrees``, ``laplacian`` and
``sdp_objective`` read the dense views ``QuboModel.quad_matrix()`` and
``MaxCutGraph.weight_matrix()``; the oracles in ``tests/conftest.py`` walk
the stored dicts instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import MaxCutGraph, QuboModel, cut_value, evaluate_qubo, laplacian, sdp_objective
from tests.conftest import (
    naive_cut_value,
    naive_laplacian,
    naive_qubo_energy,
    naive_sdp_objective,
    naive_weighted_degrees,
)

RTOL = 1e-9

coefficients = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(
    lambda w: w != 0.0
)


@st.composite
def float_models(draw) -> QuboModel:
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return QuboModel(
        n_vars=n,
        quad={key: draw(coefficients) for key in keys},
        lin=tuple(draw(st.lists(coefficients, min_size=n, max_size=n))),
        offset=draw(coefficients),
        semantics=tuple(("spin", i) for i in range(n)),
    )


@st.composite
def float_graphs(draw) -> MaxCutGraph:
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return MaxCutGraph(
        n_nodes=n,
        edges={key: draw(coefficients) for key in keys},
        offset=draw(coefficients),
        var_map={v: v - 1 for v in range(1, n)},
    )


def _scale(values) -> float:
    """Magnitude that bounds the rounding error of a sum of ``values``."""
    return max(1.0, float(np.sum(np.abs(values))))


@settings(max_examples=60, deadline=None)
@given(float_models(), st.data())
def test_evaluate_qubo_matches_the_loop_oracle(model, data):
    x = data.draw(st.lists(st.integers(0, 1), min_size=model.n_vars, max_size=model.n_vars))
    terms = [model.offset, *model.lin, *model.quad.values()]
    assert abs(evaluate_qubo(model, x) - naive_qubo_energy(model, x)) <= RTOL * _scale(terms)


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.data())
def test_cut_value_matches_the_loop_oracle(graph, data):
    spins = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=graph.n_nodes, max_size=graph.n_nodes)
    )
    expected = naive_cut_value(graph, spins)
    scale = _scale(list(graph.edges.values()))
    assert abs(cut_value(graph, spins) - expected) <= RTOL * scale


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.booleans())
def test_weighted_degrees_match_the_loop_oracle(graph, absolute):
    expected = naive_weighted_degrees(graph, absolute)
    scale = _scale(list(graph.edges.values()))
    assert graph.weighted_degrees(absolute) == pytest.approx(expected, rel=RTOL, abs=RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.sampled_from(["absolute", "raw"]))
def test_laplacian_matches_the_loop_oracle(graph, weight_mode):
    expected = np.array(naive_laplacian(graph, weight_mode))
    scale = _scale(list(graph.edges.values()))
    assert np.allclose(laplacian(graph, weight_mode), expected, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(float_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_sdp_objective_matches_the_loop_oracle(graph, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((graph.n_nodes, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    X = V @ V.T
    expected = naive_sdp_objective(graph, X.tolist())
    scale = _scale(list(graph.edges.values()))
    assert abs(sdp_objective(graph, X) - expected) <= RTOL * scale


def test_dense_views_are_read_only_and_built_once():
    model = QuboModel(
        n_vars=3,
        quad={(0, 2): 1.5},
        lin=(0.0, 0.0, 0.0),
        offset=0.0,
        semantics=(("spin", 0), ("spin", 1), ("spin", 2)),
    )
    Q = model.quad_matrix()
    assert Q.tolist() == [[0.0, 0.0, 1.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    graph = MaxCutGraph(n_nodes=3, edges={(0, 2): -2.0}, offset=0.0, var_map={1: 0, 2: 1})
    W = graph.weight_matrix()
    assert W.tolist() == [[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]
    assert model.quad_matrix() is Q and graph.weight_matrix() is W
    for view in (Q, W):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
