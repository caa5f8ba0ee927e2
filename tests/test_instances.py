"""Parsers, serializers, and the bundled benchmark files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    MdkpInstance,
    MisInstance,
    ParseError,
    QapInstance,
    load_optima,
    parse_mdkp,
    parse_mis_edgelist,
    parse_qaplib,
    serialize_mdkp,
    serialize_mis_edgelist,
    serialize_qaplib,
)
from tests.conftest import (
    PARSERS,
    WRITERS,
    brute_independence_number,
    generator,
    malformed_instance_texts,
    random_mis,
)


def test_parse_mdkp_reads_header_profits_weights_then_capacities():
    inst = parse_mdkp("3 1 12\n5 7 4\n2 3 4\n5\n")
    assert inst.n == 3
    assert inst.m == 1
    assert inst.known_optimum == 12.0
    assert inst.profits.tolist() == [5.0, 7.0, 4.0]
    assert inst.weights.tolist() == [[2.0, 3.0, 4.0]]
    assert inst.capacities.tolist() == [5.0]


def test_parse_mdkp_zero_header_optimum_means_unknown():
    inst = parse_mdkp("2 1 0\n1 2\n1 1\n2\n")
    assert inst.known_optimum is None


def test_parse_mdkp_truncated_stream_reports_token_position():
    with pytest.raises(ParseError, match="capacity 0"):
        parse_mdkp("3 1 0\n5 7 4\n2 3 4\n")


def test_parse_mdkp_rejects_trailing_tokens():
    with pytest.raises(ParseError, match="trailing"):
        parse_mdkp("2 1 0\n1 2\n1 1\n2 99\n")


def test_parse_mdkp_rejects_non_numeric_token():
    with pytest.raises(ParseError, match="bad numeric token"):
        parse_mdkp("2 1 0\n1 x\n1 1\n2\n")


def test_mdkp_instance_rejects_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        MdkpInstance(
            n=1,
            m=1,
            profits=np.array([1.0]),
            weights=np.array([[-1.0]]),
            capacities=np.array([1.0]),
        )


def test_mdkp_instance_rejects_nonpositive_capacity():
    with pytest.raises(ValueError, match="positive"):
        MdkpInstance(
            n=1,
            m=1,
            profits=np.array([1.0]),
            weights=np.array([[1.0]]),
            capacities=np.array([0.0]),
        )


@pytest.mark.parametrize("field", ["profits", "weights", "capacities"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_mdkp_instance_rejects_non_finite_data(field, bad):
    data = {
        "profits": np.array([1.0, 2.0]),
        "weights": np.array([[1.0, 1.0]]),
        "capacities": np.array([3.0]),
    }
    data[field].reshape(-1)[0] = bad
    with pytest.raises(ValueError, match=f"all {field} must be finite"):
        MdkpInstance(n=2, m=1, **data)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_every_instance_rejects_a_non_finite_known_optimum(bad):
    for build in (
        lambda: MdkpInstance(
            n=1,
            m=1,
            profits=np.ones(1),
            weights=np.ones((1, 1)),
            capacities=np.ones(1),
            known_optimum=bad,
        ),
        lambda: MisInstance(n=2, edges=((0, 1),), known_optimum=bad),
        lambda: QapInstance(n=1, flow=np.zeros((1, 1)), distance=np.zeros((1, 1)), known_optimum=bad),
    ):
        with pytest.raises(ValueError, match="known optimum must be finite"):
            build()


def test_parse_mdkp_rejects_an_overflowing_header_optimum():
    with pytest.raises(ValueError, match="known optimum must be finite"):
        parse_mdkp("1 1 1e400\n5\n2\n5\n")


def test_serialize_mdkp_round_trips(mdkp_tiny):
    again = parse_mdkp(serialize_mdkp(mdkp_tiny))
    assert again.n == mdkp_tiny.n
    assert again.known_optimum == mdkp_tiny.known_optimum
    assert np.array_equal(again.profits, mdkp_tiny.profits)
    assert np.array_equal(again.weights, mdkp_tiny.weights)
    assert np.array_equal(again.capacities, mdkp_tiny.capacities)


def test_parse_mis_converts_one_based_and_collapses_duplicates():
    inst = parse_mis_edgelist("# triangle plus noise\n3\n1 2\n2 1\n2 3\n1 3\n")
    assert inst.n == 3
    assert inst.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_mis_rejects_self_loop_with_line_number():
    with pytest.raises(ParseError, match="line 3: self-loop"):
        parse_mis_edgelist("3\n1 2\n2 2\n")


def test_parse_mis_rejects_out_of_range_endpoint():
    with pytest.raises(ParseError, match="out of range"):
        parse_mis_edgelist("3\n1 4\n")


@pytest.mark.parametrize("header", ["3 99 x", "3 4", "3 #"])
def test_parse_mis_rejects_a_vertex_count_line_with_more_than_one_token(header):
    with pytest.raises(ParseError, match=f"bad vertex count line '{header}'"):
        parse_mis_edgelist(f"{header}\n1 2\n")


def test_parse_mis_rejects_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse_mis_edgelist("# only a comment\n")


def test_serialize_mis_round_trips():
    inst = MisInstance(n=5, edges=((0, 4), (1, 2)))
    assert parse_mis_edgelist(serialize_mis_edgelist(inst)).edges == inst.edges


def test_mis_instance_adjacency_lists_both_directions():
    inst = MisInstance(n=3, edges=((0, 1), (1, 2)))
    assert inst.adjacency() == [{1}, {0, 2}, {1}]


def test_mis_instance_rejects_an_edge_listed_in_both_orientations():
    with pytest.raises(ValueError, match="duplicates"):
        MisInstance(n=2, edges=((0, 1), (1, 0)))
    # either orientation alone is the same edge
    assert MisInstance(n=2, edges=((1, 0),)).adjacency() == [{1}, {0}]


def test_parse_qaplib_reads_flow_then_distance(qap_pair):
    inst = parse_qaplib("2\n0 5\n5 0\n0 2\n2 0\n")
    assert inst.n == 2
    assert np.array_equal(inst.flow, qap_pair.flow)
    assert np.array_equal(inst.distance, qap_pair.distance)


def test_parse_qaplib_rejects_short_stream():
    with pytest.raises(ParseError, match="distance entry"):
        parse_qaplib("2\n0 5\n5 0\n0 2\n")


def test_serialize_qaplib_round_trips(qap_pair):
    again = parse_qaplib(serialize_qaplib(qap_pair))
    assert np.array_equal(again.flow, qap_pair.flow)
    assert np.array_equal(again.distance, qap_pair.distance)


def test_qap_instance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        QapInstance(n=2, flow=np.zeros((2, 3)), distance=np.zeros((2, 2)))


def test_load_optima_parses_name_value_lines(tmp_path):
    path = tmp_path / "optima.txt"
    path.write_text("# known optima\nalpha 12\nbeta 3.5\n\n")
    assert load_optima(path) == {"alpha": 12.0, "beta": 3.5}


def test_load_optima_rejects_malformed_line(tmp_path):
    path = tmp_path / "optima.txt"
    path.write_text("alpha 12 extra\n")
    with pytest.raises(ParseError, match="expected 'name value'"):
        load_optima(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_load_optima_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "optima.txt"
    path.write_text(f"alpha 12\nbeta {value}\n")
    with pytest.raises(ParseError, match=":2: value must be finite"):
        load_optima(path)


def test_bundled_mis_files_parse_and_match_sidecar(data_dir):
    optima = load_optima(data_dir / "mis" / "optima.txt")
    small = parse_mis_edgelist((data_dir / "mis" / "1tc.8.txt").read_text())
    large = parse_mis_edgelist((data_dir / "mis" / "1tc.16.txt").read_text())
    assert small.n == 8
    assert large.n == 16
    assert optima["1tc.8"] == 4.0
    assert optima["1tc.16"] == 8.0


def test_bundled_mdkp_files_parse_with_header_optima(data_dir):
    tiny = parse_mdkp((data_dir / "mdkp" / "example3x1.txt").read_text())
    synth = parse_mdkp((data_dir / "mdkp" / "synth24x4.txt").read_text())
    assert tiny.known_optimum == 12.0
    assert synth.n == 24
    assert synth.m == 4
    assert synth.known_optimum == 735.0
    # every capacity row needs the same slack width in the penalized encoding
    assert all(int(np.floor(np.log2(c + 1))) == 9 for c in synth.capacities)


def test_bundled_qap_files_parse_and_match_sidecar(data_dir):
    optima = load_optima(data_dir / "qap" / "optima.txt")
    pair = parse_qaplib((data_dir / "qap" / "pair2.txt").read_text())
    rand = parse_qaplib((data_dir / "qap" / "rand6.txt").read_text())
    assert pair.n == 2
    assert rand.n == 6
    assert np.array_equal(rand.flow, rand.flow.T)
    assert np.array_equal(rand.distance, rand.distance.T)
    assert optima["pair2"] == 20.0
    assert optima["rand6"] == 424.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_mis_optimum_equals_subset_enumeration_on_random_graphs(n, density, seed):
    inst = random_mis(np.random.default_rng(seed), n, density)
    assert generator().mis_optimum(inst) == brute_independence_number(inst)


def test_mis_optimum_proves_that_1tc64_has_independence_number_20():
    module = generator()
    assert module.mis_optimum(module.transposition_conflict_graph(6)) == 20


@settings(max_examples=300, deadline=None)
@given(malformed_instance_texts())
def test_an_edited_instance_raises_a_value_error_or_parses_to_what_its_writer_reproduces(case):
    kind, text = case
    try:
        inst = PARSERS[kind](text)
    except ValueError:  # ParseError is one
        return
    written = WRITERS[kind](inst)
    assert WRITERS[kind](PARSERS[kind](written)) == written


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_mdkp, "inf 1 0\n1\n1\n1\n", "non-negative integer for item count n, got inf"),
        (parse_mdkp, "1 nan 0\n1\n1\n1\n", "non-negative integer for constraint count m, got nan"),
        (parse_mdkp, "1 -1 0\n1\n", "non-negative integer for constraint count m, got -1.0"),
        (parse_qaplib, "-2\n1 2 3 4\n1 2 3 4\n", "non-negative integer for size n, got -2.0"),
        (parse_qaplib, "1.5\n1\n1\n", "non-negative integer for size n, got 1.5"),
        # no item, a trillion constraint rows: fails at the first missing capacity
        (parse_mdkp, "0 1000000000000 0\n", "end of input while reading capacity 0"),
        # more rows than an array dimension can hold: the count is checked first
        (
            parse_mdkp,
            "0 1000000000000000000000 0\n",
            r"reading capacity 0 of 1000000000000000000000 \(token 3\)",
        ),
    ],
)
def test_a_count_that_is_not_a_non_negative_integer_is_a_parse_error(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_a_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        parse_mis_edgelist("-1\n")
