"""Violation checks, merge penalties, and deterministic repair."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    MdkpInstance,
    MisInstance,
    QapInstance,
    WorkingGraph,
    hungarian,
    is_feasible,
    make_penalty,
    mdkp_violations,
    mis_violations,
    parse_mdkp,
    penalty_summaries,
    qap_violations,
    repair,
    repair_mdkp,
    repair_mis,
    repair_qap,
    violations,
)
from shrinkcut.feasibility import mdkp_shares
from tests.conftest import summary_from_scratch


def test_mdkp_violations_name_the_overrun_rows(mdkp_tiny):
    assert mdkp_violations(mdkp_tiny, (1, 1, 0)) == []
    out = mdkp_violations(mdkp_tiny, (1, 1, 1))
    assert out == ["constraint 0: load 9 exceeds capacity 5"]


def test_mis_violations_name_the_conflict_edges(mis_triangle):
    assert mis_violations(mis_triangle, (0, 1, 0)) == []
    out = mis_violations(mis_triangle, (1, 1, 1))
    assert len(out) == 3
    assert "edge (0, 1)" in out[0]


def test_qap_violations_name_rows_and_columns(qap_pair):
    assert qap_violations(qap_pair, (1, 0, 0, 1)) == []
    out = qap_violations(qap_pair, (1, 1, 0, 0))
    assert out == [
        "facility 0: assigned to 2 locations, expected 1",
        "facility 1: assigned to 0 locations, expected 1",
    ]


def test_violations_dispatch_and_is_feasible(mdkp_tiny, mis_triangle, qap_pair):
    assert is_feasible(mdkp_tiny, (1, 1, 0))
    assert not is_feasible(mis_triangle, (1, 1, 0))
    assert is_feasible(qap_pair, (0, 1, 1, 0))
    with pytest.raises(TypeError, match="unsupported instance type"):
        violations(object(), (0,))


def test_bit_validation_rejects_bad_inputs(mis_triangle):
    with pytest.raises(ValueError, match="must have 3 bits"):
        mis_violations(mis_triangle, (0, 1))
    with pytest.raises(ValueError, match="0/1 valued"):
        mis_violations(mis_triangle, (0, 2, 0))


# ---------------------------------------------------------------------------
# merge penalties
# ---------------------------------------------------------------------------


def supernode_penalty(inst, n_vars: int):
    """Pi on two member lists of Max-Cut nodes of an ``n_vars``-variable model of ``inst``.

    ``make_penalty``'s scorer on summaries built from scratch.
    """
    pi, node_summaries = make_penalty(inst), penalty_summaries(inst, n_vars)
    return lambda a, b: pi(
        summary_from_scratch(node_summaries, a), summary_from_scratch(node_summaries, b)
    )


def test_mdkp_penalty_is_mean_fractional_capacity(mdkp_tiny):
    penalty = supernode_penalty(mdkp_tiny, 3)
    # items 0 and 1 together load 5 of 5
    assert penalty([1], [2]) == pytest.approx(1.0)
    # the reference supernode carries no items, so only item 1 counts
    assert penalty([0], [2]) == pytest.approx(0.6)


def test_mdkp_penalty_averages_over_capacity_rows():
    inst = MdkpInstance(
        n=2,
        m=2,
        profits=np.array([1.0, 1.0]),
        weights=np.array([[2.0, 3.0], [1.0, 1.0]]),
        capacities=np.array([5.0, 4.0]),
    )
    penalty = supernode_penalty(inst, 2)
    assert penalty([1], [2]) == pytest.approx((1.0 + 0.5) / 2)


def test_an_mdkp_instance_without_constraint_rows_has_zero_shares_and_needs_no_repair():
    inst = parse_mdkp("4 0 0\n3 1 4 1\n")
    shares = mdkp_shares(inst)
    assert shares.dtype == np.float64 and shares.tolist() == [0.0] * 4
    report = repair_mdkp(inst, (1, 1, 1, 1))
    assert report.bits.tolist() == [1, 1, 1, 1] and report.iterations == 0


def test_mdkp_penalty_ignores_slack_members(mdkp_tiny):
    penalty = supernode_penalty(mdkp_tiny, 4)  # node 4 is the slack bit after the three items
    assert penalty([2], [4]) == pytest.approx(0.6)
    assert penalty([2, 4], [0]) == penalty([2], [0])


def test_mis_penalty_fires_only_on_cross_edges():
    path = MisInstance(n=3, edges=((0, 1), (1, 2)))
    penalty = supernode_penalty(path, 3)
    assert penalty([1], [2]) == 1.0
    assert penalty([1], [3]) == 0.0


def test_mis_penalty_ignores_conflicts_inside_one_supernode():
    single_edge = MisInstance(n=3, edges=((0, 1),))
    penalty = supernode_penalty(single_edge, 3)
    merged = [1, 2]
    assert penalty(merged, [3]) == 0.0


def test_qap_penalty_detects_shared_facility_or_location(qap_pair):
    # nodes 1..4 are the cells (0, 0), (0, 1), (1, 0) and (1, 1)
    penalty = supernode_penalty(qap_pair, 4)
    assert penalty([1], [2]) == 1.0  # same facility row
    assert penalty([1], [3]) == 1.0  # same location column
    assert penalty([1], [4]) == 0.0
    assert penalty([0], [4]) == 0.0  # the reference holds no cell


@pytest.mark.parametrize(
    "inst, n_vars, joiner, before, after",
    [
        # vertex 0 joins, creating a cross edge to vertex 2
        (
            MisInstance(n=3, edges=((0, 2),)),
            3,
            1,
            0.0,
            1.0,
        ),
        # cell (1, 1) joins, sharing facility row 1 with cell (1, 0)
        (
            QapInstance(n=2, flow=np.zeros((2, 2)), distance=np.zeros((2, 2))),
            4,
            4,
            0.0,
            1.0,
        ),
        # item 0 (weight 2) joins items 1 and 2 (weights 3 and 4), capacity 5
        (
            MdkpInstance(
                n=3,
                m=1,
                profits=np.ones(3),
                weights=np.array([[2.0, 3.0, 4.0]]),
                capacities=np.array([5.0]),
            ),
            3,
            1,
            pytest.approx(7 / 5),
            pytest.approx(9 / 5),
        ),
    ],
    ids=["mis", "qap", "mdkp"],
)
def test_penalty_summaries_refresh_when_members_grow(inst, n_vars, joiner, before, after):
    """Pair (2, 3) is scored, then ``joiner`` is contracted into supernode 2 and the score changes.

    The contraction folds the joiner's summary into supernode 2's. MIS and
    QAP scores are compared exactly; MDKP's item shares 3/5 + 4/5 round
    differently from the load 7/5.
    """
    penalty = make_penalty(inst)
    working = WorkingGraph.from_graph(
        MaxCutGraph(np.zeros((n_vars + 1,) * 2), 0.0), penalty_summaries(inst, n_vars)
    )

    def pair() -> tuple:
        return working.summaries[working.rows(2)[0]], working.summaries[working.rows(3)[0]]

    a, b = pair()
    assert penalty(a, b) == before
    assert penalty(b, a) == before
    working.contract(joiner, 2, -1)
    a, b = pair()
    assert penalty(a, b) == after
    assert penalty(b, a) == after


def test_make_penalty_rejects_unknown_instances():
    with pytest.raises(TypeError, match="unsupported instance type"):
        make_penalty(object())
    with pytest.raises(TypeError, match="unsupported instance type"):
        penalty_summaries(object(), 0)


def test_penalty_summaries_pad_slack_bits_and_reject_too_few_variables(mdkp_tiny):
    parts, _ = penalty_summaries(mdkp_tiny, 5)  # the reference, three items, two slack bits
    assert parts[0] == parts[4] == parts[5] == 0.0 and len(parts) == 6
    with pytest.raises(ValueError, match="mdkp needs at least 3 variables, got 2"):
        penalty_summaries(mdkp_tiny, 2)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_mdkp_drops_the_worst_ratio_item(mdkp_tiny):
    report = repair_mdkp(mdkp_tiny, (1, 1, 1))
    assert report.bits.tolist() == [1, 1, 0]
    assert report.iterations == 1
    assert is_feasible(mdkp_tiny, report.bits)


def test_repair_mdkp_breaks_ratio_ties_toward_the_lowest_index():
    inst = MdkpInstance(
        n=2,
        m=1,
        profits=np.array([2.0, 2.0]),
        weights=np.array([[1.0, 1.0]]),
        capacities=np.array([1.0]),
    )
    report = repair_mdkp(inst, (1, 1))
    assert report.bits.tolist() == [0, 1]
    assert report.iterations == 1


def test_repair_mdkp_leaves_feasible_input_untouched(mdkp_tiny):
    report = repair_mdkp(mdkp_tiny, (0, 1, 0))
    assert report.bits.tolist() == [0, 1, 0]
    assert report.iterations == 0


def test_repair_mis_on_the_five_cycle():
    cycle = MisInstance(n=5, edges=((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
    report = repair_mis(cycle, (1, 1, 1, 1, 1))
    assert report.bits.tolist() == [1, 0, 1, 0, 0]
    assert report.iterations == 3
    assert is_feasible(cycle, report.bits)


def test_repair_mis_drops_the_higher_degree_endpoint_first():
    star = MisInstance(n=4, edges=((0, 1), (0, 2), (0, 3)))
    report = repair_mis(star, (1, 1, 1, 1))
    assert report.bits.tolist() == [0, 1, 1, 1]
    assert report.iterations == 1


def test_repair_qap_keeps_consistent_cells(qap_pair):
    report = repair_qap(qap_pair, (0, 1, 0, 0))
    # the one selected cell (facility 0 at location 1) survives
    assert report.bits.tolist() == [[0, 1], [1, 0]]
    assert report.iterations == 1  # only facility 1's row changed


def test_repair_qap_leaves_permutations_untouched(qap_pair):
    report = repair_qap(qap_pair, (1, 0, 0, 1))
    assert report.bits.tolist() == [[1, 0], [0, 1]]
    assert report.iterations == 0


def test_repair_qap_fills_empty_input_with_the_identity(qap_pair):
    report = repair_qap(qap_pair, (0, 0, 0, 0))
    assert report.bits.tolist() == [[1, 0], [0, 1]]
    assert report.iterations == 2


def test_repair_dispatch(mdkp_tiny, mis_triangle, qap_pair):
    for inst, bits in ((mdkp_tiny, (1, 1, 1)), (mis_triangle, (1, 1, 1)), (qap_pair, (1,) * 4)):
        assert is_feasible(inst, repair(inst, bits).bits)
    with pytest.raises(TypeError, match="unsupported instance type"):
        repair(object(), (0,))


def test_repaired_random_bitstrings_are_always_feasible(mdkp_tiny, mis_triangle, qap_pair):
    rng = np.random.default_rng(99)
    for inst, n_bits in ((mdkp_tiny, 3), (mis_triangle, 3), (qap_pair, 4)):
        for _ in range(100):
            report = repair(inst, rng.integers(0, 2, n_bits))
            assert is_feasible(inst, report.bits.reshape(-1))


# ---------------------------------------------------------------------------
# assignment solver
# ---------------------------------------------------------------------------


def brute_lexicographic_assignment(cost: np.ndarray) -> tuple[int, ...]:
    """Reference: scan permutations in lexicographic order, keep the first optimum."""
    n = cost.shape[0]
    best_perm = None
    best_total = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_total - 1e-9:
            best_total = total
            best_perm = perm
    return best_perm


def test_hungarian_matches_brute_force_with_lexicographic_ties():
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        cost = rng.integers(0, 5, (n, n)).astype(float)
        assert hungarian(cost) == brute_lexicographic_assignment(cost)


def test_hungarian_all_zero_costs_give_the_identity():
    assert hungarian(np.zeros((4, 4))) == (0, 1, 2, 3)


def test_hungarian_handles_trivial_sizes():
    assert hungarian(np.zeros((0, 0))) == ()
    assert hungarian(np.array([[7.0]])) == (0,)


def test_hungarian_rejects_non_square_input():
    with pytest.raises(ValueError, match="square"):
        hungarian(np.zeros((2, 3)))


# Run in a fresh interpreter: this test session has already loaded
# scipy.optimize through the hungarian tests, so an in-process check could
# never see it missing.
_LAZY_SCIPY_SCRIPT = textwrap.dedent(
    """
    import importlib.util, json, sys
    import numpy as np
    import shrinkcut, shrinkcut.cli, shrinkcut.pipeline
    seen = {"import": "scipy.optimize" in sys.modules}
    from shrinkcut import PipelineConfig, load_instance, repair_qap, run_pipeline
    run_pipeline(PipelineConfig(kind="mis", instance=sys.argv[1], stop_mode="k", k=5))
    seen["mis_pipeline"] = "scipy.optimize" in sys.modules
    spec = importlib.util.spec_from_file_location("generate_instances", sys.argv[3])
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.transposition_conflict_graph(6)
    seen["generator"] = "scipy.optimize" in sys.modules
    report = repair_qap(load_instance("qap", sys.argv[2]), np.ones(36, dtype=int))
    seen["qap_repair"] = "scipy.optimize" in sys.modules
    seen["bits"] = np.asarray(report.bits).tolist()
    print(json.dumps(seen))
    """
)


def test_scipy_optimize_loads_only_when_a_qap_repair_needs_it():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_SCRIPT]
        + [
            str(root / "data" / "mis" / "1tc.8.txt"),
            str(root / "data" / "qap" / "rand6.txt"),
            str(root / "scripts" / "generate_instances.py"),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] is False
    assert seen["mis_pipeline"] is False
    assert seen["generator"] is False
    assert seen["qap_repair"] is True
    bits = np.array(seen["bits"])
    assert bits.shape == (6, 6)
    assert bits.sum(axis=0).tolist() == [1] * 6
    assert bits.sum(axis=1).tolist() == [1] * 6
