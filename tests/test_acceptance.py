"""End-to-end acceptance gate: nine pipeline-level checks, one verdict line each.

Every test prints a single ``PASS criterion N: ...`` / ``FAIL criterion N: ...``
line (visible under captured output) so a full run doubles as a scorecard.
"""

import csv
import io
import itertools
import time

import numpy as np
import pytest

from shrinkcut import (
    MdkpInstance,
    MergeStep,
    MisInstance,
    PipelineConfig,
    ShrinkResult,
    ShrinkStats,
    WorkingGraph,
    binary_to_spins,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    cut_value,
    evaluate_qubo,
    extract_correlations,
    graph_to_qubo,
    hungarian,
    is_feasible,
    laplacian,
    lift_solution,
    load_instance,
    qubo_to_maxcut,
    repair,
    run_bench,
    run_pipeline,
    sdp_objective,
    select_target_size,
    solve_exact,
    solve_maxcut_sdp,
    symmetric_eigenvalues,
)
from shrinkcut.cli import main
from tests.conftest import (
    brute_maxcut_value,
    every_bitstring,
    maxcut_graph,
    random_graph,
    random_qubo,
)


def _verdict(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}", flush=True)


def test_criterion_1_qubo_energy_equals_offset_minus_cut_everywhere(capsys):
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(8101)
        for case in range(100):
            n = 10 if case < 10 else int(rng.integers(1, 11))
            model = random_qubo(rng, n, bound=9)
            graph = qubo_to_maxcut(model)
            for x in every_bitstring(n):
                spins = binary_to_spins(graph, x)
                assert evaluate_qubo(model, x) == graph.offset - cut_value(graph, spins)
        assert time.perf_counter() - start < 10.0
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 1: QUBO energy equals graph offset minus cut value on "
            "every assignment of 100 random models",
        )


def test_criterion_2_random_contractions_lift_losslessly_at_every_size(capsys):
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(8202)
        reference_absorbed = False
        for _ in range(50):
            n = int(rng.integers(3, 11))
            graph = random_graph(rng, n)
            original_model = graph_to_qubo(graph)
            for k in range(n - 1, 1, -1):
                working = WorkingGraph.from_graph(graph)
                steps = []
                while working.n_nodes > k:
                    ids = working.nodes()
                    a, b = rng.choice(len(ids), size=2, replace=False)
                    i, j = ids[int(a)], ids[int(b)]
                    sigma = 1 if rng.random() < 0.5 else -1
                    working.contract(i, j, sigma)
                    steps.append(MergeStep(order=len(steps) + 1, i=i, j=j, sigma=sigma))
                    reference_absorbed = reference_absorbed or i == 0
                    # each live id represents itself with sign +1, every node sits in a
                    # live supernode, and the sizes count those nodes
                    ids = working.ids
                    assert len(working.rep) == len(working.sign) == n
                    assert np.array_equal(working.rep[ids], ids)
                    assert np.all(working.sign[ids] == 1)
                    assert np.all(np.isin(working.rep, ids))
                    label = np.searchsorted(ids, working.rep)
                    assert np.array_equal(working.sizes, np.bincount(label, minlength=len(ids)))
                reduced, node_order = working.to_graph()
                result = ShrinkResult(
                    graph=reduced,
                    node_order=node_order,
                    steps=tuple(steps),
                    label=np.searchsorted(working.ids, working.rep),
                    sign=working.sign,
                    target_k=k,
                    stats=ShrinkStats(
                        merges=len(steps), recalcs=0, sdp_seconds=0.0, shrink_seconds=0.0
                    ),
                )
                reduced_model = graph_to_qubo(reduced)
                best_lifted = np.inf
                for x in every_bitstring(reduced.n_nodes - 1):
                    lifted = lift_solution(result, x, graph)
                    assert lifted.energy == evaluate_qubo(reduced_model, x)
                    assert lifted.energy == evaluate_qubo(original_model, lifted.bits)
                    best_lifted = min(best_lifted, lifted.energy)
                solved = solve_exact(reduced_model)
                assert lift_solution(result, solved.bits, graph).energy == best_lifted
        assert reference_absorbed  # some merge orders swallowed the reference node
        assert time.perf_counter() - start < 30.0
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 2: random contractions lift losslessly at every target "
            "size on 50 graphs, enumerated exhaustively",
        )


def test_criterion_3_relaxation_bounds_exact_cut_and_ascends(capsys):
    ok = False
    try:
        rng = np.random.default_rng(8303)
        for trial in range(30):
            n = int(rng.integers(3, 13))
            graph = random_graph(rng, n)
            vecs = solve_maxcut_sdp(graph, seed=trial)
            assert vecs.sweeps_used < 1000  # stopped by tolerance, not the sweep cap
            history = vecs.objective_history
            assert all(
                later >= earlier - 1e-9 for earlier, later in zip(history, history[1:])
            )
            bound = sdp_objective(graph, extract_correlations(vecs))
            assert bound >= brute_maxcut_value(graph) - 1e-6
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 3: relaxation objective upper-bounds the exact max cut "
            "and never decreases across sweeps on 30 graphs",
        )


def test_criterion_4_infeasible_assignments_cost_strictly_more(
    capsys, mdkp_tiny, mis_triangle, qap_pair
):
    ok = False
    try:
        cases = [
            (mdkp_tiny, build_mdkp_qubo(mdkp_tiny, P=70.0)),
            (mis_triangle, build_mis_qubo(mis_triangle, P=2.0)),
            (qap_pair, build_qap_qubo(qap_pair, P=100.0)),
        ]
        for inst, model in cases:
            energies = {x: evaluate_qubo(model, x) for x in every_bitstring(model.n_vars)}
            feasible = {x: e for x, e in energies.items() if is_feasible(inst, x)}
            assert feasible
            best = min(feasible.values())
            for x, energy in energies.items():
                if x not in feasible:
                    assert energy > best
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 4: every infeasible assignment costs strictly more than "
            "the best feasible one on all three worked models",
        )


def _brute_assignment(cost: np.ndarray) -> tuple[int, ...]:
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


def test_criterion_5_repair_restores_feasibility_and_matches_brute_force(
    capsys, data_dir
):
    ok = False
    try:
        rng = np.random.default_rng(8505)
        profits = rng.integers(1, 10, size=20).astype(float)
        weights = rng.integers(1, 10, size=(3, 20)).astype(float)
        mdkp = MdkpInstance(
            n=20,
            m=3,
            profits=profits,
            weights=weights,
            capacities=np.ceil(0.4 * weights.sum(axis=1)),
        )
        mis = load_instance("mis", str(data_dir / "mis" / "1tc.16.txt"))
        qap = load_instance("qap", str(data_dir / "qap" / "rand6.txt"))
        for inst, width in ((mdkp, 20), (mis, 16), (qap, 36)):
            for _ in range(1000):
                report = repair(inst, rng.integers(0, 2, size=width))
                assert is_feasible(inst, report.bits)

        for trial in range(50):
            size = 6 if trial < 10 else int(rng.integers(1, 7))
            cost = rng.integers(-9, 10, size=(size, size)).astype(float)
            assert hungarian(cost) == _brute_assignment(cost)
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 5: repair restores feasibility for 3000 random "
            "assignments and the assignment solver matches brute force",
        )


def test_criterion_6_reference_runs_hit_target_quality(capsys, data_dir):
    ok = False
    try:
        start = time.perf_counter()
        small = run_pipeline(
            PipelineConfig(
                kind="mis",
                instance=str(data_dir / "mis" / "1tc.8.txt"),
                backend="exact",
                seed=0,
            )
        )
        assert time.perf_counter() - start < 60.0
        assert small.feasible_after
        assert small.final_objective == 4.0
        assert small.rsq_pct == 100.0

        start = time.perf_counter()
        larger = run_pipeline(
            PipelineConfig(
                kind="mis",
                instance=str(data_dir / "mis" / "1tc.16.txt"),
                backend="exact",
                seed=0,
            )
        )
        assert time.perf_counter() - start < 60.0
        assert larger.feasible_after
        assert larger.rsq_pct is not None and larger.rsq_pct >= 87.5

        base = PipelineConfig(
            kind="mdkp", use_slack=True, backend="sa", sa_sweeps=2000, seed=11
        )
        csv_text, failures = run_bench(
            base,
            [("mdkp", str(data_dir / "mdkp" / "synth24x4.txt"))],
            strategies=("2/3", "1/2"),
        )
        assert failures == []
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert [row["FinalSize"] for row in rows] == ["40", "30"]
        for row in rows:
            assert row["InitialSize"] == "60"
            assert row["Feasible"] == "True"
            gap = float(row["Gap_pct"])
            assert np.isfinite(gap) and gap >= 0.0
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 6: bundled MIS runs hit reference quality and the "
            "annealing benchmark keeps fixed-ratio sizes with finite gaps",
        )


def test_criterion_7_constraint_awareness_never_hurts_feasibility(capsys):
    ok = False
    label = (
        "criterion 7: constraint-aware shrinking is at least as feasible "
        "before repair as constraint-blind shrinking"
    )
    try:

        def rate(lam: float) -> float:
            root = np.random.default_rng(20240823)
            feasible = 0
            for trial in range(20):
                n = int(root.integers(8, 17))
                edges = tuple(
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if root.random() < 0.3
                )
                inst = MisInstance(n=n, edges=edges)
                config = PipelineConfig(
                    kind="mis",
                    name=f"trial{trial}",
                    stop_mode="k",
                    k=max(2, n // 4),
                    lam=lam,
                    backend="exact",
                    seed=trial,
                )
                feasible += int(run_pipeline(config, inst=inst).feasible_before_repair)
            return feasible / 20

        aware = rate(1.5)
        blind = rate(0.0)
        label = (
            f"criterion 7: constraint-aware pre-repair feasibility {aware:.2f} "
            f">= constraint-blind {blind:.2f} on 20 shared-seed graphs"
        )
        assert aware >= blind
        ok = True
    finally:
        _verdict(capsys, ok, label)


def test_criterion_8_spectral_size_selection_matches_worked_path(capsys):
    ok = False
    try:
        path = maxcut_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        spectrum = symmetric_eigenvalues(laplacian(path))
        assert spectrum.eigenvalues == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
        assert select_target_size(spectrum, 0.25) == 2
        assert select_target_size(spectrum, 0.9) == 3

        rng = np.random.default_rng(8808)
        for _ in range(100):
            graph = random_graph(rng, int(rng.integers(2, 13)))
            eigs = symmetric_eigenvalues(laplacian(graph)).eigenvalues
            assert np.all(np.diff(np.cumsum(eigs)) >= -1e-9)
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 8: spectral target-size selection matches the worked "
            "path graph and cumulative energies grow monotonically",
        )


def test_criterion_9_bench_csv_reruns_byte_identical(capsys, data_dir, tmp_path):
    ok = False
    try:
        args = [
            "bench",
            "--instances",
            f"mis:{data_dir / 'mis' / '1tc.8.txt'}",
            f"mdkp:{data_dir / 'mdkp' / 'example3x1.txt'}",
            f"qap:{data_dir / 'qap' / 'pair2.txt'}",
            "--strategies",
            "2/3",
            "adaptive",
            "--backend",
            "exact",
            "--seed",
            "20240823",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        payload = first.read_bytes()
        assert payload == second.read_bytes()
        assert len(payload.decode().strip().split("\n")) == 7
        ok = True
    finally:
        _verdict(
            capsys,
            ok,
            "criterion 9: benchmark CSV is byte-identical across reruns with "
            "the same seed",
        )
