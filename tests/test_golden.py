"""Bench CSVs and shrink merge logs regenerated and compared byte for byte with golden files.

The golden files were written by an earlier revision of the code, so unlike
acceptance criterion 9 (two reruns of the same code) this catches any change
in the pipeline's outputs: target sizes, merges, solver trajectories, repair
and local search. The merge logs pin every contraction (order, pair and sign)
and the reduced graph of one ``shrink`` run per recalculation policy.
Regenerate a file only for a deliberate output change:

    PYTHONPATH=src python -m shrinkcut.cli bench --instances <the six below> \\
        --backend sa --sweeps 300 --seed 2506 [extra flags] --out tests/data/<file>
    PYTHONPATH=src python -m shrinkcut.cli shrink --kind <kind> --instance data/<path> \\
        <flags below> --seed 1 --steps-out tests/data/<stem>.steps.jsonl \\
        --out tests/data/<stem>.graph.json
"""

from pathlib import Path

import pytest

from shrinkcut.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data"
INSTANCES = (
    "mdkp/example3x1",
    "mdkp/synth24x4",
    "mis/1tc.8",
    "mis/1tc.16",
    "qap/pair2",
    "qap/rand6",
)


@pytest.mark.parametrize(
    "golden, extra",
    [
        ("bench_golden.csv", []),
        ("bench_golden_descending_tau.csv", ["--energy-order", "descending", "--recalc", "tau"]),
        ("bench_golden_delta.csv", ["--recalc", "delta"]),
        ("bench_golden_local.csv", ["--recalc", "local"]),
    ],
)
def test_bench_csv_matches_the_golden_file(data_dir, tmp_path, golden, extra):
    specs = [f"{name.split('/')[0]}:{data_dir / name}.txt" for name in INSTANCES]
    out = tmp_path / golden
    args = ["bench", "--instances", *specs, "--backend", "sa", "--sweeps", "300", "--seed", "2506"]
    assert main(args + extra + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize(
    "stem, kind, path, flags",
    [
        (
            "shrink_mdkp_synth24x4_local",
            "mdkp",
            "mdkp/synth24x4",
            ["--use-slack", "--k", "21", "--recalc", "local"],
        ),
        (
            "shrink_mdkp_synth24x4_tau",
            "mdkp",
            "mdkp/synth24x4",
            ["--use-slack", "--k", "31", "--recalc", "tau"],
        ),
        ("shrink_mis_1tc16_fixed", "mis", "mis/1tc.16", ["--k", "9", "--recalc", "fixed", "--r", "3"]),
        ("shrink_qap_rand6_delta", "qap", "qap/rand6", ["--k", "19", "--recalc", "delta"]),
    ],
)
def test_shrink_merge_log_matches_the_golden_file(data_dir, tmp_path, stem, kind, path, flags):
    steps, graph = tmp_path / f"{stem}.steps.jsonl", tmp_path / f"{stem}.graph.json"
    args = ["shrink", "--kind", kind, "--instance", str(data_dir / f"{path}.txt"), *flags]
    assert main(args + ["--seed", "1", "--steps-out", str(steps), "--out", str(graph)]) == 0
    assert steps.read_bytes() == (GOLDEN_DIR / steps.name).read_bytes()
    assert graph.read_bytes() == (GOLDEN_DIR / graph.name).read_bytes()
