"""Bench CSVs regenerated and compared byte for byte with committed golden files.

The golden files were written by an earlier revision of the code, so unlike
acceptance criterion 9 (two reruns of the same code) this catches any change
in the pipeline's outputs: target sizes, merges, solver trajectories, repair
and local search. Regenerate a file only for a deliberate output change:

    PYTHONPATH=src python -m shrinkcut.cli bench --instances <the six below> \\
        --backend sa --sweeps 300 --seed 2506 [extra flags] --out tests/data/<file>
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
    ],
)
def test_bench_csv_matches_the_golden_file(data_dir, tmp_path, golden, extra):
    specs = [f"{name.split('/')[0]}:{data_dir / name}.txt" for name in INSTANCES]
    out = tmp_path / golden
    args = ["bench", "--instances", *specs, "--backend", "sa", "--sweeps", "300", "--seed", "2506"]
    assert main(args + extra + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()
