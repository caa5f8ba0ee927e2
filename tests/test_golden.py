"""Bench CSVs and shrink merge logs regenerated and compared byte for byte with golden files.

The golden files were written by an earlier revision of the code, so unlike
acceptance criterion 9 (two reruns of the same code) this catches any change
in the pipeline's outputs: target sizes, merges, solver trajectories, repair
and local search. The merge logs pin every contraction (order, pair and sign)
and the reduced graph of one ``shrink`` run per recalculation policy, plus
MIS runs on 1tc.128 and 1tc.256 (generated by ``scripts/generate_instances.py``,
not bundled), where the merge penalty dominates the shrink time.
Regenerate a file only for a deliberate output change:

    PYTHONPATH=src python -m shrinkcut.cli bench --instances <the six below> \\
        --backend sa --sweeps 300 --seed 2506 [extra flags] --out tests/data/<file>
    PYTHONPATH=src python -m shrinkcut.cli shrink --kind <kind> --instance data/<path> \\
        <flags below> --seed 1 --steps-out tests/data/<stem>.steps.jsonl \\
        --out tests/data/<stem>.graph.json

For 1tc.128, first write ``serialize_mis_edgelist(transposition_conflict_graph(7))``
to a file and pass it as ``--instance`` with ``--k 65 --recalc fixed``; for
1tc.256, ``transposition_conflict_graph(8)`` with ``--k 129 --recalc fixed``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shrinkcut import serialize_mis_edgelist
from shrinkcut.cli import main
from tests.conftest import transposition_conflict_graph

GOLDEN_DIR = Path(__file__).resolve().parent / "data"
ROOT = GOLDEN_DIR.parent.parent
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
    assert_shrink_matches_the_golden_files(tmp_path, stem, kind, data_dir / f"{path}.txt", flags)


def test_shrink_merge_log_on_1tc128_matches_the_golden_file(tmp_path):
    instance = tmp_path / "1tc.128.txt"
    instance.write_text(serialize_mis_edgelist(transposition_conflict_graph(7)))
    stem, flags = "shrink_mis_1tc128_fixed", ["--k", "65", "--recalc", "fixed"]
    assert_shrink_matches_the_golden_files(tmp_path, stem, "mis", instance, flags)


def test_shrink_merge_log_on_1tc256_matches_the_golden_file(tmp_path):
    instance = tmp_path / "1tc.256.txt"
    instance.write_text(serialize_mis_edgelist(transposition_conflict_graph(8)))
    stem, flags = "shrink_mis_1tc256_fixed", ["--k", "129", "--recalc", "fixed"]
    assert_shrink_matches_the_golden_files(tmp_path, stem, "mis", instance, flags)


def assert_shrink_matches_the_golden_files(tmp_path, stem, kind, instance, flags):
    steps, graph = tmp_path / f"{stem}.steps.jsonl", tmp_path / f"{stem}.graph.json"
    args = ["shrink", "--kind", kind, "--instance", str(instance), *flags]
    assert main(args + ["--seed", "1", "--steps-out", str(steps), "--out", str(graph)]) == 0
    assert steps.read_bytes() == (GOLDEN_DIR / steps.name).read_bytes()
    assert graph.read_bytes() == (GOLDEN_DIR / graph.name).read_bytes()


def _openblas_on_an_avx2_cpu() -> bool:
    """numpy runs on OpenBLAS, and the CPU can run its Haswell (AVX2) kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return False
    cpuinfo = Path("/proc/cpuinfo")
    return "openblas" in blas.lower() and cpuinfo.exists() and "avx2" in cpuinfo.read_text().split()


@pytest.mark.skipif(not _openblas_on_an_avx2_cpu(), reason="needs numpy on OpenBLAS and an AVX2 CPU")
@pytest.mark.parametrize("core", ["Haswell", "Prescott", "Zen", "Sandybridge"])
def test_golden_shrinks_match_under_other_openblas_cores(core):
    """The six golden shrinks, rerun with OpenBLAS forced onto another kernel family.

    Many merge candidates tie in exact arithmetic (1tc graphs are
    vertex-transitive), so the last bit of a BLAS product can move a score;
    ``select_merge`` treats scores within 1e-12 of the best as ties, so that
    such a bit cannot pick the winner. CI runners differ from the machine
    that wrote the golden files. ``OPENBLAS_CORETYPE`` acts only on the child
    process.
    """
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "shrink_merge_log"],
        cwd=ROOT,
        env={**os.environ, "OPENBLAS_CORETYPE": core},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert "6 passed" in run.stdout
