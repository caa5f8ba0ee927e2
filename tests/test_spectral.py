"""Laplacian spectra, the eigenvalue wrapper, and the stopping-size rule."""

import numpy as np
import pytest

from shrinkcut import (
    MaxCutGraph,
    PipelineConfig,
    Spectrum,
    build_model,
    laplacian,
    load_instance,
    qubo_to_maxcut,
    select_target_size,
    symmetric_eigenvalues,
)
from tests.conftest import DATA_DIR, maxcut_graph, random_graph, tc64


def path3() -> MaxCutGraph:
    return maxcut_graph(3, {(0, 1): 1.0, (1, 2): 1.0})


def test_path_laplacian_matrix():
    L = laplacian(path3())
    assert L.tolist() == [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]


def test_path_spectrum_is_zero_one_three():
    spectrum = symmetric_eigenvalues(laplacian(path3()))
    assert spectrum.eigenvalues == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
    assert spectrum.total == pytest.approx(4.0, abs=1e-9)


def test_select_target_size_on_the_path_spectrum():
    spectrum = symmetric_eigenvalues(laplacian(path3()))
    # cumulative fractions are 0, 1/4, 1: alpha 0.25 stops at k=2, 0.9 needs k=3
    assert select_target_size(spectrum, alpha=0.25) == 2
    assert select_target_size(spectrum, alpha=0.9) == 3
    assert select_target_size(spectrum, alpha=0.0) == 1


def test_select_target_size_tolerates_the_last_bit_of_a_lapack_eigenvalue():
    # LAPACK can return lambda_2 of the path as 1 - 2**-52, so the cumulative
    # fraction after two eigenvalues falls just short of exactly 1/4
    eigenvalues = np.linalg.eigvalsh(laplacian(path3()))
    spectrum = Spectrum(eigenvalues=eigenvalues, total=float(np.sum(eigenvalues)))
    assert select_target_size(spectrum, alpha=0.25) == 2
    # a smallest eigenvalue rounded below 0 still leaves k = 1 at alpha = 0
    noisy = Spectrum(eigenvalues=np.array([-1e-14, 1.0, 3.0]), total=4.0 - 1e-14)
    assert select_target_size(noisy, alpha=0.0) == 1


@pytest.mark.parametrize(
    "kind, load",
    [("mis", tc64), ("mdkp", lambda: load_instance("mdkp", DATA_DIR / "mdkp/synth24x4.txt"))],
    ids=["1tc.64", "synth24x4"],
)
def test_alpha_zero_keeps_one_node_despite_a_slightly_negative_smallest_eigenvalue(kind, load):
    # LAPACK puts lambda_1 of these Laplacians just below 0 (about -1e-14, -9e-11)
    graph = qubo_to_maxcut(build_model(load(), PipelineConfig(kind=kind, use_slack=True)))
    spectrum = symmetric_eigenvalues(laplacian(graph))
    assert select_target_size(spectrum, alpha=0.0) == 1


def test_eigenvalues_satisfy_the_trace_and_frobenius_identities():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2.0
        eigenvalues = symmetric_eigenvalues(M).eigenvalues
        assert np.sum(eigenvalues) == pytest.approx(np.trace(M), abs=1e-9)
        assert np.sum(eigenvalues**2) == pytest.approx(np.sum(M * M), rel=1e-9)


def test_jacobi_handles_already_diagonal_matrices():
    spectrum = symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert spectrum.eigenvalues.tolist() == [-1.0, 2.0, 3.0]


def test_jacobi_rejects_non_symmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_absolute_weight_mode_keeps_the_laplacian_psd():
    graph = maxcut_graph(2, {(0, 1): -2.0})
    absolute = symmetric_eigenvalues(laplacian(graph, weight_mode="absolute"))
    assert absolute.eigenvalues == pytest.approx([0.0, 4.0], abs=1e-9)
    raw = symmetric_eigenvalues(laplacian(graph, weight_mode="raw"))
    assert raw.eigenvalues == pytest.approx([-4.0, 0.0], abs=1e-9)
    # the raw total is non-positive, so the rule declines to shrink at all
    assert select_target_size(raw, alpha=0.5) == 2


def test_absolute_laplacians_of_random_graphs_are_psd():
    rng = np.random.default_rng(29)
    for _ in range(20):
        graph = random_graph(rng, int(rng.integers(2, 10)))
        spectrum = symmetric_eigenvalues(laplacian(graph))
        assert spectrum.eigenvalues[0] >= -1e-8


def test_cumulative_energy_fraction_is_monotone_in_k():
    rng = np.random.default_rng(37)
    for _ in range(20):
        graph = random_graph(rng, int(rng.integers(2, 10)))
        spectrum = symmetric_eigenvalues(laplacian(graph))
        if spectrum.total <= 0:
            continue
        fractions = np.cumsum(spectrum.eigenvalues) / spectrum.total
        assert np.all(np.diff(fractions) >= -1e-9)


def test_descending_order_reaches_alpha_with_fewer_nodes():
    spectrum = symmetric_eigenvalues(laplacian(path3()))
    # from the top: 3/4 >= 0.7 already at k=1
    assert select_target_size(spectrum, alpha=0.7, order="descending") == 1
    assert select_target_size(spectrum, alpha=0.7, order="ascending") == 3


def test_select_target_size_validates_inputs():
    spectrum = symmetric_eigenvalues(laplacian(path3()))
    with pytest.raises(ValueError, match="alpha"):
        select_target_size(spectrum, alpha=1.5)
    with pytest.raises(ValueError, match="order"):
        select_target_size(spectrum, alpha=0.5, order="up")
    with pytest.raises(ValueError, match="empty"):
        select_target_size(Spectrum(eigenvalues=np.array([]), total=0.0), alpha=0.5)


def test_spectrum_validates_sorting_and_total():
    with pytest.raises(ValueError, match="ascending"):
        Spectrum(eigenvalues=np.array([2.0, 1.0]), total=3.0)
    with pytest.raises(ValueError, match="does not match"):
        Spectrum(eigenvalues=np.array([1.0, 2.0]), total=5.0)
