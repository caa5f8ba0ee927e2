"""Graph Laplacian spectra and the spectral-energy stopping size.

The stopping rule keeps k nodes where k is the smallest count whose
cumulative eigenvalue mass reaches a fraction alpha of the total:

    Energy_k = (lambda_1 + ... + lambda_k) / (lambda_1 + ... + lambda_n)

with eigenvalues sorted ascending by default. Post-contraction edge weights
can be negative, so the Laplacian uses absolute weights by default to stay
positive semidefinite. Eigenvalues come from LAPACK (``np.linalg.eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxcut import MaxCutGraph
from .qubo import require_choice, require_number


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a symmetric matrix, sorted ascending."""

    eigenvalues: np.ndarray
    total: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        s = float(np.sum(self.eigenvalues))
        if abs(s - self.total) > 1e-8 * max(1.0, abs(s)):
            raise ValueError(f"total {self.total} does not match eigenvalue sum {s}")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def laplacian(graph: MaxCutGraph, weight_mode: str = "absolute") -> np.ndarray:
    """L = diag(A 1) - A where A uses |w| ("absolute", default) or w ("raw")."""
    require_choice("weight_mode", weight_mode, ("absolute", "raw"))
    A = np.abs(graph.weights) if weight_mode == "absolute" else graph.weights
    return np.diag(A.sum(axis=1)) - A


def symmetric_eigenvalues(M: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix (LAPACK via ``np.linalg.eigvalsh``)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if n > 0 and float(np.max(np.abs(M - M.T))) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    eigenvalues = np.linalg.eigvalsh(M)
    return Spectrum(eigenvalues=eigenvalues, total=float(np.sum(eigenvalues)))


def select_target_size(spectrum: Spectrum, alpha: float, order: str = "ascending") -> int:
    """Smallest k whose cumulative eigenvalue fraction reaches alpha.

    ``order`` chooses whether the cumulative sum starts from the smallest
    ("ascending", default) or largest ("descending") eigenvalues. A zero
    (or non-positive) total yields k = n. The threshold alpha * total gets a
    slack of 1e-12 * total, so an exact fraction such as 1/4 on the path
    graph is not missed by the last bit of a LAPACK eigenvalue, and alpha = 0
    gives k = 1 even when rounding puts the smallest eigenvalue just below 0.
    """
    require_number("alpha", alpha, 0, 1)
    require_choice("order", order, ("ascending", "descending"))
    n = spectrum.n
    if n == 0:
        raise ValueError("spectrum is empty")
    if spectrum.total <= 0.0:
        return n
    values = spectrum.eigenvalues if order == "ascending" else spectrum.eigenvalues[::-1]
    reached = np.cumsum(values) >= (alpha - 1e-12) * spectrum.total
    return int(np.argmax(reached)) + 1 if reached.any() else n
