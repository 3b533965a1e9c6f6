"""Dense real-symmetric eigendecomposition and the exponentials built on it.

The unpercolated references (``walk.transition_probability`` and
``walk.classical_transition``) evaluate the unitary exp(-i*H*t) of the
quantum walk and the nonnegative column-stochastic exp(-H*t) of the
classical walk through one decomposition for many t. Going through the
eigenbasis keeps unitarity structural (phases on an orthonormal basis).
The percolated walks build their per-step propagators in ``_kernels``
instead: an ``eigh`` per cached realization, a truncated Taylor action, or
Taylor cos/sin series for the exact channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_ATOL = 1e-12
LAPLACIAN_EIG_FLOOR = -1e-9
STOCHASTIC_ENTRY_FLOOR = -1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a real symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def decompose(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix (LAPACK, ascending eigenvalues).

    Raises ValueError for non-square, non-finite or asymmetric input and
    numpy.linalg.LinAlgError if the solver fails to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric: max |a - a.T| = {asym:.3e}")
    w, q = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=q)


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """Q diag(w) Q^T, for round-trip checks."""
    return (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T


def unitary_exp(d: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-i*A*t) = Q exp(-i*w*t) Q^T as a dense complex matrix."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    phases = np.exp(-1j * t * d.eigenvalues)
    return (d.eigenvectors * phases) @ d.eigenvectors.T


def stochastic_exp(d: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-A*t) for a graph Laplacian decomposition, t >= 0.

    Columns sum to 1; round-off negatives (all above -1e-10) are clamped to
    zero on read-out.
    """
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if d.eigenvalues[0] < LAPLACIAN_EIG_FLOOR:
        raise ValueError(
            f"not a Laplacian decomposition: min eigenvalue {d.eigenvalues[0]:.3e} < {LAPLACIAN_EIG_FLOOR}"
        )
    m = (d.eigenvectors * np.exp(-t * d.eigenvalues)) @ d.eigenvectors.T
    low = m.min()
    if low < STOCHASTIC_ENTRY_FLOOR:
        raise np.linalg.LinAlgError(
            f"stochastic exponential produced entry {low:.3e} below {STOCHASTIC_ENTRY_FLOOR}"
        )
    return np.maximum(m, 0.0)
