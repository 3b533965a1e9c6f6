"""Dense real-symmetric eigendecomposition, checked.

The unpercolated references (``walk.transition_probability`` and
``walk.classical_transition``) evaluate the unitary exp(-i*H*t) of the
quantum walk and the nonnegative column-stochastic exp(-H*t) of the
classical walk through one decomposition for many t. Going through the
eigenbasis keeps unitarity structural (phases on an orthonormal basis).
The percolated walks build their per-step propagators in ``_kernels``
instead: an ``eigh`` per cached realization, a truncated Taylor action, a
truncated Taylor polynomial formed as a matrix from real Horner products,
or Taylor cos/sin series for the exact channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a real symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
