"""Walk Hamiltonians and single-shot transition probabilities.

The generator of both walks is the graph Laplacian: the degree on the
diagonal, -1 on adjacent pairs. For a percolated realization the degree is
counted within the realization, so every realization Hamiltonian is itself
a Laplacian (zero row sums) and the full Hamiltonian is the sum of one
rank-limited term per kept edge.

The hopping rate is 1. A walk with hopping rate gamma, H = gamma * L, is
this walk at step tau' = gamma * tau and time t' = gamma * t: the keep bits
of a step do not depend on its length, so gamma only rescales time.
"""
from __future__ import annotations

import numpy as np

from . import _kernels, spectral
from .graph import Graph, check_mask, mask_to_bits

STATE_NORM_ATOL = 1e-10
DENSITY_ATOL = 1e-10


def hamiltonian(g: Graph, mask: int) -> np.ndarray:
    """Laplacian Hamiltonian of the edges present in the int ``mask`` (edge k is bit k)."""
    check_mask(g, mask)
    bits = mask_to_bits(mask, g.edge_count)
    return _kernels.hamiltonian_from_bits(g.edge_array, bits, g.node_count)


def full_hamiltonian(g: Graph) -> np.ndarray:
    """Hamiltonian of the unpercolated graph (all edges present)."""
    return hamiltonian(g, (1 << g.edge_count) - 1)


def _check_node(g: Graph, a: int, name: str) -> None:
    if not 0 <= a < g.node_count:
        raise ValueError(f"{name}={a} out of range for {g.node_count} nodes")


def transition_probability(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """|<b| exp(-i*H*t) |a>|^2 on the unpercolated graph; t may be an array.

    A time so long that t * w overflows gives a non-finite value, without a
    warning (the CLI refuses to write it, exit 2); so does ``classical_transition``.
    """
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    d = spectral.decompose(full_hamiltonian(g))
    weights = d.eigenvectors[b] * d.eigenvectors[a]
    t_arr = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.exp(-1j * np.multiply.outer(t_arr, d.eigenvalues)) @ weights
    out = np.abs(amps) ** 2
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def classical_transition(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """(exp(-H*t))[b, a] on the unpercolated graph; t may be an array, t >= 0."""
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite and >= 0")
    d = spectral.decompose(full_hamiltonian(g))
    weights = d.eigenvectors[b] * d.eigenvectors[a]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.multiply.outer(t_arr, d.eigenvalues)) @ weights
    out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def basis_state(node_count: int, a: int) -> np.ndarray:
    """Walker localized at node a, as a normalized complex amplitude vector."""
    if not 0 <= a < node_count:
        raise ValueError(f"node {a} out of range for {node_count} nodes")
    psi = np.zeros(node_count, dtype=np.complex128)
    psi[a] = 1.0
    return psi


def basis_density(node_count: int, a: int) -> np.ndarray:
    """|a><a| as a density matrix."""
    psi = basis_state(node_count, a)
    return np.outer(psi, psi.conj())


def check_quantum_state(psi: np.ndarray, atol: float = STATE_NORM_ATOL) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= atol:  # NaN fails too
        raise ValueError(f"state norm {nrm} deviates from 1 by more than {atol}")
    return psi


def check_density_matrix(rho: np.ndarray, atol: float = DENSITY_ATOL) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= atol:
        raise ValueError(f"density matrix not Hermitian: max |rho - rho^H| = {herm:.3e}")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= atol:
        raise ValueError(f"density matrix trace {tr} deviates from 1 by more than {atol}")
    return rho


def check_distribution(p: np.ndarray, atol: float = DENSITY_ATOL) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {p.shape}")
    if not p.min() >= -atol:  # NaN fails too
        raise ValueError(f"distribution has a negative or NaN entry: min {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= atol:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p
