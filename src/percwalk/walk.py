"""Walk Hamiltonians and single-shot transition probabilities.

The generator of both walks is the graph Laplacian scaled by the hopping
rate gamma: gamma*degree on the diagonal, -gamma on adjacent pairs. For a
percolated realization the degree is counted within the realization, so
every realization Hamiltonian is itself a Laplacian (zero row sums) and the
full Hamiltonian is the sum of one rank-limited term per kept edge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral
from .graph import Graph, check_mask, mask_to_bits

STATE_NORM_ATOL = 1e-10
DENSITY_ATOL = 1e-10


@dataclass(frozen=True)
class WalkConfig:
    """Hopping rate of the walk; gamma only rescales time, default 1."""

    gamma: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def hamiltonian(g: Graph, mask: int, cfg: WalkConfig | None = None) -> np.ndarray:
    """Laplacian Hamiltonian of the edges present in the int ``mask`` (edge k is bit k)."""
    cfg = cfg or WalkConfig()
    check_mask(g, mask)
    bits = mask_to_bits(mask, g.edge_count)
    return _kernels.hamiltonian_from_bits(g.edge_array, bits, cfg.gamma, g.node_count)


def full_hamiltonian(g: Graph, cfg: WalkConfig | None = None) -> np.ndarray:
    """Hamiltonian of the unpercolated graph (all edges present)."""
    return hamiltonian(g, (1 << g.edge_count) - 1, cfg)


def _check_node(g: Graph, a: int, name: str) -> None:
    if not 0 <= a < g.node_count:
        raise ValueError(f"{name}={a} out of range for {g.node_count} nodes")


def transition_probability(
    g: Graph, cfg: WalkConfig | None, a: int, b: int, t: float | np.ndarray
) -> float | np.ndarray:
    """|<b| exp(-i*H*t) |a>|^2 on the unpercolated graph; t may be an array.

    A time so long that t * w overflows gives a non-finite value, without a
    warning (the CLI refuses to write it, exit 2); so does ``classical_transition``.
    """
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    d = spectral.decompose(full_hamiltonian(g, cfg))
    weights = d.eigenvectors[b] * d.eigenvectors[a]
    t_arr = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.exp(-1j * np.multiply.outer(t_arr, d.eigenvalues)) @ weights
    out = np.abs(amps) ** 2
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def classical_transition(
    g: Graph, cfg: WalkConfig | None, a: int, b: int, t: float | np.ndarray
) -> float | np.ndarray:
    """(exp(-H*t))[b, a] on the unpercolated graph; t may be an array, t >= 0."""
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite and >= 0")
    d = spectral.decompose(full_hamiltonian(g, cfg))
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
    if abs(nrm - 1.0) > atol:
        raise ValueError(f"state norm {nrm} deviates from 1 by more than {atol}")
    return psi


def check_density_matrix(rho: np.ndarray, atol: float = DENSITY_ATOL) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol:
        raise ValueError(f"density matrix not Hermitian: max |rho - rho^H| = {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace {tr} deviates from 1 by more than {atol}")
    return rho


def check_distribution(p: np.ndarray, atol: float = DENSITY_ATOL) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {p.shape}")
    if p.min() < -atol:
        raise ValueError(f"distribution has negative entry {p.min():.3e}")
    if abs(p.sum() - 1.0) > atol:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p
