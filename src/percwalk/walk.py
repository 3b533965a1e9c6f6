"""Walk Hamiltonians and the unpercolated transition probabilities.

The generator of both walks is the graph Laplacian: the degree on the
diagonal, -1 on adjacent pairs. For a percolated realization the degree is
counted within the realization, so every realization Hamiltonian is itself
a Laplacian (zero row sums) and the full Hamiltonian is the sum of one
rank-limited term per kept edge. The realization Laplacians of the
percolated walks are built from keep-bit rows in ``_kernels``.

``transition_probability`` and ``classical_transition`` evaluate the
unitary exp(-i*H*t) and the column-stochastic exp(-H*t) of the unpercolated
walk through one ``eigh`` of the full Hamiltonian for many t; going through
the eigenbasis keeps unitarity structural (phases on an orthonormal basis).
Evaluated at time lam * t they are the rescaled-time reference of the walk
percolated with keep probability lam, the column the experiment drivers
write next to each simulated curve.

The hopping rate is 1. A walk with hopping rate gamma, H = gamma * L, is
this walk at step tau' = gamma * tau and time t' = gamma * t: the keep bits
of a step do not depend on its length, so gamma only rescales time.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .graph import Graph

STATE_NORM_ATOL = 1e-10
DENSITY_ATOL = 1e-10


def full_hamiltonian(g: Graph) -> np.ndarray:
    """Hamiltonian of the unpercolated graph (all edges present)."""
    bits = np.ones(g.edge_count, dtype=np.uint8)
    return _kernels.hamiltonian_from_bits(g.edge_array, bits, g.node_count)


def _check_node(g: Graph, a: int, name: str) -> None:
    if not 0 <= a < g.node_count:
        raise ValueError(f"{name}={a} out of range for {g.node_count} nodes")


def _weights_and_spectrum(g: Graph, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(q[b] * q[a], w) of the eigendecomposition H = q diag(w) q^T of the full Hamiltonian."""
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    w, q = np.linalg.eigh(full_hamiltonian(g))
    return q[b] * q[a], w


def transition_probability(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """|<b| exp(-i*H*t) |a>|^2 on the unpercolated graph; t may be an array.

    A time so long that t * w overflows gives a non-finite value, without a
    warning (no CSV is written with it: ``csvio.finite_csv``, CLI exit 2); so
    does ``classical_transition``.
    """
    weights, w = _weights_and_spectrum(g, a, b)
    t_arr = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.exp(-1j * np.multiply.outer(t_arr, w)) @ weights
    out = np.abs(amps) ** 2
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def classical_transition(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """(exp(-H*t))[b, a] on the unpercolated graph; t may be an array, t >= 0."""
    weights, w = _weights_and_spectrum(g, a, b)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite and >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.multiply.outer(t_arr, w)) @ weights
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


def check_quantum_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= STATE_NORM_ATOL:  # NaN fails too
        raise ValueError(f"state norm {nrm} deviates from 1 by more than {STATE_NORM_ATOL}")
    return psi


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= DENSITY_ATOL:
        raise ValueError(f"density matrix not Hermitian: max |rho - rho^H| = {herm:.3e}")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= DENSITY_ATOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1 by more than {DENSITY_ATOL}")
    return rho


def check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {p.shape}")
    if not p.min() >= -DENSITY_ATOL:  # NaN fails too
        raise ValueError(f"distribution has a negative or NaN entry: min {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= DENSITY_ATOL:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p
