"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's spectral/dynamics code
paths: Hamiltonians are rebuilt from adjacency tables and exponentials go
through scipy's Pade-based expm, so agreement is a genuine cross-check.
"""
from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg


def reference_laplacian(node_count: int, edges, mask: int, gamma: float = 1.0) -> np.ndarray:
    """Laplacian of the masked edge subset, built via an adjacency table."""
    adj = np.zeros((node_count, node_count))
    for k, (u, v) in enumerate(edges):
        if (mask >> k) & 1:
            adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    return gamma * (np.diag(deg) - adj)


def enumerate_realizations(g, lam: float):
    """Yield (mask, probability) for each of the 2^E edge subsets of g; bit k of mask keeps edge k."""
    n_edges = g.edge_count
    for mask in range(1 << n_edges):
        k = bin(mask).count("1")
        yield mask, lam**k * (1 - lam) ** (n_edges - k)


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * h * t)


def expm_stochastic(h: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-h * t)


def expm_channel_gram(node_count: int, edges, lam: float, tau: float, gamma: float = 1.0) -> np.ndarray:
    """sum over all 2^E masks of p_mask outer(conj(u), u), u = expm(-i tau H_mask) row-flattened.

    Entry [(i, j), (k, l)] is sum_r p_r conj(U_r)[i, j] U_r[k, l].
    """
    n_edges = len(edges)
    acc = np.zeros((node_count**2, node_count**2), dtype=complex)
    for mask in range(1 << n_edges):
        k = bin(mask).count("1")
        p = lam**k * (1 - lam) ** (n_edges - k)
        u = expm_unitary(reference_laplacian(node_count, edges, mask, gamma), tau).ravel()
        acc += p * np.outer(u.conj(), u)
    return acc


def brute_force_channel_average(
    node_count: int, edges, lam: float, tau: float, steps: int, rho0: np.ndarray, gamma: float = 1.0
) -> np.ndarray:
    """Exhaustive average over all (2^E)^steps realization sequences."""
    n_edges = len(edges)
    us = []
    ps = []
    for mask in range(1 << n_edges):
        h = reference_laplacian(node_count, edges, mask, gamma)
        us.append(expm_unitary(h, tau))
        k = bin(mask).count("1")
        ps.append(lam**k * (1 - lam) ** (n_edges - k))
    acc = np.zeros_like(rho0, dtype=complex)
    for seq in itertools.product(range(1 << n_edges), repeat=steps):
        weight = np.prod([ps[r] for r in seq])
        u = np.eye(node_count, dtype=complex)
        for r in seq:
            u = us[r] @ u
        acc += weight * (u @ rho0 @ u.conj().T)
    return acc


def count_lattice_edges(width: int, height: int) -> int:
    """Nearest-neighbor pair count by brute force over all node pairs."""
    coords = [(c, r) for r in range(height) for c in range(width)]
    count = 0
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            dx = abs(coords[i][0] - coords[j][0])
            dy = abs(coords[i][1] - coords[j][1])
            if dx + dy == 1:
                count += 1
    return count
