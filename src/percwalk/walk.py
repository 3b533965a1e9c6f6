"""Walk Hamiltonians and the unpercolated transition probabilities.

The generator of both walks is the graph Laplacian: the degree on the
diagonal, -1 on adjacent pairs. For a percolated realization the degree is
counted within the realization, so every realization Hamiltonian is itself
a Laplacian (zero row sums) and the full Hamiltonian is the sum of one
rank-limited term per kept edge. The realization Laplacians of the
percolated walks are built from keep-bit rows in ``_kernels``.

``transition_probability`` and ``classical_transition`` evaluate the
unitary exp(-i*H*t) and the column-stochastic exp(-H*t) of the unpercolated
walk at many t by one of two routes, picked from their own inputs before
anything is planned or run:

* Taylor action: the start basis state is carried from one time to the
  next, each gap as ``_kernels.taylor_plan``'s substeps of a truncated
  Taylor series of its order, so every substep's tail is at most 2^-53 of
  the state's norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011).
  The real H acts on the (n, 2) float view of a quantum state and the
  factor z^k / k! of each term goes into the series' coefficients, so no
  complex n x n array is formed. It takes a 1-d nondecreasing array of
  times from 0 on whose matvecs, substeps x order summed over the gaps,
  number fewer than the n nodes (``_action_plans``); a gap whose
  substeps alone reach what is left of that count goes to ``eigh`` before
  it is planned, so an infinite or oversized plan is never made. On
  lattice2d:10x10 (the Monte Carlo run's 4 records, 3 gaps of order 8)
  it is within 8.9e-16 of the ``eigh`` route and takes 0.22 ms against
  0.86 ms, the Laplacian build included on both sides (best of 50 in
  process, one BLAS thread, 2-vCPU Xeon, OpenBLAS 0.3.31).
* eigenpairs: every other call, scalar and 0-d times included, takes one
  ``eigh`` of the full Hamiltonian for all t; going through the eigenbasis
  keeps unitarity structural (phases on an orthonormal basis).

Evaluated at time lam * t they are the rescaled-time reference of the walk
percolated with keep probability lam, the column the experiment drivers
write next to each simulated curve.

The hopping rate is 1. A walk with hopping rate gamma, H = gamma * L, is
this walk at step tau' = gamma * tau and time t' = gamma * t: the keep bits
of a step do not depend on its length, so gamma only rescales time.
"""
from __future__ import annotations

from functools import partial

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
    w, q = np.linalg.eigh(full_hamiltonian(g))
    return q[b] * q[a], w


def _action_plans(g: Graph, t: np.ndarray) -> dict | None:
    """{gap: (substeps, order)} of the Taylor action over the times t, or None where ``eigh`` takes them.

    The action takes a 1-d nondecreasing array from 0 on (the first gap runs
    from 0 to t[0]) whose matvecs, substeps * order over all gaps, number
    fewer than the nodes. A gap is priced first by the bound x = 2 gap maxdeg
    of ``taylor_plan``: at least ceil(x) substeps, each of order 1 or more
    once x >= 1, so a gap whose x reaches what is left of the count (an
    infinite x too) gives None before it is planned. A zero gap costs
    nothing and is not planned.
    """
    if t.ndim != 1:
        return None
    gaps = np.diff(t, prepend=0.0)
    if not np.all(gaps >= 0):  # NaN fails too
        return None
    edges, n = g.edge_array, g.node_count
    maxdeg = _kernels._max_degree(edges, n)
    plans, left = {}, n  # left: matvecs below which the action is still cheaper
    for gap in gaps[gaps > 0].tolist():
        if gap not in plans:
            if not 2.0 * gap * maxdeg < left:
                return None
            plans[gap] = _kernels.taylor_plan(edges, n, gap)
        substeps, order = plans[gap]
        left -= substeps * order
        if left <= 0:
            return None
    return plans


def _action_amplitudes(g: Graph, a: int, b: int, t: np.ndarray, plans: dict, z: complex) -> np.ndarray:
    """(exp(z H t_k))[b, a] at each time t_k by the Taylor action, z = -1j or -1.

    The state exp(z H t_k) e_a is carried from each time to the next over
    the gap's ``plans`` entry; a zero gap leaves it as it is. The series of a
    substep of length gap / s sums c_k H^k x, c_k = (z gap / s)^k / k!, with
    the real H applied to the float view of x (``_kernels._taylor_series``).
    """
    n = g.node_count
    h = full_hamiltonian(g)
    dtype = np.result_type(z, np.float64)
    terms = np.empty((max((order for _, order in plans.values()), default=0) + 1, n), dtype)
    x = np.zeros(n, dtype)
    x[a] = 1.0
    gaps = np.diff(t, prepend=0.0)
    moved = gaps > 0
    out = np.empty(np.count_nonzero(moved) + 1, dtype)  # the amplitude before each move and after it
    out[0] = x[b]
    # the state and the terms as the real arrays that H acts on: (n, 2) for a complex state
    real = (lambda v: v.view(np.float64).reshape(n, 2)) if dtype == np.complex128 else (lambda v: v)
    state = real(x)
    for k, gap in enumerate(gaps[moved].tolist(), 1):
        substeps, order = plans[gap]
        flat = terms[:order + 1]
        rows = [real(row) for row in flat]
        coef_dot = (_kernels._taylor_coef(order, dtype) * (z * gap / substeps) ** np.arange(order + 1)).dot
        for _ in range(substeps):
            rows[0][...] = state
            _kernels._taylor_series(partial(np.matmul, h), rows, coef_dot, flat, x)
        out[k] = x[b]
    return out[np.cumsum(moved)]


def _transition(g: Graph, a: int, b: int, t, z: complex) -> np.ndarray:
    """(exp(z H t))[b, a] at the times t (an array of their shape), by the route their plan picks."""
    t_arr = np.asarray(t, dtype=np.float64)
    plans = _action_plans(g, t_arr)
    if plans is not None:
        return _action_amplitudes(g, a, b, t_arr, plans, z)
    weights, w = _weights_and_spectrum(g, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(z * np.multiply.outer(t_arr, w)) @ weights


def transition_probability(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """|<b| exp(-i*H*t) |a>|^2 on the unpercolated graph; t may be an array.

    A time so long that t * w overflows gives a non-finite value, without a
    warning (no CSV is written with it: ``csvio.finite_csv``, CLI exit 2); so
    does ``classical_transition``.
    """
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    out = np.abs(_transition(g, a, b, t, -1j)) ** 2
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


def classical_transition(g: Graph, a: int, b: int, t: float | np.ndarray) -> float | np.ndarray:
    """(exp(-H*t))[b, a] on the unpercolated graph; t may be an array, t >= 0."""
    _check_node(g, a, "a")
    _check_node(g, b, "b")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite and >= 0")
    out = np.maximum(_transition(g, a, b, t_arr, -1.0), 0.0)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


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


def check_density_spectrum(eigenvalues: np.ndarray) -> None:
    """Refuse the eigenvalues of a density matrix whose smallest lies below -DENSITY_ATOL.

    Such a matrix is not positive semidefinite, so it is not a state: its
    diagonal would give negative site probabilities.
    """
    low = eigenvalues.min()
    if not low >= -DENSITY_ATOL:
        raise ValueError(
            f"density matrix not positive semidefinite: min eigenvalue {low:.3e} < -{DENSITY_ATOL:g}"
        )


def check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {p.shape}")
    if not p.min() >= -DENSITY_ATOL:  # NaN fails too
        raise ValueError(f"distribution has a negative or NaN entry: min {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= DENSITY_ATOL:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p
