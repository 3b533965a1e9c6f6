"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's walk/dynamics code
paths: Hamiltonians are rebuilt from adjacency tables and exponentials go
through scipy's Pade-based expm, so agreement is a genuine cross-check.
The exceptions are the last two sections. The first holds a checked
real-symmetric eigendecomposition (``decompose``), the spectral
exponentials built on it and a channel application, which only tests use.
The second holds per-step loops that call the same propagators as
``_kernels``, against which its kernels must be bit-identical.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from percwalk import _kernels
from percwalk.graph import Graph


def reference_laplacian(node_count: int, edges, mask: int) -> np.ndarray:
    """Laplacian of the masked edge subset, built via an adjacency table."""
    adj = np.zeros((node_count, node_count))
    for k, (u, v) in enumerate(edges):
        if (mask >> k) & 1:
            adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    return np.diag(deg) - adj


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


def expm_channel_gram(node_count: int, edges, lam: float, tau: float) -> np.ndarray:
    """sum over all 2^E masks of p_mask outer(conj(u), u), u = expm(-i tau H_mask) row-flattened.

    Entry [(i, j), (k, l)] is sum_r p_r conj(U_r)[i, j] U_r[k, l].
    """
    n_edges = len(edges)
    acc = np.zeros((node_count**2, node_count**2), dtype=complex)
    for mask in range(1 << n_edges):
        k = bin(mask).count("1")
        p = lam**k * (1 - lam) ** (n_edges - k)
        u = expm_unitary(reference_laplacian(node_count, edges, mask), tau).ravel()
        acc += p * np.outer(u.conj(), u)
    return acc


def brute_force_channel_average(
    node_count: int, edges, lam: float, tau: float, steps: int, rho0: np.ndarray
) -> np.ndarray:
    """Exhaustive average over all (2^E)^steps realization sequences."""
    n_edges = len(edges)
    us = []
    ps = []
    for mask in range(1 << n_edges):
        h = reference_laplacian(node_count, edges, mask)
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


def reference_automorphisms(edges: np.ndarray, n: int, limit: int) -> np.ndarray:
    """``_kernels._automorphisms`` on boolean numpy tables: same node order, narrowing and output.

    Backtracking assigns the non-isolated nodes in breadth-first order. Row
    w of the candidate table ``cand`` marks the images still open to node
    w: nodes of w's degree that are adjacent to the image of every assigned
    node u exactly when w is adjacent to u. Isolated nodes stay fixed, the
    identity branch is searched first, and more than ``limit`` permutations
    return the identity alone.
    """
    identity = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    deg = adj.sum(axis=1)
    order, seen, head = [], deg == 0, 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):  # breadth first through the component of root
            new = np.flatnonzero(adj[order[head]] & ~seen)
            seen[new] = True
            order.extend(new.tolist())
            head += 1
    perm, used, found = identity.copy(), deg == 0, []

    def extend(k: int, cand: np.ndarray) -> bool:  # True once more than ``limit`` were found
        if k == len(order):
            found.append(perm.copy())
            return len(found) > limit
        v = order[k]
        images = np.flatnonzero(cand[v] & ~used).tolist()
        if v in images:
            images.remove(v)
            images.insert(0, v)
        for c in images:
            perm[v], used[c] = c, True
            stop = extend(k + 1, cand & (adj[v][:, None] == adj[c]))
            used[c] = False
            if stop:
                return True
        return False

    if extend(0, deg[:, None] == deg):
        return identity[None]
    return np.array(found)


def reference_orbit_representatives(edges: np.ndarray, perms: np.ndarray, lam: float):
    """(bits, weights) of the orbit representatives of positive weight, by a float64 scan of every mask.

    The image of mask r under g, sum_e bit_e 2^pi_g(e) with pi_g(e) the
    index of the edge {g(u_e), g(v_e)}, is a float64 GEMM of all 2^E masks
    against all of G at once (exact below 2^53): no prefilter, no chunks. A
    mask represents its orbit when no image is smaller; its weight is
    p_r / |Stab_r|, |Stab_r| the number of images equal to r.
    """
    edge_count = edges.shape[0]
    index = {frozenset(e): k for k, e in enumerate(edges.tolist())}
    pi = np.array([[index[frozenset((p[u], p[v]))] for u, v in edges.tolist()] for p in perms])
    masks = np.arange(1 << edge_count)
    bits = (masks[:, None] >> np.arange(edge_count) & 1).astype(np.uint8)
    images = bits.astype(np.float64) @ (2.0 ** pi).T  # (masks, |G|)
    kept = bits.sum(axis=1, dtype=np.int64)
    weights = lam**kept * (1.0 - lam) ** (edge_count - kept) / (images == masks[:, None]).sum(axis=1)
    keep = (images.min(axis=1) == masks) & (weights > 0.0)
    return bits[keep], weights[keep]


# random simple graphs small enough to enumerate all 2^E realizations against scipy expm
@st.composite
def channel_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(10, len(pairs)), unique=True))
    return Graph(node_count=n, edges=tuple(keep))


# ---------------------------------------------------------------------------
# eigendecomposition, spectral exponentials and one channel application
# ---------------------------------------------------------------------------

SYMMETRY_ATOL = 1e-12
LAPLACIAN_EIG_FLOOR = -1e-9
STOCHASTIC_ENTRY_FLOOR = -1e-10


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


def reconstruct(d) -> np.ndarray:
    """Q diag(w) Q^T of a ``SpectralDecomposition``, for round-trip checks."""
    return (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T


def unitary_exp(d, t: float) -> np.ndarray:
    """exp(-i*A*t) = Q exp(-i*w*t) Q^T as a dense complex matrix."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    phases = np.exp(-1j * t * d.eigenvalues)
    return (d.eigenvectors * phases) @ d.eigenvectors.T


def stochastic_exp(d, t: float) -> np.ndarray:
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


def apply_channel(phi, rho: np.ndarray) -> np.ndarray:
    """One application of a ``dynamics.ChannelMatrix`` to a density matrix (column stacking)."""
    if rho.shape != (phi.dim, phi.dim):
        raise ValueError(f"density matrix shape {rho.shape} != ({phi.dim}, {phi.dim})")
    vec = np.asarray(rho, dtype=np.complex128).ravel(order="F")
    return (phi.matrix @ vec).reshape((phi.dim, phi.dim), order="F")


# ---------------------------------------------------------------------------
# per-step loops: one fresh view, call and lookup per step, same operands
# ---------------------------------------------------------------------------


def reference_trajectory(edges, n, z, bits, record_steps, x0, renorm_every, renorm_tol):
    """``_kernels._trajectory`` with views, cache lookups and chunk products made step by step.

    On the mask cache, each chunk's prefix products U_k ... U_1 are formed
    one 2-D matmul at a time, a ragged last chunk padded with I as the
    kernel pads it, and each chunk is applied as one (L m, m) matvec.
    """
    k = _kernels
    steps = bits.shape[0]
    plan = k.step_plan(edges, n, abs(z), steps, np.iscomplexobj(z))
    name = k._plan_name(plan)
    if plan is None:
        m = 2 * n if np.iscomplexobj(z) else n
        chunk = k._mask_chunk(m)
        name = f"mask-cache(chunk={chunk})"
        if chunk > 1:
            block = max(1, k.BLOCK_BYTES // (8 * m * m * chunk)) * chunk
        else:
            block = max(1, k.BLOCK_BYTES // (8 * m))
        keys = k._mask_keys(bits).tolist()
        cache = {}

        def advance(start, stop, x):
            hist = np.empty((stop - start, n), dtype=x.dtype)
            states = hist.view(np.float64)
            src = x.view(np.float64)
            for c0 in range(0, stop - start, chunk):
                prods = []
                for j in range(c0, c0 + chunk):
                    if start + j < stop:
                        u = cache.get(keys[start + j])
                        if u is None:
                            u = k._propagators(edges, n, bits[start + j][None], z)[0]
                            u = cache[keys[start + j]] = k._real_form(u, np.empty((m, m)))
                    else:
                        u = np.eye(m)
                    prods.append(u.copy() if j == c0 else np.matmul(u, prods[-1]))
                out = np.dot(np.concatenate(prods), src)
                rows = min(chunk, stop - start - c0)
                states[c0:c0 + rows] = out[:rows * m].reshape(rows, m)
                src = states[c0 + rows - 1]
            return hist
    elif k._use_matrix(n, plan[0]):
        substeps, order = plan
        name = k._plan_name(plan, "taylor-matrix")
        block = max(1, k.BLOCK_BYTES // (n * n * x0.itemsize))

        def advance(start, stop, x):
            d = k._taylor_matrices(edges, n, bits[start:stop], z, substeps, order)
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for j in range(stop - start):
                for _ in range(substeps):
                    x = x + np.dot(d[j], x)
                hist[j] = x
            return hist
    else:
        substeps, order = plan
        coef = k._taylor_coef(order, x0.dtype)
        v = np.empty((order + 1, n), dtype=x0.dtype)
        block = max(1, k.BLOCK_BYTES // (n * n * x0.itemsize))

        def advance(start, stop, x):
            a = k.laplacians(edges, n, bits[start:stop], z / substeps)
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for j in range(stop - start):
                for _ in range(substeps):
                    v[0] = x
                    for i in range(1, order + 1):
                        np.dot(a[j], v[i - 1], out=v[i])
                    np.dot(coef, v.reshape(order + 1, -1), out=hist[j].reshape(-1))
                    x = hist[j]
            return hist

    out = np.empty((record_steps.shape[0], n), dtype=x0.dtype)
    rec_i = 0
    if record_steps.shape[0] and record_steps[0] == 0:
        out[0] = x0
        rec_i = 1
    x, max_drift, start = x0, 0.0, 0
    while start < steps:
        stop = min(start + block, steps)
        if renorm_every:
            stop = min(stop, (start // renorm_every + 1) * renorm_every)
        hist = advance(start, stop, x)
        norms = k._norms(hist, axis=1)
        max_drift = np.maximum(max_drift, np.max(np.abs(norms - 1.0)))
        if renorm_every and stop % renorm_every == 0 and abs(norms[-1] - 1.0) > renorm_tol:
            hist[-1] /= norms[-1]
        rec_j = int(np.searchsorted(record_steps, stop, side="right"))
        out[rec_i:rec_j] = hist[record_steps[rec_i:rec_j] - start - 1]
        rec_i = rec_j
        x, start = hist[-1], stop
    return out, float(max_drift), name


def reference_taylor_ensemble(edges, n, z, bits3, record_steps, x0, record, renorm_every, renorm_tol):
    """``_kernels._ensemble`` on the Taylor action, with fresh Taylor terms every step."""
    k = _kernels
    n_traj, steps, edge_count = bits3.shape
    substeps, order = plan = k.step_plan(edges, n, abs(z), steps, np.iscomplexobj(z), n_traj)
    coef = k._taylor_coef(order, x0.dtype)
    u_idx, v_idx = edges[:, 0], edges[:, 1]
    bt = np.zeros((n, edge_count))
    bt[u_idx, np.arange(edge_count)] = 1.0
    bt[v_idx, np.arange(edge_count)] = -1.0
    cols = max(1, k.BLOCK_BYTES // (x0.itemsize * max((order + 1) * n, edge_count)))
    scale = z / substeps
    max_drift = 0.0
    for c0 in range(0, n_traj, cols):
        bits = bits3[c0:c0 + cols]
        x = np.array(x0[:, c0:c0 + cols], order="C")
        rec_i = 0
        if record_steps.shape[0] and record_steps[0] == 0:
            record(slice(0, 1), x[None])
            rec_i = 1
        for s in range(steps):
            w = bits[:, s, :].T * scale
            v = np.empty((order + 1,) + x.shape, dtype=x.dtype)
            for _ in range(substeps):
                v[0] = x
                for i in range(1, order + 1):
                    k._edge_apply(u_idx, v_idx, bt, w, v[i - 1], v[i])
                np.dot(coef, v.reshape(order + 1, -1), out=x.reshape(-1))
            norms = k._norms(x, axis=0)
            drift = np.abs(norms - 1.0)
            max_drift = np.maximum(max_drift, drift.max())
            if renorm_every and (s + 1) % renorm_every == 0:
                fix = drift > renorm_tol
                x[:, fix] /= norms[fix]
            if rec_i < record_steps.shape[0] and record_steps[rec_i] == s + 1:
                record(slice(rec_i, rec_i + 1), x[None])
                rec_i += 1
    return float(max_drift), k._plan_name(plan)
