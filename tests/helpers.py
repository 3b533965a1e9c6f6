"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's walk/dynamics code
paths: Hamiltonians are rebuilt from adjacency tables and exponentials go
through scipy's Pade-based expm, so agreement is a genuine cross-check.
The exceptions are the last two sections. The first holds a checked
real-symmetric eigendecomposition (``decompose``), the spectral
exponentials built on it and a channel application, which only tests use.
The second holds per-step loops that call the same propagators as
``_kernels`` (``cached_propagator`` for the mask cache), against which its
kernels must be bit-identical.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from percwalk import _kernels
from percwalk.graph import Graph


def traced_peak(fn):
    """(result of fn(), peak bytes traced by tracemalloc during the call above the start)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def force_mask_cache(monkeypatch) -> None:
    """Price the mask cache at -inf, so ``_kernels.step_plan`` returns its route wherever it fits.

    Short runs on small graphs take the Taylor matrix, whose per-step
    polynomials cost less than building each mask's propagator; the tests
    of the cache's own mechanics run such short runs on it anyway.
    """
    monkeypatch.setattr(_kernels, "_cache_flops", lambda *args: -np.inf)


def force_taylor(monkeypatch, matrix: bool) -> None:
    """Price the Taylor action (matrix True) or the Taylor matrix at +inf, so ``_kernels.step_plan`` takes the other."""
    prices = _kernels._taylor_step_flops

    def forced(*args):
        action, taylor_matrix = prices(*args)
        return (np.inf, taylor_matrix) if matrix else (action, np.inf)

    monkeypatch.setattr(_kernels, "_taylor_step_flops", forced)


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
    """(masks, weights) of the orbit representatives of positive weight, by a float64 scan of every mask.

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
    return masks[keep], weights[keep]


def reference_group_sum(gram: np.ndarray, perms: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """sum over every g of G of gram[pi_g(a), pi_g(b)], one element at a time.

    pi_g maps the pair (i, j) of index ``pair[i, j]`` to (g i, g j) and fixes
    the last index of the (k + 1, k + 1) ``gram``.
    """
    iu, ju = np.triu_indices(pair.shape[0])
    out = np.zeros_like(gram)
    for g in perms:
        pp = np.append(pair[g[iu], g[ju]], gram.shape[0] - 1)
        out += gram[np.ix_(pp, pp)]
    return out


def truncated_series(w: np.ndarray, order: int, squarings: int, quantum: bool) -> np.ndarray:
    """The scalar functions of the eigenvalues w that ``_kernels._cos_sin`` and ``_exp_minus`` evaluate.

    Quantum: (C - 1, S), C and S the series of cos and sin truncated at
    degrees 2J and 2J + 1, J = order // 2, then doubled ``squarings`` times
    by C, S -> C^2 - S^2, 2 C S. Classical: D, the series of exp(-w) - 1
    truncated at degree 2J + 2, J = max(0, (order - 1) // 2), then squared
    ``squarings`` times by D -> 2 D + D^2.
    """
    if quantum:
        top = order // 2
        c = sum(((-1) ** k * w ** (2 * k) / math.factorial(2 * k) for k in range(1, top + 1)), np.ones_like(w))
        s = sum((-1) ** k * w ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(top + 1))
        for _ in range(squarings):
            c, s = c * c - s * s, 2.0 * c * s
        return np.stack([c - 1.0, s])
    d = sum((-w) ** j / math.factorial(j) for j in range(1, 2 * max(0, (order - 1) // 2) + 3))
    for _ in range(squarings):
        d = 2.0 * d + d * d
    return d


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


def cached_propagator(edges, n, bits, z) -> np.ndarray:
    """The real-form exp(z * H_r) that the mask cache holds for the keep bits ``bits`` (E,), built alone."""
    m = 2 * n if np.iscomplexobj(z) else n
    out = np.empty((1, m, m))
    _kernels._cache_propagators(edges, n, bits[None], z, _kernels._squaring_plan(edges, n, abs(z)),
                                _kernels._taylor_work(n, 1), out)
    return out[0]


def reference_norms(x: np.ndarray, axis: int) -> np.ndarray:
    """The conserved norm: ``np.linalg.norm`` of quantum amplitudes, the total probability of a distribution."""
    return np.linalg.norm(x, axis=axis) if np.iscomplexobj(x) else x.sum(axis=axis)


def reference_trajectory(edges, n, z, bits, record_steps, x0, renorm_every, renorm_tol):
    """``_kernels._trajectory`` on ``step_plan``'s route, with views, cache lookups and chunk products step by step.

    On the mask cache, a step that keeps no edge leaves the state as it is.
    The steps that keep an edge form the chunks: each chunk's prefix
    products U_k ... U_1 are formed one 2-D matmul at a time, a ragged last
    chunk padded with I as the kernel pads it, and each chunk is applied as
    one (L m, m) matvec.
    """
    k = _kernels
    steps = bits.shape[0]
    route = k.step_plan(edges, n, abs(z), steps, np.iscomplexobj(z))
    if route.kind == "mask-cache":
        m = 2 * n if np.iscomplexobj(z) else n
        chunk = route.chunk
        if chunk > 1:
            block = max(1, 4 * k.BLOCK_BYTES // (8 * m * m * chunk)) * chunk
        else:
            block = max(1, k.BLOCK_BYTES // (8 * m))
        keys = k._mask_keys(bits).tolist()
        cache = {}

        def advance(start, stop, x):
            moving = [s for s in range(start, stop) if keys[s]]
            states = np.empty((len(moving), n), dtype=x.dtype).view(np.float64)
            src = x.view(np.float64)
            for c0 in range(0, len(moving), chunk):
                prods = []
                for j in range(c0, c0 + chunk):
                    if j < len(moving):
                        s = moving[j]
                        u = cache.get(keys[s])
                        if u is None:
                            u = cache[keys[s]] = cached_propagator(edges, n, bits[s], z)
                    else:
                        u = np.eye(m)
                    prods.append(u.copy() if j == c0 else np.matmul(u, prods[-1]))
                out = np.dot(np.concatenate(prods), src)
                rows = min(chunk, len(moving) - c0)
                states[c0:c0 + rows] = out[:rows * m].reshape(rows, m)
                src = states[c0 + rows - 1]
            hist = np.empty((stop - start, n), dtype=x.dtype)
            moved = states.view(x.dtype)
            for s in range(start, stop):
                if keys[s]:
                    x, moved = moved[0], moved[1:]
                hist[s - start] = x
            return hist
    elif route.kind == "taylor-matrix":
        substeps, order = route.plan
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
        substeps, order = route.plan
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
        norms = reference_norms(hist, axis=1)
        max_drift = np.maximum(max_drift, np.max(np.abs(norms - 1.0)))
        if renorm_every and stop % renorm_every == 0 and abs(norms[-1] - 1.0) > renorm_tol:
            hist[-1] /= norms[-1]
        rec_j = int(np.searchsorted(record_steps, stop, side="right"))
        out[rec_i:rec_j] = hist[record_steps[rec_i:rec_j] - start - 1]
        rec_i = rec_j
        x, start = hist[-1], stop
    return out, float(max_drift), route.name


def slot_table(edges, n):
    """The flattened slot table of the ensemble's Taylor action: the neighbour table and each node itself."""
    return np.vstack([_kernels._neighbours(edges, n)[0], np.arange(n)]).ravel()


def slot_weights(edges, n, bits, scale):
    """The ((width + 1) n, T) weights of ``slot_table`` for the keep bits (T, E) of T columns.

    An edge slot holds -scale times its keep bit, a padded one zero, and a
    node's own slot scale times its kept degree, counted by the incidence
    product of ``_kernels.laplacians``.
    """
    _, eid = _kernels._neighbours(edges, n)
    edge_weights = np.zeros((edges.shape[0] + 1, bits.shape[0]), dtype=np.result_type(scale, np.float64))
    edge_weights[:-1] = bits.T * -scale
    return np.concatenate([edge_weights[eid.ravel()], (bits @ _kernels._incidence(edges, n)).T * scale])


def reference_taylor_ensemble(edges, n, z, bits3, record_steps, x0, record, renorm_every, renorm_tol):
    """``_kernels._ensemble`` on the Taylor action, with fresh Taylor terms and slot weights every step."""
    k = _kernels
    n_traj, steps, _ = bits3.shape
    route = k.step_plan(edges, n, abs(z), steps, np.iscomplexobj(z), n_traj)
    substeps, order = route.plan
    coef = k._taylor_coef(order, x0.dtype)
    nbr = slot_table(edges, n)
    cols = max(1, k.BLOCK_BYTES // (x0.itemsize * max((order + 1) * n, nbr.size)))
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
            w = slot_weights(edges, n, bits[:, s, :], scale)
            v = np.empty((order + 1,) + x.shape, dtype=x.dtype)
            for _ in range(substeps):
                v[0] = x
                for i in range(1, order + 1):
                    k._gather_apply(nbr, w, np.empty_like(w), v[i - 1], v[i])
                np.dot(coef, v.reshape(order + 1, -1), out=x.reshape(-1))
            norms = reference_norms(x, axis=0)
            drift = np.abs(norms - 1.0)
            max_drift = np.maximum(max_drift, drift.max())
            if renorm_every and (s + 1) % renorm_every == 0:
                fix = drift > renorm_tol
                x[:, fix] /= norms[fix]
            if rec_i < record_steps.shape[0] and record_steps[rec_i] == s + 1:
                record(slice(rec_i, rec_i + 1), x[None])
                rec_i += 1
    return float(max_drift), route.name
