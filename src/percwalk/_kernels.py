"""Hot numeric kernels: per-step propagation and channel accumulation.

A step of a walk applies exp(z * H_r) to the state, where H_r is the
Laplacian of the edges kept at that step and z = -i*tau for the quantum walk
or z = -tau for the classical walk. Two propagators implement it:

* mask cache: a graph with at most CACHE_MAX_EDGES edges has at most 2^16
  realizations, so each distinct realization's propagator is built once as
  a spectral exponential (``eigh``) and kept in a dict keyed by its mask;
* Taylor action: larger graphs practically never repeat a realization, so
  exp(z * H_r) is applied to the state directly as ``substeps`` truncated
  Taylor series of ``order`` terms each (``taylor_plan``). The truncation
  error of each substep is at most 2^-53 times the norm of the state
  (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011).

The step kernels report which propagator ran (``"mask-cache"`` or
``"taylor(substeps=S, order=K)"``) and the largest drift of the conserved
norm: the 2-norm of a quantum state, the total probability of a classical
distribution.

``channel_accumulate`` sums over all 2^E realizations without a spectral
decomposition. Each U_r = cos(tau H_r) - i sin(tau H_r) comes from real
batched Horner products of truncated Taylor series, planned by
``taylor_plan`` for tau / 2^q and squared q times (scaling and squaring,
same 2^-53 bound per substep). U_r is complex symmetric, so the Gram matrix
of the realizations is accumulated over the n(n+1)/2 entries i <= j only,
and over U_r - I, which keeps the round-off relative to the step's size.
A graph automorphism g maps each mask to one of the same kept count and
probability, with U_{g.r} = P_g U_r P_g^T. So every mask is enumerated, but
a propagator is built only for the smallest mask of each orbit under the
automorphism group G, weighted by p_r / |Stab_r|; summing the Gram matrix
over the |G| relabelings then counts each of the |G| / |Stab_r| masks of
the orbit exactly once (McKay & Piperno, J. Symb. Comput. 60:94, 2014, for
the backtracking search of G).
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

CACHE_MAX_EDGES = 16
CACHE_MAX_ENTRIES = 1 << 16
CACHE_MAX_BYTES = 1 << 28  # 256 MiB of cached propagators
CHANNEL_BATCH = 512
# per-substep truncation bound of the Taylor action, relative to the state norm
TAYLOR_TOL = 2.0**-53
# largest transient buffer (Laplacian block, Taylor terms) of a step kernel
BLOCK_BYTES = 1 << 18
# most Taylor substeps planned before anything runs, 2^24: over all steps of a
# trajectory or ensemble block (about 20 min at the 73 us one substep of
# complete:7 takes), and per step of the exact channel, which squares them
# back in 24 squarings whose error of about 2^24 * 2^-53 = 1.9e-9 stays below
# the 1e-8 trace gate of ``dynamics.evolve_channel``
MAX_SUBSTEPS = 1 << 24


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def propagator_cache_capacity(edge_count: int, max_distinct: int, dim: int) -> int:
    """Most propagators the mask cache may hold; 0 selects the Taylor action."""
    if edge_count > CACHE_MAX_EDGES:
        return 0
    cap = min(1 << edge_count, max_distinct, CACHE_MAX_ENTRIES)
    if cap * dim * dim * 16 > CACHE_MAX_BYTES:
        return 0
    return cap


def laplacians(edges: np.ndarray, n: int, bits: np.ndarray, scale) -> np.ndarray:
    """scale * Laplacian of the kept edges, one (n, n) matrix per row of ``bits`` (R, E).

    The result is complex when ``scale`` is. The edges of a Graph are
    distinct, so the off-diagonal scatter writes every entry at most once.
    """
    w = np.multiply(bits, scale, dtype=np.result_type(scale, np.float64))
    h = np.zeros((w.shape[0], n, n), dtype=w.dtype)
    u, v = edges[:, 0], edges[:, 1]
    h[:, u, v] = -w
    h[:, v, u] = -w
    # diagonal = scale * kept degree = minus the off-diagonal row sum
    h.reshape(w.shape[0], n * n)[:, :: n + 1] = -h.sum(axis=2)
    return h


def hamiltonian_from_bits(edges: np.ndarray, bits: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """Laplacian Hamiltonian gamma * L of the edges kept in ``bits`` (E,)."""
    return laplacians(edges, n, bits[None, :], gamma)[0]


def taylor_plan(edges: np.ndarray, n: int, gamma: float, tau: float) -> tuple[int, int]:
    """(substeps, order) of the truncated-Taylor action of exp(z * H_r), |z| = tau.

    Every realization Laplacian obeys ||tau * H_r||_2 <= x = 2 * gamma * tau
    * maxdeg, maxdeg taken over the full graph. The step is split into
    s = ceil(x) substeps of norm y = x / s <= 1, and the order is the
    smallest K whose series tail y^(K+1) / (K+1)! / (1 - y / (K+2)) is at
    most TAYLOR_TOL. An infinite x is refused as a plan above every limit.
    """
    maxdeg = int(np.bincount(edges.ravel(), minlength=n).max(initial=0))
    x = 2.0 * gamma * tau * maxdeg
    if not x < math.inf:
        raise ValueError(
            f"a step of tau={tau:g} plans unboundedly many Taylor substeps (and squarings), "
            f"above the limit of 2^{MAX_SUBSTEPS.bit_length() - 1}; shorten tau"
        )
    substeps = max(1, math.ceil(x))
    y = x / substeps
    order, tail = 0, y  # tail = y^(K+1) / (K+1)! for K = order
    while tail / (1.0 - y / (order + 2)) > TAYLOR_TOL:
        order += 1
        tail *= y / (order + 1)
    return substeps, order


def _run_plan(edges: np.ndarray, n: int, gamma: float, tau: float, steps: int) -> tuple[int, int]:
    """``taylor_plan`` of a run of ``steps`` steps, refused above MAX_SUBSTEPS substeps in all."""
    substeps, order = taylor_plan(edges, n, gamma, tau)
    if substeps * steps > MAX_SUBSTEPS:
        raise ValueError(
            f"{steps} step(s) of tau={tau:g} plan {substeps * steps:.3g} Taylor substeps "
            f"({substeps:.3g} per step), above the limit of 2^{MAX_SUBSTEPS.bit_length() - 1}; "
            f"shorten tau or the run"
        )
    return substeps, order


def step_plan(edges: np.ndarray, n: int, gamma: float, tau: float, steps: int,
              max_distinct: int) -> tuple[int, int] | None:
    """The propagator of a step kernel: None for the mask cache, else ``_run_plan``.

    ``max_distinct`` bounds the distinct masks of the run: the step count of
    a trajectory, CACHE_MAX_ENTRIES for an ensemble. Callers may plan before
    drawing any keep bits, so a refused plan allocates nothing.
    """
    if propagator_cache_capacity(edges.shape[0], max_distinct, n) > 0:
        return None
    return _run_plan(edges, n, gamma, tau, steps)


def _taylor_series(apply_a, v: np.ndarray, coef: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_k coef[k] * A^k v[0], the one routine that applies the series.

    ``apply_a(x, y)`` writes A x into y; v[k] receives A^k v[0] for
    k = 1..K. With A = z * H / s and coef[k] = 1/k! this is one substep of
    the Taylor action.
    """
    for k in range(1, v.shape[0]):
        apply_a(v[k - 1], v[k])
    np.dot(coef, v.reshape(v.shape[0], -1), out=out.reshape(-1))
    return out


def _taylor_coef(order: int, dtype) -> np.ndarray:
    return np.array([1.0 / math.factorial(k) for k in range(order + 1)], dtype=dtype)


def _plan_name(plan: tuple[int, int] | None) -> str:
    return "mask-cache" if plan is None else f"taylor(substeps={plan[0]}, order={plan[1]})"


def _propagator_for_bits(edges, bits, gamma, n, z):
    """exp(z * H_r) by spectral decomposition; classical (real z) entries are clipped at 0.

    A step so long that z * w overflows gives non-finite entries, without a
    warning; they reach the output, which the CLI refuses to write (exit 2).
    """
    w, q = np.linalg.eigh(hamiltonian_from_bits(edges, bits, gamma, n))
    with np.errstate(over="ignore", invalid="ignore"):
        m = (q * np.exp(z * w)) @ q.T
    return m if np.iscomplexobj(m) else np.maximum(m, 0.0)


def _mask_keys(bits_2d: np.ndarray) -> np.ndarray:
    """Pack per-step keep bits (S, E) into int64 mask keys, E <= 62."""
    pow2 = np.left_shift(np.int64(1), np.arange(bits_2d.shape[1], dtype=np.int64))
    return bits_2d.astype(np.int64) @ pow2


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """The conserved norm: 2-norm of quantum amplitudes, total probability of a distribution."""
    return np.linalg.norm(x, axis=axis) if np.iscomplexobj(x) else x.sum(axis=axis)


# ---------------------------------------------------------------------------
# single trajectories
# ---------------------------------------------------------------------------


def _trajectory(edges, n, gamma, z, bits, record_steps, x0, renorm_every, renorm_tol):
    """Shared loop of the trajectory kernels -> (states at record_steps, max drift, propagator).

    Steps run in blocks; each block returns its states, from which the
    norm drift and the recorded rows are taken at once. Blocks end at
    multiples of ``renorm_every`` (0 = never renormalize), where a state
    whose norm drifted by more than ``renorm_tol`` is renormalized.
    """
    steps, edge_count = bits.shape
    plan = step_plan(edges, n, gamma, abs(z), steps, steps)
    if plan is None:
        block = max(1, BLOCK_BYTES // (16 * n))
        keys = _mask_keys(bits).tolist()
        cache: dict[int, np.ndarray] = {}

        def advance(start, stop, x):
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for j, key in enumerate(keys[start:stop]):
                u = cache.get(key)
                if u is None:
                    u = cache[key] = _propagator_for_bits(edges, bits[start + j], gamma, n, z)
                x = np.dot(u, x, out=hist[j])
            return hist
    else:
        substeps, order = plan
        coef = _taylor_coef(order, x0.dtype)
        v = np.empty((order + 1, n), dtype=x0.dtype)
        block = max(1, BLOCK_BYTES // (n * n * x0.itemsize))

        def advance(start, stop, x):
            a = laplacians(edges, n, bits[start:stop], z * gamma / substeps)
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for j in range(stop - start):
                apply_a = partial(np.dot, a[j])
                for _ in range(substeps):
                    v[0] = x
                    x = _taylor_series(apply_a, v, coef, hist[j])
            return hist

    n_rec = record_steps.shape[0]
    out = np.empty((n_rec, n), dtype=x0.dtype)
    rec_i = 0
    if n_rec and record_steps[0] == 0:
        out[0] = x0
        rec_i = 1
    x, max_drift, start = x0, 0.0, 0
    while start < steps:
        stop = min(start + block, steps)
        if renorm_every:
            stop = min(stop, (start // renorm_every + 1) * renorm_every)
        hist = advance(start, stop, x)
        norms = _norms(hist, axis=1)
        max_drift = max(max_drift, float(np.max(np.abs(norms - 1.0))))
        if renorm_every and stop % renorm_every == 0 and abs(norms[-1] - 1.0) > renorm_tol:
            hist[-1] /= norms[-1]
        rec_j = int(np.searchsorted(record_steps, stop, side="right"))
        out[rec_i:rec_j] = hist[record_steps[rec_i:rec_j] - start - 1]
        rec_i = rec_j
        x, start = hist[-1], stop
    return out, max_drift, _plan_name(plan)


def trajectory_states(edges, n, gamma, tau, bits, record_steps, psi0, renorm_every, renorm_tol):
    """One quantum trajectory -> (states at record_steps, max |norm - 1|, propagator name)."""
    return _trajectory(edges, n, gamma, -1j * tau, bits, record_steps,
                       psi0.astype(np.complex128), renorm_every, renorm_tol)


def classical_trajectory(edges, n, gamma, tau, bits, record_steps, p0):
    """One classical trajectory -> (distributions at record_steps, max |sum - 1|, propagator name)."""
    return _trajectory(edges, n, gamma, -tau, bits, record_steps, p0.astype(np.float64), 0, 0.0)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _edge_apply(u, v, bt, w, x, y):
    """y = H x for the (n, T) state block x, H taken from the kept-edge weights w (E, T).

    With the signed incidence B (B[e, u_e] = 1, B[e, v_e] = -1), H = B^T
    diag(w) B column by column. Complex blocks go through the real matmul
    as (E, 2T) float views, so B stays real.
    """
    d = x[u] - x[v]
    d *= w
    np.dot(bt, d.view(np.float64), out=y.view(np.float64))


def _ensemble(edges, n, gamma, z, bits3, record_steps, x0, record, renorm_every, renorm_tol):
    """Shared loop of the ensemble kernels -> (max drift, propagator name).

    x0 holds one initial state per column (n, T). ``record(i, x)`` is called
    with a block of columns x at record step i. Every ``renorm_every`` steps
    (0 = never) columns whose norm drifted by more than ``renorm_tol`` are
    renormalized.
    """
    n_traj, steps, edge_count = bits3.shape
    plan = step_plan(edges, n, gamma, abs(z), steps, CACHE_MAX_ENTRIES)
    if plan is None:
        cols = n_traj
        cache: dict[int, np.ndarray] = {}

        def step(bits, s, x):
            keys = _mask_keys(bits[:, s, :])
            for key in np.unique(keys).tolist():
                sel = keys == key
                u = cache.get(key)
                if u is None:
                    u = cache[key] = _propagator_for_bits(edges, bits[np.argmax(sel), s], gamma, n, z)
                x[:, sel] = u @ x[:, sel]
            return x
    else:
        substeps, order = plan
        coef = _taylor_coef(order, x0.dtype)
        u_idx, v_idx = edges[:, 0], edges[:, 1]
        bt = np.zeros((n, edge_count))
        bt[u_idx, np.arange(edge_count)] = 1.0
        bt[v_idx, np.arange(edge_count)] = -1.0
        cols = max(1, BLOCK_BYTES // (x0.itemsize * max((order + 1) * n, edge_count)))
        scale = z * gamma / substeps

        def step(bits, s, x):
            apply_a = partial(_edge_apply, u_idx, v_idx, bt, bits[:, s, :].T * scale)
            v = np.empty((order + 1,) + x.shape, dtype=x.dtype)
            for _ in range(substeps):
                v[0] = x
                _taylor_series(apply_a, v, coef, x)
            return x

    max_drift = 0.0
    for c0 in range(0, n_traj, cols):
        bits = bits3[c0:c0 + cols]
        x = np.array(x0[:, c0:c0 + cols], order="C")  # _taylor_series writes through x.reshape
        rec_i = 0
        if record_steps.shape[0] and record_steps[0] == 0:
            record(0, x)
            rec_i = 1
        for s in range(steps):
            x = step(bits, s, x)
            norms = _norms(x, axis=0)
            drift = np.abs(norms - 1.0)
            max_drift = max(max_drift, float(drift.max()))
            if renorm_every and (s + 1) % renorm_every == 0:
                fix = drift > renorm_tol
                x[:, fix] /= norms[fix]
            if rec_i < record_steps.shape[0] and record_steps[rec_i] == s + 1:
                record(rec_i, x)
                rec_i += 1
    return max_drift, _plan_name(plan)


def merge_moments(a, b):
    """Pairwise merge of the (count, mean, M2) summaries of two disjoint sample sets.

    M2 is the sum of squared deviations from the mean, so the sample
    variance is M2 / (count - 1). The merge is exact in exact arithmetic
    and stable in floating point (Chan, Golub & LeVeque, Am. Stat. 37:242,
    1983); (0, 0.0, 0.0) is the summary of no samples.
    """
    (na, ma, m2a), (nb, mb, m2b) = a, b
    count = na + nb
    delta = mb - ma
    return count, ma + delta * (nb / count), m2a + m2b + delta**2 * (na * nb / count)


def _column_moments(y: np.ndarray):
    """(count, mean, M2) over the columns of y, in two passes."""
    mean = y.mean(axis=1)
    return y.shape[1], mean, ((y - mean[:, None]) ** 2).sum(axis=1)


def ensemble_quantum(edges, n, gamma, tau, bits3, record_steps, psis0, renorm_every, renorm_tol):
    """Sum over trajectories of |psi><psi| and moments of the site probabilities |psi|^2.

    -> (sum_outer, moments, max |norm - 1|, propagator name); moments[i] is
    the per-site (count, mean, M2) at record step i (``merge_moments``).
    """
    n_rec = record_steps.shape[0]
    sum_outer = np.zeros((n_rec, n, n), dtype=np.complex128)
    moments = [(0, 0.0, 0.0)] * n_rec

    def record(i, x):
        sum_outer[i] += x @ x.conj().T
        moments[i] = merge_moments(moments[i], _column_moments(np.abs(x) ** 2))

    drift, name = _ensemble(edges, n, gamma, -1j * tau, bits3, record_steps,
                            psis0.T.astype(np.complex128), record, renorm_every, renorm_tol)
    return sum_outer, moments, drift, name


def ensemble_classical(edges, n, gamma, tau, bits3, record_steps, p0):
    """Sum over trajectories of p and per-site moments of p.

    -> (sum_dist, moments, max |sum(p) - 1|, propagator name), moments as in
    ``ensemble_quantum``.
    """
    n_rec = record_steps.shape[0]
    sum_dist = np.zeros((n_rec, n), dtype=np.float64)
    moments = [(0, 0.0, 0.0)] * n_rec

    def record(i, x):
        sum_dist[i] += x.sum(axis=1)
        moments[i] = merge_moments(moments[i], _column_moments(x))

    x0 = np.repeat(p0.astype(np.float64)[:, None], bits3.shape[0], axis=1)
    drift, name = _ensemble(edges, n, gamma, -tau, bits3, record_steps, x0, record, 0, 0.0)
    return sum_dist, moments, drift, name


# ---------------------------------------------------------------------------
# exact channel
# ---------------------------------------------------------------------------


def _horner(b: np.ndarray, coef: list) -> np.ndarray:
    """sum_k coef[k] * b^k for a batch of square matrices b (R, n, n), by Horner's rule."""
    n = b.shape[-1]
    if len(coef) == 1:
        acc = np.zeros_like(b)
    else:
        acc = coef[-1] * b
        for c in coef[-2:0:-1]:
            acc.reshape(-1, n * n)[:, :: n + 1] += c
            acc = b @ acc
    acc.reshape(-1, n * n)[:, :: n + 1] += coef[0]
    return acc


def _cos_sin(a: np.ndarray, order: int, squarings: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(2^q a) - I and sin(2^q a), q = ``squarings``, for a batch of real symmetric a (R, n, n).

    cos a - I and sin a are the even part without its constant term and the
    odd part of the Taylor series of exp(i a), to degree >= ``order``,
    summed by Horner's rule in a @ a. For a short step both are small;
    carrying cos - I keeps their round-off relative to their own size, not
    to the unit diagonal. A step that needs squaring has cos - I of order
    one, so the squarings act on C = cos itself: cos 2x = cos^2 x - sin^2 x
    and sin 2x = 2 sin x cos x, the latter as CS + (CS)^T, which is exactly
    symmetric.
    """
    n = a.shape[-1]
    b = a @ a
    terms = range(order // 2 + 1)
    e = _horner(b, [(-1) ** k / math.factorial(2 * k) if k else 0.0 for k in terms])
    s = a @ _horner(b, [(-1) ** k / math.factorial(2 * k + 1) for k in terms])
    if squarings:
        e.reshape(-1, n * n)[:, :: n + 1] += 1.0
        for _ in range(squarings):
            cs = e @ s
            e = e @ e - s @ s
            s = cs + cs.transpose(0, 2, 1)
        e.reshape(-1, n * n)[:, :: n + 1] -= 1.0
    return e, s


def _automorphisms(edges: np.ndarray, n: int, limit: int) -> np.ndarray:
    """Node permutations (|G|, n) that map the edge set onto itself, identity first.

    Backtracking assigns the non-isolated nodes in breadth-first order. Row
    w of the candidate table ``cand`` marks the images still open to node
    w: nodes of w's degree that are adjacent to the image of every assigned
    node u exactly when w is adjacent to u. Assigning u -> c narrows every
    row at once, so every completed assignment preserves adjacency.
    Isolated nodes stay fixed. As soon as more than ``limit`` permutations
    are found the search stops and returns the identity alone.
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
        if v in images:  # the identity branch is searched first
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


def _orbit_representatives(edges: np.ndarray, perms: np.ndarray, lam: float):
    """Yield (bits, weights) of the orbit representatives of positive weight, CHANNEL_BATCH at a time.

    Mask r's image under g keeps edge pi_g(e) for every kept e, where
    pi_g(e) is the edge {g(u_e), g(v_e)}; as a number it is bits @ 2^pi_g,
    exact in float64 below 2^53. A mask represents its orbit when no image
    is smaller, and |Stab_r| is the number of images equal to r. The orbit
    holds |G| / |Stab_r| masks of the same probability p_r, so the weight
    p_r / |Stab_r| summed over all g in G counts each of them once. Masks
    are scanned in chunks whose (chunk, max(|G|, E)) blocks fit in
    BLOCK_BYTES.
    """
    edge_count = edges.shape[0]
    n = perms.shape[1]
    eid = np.zeros((n, n), dtype=np.int64)
    eid[edges[:, 0], edges[:, 1]] = eid[edges[:, 1], edges[:, 0]] = np.arange(edge_count)
    powers = 2.0 ** eid[perms[:, edges[:, 0]], perms[:, edges[:, 1]]]  # (|G|, E)
    total = 1 << edge_count
    chunk = max(1, BLOCK_BYTES // (8 * max(perms.shape[0], edge_count)))
    bits_buf, w_buf = np.empty((0, edge_count)), np.empty(0)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype="<i8")
        # bit e of each mask, from its little-endian bytes
        bits = np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1, count=edge_count,
                             bitorder="little").astype(np.float64)
        images = powers @ bits.T  # (|G|, chunk)
        rep = images.min(axis=0) == masks
        masks, bits, images = masks[rep], bits[rep], images[:, rep]
        kept = np.bitwise_count(masks)
        weights = lam**kept * (1.0 - lam) ** (edge_count - kept) / (images == masks).sum(axis=0)
        live = weights > 0.0
        bits_buf = np.concatenate((bits_buf, bits[live]))
        w_buf = np.concatenate((w_buf, weights[live]))
        while bits_buf.shape[0] >= CHANNEL_BATCH:
            yield bits_buf[:CHANNEL_BATCH], w_buf[:CHANNEL_BATCH]
            bits_buf, w_buf = bits_buf[CHANNEL_BATCH:], w_buf[CHANNEL_BATCH:]
    if bits_buf.shape[0]:
        yield bits_buf, w_buf


def channel_accumulate(edges, n, gamma, lam, tau):
    """K[(i,j),(k,l)] = sum_r p_r conj(U_r)[i,j] U_r[k,l] over all 2^E masks.

    -> (K, propagator name, G as node permutations (|G|, n), identity first,
    propagators built). U_r = exp(-i tau H_r) = C_r - i S_r with
    C_r = cos(tau H_r) and S_r = sin(tau H_r) from
    ``_cos_sin``: with s the ``taylor_plan`` substeps, the step is halved
    q = ceil(log2 s) times, the order is planned for tau / 2^q (tail at most
    2^-53) and the result is squared q times. U_r is complex symmetric, so
    only its n(n+1)/2 entries i <= j enter the Hermitian Gram matrix of the
    pairs, which is scattered back to the (n^2, n^2) K through the pair
    index map. The sums carry D_r = U_r - I, whose entries are small for a
    short step: K is assembled from sum_r p_r conj(D_r) (x) D_r, sum_r p_r D_r
    and sum_r p_r = 1, so the round-off of the unit diagonal is not summed
    over the realizations.

    Every automorphism g of the graph (node permutation matrix P_g) maps
    mask r to a mask g.r of the same kept count, hence the same p_r, with
    U_{g.r} = P_g U_r P_g^T. So only one representative per orbit of masks
    is built, weighted by p_r / |Stab_r| (``_orbit_representatives``), and
    the Gram matrix is summed over G afterwards: entry (a, b) of the sum is
    sum_g gram[pair(g i_a, g j_a), pair(g i_b, g j_b)]. Every mask still
    counts exactly once. G is searched (``_automorphisms``) only when it can
    pay: it may hold at most 2^E // CHANNEL_BATCH elements, so symmetry
    removes whole batches, and at most f // E, so canonicalizing a mask
    (|G| E flops) costs less than building it (f flops). A larger or
    unsearched group is replaced by the identity alone, which builds every
    mask as before.
    """
    edge_count = edges.shape[0]
    substeps, _ = taylor_plan(edges, n, gamma, tau)
    squarings = (substeps - 1).bit_length()
    if substeps > MAX_SUBSTEPS:
        raise ValueError(
            f"a step of tau={tau:g} needs {squarings} squarings of its propagators, above the "
            f"limit of {MAX_SUBSTEPS.bit_length() - 1}; shorten tau"
        )
    _, order = taylor_plan(edges, n, gamma, tau / 2**squarings)
    iu, ju = np.triu_indices(n)
    upper = iu * n + ju
    pair = np.empty((n, n), dtype=np.int64)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    # flops of one realization: its cos/sin products plus its share of the pair Gram
    flops = 2 * n**3 * (order + 2 + 3 * squarings) + 8 * iu.size**2
    limit = min((1 << edge_count) // CHANNEL_BATCH, flops // max(edge_count, 1))
    perms = _automorphisms(edges, n, limit) if limit > 1 else np.arange(n)[None]
    # Gram matrix of w_r = sqrt(weight_r) (conj(D_r) on the pairs, then 1), D_r = U_r - I; its
    # last row holds sum_r weight_r D_r, at an index that every relabeling fixes
    m = iu.size
    gram = np.zeros((m + 1, m + 1), dtype=np.complex128)
    built = 0
    for bits, weights in _orbit_representatives(edges, perms, lam):
        e, s = _cos_sin(laplacians(edges, n, bits, gamma * tau / 2**squarings), order, squarings)
        root = np.sqrt(weights)
        w = np.empty((bits.shape[0], m + 1), dtype=np.complex128)
        w.real[:, :m] = e.reshape(-1, n * n)[:, upper] * root[:, None]
        w.imag[:, :m] = s.reshape(-1, n * n)[:, upper] * root[:, None]
        w[:, m] = root
        gram += w.T @ w.conj()
        built += bits.shape[0]
    sym, flat_gram = np.zeros_like(gram), gram.ravel()
    for pp in pair[perms[:, iu], perms[:, ju]]:
        pp = np.append(pp, m)
        sym += flat_gram.take(pp[:, None] * (m + 1) + pp)
    # conj(U)_a U_b = conj(D)_a D_b + i_a D_b + conj(D)_a i_b + i_a i_b with i the pairs of I,
    # and the p_r sum to 1
    diag = np.flatnonzero(iu == ju)
    k = sym[:m, :m]
    k[diag] += sym[m, :m]
    k[:, diag] += sym[:m, m:]
    k[np.ix_(diag, diag)] += 1.0
    flat = pair.ravel()
    return k[flat[:, None], flat], _plan_name((1 << squarings, order)), perms, built
