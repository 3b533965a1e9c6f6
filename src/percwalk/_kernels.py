"""Hot numeric kernels: per-step propagation and channel accumulation.

A step of a walk applies exp(z * H_r) to the state, where H_r is the
Laplacian of the edges kept at that step and z = -i*tau for the quantum walk
or z = -tau for the classical walk. Three propagators implement it:

* mask cache: a graph with at most CACHE_MAX_EDGES edges has at most 2^16
  realizations, so each distinct realization's propagator is built once as
  a spectral exponential (one batched ``eigh`` for the new masks of a block
  of steps) and kept, found through a 2^E table of slots indexed by the
  mask. The cache keeps real m x m propagators that act on the float64
  view of a state (``_real_form``: m = 2n quantum, m = n classical). An
  ensemble step applies those of all its columns with one batched matmul;
  a trajectory on a small graph steps in chunks of L steps
  (``_mask_chunk``): it gathers a block's propagators into one stack, forms
  each chunk's prefix products U_k ... U_1 with L - 1 batched matmuls over
  all chunks and writes the L states of a chunk with one (L m, m) matvec
  (Blelloch, CMU-CS-90-190, 1990, for prefix products). On ring:4 (60 000
  steps, tau = 1/600) those products move the states by at most 1.4e-13
  (quantum) and 7.5e-15 (classical) from one matvec per step, a round-off
  that grows linearly with the steps, like the norm drift of 1.6e-12 that
  the cached propagators give both loops;
* Taylor action: larger graphs practically never repeat a realization, so
  exp(z * H_r) is applied to the state directly as ``substeps`` truncated
  Taylor series of ``order`` terms each (``taylor_plan``). The truncation
  error of each substep is at most 2^-53 times the norm of the state
  (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011);
* Taylor matrix: a trajectory on a small graph forms the same truncated
  polynomial P of each step as an explicit n x n matrix instead, for a
  block of steps at once, with the batched real Horner products of the
  exact channel (``_taylor_matrices``). Each substep is then one matvec and
  one add, x + (P - I) x. Forming P costs about ``order`` n x n products
  per step and saves ``order`` small numpy calls per substep, so
  ``_use_matrix`` takes it when those flops cost less than the calls
  (Moler & Van Loan, SIAM Rev. 45:3, 2003). Measured with one BLAS thread
  at tau = 1e-4 (one substep): it won on complete graphs up to n = 20 for
  the classical walk and n = 25 for the quantum walk, broke even on
  lattice2d:4x5 (n = 20) and lost on ring:25, ring:30, lattice2d:5x5 and
  lattice2d:6x6 (by 30-50%) and on lattice2d:10x10 (3-4 times slower);
  with more substeps it wins on larger graphs (ring:30 at tau = 1, 4
  substeps: by 20-45%). Ensembles always use the action or the mask cache,
  and apply the action through the kept-edge weights of each column
  (``_edge_apply``) instead of a Laplacian per column.

``step_plan`` chooses the propagator, and one driver, ``_ensemble``, steps
every trajectory and ensemble kernel; it alone takes the norm drift,
renormalizes and picks the recorded states. The step kernels report which
propagator ran (``"mask-cache(chunk=L)"`` for a trajectory,
``"mask-cache"`` for an ensemble, ``"taylor(substeps=S, order=K)"`` or
``"taylor-matrix(substeps=S, order=K)"``) and the largest drift of the
conserved norm: the 2-norm of a quantum state, the total probability of a
classical distribution; a non-finite state gives a non-finite drift,
without a numpy warning. At the dimensions of the mask-cache and the
paper's Taylor workloads (d = 4 to 15) a step costs interpreter and call
overhead, not flops: a 4 x 4 complex matvec takes about 0.44 us, almost
all of it the call. So the step loops make their buffer views and bound
``.dot`` calls once per run (or block), never once per step, and the mask
cache of a small graph makes one call per chunk of steps instead of one
per step.

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
the backtracking search of G). The representatives are built in batches
whose (rows, n, n) float64 stacks each fit in BLOCK_BYTES, at most
CHANNEL_BATCH rows, so the temporaries of a batch stay in cache.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

CACHE_MAX_EDGES = 16
CACHE_MAX_BYTES = 1 << 28  # 256 MiB of cached propagators
# most propagators of the exact channel built per batch; the cost rule of
# ``channel_accumulate`` accepts a group only if it leaves this many orbits
CHANNEL_BATCH = 512
# per-substep truncation bound of the Taylor action, relative to the state norm
TAYLOR_TOL = 2.0**-53
# largest transient buffer: the Laplacian block and Taylor terms of a step
# kernel, the propagators gathered for an ensemble's mask-cache step, and each
# (rows, n, n) stack of a Taylor-matrix block or of an exact-channel batch
BLOCK_BYTES = 1 << 18
# most Taylor substeps planned before anything runs, 2^24: over all steps of a
# trajectory or ensemble block (about 30 min at the ~110 us one action substep
# of lattice2d:10x10 takes, about 25 s at the ~1.5 us of a taylor-matrix
# substep of complete:9), and per step of the exact channel, which squares
# them back in 24 squarings whose error of about 2^24 * 2^-53 = 1.9e-9 stays
# below the 1e-8 trace gate of ``dynamics.evolve_channel``
MAX_SUBSTEPS = 1 << 24
# flops that one small numpy call of the Taylor action costs: a 15 x 15 complex
# matvec, a row copy or the coefficient dot each take about 0.5 us, in which
# batched real 15 x 15 to 20 x 20 matmuls do about 15 000 flops (30 GFLOP/s);
# measured with 1 BLAS thread on a 2-vCPU Xeon, OpenBLAS 0.3.31 (``_use_matrix``)
CALL_FLOPS = 15_000


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def propagator_cache_capacity(edge_count: int, max_distinct: int, dim: int) -> int:
    """Most real dim x dim float64 propagators the mask cache may hold; 0 selects the Taylor action."""
    if edge_count > CACHE_MAX_EDGES:
        return 0
    cap = min(1 << edge_count, max_distinct)
    if cap * dim * dim * 8 > CACHE_MAX_BYTES:
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


def hamiltonian_from_bits(edges: np.ndarray, bits: np.ndarray, n: int) -> np.ndarray:
    """Laplacian Hamiltonian L of the edges kept in ``bits`` (E,)."""
    return laplacians(edges, n, bits[None, :], 1.0)[0]


def taylor_plan(edges: np.ndarray, n: int, tau: float) -> tuple[int, int]:
    """(substeps, order) of the truncated-Taylor action of exp(z * H_r), |z| = tau.

    Every realization Laplacian obeys ||tau * H_r||_2 <= x = 2 * tau *
    maxdeg, maxdeg taken over the full graph. The step is split into
    s = ceil(x) substeps of norm y = x / s <= 1, and the order is the
    smallest K whose series tail y^(K+1) / (K+1)! / (1 - y / (K+2)) is at
    most TAYLOR_TOL. An infinite x is refused as a plan above every limit.
    """
    maxdeg = int(np.bincount(edges.ravel(), minlength=n).max(initial=0))
    x = 2.0 * tau * maxdeg
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


def _run_plan(edges: np.ndarray, n: int, tau: float, steps: int) -> tuple[int, int]:
    """``taylor_plan`` of a run of ``steps`` steps, refused above MAX_SUBSTEPS substeps in all."""
    substeps, order = taylor_plan(edges, n, tau)
    if substeps * steps > MAX_SUBSTEPS:
        raise ValueError(
            f"{steps} step(s) of tau={tau:g} plan {substeps * steps:.3g} Taylor substeps "
            f"({substeps:.3g} per step), above the limit of 2^{MAX_SUBSTEPS.bit_length() - 1}; "
            f"shorten tau or the run"
        )
    return substeps, order


def step_plan(edges: np.ndarray, n: int, tau: float, steps: int, quantum: bool,
              columns: int = 1) -> tuple[int, int] | None:
    """The propagator of a step kernel: None for the mask cache, else ``_run_plan``.

    The mask cache of a kernel call holds one real m x m float64
    propagator per distinct mask: m = 2n for the quantum walk, whose
    propagators act on the interleaved real and imaginary parts of the state
    (``_real_form``), m = n for the classical walk. A call of ``columns``
    trajectories of ``steps`` steps meets at most steps * columns distinct
    masks. Callers may plan before drawing any keep bits, so a refused plan
    allocates nothing.
    """
    if propagator_cache_capacity(edges.shape[0], steps * columns, 2 * n if quantum else n) > 0:
        return None
    return _run_plan(edges, n, tau, steps)


def _use_matrix(n: int, substeps: int) -> bool:
    """Whether a trajectory step should form its Taylor polynomial as a matrix (``_taylor_matrices``).

    Forming it takes at most K = order batched n x n products per step,
    about 2 n^3 flops each (2 floor(K/2) for the quantum cos/sin pair, K - 1
    for the classical series). Applying it takes a matvec and an add per
    substep, K calls fewer than the action's K + 2, each priced at
    CALL_FLOPS. K cancels: K 2 n^3 < substeps K CALL_FLOPS, so n <= 19 for
    one substep.
    """
    return 2 * n**3 < substeps * CALL_FLOPS


def _mask_chunk(m: int) -> int:
    """Steps L per chunk of a mask-cache trajectory whose cached propagators are real m x m.

    Stepping one matvec at a time costs a small numpy call per step. A
    chunk's prefix products U_k ... U_1 (k = 1..L), formed by L - 1 batched
    matmuls over all chunks of a block, cost one gathered m x m product per
    step (2 m^3 flops) and leave one (L m, m) matvec per chunk. Such small
    batched products, gather included, run at 2-8 GFLOP/s (m = 4 to 12), a
    fifth or less of the rate CALL_FLOPS assumes, so chunks pay where
    10 m^3 < CALL_FLOPS: m <= 11, a quantum walk on at most 5 nodes (m = 2n)
    or a classical walk on at most 11. A block of S = BLOCK_BYTES / (8 m^2)
    steps then makes S / L matvec calls and L - 1 product calls, each about
    two small calls (the matmul and the copy of its result), which is least
    at L = sqrt(S / 2) = 128 / m. Measured in process with one BLAS thread
    (40 000 steps, best of 12), against one matvec per step: the quantum
    walk on ring:3, ring:4 and ring:5 (m = 6, 8, 10) ran 2.8x, 1.6x and
    1.2x faster, the classical walk on ring:4, ring:5 and ring:8 3.1x, 2.7x
    and 1.5x; at m = 12 (the quantum ring:6, the classical ring:12) chunks
    of 8 to 32 steps tied or lost.
    """
    if 10 * m**3 >= CALL_FLOPS:
        return 1
    return max(1, round(math.sqrt(BLOCK_BYTES / (16 * m * m))))


def _real_form(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` and return the real matrices that act as a stack u (..., n, n): u itself if real.

    A complex u becomes the (2n, 2n) matrix that acts on x.view(float64),
    the interleaved real and imaginary parts of x, as u acts on x: entry
    (i, j) becomes the block [[Re, -Im], [Im, Re]] at rows 2i, 2i + 1 and
    columns 2j, 2j + 1. Numpy's batched real 8 x 8 products run about four
    times faster than complex 4 x 4 ones (75-140 against 320-510 ns per
    product).
    """
    if not np.iscomplexobj(u):
        out[...] = u
        return out
    n = u.shape[-1]
    blocks = out.reshape(u.shape[:-2] + (n, 2, n, 2))
    blocks[..., 0, :, 0] = blocks[..., 1, :, 1] = u.real
    np.negative(u.imag, out=blocks[..., 0, :, 1])
    blocks[..., 1, :, 0] = u.imag
    return out


def _taylor_matrices(edges: np.ndarray, n: int, bits: np.ndarray, z, substeps: int,
                     order: int) -> np.ndarray:
    """D = P - I for each row of ``bits``, P the Taylor polynomial of exp(z * H_r / substeps).

    P is the polynomial that the action applies, to degree >= ``order``, so
    its tail obeys the same 2^-53 bound. With a = |z| H_r / substeps real,
    the quantum D (z = -i tau) is (cos a - I) - i sin a from the channel's
    ``_cos_sin``, the classical one (z = -tau) the series of exp(-a) - I by
    ``_horner``; all products are real. A substep is x + D x: carrying D
    keeps its round-off relative to the step's size. Rounding P's diagonal
    1 + D_ii instead repeats one error at every step with the same D_ii (the
    same kept degree on a complete graph), so the norm drifts coherently: on
    complete:15 at tau = 1e-4, by 7.6e-13 over 1e5 steps, against 9.4e-15
    for x + D x.
    """
    a = laplacians(edges, n, bits, abs(z) / substeps)
    if not np.iscomplexobj(z):
        return _horner(a, [(-1.0) ** k / math.factorial(k) if k else 0.0 for k in range(order + 1)])
    e, s = _cos_sin(a, order, 0)
    d = np.empty(a.shape, dtype=np.complex128)
    d.real = e
    np.negative(s, out=d.imag)
    return d


def _taylor_series(apply_a, rows: list, coef_dot, flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_k coef[k] * A^k rows[0], the one routine that applies the series.

    ``rows`` are the K + 1 row views of a fixed buffer v, ``flat`` is v
    reshaped to (K + 1, -1) and ``coef_dot`` is ``coef.dot``; ``out`` has
    the shape of a flattened row. ``apply_a(x, y)`` writes A x into y, so
    rows[k] receives A^k rows[0] for k = 1..K. With A = z * H / s and
    coef[k] = 1/k! this is one substep of the Taylor action. The callers
    make these views once per run, not once per step.
    """
    for k in range(1, len(rows)):
        apply_a(rows[k - 1], rows[k])
    return coef_dot(flat, out=out)


def _taylor_coef(order: int, dtype) -> np.ndarray:
    return np.array([1.0 / math.factorial(k) for k in range(order + 1)], dtype=dtype)


def _plan_name(plan: tuple[int, int] | None, kind: str = "taylor") -> str:
    return "mask-cache" if plan is None else f"{kind}(substeps={plan[0]}, order={plan[1]})"


def _propagators(edges, n, bits, z):
    """exp(z * H_r) for each row of ``bits`` (R, E), by one batched ``eigh``; classical entries clipped at 0.

    A step so long that z * w overflows gives non-finite entries, without a
    warning; they reach the output, which the CLI refuses to write (exit 2).
    """
    w, q = np.linalg.eigh(laplacians(edges, n, bits, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        u = (q * np.exp(z * w)[:, None, :]) @ q.transpose(0, 2, 1)
    return u if np.iscomplexobj(u) else np.maximum(u, 0.0)


def _mask_keys(bits: np.ndarray) -> np.ndarray:
    """Pack keep bits (..., E) into int64 mask keys, E <= 62."""
    pow2 = np.left_shift(np.int64(1), np.arange(bits.shape[-1], dtype=np.int64))
    return bits.astype(np.int64) @ pow2


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """The conserved norm: 2-norm of quantum amplitudes, total probability of a distribution."""
    return np.linalg.norm(x, axis=axis) if np.iscomplexobj(x) else x.sum(axis=axis)


# ---------------------------------------------------------------------------
# the step driver of trajectories and ensembles
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


def _ensemble(edges, n, z, bits, record_steps, x0, record, renorm_every, renorm_tol):
    """The step loop of every trajectory and ensemble kernel -> (max drift, propagator name).

    A trajectory is one state x0 (n,) with keep bits (S, E), an ensemble
    one state per column, x0 (n, T) with keep bits (T, S, E), stepped in
    blocks of columns. Steps run in blocks; each block returns the states of
    all its steps, from which the norm drift and the recorded rows are taken
    at once: ``record(k, xs)`` receives the states xs at record_steps[k],
    k a slice. Blocks end at multiples of ``renorm_every`` (0 = never
    renormalize), where a state whose norm drifted by more than
    ``renorm_tol`` is renormalized.

    The mask cache is one store of real propagators per call, shared by its
    column blocks; a 2^E table of slots maps each mask key to its row, and
    the masks new to a block are built with one batched ``eigh``. An
    ensemble step gathers the propagators of its columns into one
    (columns, m, m) stack and applies them with one batched matmul. A
    trajectory's block is a whole number of chunks of L = ``_mask_chunk(m)``
    steps, whose (chunks, L, m, m) stack of propagators fits in BLOCK_BYTES,
    except that a renormalization or the run's end may cut it short; its
    ragged last chunk is padded with I. Each chunk is one call of one loop,
    ``dot(start state, states)``: with L = 1 the bound ``.dot`` of the
    step's cached propagator, else that of the chunk's stacked prefix
    products. Overflowing propagators give non-finite states without a
    numpy warning; the CLI refuses to write them (exit 2).
    """
    single = x0.ndim == 1
    steps, edge_count = bits.shape[-2:]
    columns = 1 if single else x0.shape[1]
    plan = step_plan(edges, n, abs(z), steps, np.iscomplexobj(z), columns)
    name, cols = _plan_name(plan), columns
    if plan is None:
        m = 2 * n if np.iscomplexobj(z) else n
        store = np.empty((propagator_cache_capacity(edge_count, steps * columns, m), m, m))
        slots = np.full(1 << edge_count, -1, dtype=np.intp)
        size = 0

        def lookup(bits):
            # the store rows of the masks of ``bits`` (..., E); keys are packed per block, so no
            # int64 copy of the run's keep bits is made
            nonlocal size
            keys = _mask_keys(bits)
            slot = slots[keys]
            if slot.min() < 0:
                fresh = np.zeros(slots.shape, dtype=bool)
                fresh[keys[slot < 0]] = True
                new = np.flatnonzero(fresh)
                slots[new] = np.arange(size, size + new.size)
                # bit e of a key keeps edge e
                us = _propagators(edges, n, new[:, None] >> np.arange(edge_count) & 1, z)
                _real_form(us, store[size:size + new.size])
                size += new.size
                slot = slots[keys]
            return slot
    if plan is None and single:
        chunk = _mask_chunk(m)
        name = f"mask-cache(chunk={chunk})"
        if chunk > 1:  # whole chunks, whose (chunks, chunk, m, m) stack fits in BLOCK_BYTES
            block = max(1, BLOCK_BYTES // (8 * m * m * chunk)) * chunk
        else:
            block = max(1, BLOCK_BYTES // (8 * m))
        dots = []  # the bound ``.dot`` of each filled row of store
        eye = np.eye(m)

        def advance(bits, start, stop, x):
            slot = lookup(bits[start:stop])
            count = stop - start
            chunks = -(-count // chunk)
            hist = np.empty((chunks * chunk, n), dtype=x.dtype)
            outs = list(hist.view(np.float64).reshape(chunks, chunk * m))
            if chunk == 1:
                dots.extend(row.dot for row in store[len(dots):size])
                ops, ends = list(map(dots.__getitem__, slot.tolist())), outs
            else:
                # the prefix products U_k ... U_1 of each chunk, a ragged last chunk padded with I
                prod = np.empty((chunks, chunk, m, m))
                flat = prod.reshape(-1, m, m)
                np.take(store, slot, axis=0, out=flat[:count], mode="clip")
                flat[count:] = eye
                # a separate output: matmul would copy an input that overlaps its output
                tmp = np.empty((chunks, m, m))
                for k in range(1, chunk):
                    np.matmul(prod[:, k], prod[:, k - 1], out=tmp)
                    prod[:, k] = tmp
                ops = [p.dot for p in prod.reshape(chunks, chunk * m, m)]
                ends = [out[-m:] for out in outs]
            # one call writes the chunk's states: out = (U_1 x, U_2 U_1 x, ...)
            for dot, src, out in zip(ops, [x.view(np.float64)] + ends[:-1], outs):
                dot(src, out)
            return hist[:count]
    elif plan is None:
        # the (cols, m, m) stack of gathered propagators fits in BLOCK_BYTES
        cols = min(columns, max(1, BLOCK_BYTES // (8 * m * m)))
        block = max(1, BLOCK_BYTES // (x0.itemsize * n * cols))
        gathered = np.empty((cols, m, m))

        def advance(bits, start, stop, x):
            count, c = stop - start, x.shape[1]
            us, ys = gathered[:c], np.empty((count, c, m, 1))
            # each column as the m-vector that its real-form propagator acts on
            y = np.ascontiguousarray(x.T).view(np.float64)[:, :, None]
            for slot, out in zip(lookup(bits[:, start:stop]).T, ys):
                y = np.matmul(np.take(store, slot, axis=0, out=us, mode="clip"), y, out=out)
            return np.ascontiguousarray(ys.reshape(count, c, m).view(x.dtype).transpose(0, 2, 1))
    elif single and _use_matrix(n, plan[0]):
        substeps, order = plan
        name = _plan_name(plan, "taylor-matrix")
        block = max(1, BLOCK_BYTES // (n * n * x0.itemsize))
        add, buf = np.add, np.empty(n, dtype=x0.dtype)

        def advance(bits, start, stop, x):
            # bound ``D.dot`` of each step; a substep is x + D x
            dots = [d.dot for d in _taylor_matrices(edges, n, bits[start:stop], z, substeps, order)]
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for dot, row in zip(dots, hist):
                for _ in range(substeps):
                    x = add(x, dot(x, buf), row)
            return hist
    else:
        substeps, order = plan
        coef_dot = _taylor_coef(order, x0.dtype).dot
        if single:  # the Laplacian of each step
            block = max(1, BLOCK_BYTES // (n * n * x0.itemsize))

            def appliers(bits):
                return [a.dot for a in laplacians(edges, n, bits, z / substeps)]
        else:  # the kept-edge weights (E, columns) of each step
            u_idx, v_idx = edges[:, 0], edges[:, 1]
            bt = np.zeros((n, edge_count))
            bt[u_idx, np.arange(edge_count)] = 1.0
            bt[v_idx, np.arange(edge_count)] = -1.0
            cols = min(columns, max(1, BLOCK_BYTES // (x0.itemsize * max((order + 1) * n, edge_count))))
            block = max(1, BLOCK_BYTES // (x0.itemsize * n * cols))
            scale = z / substeps

            def appliers(bits):
                return [partial(_edge_apply, u_idx, v_idx, bt, bits[:, j, :].T * scale)
                        for j in range(bits.shape[1])]

        def advance(bits, start, stop, x):
            hist = np.empty((stop - start,) + x.shape, dtype=x.dtype)
            v = np.empty((order + 1,) + x.shape, dtype=x.dtype)  # the Taylor terms
            rows, flat = list(v), v.reshape(order + 1, -1)
            for apply_a, row, out in zip(appliers(bits[..., start:stop, :]), hist,
                                         hist.reshape(stop - start, -1)):
                for _ in range(substeps):
                    rows[0][...] = x
                    _taylor_series(apply_a, rows, coef_dot, flat, out)
                    x = row
            return hist

    max_drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, columns, cols):
            # C order, so each column block's states are contiguous
            x = x0 if single else np.array(x0[:, c0:c0 + cols], order="C")
            block_bits = bits if single else bits[c0:c0 + cols]
            rec_i = 0
            if record_steps.shape[0] and record_steps[0] == 0:
                record(slice(0, 1), x[None])
                rec_i = 1
            start = 0
            while start < steps:
                stop = min(start + block, steps)
                if renorm_every:
                    stop = min(stop, (start // renorm_every + 1) * renorm_every)
                hist = advance(block_bits, start, stop, x)
                h = hist.reshape(stop - start, n, -1)  # a view with a column axis, also for one state
                norms = _norms(h, axis=1)
                drift = np.abs(norms - 1.0)
                max_drift = np.maximum(max_drift, drift.max())  # keeps a NaN drift, unlike max()
                if renorm_every and stop % renorm_every == 0:
                    fix = drift[-1] > renorm_tol
                    h[-1][:, fix] /= norms[-1][fix]
                rec_j = int(np.searchsorted(record_steps, stop, side="right"))
                record(slice(rec_i, rec_j), hist[record_steps[rec_i:rec_j] - start - 1])
                rec_i = rec_j
                x, start = hist[-1], stop
    return float(max_drift), name


def _trajectory(edges, n, z, bits, record_steps, x0, renorm_every, renorm_tol):
    """One trajectory through ``_ensemble`` -> (states at record_steps, max drift, propagator name)."""
    out = np.empty((record_steps.shape[0], n), dtype=x0.dtype)
    return (out,) + _ensemble(edges, n, z, bits, record_steps, x0, out.__setitem__, renorm_every, renorm_tol)


def trajectory_states(edges, n, tau, bits, record_steps, psi0, renorm_every, renorm_tol):
    """One quantum trajectory -> (states at record_steps, max |norm - 1|, propagator name)."""
    return _trajectory(edges, n, -1j * tau, bits, record_steps,
                       psi0.astype(np.complex128), renorm_every, renorm_tol)


def classical_trajectory(edges, n, tau, bits, record_steps, p0):
    """One classical trajectory -> (distributions at record_steps, max |sum - 1|, propagator name)."""
    return _trajectory(edges, n, -tau, bits, record_steps, p0.astype(np.float64), 0, 0.0)


# ---------------------------------------------------------------------------
# ensemble sums and moments
# ---------------------------------------------------------------------------


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


def ensemble_quantum(edges, n, tau, bits3, record_steps, psis0, renorm_every, renorm_tol):
    """Sum over trajectories of |psi><psi| and moments of the site probabilities |psi|^2.

    -> (sum_outer, moments, max |norm - 1|, propagator name); moments[i] is
    the per-site (count, mean, M2) at record step i (``merge_moments``).
    """
    n_rec = record_steps.shape[0]
    sum_outer = np.zeros((n_rec, n, n), dtype=np.complex128)
    moments = [(0, 0.0, 0.0)] * n_rec

    def record(k, xs):
        for j, x in enumerate(xs, k.start):
            sum_outer[j] += x @ x.conj().T
            moments[j] = merge_moments(moments[j], _column_moments(np.abs(x) ** 2))

    drift, name = _ensemble(edges, n, -1j * tau, bits3, record_steps,
                            psis0.T.astype(np.complex128), record, renorm_every, renorm_tol)
    return sum_outer, moments, drift, name


def ensemble_classical(edges, n, tau, bits3, record_steps, p0):
    """Sum over trajectories of p and per-site moments of p.

    -> (sum_dist, moments, max |sum(p) - 1|, propagator name), moments as in
    ``ensemble_quantum``.
    """
    n_rec = record_steps.shape[0]
    sum_dist = np.zeros((n_rec, n), dtype=np.float64)
    moments = [(0, 0.0, 0.0)] * n_rec

    def record(k, xs):
        for j, x in enumerate(xs, k.start):
            sum_dist[j] += x.sum(axis=1)
            moments[j] = merge_moments(moments[j], _column_moments(x))

    x0 = np.repeat(p0.astype(np.float64)[:, None], bits3.shape[0], axis=1)
    drift, name = _ensemble(edges, n, -tau, bits3, record_steps, x0, record, 0, 0.0)
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


def _set_bits(x: int) -> list[int]:
    """Indices of the set bits of x >= 0, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _automorphisms(edges: np.ndarray, n: int, limit: int) -> np.ndarray:
    """Node permutations (|G|, n) that map the edge set onto itself, identity first.

    Backtracking assigns the non-isolated nodes in breadth-first order. The
    tables are Python int bitsets: bit x of ``adj[u]`` marks x adjacent to
    u, and bit x of the candidate row of node w marks x as an image still
    open to w: a node of w's degree that is adjacent to the image of every
    assigned node u exactly when w is adjacent to u. Assigning v -> c
    narrows the rows of the nodes not yet assigned, so every completed
    assignment preserves adjacency. The identity branch is searched first.
    Isolated nodes stay fixed and take no part in the search. As soon as
    more than ``limit`` permutations are found the search stops and returns
    the identity alone.
    """
    identity = np.arange(n)
    adj = [0] * n
    for u, v in edges.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    order, seen = [], 0
    for root in np.unique(edges).tolist():
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append(root)
        head = len(order) - 1
        while head < len(order):  # breadth first through the component of root
            new = adj[order[head]] & ~seen
            seen |= new
            order.extend(_set_bits(new))
            head += 1
    degree = [adj[u].bit_count() for u in order]
    same_degree = dict.fromkeys(degree, 0)
    for u, d in zip(order, degree):
        same_degree[d] |= 1 << u
    # later[k]: for each node after position k, whether it is adjacent to order[k]
    later = [[adj[v] >> w & 1 for w in order[k + 1:]] for k, v in enumerate(order)]
    images, found = [0] * len(order), []

    def extend(k: int, cand: list[int], used: int) -> bool:
        # cand: candidate rows of order[k:]; used: the images taken; True once more than ``limit`` were found
        if k == len(order):
            found.append(images.copy())
            return len(found) > limit
        v, free = order[k], cand[0] & ~used
        for c in ([v] if free >> v & 1 else []) + _set_bits(free & ~(1 << v)):
            images[k], adj_c = c, adj[c]
            rest = [row & adj_c if a else row & ~adj_c for row, a in zip(cand[1:], later[k])]
            if extend(k + 1, rest, used | 1 << c):
                return True
        return False

    if extend(0, [same_degree[d] for d in degree], 0):
        return identity[None]
    perms = np.tile(identity, (len(found), 1))
    perms[:, order] = found
    return perms


def _orbit_representatives(edges: np.ndarray, perms: np.ndarray, lam: float):
    """Yield (bits, weights) of the orbit representatives of positive weight, in batches.

    A batch holds at most CHANNEL_BATCH rows, and at most as many as make
    one (rows, n, n) float64 stack of BLOCK_BYTES, so the Laplacians,
    cos/sin terms and Gram rows built from it stay in cache (145 rows for
    n = 15).

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
    batch = max(1, min(CHANNEL_BATCH, BLOCK_BYTES // (8 * n * n)))
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
        while bits_buf.shape[0] >= batch:
            yield bits_buf[:batch], w_buf[:batch]
            bits_buf, w_buf = bits_buf[batch:], w_buf[batch:]
    if bits_buf.shape[0]:
        yield bits_buf, w_buf


def channel_accumulate(edges, n, lam, tau):
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
    pay: it may hold at most 2^E // CHANNEL_BATCH elements, so at least
    CHANNEL_BATCH orbits remain to build (batches are sized by bytes and
    may be smaller), and at most f // E, so canonicalizing a mask (|G| E
    flops) costs less than building it (f flops). A larger or unsearched
    group is replaced by the identity alone, which builds every mask as
    before.
    """
    edge_count = edges.shape[0]
    substeps, _ = taylor_plan(edges, n, tau)
    squarings = (substeps - 1).bit_length()
    if substeps > MAX_SUBSTEPS:
        raise ValueError(
            f"a step of tau={tau:g} needs {squarings} squarings of its propagators, above the "
            f"limit of {MAX_SUBSTEPS.bit_length() - 1}; shorten tau"
        )
    _, order = taylor_plan(edges, n, tau / 2**squarings)
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
        e, s = _cos_sin(laplacians(edges, n, bits, tau / 2**squarings), order, squarings)
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
