"""Hot numeric kernels: per-step propagation and channel accumulation.

A step of a walk applies exp(z * H_r) to the state, where H_r is the
Laplacian of the edges kept at that step and z = -i*tau for the quantum walk
or z = -tau for the classical walk. Three propagators implement it:

* mask cache: a graph with at most CACHE_MAX_EDGES edges has at most 2^16
  realizations, so each distinct realization's propagator is built once and
  kept, found through a 2^E table of slots indexed by the mask. It is built
  as the exact channel builds its own: a truncated Taylor series of
  exp(z * H_r / 2^q) squared q times (``_squaring_plan``,
  ``_cache_propagators``), within about 2^q 2^-53 of the exponential, for
  the q squarings multiply the series' tail of 2^-53 and its round-off by
  about 2^q. The cache keeps real m x m propagators that act on the
  float64 view of a state (m = 2n quantum, written straight from cos - I
  and sin; m = n classical). An ensemble step applies those of all its
  columns with one batched matmul. A trajectory skips the steps that keep
  no edge: there H_r = 0 and U = I exactly, so the state stays as it is
  (41% of the steps of ring:4 at lambda = 0.2, (1 - lambda)^4). It steps
  the others in chunks of L steps (``_mask_chunk``): it gathers a block's
  propagators into one stack, forms each chunk's prefix products
  U_k ... U_1 with L - 1 batched matmuls over all chunks and writes the L
  states of a chunk with one (L m, m) matvec (Blelloch, CMU-CS-90-190,
  1990, for prefix products). On ring:4 (60 000 steps, tau = 1/600, seeds
  3, 7 and 11) the states are then within 6.7e-14 to 8.3e-14 (quantum) and
  2.5e-15 to 2.8e-15 (classical) of a long-double evolution one step at a
  time on the same propagators, and the norm drifts by 4.1e-13 to 4.2e-13
  (quantum) and 3.4e-13 (classical);
* Taylor action: larger graphs practically never repeat a realization, so
  exp(z * H_r) is applied to the state directly as ``substeps`` truncated
  Taylor series of ``order`` terms each (``taylor_plan``). The truncation
  error of each substep is at most 2^-53 times the norm of the state
  (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011);
* Taylor matrix: a trajectory on a small graph forms the same truncated
  polynomial P of each step as an explicit n x n matrix instead, for a
  block of steps at once, with the batched real products of the exact
  channel (``_taylor_matrices``). Each substep is then one matvec and one
  add, x + (P - I) x. Forming P costs order // 2 + 1 n x n products per
  step for the quantum walk and (order - 1) // 2 + 2 for the classical
  (``_series_products``: 3 and 4 at order 5, 4 and 4 at order 6), the
  powers of a @ a shared by the even and odd parts of the series
  (``_power_sums``), and saves ``order`` small numpy calls per substep
  (Moler & Van Loan, SIAM Rev. 45:3, 2003). Ensembles always use the
  action or the mask cache. An ensemble applies the action to all
  columns of a block at once through the graph's padded neighbour lists,
  width = its largest degree slots per node (``_neighbours``, the ELLPACK
  layout), and one slot more per node, the node itself: row i of H x is
  sum_k w[k, i] x[nbr[k, i]], each edge slot weighted by minus its edge's
  kept weight and the node's own slot, the last, by its kept degree, all
  taken into the slots once per step (``_gather_apply``). An apply is then
  one gather, one multiply and one sum over (width + 1) n entries per
  column, where the signed incidence product B^T diag(w) B x took n E
  and the form before this one, sum_k w[k, i] (x_i - x[nbr[k, i]]), four
  passes over width n. Its terms are no longer the incidence product's:
  on 20 draws of 16 columns at lambda = 0.5 it is within 2.2e-16 to
  4.0e-16 of the dense product, relative to the largest entry of H x, as
  the four-pass form was (2.2e-16 to 4.2e-16), on lattice2d:10x10,
  ring:100, complete:15, complete:30 and lattice2d:20x20; a 300-step,
  64-trajectory Monte Carlo run on lattice2d:10x10 moved p_mean by at
  most 2.2e-16 and p_stderr by 5e-18, at an equal norm drift. Measured
  with one BLAS thread, best of 25, at 16 quantum columns: 14.7 against
  21.0 us per apply on lattice2d:10x10 (four-pass), 11.9 against 13.3 on
  ring:100, 9.1 against 12.6 on complete:15, 26.3 against 39.9 on
  complete:30 and 62 against 64 on lattice2d:20x20.

``step_plan`` prices every route that a run may take in flops and calls and
returns the cheapest as a ``Route``: its kind, its plan, the chunk length of
a mask-cache trajectory and the name it reports. One driver, ``_ensemble``,
runs that route for every trajectory and ensemble kernel; it alone takes the
norm drift, renormalizes and picks the recorded states. The step kernels
report which propagator ran (``"mask-cache(chunk=L)"`` for a trajectory,
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

Every route builds its Laplacians with one scatter of the kept edges and
one (R, E) @ (E, n) product of the keep bits and the unsigned incidence for
the degrees (``laplacians``).

``channel_accumulate`` sums over all 2^E realizations without a spectral
decomposition. Each U_r = cos(tau H_r) - i sin(tau H_r) comes from real
batched products of truncated Taylor series by scaling and squaring
(``_squaring_plan``, ``_cos_sin``), and the Gram matrix of the realizations
is accumulated in real arithmetic over the n(n+1)/2 entries i <= j of
U_r - I (``_add_gram``). A graph automorphism g maps each mask to one of the
same kept count and probability, with U_{g.r} = P_g U_r P_g^T. So every mask
is enumerated, but a propagator is built only for the smallest mask of each
orbit under the automorphism group G, weighted by p_r / |Stab_r|; summing
the Gram matrix over the |G| relabelings then counts each of the
|G| / |Stab_r| masks of the orbit exactly once (McKay & Piperno, J. Symb.
Comput. 60:94, 2014, for the backtracking search of G). The scan for the
smallest masks and their |Stab_r| takes no lambda and runs in float32
(``_orbit_representatives``). All group work of a call is one ``Symmetry``
record (``_symmetry``): G, its element sigma of largest order (the rotation
that ``dynamics.ChannelMatrix`` evolves in), sigma's powers and the right
cosets <sigma> h, over which the sum over the |G| relabelings runs, the
<sigma> part summed by binary doubling (``_group_sum``): on ring:15 a copy
and seven gathers of the pair Gram instead of 30.

The exact channel also keeps what is alive at once small next to its
(n^2, n^2) complex Phi. glibc hands the free top of the heap back to the
system once it exceeds twice the largest block that the process has mapped
and released, and on this path that block is Phi. A call whose
temporaries reach twice Phi's size therefore returns pages at every call and
faults them in again at the next: on ring15-channel up to 3 500 minor faults
per repetition of its four calls, about a tenth of their time. So the orbit
scan ends before the first batch is built, the six (rows, n, n) stacks of
the batches take half of BLOCK_BYTES each and come from one ``_taylor_work``
buffer per call, which is freed before the group sum, the group sum's two
(m + 1)^2 complex buffers (m = n(n+1)/2 pairs) are allocated once per call
and its gathers and coset sum go into them and into the Gram itself, Phi
is gathered from the pair Gram with no (n^2, n^2) K before it, and the
rotation check of a ``dynamics.ChannelMatrix`` gathers row blocks of a
quarter of BLOCK_BYTES. On ring:15 the call's traced peak is 1.54 times
Phi's 0.81 MB. A doubling sum that took a fresh array for each gather
faulted in 2 264 pages per repetition of ring15-channel, against 0.

The step loops keep to one rule for the same reason: the buffers of a
block are allocated once per call, or they stay small next to the largest
block that the process has mapped and released. glibc maps a request
above its mmap threshold (128 KiB at first) with pages of its own, and
freeing such a mapping raises the threshold to its size and the trim
threshold to twice that; a block whose temporaries add up to more than the
trim threshold hands the heap's top back when they are freed and faults it
in again at the next block. Until ``graph.sample_keep_bits`` drew them in
blocks, every trajectory freed its one-shot draw of keep-bit uniforms
first (1.7 MB on complete15-walks), which hid this. Without it, the
Taylor-matrix loop's (block, n, n) stacks faulted in 2 333 pages per
repetition of complete15-walks, against 0 before (``ru_minflt`` around
each CLI call); with its complex D alone allocated once per call, 166 to
3 618, depending on the seed. So that loop takes every stack of its blocks
from one buffer per call (``_taylor_work``) and faults in none, and so
does the mask cache's build, with one buffer sized to its store's rows.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

CACHE_MAX_EDGES = 16
CACHE_MAX_BYTES = 1 << 28  # 256 MiB of cached propagators
# most propagators of the exact channel built per batch; the cost rule of
# ``channel_accumulate`` accepts a group only if it leaves this many orbits
CHANNEL_BATCH = 512
# per-substep truncation bound of the Taylor action, relative to the state norm
TAYLOR_TOL = 2.0**-53
# largest transient buffer: the Laplacian block and Taylor terms of a step
# kernel, each neighbour-slot buffer of an ensemble's Taylor action, the
# propagators gathered for an ensemble's mask-cache step, and each
# (rows, n, n) stack of a Taylor-matrix block, a mask-cache build or an exact
# channel batch; the prefix products of a mask-cache trajectory's block take
# four (``_ensemble``).
# The Taylor-matrix loop, the mask cache's build and the exact channel take all
# of their stacks from one buffer per call (``_taylor_work``), and the keep-bit
# draw's uniforms a quarter of this, below glibc's default 128 KiB mmap
# threshold (``graph.sample_keep_bits``); see the module docstring
BLOCK_BYTES = 1 << 18
# most Taylor substeps planned before anything runs, 2^24: over all steps of a
# trajectory or ensemble block (about 30 min at the ~110 us one action substep
# of lattice2d:10x10 takes, about 25 s at the ~1.5 us of a taylor-matrix
# substep of complete:9), and per step of the exact channel and the mask cache,
# which square them back in 24 squarings whose error of about 2^24 * 2^-53 =
# 1.9e-9 stays below the 1e-8 trace gate of ``dynamics.evolve_channel``
MAX_SUBSTEPS = 1 << 24
# flops that one small numpy call of the Taylor action costs: a 15 x 15 complex
# matvec, a row copy or the coefficient dot each take about 0.5 us, in which
# batched real 15 x 15 to 20 x 20 matmuls do about 15 000 flops (30 GFLOP/s);
# measured with 1 BLAS thread on a 2-vCPU Xeon, OpenBLAS 0.3.31 (``_taylor_step_flops``)
CALL_FLOPS = 15_000
# flops that each float64 of a neighbour slot of one column costs the ensemble's Taylor action:
# the four passes (gather, subtract, multiply, sum) of the slot apply before the diagonal slot took
# 2.7 to 4.8 ns per complex slot and 1.3 to 2.6 ns per real one at 16 and 64 columns on
# lattice2d:10x10, lattice2d:20x20, complete:15 and complete:30, one BLAS thread: 40 to 78 flops
# per float64 at the rate of CALL_FLOPS (``_taylor_step_flops``). Fitted to that apply, the price
# now counts a pass and a call per Taylor term too many for the three-pass product with its
# diagonal slot; it is kept until the step routes are priced again
SLOT_FLOPS = 50
# every RENORM_EVERY steps a quantum state whose norm drifted by more than RENORM_TOL is renormalized
RENORM_EVERY = 10_000
RENORM_TOL = 1e-12


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def propagator_cache_capacity(edge_count: int, max_distinct: int, dim: int) -> int:
    """Most real dim x dim float64 propagators the mask cache may hold; 0 when it does not fit."""
    if edge_count > CACHE_MAX_EDGES:
        return 0
    cap = min(1 << edge_count, max_distinct)
    if cap * dim * dim * 8 > CACHE_MAX_BYTES:
        return 0
    return cap


def laplacians(edges: np.ndarray, n: int, bits: np.ndarray, scale, out: np.ndarray | None = None,
               incidence: np.ndarray | None = None) -> np.ndarray:
    """scale * Laplacian of the kept edges, one (n, n) matrix per row of ``bits`` (R, E).

    The result is complex when ``scale`` is. It is written into ``out`` when
    that is given, which must hold zeros off the diagonal and the edges (as
    a previous result of the same graph does): only those are written. The
    edges of a Graph are distinct, so the off-diagonal scatter writes every
    entry at most once. The diagonal, scale times each kept degree, takes
    one (R, E) @ (E, n) product of the keep bits and the graph's
    ``_incidence``, in place of a row sum over the (R, n, n) stack: each
    degree is an exact integer, rounded once when it is scaled. A caller
    that builds one row at a time on a large graph passes the incidence in,
    made once per run.
    """
    w = np.multiply(bits, scale, dtype=np.result_type(scale, np.float64))
    h = np.zeros((w.shape[0], n, n), dtype=w.dtype) if out is None else out
    u, v = edges[:, 0], edges[:, 1]
    h[:, u, v] = -w
    h[:, v, u] = -w
    incidence = _incidence(edges, n) if incidence is None else incidence
    h.reshape(w.shape[0], n * n)[:, :: n + 1] = np.matmul(bits, incidence) * scale
    return h


def _incidence(edges: np.ndarray, n: int) -> np.ndarray:
    """The unsigned (E, n) incidence of the edges: 1 at both ends of each."""
    incidence, rows = np.zeros((edges.shape[0], n)), np.arange(edges.shape[0])
    incidence[rows, edges[:, 0]] = incidence[rows, edges[:, 1]] = 1.0
    return incidence


def _max_degree(edges: np.ndarray, n: int) -> int:
    """The largest node degree of the graph, 0 without edges."""
    return int(np.bincount(edges.ravel(), minlength=n).max(initial=0))


def _neighbours(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The padded neighbour lists of the graph: (nbr, eid), each (width, n), width its largest degree.

    Slot (k, i) holds the k-th edge eid[k, i] at node i, in ascending edge
    order, and its other end nbr[k, i]. A node of smaller degree fills its
    last slots with itself and with edge E = edges.shape[0], to which the
    caller gives weight zero. This is the ELLPACK layout of the Laplacian's
    off-diagonal (Rice & Boisvert, Solving Elliptic Problems Using ELLPACK,
    1985).
    """
    count = edges.shape[0]
    ends = edges.ravel()  # u_0, v_0, u_1, v_1, ...: each node's edges in ascending order
    order = np.argsort(ends, kind="stable")
    degree = np.bincount(ends, minlength=n)
    slot = np.arange(2 * count) - np.repeat(np.cumsum(degree) - degree, degree)
    nbr = np.tile(np.arange(n), (int(degree.max(initial=0)), 1))
    eid = np.full(nbr.shape, count)
    nbr[slot, ends[order]] = edges[:, ::-1].ravel()[order]
    eid[slot, ends[order]] = order // 2
    return nbr, eid


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
    x = 2.0 * tau * _max_degree(edges, n)
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


def _squaring_plan(edges: np.ndarray, n: int, tau: float) -> tuple[int, int]:
    """(squarings q, order) of a propagator exp(z * H_r), |z| = tau, built by scaling and squaring.

    With s the ``taylor_plan`` substeps, the step is halved q = ceil(log2 s)
    times and the order is planned for tau / 2^q (tail at most 2^-53). A
    step of more than MAX_SUBSTEPS substeps is refused.
    """
    substeps, _ = taylor_plan(edges, n, tau)
    squarings = (substeps - 1).bit_length()
    if substeps > MAX_SUBSTEPS:
        raise ValueError(
            f"a step of tau={tau:g} needs {squarings} squarings of its propagators, above the "
            f"limit of {MAX_SUBSTEPS.bit_length() - 1}; shorten tau"
        )
    return squarings, taylor_plan(edges, n, tau / 2**squarings)[1]


class Route(NamedTuple):
    """The step route that ``step_plan`` chose, which ``_ensemble`` runs as it stands."""

    kind: str  # "mask-cache", "taylor-matrix" or "taylor"
    plan: tuple[int, int]  # (squarings, order) of the cache's builds, else the Taylor (substeps, order)
    chunk: int  # steps L per prefix-product chunk of a mask-cache trajectory, else 1
    name: str  # the ``propagator`` that the run reports


def step_plan(edges: np.ndarray, n: int, tau: float, steps: int, quantum: bool,
              columns: int | None = None) -> Route:
    """The cheapest route of ``steps`` steps of a step kernel by its price in flops.

    ``columns`` is the column count of an ensemble, None for a trajectory.
    The routes are the Taylor action, for a trajectory the Taylor matrix
    (``_taylor_step_flops``), and the mask cache where it fits
    (``propagator_cache_capacity``, ``_cache_flops``), which builds once per
    distinct mask what the Taylor matrix builds once per step. A tie goes to
    the action, then to the Taylor matrix. A step of more than MAX_SUBSTEPS
    substeps is refused on every route (``_squaring_plan``), and the Taylor
    routes refuse a plan of more in all. Callers may plan before drawing any
    keep bits, so a refused plan allocates nothing.
    """
    edge_count = edges.shape[0]
    m = 2 * n if quantum else n
    plan = substeps, order = taylor_plan(edges, n, tau)
    routes = []  # (price, route), in the order that breaks ties
    if substeps * steps <= MAX_SUBSTEPS:
        prices = _taylor_step_flops(n, _max_degree(edges, n), plan, quantum, columns)
        for kind, price in zip(("taylor", "taylor-matrix"), prices[:1] if columns else prices):
            routes.append((steps * price, Route(kind, plan, 1, f"{kind}(substeps={substeps}, order={order})")))
    if propagator_cache_capacity(edge_count, steps * (columns or 1), m):
        squaring = _squaring_plan(edges, n, tau)
        chunk = 1 if columns else _mask_chunk(m)
        routes.append((_cache_flops(n, edge_count, squaring, steps, quantum, columns, chunk),
                       Route("mask-cache", squaring, chunk, "mask-cache" if columns else f"mask-cache(chunk={chunk})")))
    if not routes:
        raise ValueError(
            f"{steps} step(s) of tau={tau:g} plan {substeps * steps:.3g} Taylor substeps "
            f"({substeps:.3g} per step), above the limit of 2^{MAX_SUBSTEPS.bit_length() - 1}; "
            f"shorten tau or the run"
        )
    return min(routes, key=lambda priced: priced[0])[1]


def _cache_flops(n: int, edge_count: int, plan: tuple[int, int], steps: int, quantum: bool,
                 columns: int | None, chunk: int) -> float:
    """Price in flops of ``steps`` steps on the mask cache: a trajectory (columns None), or ``columns`` states.

    A mask on plan (squarings q, order K) takes the n x n products of a
    Taylor-matrix step (``_series_products``), 2 n^3 flops each, and 3
    more per squaring for the quantum walk (``_cos_sin``), 1 for the
    classical (``_exp_minus``); storing its real m x m form (m = 2n
    quantum, n classical) takes 2 m^2 flops and a call. N = steps columns draws of the M = 2^E masks meet at
    most M (1 - (1 - 1/M)^N) of them in expectation, the value for uniform
    draws (lambda = 1/2). A step then costs 2 m^2 flops per column and a
    call; a trajectory in ``chunk`` > 1 steps (``_mask_chunk``) makes a
    call per chunk instead, and 2 (chunk - 1) for the prefix products of
    its first block. Each call is priced at CALL_FLOPS.
    """
    squarings, order = plan
    m = 2 * n if quantum else n
    draws, masks = steps * (columns or 1), 2.0**edge_count
    distinct = masks * (1.0 - (1.0 - 1.0 / masks) ** draws)
    build = 2 * n**3 * (_series_products(order, quantum) + (3 if quantum else 1) * squarings) + 2 * m * m + CALL_FLOPS
    calls = steps if chunk == 1 else -(-steps // chunk) + 2 * (chunk - 1)
    return distinct * build + draws * 2 * m * m + calls * CALL_FLOPS


def _taylor_step_flops(n: int, width: int, plan: tuple[int, int], quantum: bool,
                       columns: int | None) -> tuple[int, int]:
    """Prices in flops of one step on the Taylor plan (substeps, order): (the action, the Taylor matrix).

    The action makes K + 2 calls per substep, K = order, and K applications
    of the step's Laplacian: 2 n^2 flops dense for a trajectory (columns
    None). An ensemble of ``columns`` states applies it through the
    neighbour slots (``_gather_apply``, ``width`` = the largest degree):
    three calls more and SLOT_FLOPS per float64 of its width n slots per
    column, and each step takes its weights into the slots with two calls.
    These were fitted to the four-pass apply that came before the product
    with a diagonal slot, which makes one pass and one call fewer per
    application (and three calls more per step for its weights); the price is
    kept as it was, so the routes stay as measured below, until the step
    routes are priced again.
    On 90 ensembles of graphs of at most 16 edges (rings, small lattices
    and complete graphs; tau 1e-4 to 1, 10 to 1000 steps, 1 to 256
    columns), timed on both routes in process with one BLAS thread, this
    price chose the faster of the action and the mask cache 86 times and
    lost 20.5 ms of the 910 ms that the faster routes took; the price of
    the dense incidence product before it, 4 n E flops per column and
    one call per apply, chose it 74 times and lost 93.6 ms. The misses
    are runs that build many masks, whose builds ``_cache_flops`` prices
    below their cost: lattice2d:2x6 over 100 steps of 64 columns at
    tau 0.01 took 29.8 ms on the cache that this price picks, 12.5 ms on
    the action. The Taylor matrix of a trajectory
    forms the step's polynomial with p n x n products (``_series_products``:
    p = K // 2 + 1 quantum, (K - 1) // 2 + 2 classical), 2 n^3 flops each,
    and makes two calls per substep. Each call is priced at CALL_FLOPS. The
    matrix is then cheaper where 2 p n^3 < substeps K (CALL_FLOPS + 2 n^2):
    at one substep and order 5, up to n = 23 (quantum) and 21 (classical).
    Measured with one BLAS thread, in process, 1000 steps of lambda = 0.4,
    best of 15, ms quantum / classical, matrix against action:
    - with substeps, the matrix won and the rule takes it: ring:26 at
      tau = 0.4 (2 substeps, order 16; 18.4 / 14.6 against 24.3 / 17.2),
      ring:33 at 0.9 (4, 17; 29.8 / 27.0 against 56.3 / 38.8) and ring:43
      at 1.9 (8, 17; 60.1 / 54.8 against 152.3 / 85.1);
    - at tau = 1e-4 (one substep), the quantum matrix won on complete:20
      (order 5; 6.2 against 7.8), where the rule takes it, and on
      complete:25 (9.8 against 11.0), where the rule takes the action; the
      classical action won on both (4.8 against 5.6 and 6.0 against 8.4),
      where the rule takes the matrix on complete:20 and the action on
      complete:25. On lattice2d:4x5 (order 4) the rule takes the matrix,
      which tied the quantum action (5.4 against 5.3) and lost the
      classical one (4.0 against 3.6). So a real matvec and a real call
      cost less than CALL_FLOPS, fitted to complex ones, prices them.
    """
    substeps, order = plan
    if columns is None:
        apply, weights = 2 * n * n, 0
    else:
        apply = 3 * CALL_FLOPS + SLOT_FLOPS * (2 if quantum else 1) * width * n * columns
        weights = 2 * CALL_FLOPS
    matrix = 2 * _series_products(order, quantum) * n**3 + 2 * substeps * CALL_FLOPS
    return substeps * ((order + 2) * CALL_FLOPS + order * apply) + weights, matrix


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
    steps makes S / L matvec calls and L - 1 product calls, each about two
    small calls (the matmul and the copy of its result), which is least at
    L = sqrt(S / 2) = 128 / m. Measured in process with one BLAS thread
    (40 000 steps, best of 12), against one matvec per step: the quantum
    walk on ring:3, ring:4 and ring:5 (m = 6, 8, 10) ran 2.8x, 1.6x and
    1.2x faster, the classical walk on ring:4, ring:5 and ring:8 3.1x, 2.7x
    and 1.5x; at m = 12 (the quantum ring:6, the classical ring:12) chunks
    of 8 to 32 steps tied or lost. A trajectory's blocks hold four such
    stacks and only the steps that keep an edge (``_ensemble``), which
    leaves fewer calls per step at the same L.
    """
    if 10 * m**3 >= CALL_FLOPS:
        return 1
    return max(1, round(math.sqrt(BLOCK_BYTES / (16 * m * m))))


def _taylor_work(n: int, rows: int, complex_d: bool = False) -> tuple:
    """One allocation for the stacks of ``_taylor_matrices`` or ``_cos_sin`` on batches of at most ``rows`` rows.

    -> (the complex (rows, n, n) D of the quantum Taylor matrix when
    ``complex_d``, else None, and the real (6, rows, n, n) stacks: the
    Laplacians, which stay zero off the edges, and the five of
    ``_power_sums``).
    """
    size = rows * n * n
    flat = np.zeros((6 + 2 * complex_d) * size)
    d = flat[6 * size:].view(np.complex128).reshape(rows, n, n) if complex_d else None
    return d, flat[:6 * size].reshape(6, rows, n, n)


def _series_products(order: int, quantum: bool) -> int:
    """n x n products that ``_cos_sin`` (quantum) or ``_exp_minus`` (classical) take at ``order``, before squaring."""
    return order // 2 + 1 if quantum else max(0, (order - 1) // 2) + 2


def _power_sums(a: np.ndarray, cx: list, cy: list, work: list) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k cx[k] b^k, sum_k cy[k] b^k), b = a @ a, for a batch a (R, n, n); cx, cy of one length.

    The powers b, b^2, ..., b^J (J + 1 terms each) are formed once and
    shared by both sums, which are linear combinations of them: J products,
    b included, against 2J - 1 for Horner's rule on each sum (Paterson &
    Stockmeyer, SIAM J. Comput. 2:60, 1973). Each power is scaled in place
    to the coefficient of the sum it enters next, so neither sum needs a
    scaled copy, and the constant terms go to the diagonal last. Every
    stack is one of the list of five ``work`` (R, n, n), and the two sums
    are two of its items; ``a`` is only read.
    """
    n = a.shape[-1]
    b, p, q, x, y = work
    if len(cx) > 1:
        np.matmul(a, a, out=b)
        np.multiply(b, cx[1], out=x)
        np.multiply(b, cy[1], out=y)
    else:
        x.fill(0.0)
        y.fill(0.0)
    power, scale = b, 1.0  # power = scale * b^(k - 1)
    for k in range(2, len(cx)):
        power = np.matmul(power, b, out=q if power is p else p)
        power *= cy[k] / scale
        y += power
        power *= cx[k] / cy[k]
        x += power
        scale = cx[k]
    x.reshape(-1, n * n)[:, :: n + 1] += cx[0]
    y.reshape(-1, n * n)[:, :: n + 1] += cy[0]
    return x, y


def _cos_sin(a: np.ndarray, order: int, squarings: int, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """cos(2^q a) - I and sin(2^q a), q = ``squarings``, for a batch of real symmetric a (R, n, n).

    cos a - I and sin a are the even part without its constant term and the
    odd part of the Taylor series of exp(i a), to degree 2J + 1 >= ``order``,
    J = order // 2: with b = a @ a, cos a - I = sum_{k=1..J} (-1)^k b^k / (2k)!
    and sin a = a sum_{k=0..J} (-1)^k b^k / (2k+1)!, from shared powers
    (``_power_sums``), J + 1 products in all against 2J by Horner's rule.
    For a short step both are small; carrying cos - I keeps their round-off
    relative to their own size, not to the unit diagonal. A step that needs
    squaring has cos - I of order one, so the squarings act on C = cos
    itself: cos 2x = cos^2 x - sin^2 x and sin 2x = 2 sin x cos x, the
    latter as CS + (CS)^T, which is exactly symmetric; three products each.
    Every stack is one of the five of ``work`` (5, R, n, n), new ones when
    it is None, and the results are two of them.
    """
    n, top = a.shape[-1], order // 2
    work = list(np.empty((5,) + a.shape) if work is None else work)
    e, odd = _power_sums(a, [0.0] + [(-1) ** k / math.factorial(2 * k) for k in range(1, top + 1)],
                         [(-1) ** k / math.factorial(2 * k + 1) for k in range(top + 1)], work)
    s = np.matmul(a, odd, out=work[0])
    if squarings:
        free = [x for x in work if x is not e and x is not s]
        e.reshape(-1, n * n)[:, :: n + 1] += 1.0
        for _ in range(squarings):
            cs, cc, ss = free
            np.matmul(e, s, out=cs)
            np.matmul(e, e, out=cc)
            np.matmul(s, s, out=ss)
            cc -= ss
            np.add(cs, cs.transpose(0, 2, 1), out=s)
            free, e = [cs, ss, e], cc
        e.reshape(-1, n * n)[:, :: n + 1] -= 1.0
    return e, s


def _exp_minus(a: np.ndarray, order: int, squarings: int, work: np.ndarray) -> np.ndarray:
    """exp(-2^q a) - I, q = ``squarings``, for a batch of real symmetric a (R, n, n), in a stack of ``work``.

    exp(-a) - I = (cosh a - I) - sinh a = a (a X - Y), with b = a @ a,
    X = (cosh a - I) / b = sum_k b^k / (2k+2)! and Y = sinh(a) / a =
    sum_k b^k / (2k+1)!, k = 0..J, J = (order - 1) // 2, to degree
    2J + 2 >= ``order``, from shared powers (``_power_sums``): J + 2
    products. The even and odd parts each reach cosh 1 - 1 = 0.54 and
    sinh 1 = 1.18 at ||a|| = 1, where exp(-1) - 1 = -0.63; their difference
    as two separately rounded matrices lost up to 2.5 eps against expm and
    doubled the column-sum error on complete:7 at tau = 0.9 (11 substeps,
    order 18). Ending on a product with a keeps the column sums of a
    stochastic step, as Horner's rule did, to that product's round-off.
    The squarings act on D = P - I: (I + D)^2 - I = 2D + D D. ``work`` is
    five stacks of a's shape (5, R, n, n).
    """
    top = max(0, (order - 1) // 2)
    work = list(work)
    x, y = _power_sums(a, [1.0 / math.factorial(2 * k + 2) for k in range(top + 1)],
                       [1.0 / math.factorial(2 * k + 1) for k in range(top + 1)], work)
    t = np.matmul(a, x, out=work[0])
    t -= y
    d, free = np.matmul(a, t, out=work[1]), t
    for _ in range(squarings):
        np.matmul(d, d, out=free)
        d *= 2.0
        free += d
        d, free = free, d
    return d


def _taylor_matrices(edges: np.ndarray, n: int, bits: np.ndarray, z, substeps: int,
                     order: int, work: tuple | None = None, squarings: int = 0) -> np.ndarray:
    """D = P^(2^q) - I for each row of ``bits``, P the Taylor polynomial of exp(z * H_r / substeps).

    P is the polynomial that the action applies, to degree >= ``order``, so
    its tail obeys the same 2^-53 bound. With a = |z| H_r / substeps real,
    the quantum D (z = -i tau) is (cos a - I) - i sin a from ``_cos_sin``,
    the classical one (z = -tau) exp(-a) - I from ``_exp_minus``; both also
    take the q = ``squarings`` squarings, and all products are real. A
    substep is x + D x: carrying D keeps its round-off relative to the
    step's size. Rounding P's diagonal 1 + D_ii instead repeats one error
    at every step with the same D_ii (the same kept degree on a complete
    graph), so the norm drifts coherently: on complete:15 at tau = 1e-4, by
    7.6e-13 over 1e5 steps, against 9.4e-15 for x + D x. With the shared
    powers of ``_power_sums`` in place of Horner's rule, 1e5 steps there
    (lambda = 0.3, seeds 7 and 11, no renormalization) drift by 1.9e-14
    and 1.3e-14 (quantum; 2.2e-14 and 1.4e-14 before) and 3.2e-14 and
    7.0e-14 (classical; 3.2e-14 and 7.1e-14). Building D took 5.3 of the
    8.7 ms of complete15-walks' quantum trajectory; the shared powers take
    3 products per step instead of 4 at its order 5. Every stack is taken
    from the first rows of a ``_taylor_work`` buffer, a new one when
    ``work`` is None, and D is one of them.
    """
    rows, quantum = bits.shape[0], np.iscomplexobj(z)
    d, stacks = _taylor_work(n, rows, quantum) if work is None else work
    stacks = stacks[:, :rows]
    a = laplacians(edges, n, bits, abs(z) / substeps, stacks[0])
    if not quantum:
        return _exp_minus(a, order, squarings, stacks[1:])
    e, s = _cos_sin(a, order, squarings, stacks[1:])
    d = d[:rows]
    d.real = e
    np.negative(s, out=d.imag)
    return d


def _cache_propagators(edges: np.ndarray, n: int, bits: np.ndarray, z, plan: tuple[int, int],
                       work: tuple, out: np.ndarray) -> None:
    """Write into ``out`` (R, m, m) the real propagators U = I + D that the mask cache keeps, one per row of bits.

    D = exp(z * H_r) - I is built on the scaling-and-squaring ``plan``
    (squarings q, order) as ``_taylor_matrices`` builds it, from the stacks
    of ``work``. The classical U is real (m = n). The quantum
    U = (I + e) - i s, e = cos - I and s = sin, is written as the (2n, 2n)
    matrix that acts on x.view(float64), the interleaved real and imaginary
    parts of x, as U acts on x: entry (i, j) becomes the block
    [[I + e, s], [-s, I + e]] at rows 2i, 2i + 1 and columns 2j, 2j + 1,
    straight from e and s. Numpy's batched real 8 x 8 products run about
    four times faster than complex 4 x 4 ones (75-140 against 320-510 ns
    per product).
    """
    (q, order), rows = plan, bits.shape[0]
    if not np.iscomplexobj(z):
        out[...] = _taylor_matrices(edges, n, bits, z, 2**q, order, work, q)
        out.reshape(rows, n * n)[:, :: n + 1] += 1.0
        return
    stacks = work[1][:, :rows]
    e, s = _cos_sin(laplacians(edges, n, bits, abs(z) / 2**q, stacks[0]), order, q, stacks[1:])
    e.reshape(rows, n * n)[:, :: n + 1] += 1.0
    blocks = out.reshape(rows, n, 2, n, 2)
    blocks[:, :, 0, :, 0] = blocks[:, :, 1, :, 1] = e
    blocks[:, :, 0, :, 1] = s
    np.negative(s, out=blocks[:, :, 1, :, 0])


def _squares(d: np.ndarray, count: int) -> list[np.ndarray]:
    """[P - I, P^2 - I, P^4 - I, ...], ``count`` of them, from D = P - I by (I + D)^2 - I = 2D + D D."""
    out = [d]
    while len(out) < count:
        square = out[-1] @ out[-1]
        square += 2.0 * out[-1]
        out.append(square)
    return out


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


def _mask_keys(bits: np.ndarray) -> np.ndarray:
    """Pack keep bits (..., E) into int64 mask keys, E <= 62."""
    pow2 = np.left_shift(np.int64(1), np.arange(bits.shape[-1], dtype=np.int64))
    return bits.astype(np.int64) @ pow2


def _norms(h: np.ndarray, work: np.ndarray | None) -> np.ndarray:
    """The conserved norm of each state of h (steps, n, columns): 2-norm or total probability.

    Complex states take ``np.linalg.norm``'s ufunc steps along axis 1, so the
    norms are bit-identical to it, a few steps at a time in the flat complex
    buffer ``work`` (at least one step's entries) instead of h-sized temporaries.
    """
    if not np.iscomplexobj(h):
        return h.sum(axis=1)
    out = np.empty((h.shape[0], h.shape[2]))
    rows = max(1, work.size // h[0].size)
    for s in range(0, h.shape[0], rows):
        part = h[s:s + rows]
        squares = np.conjugate(part, out=work[:part.size].reshape(part.shape))
        squares *= part
        np.sqrt(np.add.reduce(squares.real, axis=1), out=out[s:s + rows])
    return out


# ---------------------------------------------------------------------------
# the step driver of trajectories and ensembles
# ---------------------------------------------------------------------------


def _gather_apply(nbr, w, gathered, x, y):
    """y = H x for the (n, T) state block x, H taken from the weights w ((width + 1) n, T) of its slots.

    ``nbr`` is the flattened slot table: the neighbour table of
    ``_neighbours`` and one more row, each node itself. w holds each slot's
    weight per column: minus the kept-edge weight on an edge slot, zero on a
    padded one, and the node's weighted kept degree on its own slot.
    ``gathered`` is a buffer of w's shape. Row i of H x is
    sum_k w[k, i] x[nbr[k, i]], summed over k in slot order, the diagonal
    last: one gather, one multiply and one sum, the ELLPACK product (Bell &
    Garland, SC 2009). It calls the method and the ufunc, not the Python
    wrappers np.take and ndarray.sum: about 1 us less of a 16 us apply on
    lattice2d:10x10 at 16 columns.
    """
    x.take(nbr, axis=0, out=gathered, mode="clip")
    gathered *= w
    np.add.reduce(gathered.reshape((-1,) + x.shape), axis=0, out=y)


def _blocks(steps: int, block: int, renorm_every: int):
    """(start, stop) of each block of a run: ``block`` steps at most, cut at the multiples of ``renorm_every``."""
    start = 0
    while start < steps:
        stop = min(start + block, steps)
        if renorm_every:
            stop = min(stop, (start // renorm_every + 1) * renorm_every)
        yield start, stop
        start = stop


def _ensemble(edges, n, z, bits, record_steps, x0, record):
    """The step loop of every trajectory and ensemble kernel -> (max drift, propagator name).

    It runs the route that ``step_plan`` returns for the call as it stands.
    A trajectory is one state x0 (n,) with keep bits (S, E), an ensemble
    one state per column, x0 (n, T) with keep bits (T, S, E), stepped in
    blocks of columns. Steps run in blocks; each block returns its states and
    the row of them that holds each step's state, from which the norm drift
    and the recorded rows are taken at once: ``record(k, xs)`` receives the
    states xs at record_steps[k], k a slice. For the quantum walk (complex
    z) blocks end at multiples of RENORM_EVERY, where a state whose norm
    drifted by more than RENORM_TOL is renormalized; a classical walk is
    never renormalized. The renormalized state is the carry to the next
    block and the record of the block's last step, never a row of the
    block's states, which earlier steps may share.

    The Taylor action of an ensemble applies each step's Laplacian to all
    columns of a block through the graph's neighbour slots and one slot
    per node for the diagonal (``_gather_apply``): each step takes its keep
    bits into the edge slots and sums them over each node's slots, its kept
    degree as an exact integer, and looks each slot's weight up, -z / s
    times the keep bit or z / s times the degree (s substeps), so the
    diagonal is rounded once, as ``laplacians`` rounds it. On
    lattice2d:10x10 at 16 columns this took 17 us per step, against 23 us
    for a broadcast multiply of the gathered bits and degrees by -z / s and
    z / s and 11 us for the edge weights alone before the diagonal slot
    (one BLAS thread, best of 7). The Taylor action takes its
    terms and a block's states, and an ensemble its slot buffers, once per
    call, at the width of a full column block, of which a narrower last
    block uses the leading part. On lattice10x10-montecarlo (``ru_minflt`` around each
    CLI call, the benchmark's reference computation between calls, 14
    heap layouts) the call then faulted in 244 to 333 pages per
    repetition, against 414 to 421 when they were allocated per block and
    the Monte Carlo sums were not built in place. Every route takes the
    norms through half of BLOCK_BYTES held for the call (``_norms``; a
    ring:4 trajectory's block in one pass), where ``np.linalg.norm`` made
    two temporaries of the block's size: 192 pages per repetition
    then, against 261 (14 other layouts).

    The mask cache is one store of real propagators per call, shared by its
    column blocks; a 2^E table of slots maps each mask key to its row, and
    the masks new to a block are built together (``_taylor_matrices``). An
    ensemble step gathers the propagators of its columns into one
    (columns, m, m) stack and applies them with one batched matmul.

    A trajectory advances only the steps whose mask keeps an edge: a step
    that keeps none has U = I, so it is skipped and its mask never built.
    The moving steps of a block form chunks of the route's L steps
    (``_mask_chunk``), the ragged last one padded with I. A block holds as
    many steps as would make a (chunks, L, m, m) stack of 4 BLOCK_BYTES if
    every step moved (with L = 1, as many as make BLOCK_BYTES of states),
    except that a renormalization or the run's end may cut it short. Each
    chunk is one call of one loop, ``dot(start state, states)``: with L = 1
    the bound ``.dot`` of the step's cached propagator, else that of the
    chunk's stacked prefix products. The block returns its start state and
    the states of its moving steps, and step s's row is the running count
    of moving steps up to s: the drift is taken over the rows from the
    first step's on, the start state only when a leading step is idle, and
    the records through the rows, with no ``take`` that expands the states
    to every step. The states and the prefix stack are held for the call,
    the stack sized by one pass over the keep bits for the most moving
    steps that a block has. Allocated per block, they faulted in 254 to
    1 360 pages per repetition of ring4-longtime (``ru_minflt`` around each
    CLI call in the benchmark's worker, three seeds), as glibc handed back
    the stack freed at the heap's top; held, 0 to 2, against 137 to 146
    for the expanding driver. Measured on ring:4's 60 000-step quantum
    trajectory (tau = 1/600, lambda = 0.2, seed 7, in process, one BLAS
    thread, best of 21): 11.1 to 11.9 ms, against 18.1 to 19.7 ms when
    every step moved in stacks of one BLOCK_BYTES; skipping alone gave
    16.4 to 16.9 ms, and stacks of 2 and 8 BLOCK_BYTES 12.6 to 13.5 and 16
    to 18 ms (the latter outgrow the cache). Every step recorded, the
    expanding driver took 10.5 to 10.6 ms and this one 10.1 to 10.5 ms
    (best of 7, three alternating rounds), with equal states. The stack
    and states put the call's traced memory peak at 1.17 MB (1.64 MB at
    lambda = 1).
    """
    single = x0.ndim == 1
    steps, edge_count = bits.shape[-2:]
    cols = columns = 1 if single else x0.shape[1]  # cols: columns per block
    route = step_plan(edges, n, abs(z), steps, np.iscomplexobj(z), None if single else columns)
    renorm_every = RENORM_EVERY if np.iscomplexobj(z) else 0
    if route.kind == "mask-cache":
        m = 2 * n if np.iscomplexobj(z) else n
        store = np.empty((propagator_cache_capacity(edge_count, steps * columns, m), m, m))
        slots = np.full(1 << edge_count, -1, dtype=np.intp)
        size, work = 0, None
        # masks per build: a (rows, n, n) stack is half of BLOCK_BYTES, and no more rows than the store
        rows = max(1, min(BLOCK_BYTES // (16 * n * n), store.shape[0]))

        def lookup(keys):
            # the store rows of the mask ``keys``; they are packed per block, so no int64 copy of
            # the run's keep bits is made
            nonlocal size, work
            slot = slots[keys]
            if slot.min(initial=0) < 0:
                fresh = np.zeros(slots.shape, dtype=bool)
                fresh[keys[slot < 0]] = True
                new = np.flatnonzero(fresh)
                slots[new] = np.arange(size, size + new.size)
                if work is None:  # the build's stacks, once per call
                    work = _taylor_work(n, rows)
                for r0 in range(0, new.size, rows):  # U = I + D, as the exact channel builds it
                    built = new[r0:r0 + rows]
                    _cache_propagators(edges, n, _mask_bits(built, edge_count), z, route.plan, work,
                                       store[size + r0:size + r0 + built.size])
                size += new.size
                slot = slots[keys]
            return slot
    if route.kind == "mask-cache" and single:
        chunk = route.chunk
        if chunk > 1:  # whole chunks, whose (chunks, chunk, m, m) stack fits in 4 BLOCK_BYTES
            block = max(1, 4 * BLOCK_BYTES // (8 * m * m * chunk)) * chunk
        else:
            block = max(1, BLOCK_BYTES // (8 * m))
        dots = []  # the bound ``.dot`` of each filled row of store
        eye = np.eye(m)
        # the states of a block and, for the most moving steps that a block has, its prefix
        # products, once per call (see the docstring)
        states = np.empty((block + 1) * n, dtype=x0.dtype)
        if chunk > 1:
            moving = np.zeros(steps, dtype=bool)  # the steps that keep an edge, a pass per edge
            for column in bits.T:
                np.logical_or(moving, column, out=moving)
            most = -(-max((np.count_nonzero(moving[start:stop])
                           for start, stop in _blocks(steps, block, renorm_every)), default=0) // chunk)
            prods, tmps = np.empty((most, chunk, m, m)), np.empty((most, m, m))
            del moving

        def advance(bits, start, stop, x):
            keys = _mask_keys(bits[start:stop])
            moved = keys != 0
            slot = lookup(keys[moved])  # only the steps that keep an edge move the state
            count = slot.shape[0]
            chunks = -(-count // chunk)
            # row 0 is the block's start state, row i the state after the i-th moving step
            hist = states[:(chunks * chunk + 1) * n].reshape(-1, n)
            hist[0] = x
            outs = list(hist[1:].view(np.float64).reshape(chunks, chunk * m))
            if chunk == 1:
                dots.extend(row.dot for row in store[len(dots):size])
                ops, ends = list(map(dots.__getitem__, slot.tolist())), outs
            else:
                # the prefix products U_k ... U_1 of each chunk, a ragged last chunk padded with I
                prod = prods[:chunks]
                flat = prod.reshape(-1, m, m)
                np.take(store, slot, axis=0, out=flat[:count], mode="clip")
                flat[count:] = eye
                # a separate output: matmul would copy an input that overlaps its output
                tmp = tmps[:chunks]
                for k in range(1, chunk):
                    np.matmul(prod[:, k], prod[:, k - 1], out=tmp)
                    prod[:, k] = tmp
                ops = [p.dot for p in prod.reshape(chunks, chunk * m, m)]
                ends = [out[-m:] for out in outs]
            # one call writes the chunk's states: out = (U_1 x, U_2 U_1 x, ...)
            for dot, src, out in zip(ops, [x.view(np.float64)] + ends[:-1], outs):
                dot(src, out)
            # an idle step repeats the state before it: each step's row is the count of moving steps
            return hist[:count + 1], np.cumsum(moved)
    elif route.kind == "mask-cache":
        # the (cols, m, m) stack of gathered propagators fits in BLOCK_BYTES
        cols = min(columns, max(1, BLOCK_BYTES // (8 * m * m)))
        block = max(1, BLOCK_BYTES // (x0.itemsize * n * cols))
        gathered = np.empty((cols, m, m))

        def advance(bits, start, stop, x):
            count, c = stop - start, x.shape[1]
            us, ys = gathered[:c], np.empty((count, c, m, 1))
            # each column as the m-vector that its real-form propagator acts on
            y = np.ascontiguousarray(x.T).view(np.float64)[:, :, None]
            for slot, out in zip(lookup(_mask_keys(bits[:, start:stop])).T, ys):
                y = np.matmul(np.take(store, slot, axis=0, out=us, mode="clip"), y, out=out)
            return np.ascontiguousarray(ys.reshape(count, c, m).view(x.dtype).transpose(0, 2, 1)), every[:count]
    elif route.kind == "taylor-matrix":
        substeps, order = route.plan
        block = max(1, BLOCK_BYTES // (n * n * x0.itemsize))
        add, buf = np.add, np.empty(n, dtype=x0.dtype)
        work = _taylor_work(n, block, np.iscomplexobj(z))  # every stack of a block, one buffer per call

        def advance(bits, start, stop, x):
            # bound ``D.dot`` of each step; a substep is x + D x
            dots = [d.dot for d in _taylor_matrices(edges, n, bits[start:stop], z, substeps, order, work)]
            hist = np.empty((stop - start, n), dtype=x.dtype)
            for dot, row in zip(dots, hist):
                for _ in range(substeps):
                    x = add(x, dot(x, buf), row)
            return hist, every[:stop - start]
    else:
        substeps, order = route.plan
        coef_dot = _taylor_coef(order, x0.dtype).dot
        if single:  # the Laplacian of each step
            block = max(1, BLOCK_BYTES // (n * n * x0.itemsize))
            incidence = _incidence(edges, n)

            def appliers(bits):
                return [a.dot for a in laplacians(edges, n, bits, z / substeps, incidence=incidence)]
        else:  # the weights of each step, in the slots of the neighbour table and of each node itself
            nbr, eid = _neighbours(edges, n)
            width, scale = nbr.shape[0], z / substeps
            nbr, eid = np.vstack([nbr, np.arange(n)]).ravel(), eid.ravel()
            slots = nbr.size
            # an edge slot's weight by its keep bit, a node's own slot's by its kept degree
            edge_table, degree_table = np.array([0.0, -scale]), scale * np.arange(width + 1)
            cols = min(columns, max(1, BLOCK_BYTES // (x0.itemsize * max((order + 1) * n, slots))))
            block = max(1, BLOCK_BYTES // (x0.itemsize * n * cols))
            # the slot weights and the gathered states, and the (E + 1, T) keep bits and the keep bit
            # or degree of each slot, once per call
            buffers = np.empty(2 * slots * cols, dtype=x0.dtype)
            counts = np.empty((edge_count + 1 + slots) * cols, dtype=np.intp)

            def appliers(bits):
                c = bits.shape[0]  # the last column block may be narrower
                weights, gathered = buffers[:2 * slots * c].reshape(2, slots, c)
                kept = counts[:(edge_count + 1) * c].reshape(edge_count + 1, c)
                kept[edge_count] = 0  # the padded slots' edge
                codes = counts[(edge_count + 1) * c:][:slots * c].reshape(width + 1, n * c)
                slot_rows = weights.reshape(width + 1, n * c)
                apply = partial(_gather_apply, nbr, weights, gathered)
                for j in range(bits.shape[1]):
                    np.copyto(kept[:edge_count], bits[:, j, :].T)
                    kept.take(eid, axis=0, out=codes[:width].reshape(width * n, c), mode="clip")
                    np.add.reduce(codes[:width], axis=0, out=codes[width])
                    edge_table.take(codes[:width], out=slot_rows[:width], mode="clip")
                    degree_table.take(codes[width], out=slot_rows[width], mode="clip")
                    yield apply

        # the Taylor terms and the states of a block, once per call
        terms = np.empty((order + 1) * n * cols, dtype=x0.dtype)
        states = np.empty(block * n * cols, dtype=x0.dtype)

        def advance(bits, start, stop, x):
            hist = states[:(stop - start) * x.size].reshape((stop - start,) + x.shape)
            v = terms[:(order + 1) * x.size].reshape((order + 1,) + x.shape)
            rows, flat = list(v), v.reshape(order + 1, -1)
            for apply_a, row, out in zip(appliers(bits[..., start:stop, :]), hist,
                                         hist.reshape(stop - start, -1)):
                for _ in range(substeps):
                    rows[0][...] = x
                    _taylor_series(apply_a, rows, coef_dot, flat, out)
                    x = row
            return hist, every[:stop - start]

    every = np.arange(block)  # the rows of a block that holds one state per step
    max_drift = 0.0
    # the squared amplitudes of a block's steps, at most half of BLOCK_BYTES, once per call (``_norms``)
    squares = (np.empty(min(block, max(1, BLOCK_BYTES // (32 * n * cols))) * n * cols, dtype=x0.dtype)
               if np.iscomplexobj(z) else None)
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, columns, cols):
            # C order, so each column block's states are contiguous
            x = x0 if single else np.array(x0[:, c0:c0 + cols], order="C")
            block_bits = bits if single else bits[c0:c0 + cols]
            rec_i = 0
            if record_steps.shape[0] and record_steps[0] == 0:
                record(slice(0, 1), x[None])
                rec_i = 1
            for start, stop in _blocks(steps, block, renorm_every):
                # row_of[s]: the row of hist that holds the state after step start + s + 1; the last
                # row is the block's last state, and every row from row_of[0] on is some step's
                hist, row_of = advance(block_bits, start, stop, x)
                # a view with a column axis, also for one state
                h = hist[row_of[0]:].reshape(hist.shape[0] - row_of[0], n, -1)
                norms = _norms(h, squares)
                drift = np.abs(norms - 1.0)
                max_drift = np.maximum(max_drift, drift.max())  # keeps a NaN drift, unlike max()
                rec_j = int(np.searchsorted(record_steps, stop, side="right"))
                xs = hist[row_of[record_steps[rec_i:rec_j] - start - 1]]
                x = hist[-1].copy()
                if renorm_every and stop % renorm_every == 0:
                    fix = drift[-1] > RENORM_TOL
                    x.reshape(n, -1)[:, fix] /= norms[-1][fix]
                    if rec_j > rec_i and record_steps[rec_j - 1] == stop:
                        xs[-1] = x  # not in hist: an earlier idle step may share the last row
                record(slice(rec_i, rec_j), xs)
                rec_i = rec_j
                del hist, h  # states that advance allocated per block are freed before the next block
    return float(max_drift), route.name


def _trajectory(edges, n, z, bits, record_steps, x0):
    """One trajectory through ``_ensemble`` -> (states at record_steps, max drift, propagator name)."""
    out = np.empty((record_steps.shape[0], n), dtype=x0.dtype)
    return (out,) + _ensemble(edges, n, z, bits, record_steps, x0, out.__setitem__)


def trajectory_states(edges, n, tau, bits, record_steps, psi0):
    """One quantum trajectory -> (states at record_steps, max |norm - 1|, propagator name)."""
    return _trajectory(edges, n, -1j * tau, bits, record_steps, psi0.astype(np.complex128))


def classical_trajectory(edges, n, tau, bits, record_steps, p0):
    """One classical trajectory -> (distributions at record_steps, max |sum - 1|, propagator name)."""
    return _trajectory(edges, n, -tau, bits, record_steps, p0.astype(np.float64))


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


def ensemble_quantum(edges, n, tau, bits3, record_steps, psis0):
    """Sum over trajectories of |psi><psi| and moments of the site probabilities |psi|^2.

    -> (sum_outer, moments, max |norm - 1|, propagator name); moments[i] is
    the per-site (count, mean, M2) at record step i (``merge_moments``).
    """
    n_rec = record_steps.shape[0]
    sum_outer = np.zeros((n_rec, n, n), dtype=np.complex128)
    moments = [(0, 0.0, 0.0)] * n_rec
    outer = np.empty((n, n), dtype=np.complex128)

    def record(k, xs):
        for j, x in enumerate(xs, k.start):
            sum_outer[j] += np.matmul(x, x.conj().T, out=outer)
            moments[j] = merge_moments(moments[j], _column_moments(np.abs(x) ** 2))

    drift, name = _ensemble(edges, n, -1j * tau, bits3, record_steps, psis0.T.astype(np.complex128), record)
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
    drift, name = _ensemble(edges, n, -tau, bits3, record_steps, x0, record)
    return sum_dist, moments, drift, name


# ---------------------------------------------------------------------------
# exact channel
# ---------------------------------------------------------------------------


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


def _mask_bits(masks: np.ndarray, count: int) -> np.ndarray:
    """Bit e < ``count`` of each int64 mask, as uint8 (masks, count), from its little-endian bytes."""
    octets = masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little")


def _orbit_representatives(edges: np.ndarray, perms: np.ndarray):
    """(masks, |Stab_r|): the int64 masks of the orbit representatives under ``perms``, ascending.

    Mask r's image under g keeps edge pi_g(e) for every kept e, where
    pi_g(e) is the edge {g(u_e), g(v_e)}; as a number it is
    sum_e bit_e 2^pi_g(e). A mask represents its orbit when no image is
    smaller, and |Stab_r| is the number of images equal to r. The orbit
    holds |G| / |Stab_r| masks of one kept count, so a caller's weight
    w_r / |Stab_r| summed over all g in G counts each of them once.

    The scan runs in float32, which is exact here: every image, and every
    partial sum or difference formed from images and masks, is an integer
    below 2^MAX_ENUM_EDGES = 2^24 in magnitude, within float32's 24-bit
    significand. Masks are scanned in aligned chunks of 2^b, b as large as
    lets the (|G|, 2^b) float32 images fit in BLOCK_BYTES: mask
    h 2^b + r has the image base[g, r] + offset_h[g], where base holds the
    images of the 2^b low parts (computed once) and offset_h those of the
    high part h. Most masks are not the smallest of their orbit, so a
    prefilter first drops every mask with a smaller image under the first
    four non-identity elements of G, base[g, r] - r < h 2^b - offset_h[g];
    only the rest are compared with all of G (on ring:15, 8 971 of
    32 768 masks, of which 1 224 represent their orbits).
    """
    edge_count = edges.shape[0]
    n = perms.shape[1]
    eid = np.zeros((n, n), dtype=np.int64)
    eid[edges[:, 0], edges[:, 1]] = eid[edges[:, 1], edges[:, 0]] = np.arange(edge_count)
    powers = np.ldexp(np.float32(1.0), eid[perms[:, edges[:, 0]], perms[:, edges[:, 1]]])  # (|G|, E)
    low = min(edge_count, max(0, (BLOCK_BYTES // (4 * perms.shape[0])).bit_length() - 1))
    r = np.arange(1 << low)
    base = powers[:, :low] @ _mask_bits(r, low).T  # (|G|, 2^low)
    head = base[1:5] - r.astype(np.float32)
    high = np.arange(edge_count - low)
    found, stabs = [], []
    for start in range(0, 1 << edge_count, 1 << low):
        offset = powers[:, low:] @ (start >> low >> high & 1).astype(np.float32)  # (|G|,)
        masks = np.flatnonzero((head >= start - offset[1:5, None]).all(axis=0))
        images = base.take(masks, axis=1)
        images += offset[:, None]
        masks += start
        rep = images.min(axis=0) == masks
        found.append(masks[rep])
        stabs.append((images[:, rep] == found[-1]).sum(axis=0))
    return np.concatenate(found).astype(np.int64, copy=False), np.concatenate(stabs)


def _gram_rows(e: np.ndarray, s: np.ndarray, weights: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The stacked rows [x; y] (2R, k + 1) of w = x + i y = sqrt(weight) (conj(D) on the pairs, then 1).

    D = U - I = e - i s for the R propagators of a batch, e = cos - I and
    s = sin (R, n, n); ``upper`` holds the k flat indices of the pairs
    i <= j. The rows are gathered with ``take``.
    """
    rows, k = e.shape[0], upper.size
    xy = np.empty((2 * rows, k + 1))
    np.take(e.reshape(rows, -1), upper, axis=1, out=xy[:rows, :k])
    np.take(s.reshape(rows, -1), upper, axis=1, out=xy[rows:, :k])
    xy[:rows, k] = 1.0
    xy[rows:, k] = 0.0
    root = np.sqrt(weights)
    xy[:rows] *= root[:, None]
    xy[rows:] *= root[:, None]
    return xy


def _add_gram(real: np.ndarray, cross: np.ndarray, xy: np.ndarray, rows: int) -> None:
    """Add x^T x + y^T y to ``real`` and y^T x to ``cross``; xy = [x; y] stacks ``rows`` rows each.

    For w = x + i y, w^T conj(w) = (x^T x + y^T y) + i (y^T x - x^T y): its
    real part is the real syrk of the stacked rows and its imaginary part
    the antisymmetric part of one real GEMM, real + i (cross - cross^T).
    Both cost half the flops of the complex product, and the real part
    comes out exactly symmetric.
    """
    real += xy.T @ xy
    cross += xy[rows:].T @ xy[:rows]


class Symmetry(NamedTuple):
    """The group of a channel build, split by its rotation (``_symmetry``)."""

    perms: np.ndarray  # G as node permutations (|G|, n), identity first
    sigma: np.ndarray  # the element of largest order o, the first one on ties
    powers: np.ndarray  # sigma^t for t < o, (o, n)
    cosets: np.ndarray  # a representative h of each right coset <sigma> h, its first row in perms


def _symmetry(perms: np.ndarray) -> Symmetry:
    """The ``Symmetry`` record of the group ``perms`` (|G|, n), identity first.

    One loop takes the powers g^k of all elements up to the largest order o.
    perms and sigma[perms] hold the same rows, so sorting both maps each h to
    sigma o h; that map's orbits are the right cosets, the identity's the powers.
    """
    rows = np.arange(perms.shape[0])
    cur, orders = perms, np.zeros(rows.size, dtype=np.int64)
    for k in range(1, rows.size + 1):
        orders[(orders == 0) & (cur == perms[0]).all(axis=1)] = k
        if orders.all():
            break
        cur = perms[rows[:, None], cur]
    sigma = perms[np.argmax(orders)]
    left, cur, first, powers = np.empty_like(rows), rows, rows.copy(), []
    left[np.lexsort(sigma[perms].T)] = np.lexsort(perms.T)  # perms[left[i]] = sigma o perms[i]
    for _ in range(orders.max()):
        powers.append(cur[0])
        cur = left[cur]
        np.minimum(first, cur, out=first)
    return Symmetry(perms, sigma, perms[powers], perms[first == rows])


def _group_sum(gram: np.ndarray, sym: Symmetry, pair: np.ndarray) -> np.ndarray:
    """sum_g T_g gram over the group of ``sym``, (T_g X)[a, b] = X[pi_g(a), pi_g(b)].

    pi_g maps the pair (i, j) of index ``pair[i, j]`` to (g i, g j) and fixes
    the last index of the (k + 1, k + 1) ``gram``. Then T_g T_h = T_{h o g},
    h o g the permutation h[g], so over the record's right cosets <sigma> h
    the sum is sum_h T_h Y with Y = sum_{t < o} T_sigma^t gram, summed by
    binary doubling: S_1 = gram, S_2t = S_t + T_sigma^t S_t and
    S_2t+1 = gram + T_sigma S_2t, one gather each (on ring:15, |G| = 30 and
    o = 15, a copy and seven gathers instead of 30). Y and the gathers take
    two buffers of gram's size, allocated once per call, and the coset sum
    goes to gram itself, which is returned as it is when G = {1}.
    """
    size = gram.shape[0]
    iu, ju = np.triu_indices(pair.shape[0])

    def index(g):  # the flat gather index of T_g
        pp = np.append(pair[g[iu], g[ju]], size - 1)
        return pp[:, None] * size + pp

    if len(sym.powers) == 1:
        return gram
    y, tmp, t = gram.copy(), np.empty_like(gram), 1  # y holds S_t
    for bit in bin(len(sym.powers))[3:]:
        np.take(y.ravel(), index(sym.powers[t]), out=tmp)
        y += tmp
        if bit == "1":
            np.take(y.ravel(), index(sym.sigma), out=tmp)
            np.add(gram, tmp, out=y)
        t = 2 * t + int(bit)
    if len(sym.cosets) == 1:
        return y
    np.take(y.ravel(), index(sym.cosets[1]), out=gram)
    for h in sym.cosets[2:]:
        np.take(y.ravel(), index(h), out=tmp)
        gram += tmp
    gram += y  # the coset of the identity, perms[0]
    return gram


def channel_accumulate(edges, n, lam, tau):
    """The one-step channel Phi = sum_r p_r kron(conj(U_r), U_r) over all 2^E masks.

    -> (Phi (n^2, n^2), propagator name, G's ``Symmetry`` record,
    propagators built). Phi acts on column-stacked densities:
    Phi[(i,k),(j,l)] = K[(i,j),(k,l)] with
    K[(i,j),(k,l)] = sum_r p_r conj(U_r)[i,j] U_r[k,l]. U_r = exp(-i tau H_r)
    = C_r - i S_r with C_r = cos(tau H_r) and S_r = sin(tau H_r) from
    ``_cos_sin`` on the ``_squaring_plan``. U_r is complex symmetric, so
    only its n(n+1)/2 entries i <= j enter the Hermitian Gram matrix K of
    the pairs, accumulated in real arithmetic (``_add_gram``), from which
    Phi is gathered through the pair index map. The sums carry
    D_r = U_r - I, whose entries are small for a short step: K is assembled
    from sum_r p_r conj(D_r) (x) D_r, sum_r p_r D_r and sum_r p_r = 1, so
    the round-off of the unit diagonal is not summed over the realizations.
    The representatives are built in batches of at most CHANNEL_BATCH rows
    whose widest array, the 2 rows x (n(n+1)/2 + 1) float64 Gram rows of
    ``_gram_rows``, fits in half of BLOCK_BYTES (67 rows for n = 15).

    Every automorphism g of the graph (node permutation matrix P_g) maps
    mask r to a mask g.r of the same kept count, hence the same p_r, with
    U_{g.r} = P_g U_r P_g^T. So only one representative per orbit of masks
    is built, weighted by p_r / |Stab_r| (``_orbit_representatives``; those
    of weight 0 are dropped), and the Gram matrix is summed over G
    afterwards (``_group_sum``, over the cosets of ``_symmetry``): entry
    (a, b) of the sum is sum_g gram[pair(g i_a, g j_a), pair(g i_b, g j_b)].
    Every mask still counts exactly once. G is searched (``_automorphisms``)
    only when it can pay: it may hold at most 2^E // CHANNEL_BATCH elements,
    so at least CHANNEL_BATCH orbits remain to build (batches are sized by
    bytes and may be smaller), and at most f // E, so canonicalizing a mask
    (|G| E flops) costs less than building it (f flops: ``_series_products``
    and three products per squaring, and its share of the Gram). A larger
    or unsearched group is replaced by the identity alone, which builds
    every mask.

    Measured on ring:15 (tau = 0.004, in process, one BLAS thread, best of
    15, against Horner's rule, a row-sum diagonal and one gather per
    element of G): the Laplacians of a 67-row batch take 30 us (50 before),
    ``_cos_sin`` at order 6 150 us (178), the group sum 1.05 ms per call
    (1.56) and the four builds of lambda = 0.2 to 0.8 50.4 ms (54.2); Phi
    moved by at most 4.3e-18.
    """
    edge_count = edges.shape[0]
    squarings, order = _squaring_plan(edges, n, tau)
    iu, ju = np.triu_indices(n)
    upper = iu * n + ju
    pair = np.empty((n, n), dtype=np.int64)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    # flops of one realization: its cos/sin products (``_cos_sin``) plus its share of the pair Gram
    flops = 2 * n**3 * (_series_products(order, True) + 3 * squarings) + 8 * iu.size**2
    limit = min((1 << edge_count) // CHANNEL_BATCH, flops // max(edge_count, 1))
    sym = _symmetry(_automorphisms(edges, n, limit) if limit > 1 else np.arange(n)[None])
    # Gram matrix of w_r = sqrt(weight_r) (conj(D_r) on the pairs, then 1), D_r = U_r - I; its
    # last row holds sum_r weight_r D_r, at an index that every relabeling fixes. It is summed
    # in real arithmetic (``_gram_rows``, ``_add_gram``) and made complex once. A batch's
    # arrays are passed on, not kept, so they are freed before the next batch is built
    m = iu.size
    real, cross = np.zeros((m + 1, m + 1)), np.zeros((m + 1, m + 1))
    # the scan's tables are freed before the first batch is built
    masks, stab = _orbit_representatives(edges, sym.perms)
    kept = np.bitwise_count(masks)
    weights = lam**kept * (1.0 - lam) ** (edge_count - kept) / stab
    masks, weights = masks[weights > 0.0], weights[weights > 0.0]
    batch = max(1, min(CHANNEL_BATCH, BLOCK_BYTES // (16 * (n * n + n + 2)), masks.size))
    _, work = _taylor_work(n, batch)  # every batch's stacks, once per call
    for b0 in range(0, masks.size, batch):
        bits = _mask_bits(masks[b0:b0 + batch], edge_count)
        stacks = work[:, :bits.shape[0]]
        a = laplacians(edges, n, bits, tau / 2**squarings, stacks[0])
        _add_gram(real, cross, _gram_rows(*_cos_sin(a, order, squarings, stacks[1:]), weights[b0:b0 + batch],
                                          upper), bits.shape[0])
    del work, stacks, a
    gram = real + 1j * (cross - cross.T)
    del real, cross  # freed before the (n^2, n^2) K is gathered
    gram = _group_sum(gram, sym, pair)  # a gram that the sum does not return is freed here
    # conj(U)_a U_b = conj(D)_a D_b + i_a D_b + conj(D)_a i_b + i_a i_b with i the pairs of I,
    # and the p_r sum to 1
    diag = np.flatnonzero(iu == ju)
    k = gram[:m, :m]
    k[diag] += gram[m, :m]
    k[:, diag] += gram[:m, m:]
    k[np.ix_(diag, diag)] += 1.0
    # Phi[(i, k), (j, l)] = K[(i, j), (k, l)] = k[pair(i, j), pair(k, l)], gathered at once
    phi = k[pair[:, None, :, None], pair[None, :, None, :]].reshape(n * n, n * n)
    return phi, f"taylor(substeps={1 << squarings}, order={order})", sym, masks.size
