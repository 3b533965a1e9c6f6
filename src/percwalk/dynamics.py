"""Evolution backends for percolated walks.

Three routes to the same physics:

* ``run_trajectory`` / ``run_classical_trajectory``: one stochastic
  realization sequence, applying the per-step propagator exp(z * H_r).
* ``build_step_channel`` + ``evolve_channel``: the exact realization-averaged
  one-step channel (all 2^E edge subsets, probability-weighted unitary
  conjugations) as a d^2 x d^2 matrix on column-stacked density matrices.
  Its propagators are truncated Taylor cos/sin series with scaling and
  squaring (``_kernels.channel_accumulate``), one per orbit of edge subsets
  under the graph's automorphisms: relabeling the nodes maps a subset's
  propagator to that of its image, and a stabilizer weight p_r / |Stab_r|
  on each representative keeps the sum over all 2^E subsets exact.
  ``evolve_channel`` runs in the Fourier sectors of the rotation of largest
  order m in that group: relabeling commutes with the channel, so it is m
  blocks of C x C, C the number of cycles of the rotation on node pairs
  (15 blocks of 15 for ring:15 instead of one 225 x 225 matrix), from the
  shift sums that ``ChannelMatrix`` gathers once. Phi maps Hermitian
  matrices to Hermitian ones, so sector m - Q of a record is the
  swap-conjugate mirror of sector Q, and only the sectors Q <= m/2 run (8
  blocks of 15 for ring:15); a record is rho = B + A + A^dag, B from the
  sectors that are their own mirror and A from the others. It advances
  the records a chunk at a time by doubling, Y[f:2f] = Y[:f] + (P^f - I)
  Y[:f] with P the channel's power over one stride, where the powers cost
  fewer flops and calls than repeated products, and checks the trace.
  ``channel_site_probabilities`` runs the same evolution and transforms
  back only the diagonal's cycles, diag B + 2 Re diag A. A graph without
  symmetry, or one whose group is not searched, gives one block of d^2:
  the dense evolution's Hermitian part.
* ``monte_carlo_channel``: a trajectory-ensemble estimate of the channel
  output with standard errors, which simulates each trajectory once. The
  ensemble kernel returns sums and per-site (count, mean, M2) moments,
  merged pairwise across column blocks; ``monte_carlo_channel`` merges them
  across chunks of trajectories the same way (Chan, Golub & LeVeque, Am.
  Stat. 37:242, 1983). A basis density's eigenpairs are known, so
  ``_eigenpairs`` skips ``eigh`` for it; any other initial density is
  eigendecomposed once per call. Either way its spectrum is checked, which
  refuses a density that is not positive semidefinite.

Per-step exponentials are truncated Taylor series whose truncation error
is at most 2^-53 of the state norm per substep (``_kernels.taylor_plan``).
``_kernels.step_plan`` prices three routes in flops and calls and the run
takes the cheapest. On a graph of at most ``_kernels.CACHE_MAX_EDGES`` edges
whose run fits the mask cache and repeats enough masks, each distinct mask's
propagator is built once, by scaling and squaring as the exact channel
builds its own, within about 2^q 2^-53 for q squarings; a trajectory there
applies them a chunk of prefix products at a time and skips the steps that
keep no edge. Otherwise the series is applied to the state as an action,
or, for a trajectory on a graph small enough that a batch of n x n products
costs less than the calls of the action, formed as a matrix P per step
with the cache's series (``_kernels._taylor_matrices``) and applied as
x + (P - I) x, one matvec and one add per substep. Discrepancies from the
rescaled-time reference therefore come from non-commutativity of the
sampled generators, not from integrator error. Every record names the
propagator that ran and the largest drift of the conserved norm, and every
channel names its propagator and bounds its trace drift
(``ChannelMatrix.trace_drift_bound``), so a run reports how far to trust it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .graph import (
    MAX_ENUM_EDGES,
    CapacityError,
    Graph,
    rng_from_seed,
    sample_keep_bits,
)
from .walk import check_density_matrix, check_density_spectrum, check_distribution, check_quantum_state

# bound on the uint8 keep bits of one chunk of an ensemble run; each trajectory's
# uniforms are drawn in blocks (``sample_keep_bits``), so only the bits are chunked.
# A chunk holds at least one trajectory, so one whose bits alone pass the bound runs
# as a chunk of one: lattice2d:10x10 at 10^6 steps holds 180 MB
ENSEMBLE_CHUNK_BYTES = 1 << 26


@dataclass(frozen=True)
class PercolationRun:
    """Stochastic-evolution configuration: keep probability, step size, step count, seed.

    ``steps`` is authoritative; ``total_time`` is derived as steps * tau.
    Both must be finite, as ``harness.experiments.resolve_timing`` requires.
    """

    lam: float
    tau: float
    steps: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not math.isfinite(self.steps * self.tau):
            raise ValueError(f"steps*tau = {self.steps}*{self.tau} is not finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def total_time(self) -> float:
        return self.steps * self.tau


@dataclass(frozen=True)
class TrajectoryRecord:
    """States of one stochastic trajectory at the recorded steps."""

    record_steps: np.ndarray
    times: np.ndarray
    states: np.ndarray  # (n_recorded, node_count) complex amplitudes
    max_norm_drift: float  # max over steps of | ||psi||_2 - 1 |
    # "mask-cache(chunk=L)", "taylor(substeps=S, order=K)" or "taylor-matrix(substeps=S, order=K)"
    propagator: str

    def site_probabilities(self) -> np.ndarray:
        return np.abs(self.states) ** 2


@dataclass(frozen=True)
class ClassicalTrajectoryRecord:
    """Site distributions of one classical stochastic trajectory."""

    record_steps: np.ndarray
    times: np.ndarray
    distributions: np.ndarray  # (n_recorded, node_count)
    max_norm_drift: float  # max over steps of |sum(p) - 1|
    propagator: str


@dataclass(frozen=True)
class EnsembleRecord:
    """Trajectory-averaged density matrices with diagonal standard errors."""

    record_steps: np.ndarray
    times: np.ndarray
    densities: np.ndarray  # (n_recorded, d, d) complex
    diag_stderr: np.ndarray  # (n_recorded,) max-over-nodes standard error
    n_trajectories: int
    max_norm_drift: float  # over every step of every trajectory
    # "mask-cache" or "taylor(substeps=S, order=K)"; ", "-joined when chunks of trajectories differ
    propagator: str

    def site_probabilities(self) -> np.ndarray:
        return np.real(np.diagonal(self.densities, axis1=1, axis2=2))


def _pair_cycles(rotation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycles of a + n b -> rotation[a] + n rotation[b] on column-stacked indices.

    -> (orbit, lengths): orbit[c, t] is the t-th image of x_c, the smallest
    index of cycle c, for t < m with m the order of ``rotation``, so a cycle
    of length L_c (a divisor of m) repeats m / L_c times. Cycles are sorted
    by x_c; for the identity, cycle c is index c alone.
    """
    n = rotation.size
    pi = (n * rotation[:, None] + rotation).ravel()
    table = [np.arange(n * n)]
    while not np.array_equal(nxt := pi[table[-1]], table[0]):
        table.append(nxt)
    table = np.array(table)  # (m, d^2): table[t, j] = pi^t(j)
    start = np.flatnonzero(table.min(axis=0) == table[0])
    orbit = np.ascontiguousarray(table[:, start].T)
    return orbit, len(table) // (orbit == start[:, None]).sum(axis=1)


def _shift_sums(matrix: np.ndarray, orbit: np.ndarray, lengths: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """(sums, off): the shift sums of D = Phi - I made Hermiticity preserving, and how far Phi is from commuting.

    Gather t, (C, C, m) for the ``_pair_cycles`` of the rotation pi on n
    nodes, is Phi[pi^t x_c, pi^(t+s) x_c'] at [c, c', s]; a non-finite one
    raises ``FloatingPointError``. The m gathers hold every entry of Phi,
    and gather t + 1 minus gather t (gather 0 minus gather m - 1 closes the
    cycle) holds Phi[pi i, pi j] - Phi[i, j] at every (i, j); off is its
    largest magnitude. The gathers of D, which differs from Phi at c = c'
    and s = 0 (mod L_c), are summed over t and averaged with their
    swap-conjugate image. Phi maps Hermitian matrices to Hermitian ones
    exactly when Phi[i, j] = conj(Phi[S i, S j]), S(a + n b) = b + n a, and
    the mean of the two sides is that part of Phi. S commutes with pi and
    sends x_c to pi^(s_c) x_(c*), so the image's sum at (c, c', s) is
    conj(sums[c*, c'*, s + s_c' - s_c]).

    Both passes run over blocks of rows c whose (rows, C, m) arrays take at
    most an eighth of Phi (and at least 16 KiB), the gathers over ranges of
    rows and the mean in place over rows together with their mates c*. So
    what is alive at once beside the sums stays below Phi, also for a
    trivial group, whose sums are as large as Phi: on an 11-node, 14-edge
    graph without automorphisms construction peaked at 3.1 Phi with whole
    gathers and an image beside the sums. On ring:15 one block holds all 15
    rows, and the sums and a block's arrays take 0.31 MB traced, next to
    Phi's 0.81 MB.
    """
    c, m = orbit.shape
    shift = (np.arange(m)[:, None] + np.arange(m)) % m
    cycle, at = np.empty((2, orbit.max() + 1), dtype=np.intp)
    cycle[orbit], at[orbit] = np.arange(c)[:, None], np.arange(m)  # any t of a repeated index will do
    swapped = orbit[:, 0] % n * n + orbit[:, 0] // n
    mate, s = cycle[swapped], at[swapped]
    sums, off = np.empty((c, c, m), dtype=np.complex128), 0.0
    rows = max(1, min(_kernels.BLOCK_BYTES, max(matrix.nbytes // 8, 1 << 14)) // (16 * c * m))
    for c0 in range(0, c, rows):
        block = sums[c0:c0 + rows]
        own = np.arange(c0, c0 + block.shape[0])[:, None, None] == np.arange(c)[:, None]
        unit = np.flatnonzero(own & (np.arange(m) % lengths[c0:c0 + rows, None, None] == 0))
        unit_sums = np.zeros(unit.size, dtype=np.complex128)  # D's diagonal entries, summed apart
        for t in range(m):
            gathered = matrix.take(orbit[c0:c0 + rows, t], axis=0).take(orbit[:, shift[t]], axis=1)
            if not np.isfinite(gathered).all():
                raise FloatingPointError("channel matrix holds a non-finite entry")
            if t:
                off = max(off, float(np.abs(gathered - last).max()))
                block += gathered
            else:
                block[...] = first = gathered
            last = gathered
            unit_sums += gathered.reshape(-1)[unit] - 1.0
        off = max(off, float(np.abs(first - last).max())) if m > 1 else off
        block.reshape(-1)[unit] = unit_sums
        del first, last, gathered
    lead, half = np.flatnonzero(np.arange(c) <= mate), max(1, rows // 2)
    for b0 in range(0, lead.size, half):
        r = lead[b0:b0 + half]
        r = np.concatenate((r, mate[r][mate[r] != r]))  # the rows with their mates, whose image they read
        shifted = (np.arange(m) + s[None, :, None] - s[r, None, None]) % m
        image = sums[mate[r, None, None], mate[None, :, None], shifted]
        np.conj(image, out=image)
        image += sums[r]
        image *= 0.5
        sums[r] = image
    return sums, off


@dataclass(frozen=True)
class ChannelMatrix:
    """One-step percolation channel on column-stacked density matrices.

    Construction reads ``matrix`` once (``_shift_sums``), refusing a
    non-finite one or one off its rotation's commutant by more than 1e-12,
    and keeps ``shift_sums``: all that ``evolve_channel`` reads of Phi.
    """

    matrix: np.ndarray  # (d*d, d*d) complex
    dim: int
    # how the propagators were built, "taylor(substeps=2^q, order=K)"; empty when given
    propagator: str = ""
    # order |G| of the automorphism group the build summed over (1: none), 0 when given
    symmetries: int = 0
    # propagators built: one per orbit of masks under G with nonzero probability
    orbits: int = 0
    # node permutation sigma that ``matrix`` commutes with (as P_sigma (x) P_sigma): the element
    # of largest order in G, whose Fourier sectors ``evolve_channel`` runs in; identity when None
    rotation: np.ndarray | None = None
    # (C, C, m): sums[c, c', s] = sum_t D[pi^t x_c, pi^(t+s) x_c'], made Hermiticity preserving
    shift_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dd = self.dim * self.dim
        if self.matrix.shape != (dd, dd):
            raise ValueError(f"channel matrix shape {self.matrix.shape} != ({dd}, {dd})")
        rotation = np.arange(self.dim) if self.rotation is None else np.asarray(self.rotation)
        if sorted(rotation.tolist()) != list(range(self.dim)):
            raise ValueError(f"rotation {rotation} is not a permutation of {self.dim} nodes")
        object.__setattr__(self, "rotation", rotation)
        sums, off = _shift_sums(self.matrix, *self._cycles, self.dim)
        if not off <= 1e-12:
            raise ValueError(f"channel matrix does not commute with its rotation: off by {off:.3g}")
        object.__setattr__(self, "shift_sums", sums)

    @cached_property
    def _cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """``_pair_cycles`` of the rotation, found once per channel."""
        return _pair_cycles(self.rotation)

    @property
    def blocks(self) -> tuple[int, int]:
        """(m, C): m Fourier sectors of the rotation, each a block of at most C cycles."""
        return self._cycles[0].shape[::-1]

    @property
    def trace_defect(self) -> float:
        """delta = max_j |(t^dag Phi)_j - t_j| with t = vec(I)."""
        diag = np.arange(self.dim) * (self.dim + 1)
        defect = self.matrix[diag].sum(axis=0)
        defect[diag] -= 1.0
        return float(np.abs(defect).max())

    def trace_drift_bound(self, steps: int) -> float:
        """About the largest |tr(rho) - 1| after ``steps`` steps of ``evolve_channel``, from tr(rho0) = 1.

        ``evolve_channel`` applies the sectors Q <= m/2 of the (m, C)
        ``blocks``, and only sector 0 carries the trace: tr(rho) = sum_c w_c y_c over the diagonal cycles,
        w_c = sqrt(L_c). A record is reached from the one before it by
        products with the blocks I + D of one step, or by applications
        y + (P^f - I) y of powers P = Phi^f that span f >= 1 steps each
        (``_advance``), so at most ``steps`` of them lie between rho0 and any
        record. Each changes the trace by at most (delta + (2C + 1 +
        max(4(m - 1), 2)) u) ||vec rho||_1 per step it spans, with delta the
        ``trace_defect`` (the shift average of the defect row is no larger,
        and a power of f steps carries f of them) and u = 2^-53:

        * each entry of a product sums C terms, rounded by at most C u times
          their magnitudes, and the add of an application by u.
          sum_c w_c |P_0[c, c']| <= sqrt(L_c') for a channel P (Phi or a
          power of it), because w_c f_c0 is the indicator of the cycle and
          the diagonal rows of a channel have column 1-norms of at most 1;
          for P - I the sum is at most 2 sqrt(L_c'). And
          sum_c' sqrt(L_c') |y_c'| <= ||vec rho||_1. A power's own products,
          2 (P^f - I) + (P^f - I)^2 per squaring, are taken to round like
          the f steps they span;
        * a block entry sums m shifts of m phase-weighted entries of Phi - I,
          whose column 1-norms on the diagonal rows are at most 2, as are
          those of their swap-conjugate images (S fixes those rows): 2m u of
          rounding at most, 2(m - 1) u more than a copy. Their mean
          (``_shift_sums``) is two sums of m - 1 adds, one more add and an
          exact halving: for m > 1 no more roundings than the m shifts had
          with their phase product, for m = 1 one more, 2u.

        A density has ||vec rho||_1 <= d tr(rho). The transforms of rho0 and of
        each record sum m phase-weighted terms per entry, the one back m/2 + 1
        of them and the conjugate of the transposed entry (at most m
        roundings for m >= 3, one more for m = 2, none on the diagonal for
        m = 1); over the diagonal, each adds at most 6 m (m - 1) u d once, not
        per step. For a trivial G (m = 1, C = d^2) this is the bound of the
        dense evolution and the mean, steps d (delta + (2 d^2 + 3) u). On
        ring:15 (5000 steps of tau = 0.004) the drift stays four to five
        orders of magnitude below it.
        """
        m, c = self.blocks
        u = 2.0**-53
        per_step = self.trace_defect + (2 * c + 1 + max(4 * (m - 1), 2)) * u
        return steps * self.dim * per_step + 12 * m * (m - 1) * u * self.dim


def recorded_steps(steps: int, sample_stride: int) -> np.ndarray:
    """Step indices to record: 0, stride, 2*stride, ..., plus the final step."""
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    rec = list(range(0, steps + 1, sample_stride))
    if rec[-1] != steps:
        rec.append(steps)
    return np.asarray(rec, dtype=np.int64)


def vec_density(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix."""
    return np.asarray(rho, dtype=np.complex128).ravel(order="F")


def _trajectory_bits(g: Graph, run: PercolationRun, sample_stride: int, quantum: bool, trajectory_index: int):
    """Record steps and keep bits of one trajectory; a bad stride or plan is refused before any bit is drawn."""
    rec = recorded_steps(run.steps, sample_stride)
    _kernels.step_plan(g.edge_array, g.node_count, run.tau, run.steps, quantum)
    return rec, sample_keep_bits(g, run.lam, rng_from_seed(run.seed, trajectory_index), run.steps)


def run_trajectory(
    g: Graph,
    run: PercolationRun,
    psi0: np.ndarray,
    sample_stride: int = 1,
    trajectory_index: int = 0,
) -> TrajectoryRecord:
    """Evolve one stochastic trajectory of the percolated quantum walk.

    Each step samples an edge subset (keep probability ``run.lam``) and
    applies the unitary exp(-i * H_realization * tau). The random
    stream is PCG64 seeded by (run.seed, trajectory_index), so results are
    reproducible bit for bit, and the keep bits of every step are
    ``sample_keep_bits(g, run.lam, rng_from_seed(run.seed, trajectory_index), run.steps)``.
    """
    psi0 = check_quantum_state(psi0)
    if psi0.shape[0] != g.node_count:
        raise ValueError(f"state dimension {psi0.shape[0]} != node_count {g.node_count}")
    rec, bits = _trajectory_bits(g, run, sample_stride, True, trajectory_index)
    states, drift, propagator = _kernels.trajectory_states(g.edge_array, g.node_count, run.tau, bits, rec, psi0)
    return TrajectoryRecord(
        record_steps=rec,
        times=rec * run.tau,
        states=states,
        max_norm_drift=float(drift),
        propagator=propagator,
    )


def run_classical_trajectory(
    g: Graph,
    run: PercolationRun,
    p0: np.ndarray,
    sample_stride: int = 1,
    trajectory_index: int = 0,
) -> ClassicalTrajectoryRecord:
    """Classical analog of ``run_trajectory``: per-step exp(-H_realization * tau).

    ``max_norm_drift`` of the record is the largest |sum(p) - 1| over the steps.
    """
    p0 = check_distribution(p0)
    if p0.shape[0] != g.node_count:
        raise ValueError(f"distribution dimension {p0.shape[0]} != node_count {g.node_count}")
    rec, bits = _trajectory_bits(g, run, sample_stride, False, trajectory_index)
    dists, drift, propagator = _kernels.classical_trajectory(
        g.edge_array, g.node_count, run.tau, bits, rec, p0
    )
    return ClassicalTrajectoryRecord(
        record_steps=rec,
        times=rec * run.tau,
        distributions=dists,
        max_norm_drift=float(drift),
        propagator=propagator,
    )


def build_step_channel(g: Graph, lam: float, tau: float) -> ChannelMatrix:
    """Exact one-step channel: sum over all 2^E realizations of p_r U_r . U_r^dag.

    Column-stacking convention: the returned matrix is
    sum_r p_r kron(conj(U_r), U_r). One propagator is built per orbit of
    realizations under the graph's automorphism group; the channel records
    the group order (``symmetries``) and the propagators built (``orbits``).
    Refuses graphs above the enumeration limit; use the Monte Carlo backend
    for those.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if g.edge_count > MAX_ENUM_EDGES:
        raise CapacityError(
            f"graph has {g.edge_count} edges > enumeration limit {MAX_ENUM_EDGES}; "
            f"the exact channel needs 2^{g.edge_count} propagators - use the Monte Carlo "
            f"backend (montecarlo) instead"
        )
    phi, propagator, sym, orbits = _kernels.channel_accumulate(g.edge_array, g.node_count, float(lam), float(tau))
    return ChannelMatrix(matrix=phi, dim=g.node_count, propagator=propagator,
                         symmetries=sym.perms.shape[0], orbits=orbits, rotation=sym.sigma)


def _power_minus_identity(d: np.ndarray, k: int) -> np.ndarray:
    """Phi^k - I from D = Phi - I, k >= 1, by binary powering with (I+A)(I+B) - I = A + B + AB.

    ``d`` may be a stack of blocks (..., C, C). A short step's Phi is close
    to the identity. Carrying Phi^k - I keeps the round-off of the products
    relative to its small entries instead of the unit diagonal. Powering Phi
    itself left up to six times the round-off of single matvecs on a
    5000-step ring:15 curve; this form leaves less than either.
    """
    e = None
    for bit, square in enumerate(_kernels._squares(d, k.bit_length())):
        if k >> bit & 1:
            e = square.copy() if e is None else e + square + e @ square
    return e


def _doubling_span(m: int, c: int, k: int, count: int, cap: int) -> int:
    """Records per chunk for ``count`` records k steps apart to advance by doubling: 0 to take k matvecs each.

    Doubling s = 2^p - 1 records (or fewer, at most ``cap``) per chunk forms
    P^k - I (``_power_minus_identity``) and squares it p - 1 times:
    k.bit_length() + k.bit_count() + p - 3 products of the m blocks of
    C x C, each C times the 8 m C^2 flops of a matvec. It then spends one
    matvec's flops per record, in two calls per power and chunk. Stepping
    spends k matvecs per record, one call each. A call is priced at
    ``_kernels.CALL_FLOPS``; the cheapest choice wins. s = 1 is one power
    P^k applied per record: large blocks (lattice2d:3x4, 2 x 80) pay for
    no squaring, small ones (ring:15, 15 x 15) for as many as fit.
    """
    matvec = 8 * m * c * c
    best, span = count * k * (matvec + _kernels.CALL_FLOPS), 0
    for p in range(1, min(count, cap).bit_length() + 1):
        s = min(2**p - 1, count, cap)
        products = k.bit_length() + k.bit_count() + p - 3
        cost = products * c * matvec + count * matvec + 2 * p * -(-count // s) * _kernels.CALL_FLOPS
        if cost < best:
            best, span = cost, s
    return span


def _advance(d: np.ndarray, y0: np.ndarray, gaps: list[int]):
    """Yield (i, ys): ys (f, m, C) are records i .. i + f - 1 of y0 (m, C) under P = I + ``d`` (m, C, C).

    Record j is P^(gaps[0] + ... + gaps[j - 1]) y0, j >= 1. The gaps are a
    run of the stride k and at most one ragged last gap; each run advances
    in chunks of records, whose buffer (chunk + 1, m, C) fits in
    BLOCK_BYTES. Where ``_doubling_span`` says so, a chunk doubles from
    its start Y[0], the last record of the chunk before:
    Y[f:2f] = Y[:f] + (P^(kf) - I) Y[:f] for f = 1, 2, 4, ..., with the
    powers P^(kf) - I built once per run (``_kernels._squares`` of
    ``_power_minus_identity``); record j of a chunk is then reached from
    Y[0] by one product per set bit of j, not by jk matvecs. Otherwise each
    record takes k matvecs with I + D. ys is a view of the buffer, which
    the next chunk overwrites.
    """
    m, c = d.shape[:2]
    k = gaps[0]
    runs = [(k, len(gaps) - (gaps[-1] != k))] + ([(gaps[-1], 1)] if gaps[-1] != k else [])
    # 2^p rows within BLOCK_BYTES: chunks of 2^p - 1 records use all p powers
    ys = np.empty((max(2, 1 << (_kernels.BLOCK_BYTES // (16 * m * c)).bit_length() - 1), m, c),
                  dtype=np.complex128)
    ys[0] = y0
    # each buffer row as the (m, C) stack of C-vectors that the blocks act on
    cols = ys.transpose(1, 2, 0)
    step, i = None, 1
    for k, count in runs:
        span = _doubling_span(m, c, k, count, ys.shape[0] - 1)
        powers = None
        if span:
            powers = _kernels._squares(_power_minus_identity(d, k), span.bit_length())
        else:
            span = min(count, ys.shape[0] - 1)
            if step is None:
                step = d + np.eye(c)
        for left in range(count, 0, -span):
            f = min(span, left)
            if powers is not None:
                width = 1
                for power in powers[:f.bit_length()]:
                    hi = min(2 * width, f + 1)
                    np.matmul(power, cols[:, :, :hi - width], out=cols[:, :, width:hi])
                    np.add(ys[width:hi], ys[:hi - width], out=ys[width:hi])
                    width = hi
            else:
                for j in range(1, f + 1):
                    x = cols[:, :, j - 1:j]
                    for _ in range(k - 1):
                        x = step @ x
                    np.matmul(step, x, out=cols[:, :, j:j + 1])
            yield i, ys[1:f + 1]
            i += f
            ys[0] = ys[f]


def _sector_entries(phi: ChannelMatrix, rho0: np.ndarray, rec: np.ndarray, cycles: np.ndarray):
    """Yield (i, v): records i .. i + f - 1 of ``evolve_channel`` at the entries of ``cycles`` only.

    v (f, entries) lists each record's column-stacked entries of the given
    cycles in the row-major order of rho; ``rec`` are the record steps, at
    least two. Every record's trace is checked first. The cycles must hold
    the transpose of each of their entries, as all cycles and those of the
    diagonal do.

    Only the sectors Q <= m/2 run: sector m - Q of a Hermitian record is
    the swap-conjugate mirror of sector Q. A record is rho = B + A + A^dag,
    with B its part in the sectors that are their own mirror (Q = 0, and
    Q = m/2 for even m) and A that in the others, and it is transformed back
    as H + H^dag with H = B/2 + A: exactly Hermitian, with the diagonal
    2 Re(H_aa) = B_aa + 2 Re(A_aa).
    """
    n = phi.dim
    orbit, lengths = phi._cycles
    m = orbit.shape[1]
    sectors = np.arange(m // 2 + 1)
    fits = sectors[:, None] * lengths % m == 0  # (Q, C): sector Q holds cycle c
    table = np.exp(2j * np.pi * np.arange(m) / m)
    qt = np.outer(np.arange(m), sectors)
    forward, backward = table[qt % m], table[-qt % m]  # (t, Q): w^(Q t), w^(-Q t)
    # block[Q, c, c'] = sqrt(L_c L_c') / m^2 sum_s w^(-Q s) sums[c, c', s] (``ChannelMatrix.shift_sums``)
    root = np.sqrt(lengths)
    blocks = np.ascontiguousarray((phi.shift_sums @ backward).transpose(2, 0, 1))
    blocks *= np.multiply.outer(root, root) / m**2
    blocks[~(fits[:, :, None] & fits[:, None, :])] = 0.0
    y0 = np.ascontiguousarray((vec_density(rho0)[orbit] @ forward).T) * (root / m)
    y0[~fits] = 0.0
    # tr(rho) = sum_c sqrt(L_c) y[0, c] over the cycles of the diagonal
    trace_w = np.where(orbit[:, 0] % (n + 1) == 0, root, 0.0)
    # h[pi^t x_c] = L_c^-1/2 sum_Q a_Q w^(-Q t) y[Q, c] for t < L_c, a_Q = 1/2 for a sector that is
    # its own mirror and 1 for the others; rho[a, b] = h[a + n b] + conj(h[b + n a]), entry a n + b
    # of the record, is gathered from h[c, t] at src and src_t, S(a + n b) = b + n a the swap
    back = backward.T * np.where(2 * sectors % m > 0, 1.0, 0.5)[:, None]
    swap = orbit % n * n + orbit // n
    cyc, t = np.nonzero(np.arange(m) < lengths[cycles, None])
    j = orbit[cycles[cyc], t]
    order = np.argsort(j % n * n + j // n)
    pos = np.zeros(n * n, dtype=np.intp)  # the index in h of each entry
    pos[j] = cyc * m + t
    src, src_t = pos[j[order]], pos[swap[cycles[cyc], t][order]]
    scale = 1.0 / root[cycles]
    # records transformed back at once: each (records, cycles m) array within BLOCK_BYTES
    rows = max(1, _kernels.BLOCK_BYTES // (16 * cycles.size * m))
    for i, ys in _advance(blocks, y0, np.diff(rec).tolist()):
        traces = ys[:, 0] @ trace_w
        lost = np.flatnonzero(~(np.abs(traces.real - 1.0) <= 1e-8))
        if lost.size:
            raise np.linalg.LinAlgError(f"channel evolution lost trace at step {rec[i + lost[0]]}: "
                                        f"trace = {traces[lost[0]].real}")
        for r0 in range(0, ys.shape[0], rows):
            y = ys[r0:r0 + rows].take(cycles, axis=2)
            y *= scale
            f = y.shape[0]
            h = (y.transpose(0, 2, 1).reshape(-1, sectors.size) @ back).reshape(f, -1)
            v = h.take(src, axis=1)
            v += np.conj(h, out=h).take(src_t, axis=1)
            yield i + r0, v


def _checked_start(phi: ChannelMatrix, rho0: np.ndarray, steps: int) -> np.ndarray:
    """``rho0`` checked as a density of ``phi``'s dimension, with ``steps`` >= 0."""
    rho0 = check_density_matrix(rho0)
    check_density_spectrum(np.linalg.eigvalsh(rho0))
    if rho0.shape[0] != phi.dim:
        raise ValueError(f"density dimension {rho0.shape[0]} != channel dim {phi.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return rho0


def evolve_channel(
    phi: ChannelMatrix, rho0: np.ndarray, steps: int, sample_stride: int = 1
) -> np.ndarray:
    """Repeated channel action; returns the recorded density matrices.

    Output shape is (len(recorded_steps(steps, stride)), d, d); step 0 (the
    input state) is always the first record and the final step the last.

    The evolution runs in the Fourier sectors of ``phi.rotation`` (order m),
    in which Phi is block diagonal. Its action on column-stacked indices
    splits into C cycles c of lengths L_c; sector Q < m holds the modes
    f_cQ = L_c^-1/2 sum_{t < L_c} w^-Qt e_{pi^t x_c}, w = exp(2 pi i / m),
    of the cycles with Q L_c = 0 (mod m), so Phi is m blocks of C x C with
    zero rows and columns for the cycles a sector lacks. The blocks are
    those of D = Phi - I averaged over the m shifts, i.e. projected onto the
    rotation's commutant, and every phase comes from the exact table
    w^((Q t) mod m), so each identity term has weight exactly 1. They come
    from ``phi.shift_sums``: the evolution reads nothing of ``phi.matrix``.

    The swap S(a + n b) = b + n a takes vec(X) to vec(X^T) and commutes
    with the rotation. Phi maps Hermitian matrices to Hermitian ones
    exactly when Phi[i, j] = conj(Phi[S i, S j]), and then the part of a
    Hermitian record in sector m - Q is the conjugate transpose of its part
    in sector Q. So for every m, 1 included, only the blocks Q <= m/2 are
    built and run, from D also averaged with its swap-conjugate image
    (``_shift_sums``), and a record is rho = B + A + A^dag, B its part
    in the sectors that are their own mirror (Q = 0, and Q = m/2 for even
    m) and A the rest; it is returned as H + H^dag, H = B/2 + A, which is
    exactly Hermitian. ``build_step_channel``'s Phi is such a map exactly
    (its K is exactly Hermitian), so the mirror mean changes nothing, and
    for m = 1 a record is the dense evolution's (rho + rho^dag) / 2 bit for
    bit. A given Phi without the property is evolved by its
    Hermiticity-preserving part, as it is projected onto the commutant.

    Records advance a chunk at a time (``_advance``). A chunk of records k
    steps apart (k the stride; a ragged last gap is a chunk of its own)
    doubles from its start Y[0]: Y[f:2f] = Y[:f] + (P^f - I) Y[:f] with
    P = Phi^k, for f = 1, 2, 4, ..., so record j of the chunk is Y[0] after
    one power per set bit of j. Where the powers cost more than the products
    they save (``_doubling_span``), each record takes k products with the
    blocks I + D instead. Error growth: a power P^(2f) - I =
    2 (P^f - I) + (P^f - I)^2 rounds about like the 2f steps it spans, and
    a record is at most one application per set bit of its index away from
    its chunk's start, so the round-off grows with the steps no faster than
    with one matvec per step. On ring:15 (tau = 0.004, 5000 steps at stride
    10, lambda = 0.2 to 0.8) the records lie within 5.5e-16 to 1.6e-15 of an
    extended-precision evolution of the same Phi; one product per gap left
    1.8e-15 to 3.8e-15. The trace, carried by sector 0, is checked at every
    record, and the records are transformed back a chunk at a time.
    """
    rho0 = _checked_start(phi, rho0, steps)
    if steps == 0:
        return rho0[None, :, :].copy()
    n = phi.dim
    rec = recorded_steps(steps, sample_stride)
    out = np.empty((rec.shape[0], n, n), dtype=np.complex128)
    out[0] = rho0
    flat = out.reshape(rec.shape[0], n * n)
    for i, v in _sector_entries(phi, rho0, rec, np.arange(phi.blocks[1])):
        flat[i:i + v.shape[0]] = v
    return out


def channel_site_probabilities(
    phi: ChannelMatrix, rho0: np.ndarray, steps: int, sample_stride: int = 1
) -> np.ndarray:
    """The diagonals of ``evolve_channel``'s records, real, (len(recorded_steps(steps, stride)), d).

    The same evolution, but only the sector coefficients of the cycles on
    the diagonal (x_c = a (d + 1)) are transformed back: on ring:15 one cycle
    of 15 sites out of 15 cycles of 225 entries. For m > 1 each is
    diag B + 2 Re diag A of ``evolve_channel``'s rho = B + A + A^dag.
    """
    rho0 = _checked_start(phi, rho0, steps)
    if steps == 0:
        return np.real(np.diagonal(rho0))[None, :].copy()
    n = phi.dim
    rec = recorded_steps(steps, sample_stride)
    probs = np.empty((rec.shape[0], n))
    probs[0] = np.real(np.diagonal(rho0))
    for i, v in _sector_entries(phi, rho0, rec, np.flatnonzero(phi._cycles[0][:, 0] % (n + 1) == 0)):
        probs[i:i + v.shape[0]] = v.real
    return probs


def _eigenpairs(rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v): the eigenvalues of the density rho0 and its eigenvectors, the columns of v.

    A basis density |i><i|, one nonzero entry and that a 1 on the diagonal,
    has the eigenpairs (1, e_i) and (0, e_j), j != i: w is e_i and v the
    identity, whose column i is the eigenvector of weight 1 that ``eigh``
    returns. Every CLI run passes such a density, on which ``eigh`` took
    1.07 ms at n = 100. Any other density goes through ``eigh``.
    """
    n = rho0.shape[0]
    entries = np.flatnonzero(rho0)
    if entries.shape[0] == 1 and entries[0] % (n + 1) == 0 and rho0.flat[entries[0]] == 1.0:
        w = np.zeros(n)
        w[entries[0] // (n + 1)] = 1.0
        return w, np.eye(n)
    return np.linalg.eigh(rho0)


def monte_carlo_channel(
    g: Graph,
    run: PercolationRun,
    rho0: np.ndarray,
    n_trajectories: int,
    sample_stride: int = 1,
) -> EnsembleRecord:
    """Average |psi(t)><psi(t)| over independent trajectories.

    Trajectory k uses the stream (run.seed, spawn_key=(k,)), so ensembles
    are reproducible and individual trajectories re-runnable. Initial pure
    states are sampled from the eigen-ensemble of rho0 by eigenvalue weight:
    for a mixed rho0, trajectory k first draws the index of its initial
    eigenstate from its stream, then its keep bits. A pure rho0 draws
    nothing, so trajectory k then equals ``run_trajectory(trajectory_index=k)``.
    rho0 is checked first, and a Taylor plan above the work bound is refused
    before any keep bit is drawn (``_kernels.step_plan`` of the first,
    widest chunk). Trajectories run in chunks of at most
    ENSEMBLE_CHUNK_BYTES of uint8 keep bits, or of one trajectory where its
    bits alone pass that bound, through ``_kernels.ensemble_quantum``; the
    uniforms they are drawn from take a few blocks at a time
    (``sample_keep_bits``), not a chunk. Each chunk returns its sum of
    |psi><psi|, per-site (count, mean, M2) moments of the site probabilities
    per record step, max norm drift and propagator name. Sums add and moments merge pairwise across chunks; ``propagator`` names
    each chunk's route once, ", "-joined. The reported scalar per record is
    the largest standard error among the diagonal (site-probability)
    entries.
    """
    rho0 = check_density_matrix(rho0)
    n = g.node_count
    if rho0.shape[0] != n:
        raise ValueError(f"density dimension {rho0.shape[0]} != node_count {n}")
    w, v = _eigenpairs(rho0)
    check_density_spectrum(w)
    w = np.where(w > 0, w, 0.0)
    w = w / w.sum()
    eigenstates = v.T.astype(np.complex128)
    pure = w.max() > 1.0 - 1e-12
    if n_trajectories < 2:
        raise ValueError(f"n_trajectories must be >= 2, got {n_trajectories}")
    per_trajectory = run.steps * max(g.edge_count, 1)
    chunk = max(1, min(n_trajectories, ENSEMBLE_CHUNK_BYTES // per_trajectory))
    _kernels.step_plan(g.edge_array, n, run.tau, run.steps, True, chunk)
    rec = recorded_steps(run.steps, sample_stride)
    total, moments, max_drift, propagators = None, [(0, 0.0, 0.0)] * rec.shape[0], 0.0, {}
    for start in range(0, n_trajectories, chunk):
        stop = min(start + chunk, n_trajectories)
        bits3 = np.empty((stop - start, run.steps, g.edge_count), dtype=np.uint8)
        picks = np.full(stop - start, np.argmax(w))
        for k in range(start, stop):
            rng = rng_from_seed(run.seed, k)
            if not pure:
                picks[k - start] = rng.choice(n, size=1, p=w)[0]
            bits3[k - start] = sample_keep_bits(g, run.lam, rng, run.steps)
        chunk_sum, chunk_moments, drift, propagator = _kernels.ensemble_quantum(
            g.edge_array, n, run.tau, bits3, rec, eigenstates[picks])
        if start:
            total += chunk_sum
        else:
            total = chunk_sum
        moments = list(map(_kernels.merge_moments, moments, chunk_moments))
        max_drift = np.maximum(max_drift, drift)  # keeps a NaN drift, unlike max()
        propagators[propagator] = None
    t = n_trajectories
    total /= t
    return EnsembleRecord(
        record_steps=rec,
        times=rec * run.tau,
        densities=total,
        diag_stderr=np.array([np.sqrt(m2 / ((t - 1) * t)).max() for _, _, m2 in moments]),
        n_trajectories=t,
        max_norm_drift=float(max_drift),
        propagator=", ".join(propagators),
    )
