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
  ``evolve_channel`` advances between recorded steps with one power of the
  channel where that costs fewer flops than repeated products, and checks
  the trace at every record.
* ``monte_carlo_channel`` / ``monte_carlo_classical``: trajectory-ensemble
  estimates of the channel output with standard errors. Both are thin
  wrappers over one driver, which simulates each trajectory once. The
  ensemble kernels return sums and per-site (count, mean, M2) moments,
  merged pairwise across column blocks; the driver merges them across
  chunks the same way (Chan, Golub & LeVeque, Am. Stat. 37:242, 1983). The
  initial density is eigendecomposed once per call.

Per-step exponentials are spectral exponentials (graphs with at most
``_kernels.CACHE_MAX_EDGES`` edges) or truncated Taylor actions whose
truncation error is at most 2^-53 of the state norm per substep (larger
graphs; see ``_kernels.taylor_plan``). Discrepancies from the rescaled-time
reference therefore come from non-commutativity of the sampled generators,
not from integrator error. Every record names the propagator that ran and
the largest drift of the conserved norm, and every channel names its
propagator and bounds its trace drift (``ChannelMatrix.trace_drift_bound``),
so a run reports how far to trust it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import (
    MAX_ENUM_EDGES,
    CapacityError,
    Graph,
    bits_to_mask,
    rng_from_seed,
    sample_keep_bits,
)
from .walk import (
    WalkConfig,
    check_density_matrix,
    check_distribution,
    check_quantum_state,
)

RENORM_EVERY = 10_000
RENORM_TOL = 1e-12
# bound on the pre-sampled keep-bit block for ensemble runs
ENSEMBLE_CHUNK_BYTES = 1 << 26


@dataclass(frozen=True)
class PercolationRun:
    """Stochastic-evolution configuration: keep probability, step size, step count, seed.

    ``steps`` is authoritative; ``total_time`` is derived as steps * tau.
    """

    lam: float
    tau: float
    steps: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
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
    realization_masks: tuple[int, ...] | None
    max_norm_drift: float  # max over steps of | ||psi||_2 - 1 |
    propagator: str  # "mask-cache" or "taylor(substeps=S, order=K)"

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
    propagator: str

    def site_probabilities(self) -> np.ndarray:
        return np.real(np.diagonal(self.densities, axis1=1, axis2=2))


@dataclass(frozen=True)
class ClassicalEnsembleRecord:
    """Trajectory-averaged classical distributions with standard errors."""

    record_steps: np.ndarray
    times: np.ndarray
    distributions: np.ndarray
    stderr: np.ndarray
    n_trajectories: int
    max_norm_drift: float
    propagator: str


@dataclass(frozen=True)
class ChannelMatrix:
    """One-step percolation channel on column-stacked density matrices."""

    matrix: np.ndarray  # (d*d, d*d) complex
    dim: int
    # how the propagators were built, "taylor(substeps=2^q, order=K)"; empty when given
    propagator: str = ""
    # order |G| of the automorphism group the build summed over (1: none), 0 when given
    symmetries: int = 0
    # propagators built: one per orbit of masks under G with nonzero probability
    orbits: int = 0

    def __post_init__(self):
        dd = self.dim * self.dim
        if self.matrix.shape != (dd, dd):
            raise ValueError(f"channel matrix shape {self.matrix.shape} != ({dd}, {dd})")

    @property
    def trace_defect(self) -> float:
        """delta = max_j |(t^dag Phi)_j - t_j| with t = vec(I)."""
        diag = np.arange(self.dim) * (self.dim + 1)
        defect = self.matrix[diag].sum(axis=0)
        defect[diag] -= 1.0
        return float(np.abs(defect).max())

    def trace_drift_bound(self, steps: int) -> float:
        """About the largest |tr(rho) - 1| after ``steps`` float64 applications, from tr(rho0) = 1.

        One application changes tr(rho) by at most (delta + d^2 u) ||vec rho||_1,
        with delta the ``trace_defect`` and u = 2^-53: each of the d diagonal
        entries of the product sums d^2 terms, whose rounding is at most d^2 u
        times their magnitudes, and the diagonal rows of a channel have
        column 1-norms of at most 1. A density has ||vec rho||_1 <= d tr(rho).
        """
        return steps * self.dim * (self.trace_defect + self.dim**2 * 2.0**-53)


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


def unvec_density(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def run_trajectory(
    g: Graph,
    cfg: WalkConfig | None,
    run: PercolationRun,
    psi0: np.ndarray,
    sample_stride: int = 1,
    log_masks: bool = False,
    trajectory_index: int = 0,
) -> TrajectoryRecord:
    """Evolve one stochastic trajectory of the percolated quantum walk.

    Each step samples an edge subset (keep probability ``run.lam``) and
    applies the unitary exp(-i * H_realization * tau). The random
    stream is PCG64 seeded by (run.seed, trajectory_index), so results are
    reproducible bit for bit on a fixed backend.
    """
    cfg = cfg or WalkConfig()
    psi0 = check_quantum_state(psi0)
    if psi0.shape[0] != g.node_count:
        raise ValueError(f"state dimension {psi0.shape[0]} != node_count {g.node_count}")
    rng = rng_from_seed(run.seed, trajectory_index)
    bits = sample_keep_bits(g, run.lam, rng, run.steps)
    rec = recorded_steps(run.steps, sample_stride)
    states, drift, propagator = _kernels.trajectory_states(
        g.edge_array, g.node_count, cfg.gamma, run.tau, bits, rec, psi0, RENORM_EVERY, RENORM_TOL
    )
    masks = tuple(bits_to_mask(bits[s]) for s in range(run.steps)) if log_masks else None
    return TrajectoryRecord(
        record_steps=rec,
        times=rec * run.tau,
        states=states,
        realization_masks=masks,
        max_norm_drift=float(drift),
        propagator=propagator,
    )


def run_classical_trajectory(
    g: Graph,
    cfg: WalkConfig | None,
    run: PercolationRun,
    p0: np.ndarray,
    sample_stride: int = 1,
    trajectory_index: int = 0,
) -> ClassicalTrajectoryRecord:
    """Classical analog of ``run_trajectory``: per-step exp(-H_realization * tau).

    ``max_norm_drift`` of the record is the largest |sum(p) - 1| over the steps.
    """
    cfg = cfg or WalkConfig()
    p0 = check_distribution(p0)
    if p0.shape[0] != g.node_count:
        raise ValueError(f"distribution dimension {p0.shape[0]} != node_count {g.node_count}")
    rng = rng_from_seed(run.seed, trajectory_index)
    bits = sample_keep_bits(g, run.lam, rng, run.steps)
    rec = recorded_steps(run.steps, sample_stride)
    dists, drift, propagator = _kernels.classical_trajectory(
        g.edge_array, g.node_count, cfg.gamma, run.tau, bits, rec, p0
    )
    return ClassicalTrajectoryRecord(
        record_steps=rec,
        times=rec * run.tau,
        distributions=dists,
        max_norm_drift=float(drift),
        propagator=propagator,
    )


def build_step_channel(g: Graph, cfg: WalkConfig | None, lam: float, tau: float) -> ChannelMatrix:
    """Exact one-step channel: sum over all 2^E realizations of p_r U_r . U_r^dag.

    Column-stacking convention: the returned matrix is
    sum_r p_r kron(conj(U_r), U_r). One propagator is built per orbit of
    realizations under the graph's automorphism group; the channel records
    the group order (``symmetries``) and the propagators built (``orbits``).
    Refuses graphs above the enumeration limit; use the Monte Carlo backend
    for those.
    """
    cfg = cfg or WalkConfig()
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
    n = g.node_count
    k_acc, propagator, symmetries, orbits = _kernels.channel_accumulate(
        g.edge_array, n, cfg.gamma, float(lam), float(tau))
    phi = k_acc.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return ChannelMatrix(matrix=np.ascontiguousarray(phi), dim=n, propagator=propagator,
                         symmetries=symmetries, orbits=orbits)


def apply_channel(phi: ChannelMatrix, rho: np.ndarray) -> np.ndarray:
    """One application of the channel to a density matrix."""
    if rho.shape != (phi.dim, phi.dim):
        raise ValueError(f"density matrix shape {rho.shape} != ({phi.dim}, {phi.dim})")
    return unvec_density(phi.matrix @ vec_density(rho), phi.dim)


def _use_power(dd: int, k: int, count: int) -> bool:
    """Whether ``count`` advances of k steps should apply Phi^k instead of k matvecs each.

    Binary powering spends about (log2 k + popcount k) dd^3 flops on Phi^k,
    which saves (k - 1) dd^2 flops on each advance.
    """
    return k > 1 and (math.log2(k) + k.bit_count()) * dd < (k - 1) * count


def _power_minus_identity(m: np.ndarray, k: int) -> np.ndarray:
    """Phi^k - I, k >= 1, by binary powering of D = Phi - I with (I+A)(I+B) - I = A + B + AB.

    A short step's Phi is close to the identity. Carrying Phi^k - I keeps
    the round-off of the products relative to its small entries instead of
    the unit diagonal. Powering Phi itself left up to six times the
    round-off of single matvecs on a 5000-step ring:15 curve; this form
    leaves less than either.
    """
    d = m - np.eye(m.shape[0])
    e = None
    while True:
        if k & 1:
            e = d.copy() if e is None else e + d + e @ d
        k >>= 1
        if not k:
            return e
        d = 2.0 * d + d @ d


def evolve_channel(
    phi: ChannelMatrix, rho0: np.ndarray, steps: int, sample_stride: int = 1
) -> np.ndarray:
    """Repeated channel action; returns the recorded density matrices.

    Output shape is (len(recorded_steps(steps, stride)), d, d); step 0 (the
    input state) is always the first record and the final step the last.
    Each gap of k steps between records is one update v + (Phi^k - I) v,
    each distinct power computed once, when ``_use_power`` says that is
    cheaper than k products with Phi. The trace is checked at every record.
    """
    rho0 = check_density_matrix(rho0)
    if rho0.shape[0] != phi.dim:
        raise ValueError(f"density dimension {rho0.shape[0]} != channel dim {phi.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return rho0[None, :, :].copy()
    rec = recorded_steps(steps, sample_stride)
    gaps = np.diff(rec)
    ks, counts = np.unique(gaps, return_counts=True)
    powers = {
        k: _power_minus_identity(phi.matrix, k)
        for k, count in zip(ks.tolist(), counts.tolist())
        if _use_power(phi.dim**2, k, count)
    }
    out = np.empty((rec.shape[0], phi.dim, phi.dim), dtype=np.complex128)
    out[0] = rho0
    v = vec_density(rho0)
    for i, k in enumerate(gaps.tolist(), start=1):
        if k in powers:
            v = v + powers[k] @ v
        else:
            for _ in range(k):
                v = phi.matrix @ v
        rho = unvec_density(v, phi.dim)
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-8:
            raise np.linalg.LinAlgError(
                f"channel evolution lost trace at step {rec[i]}: trace = {tr}"
            )
        out[i] = rho
    return out


def _monte_carlo(g, run, n_trajectories, sample_stride, kernel, weights=None):
    """Shared body of the Monte Carlo drivers.

    Trajectory k uses the stream (run.seed, spawn_key=(k,)). When the
    eigenvalue ``weights`` of a mixed initial density are given, it first
    draws the index of its initial eigenstate from that stream; then it
    draws its keep bits. Trajectories run in chunks through
    ``kernel(bits3, record_steps, picks)``; picks holds the drawn indices,
    or is None when nothing was drawn. The kernel returns the chunk's sum,
    per-site (count, mean, M2) moments per record step, max norm drift and
    propagator name. Sums add and moments merge pairwise across chunks.

    -> (record steps, mean, max-over-sites standard error, drift, propagator).
    """
    if n_trajectories < 2:
        raise ValueError(f"n_trajectories must be >= 2, got {n_trajectories}")
    rec = recorded_steps(run.steps, sample_stride)
    total, moments, max_drift = 0.0, [(0, 0.0, 0.0)] * rec.shape[0], 0.0
    per_trajectory = run.steps * max(g.edge_count, 1)
    chunk = max(1, min(n_trajectories, ENSEMBLE_CHUNK_BYTES // per_trajectory))
    for start in range(0, n_trajectories, chunk):
        stop = min(start + chunk, n_trajectories)
        bits3 = np.empty((stop - start, run.steps, g.edge_count), dtype=np.uint8)
        picks = None if weights is None else np.empty(stop - start, dtype=np.int64)
        for k in range(start, stop):
            rng = rng_from_seed(run.seed, k)
            if picks is not None:
                picks[k - start] = rng.choice(weights.shape[0], size=1, p=weights)[0]
            bits3[k - start] = sample_keep_bits(g, run.lam, rng, run.steps)
        chunk_sum, chunk_moments, drift, propagator = kernel(bits3, rec, picks)
        total = total + chunk_sum
        moments = list(map(_kernels.merge_moments, moments, chunk_moments))
        max_drift = max(max_drift, drift)
    t = n_trajectories
    stderr = np.array([np.sqrt(m2 / ((t - 1) * t)).max() for _, _, m2 in moments])
    return rec, total / t, stderr, float(max_drift), propagator


def monte_carlo_channel(
    g: Graph,
    cfg: WalkConfig | None,
    run: PercolationRun,
    rho0: np.ndarray,
    n_trajectories: int,
    sample_stride: int = 1,
) -> EnsembleRecord:
    """Average |psi(t)><psi(t)| over independent trajectories.

    Trajectory k uses the stream (run.seed, spawn_key=(k,)), so ensembles
    are reproducible and individual trajectories re-runnable. Initial pure
    states are sampled from the eigen-ensemble of rho0 by eigenvalue weight;
    a pure rho0 draws nothing, so trajectory k then equals
    ``run_trajectory(trajectory_index=k)``. The reported scalar per record
    is the largest standard error among the diagonal (site-probability)
    entries.
    """
    cfg = cfg or WalkConfig()
    rho0 = check_density_matrix(rho0)
    n = g.node_count
    if rho0.shape[0] != n:
        raise ValueError(f"density dimension {rho0.shape[0]} != node_count {n}")
    w, v = np.linalg.eigh(rho0)
    w = np.where(w > 0, w, 0.0)
    w = w / w.sum()
    eigenstates = v.T.astype(np.complex128)
    pure = w.max() > 1.0 - 1e-12

    def kernel(bits3, rec, picks):
        idx = np.full(bits3.shape[0], np.argmax(w)) if picks is None else picks
        return _kernels.ensemble_quantum(g.edge_array, n, cfg.gamma, run.tau, bits3, rec,
                                         eigenstates[idx], RENORM_EVERY, RENORM_TOL)

    rec, densities, stderr, drift, propagator = _monte_carlo(
        g, run, n_trajectories, sample_stride, kernel, None if pure else w)
    return EnsembleRecord(
        record_steps=rec,
        times=rec * run.tau,
        densities=densities,
        diag_stderr=stderr,
        n_trajectories=n_trajectories,
        max_norm_drift=drift,
        propagator=propagator,
    )


def monte_carlo_classical(
    g: Graph,
    cfg: WalkConfig | None,
    run: PercolationRun,
    p0: np.ndarray,
    n_trajectories: int,
    sample_stride: int = 1,
) -> ClassicalEnsembleRecord:
    """Average classical trajectories; same estimator shape as the quantum case."""
    cfg = cfg or WalkConfig()
    p0 = check_distribution(p0)
    if p0.shape[0] != g.node_count:
        raise ValueError(f"distribution dimension {p0.shape[0]} != node_count {g.node_count}")

    def kernel(bits3, rec, picks):
        return _kernels.ensemble_classical(g.edge_array, g.node_count, cfg.gamma, run.tau,
                                           bits3, rec, p0)

    rec, dist, stderr, drift, propagator = _monte_carlo(g, run, n_trajectories, sample_stride, kernel)
    return ClassicalEnsembleRecord(
        record_steps=rec,
        times=rec * run.tau,
        distributions=dist,
        stderr=stderr,
        n_trajectories=n_trajectories,
        max_norm_drift=drift,
        propagator=propagator,
    )
