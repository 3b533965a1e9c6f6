"""Evolution backends for percolated walks.

Three routes to the same physics:

* ``run_trajectory`` / ``run_classical_trajectory``: one stochastic
  realization sequence, applying the per-step propagator exp(z * H_r).
* ``build_step_channel`` + ``evolve_channel``: the exact realization-averaged
  one-step channel (all 2^E edge subsets, probability-weighted unitary
  conjugations) as a d^2 x d^2 matrix on column-stacked density matrices.
* ``monte_carlo_channel`` / ``monte_carlo_classical``: trajectory-ensemble
  estimates of the channel output with standard errors.

Per-step exponentials are spectral exponentials (graphs with at most
``_kernels.CACHE_MAX_EDGES`` edges) or truncated Taylor actions whose
truncation error is at most 2^-53 of the state norm per substep (larger
graphs; see ``_kernels.taylor_plan``). Discrepancies from the rescaled-time
reference therefore come from non-commutativity of the sampled generators,
not from integrator error. Every record names the propagator that ran and
the largest drift of the conserved norm, so a run reports how far to trust
it.
"""
from __future__ import annotations

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

    def __post_init__(self):
        dd = self.dim * self.dim
        if self.matrix.shape != (dd, dd):
            raise ValueError(f"channel matrix shape {self.matrix.shape} != ({dd}, {dd})")


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
    sum_r p_r kron(conj(U_r), U_r). Refuses graphs above the enumeration
    limit; use the Monte Carlo backend for those.
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
    k_acc = _kernels.channel_accumulate(g.edge_array, n, cfg.gamma, float(lam), float(tau))
    phi = k_acc.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return ChannelMatrix(matrix=np.ascontiguousarray(phi), dim=n)


def apply_channel(phi: ChannelMatrix, rho: np.ndarray) -> np.ndarray:
    """One application of the channel to a density matrix."""
    if rho.shape != (phi.dim, phi.dim):
        raise ValueError(f"density matrix shape {rho.shape} != ({phi.dim}, {phi.dim})")
    return unvec_density(phi.matrix @ vec_density(rho), phi.dim)


def evolve_channel(
    phi: ChannelMatrix, rho0: np.ndarray, steps: int, sample_stride: int = 1
) -> np.ndarray:
    """Repeated channel action; returns the recorded density matrices.

    Output shape is (len(recorded_steps(steps, stride)), d, d); step 0 (the
    input state) is always the first record and the final step the last.
    """
    rho0 = check_density_matrix(rho0)
    if rho0.shape[0] != phi.dim:
        raise ValueError(f"density dimension {rho0.shape[0]} != channel dim {phi.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return rho0[None, :, :].copy()
    rec = recorded_steps(steps, sample_stride)
    out = np.empty((rec.shape[0], phi.dim, phi.dim), dtype=np.complex128)
    v = vec_density(rho0)
    rec_i = 0
    if rec[0] == 0:
        out[0] = rho0
        rec_i = 1
    for s in range(1, steps + 1):
        v = phi.matrix @ v
        if rec_i < rec.shape[0] and rec[rec_i] == s:
            rho = unvec_density(v, phi.dim)
            tr = np.trace(rho).real
            if abs(tr - 1.0) > 1e-8:
                raise np.linalg.LinAlgError(
                    f"channel evolution lost trace at step {s}: trace = {tr}"
                )
            out[rec_i] = rho
            rec_i += 1
    return out


def _initial_states_from_density(
    rho0: np.ndarray, n_trajectories: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trajectory pure initial states sampled from the eigenensemble of rho0.

    A pure rho0 yields the same state for every trajectory; a mixed rho0 is
    sampled by eigenvalue weight, which reproduces rho0 in expectation.
    """
    w, v = np.linalg.eigh(rho0)
    w = np.where(w > 0, w, 0.0)
    w = w / w.sum()
    if w.max() > 1.0 - 1e-12:
        # pure state: deterministic, and the rng stream stays untouched so
        # trajectory k of the ensemble equals run_trajectory(trajectory_index=k)
        idx = np.full(n_trajectories, int(np.argmax(w)))
    else:
        idx = rng.choice(w.shape[0], size=n_trajectories, p=w)
    return np.ascontiguousarray(v[:, idx].T.astype(np.complex128))


def _ensemble_chunks(n_trajectories: int, steps: int, edge_count: int) -> int:
    per_traj = max(1, steps * max(edge_count, 1))
    return max(1, min(n_trajectories, ENSEMBLE_CHUNK_BYTES // per_traj))


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
    are reproducible and individual trajectories re-runnable. The reported
    scalar per record is the largest standard error among the diagonal
    (site-probability) entries.
    """
    cfg = cfg or WalkConfig()
    rho0 = check_density_matrix(rho0)
    if rho0.shape[0] != g.node_count:
        raise ValueError(f"density dimension {rho0.shape[0]} != node_count {g.node_count}")
    if n_trajectories < 2:
        raise ValueError(f"n_trajectories must be >= 2, got {n_trajectories}")
    rec = recorded_steps(run.steps, sample_stride)
    n = g.node_count
    n_rec = rec.shape[0]
    # center the variance accumulation on trajectory 0 so identical
    # trajectories (lam = 0 or 1) report exactly zero standard error
    rng0 = rng_from_seed(run.seed, 0)
    psi0_first = _initial_states_from_density(rho0, 1, rng0)[0]
    bits0 = sample_keep_bits(g, run.lam, rng0, run.steps)
    states0, max_drift, _ = _kernels.trajectory_states(
        g.edge_array, n, cfg.gamma, run.tau, bits0, rec, psi0_first, RENORM_EVERY, RENORM_TOL
    )
    center = np.abs(states0) ** 2
    sum_outer = np.zeros((n_rec, n, n), dtype=np.complex128)
    sum_dev = np.zeros((n_rec, n))
    sum_dev2 = np.zeros((n_rec, n))
    chunk = _ensemble_chunks(n_trajectories, run.steps, g.edge_count)
    for start in range(0, n_trajectories, chunk):
        stop = min(start + chunk, n_trajectories)
        bits3 = np.empty((stop - start, run.steps, g.edge_count), dtype=np.uint8)
        psis0 = np.empty((stop - start, n), dtype=np.complex128)
        for k in range(start, stop):
            rng = rng_from_seed(run.seed, k)
            psis0[k - start] = _initial_states_from_density(rho0, 1, rng)[0]
            bits3[k - start] = sample_keep_bits(g, run.lam, rng, run.steps)
        so, sd, sd2, drift, propagator = _kernels.ensemble_quantum(
            g.edge_array, n, cfg.gamma, run.tau, bits3, rec, psis0, center, RENORM_EVERY, RENORM_TOL
        )
        max_drift = max(max_drift, drift)
        sum_outer += so
        sum_dev += sd
        sum_dev2 += sd2
    t = n_trajectories
    densities = sum_outer / t
    var = np.maximum(sum_dev2 - sum_dev**2 / t, 0.0) / (t - 1)
    stderr = np.sqrt(var / t).max(axis=1)
    return EnsembleRecord(
        record_steps=rec,
        times=rec * run.tau,
        densities=densities,
        diag_stderr=stderr,
        n_trajectories=t,
        max_norm_drift=float(max_drift),
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
    if n_trajectories < 2:
        raise ValueError(f"n_trajectories must be >= 2, got {n_trajectories}")
    rec = recorded_steps(run.steps, sample_stride)
    n = g.node_count
    n_rec = rec.shape[0]
    bits0 = sample_keep_bits(g, run.lam, rng_from_seed(run.seed, 0), run.steps)
    center, max_drift, _ = _kernels.classical_trajectory(
        g.edge_array, n, cfg.gamma, run.tau, bits0, rec, p0
    )
    sum_dist = np.zeros((n_rec, n))
    sum_dev = np.zeros((n_rec, n))
    sum_dev2 = np.zeros((n_rec, n))
    chunk = _ensemble_chunks(n_trajectories, run.steps, g.edge_count)
    for start in range(0, n_trajectories, chunk):
        stop = min(start + chunk, n_trajectories)
        bits3 = np.empty((stop - start, run.steps, g.edge_count), dtype=np.uint8)
        for k in range(start, stop):
            rng = rng_from_seed(run.seed, k)
            bits3[k - start] = sample_keep_bits(g, run.lam, rng, run.steps)
        sd, sdev, sdev2, drift, propagator = _kernels.ensemble_classical(
            g.edge_array, n, cfg.gamma, run.tau, bits3, rec, p0, center
        )
        max_drift = max(max_drift, drift)
        sum_dist += sd
        sum_dev += sdev
        sum_dev2 += sdev2
    t = n_trajectories
    dist = sum_dist / t
    var = np.maximum(sum_dev2 - sum_dev**2 / t, 0.0) / (t - 1)
    stderr = np.sqrt(var / t).max(axis=1)
    return ClassicalEnsembleRecord(
        record_steps=rec,
        times=rec * run.tau,
        distributions=dist,
        stderr=stderr,
        n_trajectories=t,
        max_norm_drift=float(max_drift),
        propagator=propagator,
    )
