"""Experiment drivers: return-probability curves, step-size convergence
scans, error horizons, and envelope fitting.

Every driver returns the table of its CSV, ``(meta, columns)``: the
arguments of ``csvio.write_csv``. ``meta`` is the ``#`` header (the run's
parameters and diagnostics) and ``columns`` a list of (name, array) pairs.
Drivers write no file: the caller writes a table with ``write_csv`` or
renders it with ``finite_csv``. A driver reads its graph once and passes it
down, so a CSV's simulated and reference columns come from one graph. The
rescaled reference is ``walk``'s on it: the Taylor action from record to
record where the curve's gaps cost fewer matvecs than the graph has nodes,
else the eigenpairs. Only ``oracle_table`` writes closed forms, for the
graph families it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .. import oracles
from ..dynamics import (
    PercolationRun,
    build_step_channel,
    channel_site_probabilities,
    monte_carlo_channel,
    recorded_steps,
    run_classical_trajectory,
    run_trajectory,
)
from ..graph import Graph, graph_from_spec
from ..walk import basis_density, basis_state, classical_transition, transition_probability

# relative error is undefined where the reference vanishes; points with a
# reference below this guard are skipped in horizon scans
REL_ERROR_GUARD = 1e-6

FIT_MAX_ITER = 200  # Gauss-Newton iterations of fit_exponential_envelope


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment point: graph, percolation and timing.

    A run is ``steps`` steps of size ``tau``: ``run()`` needs both, and its
    total time is their product. A scan instead takes the window
    ``total_time`` and runs each of its step counts S at tau = total_time/S.
    A spec that sets ``total_time`` together with ``tau`` or ``steps`` is
    refused, so that no value is silently ignored.
    """

    graph_spec: str
    lam: float = 0.5
    tau: float | None = None
    steps: int | None = None
    total_time: float | None = None
    start: int = 0
    seed: int = 0
    stride: int = 1
    trajectories: int = 100

    def __post_init__(self):
        if self.total_time is not None and (self.tau is not None or self.steps is not None):
            raise ValueError("give tau and steps for a run, or total_time for a scan, not both")

    def graph(self) -> Graph:
        return graph_from_spec(self.graph_spec)

    def run(self) -> PercolationRun:
        """The spec's run; ``PercolationRun`` checks tau, the step count and their product."""
        if self.tau is None or self.steps is None:
            raise ValueError(f"a run needs both tau and steps, got tau={self.tau}, steps={self.steps}")
        return PercolationRun(lam=self.lam, tau=self.tau, steps=self.steps, seed=self.seed)


def base_meta(spec: ExperimentSpec, experiment: str, **extra) -> dict:
    """The CSV header of one run of ``spec``: its parameters, then ``extra``."""
    run = spec.run()
    return {"tool": "percwalk", "experiment": experiment, "graph": spec.graph_spec, "lambda": spec.lam,
            "tau": run.tau, "steps": run.steps, "total_time": run.total_time, "start": spec.start,
            "seed": spec.seed, "stride": spec.stride, **extra}


# ---------------------------------------------------------------------------
# single-point return-probability curves
# ---------------------------------------------------------------------------


def _run_diagnostics(rec) -> dict:
    """CSV metadata saying which propagator a stochastic run used and how far its norm drifted."""
    return {"propagator": rec.propagator, "max_norm_drift": rec.max_norm_drift}


def quantum_trajectory_curve(g: Graph, spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    rec = run_trajectory(g, spec.run(), basis_state(g.node_count, spec.start), spec.stride)
    return rec.times, rec.site_probabilities()[:, spec.start], _run_diagnostics(rec)


def classical_trajectory_curve(g: Graph, spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    p0 = np.abs(basis_state(g.node_count, spec.start)) ** 2
    rec = run_classical_trajectory(g, spec.run(), p0, spec.stride)
    return rec.times, rec.distributions[:, spec.start], _run_diagnostics(rec)


def channel_curve(g: Graph, spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Exact-channel return probability with the channel's propagator and trace drift.

    The evolution keeps only the site probabilities
    (``channel_site_probabilities``). ``max_trace_drift`` is the largest
    |tr(rho) - 1| over the recorded rows, the trace summed from them;
    ``trace_drift_bound`` bounds it from the channel's trace defect and the
    rounding of each application (``ChannelMatrix.trace_drift_bound``).
    ``channel_symmetries`` is the order of the graph automorphism group
    the build summed over, ``channel_blocks`` the m x C Fourier sectors of
    its rotation that the evolution ran in (``ChannelMatrix.blocks``) and
    ``channel_orbits`` the number of propagators it built.
    """
    run = spec.run()
    rec = recorded_steps(run.steps, spec.stride)
    rho0 = basis_density(g.node_count, spec.start)
    phi = build_step_channel(g, run.lam, run.tau)
    probs = channel_site_probabilities(phi, rho0, run.steps, spec.stride)
    diagnostics = {
        "propagator": phi.propagator,
        "max_trace_drift": float(np.abs(probs.sum(axis=1) - 1.0).max()),
        "trace_drift_bound": phi.trace_drift_bound(run.steps),
        "channel_symmetries": phi.symmetries,
        "channel_blocks": "{}x{}".format(*phi.blocks),
        "channel_orbits": phi.orbits,
    }
    return rec * run.tau, probs[:, spec.start], diagnostics


def quantum_oracle_curve(g: Graph, spec: ExperimentSpec, times: np.ndarray) -> np.ndarray:
    """Rescaled reference: the unpercolated return probability on ``g`` at time lam * t."""
    return transition_probability(g, spec.start, spec.start, spec.lam * times)


def classical_oracle_curve(g: Graph, spec: ExperimentSpec, times: np.ndarray) -> np.ndarray:
    """Classical rescaled reference: the unpercolated classical return probability on ``g`` at lam * t."""
    return classical_transition(g, spec.start, spec.start, spec.lam * times)


def point_table(spec: ExperimentSpec, command: str) -> tuple[dict, list]:
    """Metadata and columns of the CSV of one single-point command.

    ``command`` is ``trajectory``, ``classical``, ``channel`` or
    ``montecarlo``; each writes its return probability at the start node
    next to the rescaled reference. An unknown command is refused before
    the graph is read.
    """
    if command not in ("trajectory", "classical", "channel", "montecarlo"):
        raise ValueError(f"unknown single-point command {command!r}")
    g = spec.graph()
    if command == "montecarlo":
        rec = monte_carlo_channel(
            g, spec.run(), basis_density(g.node_count, spec.start), spec.trajectories, spec.stride
        )
        meta = base_meta(spec, command, trajectories=spec.trajectories, **_run_diagnostics(rec))
        columns = [("t", rec.times), ("p_mean", rec.site_probabilities()[:, spec.start]),
                   ("p_stderr", rec.diag_stderr)]
    else:
        curve = {"trajectory": quantum_trajectory_curve, "classical": classical_trajectory_curve,
                 "channel": channel_curve}[command]
        times, p_sim, diagnostics = curve(g, spec)
        meta, columns = base_meta(spec, command, **diagnostics), [("t", times), ("p_sim", p_sim)]
    oracle = classical_oracle_curve if command == "classical" else quantum_oracle_curve
    return meta, [*columns, ("p_oracle", oracle(g, spec, columns[0][1]))]


ORACLE_CHOICES = ("rescaled", "complete-q", "complete-c", "ring4-c", "flat")
# closed-form return probabilities, each valid for one graph family only
_RETURN_FORMS = ("complete-q", "complete-c", "ring4-c")


def _check_return_form(which: str, g: Graph, start: int, target: int) -> None:
    """Refuse a closed-form return probability for a target or a graph it does not describe."""
    if target != start:
        raise ValueError(f"--which {which} is a return probability: --target must equal --start")
    if which == "ring4-c":
        family = g.node_count == 4 and g.edge_count == 4 and bool(np.all(g.degrees() == 2))
    else:
        family = g.edge_count == g.node_count * (g.node_count - 1) // 2  # a Graph is simple
    if not family:
        name = "the 4-ring" if which == "ring4-c" else "a complete graph"
        raise ValueError(f"--which {which} holds only on {name}; use --which rescaled for this graph")


def oracle_table(spec: ExperimentSpec, which: str, target: int | None = None) -> tuple[dict, list]:
    """Metadata and columns of one closed-form reference curve (``ORACLE_CHOICES``).

    ``target`` defaults to the start node. Every curve refuses a lambda
    outside [0, 1] and nodes outside the graph, and the closed-form return
    probabilities refuse targets and graphs they do not describe.
    """
    g = spec.graph()
    run = spec.run()  # refuses a lambda outside [0, 1]
    times = recorded_steps(run.steps, spec.stride) * run.tau
    target = spec.start if target is None else target
    for flag, node in (("--start", spec.start), ("--target", target)):
        if not 0 <= node < g.node_count:
            raise ValueError(f"{flag} {node} out of range for {g.node_count} nodes")
    if which in _RETURN_FORMS:
        _check_return_form(which, g, spec.start, target)
    if which == "rescaled":
        p = transition_probability(g, spec.start, target, spec.lam * times)
    elif which == "complete-q":
        p = np.asarray(oracles.complete_graph_quantum_return(g.node_count, spec.lam * times))
    elif which == "complete-c":
        p = np.asarray(oracles.complete_graph_classical_return(g.node_count, spec.lam * times))
    elif which == "ring4-c":
        p = np.asarray(oracles.ring4_classical_return(spec.lam, times))
    elif which == "flat":
        p = np.full(times.shape, oracles.flat_limit(g.node_count))
    else:
        raise ValueError(f"unknown oracle {which!r}; expected one of {', '.join(ORACLE_CHOICES)}")
    meta = {
        "tool": "percwalk",
        "experiment": f"oracle:{which}",
        "graph": spec.graph_spec,
        "lambda": spec.lam,
        "tau": run.tau,
        "steps": run.steps,
        "start": spec.start,
        "target": target,
        "stride": spec.stride,
    }
    return meta, [("t", times), ("p_oracle", p)]


# ---------------------------------------------------------------------------
# envelope fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential envelope a*exp(-b*t) above a fixed asymptote."""

    a: float
    b: float
    residual: float


class EnvelopeFitError(RuntimeError):
    """Envelope fit failed to converge; the message holds its residual where it has one."""


def extract_envelope_maxima(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oscillation peaks: interior points strictly greater than both neighbors.

    The leading sample is also included when it is the global maximum of the
    series; a return-probability curve starts at its peak, so that sample
    lies on the envelope even though it has only one neighbor.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    v = values
    idx = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    if v.shape[0] >= 2 and v[0] > v[1] and v[0] >= v.max():
        idx = np.concatenate([[0], idx])
    return times[idx], values[idx]


def fit_exponential_envelope(times: np.ndarray, values: np.ndarray, asymptote: float) -> EnvelopeFit:
    """Least-squares fit of a*exp(-b*t) + asymptote to (times, values).

    Initialized by log-linear regression on (values - asymptote); refined by
    Gauss-Newton with step halving whenever the residual would increase.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    resid0 = values - asymptote
    pos = resid0 > 0
    if pos.sum() < 2:
        raise EnvelopeFitError("need at least two points above the asymptote to initialize")
    slope, intercept = np.polyfit(times[pos], np.log(resid0[pos]), 1)
    a, b = float(np.exp(intercept)), float(-slope)

    def residuals(aa, bb):
        return aa * np.exp(-bb * times) + asymptote - values

    r = residuals(a, b)
    cost = float(r @ r)
    for _ in range(FIT_MAX_ITER):
        e = np.exp(-b * times)
        jac = np.column_stack([e, -a * times * e])
        grad = jac.T @ r
        hess = jac.T @ jac
        try:
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            residual = np.sqrt(cost / len(times))
            raise EnvelopeFitError(f"normal equations singular: {exc} (residual={residual:.3g})") from exc
        step = 1.0
        improved = False
        for _ in range(30):
            na, nb = a + step * delta[0], b + step * delta[1]
            nr = residuals(na, nb)
            nc = float(nr @ nr)
            if np.isfinite(nc) and nc <= cost:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        moved = abs(step * delta[0]) + abs(step * delta[1])
        a, b, r, cost = float(na), float(nb), nr, nc
        if moved <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    residual = float(np.sqrt(cost / len(times)))
    if not (np.isfinite(a) and np.isfinite(b)) or b < 0:
        raise EnvelopeFitError(f"fit did not converge to a decaying envelope: a={a}, b={b} "
                               f"(residual={residual:.3g})")
    return EnvelopeFit(a=a, b=b, residual=residual)


# the ring:4 long-run defaults of exp_longtime_finite_tau and the CLI's envelope
DEFAULT_LONGTIME_SPEC = ExperimentSpec(graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000, stride=1)
DEFAULT_TRAJECTORY_STEPS = 3000


def exp_longtime_finite_tau(
    spec: ExperimentSpec | None = None, trajectory_steps: int = DEFAULT_TRAJECTORY_STEPS
) -> tuple[dict, list]:
    """Long-run finite-step behavior, by default on the 4-ring.

    Defaults: lambda=0.2, channel with tau=0.1 for 1000 steps (T=100) plus
    one stochastic trajectory with 3000 steps over the same window. Emits
    the two simulated curves, the rescaled quantum and classical references,
    and the exponential envelope fit of the channel curve (asymptote pinned
    at the flat value 1/N): the metadata's ``envelope_a``, ``envelope_b``
    and ``envelope_residual``, or ``envelope_error`` when the fit fails,
    which leaves the curves as they are (the CLI writes them and exits 0).
    The graph is read once and both references are ``walk``'s on it, each
    on the route that its times pick (the default's 1 001 records take the
    eigenpairs). ``trajectory_steps``, a positive multiple of the channel
    steps, is checked before the channel is built. The trajectory column is
    sampled on its own step grid; with the default parameters both grids
    coincide to round-off.
    """
    spec = spec or DEFAULT_LONGTIME_SPEC
    run = spec.run()
    if trajectory_steps < 1:
        raise ValueError(f"trajectory_steps must be >= 1, got {trajectory_steps}")
    if trajectory_steps % run.steps:
        raise ValueError(
            f"trajectory_steps={trajectory_steps} must be a multiple of the channel steps={run.steps}"
        )
    g = spec.graph()
    n = g.node_count
    times, p_channel, _ = channel_curve(g, spec)
    traj_spec = replace(spec, tau=run.total_time / trajectory_steps, steps=trajectory_steps,
                        stride=trajectory_steps // run.steps * spec.stride)
    _, p_traj, traj_diag = quantum_trajectory_curve(g, traj_spec)
    p_q_oracle = quantum_oracle_curve(g, spec, times)
    p_c_oracle = classical_oracle_curve(g, spec, times)
    try:
        fit = fit_exponential_envelope(*extract_envelope_maxima(times, p_channel), oracles.flat_limit(n))
        envelope = {"envelope_a": fit.a, "envelope_b": fit.b, "envelope_residual": fit.residual}
    except EnvelopeFitError as exc:
        envelope = {"envelope_error": str(exc)}
    meta = base_meta(spec, "longtime_finite_tau", trajectory_steps=trajectory_steps,
                     envelope_asymptote=oracles.flat_limit(n), **traj_diag, **envelope)
    return meta, [
        ("t", times),
        ("p_channel", p_channel),
        ("p_trajectory", p_traj),
        ("p_quantum_oracle", p_q_oracle),
        ("p_classical_oracle", p_c_oracle),
    ]


# ---------------------------------------------------------------------------
# convergence and horizon scans
# ---------------------------------------------------------------------------


def _scan_meta(spec: ExperimentSpec, experiment: str, s_list, **extra) -> dict:
    """The CSV header of a scan: its time window, its step counts, then ``extra``.

    The window is the spec's total time, which must be positive and finite.
    Every point runs at tau = window/S and stride 1, and the exact channel
    draws nothing, so the header records none of the spec's tau, steps,
    stride or seed.
    """
    window = spec.total_time
    if window is None or not 0 < window < math.inf:
        raise ValueError(f"the scan window total_time must be positive and finite, got {window}")
    return {"tool": "percwalk", "experiment": experiment, "graph": spec.graph_spec, "lambda": spec.lam,
            "total_time": window, "start": spec.start,
            "s_list": ",".join(str(int(s)) for s in s_list), **extra}


def _scan_curves(spec: ExperimentSpec, window: float, s_list):
    """(steps, times, exact-channel curve, rescaled reference) over ``window`` for each step count."""
    g = spec.graph()
    for steps in s_list:
        point = replace(spec, tau=window / int(steps), steps=int(steps), total_time=None, stride=1)
        times, p_sim, _ = channel_curve(g, point)
        yield int(steps), times, p_sim, quantum_oracle_curve(g, point, times)


DEFAULT_CONVERGENCE_STEPS = (250, 500, 1000, 2000, 4000)
DEFAULT_CONVERGENCE_SPEC = ExperimentSpec(graph_spec="ring:10", lam=0.5, total_time=10.0)


def exp_convergence(
    spec: ExperimentSpec | None = None, s_list=DEFAULT_CONVERGENCE_STEPS
) -> tuple[dict, list]:
    """Max |P_sim - P_reference| of the exact channel for a ladder of step counts.

    The error is taken over every step of the evolution (stride 1), so the
    maximum is grid-exact. Defaults: ring:10, lambda=0.5, T=10. Columns:
    S, tau = T/S and max_abs_error.
    """
    spec = spec or DEFAULT_CONVERGENCE_SPEC
    meta = _scan_meta(spec, "convergence", s_list)
    window = meta["total_time"]
    errors = [float(np.max(np.abs(p_sim - p_oracle)))
              for _, _, p_sim, p_oracle in _scan_curves(spec, window, s_list)]
    s_col = np.array([int(s) for s in s_list])
    return meta, [("S", s_col), ("tau", window / s_col), ("max_abs_error", np.array(errors))]


DEFAULT_HORIZON_STEPS = (250, 500, 1000, 2000, 4000)
DEFAULT_HORIZON_EPSILONS = (0.02, 0.05, 0.1)
DEFAULT_HORIZON_SPEC = ExperimentSpec(graph_spec="ring:5", lam=0.5, total_time=10.0)


def exp_epsilon_horizon(
    spec: ExperimentSpec | None = None,
    epsilon_list=DEFAULT_HORIZON_EPSILONS,
    s_list=DEFAULT_HORIZON_STEPS,
) -> tuple[dict, list]:
    """Largest time the rescaled reference stays within relative error epsilon.

    The horizon for (S, eps) is the last recorded time before the relative
    error |P_sim - P_ref| / P_ref first reaches eps, or the full window if it
    never does. Points where P_ref < REL_ERROR_GUARD are skipped (relative
    error undefined at reference zeros). Defaults: ring:5, lambda=0.5, T=10.
    Columns: S, epsilon and horizon, one row per (S, eps).
    """
    spec = spec or DEFAULT_HORIZON_SPEC
    for eps in epsilon_list:
        if not 0 < eps < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
    meta = _scan_meta(spec, "epsilon_horizon", s_list,
                      epsilon_list=",".join(f"{e:g}" for e in epsilon_list),
                      relative_error_guard=REL_ERROR_GUARD)
    s_col, eps_col, horizons = [], [], []
    for steps, times, p_sim, p_oracle in _scan_curves(spec, meta["total_time"], s_list):
        valid = p_oracle >= REL_ERROR_GUARD
        rel = np.zeros_like(p_sim)
        rel[valid] = np.abs(p_sim[valid] - p_oracle[valid]) / p_oracle[valid]
        for eps in epsilon_list:
            crossing = np.flatnonzero(valid & (rel >= eps))
            if crossing.size == 0:
                horizon = float(times[-1])
            elif crossing[0] == 0:
                horizon = 0.0
            else:
                horizon = float(times[crossing[0] - 1])
            s_col.append(steps)
            eps_col.append(float(eps))
            horizons.append(horizon)
    return meta, [("S", np.array(s_col)), ("epsilon", np.array(eps_col)), ("horizon", np.array(horizons))]
