"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. These are full-scale runs (the largest takes a
few minutes); every tolerance is fixed here, nothing is calibrated at
runtime.
"""
import numpy as np
import pytest

from percwalk.dynamics import (
    PercolationRun,
    build_step_channel,
    evolve_channel,
    monte_carlo_channel,
    run_classical_trajectory,
    run_trajectory,
)
from percwalk.graph import make_complete, make_ring
from percwalk.harness.experiments import (
    ExperimentSpec,
    exp_convergence,
    exp_epsilon_horizon,
    exp_longtime_finite_tau,
)
from percwalk.oracles import (
    complete_graph_classical_return,
    complete_graph_quantum_return,
    ring4_classical_return,
    ring4_quantum_return,
)
from percwalk.walk import (
    basis_density,
    basis_state,
    classical_transition,
    full_hamiltonian,
    transition_probability,
)

from helpers import (
    brute_force_channel_average,
    decompose,
    enumerate_realizations,
    stochastic_exp,
    unitary_exp,
)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_rescaling_channel_ring15():
    # ring(15), lam=0.5, tau=0.004, S=5000: exact channel stays within 0.05
    # of the rescaled unpercolated return probability over the full window
    g = make_ring(15)
    run = PercolationRun(lam=0.5, tau=0.004, steps=5000, seed=0)
    phi = build_step_channel(g, run.lam, run.tau)
    rhos = evolve_channel(phi, basis_density(15, 0), run.steps, 1)
    times = np.arange(run.steps + 1) * run.tau
    p_sim = np.real(rhos[:, 0, 0])
    p_ref = transition_probability(g, 0, 0, run.lam * times)
    dev = float(np.max(np.abs(p_sim - p_ref)))
    report("1 rescaling/channel", dev <= 0.05, f"max |P_sim - P_ref(lam t)| = {dev:.4f} <= 0.05")


def test_criterion_2_complete_graph_revivals():
    # single trajectory on complete(15), lam=0.3, tau=1e-4, S=1e5
    g = make_complete(15)
    run = PercolationRun(lam=0.3, tau=1e-4, steps=100_000, seed=1)
    rec = run_trajectory(g, run, basis_state(15, 0), sample_stride=10)
    p_sim = rec.site_probabilities()[:, 0]
    p_ref = complete_graph_quantum_return(15, run.lam * rec.times)
    dev = float(np.max(np.abs(p_sim - p_ref)))
    revival_time = 2 * np.pi / (15 * run.lam)
    p_rev = float(p_sim[np.argmin(np.abs(rec.times - revival_time))])
    ok = dev <= 0.05 and p_rev > 0.9
    report(
        "2 complete-graph revivals", ok,
        f"max dev = {dev:.4f} <= 0.05, P(t={revival_time:.3f}) = {p_rev:.4f} > 0.9",
    )


def test_criterion_3_complete_graph_classical():
    g = make_complete(15)
    run = PercolationRun(lam=0.3, tau=1e-4, steps=100_000, seed=1)
    p0 = np.zeros(15)
    p0[0] = 1.0
    rec = run_classical_trajectory(g, run, p0, sample_stride=10)
    p_sim = rec.distributions[:, 0]
    p_ref = complete_graph_classical_return(15, run.lam * rec.times)
    dev = float(np.max(np.abs(p_sim - p_ref)))
    terminal = abs(float(p_sim[-1]) - 1 / 15)
    ok = dev <= 0.02 and terminal <= 0.01
    report(
        "3 classical comparison", ok,
        f"max dev = {dev:.4f} <= 0.02, |P(T) - 1/15| = {terminal:.2e} <= 0.01",
    )


def test_criterion_4_longtime_flattening_and_envelope():
    # ring(4), lam=0.2, channel tau=0.1 to T=100
    meta, columns = exp_longtime_finite_tau(
        ExperimentSpec(graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000)
    )
    p_final = float(dict(columns)["p_channel"][-1])
    ok_flat = 0.23 <= p_final <= 0.27
    ok_fit = ("envelope_error" not in meta and 0.70 <= meta["envelope_a"] <= 0.79
              and 0.044 <= meta["envelope_b"] <= 0.054)
    report(
        "4 finite-tau flattening", ok_flat and ok_fit,
        f"P(100) = {p_final:.4f} in [0.23, 0.27], envelope a = {meta['envelope_a']:.4f} in [0.70, 0.79], "
        f"b = {meta['envelope_b']:.4f} in [0.044, 0.054]",
    )


def test_criterion_5_convergence_monotonicity():
    spec = ExperimentSpec(graph_spec="ring:10", lam=0.5, total_time=10.0)
    errs = dict(exp_convergence(spec, s_list=(250, 1000, 4000))[1])["max_abs_error"]
    _, control = exp_convergence(
        ExperimentSpec(graph_spec="ring:10", lam=1.0, total_time=10.0), s_list=(250, 1000, 4000)
    )
    ctrl_max = dict(control)["max_abs_error"].max()
    ok = errs[0] > errs[1] > errs[2] and ctrl_max <= 1e-8
    report(
        "5 convergence monotonicity", ok,
        f"errors S=250/1000/4000: {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}; "
        f"lam=1 control max = {ctrl_max:.2e} <= 1e-8",
    )


def test_criterion_6_epsilon_horizon_growth():
    spec = ExperimentSpec(graph_spec="ring:5", lam=0.5, total_time=10.0)
    epsilons = (0.02, 0.05, 0.1)
    res = dict(exp_epsilon_horizon(spec, epsilon_list=epsilons, s_list=(500, 4000, 327_680))[1])
    by = dict(zip(zip(res["S"].tolist(), res["epsilon"].tolist()), res["horizon"].tolist()))
    grow = by[(4000, 0.05)] >= by[(500, 0.05)]
    total = 10.0
    reach = all(by[(327_680, eps)] >= 0.9999 * total for eps in epsilons)
    report(
        "6 epsilon-horizon growth", grow and reach,
        f"horizon(4000, 0.05) = {by[(4000, 0.05)]:.2f} >= horizon(500, 0.05) = "
        f"{by[(500, 0.05)]:.2f}; horizon(327680, eps) = "
        f"{[round(by[(327_680, e)], 3) for e in epsilons]} -> T for eps in {epsilons}",
    )


def test_criterion_7_brute_force_channel_oracle():
    g = make_ring(2)
    rho0 = basis_density(2, 0)
    worst = 0.0
    for lam, tau, steps in [(0.5, 0.4, 3), (0.3, 0.25, 4), (0.8, 0.6, 2)]:
        phi = build_step_channel(g, lam, tau)
        got = evolve_channel(phi, rho0, steps)[-1]
        expect = brute_force_channel_average(2, g.edges, lam, tau, steps, rho0)
        worst = max(worst, float(np.max(np.abs(got - expect))))
    report("7 brute-force channel oracle", worst <= 1e-12, f"max |channel - exhaustive| = {worst:.2e} <= 1e-12")


def test_criterion_8_structural_invariants():
    checks = []

    # unitarity
    d = decompose(full_hamiltonian(make_ring(9)))
    u = unitary_exp(d, 1.3)
    checks.append(("unitarity", float(np.max(np.abs(u.conj().T @ u - np.eye(9)))), 1e-10))

    # state-norm preservation per step
    run = PercolationRun(lam=0.5, tau=0.05, steps=500, seed=5)
    rec = run_trajectory(make_ring(9), run, basis_state(9, 0))
    checks.append(("norm preservation", float(rec.max_norm_drift), 1e-10))

    # channel trace / Hermiticity / positivity
    phi = build_step_channel(make_ring(6), 0.4, 0.08)
    rhos = evolve_channel(phi, basis_density(6, 0), 300, 15)
    tr_dev = float(np.max(np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1)))
    herm = float(max(np.max(np.abs(r - r.conj().T)) for r in rhos))
    min_eig = float(min(np.linalg.eigvalsh(r).min() for r in rhos))
    checks.append(("channel trace", tr_dev, 1e-10))
    checks.append(("channel hermiticity", herm, 1e-10))
    checks.append(("channel positivity", max(0.0, -min_eig), 1e-8))

    # stochastic column sums
    m = stochastic_exp(decompose(full_hamiltonian(make_ring(8))), 1.1)
    checks.append(("stochastic column sums", float(np.max(np.abs(m.sum(axis=0) - 1))), 1e-10))

    # oracle vs spectral agreement at lam=1
    rng = np.random.default_rng(0)
    ts = rng.uniform(0, 10, 60)
    dev_q15 = np.max(np.abs(
        complete_graph_quantum_return(15, ts) - transition_probability(make_complete(15), 0, 0, ts)
    ))
    dev_c15 = np.max(np.abs(
        complete_graph_classical_return(15, ts) - classical_transition(make_complete(15), 0, 0, ts)
    ))
    dev_r4q = np.max(np.abs(
        ring4_quantum_return(1.0, ts) - transition_probability(make_ring(4), 0, 0, ts)
    ))
    dev_r4c = np.max(np.abs(
        ring4_classical_return(1.0, ts) - classical_transition(make_ring(4), 0, 0, ts)
    ))
    checks.append(("oracle agreement", float(max(dev_q15, dev_c15, dev_r4q, dev_r4c)), 1e-10))

    # enumeration probabilities sum to 1
    total = sum(p for _, p in enumerate_realizations(make_ring(8), 0.37))
    checks.append(("enumeration sum", abs(total - 1.0), 1e-12))

    ok = all(value <= tol for _, value, tol in checks)
    detail = "; ".join(f"{name} {value:.2e} <= {tol:g}" for name, value, tol in checks)
    report("8 structural invariants", ok, detail)


def test_criterion_9_limit_identities():
    g = make_ring(6)
    psi0 = basis_state(6, 0)
    rho0 = basis_density(6, 0)
    p0 = np.zeros(6)
    p0[0] = 1.0
    devs = {}

    # lam = 0: frozen state on every backend
    run0 = PercolationRun(lam=0.0, tau=0.02, steps=300, seed=2)
    devs["trajectory lam=0"] = np.max(np.abs(run_trajectory(g, run0, psi0).states[-1] - psi0))
    devs["classical lam=0"] = np.max(np.abs(
        run_classical_trajectory(g, run0, p0).distributions[-1] - p0
    ))
    phi0 = build_step_channel(g, 0.0, run0.tau)
    devs["channel lam=0"] = np.max(np.abs(evolve_channel(phi0, rho0, run0.steps)[-1] - rho0))
    devs["montecarlo lam=0"] = np.max(np.abs(
        monte_carlo_channel(g, run0, rho0, 5).densities[-1] - rho0
    ))

    # lam = 1: unpercolated evolution on every backend
    run1 = PercolationRun(lam=1.0, tau=0.02, steps=300, seed=2)
    d = decompose(full_hamiltonian(g))
    psi_t = unitary_exp(d, run1.total_time) @ psi0
    rho_t = np.outer(psi_t, psi_t.conj())
    p_t = stochastic_exp(d, run1.total_time) @ p0
    devs["trajectory lam=1"] = np.max(np.abs(run_trajectory(g, run1, psi0).states[-1] - psi_t))
    devs["classical lam=1"] = np.max(np.abs(
        run_classical_trajectory(g, run1, p0).distributions[-1] - p_t
    ))
    phi1 = build_step_channel(g, 1.0, run1.tau)
    devs["channel lam=1"] = np.max(np.abs(evolve_channel(phi1, rho0, run1.steps)[-1] - rho_t))
    devs["montecarlo lam=1"] = np.max(np.abs(
        monte_carlo_channel(g, run1, rho0, 5).densities[-1] - rho_t
    ))

    worst = float(max(devs.values()))
    ok = worst <= 1e-8
    report("9 limit identities", ok, "; ".join(f"{k} {v:.2e}" for k, v in devs.items()) + " (all <= 1e-8)")
