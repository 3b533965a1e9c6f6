import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percwalk import _kernels, dynamics
from percwalk.dynamics import (
    ChannelMatrix,
    PercolationRun,
    build_step_channel,
    channel_site_probabilities,
    evolve_channel,
    monte_carlo_channel,
    recorded_steps,
    run_classical_trajectory,
    run_trajectory,
    vec_density,
)
from percwalk.graph import (
    CapacityError,
    Graph,
    make_complete,
    make_lattice2d,
    make_ring,
    rng_from_seed,
    sample_keep_bits,
)
from percwalk.walk import basis_density, basis_state, full_hamiltonian, transition_probability

from helpers import (
    apply_channel,
    brute_force_channel_average,
    channel_graphs,
    decompose,
    enumerate_realizations,
    expm_unitary,
    force_mask_cache,
    keep_bits3,
    reference_laplacian,
    stochastic_exp,
    traced_peak,
    unitary_exp,
)


def _delta(n, a=0):
    p = np.zeros(n)
    p[a] = 1.0
    return p


def _max_stderr(moments, t):
    """Per record, the largest standard error of the mean of t samples, from (count, mean, M2) moments."""
    return np.array([np.sqrt(m2 / ((t - 1) * t)).max() for _, _, m2 in moments])


class TestPercolationRun:
    def test_total_time_derived(self):
        run = PercolationRun(lam=0.5, tau=0.004, steps=5000, seed=1)
        assert run.total_time == pytest.approx(20.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=1.5, tau=0.1, steps=10),
        dict(lam=0.5, tau=0.0, steps=10),
        dict(lam=0.5, tau=0.1, steps=0),
        dict(lam=0.5, tau=0.1, steps=10, seed=-2),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PercolationRun(**kwargs)

    @pytest.mark.parametrize("tau,steps", [(np.inf, 5), (np.nan, 5), (1e308, 10), (1e300, 10**9)])
    def test_non_finite_timing_is_refused(self, tau, steps):
        # such a run would step to NaN states; the CLI refuses it first through resolve_timing
        with pytest.raises(ValueError, match="finite"):
            PercolationRun(lam=0.5, tau=tau, steps=steps)


class TestRecordedSteps:
    def test_includes_zero_and_final(self):
        rec = recorded_steps(10, 3)
        assert rec[0] == 0 and rec[-1] == 10
        assert list(rec) == [0, 3, 6, 9, 10]

    def test_stride_one(self):
        assert list(recorded_steps(4, 1)) == [0, 1, 2, 3, 4]

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            recorded_steps(10, 0)


class TestRunTrajectory:
    def test_lambda_one_equals_unitary_evolution(self):
        g = make_ring(6)
        run = PercolationRun(lam=1.0, tau=0.01, steps=500, seed=9)
        rec = run_trajectory(g, run, basis_state(6, 0))
        expect = unitary_exp(decompose(full_hamiltonian(g)), run.total_time) @ basis_state(6, 0)
        assert np.max(np.abs(rec.states[-1] - expect)) <= 1e-8

    def test_lambda_zero_frozen(self):
        g = make_ring(6)
        run = PercolationRun(lam=0.0, tau=0.01, steps=200, seed=9)
        rec = run_trajectory(g, run, basis_state(6, 2))
        assert np.array_equal(rec.states[-1], basis_state(6, 2))

    def test_single_step_present_edge_cos_squared(self):
        # find a seed whose first draw keeps the edge, then P0(tau) = cos^2(tau)
        g = make_ring(2)
        tau = 0.63
        seed = next(
            s for s in range(50)
            if sample_keep_bits(g, 0.5, rng_from_seed(s, stream=0), 1)[0, 0] == 1
        )
        run = PercolationRun(lam=0.5, tau=tau, steps=1, seed=seed)
        rec = run_trajectory(g, run, basis_state(2, 0))
        assert rec.site_probabilities()[-1, 0] == pytest.approx(np.cos(tau) ** 2, abs=1e-12)

    def test_deterministic_given_seed(self):
        g = make_lattice2d(3, 3)
        run = PercolationRun(lam=0.5, tau=0.02, steps=100, seed=21)
        a = run_trajectory(g, run, basis_state(9, 4))
        b = run_trajectory(g, run, basis_state(9, 4))
        assert np.array_equal(a.states, b.states)

    def test_norm_preserved_per_step(self):
        g = make_ring(8)
        run = PercolationRun(lam=0.6, tau=0.05, steps=400, seed=4)
        rec = run_trajectory(g, run, basis_state(8, 0))
        assert rec.max_norm_drift <= 1e-10
        norms = np.linalg.norm(rec.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_stride_and_mask_log(self):
        # the masks of every step are reproduced from the seed, and replaying them gives the states
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.1, steps=10, seed=2)
        rec = run_trajectory(g, run, basis_state(4, 0), sample_stride=4)
        assert list(rec.record_steps) == [0, 4, 8, 10]
        bits = sample_keep_bits(g, run.lam, rng_from_seed(run.seed, 0), run.steps)
        psi, states = basis_state(4, 0), [basis_state(4, 0)]
        for s, row in enumerate(bits, start=1):
            mask = sum(int(b) << k for k, b in enumerate(row))
            psi = expm_unitary(reference_laplacian(4, g.edges, mask), run.tau) @ psi
            if s in rec.record_steps:
                states.append(psi)
        assert np.max(np.abs(rec.states - np.array(states))) <= 1e-12

    def test_times_match_steps(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.25, steps=8, seed=2)
        rec = run_trajectory(g, run, basis_state(4, 0), sample_stride=3)
        assert np.allclose(rec.times, rec.record_steps * 0.25)

    def test_unnormalized_state_rejected(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.1, steps=5, seed=0)
        with pytest.raises(ValueError):
            run_trajectory(g, run, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_trajectory_index_changes_stream(self):
        g = make_ring(5)
        run = PercolationRun(lam=0.5, tau=0.05, steps=60, seed=11)
        a = run_trajectory(g, run, basis_state(5, 0), trajectory_index=0)
        b = run_trajectory(g, run, basis_state(5, 0), trajectory_index=1)
        assert not np.array_equal(a.states, b.states)


class TestClassicalTrajectory:
    def test_lambda_zero_frozen(self):
        g = make_ring(5)
        run = PercolationRun(lam=0.0, tau=0.1, steps=50, seed=3)
        rec = run_classical_trajectory(g, run, _delta(5, 1))
        assert np.allclose(rec.distributions[-1], _delta(5, 1), atol=1e-14)

    def test_lambda_one_equals_heat_kernel(self):
        g = make_ring(5)
        run = PercolationRun(lam=1.0, tau=0.02, steps=250, seed=3)
        rec = run_classical_trajectory(g, run, _delta(5))
        expect = stochastic_exp(decompose(full_hamiltonian(g)), run.total_time) @ _delta(5)
        assert np.max(np.abs(rec.distributions[-1] - expect)) <= 1e-8

    def test_stays_a_distribution(self):
        g = make_ring(6)
        run = PercolationRun(lam=0.4, tau=0.05, steps=300, seed=5)
        rec = run_classical_trajectory(g, run, _delta(6))
        sums = rec.distributions.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10
        assert rec.distributions.min() >= -1e-12

    def test_bad_distribution_rejected(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.1, steps=5, seed=0)
        with pytest.raises(ValueError):
            run_classical_trajectory(g, run, np.array([0.7, 0.7, 0.0, -0.4]))


class TestBuildStepChannel:
    def test_single_edge_mixture(self):
        g = make_ring(2)
        tau, lam = 0.3, 0.3
        phi = build_step_channel(g, lam, tau)
        rho0 = basis_density(2, 0)
        u = expm_unitary(full_hamiltonian(g), tau)
        expect = 0.7 * rho0 + 0.3 * u @ rho0 @ u.conj().T
        assert np.max(np.abs(apply_channel(phi, rho0) - expect)) <= 1e-14
        assert apply_channel(phi, rho0)[0, 0].real == pytest.approx(
            0.7 + 0.3 * np.cos(tau) ** 2, abs=1e-12
        )

    def test_lambda_one_pure_conjugation(self):
        g = make_ring(4)
        tau = 0.2
        phi = build_step_channel(g, 1.0, tau)
        u = unitary_exp(decompose(full_hamiltonian(g)), tau)
        expect = np.kron(u.conj(), u)
        assert np.max(np.abs(phi.matrix - expect)) <= 1e-12

    def test_lambda_zero_identity_channel(self):
        g = make_ring(4)
        phi = build_step_channel(g, 0.0, 0.7)
        assert np.max(np.abs(phi.matrix - np.eye(16))) <= 1e-14

    def test_trace_preserving_on_random_density(self):
        g = make_ring(5)
        phi = build_step_channel(g, 0.45, 0.3)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = apply_channel(phi, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10

    def test_capacity_error(self):
        g = make_complete(15)  # 105 edges
        with pytest.raises(CapacityError, match="[Mm]onte [Cc]arlo"):
            build_step_channel(g, 0.5, 0.004)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ChannelMatrix(matrix=np.eye(5), dim=2)

    def test_group_search_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma at its first call (numpy 2.4's _unique1d asks np.ma.is_masked),
        # about 1.2 MB of a fresh interpreter's peak RSS; ring:15's build searches its group
        code = ("import sys; from percwalk.dynamics import build_step_channel; from percwalk.graph import make_ring; "
                "phi = build_step_channel(make_ring(15), 0.4, 0.004); print(phi.symmetries, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(Path(dynamics.__file__).parents[1])})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "30 False\n"

    def test_trivial_group_construction_stays_below_twice_phi(self):
        # no automorphism: one sector of d^2 cycles, so the shift sums are as large as Phi, and what
        # construction holds beside them must stay below Phi (the heap rule of ``_kernels``)
        g = Graph(node_count=11, edges=tuple((i, i + 1) for i in range(10)) + ((0, 9), (2, 9), (3, 9), (8, 10)))
        phi = build_step_channel(g, 0.4, 0.004)
        assert (phi.symmetries, phi.blocks) == (1, (1, 121))
        made, peak = traced_peak(lambda: ChannelMatrix(matrix=phi.matrix, dim=11, rotation=phi.rotation))
        assert np.array_equal(made.shift_sums, phi.shift_sums)
        assert peak <= 2 * phi.matrix.nbytes


class TestEvolveChannel:
    def test_steps_zero(self):
        g = make_ring(3)
        phi = build_step_channel(g, 0.5, 0.1)
        rho0 = basis_density(3, 0)
        out = evolve_channel(phi, rho0, 0)
        assert out.shape == (1, 3, 3)
        assert np.array_equal(out[0], rho0)

    def test_lambda_one_matches_unitary_diag(self):
        g = make_ring(15)
        run = PercolationRun(lam=1.0, tau=0.004, steps=5000, seed=0)
        phi = build_step_channel(g, run.lam, run.tau)
        rhos = evolve_channel(phi, basis_density(15, 0), run.steps, 100)
        psi_t = unitary_exp(decompose(full_hamiltonian(g)), run.total_time) @ basis_state(15, 0)
        diag = np.real(np.diagonal(rhos[-1]))
        assert np.max(np.abs(diag - np.abs(psi_t) ** 2)) <= 1e-8

    @pytest.mark.parametrize("lam,steps", [(0.5, 3), (0.3, 4)])
    def test_brute_force_mask_sequences(self, lam, steps):
        g = make_ring(2)
        tau = 0.4
        phi = build_step_channel(g, lam, tau)
        rho0 = basis_density(2, 0)
        got = evolve_channel(phi, rho0, steps)[-1]
        expect = brute_force_channel_average(2, g.edges, lam, tau, steps, rho0)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_channel_invariants_along_evolution(self):
        g = make_ring(5)
        phi = build_step_channel(g, 0.6, 0.05)
        rhos = evolve_channel(phi, basis_density(5, 0), 200, 10)
        for rho in rhos:
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-8

    def test_rescaling_error_shrinks_with_steps(self):
        # fixed window T=10 on ring(5), lam=0.5: max deviation from the
        # rescaled reference must drop when the stepping refines 4x
        g = make_ring(5)
        total = 10.0
        devs = {}
        for steps in (250, 1000, 4000):
            tau = total / steps
            phi = build_step_channel(g, 0.5, tau)
            rhos = evolve_channel(phi, basis_density(5, 0), steps, 1)
            times = np.arange(steps + 1) * tau
            p_sim = np.real(rhos[:, 0, 0])
            p_ref = transition_probability(g, 0, 0, 0.5 * times)
            devs[steps] = np.max(np.abs(p_sim - p_ref))
        assert devs[250] > devs[1000] > devs[4000]

    @pytest.mark.parametrize("n,steps,stride,powers", [
        (2, 50, 1, [1]),  # doubling from P = Phi
        (2, 50, 3, [3]),  # the last gap is 2 steps, taken as 2 products
        (2, 50, 7, [7]),  # the last gap is 1 step
        (2, 50, 80, [50]),  # stride > steps: one gap of all the steps
        (6, 50, 7, []),  # d^2 = 36: Phi^7 - I costs more than the 7 x 7 products it saves
    ])
    def test_strided_equals_step_by_step(self, monkeypatch, n, steps, stride, powers):
        power, used = dynamics._power_minus_identity, []
        monkeypatch.setattr(dynamics, "_power_minus_identity", lambda m, k: used.append(k) or power(m, k))
        phi = build_step_channel(make_ring(n), 0.6, 0.7)
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rec = recorded_steps(steps, stride)
        got = evolve_channel(phi, rho, steps, stride)
        assert used == powers  # each distinct power built once
        want = [rho]
        for s in range(1, steps + 1):
            rho = apply_channel(phi, rho)
            if s in rec:
                want.append(rho)
        assert got.shape == (len(rec), n, n)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 7, 10, 50])
    def test_power_minus_identity(self, k):
        # takes D = Phi - I, here a stack of two blocks as the sectors pass it
        phis = [build_step_channel(make_ring(4), lam, 0.2).matrix for lam in (0.3, 0.7)]
        got = dynamics._power_minus_identity(np.array(phis) - np.eye(16), k)
        for power, phi in zip(got, phis):
            want = np.linalg.matrix_power(phi, k) - np.eye(16)
            assert np.max(np.abs(power - want)) <= 1e-13

    def test_dimension_mismatch(self):
        phi = build_step_channel(make_ring(3), 0.5, 0.1)
        with pytest.raises(ValueError):
            evolve_channel(phi, basis_density(4, 0), 3)

    def test_vec_convention_column_stacking(self):
        rho = np.arange(9, dtype=complex).reshape(3, 3)
        v = vec_density(rho)
        assert np.array_equal(v[:3], rho[:, 0])


def _random_density(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T / np.trace(a @ a.conj().T).real


def _dense_evolution(phi, rho, steps, stride):
    """The dense d^2 x d^2 evolution: ``evolve_channel``'s blocked doubling run on the one block Phi - I."""
    dd = phi.dim**2
    gaps = np.diff(recorded_steps(steps, stride)).tolist()
    out = [rho]
    for _, ys in dynamics._advance((phi.matrix - np.eye(dd))[None], vec_density(rho)[None], gaps):
        out.extend(y[0].reshape(phi.dim, phi.dim, order="F").copy() for y in ys)  # ys is overwritten
    return np.array(out)


class TestSectorEvolution:
    @pytest.mark.parametrize("g,batch,blocks", [
        (make_ring(15), None, (15, 15)),
        # the 90 degree rotation: the centre pair is a cycle of length 1, the other 20 of length 4
        (make_lattice2d(3, 3), None, (4, 21)),
        # a mirror fixing the middle row: pair cycles of length 1 and 2
        (make_lattice2d(3, 4), None, (2, 80)),
        # G = S_5, searched only with tiny batches; a 3-cycle times a 2-cycle has order 6,
        # and its pair cycles have lengths 2, 3 and 6
        (make_complete(5), 1, (6, 7)),
        (make_ring(6), 1, (6, 6)),
    ])
    @pytest.mark.parametrize("stride", [1, 3, 10])
    def test_equals_dense_step_by_step(self, monkeypatch, g, batch, blocks, stride):
        # 503 steps: the last gap is ragged (2 at stride 3, 3 at stride 10)
        steps = 503
        with pytest.MonkeyPatch.context() as mp:
            if batch is not None:
                mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            phi = build_step_channel(g, 0.4, 0.3 / max(g.degrees()))
        assert phi.blocks == blocks
        power, used = dynamics._power_minus_identity, []
        monkeypatch.setattr(dynamics, "_power_minus_identity",
                            lambda d, k: used.append(k) or power(d, k))
        rho = _random_density(g.node_count, g.edge_count)
        got = evolve_channel(phi, rho, steps, stride)
        want = [rho]
        for s in range(1, steps + 1):
            rho = apply_channel(phi, rho)
            if s % stride == 0 or s == steps:
                want.append(rho)
        assert np.max(np.abs(got - np.array(want))) <= 1e-13
        # each mirrored record is H + H^dag, exactly Hermitian; record 0 is rho as given
        assert np.array_equal(got[1:], got[1:].conj().transpose(0, 2, 1))
        # one power per stride, built once; a ragged last gap of 2 or 3 steps takes products, and so
        # does each step of lattice2d:3x4's blocks of 80, where a power of one step saves nothing.
        # ring:6 evolves only its sectors Q <= 3, four blocks of 6, where a power of 3 steps pays
        ragged = [3] if blocks == (6, 6) and stride == 10 else []
        assert used == ([] if stride == 1 and blocks == (2, 80) else [stride] + ragged)

    @pytest.mark.parametrize("lam", [0.2, 0.8])
    def test_matches_long_double_reference(self, lam):
        # the same Phi applied step by step in extended precision; the dense float64
        # evolution was 3.1-4.4e-16 from it
        phi = build_step_channel(make_ring(15), lam, 0.004)
        got = evolve_channel(phi, basis_density(15, 0), 5000, 10)
        m = phi.matrix.astype(np.clongdouble)
        v = vec_density(basis_density(15, 0)).astype(np.clongdouble)
        err = 0.0
        for s in range(1, 5001):
            v = m @ v
            if s % 10 == 0:
                err = max(err, float(np.abs(vec_density(got[s // 10]) - v).max()))
        assert err <= 5e-15

    @pytest.mark.parametrize("n,stride", [(4, 1), (4, 10), (6, 1), (6, 10)])
    def test_trivial_group_is_the_dense_evolution_bit_for_bit(self, n, stride):
        # m = 1 takes the mirrored sector like every group: a built Phi is exactly Hermiticity
        # preserving, so the mirror mean changes nothing, and each record is the dense one's
        # Hermitian part, (rho + rho^dag) / 2, with the dense diagonal's real part
        phi = build_step_channel(make_ring(n), 0.3, 0.2)
        assert phi.blocks == (1, n * n) and phi.symmetries == 1
        rho = _random_density(n, stride)
        got = evolve_channel(phi, rho, 1000, stride)[1:]
        dense = _dense_evolution(phi, rho, 1000, stride)[1:]
        assert np.array_equal(got, (dense + dense.conj().transpose(0, 2, 1)) / 2)
        diagonal = np.diagonal(got, axis1=1, axis2=2)
        assert np.array_equal(diagonal.real, np.diagonal(dense, axis1=1, axis2=2).real)
        assert not diagonal.imag.any()

    def test_rotation_is_the_element_of_largest_order(self):
        phi = build_step_channel(make_ring(15), 0.4, 0.004)
        assert phi.symmetries == 30
        powers = [np.arange(15)]
        for _ in range(15):
            powers.append(phi.rotation[powers[-1]])
        assert np.array_equal(powers[15], np.arange(15))
        assert not any(np.array_equal(p, np.arange(15)) for p in powers[1:15])

    def test_rotation_that_is_not_a_symmetry_is_refused(self):
        phi = build_step_channel(make_lattice2d(2, 3), 0.4, 0.2)
        # swapping two corners of the 2x3 lattice is no automorphism
        with pytest.raises(ValueError, match="commute"):
            ChannelMatrix(matrix=phi.matrix, dim=6, rotation=np.array([5, 1, 2, 3, 4, 0]))
        with pytest.raises(ValueError, match="permutation"):
            ChannelMatrix(matrix=phi.matrix, dim=6, rotation=np.array([0, 0, 2, 3, 4, 5]))
        broken = phi.matrix.copy()
        broken[3, 3] = np.nan  # a numerical failure, not a broken symmetry
        with pytest.raises(FloatingPointError, match="non-finite"):
            ChannelMatrix(matrix=broken, dim=6)
        for value in (np.nan, np.inf):  # also where the rotation's gathers meet it
            broken[3, 3] = value
            with pytest.raises(FloatingPointError, match="non-finite"):
                ChannelMatrix(matrix=broken, dim=6, rotation=np.array([5, 4, 3, 2, 1, 0]))
        # the 180 degree rotation is one, and the sector evolution is the dense one
        turned = ChannelMatrix(matrix=phi.matrix, dim=6, rotation=np.array([5, 4, 3, 2, 1, 0]))
        assert turned.blocks == (2, 18)
        rho = _random_density(6, 0)
        got = evolve_channel(turned, rho, 60, 7)
        assert np.max(np.abs(got - _dense_evolution(phi, rho, 60, 7))) <= 1e-14
        assert np.array_equal(got[1:], got[1:].conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("g,rotation,bend", [
        (make_lattice2d(2, 3), [5, 1, 2, 3, 4, 0], 0.0),  # two corners swapped: no automorphism
        (make_ring(15), None, 1e-10),  # ring:15's rotation, with Phi bent off its commutant
    ])
    def test_refusal_names_the_largest_commutation_defect(self, g, rotation, bend):
        # the consecutive gathers along the rotation compare every entry with its image
        n = g.node_count
        phi = build_step_channel(g, 0.4, 0.2 / max(g.degrees()))
        rotation = phi.rotation if rotation is None else np.array(rotation)
        matrix = phi.matrix + bend * np.random.default_rng(3).normal(size=phi.matrix.shape)
        pi = (n * rotation[:, None] + rotation).ravel()
        off = np.abs(matrix[np.ix_(pi, pi)] - matrix).max()
        assert off > 1e-12
        with pytest.raises(ValueError, match=re.escape(f"commute with its rotation: off by {off:.3g}")):
            ChannelMatrix(matrix=matrix, dim=n, rotation=rotation)

    @pytest.mark.parametrize("g", [make_ring(15), make_lattice2d(3, 3), make_ring(4)])
    def test_evolution_reads_nothing_of_the_matrix(self, g):
        # Phi is read once, when the channel is made; its shift sums are all that the evolution uses
        phi = build_step_channel(g, 0.4, 0.2 / max(g.degrees()))
        rho = _random_density(g.node_count, 3)
        want = evolve_channel(phi, rho, 40, 10), channel_site_probabilities(phi, rho, 40, 10)
        object.__setattr__(phi, "matrix", np.full_like(phi.matrix, np.nan))
        got = evolve_channel(phi, rho, 40, 10), channel_site_probabilities(phi, rho, 40, 10)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("g", [make_ring(15), make_lattice2d(3, 3)])
    def test_blocks_are_the_projection_onto_the_commutant(self, g):
        # a non-commuting part of 1e-13, inside the 1e-12 check, is averaged over the m shifts
        # of the rotation, not read from one row of each cycle; and the mirrored sectors evolve
        # the part that maps Hermitian matrices to Hermitian ones, the mean with the image
        # conj(Phi[S i, S j]) under the swap S(a + n b) = b + n a
        n = g.node_count
        phi = build_step_channel(g, 0.4, 0.1)
        rng = np.random.default_rng(1)
        shape = phi.matrix.shape
        bent = phi.matrix + 1e-13 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        pi = (n * phi.rotation[:, None] + phi.rotation).ravel()
        averaged, idx = np.zeros_like(bent), np.arange(n * n)
        for _ in range(phi.blocks[0]):
            averaged += bent[np.ix_(idx, idx)]
            idx = pi[idx]
        averaged /= phi.blocks[0]
        swap = np.arange(n * n).reshape(n, n).T.ravel()
        averaged = (averaged + averaged[np.ix_(swap, swap)].conj()) / 2
        rho = _random_density(n, 5)
        got = evolve_channel(ChannelMatrix(matrix=bent, dim=n, rotation=phi.rotation), rho, 200)
        want = _dense_evolution(ChannelMatrix(matrix=averaged, dim=n), rho, 200, 1)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_lost_trace_names_the_first_failing_step(self):
        # the trace grows by 3e-9 per step, so it leaves the 1e-8 gate at step 4
        phi = ChannelMatrix(matrix=(1.0 + 3e-9) * np.eye(9), dim=3)
        with pytest.raises(np.linalg.LinAlgError, match="at step 4:"):
            evolve_channel(phi, basis_density(3, 0), 20)


class TestLongRunMemory:
    """Long runs keep their keep bits, records and a few blocks, not the uniforms they were drawn from."""

    def test_trajectory(self):
        # ring4-longtime's tau and lambda over 2 x 10^5 steps: 0.8 MB of bits and 0.16 MB of
        # records, 2.0 MB in all; the one-shot draw's 6.4 MB of uniforms peaked at 7.2 MB
        run = PercolationRun(lam=0.2, tau=1 / 600, steps=200_000, seed=7)
        rec, peak = traced_peak(lambda: run_trajectory(make_ring(4), run, basis_state(4, 0), 100))
        assert rec.propagator == "mask-cache(chunk=16)"
        kept = run.steps * 4 + rec.states.nbytes + rec.record_steps.nbytes + rec.times.nbytes
        assert peak <= kept + 5 * _kernels.BLOCK_BYTES

    def test_monte_carlo(self):
        # 2 trajectories of 5 x 10^4 steps on ring:8: 0.8 MB of bits next to a 0.5 MB propagator
        # store, 2.6 MB in all; each one-shot draw's 3.2 MB of uniforms peaked at 4.4 MB
        run = PercolationRun(lam=0.5, tau=0.1, steps=50_000, seed=7)
        rec, peak = traced_peak(lambda: monte_carlo_channel(make_ring(8), run, basis_density(8, 0), 2, 1000))
        assert rec.propagator == "mask-cache"
        assert peak <= 2 * run.steps * 8 + rec.densities.nbytes + 8 * _kernels.BLOCK_BYTES


class TestSiteProbabilities:
    """``channel_site_probabilities``: ``evolve_channel`` with only the diagonal's cycles transformed back."""

    @pytest.mark.parametrize("batch", [1, _kernels.CHANNEL_BATCH])  # batch 1 lets these graphs keep a group
    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 4.0),
           stride=st.sampled_from([1, 7, 10]), steps=st.integers(0, 45))
    def test_equal_the_diagonal_of_evolve_channel(self, batch, g, lam, x, stride, steps):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            phi = build_step_channel(g, lam, x / (2.0 * max(g.degrees())))
        rho = _random_density(g.node_count, steps)
        want = evolve_channel(phi, rho, steps, stride)
        got = channel_site_probabilities(phi, rho, steps, stride)
        assert got.shape == (len(recorded_steps(steps, stride)), g.node_count) and got.dtype == np.float64
        assert np.max(np.abs(got - np.diagonal(want, axis1=1, axis2=2).real)) <= 1e-15

    @pytest.mark.parametrize("g,rotated", [
        (make_ring(15), True), (make_lattice2d(3, 3), True), (make_lattice2d(3, 4), True),
        (make_ring(15), False),  # the same channel without its rotation: one dense block of 225
        (make_ring(6), False),  # no group searched for 64 masks
    ])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_equal_the_diagonal_on_larger_graphs(self, g, rotated, stride):
        # 503 steps: a ragged last gap of 6 steps at stride 7 and of 3 at stride 10
        phi = build_step_channel(g, 0.4, 0.3 / max(g.degrees()))
        if not rotated:
            phi = ChannelMatrix(matrix=phi.matrix, dim=phi.dim)
        assert (phi.blocks[0] > 1) == rotated
        rho = _random_density(g.node_count, stride)
        want = np.diagonal(evolve_channel(phi, rho, 503, stride), axis1=1, axis2=2).real
        assert np.max(np.abs(channel_site_probabilities(phi, rho, 503, stride) - want)) <= 1e-15

    @pytest.mark.parametrize("lam", [0.2, 0.8])
    def test_match_long_double_reference(self, lam):
        # the same Phi applied step by step in extended precision; one product per gap of
        # records was 2.0e-15 and 3.1e-15 from it, the doubling 5.2e-16 and 1.4e-15
        phi = build_step_channel(make_ring(15), lam, 0.004)
        rho0 = basis_density(15, 0)
        rhos = evolve_channel(phi, rho0, 5000, 10)
        probs = channel_site_probabilities(phi, rho0, 5000, 10)
        m = phi.matrix.astype(np.clongdouble)
        v = vec_density(rho0).astype(np.clongdouble)
        err = site_err = 0.0
        for s in range(1, 5001):
            v = m @ v
            if s % 10 == 0:
                err = max(err, float(np.abs(vec_density(rhos[s // 10]) - v).max()))
                site_err = max(site_err, float(np.abs(probs[s // 10] - v[::16].real).max()))
        assert err <= 2e-15 and site_err <= 2e-15

    def test_pair_cycles_are_found_once_per_channel(self, monkeypatch):
        found = []
        pair_cycles = dynamics._pair_cycles
        monkeypatch.setattr(dynamics, "_pair_cycles", lambda rot: found.append(1) or pair_cycles(rot))
        phi = build_step_channel(make_ring(15), 0.4, 0.004)
        rho = basis_density(15, 0)
        channel_site_probabilities(phi, rho, 40, 10)
        evolve_channel(phi, rho, 40, 10)
        assert (phi.blocks, phi.trace_drift_bound(40) > 0) == ((15, 15), True)
        assert found == [1]

    def test_group_and_rotation_are_found_once_per_channel(self, monkeypatch):
        # one group search and one symmetry record per build; the channel evolves in the record's sigma
        calls, records = [], []
        search, symmetry = _kernels._automorphisms, _kernels._symmetry
        monkeypatch.setattr(_kernels, "_automorphisms", lambda *args: calls.append("G") or search(*args))
        monkeypatch.setattr(_kernels, "_symmetry",
                            lambda perms: calls.append("sigma") or records.append(symmetry(perms)) or records[-1])
        phi = build_step_channel(make_ring(15), 0.4, 0.004)
        assert calls == ["G", "sigma"] and phi.symmetries == 30
        assert phi.rotation is records[0].sigma

    @pytest.mark.parametrize("stride", [1, 10])
    def test_memory_does_not_grow_with_the_records(self, stride):
        # each buffer of the evolution fits in BLOCK_BYTES, and a few are alive at once (on
        # ring:15 the chunk buffer, the 7 powers of the blocks and the back transform's
        # temporaries); only the returned records grow with their number
        phi = build_step_channel(make_ring(15), 0.4, 0.004)
        rho = basis_density(15, 0)
        probs, peak = traced_peak(lambda: channel_site_probabilities(phi, rho, 5000, stride))
        assert peak - probs.nbytes <= 4 * _kernels.BLOCK_BYTES
        rhos, peak = traced_peak(lambda: evolve_channel(phi, rho, 5000, stride))
        assert peak - rhos.nbytes <= 8 * _kernels.BLOCK_BYTES

    def test_lost_trace_names_the_first_failing_step(self):
        phi = ChannelMatrix(matrix=(1.0 + 3e-9) * np.eye(9), dim=3)
        with pytest.raises(np.linalg.LinAlgError, match="at step 4:"):
            channel_site_probabilities(phi, basis_density(3, 0), 20)


class TestMonteCarlo:
    def test_lambda_one_zero_variance(self):
        g = make_ring(4)
        run = PercolationRun(lam=1.0, tau=0.05, steps=40, seed=8)
        rec = monte_carlo_channel(g, run, basis_density(4, 0), 10)
        assert np.max(rec.diag_stderr) <= 1e-12
        psi_t = unitary_exp(decompose(full_hamiltonian(g)), run.total_time) @ basis_state(4, 0)
        assert np.max(np.abs(rec.densities[-1] - np.outer(psi_t, psi_t.conj()))) <= 1e-8

    def test_lambda_zero_frozen(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.0, tau=0.05, steps=40, seed=8)
        rec = monte_carlo_channel(g, run, basis_density(4, 1), 10)
        assert np.max(rec.diag_stderr) <= 1e-12
        assert np.max(np.abs(rec.densities[-1] - basis_density(4, 1))) <= 1e-12

    def test_single_edge_matches_exact_channel(self):
        # spec example: lam=0.5, S=3, 1e5 trajectories, within 4 standard errors
        g = make_ring(2)
        run = PercolationRun(lam=0.5, tau=0.4, steps=3, seed=17)
        rec = monte_carlo_channel(g, run, basis_density(2, 0), 100_000)
        phi = build_step_channel(g, run.lam, run.tau)
        exact = evolve_channel(phi, basis_density(2, 0), run.steps)
        for i in range(rec.densities.shape[0]):
            dev = np.max(np.abs(rec.densities[i] - exact[i]))
            assert dev <= 4 * rec.diag_stderr[i] + 1e-12

    def test_first_trajectory_matches_run_trajectory(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.1, steps=20, seed=33)
        single = run_trajectory(g, run, basis_state(4, 0), trajectory_index=0)
        two = monte_carlo_channel(g, run, basis_density(4, 0), 2)
        one = np.outer(single.states[-1], single.states[-1].conj())
        other = run_trajectory(g, run, basis_state(4, 0), trajectory_index=1)
        other_rho = np.outer(other.states[-1], other.states[-1].conj())
        assert np.max(np.abs(two.densities[-1] - (one + other_rho) / 2)) <= 1e-12

    def test_trajectories_match_run_trajectory_on_uncached_graph(self):
        # complete(7) has 21 edges, so the ensemble applies the Taylor action
        # through the neighbour slots while run_trajectory builds dense Laplacians
        g = make_complete(7)
        run = PercolationRun(lam=0.5, tau=0.2, steps=15, seed=21)
        ens = monte_carlo_channel(g, run, basis_density(7, 2), 3)
        assert ens.propagator.startswith("taylor(") and ens.max_norm_drift <= 1e-12
        singles = [run_trajectory(g, run, basis_state(7, 2), trajectory_index=k) for k in range(3)]
        mean = sum(np.einsum("ri,rj->rij", r.states, r.states.conj()) for r in singles) / 3
        assert np.max(np.abs(ens.densities - mean)) <= 1e-12
        total, _, drift, name = _kernels.ensemble_classical(
            g.edge_array, 7, run.tau, keep_bits3(g, run, 3), ens.record_steps, _delta(7, 2))
        assert name == ens.propagator and drift <= 1e-12
        cmean = sum(run_classical_trajectory(g, run, _delta(7, 2), trajectory_index=k).distributions
                    for k in range(3)) / 3
        assert np.max(np.abs(total / 3 - cmean)) <= 1e-12

    @pytest.mark.parametrize("graph,propagator", [
        (make_complete(7), "taylor(substeps=3, order=16)"),
        (make_ring(4), "mask-cache"),
        (make_ring(12), "mask-cache"),  # 4096 masks: new ones in every block
    ])
    @pytest.mark.parametrize("split", [False, True])
    def test_stderr_is_sample_stderr_of_replays(self, monkeypatch, graph, propagator, split):
        n, t, stride = graph.node_count, 5, 4
        run = PercolationRun(lam=0.5, tau=0.2, steps=15, seed=21)
        if propagator == "mask-cache":  # 15 steps of ring:12, or of ring:4 split, cost less on the action
            force_mask_cache(monkeypatch)
        if split:  # Monte Carlo chunks of 2, 2 and 1 trajectories; one column per Taylor block
            monkeypatch.setattr(dynamics, "ENSEMBLE_CHUNK_BYTES", 2 * run.steps * graph.edge_count)
            monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
        ens = monte_carlo_channel(graph, run, basis_density(n, 2), t, stride)
        _, moments, _, name = _kernels.ensemble_classical(
            graph.edge_array, n, run.tau, keep_bits3(graph, run, t), ens.record_steps, _delta(n, 2))
        assert ens.propagator == name == propagator
        probs = np.array([
            run_trajectory(graph, run, basis_state(n, 2), stride, trajectory_index=k)
            .site_probabilities() for k in range(t)])
        dists = np.array([
            run_classical_trajectory(graph, run, _delta(n, 2), stride, trajectory_index=k)
            .distributions for k in range(t)])
        for rec_stderr, samples in ((ens.diag_stderr, probs), (_max_stderr(moments, t), dists)):
            want = np.sqrt(samples.var(axis=0, ddof=1) / t).max(axis=1)
            assert np.max(np.abs(rec_stderr - want)) <= 1e-12
            assert np.max(want) > 1e-3  # the trajectories differ

    def test_chunks_that_plan_differently_are_all_named(self, monkeypatch):
        # ring:4 caches 512-byte real 8 x 8 quantum propagators; room for 10 of them takes the
        # mask cache for a chunk of 2 trajectories of 5 steps, not for one of 3
        g, run = make_ring(4), PercolationRun(lam=0.5, tau=0.2, steps=5, seed=21)
        monkeypatch.setattr(_kernels, "CACHE_MAX_BYTES", 10 * 512)
        monkeypatch.setattr(dynamics, "ENSEMBLE_CHUNK_BYTES", 3 * run.steps * g.edge_count)
        rec = monte_carlo_channel(g, run, basis_density(4, 2), 5)
        assert rec.propagator == "taylor(substeps=1, order=16), mask-cache"
        want = sum(np.einsum("ri,rj->rij", s, s.conj()) for s in (
            run_trajectory(g, run, basis_state(4, 2), trajectory_index=k).states for k in range(5)))
        assert np.max(np.abs(rec.densities - want / 5)) <= 1e-12

    @pytest.mark.parametrize("n,i", [(1, 0), (5, 0), (5, 3), (100, 44)])
    def test_basis_density_skips_eigh(self, n, i):
        w, v = dynamics._eigenpairs(basis_density(n, i))
        ref_w, ref_v = np.linalg.eigh(basis_density(n, i))
        assert np.array_equal(np.sort(w), ref_w) and np.argmax(w) == i
        assert np.array_equal(v[:, i], ref_v[:, np.argmax(ref_w)])

    def test_basis_density_runs_as_it_does_through_eigh(self, monkeypatch):
        g, run = make_lattice2d(3, 3), PercolationRun(lam=0.5, tau=0.2, steps=15, seed=21)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda rho: calls.append(rho) or eigh(rho))
        rec = monte_carlo_channel(g, run, basis_density(9, 4), 6, 5)
        assert not calls
        monkeypatch.setattr(dynamics, "_eigenpairs", eigh)
        ref = monte_carlo_channel(g, run, basis_density(9, 4), 6, 5)
        assert np.array_equal(rec.densities, ref.densities)
        assert np.array_equal(rec.diag_stderr, ref.diag_stderr)

    @pytest.mark.parametrize("rho0", [
        np.diag([0.0, 0.5, 0.5]),  # two nonzero entries
        np.full((3, 3), 1 / 3),  # a pure state that is no basis state
        np.diag([0.0, 1.0 + 1e-13, -1e-13]),  # a 1 within round-off
    ], ids=["mixed", "uniform", "round-off"])
    def test_other_densities_go_through_eigh(self, monkeypatch, rho0):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda rho: calls.append(rho) or eigh(rho))
        monte_carlo_channel(make_ring(3), PercolationRun(lam=0.5, tau=0.1, steps=2, seed=5), rho0, 2)
        assert len(calls) == 1

    def test_mixed_initial_state_mean(self):
        # eigen-ensemble sampling reproduces a mixed rho0 in expectation
        g = make_ring(3)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        run = PercolationRun(lam=0.0, tau=0.1, steps=2, seed=5)
        rec = monte_carlo_channel(g, run, rho0, 4000)
        assert np.max(np.abs(rec.densities[-1] - rho0)) <= 0.05

    def test_mixed_start_draws_its_eigenstate_then_its_keep_bits(self, monkeypatch):
        # stream k picks the start eigenstate of trajectory k, then draws its keep bits, in every chunk
        g, run, t = make_ring(4), PercolationRun(lam=0.5, tau=0.2, steps=10, seed=21), 5
        rho0 = 0.7 * basis_density(4, 1) + 0.3 * basis_density(4, 3)
        monkeypatch.setattr(dynamics, "ENSEMBLE_CHUNK_BYTES", 2 * run.steps * g.edge_count)  # chunks of 2, 2, 1
        rec = monte_carlo_channel(g, run, rho0, t, 4)
        w, v = np.linalg.eigh(rho0)
        w = np.where(w > 0, w, 0.0)
        w /= w.sum()
        picks, want = set(), 0.0
        for k in range(t):
            rng = rng_from_seed(run.seed, k)
            pick = rng.choice(4, size=1, p=w)[0]
            bits = sample_keep_bits(g, run.lam, rng, run.steps)
            states, _, _ = _kernels.trajectory_states(g.edge_array, 4, run.tau, bits, rec.record_steps,
                                                      v[:, pick].astype(np.complex128))
            picks.add(pick)
            want = want + np.einsum("ri,rj->rij", states, states.conj())
        assert len(picks) == 2  # both eigenstates start some trajectory
        assert np.max(np.abs(rec.densities - want / t)) <= 1e-12

    def test_needs_two_trajectories(self):
        g = make_ring(3)
        run = PercolationRun(lam=0.5, tau=0.1, steps=2, seed=5)
        with pytest.raises(ValueError):
            monte_carlo_channel(g, run, basis_density(3, 0), 1)

    def test_classical_ensemble_matches_average_kernel(self):
        # classical averaging is linear: exact ensemble = (sum_r p_r e^{-H_r tau})^S
        g = make_ring(2)
        run = PercolationRun(lam=0.4, tau=0.3, steps=5, seed=12)
        t = 40_000
        total, moments, _, _ = _kernels.ensemble_classical(
            g.edge_array, 2, run.tau, keep_bits3(g, run, t), recorded_steps(run.steps, 1), _delta(2))
        m_avg = sum(
            p * stochastic_exp(decompose(reference_laplacian(g.node_count, g.edges, mask)), run.tau)
            for mask, p in enumerate_realizations(g, run.lam)
        )
        expect = np.linalg.matrix_power(m_avg, run.steps) @ _delta(2)
        dev = np.max(np.abs(total[-1] / t - expect))
        assert dev <= 4 * _max_stderr(moments, t)[-1] + 1e-12

    def test_classical_limits(self):
        g, rec = make_ring(4), recorded_steps(20, 1)
        run0 = PercolationRun(lam=0.0, tau=0.1, steps=20, seed=3)
        total0, *_ = _kernels.ensemble_classical(g.edge_array, 4, run0.tau, keep_bits3(g, run0, 5), rec, _delta(4))
        assert np.max(np.abs(total0[-1] / 5 - _delta(4))) <= 1e-12
        run1 = PercolationRun(lam=1.0, tau=0.1, steps=20, seed=3)
        total1, moments1, _, _ = _kernels.ensemble_classical(
            g.edge_array, 4, run1.tau, keep_bits3(g, run1, 5), rec, _delta(4))
        expect = stochastic_exp(decompose(full_hamiltonian(g)), run1.total_time) @ _delta(4)
        assert np.max(np.abs(total1[-1] / 5 - expect)) <= 1e-8
        assert np.max(_max_stderr(moments1, 5)) <= 1e-12


class TestDensityIsPositive:
    """A start density with an eigenvalue below -DENSITY_ATOL is refused by every channel route."""

    BAD = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)  # trace 1, Hermitian, not a state

    def _routes(self):
        g = make_ring(4)
        run = PercolationRun(lam=0.5, tau=0.1, steps=6, seed=3)
        phi = build_step_channel(g, run.lam, run.tau)
        return [lambda rho: monte_carlo_channel(g, run, rho, 4),
                lambda rho: channel_site_probabilities(phi, rho, run.steps),
                lambda rho: evolve_channel(phi, rho, run.steps)]

    def test_negative_eigenvalue_is_refused_by_name(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("keep bits drawn for a refused density")

        monkeypatch.setattr(dynamics, "sample_keep_bits", no_draws)
        for route in self._routes():
            with pytest.raises(ValueError, match=r"not positive semidefinite: min eigenvalue -2\.000e-01"):
                route(self.BAD)

    def test_round_off_below_zero_is_accepted(self):
        rho = np.diag([1.0 + 1e-12, -1e-12, 0.0, 0.0]).astype(complex)
        mc, probs, rhos = (route(rho) for route in self._routes())
        assert mc.densities[0][0, 0] == 1.0
        assert np.max(np.abs(probs[0] - np.diag(rho).real)) == 0.0
        assert np.array_equal(rhos[0], rho)


class TestNonFiniteRuns:
    def test_nan_initial_state_is_refused(self):
        with pytest.raises(ValueError):
            run_trajectory(make_ring(4), PercolationRun(0.5, 0.1, 5), np.array([np.nan, 0, 0, 0]))

    def test_non_finite_run_reports_non_finite_drift(self, monkeypatch):
        # every mask-cache propagator NaN: each drift fold (trajectory, ensemble block, Monte
        # Carlo chunk) must keep the NaN instead of reporting the finite start value
        def nan_propagators(edges, n, bits, z, plan, work, out, incidence=None):
            out.fill(np.nan)

        monkeypatch.setattr(_kernels, "_cache_propagators", nan_propagators)
        force_mask_cache(monkeypatch)  # 5 steps alone take the Taylor matrix
        g, run = make_ring(4), PercolationRun(lam=0.5, tau=0.1, steps=5, seed=3)
        assert np.isnan(run_trajectory(g, run, basis_state(4, 0)).max_norm_drift)
        assert np.isnan(run_classical_trajectory(g, run, _delta(4)).max_norm_drift)
        assert np.isnan(monte_carlo_channel(g, run, basis_density(4, 0), 3).max_norm_drift)
        _, _, drift, _ = _kernels.ensemble_classical(
            g.edge_array, 4, run.tau, keep_bits3(g, run, 3), recorded_steps(run.steps, 1), _delta(4))
        assert np.isnan(drift)


class TestRefusals:
    @pytest.mark.parametrize("call,message", [
        (lambda g, run: run_trajectory(g, run, basis_state(3, 0)), "state dimension 3 != node_count 4"),
        (lambda g, run: run_classical_trajectory(g, run, _delta(3)),
         "distribution dimension 3 != node_count 4"),
        (lambda g, run: monte_carlo_channel(g, run, basis_density(3, 0), 2),
         "density dimension 3 != node_count 4"),
        (lambda g, run: build_step_channel(g, 1.5, 0.1), r"lam must be in \[0, 1\], got 1.5"),
        (lambda g, run: build_step_channel(g, -0.1, 0.1), r"lam must be in \[0, 1\], got -0.1"),
        (lambda g, run: build_step_channel(g, 0.5, 0.0), "tau must be positive, got 0.0"),
        (lambda g, run: build_step_channel(g, 0.5, -0.1), "tau must be positive, got -0.1"),
        (lambda g, run: evolve_channel(build_step_channel(g, 0.5, 0.1), basis_density(4, 0), -1),
         "steps must be >= 0, got -1"),
        (lambda g, run: channel_site_probabilities(build_step_channel(g, 0.5, 0.1), basis_density(4, 0), -1),
         "steps must be >= 0, got -1"),
    ], ids=["trajectory-dim", "classical-dim", "montecarlo-dim", "channel-lam-high", "channel-lam-low",
            "channel-tau-zero", "channel-tau-negative", "evolve-steps", "site-probabilities-steps"])
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(make_ring(4), PercolationRun(lam=0.5, tau=0.1, steps=5, seed=0))
