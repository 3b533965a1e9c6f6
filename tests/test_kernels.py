import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from percwalk import _kernels
from percwalk.dynamics import apply_channel, build_step_channel, evolve_channel
from percwalk.graph import (
    Graph,
    make_complete,
    make_lattice2d,
    make_ring,
    rng_from_seed,
    sample_keep_bits,
)
from percwalk.walk import WalkConfig, basis_density, basis_state

from helpers import expm_channel_gram, reference_laplacian

RENORM = (10_000, 1e-12)
HYPOTHESIS = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def _setup(graph, lam, steps, seed=5):
    rng = rng_from_seed(seed)
    bits = sample_keep_bits(graph, lam, rng, steps)
    rec = np.arange(0, steps + 1, max(1, steps // 10), dtype=np.int64)
    if rec[-1] != steps:
        rec = np.append(rec, steps)
    return bits, rec


class TestCachePolicy:
    def test_capacity_rules(self):
        cap = _kernels.propagator_cache_capacity
        assert cap(4, 1000, 4) == 16  # bounded by mask count
        assert cap(16, 100, 10) == 100  # bounded by step count
        assert cap(17, 100, 10) == 0  # too many edges to ever hit
        assert cap(16, 1 << 20, 10) == 1 << 16  # bounded by the 2^16 masks of 16 edges
        assert cap(16, 1 << 16, 2000) == 0  # memory slab guard

    def test_cached_equals_uncached_results(self):
        # ring(4) caches; forcing the uncached branch must give identical states
        g = make_ring(4)
        bits, rec = _setup(g, 0.5, 80)
        psi0 = basis_state(4, 0)
        cached, _, propagator = _kernels.trajectory_states(
            g.edge_array, 4, 1.0, 0.09, bits, rec, psi0, *RENORM
        )
        assert propagator == "mask-cache"
        psi = psi0.astype(complex)
        direct = [psi.copy()]
        for s in range(80):
            h = _kernels.hamiltonian_from_bits(g.edge_array, bits[s], 1.0, 4)
            w, q = np.linalg.eigh(h)
            psi = (q * np.exp(-1j * 0.09 * w)) @ (q.T @ psi)
            direct.append(psi.copy())
        direct = np.array(direct)[rec]
        assert np.max(np.abs(cached - direct)) <= 1e-12


class TestBackendSelection:
    def test_active_backend_reports(self):
        assert _kernels.active_backend() == "numpy"


def _tail_bound(y, order):
    return y ** (order + 1) / math.factorial(order + 1) / (1 - y / (order + 2))


class TestTaylorPlan:
    @pytest.mark.parametrize("graph,tau,plan", [
        (make_complete(15), 1e-4, (1, 5)),
        (make_lattice2d(10, 10), 1e-3, (1, 6)),
        (make_complete(15), 0.1, (3, 17)),
        (make_ring(4), 0.1, (1, 13)),
    ])
    def test_paper_configurations(self, graph, tau, plan):
        assert _kernels.taylor_plan(graph.edge_array, graph.node_count, 1.0, tau) == plan

    @HYPOTHESIS
    @given(
        n=st.integers(2, 30),
        gamma=st.floats(0.05, 5.0),
        tau=st.floats(1e-6, 3.0),
    )
    def test_tail_bound_is_below_unit_roundoff(self, n, gamma, tau):
        g = make_complete(n)
        substeps, order = _kernels.taylor_plan(g.edge_array, n, gamma, tau)
        x = 2 * gamma * tau * (n - 1)
        assert substeps == max(1, math.ceil(x))
        y = x / substeps
        assert y <= 1.0
        assert _tail_bound(y, order) <= 2.0**-53
        if order > 0:  # the order is the smallest that meets the bound
            assert _tail_bound(y, order - 1) > 2.0**-53


# random simple graphs with more than CACHE_MAX_EDGES edges, so the Taylor action runs
@st.composite
def uncached_graphs(draw):
    n = draw(st.integers(7, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=17, max_size=len(pairs), unique=True))
    return Graph(node_count=n, edges=tuple(sorted(keep)))


def _replay(g, gamma, z, bits, x0):
    """States after each step, one scipy expm per step."""
    x = x0.astype(complex if np.iscomplexobj(z) else float)
    out = [x]
    for row in bits:
        mask = sum(1 << int(k) for k in np.flatnonzero(row))
        x = scipy.linalg.expm(z * reference_laplacian(g.node_count, g.edges, mask, gamma)) @ x
        out.append(x)
    return np.array(out)


class TestTaylorAction:
    STEPS = 12

    def _bits(self, g, lam, seed, k=0):
        return sample_keep_bits(g, lam, rng_from_seed(seed, k), self.STEPS)

    @HYPOTHESIS
    @given(g=uncached_graphs(), lam=st.floats(0.1, 0.9), tau=st.floats(0.01, 0.6),
           gamma=st.floats(0.5, 2.0), seed=st.integers(0, 2**32))
    def test_trajectories_match_expm(self, g, lam, tau, gamma, seed):
        n = g.node_count
        bits = self._bits(g, lam, seed)
        rec = np.arange(self.STEPS + 1)
        psi, drift, name = _kernels.trajectory_states(
            g.edge_array, n, gamma, tau, bits, rec, basis_state(n, 0), *RENORM)
        assert name.startswith("taylor(")
        assert np.max(np.abs(psi - _replay(g, gamma, -1j * tau, bits, basis_state(n, 0)))) <= 1e-12
        assert drift <= 1e-12
        p0 = np.eye(n)[1]
        p, _, _ = _kernels.classical_trajectory(g.edge_array, n, gamma, tau, bits, rec, p0)
        assert np.max(np.abs(p - _replay(g, gamma, -tau, bits, p0))) <= 1e-12

    @HYPOTHESIS
    @given(g=uncached_graphs(), lam=st.floats(0.1, 0.9), tau=st.floats(0.01, 0.6),
           seed=st.integers(0, 2**32))
    def test_ensembles_match_expm(self, g, lam, tau, seed):
        n, n_traj = g.node_count, 3
        bits3 = np.stack([self._bits(g, lam, seed, k) for k in range(n_traj)])
        rec = np.arange(0, self.STEPS + 1, 4)
        psi0, p0 = basis_state(n, 0), np.eye(n)[0]
        sum_outer, _, drift, name = _kernels.ensemble_quantum(
            g.edge_array, n, 1.0, tau, bits3, rec, np.tile(psi0, (n_traj, 1)), *RENORM)
        assert name.startswith("taylor(") and drift <= 1e-12
        sum_dist, _, _, _ = _kernels.ensemble_classical(g.edge_array, n, 1.0, tau, bits3, rec, p0)
        want_outer, want_dist = 0, 0
        for bits in bits3:
            psi = _replay(g, 1.0, -1j * tau, bits, psi0)[rec]
            want_outer = want_outer + np.einsum("ri,rj->rij", psi, psi.conj())
            want_dist = want_dist + _replay(g, 1.0, -tau, bits, p0)[rec]
        assert np.max(np.abs(sum_outer - want_outer)) <= 1e-12
        assert np.max(np.abs(sum_dist - want_dist)) <= 1e-12

    def test_large_step_is_split_into_substeps(self):
        g = make_complete(9)  # 36 edges, maxdeg 8
        tau = 0.7  # tau * ||H|| up to 2 * 8 * 0.7 = 11.2
        substeps, order = _kernels.taylor_plan(g.edge_array, 9, 1.0, tau)
        assert substeps == 12
        bits = self._bits(g, 0.6, 4)
        rec = np.arange(self.STEPS + 1)
        psi, _, name = _kernels.trajectory_states(
            g.edge_array, 9, 1.0, tau, bits, rec, basis_state(9, 3), *RENORM)
        assert name == f"taylor(substeps=12, order={order})"
        assert np.max(np.abs(psi - _replay(g, 1.0, -1j * tau, bits, basis_state(9, 3)))) <= 1e-12
        p0 = np.eye(9)[3]
        p, _, _ = _kernels.classical_trajectory(g.edge_array, 9, 1.0, tau, bits, rec, p0)
        assert np.max(np.abs(p - _replay(g, 1.0, -tau, bits, p0))) <= 1e-12

    @HYPOTHESIS
    @given(g=uncached_graphs(), lam=st.floats(0.1, 0.9), tau=st.floats(0.01, 2.0),
           seed=st.integers(0, 2**32))
    def test_classical_propagator_is_stochastic(self, g, lam, tau, seed):
        # evolving every unit vector with the same keep bits gives the columns
        # of the product of step propagators: sums stay 1, entries stay >= 0
        n = g.node_count
        bits = self._bits(g, lam, seed)
        rec = np.arange(self.STEPS + 1)
        cols = [_kernels.classical_trajectory(g.edge_array, n, 1.0, tau, bits, rec, e)[0]
                for e in np.eye(n)]
        ensemble = []
        _kernels._ensemble(g.edge_array, n, 1.0, -tau, np.repeat(bits[None], n, axis=0), rec,
                           np.eye(n), lambda i, x: ensemble.append(x.copy()), 0, 0.0)
        for m in (np.stack(cols, axis=2), np.array(ensemble)):  # (record, node, column)
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-14
            assert m.min() >= -1e-15


# random simple graphs small enough to enumerate all 2^E realizations against scipy expm
@st.composite
def channel_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(10, len(pairs)), unique=True))
    return Graph(node_count=n, edges=tuple(keep))


def _channel_tau(g, gamma, x):
    """The tau at which 2 * gamma * tau * maxdeg = x, so x > 1 needs squarings."""
    return x / (2.0 * gamma * max(g.degrees()))


def _check_channel_against_expm(g, lam, x, gamma):
    tau = _channel_tau(g, gamma, x)
    k_acc, name, perms, orbits = _kernels.channel_accumulate(
        g.edge_array, g.node_count, gamma, lam, tau)
    substeps, _ = _kernels.taylor_plan(g.edge_array, g.node_count, gamma, tau)
    assert name.startswith(f"taylor(substeps={1 << (substeps - 1).bit_length()}, ")
    symmetries = perms.shape[0]
    assert 1 <= orbits <= 1 << g.edge_count and symmetries >= 1
    assert np.array_equal(perms[0], np.arange(g.node_count))
    want = expm_channel_gram(g.node_count, g.edges, lam, tau, gamma)
    assert np.max(np.abs(k_acc - want)) <= 1e-13
    return symmetries


class TestChannelBuild:
    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0),
           gamma=st.floats(0.5, 2.0))
    def test_matches_expm_reference(self, g, lam, x, gamma):
        _check_channel_against_expm(g, lam, x, gamma)

    @pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, 3.0])
    def test_cos_sin_match_spectral_reference(self, scale):
        # _cos_sin returns cos(a) - I, not cos(a), next to sin(a); planned as in channel_accumulate
        g = make_lattice2d(2, 3)
        substeps, _ = _kernels.taylor_plan(g.edge_array, 6, 1.0, scale)
        squarings = (substeps - 1).bit_length()
        a = _kernels.laplacians(g.edge_array, 6, np.ones((1, g.edge_count)), scale / 2**squarings)
        _, order = _kernels.taylor_plan(g.edge_array, 6, 1.0, scale / 2**squarings)
        e, s = _kernels._cos_sin(a, order, squarings)
        w, q = np.linalg.eigh(a[0] * 2**squarings)
        assert np.max(np.abs(e[0] - (q * (np.cos(w) - 1.0)) @ q.T)) <= 4e-15
        assert np.max(np.abs(s[0] - (q * np.sin(w)) @ q.T)) <= 4e-15
        if squarings:
            assert np.array_equal(s[0], s[0].T)

    def test_long_evolution_keeps_the_trace(self):
        # the sums carry U - I: the unit diagonal's rounding, copied over each
        # orbit, would drift the trace by about 1e-12 over these steps
        phi = build_step_channel(make_ring(15), None, 0.2, 0.004)
        rhos = evolve_channel(phi, basis_density(15, 0), 5000, 10)
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("batch", [1, 4])
    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0),
           gamma=st.floats(0.5, 2.0))
    def test_orbit_build_matches_expm_reference(self, batch, g, lam, x, gamma):
        # small batches let the cost rule accept the symmetry of these small graphs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            _check_channel_against_expm(g, lam, x, gamma)

    @pytest.mark.parametrize("batch,symmetries", [(1, 10), (3, 10), (4, 1)])
    def test_cost_rule_bounds_the_group(self, batch, symmetries):
        # ring:5 has 10 automorphisms and 32 masks: at most 32 // batch are accepted
        g = make_ring(5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            assert _check_channel_against_expm(g, 0.3, 1.5, 1.0) == symmetries

    @pytest.mark.parametrize("x,order", [(1e-6, 2), (1e-5, 3), (1e-4, 3)])
    def test_short_steps_match_expm_reference(self, x, order):
        # below the range drawn above the plan keeps only 2 or 3 Taylor terms
        g = make_lattice2d(2, 3)
        tau = _channel_tau(g, 1.0, x)
        k_acc, name, _, _ = _kernels.channel_accumulate(g.edge_array, g.node_count, 1.0, 0.5, tau)
        assert name == f"taylor(substeps=1, order={order})"
        want = expm_channel_gram(g.node_count, g.edges, 0.5, tau)
        assert np.max(np.abs(k_acc - want)) <= 1e-13

    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0),
           gamma=st.floats(0.5, 2.0), seed=st.integers(0, 2**32))
    def test_channel_is_cptp_and_unital(self, g, lam, x, gamma, seed):
        n = g.node_count
        phi = build_step_channel(g, WalkConfig(gamma=gamma), lam, _channel_tau(g, gamma, x))
        # Choi matrix sum_ij |i><j| (x) Phi(|i><j|) is PSD iff Phi is CP (Choi 1975)
        units = np.eye(n)
        choi = sum(np.kron(np.outer(units[i], units[j]), apply_channel(phi, np.outer(units[i], units[j])))
                   for i in range(n) for j in range(n))
        assert np.linalg.eigvalsh(choi).min() >= -1e-12
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = apply_channel(phi, rho)
        assert abs(np.trace(out) - 1.0) <= 1e-13
        assert np.max(np.abs(out - out.conj().T)) <= 1e-13
        assert np.max(np.abs(apply_channel(phi, np.eye(n)) - np.eye(n))) <= 1e-13


def _edge_set(edges):
    return {frozenset(e) for e in np.asarray(edges).tolist()}


class TestAutomorphisms:
    @pytest.mark.parametrize("g,order", [
        *[(make_ring(n), 2 * n) for n in (3, 4, 5, 8, 15)],
        (make_complete(5), 120),
        (make_lattice2d(3, 3), 8),
        (make_lattice2d(2, 3), 4),
        (make_lattice2d(3, 4), 4),
        # a 4-ring plus two isolated nodes, which stay fixed
        (Graph(node_count=6, edges=((0, 1), (1, 2), (2, 3), (3, 0))), 8),
        (Graph(node_count=7, edges=((5, 1), (1, 3), (3, 0), (2, 4))), 4),
    ])
    def test_group_of_known_graphs(self, g, order):
        n, edges = g.node_count, g.edge_array
        perms = _kernels._automorphisms(edges, n, 10**6)
        assert perms.shape == (order, n)
        assert np.array_equal(perms[0], np.arange(n))
        assert len({p.tobytes() for p in perms}) == order
        for p in perms:
            assert sorted(p.tolist()) == list(range(n))
            assert _edge_set(p[edges]) == _edge_set(edges)
        isolated = g.degrees() == 0
        assert np.all(perms[:, isolated] == np.flatnonzero(isolated))
        group = {p.tobytes() for p in perms}
        for a in perms:
            for b in perms:
                assert a[b].tobytes() in group

    def test_limit_returns_the_identity_alone(self):
        g = make_ring(6)
        assert _kernels._automorphisms(g.edge_array, 6, 12).shape == (12, 6)
        assert np.array_equal(_kernels._automorphisms(g.edge_array, 6, 11), np.arange(6)[None])


def _superop_perm(p):
    """P (x) P for the node permutation p, acting on column-stacked densities."""
    m = np.eye(p.size)[:, p]  # m @ e_i = e_{p[i]}
    return np.kron(m, m)


class TestOrbitChannel:
    @pytest.mark.parametrize("g,lam,tau", [
        (make_ring(15), 0.4, 0.004),
        (make_lattice2d(3, 3), 0.5, 0.3),
    ])
    def test_matches_the_per_mask_build(self, g, lam, tau):
        # the identity group builds every mask, which is the build without symmetry
        edges, n = g.edge_array, g.node_count
        k_orbit, name, perms, orbits = _kernels.channel_accumulate(edges, n, 1.0, lam, tau)
        assert (perms.shape[0], orbits) == {15: (30, 1224), 9: (8, 570)}[n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_automorphisms", lambda edges, n, limit: np.arange(n)[None])
            k_mask, name_mask, one, built = _kernels.channel_accumulate(edges, n, 1.0, lam, tau)
        assert (name_mask, one.shape[0], built) == (name, 1, 1 << g.edge_count)
        assert np.max(np.abs(k_orbit - k_mask)) <= 1e-14

    @pytest.mark.parametrize("g", [make_ring(15), make_lattice2d(3, 3), make_lattice2d(3, 4)])
    def test_channel_commutes_with_automorphisms(self, g):
        phi = build_step_channel(g, None, 0.3, 0.05)
        for p in _kernels._automorphisms(g.edge_array, g.node_count, 10**6):
            pp = _superop_perm(p)
            assert np.max(np.abs(pp @ phi.matrix - phi.matrix @ pp)) <= 1e-14

    @pytest.mark.parametrize("g,seed", [
        (make_ring(11), 1), (make_lattice2d(3, 3), 2), (make_lattice2d(2, 5), 3),
        (Graph(node_count=7, edges=((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6),
                                    (6, 0), (1, 4))), 4),
    ])
    def test_relabeling_conjugates_the_channel(self, g, seed):
        rng = np.random.default_rng(seed)
        p = rng.permutation(g.node_count)
        relabeled = Graph(node_count=g.node_count,
                          edges=tuple(map(tuple, p[g.edge_array][rng.permutation(g.edge_count)].tolist())))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", 4)  # let the cost rule accept every group here
            phi = build_step_channel(g, None, 0.35, 0.2)
            phi_relabeled = build_step_channel(relabeled, None, 0.35, 0.2)
        assert phi.symmetries == phi_relabeled.symmetries
        pp = _superop_perm(p)
        assert np.max(np.abs(phi_relabeled.matrix - pp @ phi.matrix @ pp.T)) <= 1e-14


# random simple graphs within the mask cache's 16-edge limit
@st.composite
def cached_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(16, len(pairs)), unique=True))
    return Graph(node_count=n, edges=tuple(keep))


class TestMaskCachePropagators:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(g=cached_graphs(), tau=st.floats(1e-4, 30.0), gamma=st.floats(0.5, 2.0),
           seed=st.integers(0, 2**32))
    def test_classical_propagator_is_symmetric_and_stochastic(self, g, tau, gamma, seed):
        bits = np.random.default_rng(seed).integers(0, 2, g.edge_count).astype(np.uint8)
        m = _kernels._propagator_for_bits(g.edge_array, bits, gamma, g.node_count, -tau)
        assert np.max(np.abs(m - m.T)) <= 1e-15
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-13
        assert m.min() >= 0.0


class TestLaplacianBlock:
    def test_block_rows_match_reference(self):
        g = make_lattice2d(4, 3)
        bits = sample_keep_bits(g, 0.5, rng_from_seed(2), 6)
        block = _kernels.laplacians(g.edge_array, g.node_count, bits, 0.7)
        for row, h in zip(bits, block):
            mask = sum(1 << int(k) for k in np.flatnonzero(row))
            assert np.allclose(h, reference_laplacian(g.node_count, g.edges, mask, 0.7), atol=1e-15)


def _merged(y, cuts):
    moments = (0, 0.0, 0.0)
    for block in np.split(y, cuts, axis=1):
        moments = _kernels.merge_moments(moments, _kernels._column_moments(block))
    return moments


@st.composite
def column_splits(draw):
    """A (sites, samples) block of probabilities and the column indices to split it at."""
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), draw(st.integers(2, 40))),
                        elements=st.floats(0.0, 1.0)))
    cuts = draw(st.lists(st.integers(1, y.shape[1] - 1), max_size=6, unique=True))
    return y, sorted(cuts)


class TestMergeMoments:
    @HYPOTHESIS
    @given(split=column_splits())
    def test_merged_splits_give_sample_variance(self, split):
        y, cuts = split
        count, mean, m2 = _merged(y, cuts)
        assert count == y.shape[1]
        assert np.max(np.abs(mean - y.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(m2 / (count - 1) - y.var(axis=1, ddof=1))) <= 1e-12

    @HYPOTHESIS
    @given(split=column_splits())
    def test_identical_columns_give_zero_stderr(self, split):
        y, cuts = split
        same = np.repeat(y[:, :1], y.shape[1], axis=1)
        count, _, m2 = _merged(same, cuts)
        assert np.max(np.sqrt(m2 / ((count - 1) * count))) <= 1e-15
