import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from percwalk import _kernels
from percwalk.dynamics import (
    PercolationRun,
    build_step_channel,
    evolve_channel,
    run_classical_trajectory,
    run_trajectory,
)
from percwalk.graph import (
    Graph,
    graph_from_spec,
    make_complete,
    make_lattice2d,
    make_ring,
    rng_from_seed,
    sample_keep_bits,
    write_edge_file,
)
from percwalk.walk import basis_density, basis_state

from helpers import (
    apply_channel,
    channel_graphs,
    expm_channel_gram,
    reference_automorphisms,
    reference_laplacian,
    reference_orbit_representatives,
    reference_taylor_ensemble,
    reference_trajectory,
)

RENORM = (_kernels.RENORM_EVERY, _kernels.RENORM_TOL)
HYPOTHESIS = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def _with_policy(reference):
    """``reference`` given the renormalization that ``_kernels`` applies at the time of the call.

    A quantum walk (complex z) takes ``_kernels.RENORM_EVERY`` and
    ``_kernels.RENORM_TOL``; a classical walk is never renormalized.
    """
    def run(edges, n, z, *args):
        policy = (_kernels.RENORM_EVERY, _kernels.RENORM_TOL) if np.iscomplexobj(z) else (0, 0.0)
        return reference(edges, n, z, *args, *policy)
    return run


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
        cached, _, propagator = _kernels.trajectory_states(g.edge_array, 4, 0.09, bits, rec, psi0)
        assert propagator == "mask-cache(chunk=16)"
        psi = psi0.astype(complex)
        direct = [psi.copy()]
        for s in range(80):
            h = _kernels.hamiltonian_from_bits(g.edge_array, bits[s], 4)
            w, q = np.linalg.eigh(h)
            psi = (q * np.exp(-1j * 0.09 * w)) @ (q.T @ psi)
            direct.append(psi.copy())
        direct = np.array(direct)[rec]
        assert np.max(np.abs(cached - direct)) <= 1e-12

    def test_mask_keys_are_packed_per_block(self):
        # ring4-longtime's 60 000-step trajectory at stride 100: the output takes 38 kB and
        # one block's int64 keys 131 kB, where keys for the whole run would take 1.92 MB
        g, steps = make_ring(4), 60_000
        bits = sample_keep_bits(g, 0.2, rng_from_seed(7), steps)
        rec = np.arange(0, steps + 1, 100, dtype=np.int64)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, _, propagator = _kernels.trajectory_states(
                g.edge_array, 4, 100 / steps, bits, rec, basis_state(4, 0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert propagator == "mask-cache(chunk=16)"
        assert peak <= 1.5e6


class TestMaskCacheChunks:
    """Chunked prefix products of the mask cache against one matvec per step."""

    # the graphs the chunk rule was measured on, with the chunk length it gives them
    @pytest.mark.parametrize("graph,quantum,chunk", [
        (make_ring(3), True, 21),
        (make_ring(4), True, 16),
        (make_ring(5), True, 13),
        (make_ring(6), True, 1),  # measured 0.83x with chunks of 32: one matvec per step
        (make_ring(4), False, 32),
        (make_ring(5), False, 26),
        (make_ring(8), False, 16),
        (make_ring(12), False, 1),  # measured a tie
    ])
    def test_rule_takes_the_measured_side(self, graph, quantum, chunk):
        run = PercolationRun(lam=0.5, tau=0.1, steps=3)
        n = graph.node_count
        rec = (run_trajectory(graph, run, basis_state(n, 0)) if quantum
               else run_classical_trajectory(graph, run, np.eye(n)[0]))
        assert rec.propagator == f"mask-cache(chunk={chunk})"

    @pytest.mark.parametrize("quantum,bound", [(True, 2e-13), (False, 2e-14)])
    def test_within_round_off_of_a_matvec_per_step(self, monkeypatch, quantum, bound):
        # ring4-longtime's trajectory: 60 000 steps at tau = 1/600. One matvec per step (the
        # loop before prefix products) on the same cached propagators, without renormalization
        monkeypatch.setattr(_kernels, "RENORM_EVERY", 0)
        g, n, steps = make_ring(4), 4, 60_000
        tau = 100 / steps
        bits = sample_keep_bits(g, 0.2, rng_from_seed(11), steps)
        rec = np.arange(0, steps + 1, 100, dtype=np.int64)
        x0 = np.eye(n)[0]
        if quantum:
            z, (states, _, name) = -1j * tau, _kernels.trajectory_states(g.edge_array, n, tau, bits, rec, x0)
        else:
            z, (states, _, name) = -tau, _kernels.classical_trajectory(g.edge_array, n, tau, bits, rec, x0)
        assert name == f"mask-cache(chunk={16 if quantum else 32})"
        cache, x, want = {}, x0.astype(states.dtype), [x0]
        for s, key in enumerate(_kernels._mask_keys(bits).tolist(), start=1):
            u = cache.get(key)
            if u is None:
                u = cache[key] = _kernels._propagators(g.edge_array, n, bits[s - 1][None], z)[0]
            x = u @ x
            if s % 100 == 0:
                want.append(x)
        assert np.max(np.abs(states - np.array(want))) <= bound
        if not quantum:
            assert states.min() >= 0.0


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
        assert _kernels.taylor_plan(graph.edge_array, graph.node_count, tau) == plan

    @HYPOTHESIS
    @given(n=st.integers(2, 30), tau=st.floats(5e-8, 15.0))
    def test_tail_bound_is_below_unit_roundoff(self, n, tau):
        g = make_complete(n)
        substeps, order = _kernels.taylor_plan(g.edge_array, n, tau)
        x = 2 * tau * (n - 1)
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


# random simple graphs within the mask cache's 16-edge limit
@st.composite
def cached_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(16, len(pairs)), unique=True))
    return Graph(node_count=n, edges=tuple(keep))


@contextlib.contextmanager
def forced_rule(matrix: bool):
    """Within it, ``_kernels._use_matrix`` sends every step to the Taylor matrix (True) or the action."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels, "_use_matrix", lambda n, substeps: matrix)
        yield


# the trajectory propagators of the Taylor plan, each forced by ``forced_rule``
PATHS = (("taylor-matrix", True), ("taylor", False))


def _replay(g, z, bits, x0):
    """States after each step, one scipy expm per step."""
    x = x0.astype(complex if np.iscomplexobj(z) else float)
    out = [x]
    for row in bits:
        mask = sum(1 << int(k) for k in np.flatnonzero(row))
        x = scipy.linalg.expm(z * reference_laplacian(g.node_count, g.edges, mask)) @ x
        out.append(x)
    return np.array(out)


class TestTaylorAction:
    STEPS = 12

    def _bits(self, g, lam, seed, k=0):
        return sample_keep_bits(g, lam, rng_from_seed(seed, k), self.STEPS)

    @HYPOTHESIS
    @given(g=uncached_graphs(), lam=st.floats(0.1, 0.9), tau=st.floats(0.005, 1.2),
           seed=st.integers(0, 2**32))
    def test_trajectories_match_expm(self, g, lam, tau, seed):
        n = g.node_count
        bits = self._bits(g, lam, seed)
        rec = np.arange(self.STEPS + 1)
        want_psi = _replay(g, -1j * tau, bits, basis_state(n, 0))
        p0 = np.eye(n)[1]
        want_p = _replay(g, -tau, bits, p0)
        for kind, matrix in PATHS:
            with forced_rule(matrix):
                psi, drift, name = _kernels.trajectory_states(
                    g.edge_array, n, tau, bits, rec, basis_state(n, 0))
                p, _, classical_name = _kernels.classical_trajectory(g.edge_array, n, tau, bits, rec, p0)
            assert name.startswith(kind + "(") and classical_name == name
            assert np.max(np.abs(psi - want_psi)) <= 1e-12
            assert drift <= 1e-12
            assert np.max(np.abs(p - want_p)) <= 1e-12

    @HYPOTHESIS
    @given(g=st.one_of(cached_graphs(), uncached_graphs()), lam=st.floats(0.1, 0.9),
           tau=st.floats(0.01, 3.0), seed=st.integers(0, 2**32))
    def test_ensembles_match_expm(self, g, lam, tau, seed):
        # both propagators: the mask cache (at most 16 edges) and the Taylor action
        n, n_traj = g.node_count, 3
        bits3 = np.stack([self._bits(g, lam, seed, k) for k in range(n_traj)])
        rec = np.arange(0, self.STEPS + 1, 4)
        psi0, p0 = basis_state(n, 0), np.eye(n)[0]
        plan = _kernels.step_plan(g.edge_array, n, tau, self.STEPS, True, n_traj)
        sum_outer, _, drift, name = _kernels.ensemble_quantum(
            g.edge_array, n, tau, bits3, rec, np.tile(psi0, (n_traj, 1)))
        assert name == _kernels._plan_name(plan) and drift <= 1e-12
        sum_dist, _, _, _ = _kernels.ensemble_classical(g.edge_array, n, tau, bits3, rec, p0)
        want_outer, want_dist = 0, 0
        for bits in bits3:
            psi = _replay(g, -1j * tau, bits, psi0)[rec]
            want_outer = want_outer + np.einsum("ri,rj->rij", psi, psi.conj())
            want_dist = want_dist + _replay(g, -tau, bits, p0)[rec]
        assert np.max(np.abs(sum_outer - want_outer)) <= 1e-12
        assert np.max(np.abs(sum_dist - want_dist)) <= 1e-12

    def test_large_step_is_split_into_substeps(self):
        g = make_complete(9)  # 36 edges, maxdeg 8
        tau = 0.7  # tau * ||H|| up to 2 * 8 * 0.7 = 11.2
        substeps, order = _kernels.taylor_plan(g.edge_array, 9, tau)
        assert substeps == 12
        bits = self._bits(g, 0.6, 4)
        rec = np.arange(self.STEPS + 1)
        p0 = np.eye(9)[3]
        for kind, matrix in PATHS:
            with forced_rule(matrix):
                psi, _, name = _kernels.trajectory_states(
                    g.edge_array, 9, tau, bits, rec, basis_state(9, 3))
                p, _, _ = _kernels.classical_trajectory(g.edge_array, 9, tau, bits, rec, p0)
            assert name == f"{kind}(substeps=12, order={order})"
            assert np.max(np.abs(psi - _replay(g, -1j * tau, bits, basis_state(9, 3)))) <= 1e-12
            assert np.max(np.abs(p - _replay(g, -tau, bits, p0))) <= 1e-12

    @HYPOTHESIS
    @given(g=uncached_graphs(), lam=st.floats(0.1, 0.9), tau=st.floats(0.01, 2.0),
           seed=st.integers(0, 2**32))
    def test_classical_propagator_is_stochastic(self, g, lam, tau, seed):
        # evolving every unit vector with the same keep bits gives the columns
        # of the product of step propagators: sums stay 1, entries stay >= 0
        n = g.node_count
        bits = self._bits(g, lam, seed)
        rec = np.arange(self.STEPS + 1)
        products = []
        for _, matrix in PATHS:
            with forced_rule(matrix):
                cols = [_kernels.classical_trajectory(g.edge_array, n, tau, bits, rec, e)[0]
                        for e in np.eye(n)]
            products.append(np.stack(cols, axis=2))
        ensemble = []
        _kernels._ensemble(g.edge_array, n, -tau, np.repeat(bits[None], n, axis=0), rec,
                           np.eye(n), lambda i, xs: ensemble.extend(xs.copy()))
        for m in products + [np.array(ensemble)]:  # (record, node, column)
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-14
            assert m.min() >= -1e-15

    # on bipartite graphs with every edge kept ||tau H|| = 2 tau maxdeg, so the plan's order has
    # no slack: its truncation error is at the 2^-53 bound, and two orders fewer exceed it
    @pytest.mark.parametrize("g", [
        make_ring(8),
        Graph(node_count=6, edges=tuple((i, j) for i in range(3) for j in range(3, 6))),
        Graph(node_count=8,  # the 3-cube
              edges=tuple((i, i | 1 << b) for i in range(8) for b in range(3) if not i >> b & 1)),
    ], ids=["ring8", "k33", "cube"])
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.3, 1.0, 5.5])
    def test_taylor_matrices_match_expm_at_the_bound(self, g, x):
        n = g.node_count
        h = reference_laplacian(n, g.edges, (1 << g.edge_count) - 1)
        tau = x / (2.0 * max(g.degrees()))
        substeps, order = _kernels.taylor_plan(g.edge_array, n, tau)
        bits = np.ones((1, g.edge_count), dtype=np.uint8)
        for z in (-1j * tau, -tau):
            d = _kernels._taylor_matrices(g.edge_array, n, bits, z, substeps, order)[0]
            want = scipy.linalg.expm(z / substeps * h) - np.eye(n)
            assert np.max(np.abs(d - want)) <= 2 * np.finfo(float).eps

    def test_non_finite_state_reports_non_finite_drift(self):
        g, n = make_complete(7), 7
        bits = self._bits(g, 0.5, 9)
        rec = np.arange(self.STEPS + 1)
        psi0 = basis_state(n, 0)
        psi0[2] = np.nan
        for _, matrix in PATHS:
            with forced_rule(matrix):
                _, drift, _ = _kernels.trajectory_states(g.edge_array, n, 0.3, bits, rec, psi0)
            assert np.isnan(drift)
        _, _, drift, _ = _kernels.ensemble_quantum(g.edge_array, n, 0.3, bits[None], rec, psi0[None])
        assert np.isnan(drift)


class TestPropagatorRule:
    """``_use_matrix`` forms the Taylor polynomial on small graphs and applies it on large ones."""

    @pytest.mark.parametrize("graph,tau,name", [
        (make_complete(15), 1e-4, "taylor-matrix(substeps=1, order=5)"),
        (make_complete(9), 0.7, "taylor-matrix(substeps=12, order=17)"),
        (make_lattice2d(10, 10), 1e-4, "taylor(substeps=1, order=4)"),
        (None, 1e-4, "taylor(substeps=1, order=4)"),  # 20 edges on 300 nodes, from a file
    ])
    def test_rule_picks_the_path(self, tmp_path, graph, tau, name):
        if graph is None:
            write_edge_file(Graph(node_count=300, edges=tuple((i, i + 1) for i in range(20))),
                            tmp_path / "path.edges")
            graph = graph_from_spec(f"file:{tmp_path / 'path.edges'}")
        run = PercolationRun(lam=0.5, tau=tau, steps=3)
        assert run_trajectory(graph, run, basis_state(graph.node_count, 0)).propagator == name
        p0 = np.eye(graph.node_count)[0]
        assert run_classical_trajectory(graph, run, p0).propagator == name


class TestStepLoopsAreBitIdentical:
    """The step loops against per-step reference loops on the same operands: equal bits."""

    # graph, tau, propagator: the rule sends complete:7 to the Taylor matrix, and _check forces
    # the action for the "taylor(" cases
    CASES = [
        (make_ring(4), 0.1, "mask-cache"),
        (make_complete(7), 0.05, "taylor(substeps=1, order=15)"),
        (make_complete(7), 0.9, "taylor(substeps=11, order=18)"),
        (make_complete(7), 0.05, "taylor-matrix(substeps=1, order=15)"),
        (make_complete(7), 0.9, "taylor-matrix(substeps=11, order=18)"),
    ]

    @staticmethod
    def _runs(g, tau, steps, stride):
        bits = sample_keep_bits(g, 0.4, rng_from_seed(17), steps)
        rec = np.arange(0, steps + 1, stride, dtype=np.int64)
        if rec[-1] != steps:
            rec = np.append(rec, steps)
        args = (g.edge_array, g.node_count, tau, bits, rec)
        psi0 = np.full(g.node_count, g.node_count**-0.5)
        return (_kernels.trajectory_states(*args, psi0),
                _kernels.classical_trajectory(*args, np.eye(g.node_count)[1]))

    def _check(self, monkeypatch, g, tau, name, steps, stride, renorm):
        if name.startswith("taylor("):
            monkeypatch.setattr(_kernels, "_use_matrix", lambda n, substeps: False)
        monkeypatch.setattr(_kernels, "RENORM_EVERY", renorm[0])
        monkeypatch.setattr(_kernels, "RENORM_TOL", renorm[1])
        got = self._runs(g, tau, steps, stride)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_trajectory", _with_policy(reference_trajectory))
            want = self._runs(g, tau, steps, stride)
        # the mask cache names its chunk length, which differs between the quantum (m = 2n) and
        # the classical walk (m = n)
        n = g.node_count
        for (states, drift, propagator), (ref_states, ref_drift, ref_propagator), m in zip(
                got, want, (2 * n, n)):
            want_name = f"mask-cache(chunk={_kernels._mask_chunk(m)})" if name == "mask-cache" else name
            assert propagator == ref_propagator == want_name
            assert np.array_equal(states, ref_states)
            assert drift == ref_drift

    @pytest.mark.parametrize("g,tau,name", CASES)
    def test_ragged_stride(self, monkeypatch, g, tau, name):
        self._check(monkeypatch, g, tau, name, 300, 7, RENORM)

    @pytest.mark.parametrize("g,tau,name", CASES)
    def test_one_step_blocks(self, monkeypatch, g, tau, name):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
        self._check(monkeypatch, g, tau, name, 60, 7, RENORM)

    @pytest.mark.parametrize("g,tau,name", CASES[:2] + CASES[3:4])
    def test_forced_renormalization_across_the_boundary(self, monkeypatch, g, tau, name):
        self._check(monkeypatch, g, tau, name, RENORM[0] + 250, 1000, (RENORM[0], 0.0))

    # ring:4 takes chunks of 16 steps (quantum) and 32 (classical)
    @pytest.mark.parametrize("steps,renorm,block_bytes", [
        (5, RENORM, None),  # fewer steps than a chunk
        (96, RENORM, None),  # whole chunks: 6 quantum, 3 classical
        (300, (37, 0.0), None),  # a renormalization every 37 steps ends each block in a ragged chunk
        (300, RENORM, 1 << 14),  # blocks of 32 and 128 steps, chunks of 4 and 8, a ragged last block
    ])
    def test_mask_cache_chunk_edges(self, monkeypatch, steps, renorm, block_bytes):
        if block_bytes:
            monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        self._check(monkeypatch, make_ring(4), 0.1, "mask-cache", steps, 7, renorm)

    def test_mask_cache_with_one_matvec_per_step(self, monkeypatch):
        # ring:6 takes no chunks for the quantum walk (m = 12) and chunks of 21 for the classical
        assert _kernels._mask_chunk(12) == 1
        self._check(monkeypatch, make_ring(6), 0.1, "mask-cache", 300, 7, (37, 0.0))

    def test_forced_renormalization_with_substeps(self, monkeypatch):
        for g, tau, name in (self.CASES[2], self.CASES[4]):
            with monkeypatch.context() as m:
                self._check(m, g, tau, name, 250, 9, (40, 0.0))

    @pytest.mark.parametrize("tau", [0.05, 0.9])
    def test_ensemble_in_narrow_column_blocks(self, monkeypatch, tau):
        g, n, n_traj, steps = make_complete(7), 7, 8, 40
        monkeypatch.setattr(_kernels, "RENORM_EVERY", 9)
        monkeypatch.setattr(_kernels, "RENORM_TOL", 0.0)
        order = _kernels.taylor_plan(g.edge_array, n, tau)[1]
        # three columns per block, so the last of the 8 columns is a block of 2
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 3 * 16 * max((order + 1) * n, g.edge_count))
        bits3 = np.stack([sample_keep_bits(g, 0.4, rng_from_seed(3, k), steps) for k in range(n_traj)])
        rec = np.arange(0, steps + 1, 6, dtype=np.int64)
        psis0 = rng_from_seed(4).normal(size=(n_traj, n)) + 1j * rng_from_seed(5).normal(size=(n_traj, n))
        psis0 /= np.linalg.norm(psis0, axis=1, keepdims=True)

        def run():
            return _kernels.ensemble_quantum(g.edge_array, n, tau, bits3, rec, psis0)

        sum_outer, moments, drift, name = run()
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_ensemble", _with_policy(reference_taylor_ensemble))
            ref_outer, ref_moments, ref_drift, ref_name = run()
        assert name == ref_name and name.startswith("taylor(")
        assert np.array_equal(sum_outer, ref_outer)
        assert drift == ref_drift
        for (count, mean, m2), (ref_count, ref_mean, ref_m2) in zip(moments, ref_moments):
            assert count == ref_count == n_traj
            assert np.array_equal(mean, ref_mean) and np.array_equal(m2, ref_m2)


def _channel_tau(g, x):
    """The tau at which 2 * tau * maxdeg = x, so x > 1 needs squarings."""
    return x / (2.0 * max(g.degrees()))


def _check_channel_against_expm(g, lam, x):
    tau = _channel_tau(g, x)
    k_acc, name, perms, orbits = _kernels.channel_accumulate(g.edge_array, g.node_count, lam, tau)
    substeps, _ = _kernels.taylor_plan(g.edge_array, g.node_count, tau)
    assert name.startswith(f"taylor(substeps={1 << (substeps - 1).bit_length()}, ")
    symmetries = perms.shape[0]
    assert 1 <= orbits <= 1 << g.edge_count and symmetries >= 1
    assert np.array_equal(perms[0], np.arange(g.node_count))
    want = expm_channel_gram(g.node_count, g.edges, lam, tau)
    assert np.max(np.abs(k_acc - want)) <= 1e-13
    return symmetries


class TestChannelBuild:
    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0))
    def test_matches_expm_reference(self, g, lam, x):
        _check_channel_against_expm(g, lam, x)

    @pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, 3.0])
    def test_cos_sin_match_spectral_reference(self, scale):
        # _cos_sin returns cos(a) - I, not cos(a), next to sin(a); planned as in channel_accumulate
        g = make_lattice2d(2, 3)
        substeps, _ = _kernels.taylor_plan(g.edge_array, 6, scale)
        squarings = (substeps - 1).bit_length()
        a = _kernels.laplacians(g.edge_array, 6, np.ones((1, g.edge_count)), scale / 2**squarings)
        _, order = _kernels.taylor_plan(g.edge_array, 6, scale / 2**squarings)
        e, s = _kernels._cos_sin(a, order, squarings)
        w, q = np.linalg.eigh(a[0] * 2**squarings)
        assert np.max(np.abs(e[0] - (q * (np.cos(w) - 1.0)) @ q.T)) <= 4e-15
        assert np.max(np.abs(s[0] - (q * np.sin(w)) @ q.T)) <= 4e-15
        if squarings:
            assert np.array_equal(s[0], s[0].T)

    def test_long_evolution_keeps_the_trace(self):
        # the sums carry U - I: the unit diagonal's rounding, copied over each
        # orbit, would drift the trace by about 1e-12 over these steps
        phi = build_step_channel(make_ring(15), 0.2, 0.004)
        rhos = evolve_channel(phi, basis_density(15, 0), 5000, 10)
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("batch", [1, 4])
    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0))
    def test_orbit_build_matches_expm_reference(self, batch, g, lam, x):
        # small batches let the cost rule accept the symmetry of these small graphs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            _check_channel_against_expm(g, lam, x)

    @pytest.mark.parametrize("batch,symmetries", [(1, 10), (3, 10), (4, 1)])
    def test_cost_rule_bounds_the_group(self, batch, symmetries):
        # ring:5 has 10 automorphisms and 32 masks: at most 32 // batch are accepted
        g = make_ring(5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHANNEL_BATCH", batch)
            assert _check_channel_against_expm(g, 0.3, 1.5) == symmetries

    @pytest.mark.parametrize("g", [make_ring(15), make_lattice2d(3, 3)])
    def test_batches_fit_in_a_block(self, monkeypatch, g):
        n, rows = g.node_count, []
        cos_sin = _kernels._cos_sin
        monkeypatch.setattr(_kernels, "_cos_sin",
                            lambda a, *plan: rows.append(a.shape[0]) or cos_sin(a, *plan))
        _, _, _, built = _kernels.channel_accumulate(g.edge_array, n, 0.4, 0.004)
        # the widest array of a batch, its 2 rows x (n(n+1)/2 + 1) float64 Gram rows, takes half a block
        bound = max(1, min(_kernels.CHANNEL_BATCH, _kernels.BLOCK_BYTES // (16 * (n * n + n + 2))))
        assert bound < _kernels.CHANNEL_BATCH  # 67 rows on ring:15, 178 on lattice2d:3x3
        assert max(rows) == bound and sum(rows) == built

    def test_three_row_batches_give_the_same_channel(self):
        g = make_ring(15)
        k, name, perms, orbits = _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "BLOCK_BYTES", 3 * 16 * (15 * 15 + 15 + 2))
            k3, name3, perms3, orbits3 = _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004)
        assert (perms.shape[0], orbits) == (perms3.shape[0], orbits3) == (30, 1224)
        assert name3 == name and np.array_equal(perms3, perms)
        assert np.max(np.abs(k3 - k)) <= 1e-15

    @pytest.mark.parametrize("x,order", [(1e-6, 2), (1e-5, 3), (1e-4, 3)])
    def test_short_steps_match_expm_reference(self, x, order):
        # below the range drawn above the plan keeps only 2 or 3 Taylor terms
        g = make_lattice2d(2, 3)
        tau = _channel_tau(g, x)
        k_acc, name, _, _ = _kernels.channel_accumulate(g.edge_array, g.node_count, 0.5, tau)
        assert name == f"taylor(substeps=1, order={order})"
        want = expm_channel_gram(g.node_count, g.edges, 0.5, tau)
        assert np.max(np.abs(k_acc - want)) <= 1e-13

    @HYPOTHESIS
    @given(g=channel_graphs(), lam=st.floats(0.0, 1.0), x=st.floats(0.01, 8.0),
           seed=st.integers(0, 2**32))
    def test_channel_is_cptp_and_unital(self, g, lam, x, seed):
        n = g.node_count
        phi = build_step_channel(g, lam, _channel_tau(g, x))
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


# 11 and 12 straddle the order 12 of a 6-ring; 10**6 is above every group here
AUTOMORPHISM_LIMITS = [1, 3, 11, 12, 10**6]


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
        # a 6-ring plus 294 isolated nodes, which stay fixed and take no part in the search
        (Graph(node_count=300, edges=tuple((i, (i + 1) % 6) for i in range(6))), 12),
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
        for limit in AUTOMORPHISM_LIMITS:
            assert np.array_equal(_kernels._automorphisms(edges, n, limit),
                                  reference_automorphisms(edges, n, limit))

    def test_limit_returns_the_identity_alone(self):
        g = make_ring(6)
        assert _kernels._automorphisms(g.edge_array, 6, 12).shape == (12, 6)
        assert np.array_equal(_kernels._automorphisms(g.edge_array, 6, 11), np.arange(6)[None])

    @HYPOTHESIS
    @given(g=channel_graphs())
    def test_random_graphs_match_the_reference_search(self, g):
        # same rows in the same order, so the rotation and the channel blocks do not move
        for limit in AUTOMORPHISM_LIMITS:
            assert np.array_equal(_kernels._automorphisms(g.edge_array, g.node_count, limit),
                                  reference_automorphisms(g.edge_array, g.node_count, limit))


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
        k_orbit, name, perms, orbits = _kernels.channel_accumulate(edges, n, lam, tau)
        assert (perms.shape[0], orbits) == {15: (30, 1224), 9: (8, 570)}[n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_automorphisms", lambda edges, n, limit: np.arange(n)[None])
            k_mask, name_mask, one, built = _kernels.channel_accumulate(edges, n, lam, tau)
        assert (name_mask, one.shape[0], built) == (name, 1, 1 << g.edge_count)
        assert np.max(np.abs(k_orbit - k_mask)) <= 1e-14

    @pytest.mark.parametrize("g", [make_ring(15), make_lattice2d(3, 3), make_lattice2d(3, 4)])
    def test_channel_commutes_with_automorphisms(self, g):
        phi = build_step_channel(g, 0.3, 0.05)
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
            phi = build_step_channel(g, 0.35, 0.2)
            phi_relabeled = build_step_channel(relabeled, 0.35, 0.2)
        assert phi.symmetries == phi_relabeled.symmetries
        pp = _superop_perm(p)
        assert np.max(np.abs(phi_relabeled.matrix - pp @ phi.matrix @ pp.T)) <= 1e-14


class TestOrbitScan:
    """The prefiltered float32 orbit scan and the real pair Gram of the exact channel."""

    @pytest.mark.parametrize("g,group,lam", [
        (make_ring(15), "full", 0.4),  # |G| = 30
        (make_ring(15), "full", 0.0),  # only the empty mask has weight
        (make_lattice2d(3, 4), "full", 0.7),  # |G| = 4: three elements to prefilter with
        (make_complete(5), "full", 0.4),  # |G| = 120
        (make_lattice2d(2, 3), "full", 0.4),  # |G| = 4
        (Graph(node_count=3, edges=((0, 1), (1, 2))), "full", 0.4),  # a path, |G| = 2
        (make_ring(15), "identity", 0.4),  # nothing to prefilter with: every mask represents itself
    ])
    def test_matches_a_float64_scan_of_every_mask(self, g, group, lam):
        edges, n = g.edge_array, g.node_count
        perms = _kernels._automorphisms(edges, n, 10**6) if group == "full" else np.arange(n)[None]
        batches = list(_kernels._orbit_representatives(edges, perms, lam))
        bits = np.concatenate([b for b, _ in batches])
        weights = np.concatenate([w for _, w in batches])
        want_bits, want_weights = reference_orbit_representatives(edges, perms, lam)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, want_bits)
        assert np.array_equal(weights, want_weights)

    # ring15-channel's step, and one that needs a squaring
    @pytest.mark.parametrize("tau,lam", [(0.004, 0.2), (0.004, 0.8), (0.3, 0.4)])
    def test_real_gram_equals_the_complex_one(self, tau, lam):
        g = make_ring(15)
        edges, n = g.edge_array, g.node_count
        substeps, _ = _kernels.taylor_plan(edges, n, tau)
        squarings = (substeps - 1).bit_length()
        _, order = _kernels.taylor_plan(edges, n, tau / 2**squarings)
        upper = (n * np.arange(n)[:, None] + np.arange(n))[np.triu_indices(n)]
        perms = _kernels._automorphisms(edges, n, 10**6)
        for bits, weights in _kernels._orbit_representatives(edges, perms, lam):
            e, s = _kernels._cos_sin(_kernels.laplacians(edges, n, bits, tau / 2**squarings), order, squarings)
            rows = bits.shape[0]
            xy = _kernels._gram_rows(e, s, weights, upper)
            # w = sqrt(weight) (conj(D) on the pairs i <= j, then 1), D = U - I = e - i s
            w = np.concatenate((e.reshape(rows, -1)[:, upper] + 1j * s.reshape(rows, -1)[:, upper],
                                np.ones((rows, 1))), axis=1) * np.sqrt(weights)[:, None]
            assert np.array_equal(xy[:rows] + 1j * xy[rows:], w)
            real, cross = np.zeros((upper.size + 1,) * 2), np.zeros((upper.size + 1,) * 2)
            _kernels._add_gram(real, cross, xy, rows)
            assert np.array_equal(real, real.T)
            assert np.max(np.abs(real + 1j * (cross - cross.T) - w.T @ w.conj())) <= 1e-16


class TestMaskCachePropagators:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(g=cached_graphs(), tau=st.floats(5e-5, 60.0), seed=st.integers(0, 2**32))
    def test_classical_propagator_is_symmetric_and_stochastic(self, g, tau, seed):
        bits = np.random.default_rng(seed).integers(0, 2, g.edge_count).astype(np.uint8)
        m = _kernels._propagators(g.edge_array, g.node_count, bits[None], -tau)[0]
        assert np.max(np.abs(m - m.T)) <= 1e-15
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-13
        assert m.min() >= 0.0

    @pytest.mark.parametrize("graph", [make_ring(4), make_ring(12)], ids=["ring4", "ring12"])
    @pytest.mark.parametrize("quantum", [True, False])
    def test_batched_build_equals_one_row_builds(self, graph, quantum):
        # the mask cache builds the new masks of a block with one batched eigh
        edges, n = graph.edge_array, graph.node_count
        bits = sample_keep_bits(graph, 0.5, rng_from_seed(8), 300)
        z = -1j * 0.3 if quantum else -0.3
        batch = _kernels._propagators(edges, n, bits, z)
        for row, u in zip(bits, batch):
            assert np.array_equal(u, _kernels._propagators(edges, n, row[None], z)[0])
        if not quantum:  # round-off below 0 is clipped, as it was one mask at a time
            w, q = np.linalg.eigh(_kernels.laplacians(edges, n, bits, 1.0))
            raw = (q * np.exp(z * w)[:, None, :]) @ q.transpose(0, 2, 1)
            assert np.array_equal(batch, np.maximum(raw, 0.0))
            assert raw.min() < 0.0 or n == 4  # ring:12 has entries that round below 0


class TestLaplacianBlock:
    def test_block_rows_match_reference(self):
        g = make_lattice2d(4, 3)
        bits = sample_keep_bits(g, 0.5, rng_from_seed(2), 6)
        block = _kernels.laplacians(g.edge_array, g.node_count, bits, 0.7)
        for row, h in zip(bits, block):
            mask = sum(1 << int(k) for k in np.flatnonzero(row))
            assert np.allclose(h, 0.7 * reference_laplacian(g.node_count, g.edges, mask), atol=1e-15)


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
