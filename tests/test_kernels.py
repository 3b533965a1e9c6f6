import contextlib
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from percwalk import _kernels, dynamics
from percwalk.dynamics import (
    PercolationRun,
    build_step_channel,
    evolve_channel,
    monte_carlo_channel,
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
    cached_propagator,
    channel_graphs,
    expm_channel_gram,
    expm_stochastic,
    expm_unitary,
    force_mask_cache,
    force_taylor,
    keep_bits3,
    reference_automorphisms,
    reference_group_sum,
    reference_laplacian,
    reference_norms,
    reference_orbit_representatives,
    reference_taylor_ensemble,
    reference_trajectory,
    slot_table,
    slot_weights,
    traced_peak,
    truncated_series,
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

    def test_graph_without_edges_keeps_its_state(self):
        # one mask, which keeps no edge, so the planner prices the cache with 2^0 masks
        g, run = make_lattice2d(1, 1), PercolationRun(lam=0.5, tau=0.1, steps=5)
        assert np.all(run_trajectory(g, run, np.ones(1)).states == 1.0)
        assert np.all(monte_carlo_channel(g, run, basis_density(1, 0), 2).densities == 1.0)

    def test_mask_keys_are_packed_per_block(self):
        # ring4-longtime's 60 000-step trajectory at stride 100: the output takes 38 kB and
        # one block's int64 keys 131 kB, where keys for the whole run would take 1.92 MB
        g, steps = make_ring(4), 60_000
        bits = sample_keep_bits(g, 0.2, rng_from_seed(7), steps)
        rec = np.arange(0, steps + 1, 100, dtype=np.int64)
        (_, _, propagator), peak = traced_peak(lambda: _kernels.trajectory_states(
            g.edge_array, 4, 100 / steps, bits, rec, basis_state(4, 0)))
        assert propagator == "mask-cache(chunk=16)"
        assert peak <= 1.5e6

    def test_every_step_moving_stays_within_the_block_rule(self):
        # at lambda = 1 every step keeps an edge, so each block fills its prefix stack: a block of
        # ring:4's quantum trajectory (m = 8 real dimensions, chunks of 16) is as many steps as make a
        # 4 BLOCK_BYTES stack, and it holds its states and its norm buffer (half of BLOCK_BYTES) besides;
        # two BLOCK_BYTES more cover the chunk products (a sixteenth of the stack), the block's int64 keys
        # and per-step rows, its lists of state views and bound dots, and the records (1.64 MB in all)
        g, steps, n, m, chunk = make_ring(4), 60_000, 4, 8, 16
        bits = sample_keep_bits(g, 1.0, rng_from_seed(7), steps)
        rec = np.arange(0, steps + 1, 100, dtype=np.int64)
        (_, _, propagator), peak = traced_peak(lambda: _kernels.trajectory_states(
            g.edge_array, n, 100 / steps, bits, rec, basis_state(n, 0)))
        assert propagator == f"mask-cache(chunk={chunk})"
        block = 4 * _kernels.BLOCK_BYTES // (8 * m * m * chunk) * chunk
        stack = block * m * m * 8
        states, norms = (block + 1) * n * 16, min(block, _kernels.BLOCK_BYTES // (32 * n)) * n * 16
        assert stack == 4 * _kernels.BLOCK_BYTES and norms == _kernels.BLOCK_BYTES // 2
        assert peak <= stack + states + norms + 2 * _kernels.BLOCK_BYTES


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
    def test_rule_takes_the_measured_side(self, monkeypatch, graph, quantum, chunk):
        force_mask_cache(monkeypatch)  # 3 steps alone take the Taylor matrix
        run = PercolationRun(lam=0.5, tau=0.1, steps=3)
        n = graph.node_count
        rec = (run_trajectory(graph, run, basis_state(n, 0)) if quantum
               else run_classical_trajectory(graph, run, np.eye(n)[0]))
        assert rec.propagator == f"mask-cache(chunk={chunk})"

    @pytest.mark.parametrize("quantum,bound", [(True, 2e-13), (False, 2e-14)])
    def test_within_round_off_of_a_matvec_per_step(self, monkeypatch, quantum, bound):
        # ring4-longtime's trajectory: 60 000 steps at tau = 1/600. One matvec per step (the
        # loop before prefix products) on the same cached propagators, without renormalization,
        # summed in long double: in float64 that loop is itself 2.9e-14 off on the classical walk
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
        # the real-form propagators act on the float64 view of a state
        cache, x, want = {}, x0.astype(states.dtype).view(np.float64).astype(np.longdouble), []
        for s, key in enumerate(_kernels._mask_keys(bits).tolist(), start=1):
            u = cache.get(key)
            if u is None:
                u = cache[key] = cached_propagator(g.edge_array, n, bits[s - 1], z).astype(np.longdouble)
            x = u @ x
            if s % 100 == 0:
                want.append(x)
        assert np.max(np.abs(states[1:].view(np.float64) - np.array(want))) <= bound
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
    """Within it, ``_kernels.step_plan`` sends every trajectory to the Taylor matrix (True) or the action."""
    with pytest.MonkeyPatch.context() as m:
        force_taylor(m, matrix)
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
        route = _kernels.step_plan(g.edge_array, n, tau, self.STEPS, True, n_traj)
        sum_outer, _, drift, name = _kernels.ensemble_quantum(
            g.edge_array, n, tau, bits3, rec, np.tile(psi0, (n_traj, 1)))
        assert name == route.name and drift <= 1e-12
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


class TestGatherApply:
    """The ensemble's Taylor action applies each column's Laplacian through the padded neighbour slots."""

    GRAPHS = [
        make_ring(9),
        make_lattice2d(4, 3),
        make_complete(8),
        Graph(node_count=6, edges=((0, 1), (1, 2), (2, 0), (3, 4))),  # node 5 is isolated
        Graph(node_count=4, edges=()),
    ]
    IDS = ["ring9", "lattice4x3", "complete8", "isolated-node", "no-edges"]

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_neighbour_table(self, g):
        n, count = g.node_count, g.edge_count
        nbr, eid = _kernels._neighbours(g.edge_array, n)
        assert nbr.shape == eid.shape == (max(g.degrees()), n)
        for i in range(n):
            ids = [e for e in eid[:, i].tolist() if e < count]
            want = [e for e, edge in enumerate(g.edges) if i in edge]
            assert ids == want  # each node's edges, in ascending order
            assert [set(g.edges[e]) - {i} for e in ids] == [{j} for j in nbr[:len(ids), i].tolist()]
            # the padded slots point at the node itself and at the zero-weight edge E
            assert (nbr[len(ids):, i] == i).all() and (eid[len(ids):, i] == count).all()

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    @pytest.mark.parametrize("quantum", [True, False])
    def test_matches_the_dense_laplacian(self, g, quantum):
        n, count, columns = g.node_count, g.edge_count, 6
        rng = rng_from_seed(8)
        bits = (rng.random((columns, count)) < 0.6).astype(np.uint8)
        bits[-1] = 0  # a column that keeps no edge: H = 0, so its y must be exactly 0
        scale = -0.3j if quantum else -0.3
        x = rng.normal(size=(n, columns)) + (1j * rng.normal(size=(n, columns)) if quantum else 0.0)
        w = slot_weights(g.edge_array, n, bits, scale)
        y = np.empty_like(x)
        _kernels._gather_apply(slot_table(g.edge_array, n), w, np.empty_like(w), x, y)
        for j in range(columns):
            want = scale * (_kernels.hamiltonian_from_bits(g.edge_array, bits[j], n) @ x[:, j])
            assert np.max(np.abs(y[:, j] - want)) <= 1e-15 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("quantum", [True, False])
    def test_ensemble_with_a_narrow_last_column_block(self, monkeypatch, quantum):
        # 7 columns in blocks of 3, 3 and 1 (quantum) or 6 and 1 (classical): every column's states
        # match its own trajectory on the Taylor action, which applies dense Laplacians
        g, n, columns, steps, tau = make_lattice2d(4, 3), 12, 7, 25, 0.3  # 17 edges, beyond the cache
        order = _kernels.taylor_plan(g.edge_array, n, tau)[1]
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 3 * 16 * max((order + 1) * n, 4 * n))
        force_taylor(monkeypatch, False)
        bits3 = np.stack([sample_keep_bits(g, 0.5, rng_from_seed(6, k), steps) for k in range(columns)])
        rec = np.arange(steps + 1)
        z = -1j * tau if quantum else -tau
        x0 = rng_from_seed(7).random((n, columns)) + (1j if quantum else 0.0)
        x0 /= reference_norms(x0, axis=0)
        states, blocks = np.empty((steps + 1, n, columns), dtype=x0.dtype), []

        def record(k, xs):  # each column block records its steps in order, from step 0
            if k.start == 0:
                blocks.append(xs.shape[2])
            c0 = sum(blocks[:-1])
            states[k, :, c0:c0 + xs.shape[2]] = xs

        _kernels._ensemble(g.edge_array, n, z, bits3, rec, x0, record)
        assert blocks == ([3, 3, 1] if quantum else [6, 1])
        for j in range(columns):
            want, _, name = _kernels._trajectory(g.edge_array, n, z, bits3[j], rec, x0[:, j])
            assert name.startswith("taylor(")
            assert np.max(np.abs(states[:, :, j] - want)) <= 1e-14


def _path_on_300_nodes(tmp_path, edge_count):
    """A path graph of ``edge_count`` edges on 300 nodes, read from an edge file."""
    write_edge_file(Graph(node_count=300, edges=tuple((i, i + 1) for i in range(edge_count))),
                    tmp_path / "path.edges")
    return graph_from_spec(f"file:{tmp_path / 'path.edges'}")


class TestPropagatorRule:
    """``step_plan`` forms the Taylor polynomial on small graphs and applies it on large ones."""

    @pytest.mark.parametrize("graph,tau,name", [
        (make_complete(15), 1e-4, "taylor-matrix(substeps=1, order=5)"),
        (make_complete(9), 0.7, "taylor-matrix(substeps=12, order=17)"),
        (make_lattice2d(10, 10), 1e-4, "taylor(substeps=1, order=4)"),
        (None, 1e-4, "taylor(substeps=1, order=4)"),  # 20 edges on 300 nodes, from a file
        # with substeps the matrix's products are shared by more calls: 1000 steps of lambda = 0.4,
        # one BLAS thread, best of 9, ms quantum / classical on the matrix against the action:
        # 32.4 / 25.1 against 39.3 / 29.9 (ring:25) and 42.7 / 35.3 against 81.9 / 62.3 (ring:32)
        (make_ring(25), 0.4, "taylor-matrix(substeps=2, order=16)"),
        (make_ring(32), 0.9, "taylor-matrix(substeps=4, order=17)"),
    ])
    def test_rule_picks_the_path(self, tmp_path, graph, tau, name):
        if graph is None:
            graph = _path_on_300_nodes(tmp_path, 20)
        run = PercolationRun(lam=0.5, tau=tau, steps=3)
        assert run_trajectory(graph, run, basis_state(graph.node_count, 0)).propagator == name
        p0 = np.eye(graph.node_count)[0]
        assert run_classical_trajectory(graph, run, p0).propagator == name

    # a path of 16 edges fits the mask cache, but each of its masks costs 13 products of 300 x 300
    # matrices: the action ran 25-34x (quantum) and 42-59x (classical) faster, 15-23x and 240-365x
    # for 4-trajectory ensembles. ring:4 at tau = 32 plans 128 Taylor substeps per step and keeps
    # the cache
    @pytest.mark.parametrize("graph,tau,name", [
        (16, 0.1, "taylor(substeps=1, order=13)"),
        (make_ring(4), 32.0, "mask-cache"),
    ])
    def test_mask_builds_are_priced(self, tmp_path, graph, tau, name):
        if isinstance(graph, int):
            graph = _path_on_300_nodes(tmp_path, graph)
        n = graph.node_count
        run = PercolationRun(lam=0.5, tau=tau, steps=20)
        p0 = np.eye(n)[0]
        *_, classical = _kernels.ensemble_classical(graph.edge_array, n, tau, keep_bits3(graph, run, 4),
                                                    np.arange(run.steps + 1), p0)
        walks = [run_trajectory(graph, run, basis_state(n, 0)), run_classical_trajectory(graph, run, p0),
                 monte_carlo_channel(graph, run, basis_density(n, 0), 4)]
        routes = [rec.propagator for rec in walks] + [classical]
        assert all(route.split("(chunk=")[0] == name for route in routes)

    def test_mask_builds_are_priced_as_calls_on_small_graphs(self):
        # at tau = 0.1, in process, one BLAS thread, best of 90, ms on the cache against the Taylor
        # matrix (quantum, classical): runs whose masks are mostly new pay the cache's store and
        # matvec calls and its prefix products, ring:4 at 20 steps (0.277/0.263, 0.283/0.221) and
        # ring:12 at 50 (0.457/0.414, 0.405/0.372); the classical ring:12 over 500 steps meets
        # about 470 masks (2.29/2.32)
        for g, steps, quantum, name in [
            (make_ring(4), 20, True, "taylor-matrix(substeps=1, order=13)"),
            (make_ring(4), 20, False, "taylor-matrix(substeps=1, order=13)"),
            (make_ring(12), 50, True, "taylor-matrix(substeps=1, order=13)"),
            (make_ring(12), 50, False, "taylor-matrix(substeps=1, order=13)"),
            (make_ring(12), 500, False, "mask-cache(chunk=1)"),
        ]:
            run, n = PercolationRun(lam=0.5, tau=0.1, steps=steps), g.node_count
            if quantum:
                assert run_trajectory(g, run, basis_state(n, 0)).propagator == name
            else:
                assert run_classical_trajectory(g, run, np.eye(n)[0]).propagator == name

    def test_one_column_ensembles_are_priced_as_ensembles(self, monkeypatch):
        # an ensemble of one column runs the mask cache or the neighbour-slot action, not the Taylor
        # matrix of a trajectory: on classical ring:12 (50 steps of tau = 0.1) the cache, which the
        # price of a trajectory turned down for the action
        g, steps = make_ring(12), 50
        bits3 = sample_keep_bits(g, 0.5, rng_from_seed(3), steps)[None]
        *_, name = _kernels.ensemble_classical(g.edge_array, 12, 0.1, bits3, np.arange(steps + 1), np.eye(12)[0])
        assert name == "mask-cache"
        # quantum Monte Carlo chunks of 2 and 1 trajectories, where a trajectory takes the Taylor matrix
        monkeypatch.setattr(dynamics, "ENSEMBLE_CHUNK_BYTES", 2 * steps * g.edge_count)
        rec = monte_carlo_channel(g, PercolationRun(lam=0.5, tau=0.1, steps=steps), basis_density(12, 0), 3)
        assert rec.propagator == "mask-cache"

    # every step_plan call of the benchmark workloads (perfbench/workloads.py) and of their tiny
    # warm-ups, with the routes that they took when the ensemble action went through the dense
    # incidence; ring15-channel runs the exact channel, which plans no step route
    @pytest.mark.parametrize("graph,tau,steps,quantum,columns,name", [
        (make_complete(15), 1e-4, 2000, True, None, "taylor-matrix(substeps=1, order=5)"),
        (make_complete(15), 1e-4, 2000, False, None, "taylor-matrix(substeps=1, order=5)"),
        (make_complete(15), 1e-4, 300, True, None, "taylor-matrix(substeps=1, order=5)"),
        (make_complete(15), 1e-4, 300, False, None, "taylor-matrix(substeps=1, order=5)"),
        (make_lattice2d(10, 10), 1e-3, 30, True, 16, "taylor(substeps=1, order=6)"),
        (make_lattice2d(10, 10), 1e-3, 10, True, 16, "taylor(substeps=1, order=6)"),
        (make_ring(4), 100 / 60_000, 60_000, True, None, "mask-cache(chunk=16)"),
        (make_ring(4), 100 / 3000, 3000, True, None, "mask-cache(chunk=16)"),
    ])
    def test_benchmark_workloads_keep_their_routes(self, graph, tau, steps, quantum, columns, name):
        assert _kernels.step_plan(graph.edge_array, graph.node_count, tau, steps, quantum, columns).name == name

    def test_a_kernel_call_plans_once(self, monkeypatch):
        # a mask-cache run plans its route with one taylor_plan and one _squaring_plan (two more);
        # the kernel runs that route, and run_trajectory plans once more before drawing keep bits
        calls, plan = [], _kernels.taylor_plan
        monkeypatch.setattr(_kernels, "taylor_plan", lambda *args: calls.append(args) or plan(*args))
        g, run = make_ring(4), PercolationRun(lam=0.2, tau=0.1, steps=1000)
        bits = sample_keep_bits(g, run.lam, rng_from_seed(3), run.steps)
        *_, name = _kernels.trajectory_states(g.edge_array, 4, run.tau, bits, np.arange(run.steps + 1),
                                              basis_state(4, 0))
        assert name == "mask-cache(chunk=16)" and len(calls) <= 3
        calls.clear()
        assert run_trajectory(g, run, basis_state(4, 0)).propagator == name
        assert len(calls) <= 6

    @pytest.mark.parametrize("quantum", [True, False])
    @pytest.mark.parametrize("tau,steps", [
        (100 / 60_000, 60_000),  # ring4-longtime's trajectory: 16 masks over 60 000 steps
        (32.0, 20),  # 128 Taylor substeps per step
        (0.1, 100),  # 0.30 ms on the cache against 0.42 ms on the Taylor matrix (quantum)
        (32.0, 200_000),  # 2.56e7 Taylor substeps in all, above the limit, on 16 masks
    ])
    def test_repeated_masks_keep_the_cache(self, quantum, tau, steps):
        g = make_ring(4)
        assert _kernels.step_plan(g.edge_array, 4, tau, steps, quantum).kind == "mask-cache"


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
            force_taylor(monkeypatch, False)
        if name == "mask-cache":  # the shortest runs take the Taylor matrix
            force_mask_cache(monkeypatch)
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

    @pytest.mark.parametrize("shape", [(7, 15, 1), (10, 100, 16), (3, 4, 5)])
    @pytest.mark.parametrize("room", [1, 2, 3, 1000])  # steps that fit in the buffer
    def test_norms_are_numpys(self, shape, room):
        # the drift's norms take np.linalg.norm's ufunc steps in a buffer held for the call
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x[0, 1, 0] = np.nan
        got = _kernels._norms(x, np.empty(room * shape[1] * shape[2] + 1, dtype=complex))
        assert np.array_equal(got, np.linalg.norm(x, axis=1), equal_nan=True)
        assert np.array_equal(_kernels._norms(x.real, None), x.real.sum(axis=1), equal_nan=True)

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


class TestIdleSteps:
    """Mask-cache trajectories skip the steps that keep no edge (U = I) and repeat the state there.

    Each case runs both walks against the per-step reference loop, which
    applies the same chunk schedule over the moving steps: equal bits.
    """

    @staticmethod
    def _bits(g, lam, steps, idle=()):
        bits = sample_keep_bits(g, lam, rng_from_seed(23), steps)
        bits[list(idle)] = 0  # row s - 1 holds the keep bits of step s
        return bits

    def _check(self, monkeypatch, g, bits, rec, renorm=RENORM, psi0=None):
        monkeypatch.setattr(_kernels, "RENORM_EVERY", renorm[0])
        monkeypatch.setattr(_kernels, "RENORM_TOL", renorm[1])
        n = g.node_count
        psi0 = np.full(n, n**-0.5) if psi0 is None else psi0
        args = (g.edge_array, n, 0.1, bits, rec)

        def runs():
            return (_kernels.trajectory_states(*args, psi0), _kernels.classical_trajectory(*args, np.eye(n)[1]))

        got = runs()
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_trajectory", _with_policy(reference_trajectory))
            want = runs()
        for (states, drift, name), (ref_states, ref_drift, ref_name), m in zip(got, want, (2 * n, n)):
            assert name == ref_name == f"mask-cache(chunk={_kernels._mask_chunk(m)})"
            assert np.array_equal(states, ref_states)
            assert drift == ref_drift
        return got

    def test_lambda_zero_builds_nothing_and_keeps_the_start(self, monkeypatch):
        def no_builds(*args, **kwargs):
            raise AssertionError("a propagator was built for a run that keeps no edge")

        monkeypatch.setattr(_kernels, "_cache_propagators", no_builds)
        g, steps = make_ring(4), 300
        rec = np.arange(0, steps + 1, 7)
        (psi, psi_drift, _), (p, p_drift, _) = self._check(monkeypatch, g, self._bits(g, 0.0, steps), rec)
        assert np.array_equal(psi, np.tile(np.full(4, 0.5, dtype=complex), (rec.size, 1)))
        assert np.array_equal(p, np.tile(np.eye(4)[1], (rec.size, 1)))
        assert psi_drift == p_drift == 0.0

    def test_lambda_one_moves_every_step(self):
        g, steps = make_ring(4), 300
        bits = self._bits(g, 1.0, steps)
        assert bits.all()
        with pytest.MonkeyPatch.context() as m:
            self._check(m, g, bits, np.arange(0, steps + 1, 7))

    def test_leading_idle_steps_keep_the_start(self, monkeypatch):
        g, steps = make_ring(4), 300
        rec = np.arange(0, steps + 1, 7)
        (psi, _, _), (p, _, _) = self._check(monkeypatch, g, self._bits(g, 0.5, steps, range(40)), rec)
        assert np.array_equal(psi[rec <= 40], np.tile(np.full(4, 0.5, dtype=complex), (6, 1)))
        assert not np.array_equal(psi[6], psi[0])
        assert np.array_equal(p[rec <= 40], np.tile(np.eye(4)[1], (6, 1)))

    @pytest.mark.parametrize("g", [make_ring(4), make_ring(6)], ids=["chunks", "one-matvec-per-step"])
    def test_records_and_renormalizations_on_idle_steps(self, monkeypatch, g):
        # quantum ring:6 steps one matvec at a time (L = 1); a renormalization every 37 steps,
        # at steps 37, 74, ... made idle, and records at multiples of 37 and their idle neighbours
        steps = 300
        idle = [s - 1 for k in range(37, steps + 1, 37) for s in (k, k + 1)]
        rec = np.unique(np.r_[0, np.arange(37, steps, 37), np.arange(38, steps, 37), steps])
        (psi, _, _), _ = self._check(monkeypatch, g, self._bits(g, 0.4, steps, idle), rec, (37, 0.0))
        pairs = psi[1:-1].reshape(-1, 2, g.node_count)  # the records of steps 37k and 37k + 1
        assert np.array_equal(pairs[:, 0], pairs[:, 1])
        assert np.max(np.abs(np.linalg.norm(pairs[:, 0], axis=1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_a_renormalized_block_end_reaches_only_its_own_record(self, monkeypatch, seed):
        # steps 40k - 2 to 40k are idle, so the renormalization at 40k falls on a state that steps
        # 40k - 3 to 40k share; every step is recorded, and only step 40k's record is renormalized
        g, steps = make_ring(4), 300
        idle = [s - 1 for k in range(40, steps + 1, 40) for s in range(k - 2, k + 1)]
        rng = rng_from_seed(31, seed)
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        self._check(monkeypatch, g, self._bits(g, 0.4, steps, idle), np.arange(steps + 1), (40, 0.0), psi0)


def _channel_tau(g, x):
    """The tau at which 2 * tau * maxdeg = x, so x > 1 needs squarings."""
    return x / (2.0 * max(g.degrees()))


def _phi_layout(k, n):
    """Phi[(i, k), (j, l)] = K[(i, j), (k, l)] for the Gram K of ``expm_channel_gram``."""
    return k.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _check_channel_against_expm(g, lam, x):
    tau = _channel_tau(g, x)
    phi, name, sym, orbits = _kernels.channel_accumulate(g.edge_array, g.node_count, lam, tau)
    substeps, _ = _kernels.taylor_plan(g.edge_array, g.node_count, tau)
    assert name.startswith(f"taylor(substeps={1 << (substeps - 1).bit_length()}, ")
    symmetries = sym.perms.shape[0]
    assert 1 <= orbits <= 1 << g.edge_count and symmetries >= 1
    assert np.array_equal(sym.perms[0], np.arange(g.node_count))
    want = _phi_layout(expm_channel_gram(g.node_count, g.edges, lam, tau), g.node_count)
    assert np.max(np.abs(phi - want)) <= 1e-13
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
        # a batch's rows are sized so that 2 rows x (n(n+1)/2 + 1) float64 take half a block; its Gram rows of the
        # pairs i < j are narrower
        bound = max(1, min(_kernels.CHANNEL_BATCH, _kernels.BLOCK_BYTES // (16 * (n * n + n + 2))))
        assert bound < _kernels.CHANNEL_BATCH  # 67 rows on ring:15, 178 on lattice2d:3x3
        assert max(rows) == bound and sum(rows) == built

    def test_peak_memory_stays_below_twice_phi(self):
        # glibc trims the heap's free top once it exceeds twice the largest block released, here
        # Phi: a call whose temporaries reached that would fault its pages in again at every call
        g = make_ring(15)
        (phi, *_), peak = traced_peak(lambda: _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004))
        assert peak <= 2 * phi.nbytes

    def test_three_row_batches_give_the_same_channel(self):
        g = make_ring(15)
        k, name, sym, orbits = _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "BLOCK_BYTES", 3 * 16 * (15 * 15 + 15 + 2))
            k3, name3, sym3, orbits3 = _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004)
        assert (sym.perms.shape[0], orbits) == (sym3.perms.shape[0], orbits3) == (30, 1224)
        assert name3 == name and np.array_equal(sym3.perms, sym.perms)
        assert np.max(np.abs(k3 - k)) <= 1e-15

    @pytest.mark.parametrize("x,order", [(1e-6, 2), (1e-5, 3), (1e-4, 3)])
    def test_short_steps_match_expm_reference(self, x, order):
        # below the range drawn above the plan keeps only 2 or 3 Taylor terms
        g = make_lattice2d(2, 3)
        tau = _channel_tau(g, x)
        phi, name, _, _ = _kernels.channel_accumulate(g.edge_array, g.node_count, 0.5, tau)
        assert name == f"taylor(substeps=1, order={order})"
        want = _phi_layout(expm_channel_gram(g.node_count, g.edges, 0.5, tau), g.node_count)
        assert np.max(np.abs(phi - want)) <= 1e-13

    @pytest.mark.parametrize("g,lam,tau", [
        (make_lattice2d(3, 3), 0.5, 0.2), (make_complete(5), 0.5, 0.2), (make_ring(15), 0.4, 0.004),
    ])
    def test_channel_is_exactly_hermiticity_preserving(self, g, lam, tau):
        # Phi[i, j] = conj(Phi[S i, S j]) bit for bit for the swap S(a + n b) = b + n a: the entries
        # between two diagonal pairs, whose terms add up in another order at (b, a), are conjugates
        n = g.node_count
        phi = build_step_channel(g, lam, tau).matrix
        swap = np.arange(n * n).reshape(n, n).T.ravel()
        assert np.array_equal(phi, phi[np.ix_(swap, swap)].conj())

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
        # every U_r maps the all-ones vector to itself (H_r 1 = 0), so Phi(J) = J for J = 1 1^T
        ones = np.ones((n, n))
        assert np.max(np.abs(apply_channel(phi, ones) - ones)) <= 1e-13


def _edge_set(edges):
    return {frozenset(e) for e in np.asarray(edges).tolist()}


# 11 and 12 straddle the order 12 of a 6-ring; 10**6 is above every group here
AUTOMORPHISM_LIMITS = [1, 3, 11, 12, 10**6]

# the outer 5-cycle, the spokes and the inner pentagram; its group is S5 acting on 2-subsets
PETERSEN = Graph(node_count=10, edges=tuple([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))


class TestGroupSum:
    """The Gram's sum over G by cosets of <sigma> and doubling, against the sum over every element."""

    @pytest.mark.parametrize("g,order,cosets", [
        (make_complete(4), 24, 6),  # S4, sigma of order 4
        # S5, sigma of order 6: here a transversal of the left cosets h<sigma> is not one of the
        # right cosets <sigma>h, and summing over it is wrong
        (make_complete(5), 120, 20),
        (make_lattice2d(3, 3), 8, 2),  # D4
        (make_ring(6), 12, 2),  # D6
        (make_ring(15), 30, 2),  # D15
        (Graph(node_count=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5))), 1, 1),
    ], ids=["complete4", "complete5", "lattice3x3", "ring6", "ring15", "asymmetric"])
    def test_matches_the_per_element_sum(self, monkeypatch, g, order, cosets):
        # CHANNEL_BATCH = 1 lets the cost rule accept each of these groups
        monkeypatch.setattr(_kernels, "CHANNEL_BATCH", 1)
        edges, n = g.edge_array, g.node_count
        tau = _channel_tau(g, 0.7)
        phi, name, sym, orbits = _kernels.channel_accumulate(edges, n, 0.35, tau)
        assert sym.perms.shape[0] == order and sym.cosets.shape[0] == cosets
        assert order // sym.powers.shape[0] == cosets
        monkeypatch.setattr(_kernels, "_group_sum", lambda gram, sym, pair: reference_group_sum(gram, sym.perms, pair))
        want, want_name, want_sym, want_orbits = _kernels.channel_accumulate(edges, n, 0.35, tau)
        assert (name, orbits) == (want_name, want_orbits) and np.array_equal(sym.perms, want_sym.perms)
        assert np.max(np.abs(phi - want)) <= 1e-15

    @pytest.mark.parametrize("g", [
        make_complete(4), make_complete(5), make_lattice2d(3, 3), make_lattice2d(3, 4), make_ring(6),
        make_ring(15), Graph(node_count=3, edges=((0, 1), (1, 2))), Graph(node_count=1, edges=()),
        # two triangles and an edge: sigma of order 6 is no rotation of one component
        Graph(node_count=8, edges=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7))),
    ])
    def test_record_matches_the_element_by_element_split(self, g):
        perms = _kernels._automorphisms(g.edge_array, g.node_count, 10**6)
        sym = _kernels._symmetry(perms)
        identity = np.arange(g.node_count)
        orders = []
        for p in perms:  # the order of each element, one power at a time
            power, k = p, 1
            while not np.array_equal(power, identity):
                power, k = p[power], k + 1
            orders.append(k)
        assert np.array_equal(sym.perms, perms)
        assert np.array_equal(sym.sigma, perms[orders.index(max(orders))])  # the first of largest order
        powers = [identity]
        for _ in range(1, max(orders)):
            powers.append(sym.sigma[powers[-1]])
        assert np.array_equal(sym.powers, np.array(powers))
        # each right coset <sigma> h by its first row in perms, in the order of perms
        seen, cosets = set(), []
        for h in perms:
            if h.tobytes() not in seen:
                cosets.append(h)
                seen.update(p[h].tobytes() for p in powers)
        assert np.array_equal(sym.cosets, np.array(cosets))

    def test_rotation_is_the_channels(self):
        # the build sums over the cosets of the sigma that the channel reports as its rotation
        g = make_ring(15)
        phi = build_step_channel(g, 0.4, 0.004)
        perms = _kernels._automorphisms(g.edge_array, 15, 10**6)
        assert np.array_equal(phi.rotation, _kernels._symmetry(perms).sigma)


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
        # vertex-transitive, and the stabilizer of a node moves its three neighbours: orbits of 10,
        # 3, 2 and 2 nodes along the chain
        (PETERSEN, 120),
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

    def test_limit_is_checked_against_the_transversal_sizes(self):
        # |S_7| = 5040 = 7 * 6 * 5 * 4 * 3 * 2: one limit below it refuses, at it every row comes back
        g = make_complete(7)
        assert np.array_equal(_kernels._automorphisms(g.edge_array, 7, 5039), np.arange(7)[None])
        perms = _kernels._automorphisms(g.edge_array, 7, 5040)
        assert perms.shape == (5040, 7)
        assert np.array_equal(perms, reference_automorphisms(g.edge_array, 7, 5040))

    @HYPOTHESIS
    @given(g=channel_graphs())
    def test_random_graphs_match_the_reference_search(self, g):
        # same rows in the same order, so the rotation and the channel blocks do not move
        for limit in AUTOMORPHISM_LIMITS:
            assert np.array_equal(_kernels._automorphisms(g.edge_array, g.node_count, limit),
                                  reference_automorphisms(g.edge_array, g.node_count, limit))

    @HYPOTHESIS
    @given(base=st.sampled_from([make_ring(7), make_ring(12), make_complete(5), make_lattice2d(3, 3),
                                 make_lattice2d(2, 4), PETERSEN,
                                 Graph(node_count=8, edges=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)))]),
           isolated=st.integers(0, 3), data=st.data())
    def test_relabeled_symmetric_graphs_match_the_reference_search(self, base, isolated, data):
        # large orbits under any node order: the closure reaches most images without a search, and the
        # transversal elements it composes must give the same group, rows and order as a full backtrack
        n = base.node_count + isolated
        p = np.array(data.draw(st.permutations(range(n))))
        edges = p[base.edge_array]
        for limit in AUTOMORPHISM_LIMITS:
            assert np.array_equal(_kernels._automorphisms(edges, n, limit), reference_automorphisms(edges, n, limit))


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
        k_orbit, name, sym, orbits = _kernels.channel_accumulate(edges, n, lam, tau)
        assert (sym.perms.shape[0], orbits) == {15: (30, 1224), 9: (8, 570)}[n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_automorphisms", lambda edges, n, limit: np.arange(n)[None])
            k_mask, name_mask, one, built = _kernels.channel_accumulate(edges, n, lam, tau)
        assert (name_mask, one.perms.shape[0], built) == (name, 1, 1 << g.edge_count)
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
    """The float32 orbit scan and the real pair Gram of the exact channel."""

    @pytest.mark.parametrize("g,group,lam", [
        (make_ring(15), "full", 0.4),  # |G| = 30
        (make_ring(15), "full", 0.0),  # only the empty mask has weight
        (make_lattice2d(3, 4), "full", 0.7),  # |G| = 4: three non-identity elements to compare with
        (make_complete(5), "full", 0.4),  # |G| = 120
        (make_lattice2d(2, 3), "full", 0.4),  # |G| = 4
        (Graph(node_count=3, edges=((0, 1), (1, 2))), "full", 0.4),  # a path, |G| = 2
        (make_ring(15), "identity", 0.4),  # nothing to compare with: every mask represents itself
        (make_ring(15), "full", 1.0),  # only the full mask has weight
    ])
    def test_matches_a_float64_scan_of_every_mask(self, monkeypatch, g, group, lam):
        edges, n = g.edge_array, g.node_count
        perms = _kernels._automorphisms(edges, n, 10**6) if group == "full" else np.arange(n)[None]
        masks, stab = _kernels._orbit_representatives(edges, perms)
        want_masks, want_weights = reference_orbit_representatives(edges, perms, lam)
        assert masks.dtype == np.int64 and stab.shape == masks.shape
        assert np.array_equal(masks[np.isin(masks, want_masks)], want_masks)
        # the weights that channel_accumulate forms from this scan, taken from its Gram rows
        weights, scan, gram_rows = [], _kernels._orbit_representatives, _kernels._gram_rows
        monkeypatch.setattr(_kernels, "_orbit_representatives", lambda edges, _: scan(edges, perms))
        monkeypatch.setattr(_kernels, "_gram_rows", lambda e, s, w, upper: weights.append(w) or gram_rows(e, s, w, upper))
        _, _, _, orbits = _kernels.channel_accumulate(edges, n, lam, 0.1)
        assert orbits == want_masks.size == (1 if lam in (0.0, 1.0) else masks.size)
        assert np.array_equal(np.concatenate(weights), want_weights)

    # ring15-channel's step, and one that needs a squaring
    @pytest.mark.parametrize("tau,lam", [(0.004, 0.2), (0.004, 0.8), (0.3, 0.4)])
    def test_real_gram_equals_the_complex_one(self, tau, lam):
        g = make_ring(15)
        edges, n = g.edge_array, g.node_count
        substeps, _ = _kernels.taylor_plan(edges, n, tau)
        squarings = (substeps - 1).bit_length()
        _, order = _kernels.taylor_plan(edges, n, tau / 2**squarings)
        upper = (n * np.arange(n)[:, None] + np.arange(n))[np.triu_indices(n, 1)]  # the pairs i < j
        perms = _kernels._automorphisms(edges, n, 10**6)
        masks, all_weights = reference_orbit_representatives(edges, perms, lam)
        for b0 in range(0, masks.size, 67):  # ring:15's batches
            bits, weights = _kernels._mask_bits(masks[b0:b0 + 67], g.edge_count), all_weights[b0:b0 + 67]
            e, s = _kernels._cos_sin(_kernels.laplacians(edges, n, bits, tau / 2**squarings), order, squarings)
            rows = bits.shape[0]
            xy = _kernels._gram_rows(e, s, weights, upper)
            # w = sqrt(weight) (conj(D) on the pairs i < j, then 1), D = U - I = e - i s
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
        m = cached_propagator(g.edge_array, g.node_count, bits, -tau)
        assert np.max(np.abs(m - m.T)) <= 1e-15
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-13
        assert m.min() >= 0.0

    @pytest.mark.parametrize("graph", [make_ring(4), make_ring(12)], ids=["ring4", "ring12"])
    @pytest.mark.parametrize("quantum", [True, False])
    def test_batched_build_equals_one_row_builds(self, graph, quantum):
        # the mask cache builds the new masks of a block in batches; the reference loops build one
        edges, n = graph.edge_array, graph.node_count
        bits = sample_keep_bits(graph, 0.5, rng_from_seed(8), 300)
        z = -1j * 0.3 if quantum else -0.3
        m = 2 * n if quantum else n
        batch = np.empty((bits.shape[0], m, m))
        _kernels._cache_propagators(edges, n, bits, z, _kernels._squaring_plan(edges, n, 0.3),
                                    _kernels._taylor_work(n, bits.shape[0]), batch)
        for row, u in zip(bits, batch):
            assert np.array_equal(u, cached_propagator(edges, n, row, z))

    @pytest.mark.parametrize("graph", [make_ring(4), make_complete(4), make_ring(12)],
                             ids=["ring4", "complete4", "ring12"])
    @pytest.mark.parametrize("tau", [1 / 600, 0.1, 1.0, 32.0])
    @pytest.mark.parametrize("quantum", [True, False])
    def test_matches_expm(self, graph, tau, quantum):
        # a series summed with n x n products leaves about (order + 1) n 2^-53 per entry
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sections 3.5 and 5.1), and
        # each of the q squarings about doubles it: the cache's per-step error of 2^q 2^-53, times
        # (order + 1) n
        edges, n = graph.edge_array, graph.node_count
        squarings, order = _kernels._squaring_plan(edges, n, tau)
        bound = 2**squarings * (order + 1) * n * 2.0**-53
        z = -1j * tau if quantum else -tau
        for row in sample_keep_bits(graph, 0.5, rng_from_seed(9), 12):
            h = reference_laplacian(n, graph.edges, sum(1 << int(e) for e in np.flatnonzero(row)))
            u = cached_propagator(edges, n, row, z)
            if quantum:
                want = expm_unitary(h, tau)
                # entry (i, j) as the block [[Re, -Im], [Im, Re]] that acts on the float64 view
                want = np.kron(want.real, np.eye(2)) + np.kron(want.imag, [[0.0, -1.0], [1.0, 0.0]])
                assert np.max(np.abs(u.T @ u - np.eye(2 * n))) <= 2 * bound
            else:
                want = expm_stochastic(h, tau)
                assert np.max(np.abs(u.sum(axis=0) - 1.0)) <= bound
                assert u.min() >= 0.0
            assert np.max(np.abs(u - want)) <= bound


def _reference_block(g, bits, scale):
    """scale * the adjacency-table Laplacian of each row of ``bits``."""
    return np.array([scale * reference_laplacian(g.node_count, g.edges, sum(1 << int(k) for k in np.flatnonzero(row)))
                     for row in bits])


class TestLaplacianBlock:
    def test_block_rows_match_reference(self):
        g = make_lattice2d(4, 3)
        bits = sample_keep_bits(g, 0.5, rng_from_seed(2), 6)
        block = _kernels.laplacians(g.edge_array, g.node_count, bits, 0.7)
        for row, h in zip(bits, block):
            mask = sum(1 << int(k) for k in np.flatnonzero(row))
            assert np.allclose(h, 0.7 * reference_laplacian(g.node_count, g.edges, mask), atol=1e-15)

    # each degree is an exact integer times the scale, as in the reference: equal bits
    @pytest.mark.parametrize("g", [
        make_lattice2d(4, 3),
        make_complete(6),
        Graph(node_count=5, edges=((0, 1), (1, 2), (2, 0), (2, 3))),  # node 4 is isolated
        Graph(node_count=3, edges=()),
    ], ids=["lattice4x3", "complete6", "isolated-node", "no-edges"])
    @pytest.mark.parametrize("scale", [0.7, -0.3j, 1e-4])
    def test_rows_equal_the_adjacency_reference(self, g, scale):
        n = g.node_count
        bits = np.random.default_rng(5).integers(0, 2, (9, g.edge_count)).astype(np.uint8)
        bits[0] = 1  # every edge kept
        block = _kernels.laplacians(g.edge_array, n, bits, scale)
        assert block.shape == (9, n, n) and block.dtype == np.result_type(scale, np.float64)
        assert np.array_equal(block, _reference_block(g, bits, scale))
        given = _kernels.laplacians(g.edge_array, n, bits, scale, incidence=_kernels._incidence(g.edge_array, n))
        assert np.array_equal(given, block)

    @pytest.mark.parametrize("scale", [0.7, -0.3j])
    def test_out_buffer_reused_across_rows(self, scale):
        # each call writes only the edges and the diagonal of the buffer; the rows of the next
        # call keep other edges, and a shorter call reuses the first rows
        g = make_lattice2d(4, 3)
        n = g.node_count
        out = np.zeros((6, n, n), dtype=np.result_type(scale, np.float64))
        for seed, rows in [(1, 6), (2, 6), (3, 4), (4, 6)]:
            bits = sample_keep_bits(g, 0.5, rng_from_seed(seed), rows)
            got = _kernels.laplacians(g.edge_array, n, bits, scale, out[:rows])
            assert np.shares_memory(got, out)
            assert np.array_equal(got, _reference_block(g, bits, scale))

    @pytest.mark.parametrize("route,quantum", [
        ("channel", True), *itertools.product(["taylor-matrix", "mask-cache", "ensemble-mask-cache"], [True, False]),
    ])
    def test_one_incidence_per_kernel_call(self, monkeypatch, route, quantum):
        # every call below builds its Laplacians in several batches: 19 on ring:15's channel, 5 blocks
        # of complete:15's Taylor matrices and the new masks of many blocks of ring:8's mask cache
        made = []
        incidence = _kernels._incidence
        monkeypatch.setattr(_kernels, "_incidence", lambda edges, n: made.append(n) or incidence(edges, n))
        z = -1j * 0.01 if quantum else -0.01
        if route == "channel":
            g = make_ring(15)
            _kernels.channel_accumulate(g.edge_array, 15, 0.4, 0.004)
        elif route == "taylor-matrix":
            force_taylor(monkeypatch, matrix=True)
            g = make_complete(15)
            bits = sample_keep_bits(g, 0.3, rng_from_seed(1), 300)
            x0 = basis_state(15, 0) if quantum else np.eye(15)[0]
            assert _kernels._trajectory(g.edge_array, 15, z, bits, np.arange(0, 301, 100), x0)[2].startswith(route)
        else:
            g = make_ring(8)
            bits3 = np.stack([sample_keep_bits(g, 0.5, rng_from_seed(2, k), 200) for k in range(3)])
            x0 = basis_state(8, 0) if quantum else np.eye(8)[0]
            force_mask_cache(monkeypatch)
            monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1 << 12)  # blocks of a few steps, each with new masks
            if route == "mask-cache":
                got = _kernels._trajectory(g.edge_array, 8, z, bits3[0], np.arange(0, 201, 50), x0)[2]
            else:
                got = _kernels._ensemble(g.edge_array, 8, z, bits3, np.arange(0, 201, 50), np.tile(x0, (3, 1)).T,
                                         lambda k, xs: None)[1]
            assert got.startswith("mask-cache")
        assert made == [g.node_count]


class TestSeries:
    """The shared-powers series of both walks against eigh references of the same truncated series."""

    @pytest.mark.parametrize("squarings", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", range(1, 13))
    def test_matches_spectral_reference(self, order, squarings):
        # lattice2d:2x3 with every edge kept and three random realizations, at the norm that a
        # plan gives each term, ||a|| <= 2 maxdeg scale = 1
        g = make_lattice2d(2, 3)
        bits = np.vstack([np.ones((1, g.edge_count), dtype=np.uint8), sample_keep_bits(g, 0.5, rng_from_seed(6), 3)])
        a = _kernels.laplacians(g.edge_array, 6, bits, 1.0 / 6.0)
        w, q = np.linalg.eigh(a)

        def spectral(f):
            return (q * f[:, None, :]) @ q.transpose(0, 2, 1)

        e, s = _kernels._cos_sin(a, order, squarings)
        want_e, want_s = truncated_series(w, order, squarings, quantum=True)
        assert np.max(np.abs(e - spectral(want_e))) <= 4e-15
        assert np.max(np.abs(s - spectral(want_s))) <= 4e-15
        d = _kernels._exp_minus(a, order, squarings, np.empty((5,) + a.shape))
        assert np.max(np.abs(d - spectral(truncated_series(w, order, squarings, quantum=False)))) <= 4e-15

    @pytest.mark.parametrize("quantum", [True, False])
    def test_products_are_counted(self, monkeypatch, quantum):
        # the price's product count is the routine's: J + 1 quantum and J + 2 classical, 3 or 1 per squaring
        calls, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
        a = _kernels.laplacians(make_ring(5).edge_array, 5, np.ones((2, 5)), 0.1)
        for order in range(0, 13):
            for squarings in range(3):
                calls.clear()
                if quantum:
                    _kernels._cos_sin(a, order, squarings)
                else:
                    _kernels._exp_minus(a, order, squarings, np.empty((5,) + a.shape))
                assert len(calls) == _kernels._series_products(order, quantum) + (3 if quantum else 1) * squarings


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
