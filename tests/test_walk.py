import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percwalk import _kernels, walk
from percwalk.dynamics import recorded_steps
from percwalk.graph import Graph, graph_from_spec, make_complete, make_lattice2d, make_ring
from percwalk.walk import (
    DENSITY_ATOL,
    basis_density,
    basis_state,
    check_density_matrix,
    check_density_spectrum,
    check_distribution,
    check_quantum_state,
    classical_transition,
    full_hamiltonian,
    transition_probability,
)

from helpers import reference_laplacian


def _keep_bits(mask: int, edge_count: int) -> np.ndarray:
    """The keep-bit row of ``reference_laplacian``'s int mask: entry k is bit k."""
    return np.array([(mask >> k) & 1 for k in range(edge_count)], dtype=np.uint8)


def _laplacian(g, bits) -> np.ndarray:
    """Laplacian of the edges of g kept in one keep-bit row."""
    return _kernels.hamiltonian_from_bits(g.edge_array, np.asarray(bits, dtype=np.uint8), g.node_count)


class TestHamiltonian:
    @pytest.mark.parametrize("n", [3, 6, 15])
    def test_complete_graph_structure(self, n):
        # N*I - all-ones matrix
        h = full_hamiltonian(make_complete(n))
        expect = n * np.eye(n) - np.ones((n, n))
        assert np.array_equal(h, expect)

    def test_empty_mask_zero_matrix(self):
        g = make_ring(5)
        assert np.array_equal(_laplacian(g, np.zeros(5)), np.zeros((5, 5)))

    def test_ring4_full(self):
        h = full_hamiltonian(make_ring(4))
        expect = np.array(
            [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]], dtype=float
        )
        assert np.array_equal(h, expect)

    def test_diagonal_uses_realization_degree(self):
        # only edge 0 of ring(4) kept: nodes 0,1 have degree 1, others 0
        h = _laplacian(make_ring(4), [1, 0, 0, 0])
        assert h[0, 0] == 1 and h[1, 1] == 1 and h[2, 2] == 0 and h[3, 3] == 0

    @pytest.mark.parametrize("mask", [0b0000, 0b1010, 0b0111, 0b1111])
    def test_matches_reference_laplacian(self, mask):
        g = make_ring(4)
        assert np.array_equal(_laplacian(g, _keep_bits(mask, 4)), reference_laplacian(4, g.edges, mask))

    def test_zero_row_sums(self):
        g = make_lattice2d(3, 3)
        bits = (np.random.default_rng(2).random((5, g.edge_count)) < 0.5).astype(np.uint8)
        h = _kernels.laplacians(g.edge_array, g.node_count, bits, 1.0)
        assert np.max(np.abs(h.sum(axis=2))) <= 1e-12

    def test_additivity_disjoint_masks(self):
        g = make_ring(6)
        b1, b2 = np.array([1, 0, 1, 0, 1, 0]), np.array([0, 1, 0, 1, 0, 1])
        assert np.array_equal(_laplacian(g, b1 | b2), _laplacian(g, b1) + _laplacian(g, b2))

    def test_full_mask_is_full_hamiltonian(self):
        g = make_ring(4)
        assert np.array_equal(_laplacian(g, np.ones(g.edge_count)), full_hamiltonian(g))

    def test_kernel_construction_agrees(self):
        # batched rows, one row at a time and the adjacency-table reference agree
        g = make_lattice2d(3, 2)
        bits = (np.random.default_rng(8).random((5, g.edge_count)) < 0.5).astype(np.uint8)
        batch = _kernels.laplacians(g.edge_array, g.node_count, bits, 1.0)
        for row, built in zip(bits, batch):
            mask = sum(1 << k for k in np.flatnonzero(row))
            assert np.array_equal(built, _laplacian(g, row))
            assert np.array_equal(built, reference_laplacian(g.node_count, g.edges, mask))


class TestTransitionProbability:
    @pytest.mark.parametrize("t", [0.4, 1.0, 2.2])
    def test_single_edge_cos_squared(self, t):
        g = make_ring(2)
        assert transition_probability(g, 0, 0, t) == pytest.approx(np.cos(t) ** 2, abs=1e-12)

    @pytest.mark.parametrize("t", [0.3, 0.9, 1.8])
    def test_ring4_cos_fourth(self, t):
        g = make_ring(4)
        assert transition_probability(g, 0, 0, t) == pytest.approx(np.cos(t) ** 4, abs=1e-12)

    def test_t_zero_return_one(self):
        for g in (make_ring(5), make_complete(4), make_lattice2d(2, 3)):
            assert transition_probability(g, 2, 2, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.5, 4.0])
    def test_distribution_over_targets(self, t):
        g = make_ring(6)
        total = sum(transition_probability(g, 1, b, t) for b in range(6))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_array_time_argument(self):
        g = make_ring(4)
        ts = np.linspace(0, 3, 17)
        vals = transition_probability(g, 0, 0, ts)
        assert vals.shape == ts.shape
        assert np.allclose(vals, np.cos(ts) ** 4, atol=1e-12)

    def test_node_out_of_range(self):
        g = make_ring(4)
        with pytest.raises(ValueError):
            transition_probability(g, 0, 9, 1.0)


class TestClassicalTransition:
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5])
    def test_single_edge_closed_form(self, t):
        g = make_ring(2)
        assert classical_transition(g, 0, 0, t) == pytest.approx(
            (1 + np.exp(-2 * t)) / 2, abs=1e-12
        )

    @pytest.mark.parametrize("n,t", [(4, 0.3), (6, 1.0), (15, 0.2)])
    def test_complete_graph_closed_form(self, n, t):
        g = make_complete(n)
        expect = ((n - 1) * np.exp(-n * t) + 1) / n
        assert classical_transition(g, 0, 0, t) == pytest.approx(expect, abs=1e-12)

    def test_t_zero_off_diagonal(self):
        g = make_ring(5)
        assert classical_transition(g, 0, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_column_sums_to_one(self):
        g = make_lattice2d(3, 2)
        total = sum(classical_transition(g, 2, b, 1.3) for b in range(6))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            classical_transition(make_ring(4), 0, 0, -1.0)


# random simple graphs of at most 12 nodes, each with at least one edge
@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(24, len(pairs)), unique=True))
    return Graph(node_count=n, edges=tuple(keep))


def _eigh_route(g, a, b, t, z):
    """(exp(z H t))[b, a] through the eigenpairs, as ``walk`` takes them outside the action's rule."""
    weights, w = walk._weights_and_spectrum(g, a, b)
    return np.exp(z * np.multiply.outer(t, w)) @ weights


def _action_route(g, a, b, t, z):
    """(exp(z H t))[b, a] through the Taylor action on every gap, whatever its count of matvecs."""
    gaps = np.diff(t, prepend=0.0)
    plans = {gap: _kernels.taylor_plan(g.edge_array, g.node_count, gap) for gap in gaps[gaps > 0].tolist()}
    return walk._action_amplitudes(g, a, b, t, plans, z)


def _workload_times(steps, stride, tau, lam):
    return lam * recorded_steps(steps, stride) * tau


class TestTaylorAction:
    """The Taylor action from record to record against the eigenpairs."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(g=small_graphs(), data=st.data(), tau=st.floats(1e-3, 0.5), steps=st.integers(1, 40),
           stride=st.integers(1, 12), lam=st.sampled_from([0.0, 0.3, 1.0]), quantum=st.booleans())
    def test_equals_the_eigh_route(self, g, data, tau, steps, stride, lam, quantum):
        # a stride that does not divide the steps leaves a ragged last gap; lambda 0 puts every time at 0
        n = g.node_count
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(0, n - 1), label="b")
        t = _workload_times(steps, stride, tau, lam)
        z = -1j if quantum else -1.0
        assert np.max(np.abs(_action_route(g, a, b, t, z) - _eigh_route(g, a, b, t, z))) <= 1e-13

    @pytest.mark.parametrize("quantum", [True, False])
    def test_ragged_last_gap_and_other_target(self, quantum):
        # gaps of 0.0021 and a last one of 0.0007: 19 matvecs on 25 nodes, so the public functions act
        g, z = make_lattice2d(5, 5), (-1j if quantum else -1.0)
        t = _workload_times(7, 3, 1e-3, 0.7)
        assert walk._action_plans(g, t) is not None
        public = transition_probability if quantum else classical_transition
        for b in (12, 13, 24):
            expect = _eigh_route(g, 12, b, t, z)
            assert np.max(np.abs(_action_route(g, 12, b, t, z) - expect)) <= 1e-13
            expect = np.abs(expect) ** 2 if quantum else expect
            assert np.max(np.abs(public(g, 12, b, t) - expect)) <= 1e-13

    @pytest.mark.parametrize("quantum", [True, False])
    def test_lambda_zero_takes_the_action(self, quantum):
        # every time is 0: no gap costs a matvec, and the state stays the start basis state
        g, t = make_ring(9), np.zeros(7)
        assert walk._action_plans(g, t) == {}
        public = transition_probability if quantum else classical_transition
        assert np.array_equal(public(g, 3, 3, t), np.ones(7))
        assert np.array_equal(public(g, 3, 4, t), np.zeros(7))
        z = -1j if quantum else -1.0
        assert np.max(np.abs(np.abs(_eigh_route(g, 3, 3, t, z)) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("t", [
        np.array([0.0, -0.1, 0.2]),   # a negative time
        np.array([-0.1, 0.0, 0.1]),   # a negative first time
        np.array([0.0, 0.2, 0.1]),    # unsorted: a negative gap would give taylor_plan order 0
        np.array(0.1),                # 0-d
        np.array([[0.0, 0.1]]),       # 2-d
        np.array([0.0, np.nan]),
        np.array([0.0, np.inf]),
    ], ids=["negative", "negative-first", "unsorted", "0-d", "2-d", "nan", "inf"])
    def test_other_times_take_eigh(self, t):
        g = make_ring(12)
        assert walk._action_plans(g, t) is None
        with np.errstate(invalid="ignore"):
            expect = np.abs(_eigh_route(g, 2, 3, t, -1j)) ** 2
        assert np.array_equal(transition_probability(g, 2, 3, t), expect, equal_nan=True)

    def test_scalar_time_returns_a_float(self):
        g = make_lattice2d(3, 3)
        for fn in (transition_probability, classical_transition):
            assert isinstance(fn(g, 4, 4, 0.2), float)
            assert isinstance(fn(g, 4, 4, np.float64(0.2)), float)
            assert isinstance(fn(g, 4, 4, np.array(0.2)), float)

    def test_rule_counts_matvecs_against_nodes(self):
        # lattice2d:3x3 has maxdeg 4: a gap of 0.005 plans 1 substep of order 8
        g = make_lattice2d(3, 3)
        assert _kernels.taylor_plan(g.edge_array, 9, 0.005) == (1, 8)
        assert walk._action_plans(g, np.array([0.0, 0.005])) == {0.005: (1, 8)}
        assert walk._action_plans(g, np.array([0.0, 0.005, 0.01])) is None  # 16 matvecs >= 9

    def test_long_gap_is_refused_before_it_is_planned(self, monkeypatch):
        def no_plan(*args):
            raise AssertionError("a gap above the matvec count was planned")

        monkeypatch.setattr(_kernels, "taylor_plan", no_plan)
        g = graph_from_spec("lattice2d:10x10")
        for t in (np.array([0.0, 20.0]), np.array([0.0, 5e305]), np.array([0.0, 1e308])):
            assert walk._action_plans(g, t) is None

    @pytest.mark.parametrize("graph,steps,stride,tau,lams,action", [
        ("lattice2d:10x10", 30, 10, 1e-3, [0.5], True),           # lattice10x10-montecarlo, 4 records
        ("ring:15", 5000, 10, 0.004, [0.2, 0.4, 0.6, 0.8], False),  # ring15-channel, 501 records
        ("complete:15", 2000, 100, 1e-4, [0.3], False),            # complete15-walks, 21 records
        ("ring:4", 1000, 1, 0.1, [0.2], False),                    # ring4-longtime, 1 001 records
    ])
    def test_route_of_each_benchmark_reference(self, monkeypatch, graph, steps, stride, tau, lams, action):
        g = graph_from_spec(graph)
        calls = []
        monkeypatch.setattr(walk, "_weights_and_spectrum",
                            lambda *args, f=walk._weights_and_spectrum: calls.append(1) or f(*args))
        for lam in lams:
            t = _workload_times(steps, stride, tau, lam)
            assert (walk._action_plans(g, t) is not None) == action
            transition_probability(g, 0, 0, t)
            classical_transition(g, 0, 0, t)
        assert calls == ([] if action else [1] * 2 * len(lams))

    def test_lattice_reference_equals_eigh(self):
        # the Monte Carlo reference of lattice10x10-montecarlo, start node 44
        g, t = graph_from_spec("lattice2d:10x10"), _workload_times(30, 10, 1e-3, 0.5)
        expect = np.abs(_eigh_route(g, 44, 44, t, -1j)) ** 2
        assert np.max(np.abs(transition_probability(g, 44, 44, t) - expect)) <= 1e-14


class TestStateHelpers:
    def test_basis_state(self):
        psi = basis_state(4, 2)
        assert psi[2] == 1.0 and np.linalg.norm(psi) == 1.0

    def test_basis_density(self):
        rho = basis_density(3, 1)
        assert rho[1, 1] == 1.0 and np.trace(rho) == 1.0

    def test_check_quantum_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            check_quantum_state(np.array([1.0, 1.0]))

    def test_check_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_check_density_spectrum(self):
        check_density_spectrum(np.array([-DENSITY_ATOL, 0.5, 0.5 + DENSITY_ATOL]))
        with pytest.raises(ValueError, match="min eigenvalue -2.000e-10"):
            check_density_spectrum(np.array([-2 * DENSITY_ATOL, 1.0]))

    def test_check_distribution(self):
        with pytest.raises(ValueError):
            check_distribution(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            check_distribution(np.array([1.5, -0.5]))

    # NaN compares false both ways, so each check must fail it rather than pass it
    def test_check_quantum_state_rejects_nan(self):
        with pytest.raises(ValueError):
            check_quantum_state(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_check_density_rejects_nan(self):
        rho = basis_density(3, 0)
        rho[1, 1] = np.nan
        with pytest.raises(ValueError):
            check_density_matrix(rho)

    def test_check_distribution_rejects_nan(self):
        with pytest.raises(ValueError):
            check_distribution(np.array([0.5, 0.5, np.nan]))

    @pytest.mark.parametrize("check,value,message", [
        (check_quantum_state, np.eye(2), r"state must be a vector, got shape \(2, 2\)"),
        (check_density_matrix, np.ones(2), r"density matrix must be square, got shape \(2,\)"),
        (check_density_matrix, np.ones((2, 3)), r"density matrix must be square, got shape \(2, 3\)"),
        (check_distribution, np.eye(2) / 2, r"distribution must be a vector, got shape \(2, 2\)"),
    ], ids=["state", "density-vector", "density-rectangle", "distribution"])
    def test_checks_refuse_the_wrong_shape(self, check, value, message):
        with pytest.raises(ValueError, match=message):
            check(value)
