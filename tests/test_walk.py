import numpy as np
import pytest

from percwalk import _kernels
from percwalk.graph import make_complete, make_lattice2d, make_ring
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
