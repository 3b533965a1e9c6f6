import numpy as np
import pytest

from percwalk import _kernels
from percwalk.graph import make_complete, make_lattice2d, make_ring
from percwalk.walk import (
    basis_density,
    basis_state,
    check_density_matrix,
    check_distribution,
    check_quantum_state,
    classical_transition,
    full_hamiltonian,
    hamiltonian,
    transition_probability,
)

from helpers import reference_laplacian


class TestHamiltonian:
    @pytest.mark.parametrize("n", [3, 6, 15])
    def test_complete_graph_structure(self, n):
        # N*I - all-ones matrix
        h = full_hamiltonian(make_complete(n))
        expect = n * np.eye(n) - np.ones((n, n))
        assert np.array_equal(h, expect)

    def test_empty_mask_zero_matrix(self):
        g = make_ring(5)
        assert np.array_equal(hamiltonian(g, 0), np.zeros((5, 5)))

    def test_ring4_full(self):
        h = full_hamiltonian(make_ring(4))
        expect = np.array(
            [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]], dtype=float
        )
        assert np.array_equal(h, expect)

    def test_diagonal_uses_realization_degree(self):
        # mask with only edge 0 of ring(4): nodes 0,1 have degree 1, others 0
        g = make_ring(4)
        h = hamiltonian(g, 0b0001)
        assert h[0, 0] == 1 and h[1, 1] == 1 and h[2, 2] == 0 and h[3, 3] == 0

    @pytest.mark.parametrize("mask", [0b0000, 0b1010, 0b0111, 0b1111])
    def test_matches_reference_laplacian(self, mask):
        g = make_ring(4)
        assert np.array_equal(hamiltonian(g, mask), reference_laplacian(4, g.edges, mask))

    def test_zero_row_sums(self):
        g = make_lattice2d(3, 3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            mask = int(rng.integers(0, 1 << g.edge_count))
            h = hamiltonian(g, mask)
            assert np.max(np.abs(h.sum(axis=1))) <= 1e-12

    def test_additivity_disjoint_masks(self):
        g = make_ring(6)
        m1, m2 = 0b010101, 0b101010
        assert np.array_equal(hamiltonian(g, m1 | m2), hamiltonian(g, m1) + hamiltonian(g, m2))

    def test_full_mask_is_full_hamiltonian(self):
        g = make_ring(4)
        assert np.array_equal(hamiltonian(g, (1 << g.edge_count) - 1), full_hamiltonian(g))

    def test_mask_out_of_range(self):
        g = make_ring(4)
        with pytest.raises(ValueError):
            hamiltonian(g, 1 << 10)

    def test_kernel_construction_agrees(self):
        g = make_lattice2d(3, 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            bits = (rng.random(g.edge_count) < 0.5).astype(np.uint8)
            mask = sum(1 << k for k in np.flatnonzero(bits))
            built = _kernels.hamiltonian_from_bits(g.edge_array, bits, g.node_count)
            assert np.array_equal(built, hamiltonian(g, int(mask)))


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
