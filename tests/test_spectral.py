import numpy as np
import pytest

from percwalk import walk
from percwalk.graph import make_ring

from helpers import (
    decompose,
    expm_stochastic,
    expm_unitary,
    reconstruct,
    reference_laplacian,
    stochastic_exp,
    unitary_exp,
)

SINGLE_EDGE = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestDecompose:
    def test_single_edge_eigenvalues(self):
        d = decompose(SINGLE_EDGE)
        assert np.allclose(d.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_identity(self):
        d = decompose(np.eye(5))
        assert np.allclose(d.eigenvalues, 1.0, atol=1e-14)

    def test_ring4_spectrum(self):
        # circulant eigenvalues 2 - 2 cos(2 pi j / 4) = {0, 2, 2, 4}
        h = walk.full_hamiltonian(make_ring(4))
        d = decompose(h)
        assert np.allclose(d.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        d1, d2 = decompose(a), decompose(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    def test_roundtrip_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        d = decompose(a)
        q = d.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10
        err = np.max(np.abs(reconstruct(d) - a))
        assert err <= 1e-9 * max(1.0, np.max(np.abs(a)))

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(10, 10))
        a = a + a.T
        w = decompose(a).eigenvalues
        assert np.all(np.diff(w) >= 0)


class TestUnitaryExp:
    def test_t_zero_identity(self):
        d = decompose(SINGLE_EDGE)
        assert np.allclose(unitary_exp(d, 0.0), np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_single_edge_closed_form(self, t):
        # two-level solution: U(t)[0,0] = e^{-it} cos(t)
        u = unitary_exp(decompose(SINGLE_EDGE), t)
        assert u[0, 0] == pytest.approx(np.exp(-1j * t) * np.cos(t), abs=1e-12)

    def test_unitarity(self):
        h = walk.full_hamiltonian(make_ring(7))
        u = unitary_exp(decompose(h), 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(7))) <= 1e-10

    def test_group_law(self):
        d = decompose(walk.full_hamiltonian(make_ring(5)))
        lhs = unitary_exp(d, 0.7) @ unitary_exp(d, 1.1)
        rhs = unitary_exp(d, 1.8)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_norm_preservation(self):
        rng = np.random.default_rng(5)
        d = decompose(walk.full_hamiltonian(make_ring(6)))
        for _ in range(10):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(unitary_exp(d, 2.3) @ psi) - 1.0) <= 1e-10

    def test_eigenvalue_shift_is_global_phase(self):
        h = walk.full_hamiltonian(make_ring(5))
        t, c = 1.3, 2.5
        u1 = unitary_exp(decompose(h), t)
        u2 = unitary_exp(decompose(h + c * np.eye(5)), t)
        assert np.max(np.abs(u2 - np.exp(-1j * c * t) * u1)) <= 1e-9
        assert np.max(np.abs(np.abs(u2) - np.abs(u1))) <= 1e-9

    def test_matches_scipy_expm_with_degenerate_eigenvalues(self):
        # ring graphs have degenerate pairs; any orthonormal eigenbasis must
        # give the same exponential
        h = walk.full_hamiltonian(make_ring(6))
        u = unitary_exp(decompose(h), 0.9)
        assert np.max(np.abs(u - expm_unitary(h, 0.9))) <= 1e-9

    def test_non_finite_t_rejected(self):
        d = decompose(SINGLE_EDGE)
        with pytest.raises(ValueError):
            unitary_exp(d, np.inf)


class TestStochasticExp:
    def test_t_zero_identity(self):
        d = decompose(SINGLE_EDGE)
        assert np.allclose(stochastic_exp(d, 0.0), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
    def test_single_edge_closed_form(self, t):
        m = stochastic_exp(decompose(SINGLE_EDGE), t)
        assert m[0, 0] == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=1e-12)

    def test_long_time_flat(self):
        d = decompose(walk.full_hamiltonian(make_ring(4)))
        m = stochastic_exp(d, 50.0)
        assert np.max(np.abs(m - 0.25)) <= 1e-8

    def test_columns_are_distributions(self):
        h = walk.full_hamiltonian(make_ring(8))
        m = stochastic_exp(decompose(h), 1.5)
        assert m.min() >= 0.0
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-10

    def test_matches_scipy_expm(self):
        h = reference_laplacian(5, make_ring(5).edges, 0b10110)
        m = stochastic_exp(decompose(h), 0.8)
        assert np.max(np.abs(m - expm_stochastic(h, 0.8))) <= 1e-9

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            stochastic_exp(decompose(SINGLE_EDGE), -0.1)

    def test_non_laplacian_rejected(self):
        d = decompose(np.array([[-2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="Laplacian"):
            stochastic_exp(d, 1.0)
