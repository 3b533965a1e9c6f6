import numpy as np
import pytest

from percwalk import oracles
from percwalk.graph import make_complete, make_ring
from percwalk.walk import classical_transition, transition_probability


class TestCompleteGraphQuantumReturn:
    def test_t_zero(self):
        assert oracles.complete_graph_quantum_return(15, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_period_value(self):
        # cos(N t) = -1 at t = pi/N: ((N-1)^2 + 1 - 2(N-1)) / N^2 = (N-2)^2/N^2
        val = oracles.complete_graph_quantum_return(15, np.pi / 15)
        assert val == pytest.approx((13 / 15) ** 2, abs=1e-12)

    def test_matches_spectral_simulation(self):
        g = make_complete(15)
        rng = np.random.default_rng(0)
        ts = rng.uniform(0, 20, size=100)
        direct = transition_probability(g, 0, 0, ts)
        formula = oracles.complete_graph_quantum_return(15, ts)
        assert np.max(np.abs(direct - formula)) <= 1e-10

    def test_full_revivals(self):
        n = 15
        for k in (1, 2, 7):
            assert oracles.complete_graph_quantum_return(n, 2 * np.pi * k / n) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_revivals_never_decay(self):
        # sup over [0, 100] stays at 1: dense grid plus the exact revival times
        n = 15
        grid = np.linspace(0, 100, 200_001)
        revivals = np.arange(0, 100 * n / (2 * np.pi)) * 2 * np.pi / n
        vals = oracles.complete_graph_quantum_return(n, np.concatenate([grid, revivals]))
        assert vals.max() >= 1.0 - 1e-6
        assert vals.max() <= 1.0 + 1e-12

    def test_bounded_probability(self):
        vals = oracles.complete_graph_quantum_return(8, np.linspace(0, 50, 10_001))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)


class TestCompleteGraphClassicalReturn:
    def test_t_zero(self):
        assert oracles.complete_graph_classical_return(15, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_long_time_flat(self):
        assert oracles.complete_graph_classical_return(15, 1e3) == pytest.approx(1 / 15, abs=1e-12)

    def test_matches_spectral_simulation(self):
        g = make_complete(6)
        rng = np.random.default_rng(1)
        ts = rng.uniform(0, 5, size=50)
        direct = classical_transition(g, 0, 0, ts)
        formula = oracles.complete_graph_classical_return(6, ts)
        assert np.max(np.abs(direct - formula)) <= 1e-10

    def test_monotone_decreasing(self):
        ts = np.linspace(0, 10, 1001)
        vals = oracles.complete_graph_classical_return(7, ts)
        assert np.all(np.diff(vals) <= 0)


class TestRing4Oracles:
    def test_classical_t_zero(self):
        assert oracles.ring4_classical_return(0.2, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_classical_long_time(self):
        assert oracles.ring4_classical_return(0.2, 1e4) == pytest.approx(0.25, abs=1e-12)

    def test_classical_matches_spectral_at_lambda_one(self):
        g = make_ring(4)
        rng = np.random.default_rng(2)
        ts = rng.uniform(0, 8, size=50)
        direct = classical_transition(g, 0, 0, ts)
        formula = oracles.ring4_classical_return(1.0, ts)
        assert np.max(np.abs(direct - formula)) <= 1e-10

    def test_quantum_matches_spectral_at_lambda_one(self):
        g = make_ring(4)
        rng = np.random.default_rng(3)
        ts = rng.uniform(0, 8, size=50)
        direct = transition_probability(g, 0, 0, ts)
        formula = oracles.ring4_quantum_return(1.0, ts)
        assert np.max(np.abs(direct - formula)) <= 1e-10

    def test_quantum_matches_rescaled_reference(self):
        g = make_ring(4)
        ts = np.linspace(0, 20, 101)
        rescaled = transition_probability(g, 0, 0, 0.3 * ts)
        assert np.max(np.abs(rescaled - oracles.ring4_quantum_return(0.3, ts))) <= 1e-10


class TestRefusals:
    @pytest.mark.parametrize("form,args,message", [
        (oracles.ring4_quantum_return, (1.5, 1.0), r"lam must be in \[0, 1\], got 1.5"),
        (oracles.ring4_quantum_return, (-0.1, 1.0), r"lam must be in \[0, 1\], got -0.1"),
        (oracles.ring4_classical_return, (1.5, 1.0), r"lam must be in \[0, 1\], got 1.5"),
        (oracles.ring4_classical_return, (0.5, -1.0), "t must be >= 0"),
        (oracles.complete_graph_classical_return, (5, np.array([0.0, -1.0])), "t must be >= 0"),
    ], ids=["ring4-q-lam-high", "ring4-q-lam-low", "ring4-c-lam-high", "ring4-c-t", "complete-c-t"])
    def test_closed_forms_refuse_lambda_and_time_out_of_range(self, form, args, message):
        with pytest.raises(ValueError, match=message):
            form(*args)


class TestFlatLimit:
    @pytest.mark.parametrize("n,expect", [(4, 0.25), (1, 1.0), (15, 1 / 15)])
    def test_values(self, n, expect):
        assert oracles.flat_limit(n) == pytest.approx(expect, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            oracles.flat_limit(0)


class TestRescaledReference:
    """The rescaled-time reference: the unpercolated walk evaluated at lam * t."""

    def test_lambda_one_is_plain_transition(self):
        g = make_ring(5)
        ts = np.linspace(0, 6, 31)
        rescaled = transition_probability(g, 0, 2, 1.0 * ts)
        assert np.allclose(rescaled, transition_probability(g, 0, 2, ts), atol=1e-14)

    def test_lambda_zero_is_frozen(self):
        g = make_ring(5)
        ts = np.linspace(0, 9, 19)
        assert np.allclose(transition_probability(g, 1, 1, 0.0 * ts), 1.0, atol=1e-12)
        assert np.allclose(transition_probability(g, 1, 3, 0.0 * ts), 0.0, atol=1e-12)

    def test_outputs_are_probabilities(self):
        g = make_ring(6)
        vals = transition_probability(g, 0, 0, 0.7 * np.linspace(0, 50, 5001))
        assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-10)

    def test_classical_variant(self):
        g = make_ring(4)
        ts = np.linspace(0, 12, 25)
        rescaled = classical_transition(g, 0, 0, 0.5 * ts)
        assert np.allclose(rescaled, oracles.ring4_classical_return(0.5, ts), atol=1e-10)
