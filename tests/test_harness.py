import numpy as np
import pytest

from percwalk import oracles
from percwalk.harness import csvio
from percwalk.harness.experiments import (
    EnvelopeFitError,
    ExperimentSpec,
    exp_channel_ring,
    exp_complete_graph,
    exp_convergence,
    exp_epsilon_horizon,
    exp_longtime_finite_tau,
    exp_trajectory_lattice,
    extract_envelope_maxima,
    fit_exponential_envelope,
    resolve_timing,
)


class TestResolveTiming:
    def test_tau_and_steps(self):
        assert resolve_timing(0.004, 5000, None) == (0.004, 5000, 20.0)

    def test_tau_and_time(self):
        tau, steps, total = resolve_timing(1e-4, None, 10.0)
        assert steps == 100_000 and total == pytest.approx(10.0)

    def test_steps_and_time(self):
        tau, steps, total = resolve_timing(None, 1000, 10.0)
        assert tau == pytest.approx(0.01) and total == 10.0

    def test_all_three_consistent(self):
        assert resolve_timing(0.1, 100, 10.0)[1] == 100

    def test_all_three_inconsistent(self):
        with pytest.raises(ValueError, match="inconsistent"):
            resolve_timing(0.1, 100, 99.0)

    def test_underdetermined(self):
        with pytest.raises(ValueError):
            resolve_timing(0.1, None, None)

    @pytest.mark.parametrize("bad", [(0.0, 10, None), (0.1, 0, None), (None, 10, -1.0)])
    def test_invalid_values(self, bad):
        with pytest.raises(ValueError):
            resolve_timing(*bad)

    @pytest.mark.parametrize("bad", [
        (float("inf"), 3, None), (float("nan"), 3, None), (1e308, 3, None),
        (None, 3, float("inf")), (None, 3, float("nan")), (1e-320, None, 1.0),
        (float("inf"), None, 1.0),
    ])
    def test_non_finite_timing(self, bad):
        with pytest.raises(ValueError, match="finite"):
            resolve_timing(*bad)


class TestEnvelope:
    def test_exact_recovery(self):
        # zero-noise ansatz: recover a and b to 1e-6 relative
        t = np.linspace(0, 80, 41)
        y = 0.7 * np.exp(-0.05 * t) + 0.25
        fit = fit_exponential_envelope(t, y, 0.25)
        assert fit.a == pytest.approx(0.7, rel=1e-6)
        assert fit.b == pytest.approx(0.05, rel=1e-6)
        assert fit.residual <= 1e-10

    def test_recovery_with_perturbation(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 60, 31)
        y = 0.8 * np.exp(-0.08 * t) + 0.2 + rng.normal(0, 1e-4, t.shape)
        fit = fit_exponential_envelope(t, y, 0.2)
        assert fit.a == pytest.approx(0.8, abs=5e-3)
        assert fit.b == pytest.approx(0.08, abs=5e-3)

    def test_maxima_interior(self):
        t = np.linspace(0, 10, 101)
        y = np.sin(2 * np.pi * t / 3.0)
        mt, mv = extract_envelope_maxima(t, y)
        assert np.allclose(mv, 1.0, atol=1e-2)
        # peaks at 0.75 + 3k within [0, 10]
        assert len(mt) == 4

    def test_leading_global_max_included(self):
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 0.4, 0.6, 0.3, 0.2])
        mt, _ = extract_envelope_maxima(t, y)
        assert mt[0] == 0.0 and 2.0 in mt

    def test_leading_point_not_included_when_not_global_max(self):
        y = np.array([0.5, 0.4, 0.9, 0.3, 0.2])
        mt, _ = extract_envelope_maxima(np.arange(5.0), y)
        assert 0.0 not in mt

    def test_trailing_rise_not_a_maximum(self):
        y = np.array([1.0, 0.4, 0.2, 0.3, 0.6])
        mt, _ = extract_envelope_maxima(np.arange(5.0), y)
        assert 4.0 not in mt

    def test_fit_failure_below_asymptote(self):
        t = np.linspace(0, 5, 6)
        with pytest.raises(EnvelopeFitError):
            fit_exponential_envelope(t, np.full_like(t, 0.1), 0.25)


class TestCsv:
    def test_render_roundtrip_17_digits(self, tmp_path):
        vals = np.array([1 / 3, np.pi, 1e-17, 0.1 + 0.2])
        path = csvio.write_csv(tmp_path / "x.csv", {"seed": 7}, [("t", vals)])
        meta, data = csvio.read_csv(path)
        assert meta["seed"] == "7"
        assert np.array_equal(data["t"], vals)  # exact round trip

    def test_deterministic_output(self):
        cols = [("t", np.linspace(0, 1, 5)), ("p", np.linspace(1, 0, 5))]
        assert csvio.render_csv({"a": 1}, cols) == csvio.render_csv({"a": 1}, cols)

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            csvio.render_csv({}, [("a", np.zeros(3)), ("b", np.zeros(4))])

    def test_header_has_metadata_and_columns(self, tmp_path):
        path = csvio.write_csv(
            tmp_path / "x.csv", {"graph": "ring:4", "seed": 3}, [("t", np.zeros(2))]
        )
        text = path.read_text()
        assert text.startswith("# graph = ring:4\n# seed = 3\n# columns: t\nt\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ngraph = ring:5\nlambda=0.4\n\nseed = 9\n")
        assert csvio.load_config(path) == {"graph": "ring:5", "lambda": "0.4", "seed": "9"}

    def test_load_config_rejects_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("graph ring:5\n")
        with pytest.raises(ValueError):
            csvio.load_config(path)


class TestExperiments:
    def test_trajectory_lattice_reduced(self, tmp_path):
        spec = ExperimentSpec(
            graph_spec="lattice2d:3x3", tau=0.01, steps=300, start=4, stride=10,
            output_path=str(tmp_path / "fig"),
        )
        results = exp_trajectory_lattice(spec, lambdas=(0.5, 1.0))
        assert set(results) == {0.5, 1.0}
        for lam, res in results.items():
            assert res.path.exists()
            meta, data = csvio.read_csv(res.path)
            assert meta["lambda"] == csvio.format_value(lam)
            assert set(data) == {"t", "p_sim", "p_oracle"}
        # lam=1 curve matches its reference closely
        r1 = results[1.0]
        assert np.max(np.abs(r1.p_sim - r1.p_oracle)) <= 1e-8

    def test_channel_ring_reduced(self, tmp_path):
        spec = ExperimentSpec(
            graph_spec="ring:6", tau=0.05, steps=100, stride=5,
            output_path=str(tmp_path / "fig"),
        )
        results = exp_channel_ring(spec, lambdas=(0.5,))
        res = results[0.5]
        assert res.path.exists()
        assert np.max(np.abs(res.p_sim - res.p_oracle)) <= 0.05
        meta, _ = csvio.read_csv(res.path)
        assert meta["propagator"] == "taylor(substeps=1, order=11)"
        assert 0.0 <= float(meta["max_trace_drift"]) <= float(meta["trace_drift_bound"])
        # 64 masks are fewer than one batch, so no symmetry is searched
        assert (meta["channel_symmetries"], meta["channel_orbits"]) == ("1", "64")
        assert meta["channel_blocks"] == "1x36"  # one dense block: the trivial group's evolution

    def test_complete_graph_reduced(self, tmp_path):
        spec = ExperimentSpec(
            graph_spec="complete:5", lam=0.3, tau=0.001, steps=2000, stride=20,
            output_path=str(tmp_path / "fig3.csv"),
        )
        res = exp_complete_graph(spec)
        assert res.path.exists()
        assert np.max(np.abs(res.p_quantum_sim - res.p_quantum_oracle)) <= 0.1
        assert np.max(np.abs(res.p_classical_sim - res.p_classical_oracle)) <= 0.05
        meta, data = csvio.read_csv(res.path)
        assert list(data) == [
            "t", "p_quantum_sim", "p_quantum_oracle", "p_classical_sim", "p_classical_oracle"
        ]

    def test_longtime_default_fit_and_flattening(self, tmp_path):
        spec = ExperimentSpec(
            graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000,
            output_path=str(tmp_path / "fig4.csv"),
        )
        res = exp_longtime_finite_tau(spec)
        assert res.fit is not None
        assert 0.70 <= res.fit.a <= 0.79
        assert 0.044 <= res.fit.b <= 0.054
        assert abs(res.p_channel[-1] - 0.25) <= 0.02
        meta, _ = csvio.read_csv(res.path)
        assert "envelope_a" in meta
        # quantum oracle column is the closed form cos^4(lam t)
        assert np.max(np.abs(res.p_quantum_oracle - oracles.ring4_quantum_return(0.2, res.times))) == 0.0

    def test_longtime_trajectory_grid_must_nest(self):
        spec = ExperimentSpec(graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000)
        with pytest.raises(ValueError, match="multiple"):
            exp_longtime_finite_tau(spec, trajectory_steps=2500)

    def test_convergence_lambda_one_control(self):
        spec = ExperimentSpec(graph_spec="ring:10", lam=1.0, total_time=10.0)
        points = exp_convergence(spec, s_list=(50, 200))
        for p in points:
            assert p.max_abs_error <= 1e-8

    def test_convergence_error_decreases(self):
        points = exp_convergence(s_list=(200, 2000))
        errs = {p.steps: p.max_abs_error for p in points}
        assert errs[2000] < errs[200]

    def test_convergence_slope_in_band(self):
        # measured log-log slope of error vs tau; the spec window is [0.4, 1.3]
        points = exp_convergence(s_list=(250, 500, 1000, 2000, 4000))
        taus = np.log([p.tau for p in points])
        errs = np.log([p.max_abs_error for p in points])
        slope = np.polyfit(taus, errs, 1)[0]
        assert 0.4 <= slope <= 1.3

    def test_convergence_csv(self, tmp_path):
        spec = ExperimentSpec(
            graph_spec="ring:5", lam=0.5, total_time=4.0, output_path=str(tmp_path / "conv.csv")
        )
        points = exp_convergence(spec, s_list=(50, 100))
        meta, data = csvio.read_csv(tmp_path / "conv.csv")
        assert list(data["S"]) == [50, 100]
        assert np.allclose(data["max_abs_error"], [p.max_abs_error for p in points])

    def test_horizon_lambda_one_full_window(self):
        spec = ExperimentSpec(graph_spec="ring:5", lam=1.0, total_time=6.0)
        points = exp_epsilon_horizon(spec, epsilon_list=(0.02, 0.1), s_list=(100,))
        for p in points:
            assert p.horizon == pytest.approx(6.0, rel=1e-12)

    def test_horizon_nondecreasing_in_epsilon(self):
        points = exp_epsilon_horizon(s_list=(400,), epsilon_list=(0.02, 0.05, 0.1))
        horizons = [p.horizon for p in points]
        assert horizons == sorted(horizons)

    def test_horizon_grows_with_steps(self):
        points = exp_epsilon_horizon(s_list=(400, 3200), epsilon_list=(0.05,))
        by_steps = {p.steps: p.horizon for p in points}
        assert by_steps[3200] >= by_steps[400]

    def test_experiment_spec_graph_roundtrip(self):
        spec = ExperimentSpec(graph_spec="ring:7", tau=0.1, steps=10)
        assert spec.graph().node_count == 7
        assert spec.run().total_time == pytest.approx(1.0)
