from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from percwalk import _kernels, dynamics, oracles
from percwalk.graph import make_ring
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
    point_table,
    resolve_timing,
)
from percwalk.walk import classical_transition, transition_probability


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

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), rows=st.integers(0, 12), chunk=st.integers(1, 5))
    def test_columns_render_as_cell_by_cell_format_value(self, data, rows, chunk):
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 3.0, -7.0, 2.0**53])
        floats = edge | st.floats(allow_nan=True, allow_infinity=True)
        cols = [
            ("f64", data.draw(hnp.arrays(np.float64, rows, elements=floats))),
            ("f32", data.draw(hnp.arrays(np.float32, rows, elements=st.floats(width=32)))),
            ("i64", data.draw(hnp.arrays(np.int64, rows))),
            ("flag", data.draw(hnp.arrays(bool, rows))),
        ]
        want = [f"# columns: {','.join(name for name, _ in cols)}", ",".join(name for name, _ in cols)]
        want += [",".join(csvio.format_value(arr[i]) for _, arr in cols) for i in range(rows)]
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):  # rows in several chunks
            assert csvio.render_csv({}, cols) == "\n".join(want) + "\n"

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
    def test_trajectory_lattice_reduced(self):
        spec = ExperimentSpec(graph_spec="lattice2d:3x3", tau=0.01, steps=300, start=4, stride=10)
        tables = exp_trajectory_lattice(spec, lambdas=(0.5, 1.0))
        assert set(tables) == {0.5, 1.0}
        for lam, (meta, columns) in tables.items():
            assert meta["lambda"] == lam and meta["experiment"] == "trajectory_lattice"
            assert [name for name, _ in columns] == ["t", "p_sim", "p_oracle"]
        # lam=1 curve matches its reference closely
        r1 = dict(tables[1.0][1])
        assert np.max(np.abs(r1["p_sim"] - r1["p_oracle"])) <= 1e-8

    def test_channel_ring_reduced(self):
        spec = ExperimentSpec(graph_spec="ring:6", tau=0.05, steps=100, stride=5)
        meta, columns = exp_channel_ring(spec, lambdas=(0.5,))[0.5]
        res = dict(columns)
        assert np.max(np.abs(res["p_sim"] - res["p_oracle"])) <= 0.05
        assert meta["propagator"] == "taylor(substeps=1, order=11)"
        assert 0.0 <= meta["max_trace_drift"] <= meta["trace_drift_bound"]
        # 64 masks are fewer than one batch, so no symmetry is searched
        assert (meta["channel_symmetries"], meta["channel_orbits"]) == (1, 64)
        assert meta["channel_blocks"] == "1x36"  # one dense block: the trivial group's evolution

    def test_complete_graph_reduced(self):
        spec = ExperimentSpec(graph_spec="complete:5", lam=0.3, tau=0.001, steps=2000, stride=20)
        _, columns = exp_complete_graph(spec)
        res = dict(columns)
        assert np.max(np.abs(res["p_quantum_sim"] - res["p_quantum_oracle"])) <= 0.1
        assert np.max(np.abs(res["p_classical_sim"] - res["p_classical_oracle"])) <= 0.05
        assert list(res) == [
            "t", "p_quantum_sim", "p_quantum_oracle", "p_classical_sim", "p_classical_oracle"
        ]

    def test_complete_graph_refuses_other_graphs(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("a keep bit was drawn or a step ran before the graph was checked")

        for name in ("trajectory_states", "classical_trajectory"):
            monkeypatch.setattr(_kernels, name, no_steps)
        monkeypatch.setattr(dynamics, "sample_keep_bits", no_steps)
        spec = ExperimentSpec(graph_spec="ring:5", lam=0.5, tau=0.01, steps=200, stride=50)
        with pytest.raises(ValueError, match="complete graph, got ring:5"):
            exp_complete_graph(spec)

    def test_longtime_default_fit_and_flattening(self):
        spec = ExperimentSpec(graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000)
        meta, columns = exp_longtime_finite_tau(spec)
        res = dict(columns)
        assert "envelope_error" not in meta
        assert 0.70 <= meta["envelope_a"] <= 0.79
        assert 0.044 <= meta["envelope_b"] <= 0.054
        assert abs(res["p_channel"][-1] - 0.25) <= 0.02
        # both references are the eigh route on the ring, which is the closed form to round-off
        ring, lam_t = make_ring(4), 0.2 * res["t"]
        assert np.array_equal(res["p_quantum_oracle"], transition_probability(ring, 0, 0, lam_t))
        assert np.array_equal(res["p_classical_oracle"], classical_transition(ring, 0, 0, lam_t))
        assert np.max(np.abs(res["p_quantum_oracle"] - oracles.ring4_quantum_return(0.2, res["t"]))) <= 1e-14
        assert np.max(np.abs(res["p_classical_oracle"] - oracles.ring4_classical_return(0.2, res["t"]))) <= 1e-14

    def test_point_table_refuses_an_unknown_command_before_reading_the_graph(self, tmp_path):
        spec = ExperimentSpec(graph_spec=f"file:{tmp_path / 'missing.edges'}", tau=0.1, steps=10)
        with pytest.raises(ValueError, match="unknown single-point command 'bogus'"):
            point_table(spec, "bogus")

    def test_longtime_trajectory_grid_must_nest(self):
        spec = ExperimentSpec(graph_spec="ring:4", lam=0.2, tau=0.1, steps=1000)
        with pytest.raises(ValueError, match="multiple"):
            exp_longtime_finite_tau(spec, trajectory_steps=2500)

    def test_convergence_lambda_one_control(self):
        spec = ExperimentSpec(graph_spec="ring:10", lam=1.0, total_time=10.0)
        _, columns = exp_convergence(spec, s_list=(50, 200))
        assert np.all(dict(columns)["max_abs_error"] <= 1e-8)

    def test_convergence_error_decreases(self):
        res = dict(exp_convergence(s_list=(200, 2000))[1])
        errs = dict(zip(res["S"], res["max_abs_error"]))
        assert errs[2000] < errs[200]

    def test_convergence_slope_in_band(self):
        # measured log-log slope of error vs tau; the spec window is [0.4, 1.3]
        res = dict(exp_convergence(s_list=(250, 500, 1000, 2000, 4000))[1])
        slope = np.polyfit(np.log(res["tau"]), np.log(res["max_abs_error"]), 1)[0]
        assert 0.4 <= slope <= 1.3

    def test_convergence_csv(self, tmp_path):
        spec = ExperimentSpec(graph_spec="ring:5", lam=0.5, total_time=4.0)
        meta, columns = exp_convergence(spec, s_list=(50, 100))
        csvio.write_csv(tmp_path / "conv.csv", meta, columns)
        _, data = csvio.read_csv(tmp_path / "conv.csv")
        assert list(data["S"]) == [50, 100]
        assert np.allclose(data["max_abs_error"], dict(columns)["max_abs_error"])

    def test_horizon_lambda_one_full_window(self):
        spec = ExperimentSpec(graph_spec="ring:5", lam=1.0, total_time=6.0)
        _, columns = exp_epsilon_horizon(spec, epsilon_list=(0.02, 0.1), s_list=(100,))
        assert dict(columns)["horizon"] == pytest.approx([6.0, 6.0], rel=1e-12)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
    def test_horizon_refuses_epsilon_outside_open_half_line(self, eps):
        spec = ExperimentSpec(graph_spec="ring:5", lam=0.5, total_time=4.0)
        with mock.patch("percwalk.harness.experiments.channel_curve",
                        side_effect=AssertionError("channel built before the check")):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                exp_epsilon_horizon(spec, epsilon_list=(0.1, eps), s_list=(50,))

    def test_horizon_nondecreasing_in_epsilon(self):
        _, columns = exp_epsilon_horizon(s_list=(400,), epsilon_list=(0.02, 0.05, 0.1))
        horizons = list(dict(columns)["horizon"])
        assert horizons == sorted(horizons)

    def test_horizon_grows_with_steps(self):
        res = dict(exp_epsilon_horizon(s_list=(400, 3200), epsilon_list=(0.05,))[1])
        by_steps = dict(zip(res["S"], res["horizon"]))
        assert by_steps[3200] >= by_steps[400]

    def test_experiment_spec_graph_roundtrip(self):
        spec = ExperimentSpec(graph_spec="ring:7", tau=0.1, steps=10)
        assert spec.graph().node_count == 7
        assert spec.run().total_time == pytest.approx(1.0)
