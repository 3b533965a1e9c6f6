import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from percwalk import _kernels, dynamics
from percwalk.graph import graph_from_spec, make_ring, write_edge_file
from percwalk.harness import cli, experiments
from percwalk.harness.cli import cli_main
from percwalk.harness.csvio import finite_csv, read_csv, write_csv
from percwalk.harness.experiments import (
    ExperimentSpec,
    exp_convergence,
    exp_epsilon_horizon,
    exp_longtime_finite_tau,
    point_table,
)
from percwalk.walk import classical_transition, transition_probability

from helpers import force_mask_cache

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return cli_main(args)


def nan_propagators(monkeypatch):
    """Make every step kernel take the mask cache and build each propagator as NaN, as an overflow would."""
    def build(edges, n, bits, z, plan, work, out, incidence=None):
        out.fill(np.nan)

    force_mask_cache(monkeypatch)
    monkeypatch.setattr(_kernels, "_cache_propagators", build)


class TestBasicRuns:
    def test_channel_writes_file(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = run_cli([
            "channel", "--graph", "ring:6", "--lambda", "0.5", "--tau", "0.05",
            "--steps", "60", "--start", "0", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        meta, data = read_csv(out)
        assert meta["graph"] == "ring:6" and meta["seed"] == "7"
        assert set(data) == {"t", "p_sim", "p_oracle"}
        assert data["t"][-1] == pytest.approx(3.0)

    def test_trajectory_stdout(self, capsys):
        code = run_cli([
            "trajectory", "--graph", "ring:5", "--lambda", "0.3", "--tau", "0.05",
            "--steps", "40", "--seed", "1",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# tool = percwalk")
        assert "t,p_sim,p_oracle" in captured

    def test_classical(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli([
            "classical", "--graph", "ring:4", "--lambda", "0.4", "--tau", "0.1",
            "--steps", "50", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert data["p_sim"][0] == pytest.approx(1.0)

    def test_montecarlo(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli([
            "montecarlo", "--graph", "ring:4", "--lambda", "0.5", "--tau", "0.1",
            "--steps", "20", "--trajectories", "20", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert set(data) == {"t", "p_mean", "p_stderr", "p_oracle"}

    def test_time_flag_instead_of_steps(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli([
            "trajectory", "--graph", "ring:4", "--lambda", "1.0", "--tau", "0.1",
            "--time", "2.0", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert data["t"][-1] == pytest.approx(2.0)

    def test_deterministic_outputs(self, tmp_path):
        args = [
            "trajectory", "--graph", "lattice2d:3x3", "--lambda", "0.6", "--tau", "0.02",
            "--steps", "50", "--seed", "11", "--start", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOracleCommand:
    @pytest.mark.parametrize("which,graph", [
        ("rescaled", "ring:5"),
        ("complete-q", "complete:15"),
        ("complete-c", "complete:15"),
        ("ring4-c", "ring:4"),
        ("flat", "ring:8"),
    ])
    def test_each_oracle(self, tmp_path, which, graph):
        out = tmp_path / f"{which}.csv"
        code = run_cli([
            "oracle", "--which", which, "--graph", graph, "--lambda", "0.3",
            "--tau", "0.1", "--steps", "30", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert set(data) == {"t", "p_oracle"}
        assert np.all(data["p_oracle"] >= 0) and np.all(data["p_oracle"] <= 1 + 1e-10)

    def test_flat_is_constant(self, tmp_path):
        out = tmp_path / "flat.csv"
        run_cli(["oracle", "--which", "flat", "--graph", "ring:8", "--tau", "0.1",
                 "--steps", "10", "--out", str(out)])
        _, data = read_csv(out)
        assert np.allclose(data["p_oracle"], 1 / 8)

    @pytest.mark.parametrize("which,graph,reference", [
        ("complete-q", "complete:5", transition_probability),
        ("complete-c", "complete:5", classical_transition),
        ("ring4-c", "ring:4", classical_transition),
    ], ids=["complete-q-complete:5-rescaled_reference",
            "complete-c-complete:5-rescaled_classical_reference",
            "ring4-c-ring:4-rescaled_classical_reference"])
    def test_closed_form_equals_spectral_reference(self, tmp_path, which, graph, reference):
        out = tmp_path / "oracle.csv"
        assert run_cli(["oracle", "--which", which, "--graph", graph, "--lambda", "0.3",
                        "--tau", "0.5", "--steps", "20", "--start", "1", "--out", str(out)]) == 0
        _, data = read_csv(out)
        rescaled = reference(graph_from_spec(graph), 1, 1, 0.3 * data["t"])
        assert np.max(np.abs(data["p_oracle"] - rescaled)) <= 1e-12

    @pytest.mark.parametrize("which,graph,extra", [
        ("complete-q", "complete:5", ["--target", "2"]),
        ("complete-c", "complete:5", ["--target", "2"]),
        ("ring4-c", "ring:4", ["--target", "1"]),
        ("complete-q", "ring:5", []),
        ("complete-c", "ring:4", []),
        ("ring4-c", "ring:6", []),
        ("ring4-c", "complete:4", []),
    ])
    def test_closed_form_refuses_other_targets_and_graphs(self, tmp_path, which, graph, extra):
        out = tmp_path / "oracle.csv"
        assert run_cli(["oracle", "--which", which, "--graph", graph, "--tau", "0.5",
                        "--steps", "2", "--out", str(out)] + extra) == 1
        assert not out.exists()

    @pytest.mark.parametrize("which,graph,extra", [
        ("rescaled", "ring:5", ["--target", "5"]),
        ("complete-q", "complete:5", ["--lambda", "1.5"]),
        ("complete-c", "complete:5", ["--lambda", "-0.1"]),
        ("ring4-c", "ring:4", ["--start", "7"]),
        ("flat", "ring:4", ["--start", "-3"]),
    ])
    def test_refuses_lambda_and_nodes_out_of_range(self, tmp_path, capsys, which, graph, extra):
        out = tmp_path / "oracle.csv"
        assert run_cli(["oracle", "--which", which, "--graph", graph, "--tau", "0.5",
                        "--steps", "2", "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert "must be in [0, 1]" in err or "out of range" in err
        assert not out.exists()

    def test_missing_which(self):
        assert run_cli(["oracle", "--graph", "ring:4", "--tau", "0.1", "--steps", "5"]) == 1

    @pytest.mark.parametrize("tau,code", [("1e306", 0), ("1e308", 2)])
    def test_rescaled_long_gap_takes_eigh_at_once(self, tmp_path, capsys, tau, code):
        # a gap of 5e305 would plan ~4e306 Taylor substeps: it goes to eigh unplanned, which gives a
        # finite value, and at 1e308 a non-finite one (exit 2, no CSV), as before the action route
        out = tmp_path / "oracle.csv"
        t0 = time.perf_counter()
        assert run_cli(["oracle", "--which", "rescaled", "--graph", "lattice2d:10x10", "--start", "44",
                        "--steps", "1", "--tau", tau, "--out", str(out)]) == code
        assert time.perf_counter() - t0 < 1.0
        if code:
            assert "column p_oracle holds a non-finite value" in capsys.readouterr().err
            assert not out.exists()
        else:
            _, data = read_csv(out)
            assert np.all(np.isfinite(data["p_oracle"])) and data["p_oracle"][0] == pytest.approx(1.0)


class TestScanCommands:
    def test_convergence(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli([
            "convergence", "--graph", "ring:5", "--lambda", "0.5", "--time", "4",
            "--steps-list", "50,100", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert list(data["S"]) == [50, 100]
        assert data["max_abs_error"][1] < data["max_abs_error"][0]

    def test_horizon(self, tmp_path):
        out = tmp_path / "hor.csv"
        code = run_cli([
            "horizon", "--graph", "ring:5", "--lambda", "0.5", "--time", "4",
            "--steps-list", "100,400", "--epsilons", "0.05,0.1", "--out", str(out),
        ])
        assert code == 0
        _, data = read_csv(out)
        assert set(data) == {"S", "epsilon", "horizon"}
        assert len(data["S"]) == 4

    def test_envelope(self, tmp_path):
        out = tmp_path / "env.csv"
        code = run_cli(["envelope", "--out", str(out), "--seed", "3"])
        assert code == 0
        meta, data = read_csv(out)
        assert "envelope_a" in meta and "envelope_b" in meta
        assert set(data) == {"t", "p_channel", "p_trajectory", "p_quantum_oracle",
                             "p_classical_oracle"}

    @pytest.mark.parametrize("argv,drive", [
        (["convergence", "--graph", "ring:5", "--time", "4", "--steps-list", "50,100"],
         lambda: exp_convergence(ExperimentSpec("ring:5", total_time=4.0), s_list=(50, 100))),
        (["horizon", "--graph", "ring:5", "--time", "4", "--steps-list", "400,100,400",
          "--epsilons", "0.1,0.02,0.1"],
         lambda: exp_epsilon_horizon(
             ExperimentSpec("ring:5", total_time=4.0),
             epsilon_list=(0.1, 0.02, 0.1), s_list=(400, 100, 400))),
        (["envelope", "--tau", "0.1", "--steps", "200", "--traj-steps", "400", "--seed", "3"],
         lambda: exp_longtime_finite_tau(
             ExperimentSpec("ring:4", lam=0.2, tau=0.1, steps=200, seed=3), trajectory_steps=400)),
        (["trajectory", "--graph", "lattice2d:4x4", "--lambda", "0.6", "--tau", "0.02",
          "--steps", "50", "--stride", "5", "--start", "5", "--seed", "3"],
         lambda: point_table(
             ExperimentSpec("lattice2d:4x4", lam=0.6, tau=0.02, steps=50, stride=5, start=5, seed=3),
             "trajectory")),
        (["channel", "--graph", "ring:5", "--lambda", "0.4", "--tau", "0.05", "--steps", "40",
          "--stride", "4", "--start", "2"],
         lambda: point_table(ExperimentSpec("ring:5", lam=0.4, tau=0.05, steps=40, stride=4, start=2),
                             "channel")),
        # every flag unset: the CLI takes the drivers' and ExperimentSpec's defaults
        (["convergence"],
         lambda: exp_convergence(ExperimentSpec("ring:10", lam=0.5, total_time=10.0))),
        (["horizon"],
         lambda: exp_epsilon_horizon(ExperimentSpec("ring:5", lam=0.5, total_time=10.0))),
        (["envelope", "--seed", "3"],
         lambda: exp_longtime_finite_tau(ExperimentSpec("ring:4", lam=0.2, tau=0.1, steps=1000, seed=3))),
        (["trajectory", "--graph", "ring:4", "--tau", "0.1", "--steps", "20"],
         lambda: point_table(ExperimentSpec("ring:4", tau=0.1, steps=20), "trajectory")),
    ], ids=["convergence", "horizon", "envelope", "trajectory", "channel", "convergence-default",
            "horizon-default", "envelope-default", "trajectory-default"])
    def test_csv_equals_driver_csv(self, tmp_path, argv, drive):
        cli_out = tmp_path / "cli.csv"
        assert run_cli(argv + ["--out", str(cli_out)]) == 0
        assert cli_out.read_text() == finite_csv(*drive())

    @pytest.mark.parametrize("command", ["convergence", "horizon"])
    @pytest.mark.parametrize("timing,window", [
        (["--tau", "0.1", "--steps", "40"], "4"),
        (["--time", "4"], "4"),
    ], ids=["tau-steps", "time"])
    def test_scan_header_records_only_what_ran(self, tmp_path, command, timing, window):
        # every point runs its own tau and steps at stride 1 over the window
        out = tmp_path / "scan.csv"
        assert run_cli([command, "--graph", "ring:5", "--steps-list", "50,100", *timing,
                        "--out", str(out)]) == 0
        meta, data = read_csv(out)
        assert not meta.keys() & {"tau", "steps", "stride"}
        assert (meta["total_time"], meta["s_list"]) == (window, "50,100")
        assert set(data["S"]) == {50, 100}
        if command == "convergence":
            assert list(data["tau"]) == [0.08, 0.04]

    @pytest.mark.parametrize("command", ["convergence", "horizon"])
    def test_scan_refuses_an_inconsistent_timing_triple(self, tmp_path, capsys, monkeypatch, command):
        def no_channel(*args, **kwargs):
            raise AssertionError("a channel was built before the timing was checked")

        scan = [command, "--graph", "ring:5", "--steps-list", "50"]
        with monkeypatch.context() as m:
            m.setattr(experiments, "channel_curve", no_channel)
            out = tmp_path / "bad.csv"
            assert run_cli([*scan, "--tau", "0.1", "--steps", "40", "--time", "10", "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: inconsistent timing: steps*tau = 4.0 but total time = 10.0\n"
            assert not out.exists()
        # a consistent triple scans the window --time alone gives
        triple, window = tmp_path / "triple.csv", tmp_path / "window.csv"
        assert run_cli([*scan, "--tau", "0.1", "--steps", "100", "--time", "10", "--out", str(triple)]) == 0
        assert run_cli([*scan, "--time", "10", "--out", str(window)]) == 0
        assert triple.read_bytes() == window.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--graph", "ring:4", "--lambda", "0.2", "--tau", "0.1", "--steps", "3", "--traj-steps", "3"],
        ["--lambda", "0", "--tau", "0.1", "--steps", "100", "--traj-steps", "300"],
        ["--graph", "file:{tmp}/one.edges", "--tau", "0.1", "--steps", "10", "--traj-steps", "10"],
    ], ids=["ring4-3-steps", "lambda-0", "one-node"])
    def test_envelope_fit_failure_exit_0_with_error_header(self, tmp_path, capsys, argv):
        # a fit that finds no decaying envelope is a diagnostic of curves computed correctly
        (tmp_path / "one.edges").write_text("nodes 1\n")
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", *(a.format(tmp=tmp_path) for a in argv), "--out", str(out)]) == 0
        meta, data = read_csv(out)
        assert meta["envelope_error"] == "need at least two points above the asymptote to initialize"
        assert not {"envelope_a", "envelope_b", "envelope_residual"} & set(meta)
        assert set(data) == {"t", "p_channel", "p_trajectory", "p_quantum_oracle",
                             "p_classical_oracle"}
        assert capsys.readouterr().err == ""


class TestRunDiagnostics:
    @pytest.mark.parametrize("argv,propagator", [
        # a small graph forms each step's Taylor polynomial as a matrix, a large one applies it;
        # a small graph's run long enough to repeat its masks takes the mask cache
        (["trajectory", "--graph", "complete:7", "--tau", "0.05", "--steps", "20"],
         "taylor-matrix(substeps=1, order=15)"),
        pytest.param(["classical", "--graph", "ring:5", "--tau", "0.1", "--steps", "200"],
                     "mask-cache(chunk=26)", id="argv1-mask-cache"),
        (["montecarlo", "--graph", "complete:7", "--tau", "0.05", "--steps", "20",
          "--trajectories", "4"], "taylor(substeps=1, order=15)"),
        pytest.param(["envelope", "--tau", "0.1", "--steps", "10", "--traj-steps", "300"],
                     "mask-cache(chunk=16)", id="argv3-mask-cache"),
        (["classical", "--graph", "lattice2d:10x10", "--tau", "1e-4", "--steps", "20"],
         "taylor(substeps=1, order=4)"),
    ])
    def test_metadata_names_propagator_and_drift(self, tmp_path, argv, propagator):
        out = tmp_path / "run.csv"
        assert run_cli(argv + ["--out", str(out)]) in (0, 2)  # a short envelope may not fit
        meta, _ = read_csv(out)
        assert meta["propagator"] == propagator
        assert 0.0 <= float(meta["max_norm_drift"]) <= 1e-12

    def test_channel_metadata_names_propagator_and_trace_drift(self, tmp_path):
        out = tmp_path / "channel.csv"
        assert run_cli(["channel", "--graph", "ring:6", "--lambda", "0.4", "--tau", "0.9",
                        "--steps", "40", "--stride", "3", "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert meta["propagator"] == "taylor(substeps=4, order=17)"
        drift, bound = float(meta["max_trace_drift"]), float(meta["trace_drift_bound"])
        assert 0.0 <= drift <= bound <= 1e-10

    def test_channel_metadata_counts_symmetries_and_orbits(self, tmp_path):
        # the 32768 masks of ring:15 fall into 1224 orbits under its 30 automorphisms
        out = tmp_path / "channel.csv"
        assert run_cli(["channel", "--graph", "ring:15", "--lambda", "0.4", "--tau", "0.004",
                        "--steps", "20", "--stride", "10", "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert (meta["channel_symmetries"], meta["channel_orbits"]) == ("30", "1224")
        # the evolution ran in the 15 sectors of a rotation of order 15, blocks of 15 cycles
        assert meta["channel_blocks"] == "15x15"

    def test_python_dash_m_runs_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "percwalk", "oracle", "--which", "flat",
             "--graph", "ring:4", "--tau", "0.5", "--steps", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("# tool = percwalk")


class TestErrorPaths:
    def test_capacity_exit_1(self, capsys):
        code = run_cli([
            "channel", "--graph", "complete:15", "--lambda", "0.5", "--tau", "0.004",
            "--steps", "10",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "enumeration limit" in err and "montecarlo" in err

    def test_unknown_flag_exit_1(self, capsys):
        assert run_cli(["channel", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_exit_1(self, capsys):
        assert run_cli([]) == 1

    def test_missing_graph_exit_1(self, capsys):
        assert run_cli(["channel", "--tau", "0.1", "--steps", "5"]) == 1
        assert "--graph" in capsys.readouterr().err

    def test_underdetermined_timing_exit_1(self):
        assert run_cli(["channel", "--graph", "ring:4", "--tau", "0.1"]) == 1

    def test_bad_graph_spec_exit_1(self):
        assert run_cli(["channel", "--graph", "tree:9", "--tau", "0.1", "--steps", "5"]) == 1

    def test_io_error_exit_3(self):
        code = run_cli([
            "channel", "--graph", "ring:4", "--tau", "0.1", "--steps", "5",
            "--out", "/nonexistent-dir/out.csv",
        ])
        assert code == 3

    def test_node_out_of_range_exit_1(self):
        assert run_cli([
            "trajectory", "--graph", "ring:4", "--tau", "0.1", "--steps", "5",
            "--start", "44",
        ]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["channel", "--graph", "file:{tmp}/zero.edges", "--tau", "0.1", "--steps", "3"],
         "error: node_count must be positive"),
        (["channel", "--graph", "file:{tmp}/comments.edges", "--tau", "0.1", "--steps", "3"],
         "missing 'nodes <N>' header"),
        (["channel", "--graph", "ring:4", "--time", "0.01", "--tau", "0.1"],
         "error: total time 0.01 shorter than one step tau=0.1"),
        (["convergence", "--steps-list", "4,x"], "bad --steps-list value '4,x'"),
        (["oracle", "--which", "complete-q", "--graph", "file:{tmp}/one.edges", "--tau", "0.1", "--steps", "3"],
         "error: complete graph needs n >= 2, got 1"),
    ], ids=["zero-nodes", "no-header", "time-below-step", "bad-steps-list", "complete-one-node"])
    def test_bad_input_exit_1_without_csv(self, tmp_path, capsys, argv, message):
        (tmp_path / "zero.edges").write_text("nodes 0\n")
        (tmp_path / "comments.edges").write_text("# an edge file\n# of comments only\n")
        (tmp_path / "one.edges").write_text("nodes 1\n")
        out = tmp_path / "run.csv"
        assert run_cli([*(a.format(tmp=tmp_path) for a in argv), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_too_few_trajectories_exit_1(self, tmp_path, capsys, count):
        out = tmp_path / "mc.csv"
        assert run_cli(["montecarlo", "--graph", "ring:4", "--tau", "0.1", "--steps", "3",
                        "--trajectories", count, "--out", str(out)]) == 1
        assert "n_trajectories must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["horizon", "--steps-list", ","],
        ["horizon", "--epsilons", " , "],
        ["convergence", "--steps-list", ","],
        ["convergence", "--steps-list", ""],
    ])
    def test_empty_list_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "scan.csv"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "lists no values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--graph", "ring:4", "--tau", "1e308", "--steps", "3"],
        ["channel", "--graph", "ring:4", "--tau", "inf", "--steps", "3"],
        ["trajectory", "--graph", "complete:7", "--tau", "1e308", "--steps", "3"],
        ["montecarlo", "--graph", "ring:4", "--tau", "nan", "--steps", "3"],
        ["channel", "--graph", "ring:4", "--time", "1", "--tau", "1e-320"],
    ])
    def test_non_finite_timing_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "run.csv"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        # propagators that overflow, built as NaN: the CSV would hold NaN
        (["trajectory", "--graph", "ring:4", "--tau", "0.1", "--steps", "3"], "non-finite"),
        (["classical", "--graph", "ring:4", "--tau", "0.1", "--steps", "3"], "non-finite"),
    ])
    def test_numerical_overflow_exit_2_without_csv(self, tmp_path, capsys, monkeypatch, argv, message):
        nan_propagators(monkeypatch)
        out = tmp_path / "run.csv"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_overflow_on_stdout_exit_2_without_csv(self, capsys, monkeypatch):
        nan_propagators(monkeypatch)
        assert run_cli(["trajectory", "--graph", "complete:4", "--tau", "0.1", "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column p_sim holds a non-finite value" in captured.err

    def test_driver_refuses_non_finite_columns_without_csv(self, tmp_path, monkeypatch):
        # runs under the suite's warnings-as-errors: the step loops reach NaN without a numpy warning
        nan_propagators(monkeypatch)
        out = tmp_path / "complete.csv"
        table = point_table(ExperimentSpec("complete:4", lam=0.5, tau=0.1, steps=1), "trajectory")
        with pytest.raises(FloatingPointError, match="column p_sim holds a non-finite value"):
            write_csv(out, *table)
        assert not out.exists()

    @pytest.mark.parametrize("argv,column", [
        # n t overflows in the closed form cos(n t)
        (["oracle", "--which", "complete-q", "--graph", "complete:4", "--tau", "1e306",
          "--steps", "100"], "p_oracle"),
    ])
    def test_numerical_failure_prints_only_its_message(self, argv, column):
        # in process, a numpy warning would be an error of the suite; in a fresh interpreter it
        # would be printed to stderr before the message
        assert run_cli(argv) == 2
        proc = subprocess.run(
            [sys.executable, "-m", "percwalk", *argv], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"numerical failure: column {column} holds a non-finite value; no CSV written\n"

    @pytest.mark.parametrize("argv,planned", [
        (["trajectory", "--graph", "complete:7", "--tau", "1e12", "--steps", "1"], "substeps"),
        (["montecarlo", "--graph", "complete:7", "--tau", "1e300", "--steps", "1",
          "--trajectories", "2"], "substeps"),
        (["channel", "--graph", "ring:4", "--tau", "1e307", "--steps", "1"], "squarings"),
        # 2 tau maxdeg overflows to inf: an infinite plan, not a numerical failure
        (["trajectory", "--graph", "complete:7", "--tau", "1e308", "--steps", "1"], "substeps"),
        (["classical", "--graph", "complete:7", "--tau", "1e308", "--steps", "1"], "substeps"),
        (["montecarlo", "--graph", "complete:7", "--tau", "1e308", "--steps", "1",
          "--trajectories", "2"], "substeps"),
        (["channel", "--graph", "ring:4", "--tau", "1e308", "--steps", "1"], "squarings"),
        # the graphs of the mask cache, whose propagators are built by the same scaling and squaring
        *[([command, "--graph", graph, "--tau", "1e308", "--steps", "1", *ensemble], "substeps")
          for graph in ("ring:4", "complete:4")
          for command, ensemble in (("trajectory", []), ("classical", []),
                                    ("montecarlo", ["--trajectories", "2"]))],
        # 4e7 substeps in the one step, which repeats no mask
        (["trajectory", "--graph", "ring:4", "--tau", "1e7", "--steps", "1"], "squarings"),
    ])
    def test_unbounded_plan_exit_1_before_running(self, tmp_path, capsys, monkeypatch, argv, planned):
        def no_draws(*args, **kwargs):
            raise AssertionError("keep bits drawn before the plan was checked")

        monkeypatch.setattr(dynamics, "sample_keep_bits", no_draws)
        out = tmp_path / "run.csv"
        t0 = time.perf_counter()
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert planned in err and "limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trajectory", "classical", "montecarlo"])
    def test_plan_refused_before_keep_bits_are_drawn(self, tmp_path, capsys, monkeypatch, command):
        # 3e6 steps of complete:7 would draw 3e6 x 21 float64 bits before the plan was checked
        def no_draws(*args, **kwargs):
            raise AssertionError("keep bits drawn before the Taylor plan was checked")

        monkeypatch.setattr(dynamics, "sample_keep_bits", no_draws)
        out = tmp_path / "run.csv"
        ensemble = ["--trajectories", "2"] if command == "montecarlo" else []
        assert run_cli([command, "--graph", "complete:7", "--tau", "1e4", "--steps", "3000000",
                        *ensemble, "--out", str(out)]) == 1
        assert "limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["-1", "5"])
    @pytest.mark.parametrize("command", ["trajectory", "classical", "montecarlo", "channel"])
    def test_start_out_of_range_exit_1_before_any_step(self, tmp_path, capsys, monkeypatch, command, start):
        def no_steps(*args, **kwargs):
            raise AssertionError("a step ran before --start was checked")

        for name in ("trajectory_states", "classical_trajectory", "ensemble_quantum", "channel_accumulate"):
            monkeypatch.setattr(_kernels, name, no_steps)
        monkeypatch.setattr(dynamics, "sample_keep_bits", no_steps)
        out = tmp_path / "run.csv"
        assert run_cli([command, "--graph", "ring:5", "--tau", "0.1", "--steps", "20",
                        "--start", start, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: node {start} out of range for 5 nodes\n"
        assert not out.exists()

    def test_channel_linalg_error_exit_2_without_csv(self, tmp_path, capsys, monkeypatch):
        def lose_trace(*args, **kwargs):
            raise np.linalg.LinAlgError("channel evolution lost trace")

        monkeypatch.setattr(experiments, "channel_site_probabilities", lose_trace)
        out = tmp_path / "run.csv"
        assert run_cli(["channel", "--graph", "ring:4", "--tau", "0.1", "--steps", "2",
                        "--out", str(out)]) == 2
        assert "numerical failure: channel evolution lost trace" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "percwalk" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
    def test_horizon_epsilon_outside_open_half_line_exit_1(self, tmp_path, capsys, monkeypatch, eps):
        def no_channel(*args, **kwargs):
            raise AssertionError("a channel was built before the thresholds were checked")

        monkeypatch.setattr(experiments, "channel_curve", no_channel)
        out = tmp_path / "hor.csv"
        assert run_cli(["horizon", "--epsilons", eps, "--steps-list", "50", "--out", str(out)]) == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestOneGraphPerCsv:
    """Each call reads its graph once; its references come from that graph, not its spec string."""

    @pytest.fixture
    def ring_file(self, tmp_path):
        path = tmp_path / "ring4.edges"
        write_edge_file(make_ring(4), path)
        return path

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--tau", "0.1", "--steps", "20"],
        ["classical", "--tau", "0.1", "--steps", "20"],
        ["channel", "--tau", "0.1", "--steps", "20"],
        ["montecarlo", "--tau", "0.1", "--steps", "20", "--trajectories", "2"],
        ["oracle", "--which", "rescaled", "--tau", "0.1", "--steps", "20"],
        ["envelope", "--tau", "0.1", "--steps", "200", "--traj-steps", "400"],
        ["convergence", "--time", "2"],
        ["horizon", "--time", "2"],
    ], ids=lambda argv: argv[0])
    def test_a_file_graph_is_read_once(self, tmp_path, monkeypatch, ring_file, argv):
        reads = []

        def counted(spec):
            reads.append(spec)
            return graph_from_spec(spec)

        monkeypatch.setattr(experiments, "graph_from_spec", counted)
        assert run_cli([*argv, "--graph", f"file:{ring_file}", "--out", str(tmp_path / "run.csv")]) == 0
        assert reads == [f"file:{ring_file}"]

    def test_envelope_references_do_not_depend_on_the_spec_string(self, tmp_path, ring_file):
        named, from_file = tmp_path / "named.csv", tmp_path / "file.csv"
        assert run_cli(["envelope", "--seed", "3", "--graph", "ring:4", "--out", str(named)]) == 0
        assert run_cli(["envelope", "--seed", "3", "--graph", f"file:{ring_file}",
                        "--out", str(from_file)]) == 0
        named_lines, file_lines = named.read_text().splitlines(), from_file.read_text().splitlines()
        assert named_lines.pop(2) == "# graph = ring:4"
        assert file_lines.pop(2) == f"# graph = file:{ring_file}"
        assert named_lines == file_lines

    @pytest.mark.parametrize("command", ["trajectory", "classical", "montecarlo", "channel"])
    def test_bad_stride_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("keep bits were drawn or a channel was built before the stride was checked")

        monkeypatch.setattr(dynamics, "sample_keep_bits", no_work)
        monkeypatch.setattr(experiments, "build_step_channel", no_work)
        out = tmp_path / "run.csv"
        ensemble = ["--trajectories", "2"] if command == "montecarlo" else []
        assert run_cli([command, "--graph", "ring:5", "--tau", "0.1", "--steps", "20", "--stride", "0",
                        *ensemble, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sample_stride must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("traj_steps,message", [
        ("0", "trajectory_steps must be >= 1, got 0"),
        ("-1000", "trajectory_steps must be >= 1, got -1000"),
        ("3001", "trajectory_steps=3001 must be a multiple of the channel steps=1000"),
    ])
    def test_envelope_refuses_trajectory_steps_before_the_channel(
        self, tmp_path, capsys, monkeypatch, traj_steps, message
    ):
        def no_channel(*args, **kwargs):
            raise AssertionError("a channel was built before trajectory_steps was checked")

        monkeypatch.setattr(experiments, "build_step_channel", no_channel)
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", "--traj-steps", traj_steps, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestParser:
    """One parser serves every call of a process; each call's texts are those of a fresh parser."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["-h"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["channel", "-h"],
        [],
        ["chanel"],
        ["channel", "--bogus", "1"],
        ["channel", "--tau", "x"],
        ["channel", "--config", "CONFIG"],  # a key that only montecarlo has is still refused
        ["channel", "--trajectories", "5"],  # a flag that only montecarlo has
        ["channel", "--graph", "ring:4", "extra"],
        ["oracle", "--which", "nope"],
        ["montecarlo", "--traj", "x"],  # a prefix of --trajectories
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_texts_and_exit_codes_match_the_full_parser(self, tmp_path, capsys, monkeypatch, argv):
        config = tmp_path / "run.cfg"
        config.write_text("graph = ring:4\ntau = 0.1\nsteps = 3\ntrajectories = 5\n")
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        code = run_cli(argv)
        got = (code, *capsys.readouterr())
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert got == (run_cli(argv), *capsys.readouterr())
        assert got[0] == (0 if {"--help", "-h"} & set(argv) else 1)

    def test_a_reused_parser_behaves_like_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("graph = ring:4\ntau = 0.1\nsteps = 3\ntrajectories = 5\n")
        calls = [
            ["channel", "--tau", "x"],
            ["channel", "--help"],
            ["montecarlo", "--config", str(config)],
            ["channel", "--graph", "ring:4", "--tau", "0.1", "--steps", "2"],
        ]
        flagged = []
        common_flags = cli._common_flags
        monkeypatch.setattr(cli, "_common_flags",
                            lambda p, command: (flagged.append(p.prog), common_flags(p, command)))
        cli.build_parser.cache_clear()
        try:
            reused = [(run_cli(argv), *capsys.readouterr()) for argv in calls]
            assert len(flagged) == 8  # every subcommand's flags, built once for all four calls
            for argv, got in zip(calls, reused):
                cli.build_parser.cache_clear()
                assert got == (run_cli(argv), *capsys.readouterr())
        finally:
            cli.build_parser.cache_clear()
        assert [code for code, _, _ in reused] == [1, 0, 0, 0]

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        # a flag outside these sets would be accepted and do nothing
        common = {"graph", "lambda", "tau", "steps", "time", "start", "out", "config"}
        point = common | {"seed", "stride"}
        want = {
            "trajectory": point,
            "classical": point,
            "channel": point,
            "montecarlo": point | {"trajectories"},
            "oracle": common | {"stride", "which", "target"},
            "convergence": common | {"seed", "steps_list"},
            "horizon": common | {"seed", "steps_list", "epsilons"},
            "envelope": point | {"traj_steps"},
        }
        parser = cli.build_parser()
        got = {command: set(vars(parser.parse_args([command]))) - {"command"} for command in cli._COMMANDS}
        assert got == want

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--which", "flat", "--graph", "ring:4", "--tau", "0.5", "--steps", "2"], "seed"),
        (["convergence", "--graph", "ring:4", "--time", "1", "--steps-list", "5"], "stride"),
        (["horizon", "--graph", "ring:4", "--time", "1", "--steps-list", "5"], "stride"),
    ], ids=["oracle-seed", "convergence-stride", "horizon-stride"])
    def test_a_flag_the_command_does_not_read_exit_1(self, tmp_path, capsys, argv, flag):
        assert run_cli([*argv, f"--{flag}", "1"]) == 1
        assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = 1\n")
        assert run_cli([*argv, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"unknown config keys: {flag}\n"

    def test_the_readme_paper_runs_parse(self):
        # README's "The paper's runs" are the paper's settings: each of its commands must still parse
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        commands = [shlex.split(line.replace("$lam", "0.2"))[1:]
                    for block in blocks for line in block.replace("\\\n", " ").splitlines()
                    if line.strip().startswith("percwalk ")]
        assert {argv[0] for argv in commands} == {
            "trajectory", "classical", "channel", "oracle", "envelope", "convergence", "horizon"}
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = ring:5\nlambda = 0.4\ntau = 0.1\nsteps = 30\nseed = 6\n")
        out = tmp_path / "out.csv"
        code = run_cli(["trajectory", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        meta, _ = read_csv(out)
        assert meta["graph"] == "ring:5" and meta["lambda"] == "0.40000000000000002"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = ring:5\nlambda = 0.4\ntau = 0.1\nsteps = 30\n")
        out = tmp_path / "out.csv"
        code = run_cli([
            "trajectory", "--config", str(cfg), "--lambda", "0.9", "--out", str(out),
        ])
        assert code == 0
        meta, _ = read_csv(out)
        assert meta["lambda"] == "0.90000000000000002"

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = ring:5\nwibble = 3\n")
        assert run_cli(["trajectory", "--config", str(cfg), "--tau", "0.1", "--steps", "5"]) == 1
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("trajectory", {}),
        ("classical", {}),
        ("channel", {}),
        ("montecarlo", {"trajectories": "5"}),
        ("oracle", {"which": "rescaled", "target": "1", "seed": None}),
        ("convergence", {"steps-list": "50,100", "stride": None}),
        ("horizon", {"steps-list": "50,100", "epsilons": "0.05,0.1", "stride": None}),
        ("envelope", {"graph": "ring:4", "lambda": "0.2", "start": "0", "traj-steps": "40"}),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_every_key_gives_the_csv_of_its_flag(self, tmp_path, command, flags):
        # None drops a flag that the command does not take
        flags = {"graph": "ring:5", "lambda": "0.3", "tau": "0.1", "steps": "20", "time": "2",
                 "start": "2", "seed": "4", "stride": "3", **flags}
        flags = {key: value for key, value in flags.items() if value is not None}
        by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in {**flags, "out": by_config}.items()))
        argv = [command, *(arg for key, value in flags.items() for arg in (f"--{key}", value))]
        code = run_cli(argv + ["--out", str(by_flags)])
        assert code in (0, 2)  # a short envelope may not fit
        assert run_cli([command, "--config", str(cfg)]) == code
        assert by_config.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("key,value", [("which", "nope"), ("steps", "x"), ("lambda", "")])
    def test_config_values_are_checked_as_flags(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli(["oracle", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert run_cli(["oracle", f"--{key}={value}"]) == 1
        assert err == capsys.readouterr().err
        assert f"argument --{key}: invalid" in err

    def test_missing_config_file_exit_3(self):
        assert run_cli(["trajectory", "--graph", "ring:4", "--tau", "0.1", "--steps", "5",
                        "--config", "/nonexistent.cfg"]) == 3
