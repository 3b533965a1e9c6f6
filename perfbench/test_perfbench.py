"""Tests of the benchmark itself, on the tiny version of each workload.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace, seed=3, workload=None):
    return run.measure(name, seed, 0.0, trace, probes=0,
                       workload=workload or workloads.build(name, seed, tiny=True))


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END_UNITS
    per_layer = {name: spec[0] for name, spec in metrics.PER_LAYER.items()} | metrics.TRACE_TIMES
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    res = tiny_run(name, trace)
    assert res["failed"] == 0, [c for c in res["checks"] if not c["ok"]]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in res["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(np.isfinite(v) for v, _ in res["metrics"].values())
    if not trace:
        assert res["metrics"]["pass_frac"][0] == 1.0
        assert res["metrics"]["accuracy_digits"][0] > 0
    else:
        assert res["absent"] == [] and res["broken_hooks"] == []
        for wall, self_sum in zip(res["samples"]["trace.wall_s"], res["samples"]["trace.self_sum_s"]):
            # spans cover the blocking path: only the loop between CLI calls
            # (and any scheduling hiccup in it) is outside them
            assert 0 <= wall - self_sum <= 0.05 * wall + 5e-3


def test_times_are_scaled_by_the_reference():
    assert run.normalized([1.0, 2.0], [run.REFERENCE_S] * 2) == 3.0
    # a host half as fast doubles both the calls and the reference
    assert run.normalized([2.0, 4.0], [2 * run.REFERENCE_S] * 2) == 3.0


def test_perturbed_csv_is_a_failure(monkeypatch):
    original = checks.read_csv

    def shifted(path):
        meta, names, data = original(path)
        if Path(path).name == "trajectory.csv":
            data[1, names.index("p_sim")] += 1e-6
        return meta, names, data

    monkeypatch.setattr(checks, "read_csv", shifted)
    res = tiny_run("complete15-walks", False)
    assert res["failed"] >= 1
    assert res["metrics"]["pass_frac"][0] < 1.0


def test_nonzero_exit_code_is_a_failure():
    w = workloads.build("ring4-longtime", 3, tiny=True)
    bad = dataclasses.replace(w.calls[0], flags={**w.calls[0].flags, "lambda": 7})
    res = tiny_run("ring4-longtime", False, workload=dataclasses.replace(w, calls=(bad,)))
    assert res["failed"] == 1
    assert any(c["check"] == "exit code" and not c["ok"] for c in res["checks"])
    assert res["metrics"]["pass_frac"][0] < 1.0


@pytest.mark.parametrize("name", ["complete15-walks", "ring4-longtime"])
def test_counts_repeat_exactly_across_runs(name):
    first, second = tiny_run(name, True), tiny_run(name, True)
    for key in ("linalg.eigh.calls", "kernels.distinct_masks", "kernels.steps"):
        assert first["metrics"][key][0] == second["metrics"][key][0] > 0


def test_tracer_restores_originals_and_reports_absent_spans(tmp_path):
    from percwalk import _kernels, dynamics
    from percwalk.harness.cli import cli_main

    originals = (np.linalg.eigh, np.linalg.norm, dynamics.sample_keep_bits, _kernels.trajectory_states)
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.sample_keep_bits is not originals[2]
        code = cli_main(["trajectory", "--graph", "ring:4", "--steps", "20", "--tau", "0.1",
                         "--out", str(tmp_path / "t.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (np.linalg.eigh, np.linalg.norm, dynamics.sample_keep_bits, _kernels.trajectory_states) == originals
    summary = tracer.summary()
    assert summary["stats"]["kernels.trajectory_states"][0] == 1
    assert summary["counters"]["kernels.steps"] == 20
    summary["names"].remove("kernels.hamiltonian_from_bits")
    values, absent = metrics.layer_values(summary)
    assert "kernels.hamiltonian_from_bits.calls" in absent
    assert values["kernels.hamiltonian_from_bits.calls"] == 0.0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring4-longtime", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
