"""Benchmark percwalk end to end through its CLI on the paper's workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``. The run byte-compiles
``src/``, then starts worker processes (``worker.py``) one after another.
Each imports percwalk and warms up on the workload's tiny version; that is
its set-up time. The last one then repeats the workload through
``percwalk.harness.cli.cli_main`` for S seconds. Every CSV is then checked
(``checks.py``).

The host's speed drifts, so the timed end-to-end metrics are normalized:
a fixed reference computation (``worker.reference_s``) is timed next to
every CLI call and every set-up, and each time is scaled to a host on which
the reference takes REFERENCE_S. ``wall_norm_s`` is the median over
repetitions of the scaled time from the first CLI call to the last CSV;
``setup_s`` the median over processes of the scaled set-up time. The raw
seconds are printed and stored next to them.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics from the tracer (``tracer.py``). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. Every
run also writes ``.perfbench/results/<workload>-seed<N>-trace<T>-<time>.json``
with the provenance, every repetition's samples, every check and, when
traced, the recorded spans.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from metrics import END_TO_END_UNITS, EXACT_COUNTS, PER_LAYER, TRACE_TIMES, layer_values

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# processes that only import and warm up, besides the timed one, to sample set-up time
SETUP_PROBES = 4
WORKER_GRACE_S = 60
# On a shared host the speed drifts by up to 2x for tens of seconds at a time;
# scaled times read as seconds on a host on which worker.reference_s takes
# this long (about its time on a 2-vCPU Xeon VM).
REFERENCE_S = 0.04
EPS = float(np.finfo(np.float64).eps)
# The workload runs single-threaded: on a small shared machine a second BLAS
# thread contends with other processes, and stalls the run when it loses.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _call_list(w) -> list[dict]:
    return [{"key": c.key, "argv": c.argv()} for c in w.calls]


def _run_worker(plan: dict, work: Path, index: int) -> dict | None:
    plan_path, result_path = work / f"plan{index}.json", work / f"result{index}.json"
    plan_path.write_text(json.dumps(plan))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=WORKER_ENV,
            timeout=plan["seconds"] + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {index} timed out and was stopped", file=sys.stderr)
        return None
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker {index} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def normalized(seconds: list[float], reference_s: list[float]) -> float:
    """Total of ``seconds``, each scaled to a host on which the reference takes REFERENCE_S."""
    return sum(REFERENCE_S * t / ref for t, ref in zip(seconds, reference_s))


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q = values[0] if values else float("nan")
        return {"p25": q, "median": q, "p75": q, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "median": statistics.median(values), "p75": q3, "n": len(values)}


def _check_reps(workload, reps: list[dict]) -> tuple[list[dict], float, dict]:
    """Check every CSV of every repetition.

    Returns the check records, the largest deviation from an independent
    reference (first repetition) and each call's largest |simulated - oracle|.
    """
    # checks imports percwalk, so it loads only once src/ is known to exist
    from checks import check_csv, max_abs_err

    records, firsts, oracle_err, ref_dev = [], {}, {}, 0.0
    for r, rep in enumerate(reps):
        for call, code in zip(workload.calls, rep["codes"]):
            records.append({"rep": r, "call": call.key, "check": "exit code", "ok": code == 0,
                            "detail": f"exit code {code}"})
            if code != 0:
                continue
            found, data = check_csv(call, workload, Path(rep["dir"]) / f"{call.key}.csv", firsts.get(call.key))
            if data is not None and call.key not in firsts:
                firsts[call.key] = data
                oracle_err[call.key] = max_abs_err(call, *data)
                ref_dev = max([ref_dev] + [c.deviation for c in found if c.deviation is not None])
            records += [{"rep": r, "call": call.key, "check": c.name, "ok": c.ok, "detail": c.detail}
                        for c in found]
    return records, ref_dev, oracle_err


def _layer_metrics(traced: list[dict], untraced_walls: list[float], samples: dict, out: dict) -> dict:
    """Per-layer metrics (medians over the traced repetitions).

    Adds the per-repetition values to ``samples``, a "counts repeat exactly"
    record per extra traced repetition to ``out["checks"]``, and the absent
    spans, broken hooks and first traced repetition's spans to ``out``.
    """
    per_rep = [layer_values(rep["layers"]) for rep in traced]
    for name in PER_LAYER:
        samples[name] = [values[name] for values, _ in per_rep]
    samples["trace.wall_s"] = [sum(rep["call_s"]) for rep in traced]
    for values, _ in per_rep[1:]:
        same = {k: [per_rep[0][0][k], values[k]] for k in EXACT_COUNTS if values[k] != per_rep[0][0][k]}
        out["checks"].append({"rep": None, "call": None, "check": "counts repeat exactly", "ok": not same,
                              "detail": json.dumps(same) if same else ""})
    metrics = {name: statistics.median(samples[name]) for name in PER_LAYER}
    metrics["trace.wall_s"] = statistics.median(samples["trace.wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    out["absent"] = per_rep[0][1]
    out["broken_hooks"] = traced[0]["layers"]["broken_hooks"]
    out["spans"] = traced[0]["layers"]["spans"]
    units = {name: spec[0] for name, spec in PER_LAYER.items()} | TRACE_TIMES
    return {k: (metrics[k], units[k]) for k in units}


def measure(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
            workload=None) -> dict:
    """Run one benchmark measurement and return every figure it produced.

    ``probes`` extra processes only import and warm up, to sample set-up
    time; the last process also times ``workload`` (default: the full-size
    ``name`` workload for ``seed``) for ``seconds``.
    """
    workload = workload or workloads.build(name, seed)
    warmup = _call_list(workloads.build(name, seed, tiny=True))
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR / "tmp"))
    try:
        results = []
        for i in range(probes + 1):
            timed = i == probes
            plan = {"src": str(ROOT / "src"), "out_dir": str(work / f"w{i}"), "warmup": warmup,
                    "calls": _call_list(workload), "seconds": seconds if timed else 0.0,
                    "min_reps": (2 if trace else 1) if timed else 0, "trace": trace}
            results.append(_run_worker(plan, work, i))
        main = results[-1]
        if main is None or not main["reps"]:
            raise RuntimeError("the timed worker finished no repetition")
        reps = main["reps"]
        records, ref_dev, oracle_err = _check_reps(workload, reps)
        untraced = [rep for rep in reps if not rep["traced"]]
        traced = [rep for rep in reps if rep["traced"]]
        samples = {"wall_s": [sum(rep["call_s"]) for rep in untraced],
                   "wall_norm_s": [normalized(rep["call_s"], rep["reference_s"]) for rep in untraced],
                   "reference_s": [statistics.fmean(rep["reference_s"]) for rep in untraced]}
        out = {"checks": records, "reps": len(reps), "call_s": [rep["call_s"] for rep in untraced],
               "worker": {k: main[k] for k in ("kernel_backend", "blas_threads")},
               "max_abs_err_vs_oracle": oracle_err, "max_dev_vs_reference": ref_dev}
        if trace:
            out["metrics"] = _layer_metrics(traced, samples["wall_s"], samples, out)
        # every failed probe, call and check counts once
        attempted = len(records) + len(results) - 1
        failed = sum(not c["ok"] for c in records) + sum(r is None for r in results[:-1])
        if not trace:
            done = [r for r in results if r is not None]
            samples["setup_raw_s"] = [r["setup_s"] for r in done]
            samples["setup_s"] = [normalized([r["setup_s"]], [r["setup_reference_s"]]) for r in done]
            # agreement beyond the float64 resolution counts as that resolution
            digits = -math.log10(max(ref_dev, EPS))
            values = {
                "wall_norm_s": statistics.median(samples["wall_norm_s"]),
                "setup_s": statistics.median(samples["setup_s"]),
                "peak_rss_mb": main["peak_rss_mb"],
                "accuracy_digits": digits,
                "pass_frac": 1.0 - failed / attempted,
            }
            out["metrics"] = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
        out.update(attempted=attempted, failed=failed, samples=samples,
                   quartiles={k: _quartiles(v) for k, v in samples.items()})
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def provenance(worker: dict) -> dict:
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": worker["blas_threads"],
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": worker["kernel_backend"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "percwalk" / "__init__.py").is_file():
        print(f"percwalk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    started = time.time()
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res["provenance"] = provenance(res.pop("worker"))
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               started_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)))

    for c in res["checks"]:
        if not c["ok"]:
            print(f"FAILED check rep={c['rep']} call={c['call']}: {c['check']}: {c['detail']}")
    for name, (value, unit) in res["metrics"].items():
        q = res["quartiles"].get(name)
        spread = f"  (p25 {q['p25']:.6g}, p75 {q['p75']:.6g}, n={q['n']})" if q and q["n"] > 1 else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{spread}")
    for name in ("wall_s", "setup_raw_s", "reference_s"):  # unscaled seconds
        if name in res["quartiles"]:
            q = res["quartiles"][name]
            print(f"{args.workload} unscaled {name}: median {q['median']:.6g} s "
                  f"(p25 {q['p25']:.6g}, p75 {q['p75']:.6g}, n={q['n']})")
    for key, err in res["max_abs_err_vs_oracle"].items():
        print(f"{args.workload} {key}: max |simulated - oracle| = {err:.6g}")
    print(f"{args.workload} max |CSV - independent reference| = {res['max_dev_vs_reference']:.3e}")
    for name in res.get("absent", []):
        print(f"{args.workload} {name}: span absent, reported as 0")

    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(res, indent=1))
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
