"""One benchmark process: import percwalk, warm up, then time repetitions of a workload.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) names the source tree, the warm-up and timed CLI
calls, the output directory, the time budget and the least number of
repetitions; a set-up probe has neither budget nor repetitions. Each repetition calls
``percwalk.harness.cli.cli_main`` in this process, once per call, with
``--out`` pointing into the output directory. With tracing on, repetitions
alternate untraced and traced, so the same process gives both timings.
Untraced repetitions time a fixed reference computation (``reference_s``)
before the first call and after each one, so every call's time can be
scaled to a fixed host speed; the set-up time gets the same. The result file
holds the set-up time, every repetition's call times, reference times, exit
codes and (traced) layer summary, and the process's peak resident memory.
"""
from __future__ import annotations

import ctypes
import glob
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

t_start = time.perf_counter()


def run_calls(cli_main, calls, out_dir: Path, reference=None) -> tuple[list, list, list]:
    """Run the calls in order.

    Returns each call's exit code, its seconds and, when a ``reference``
    timer is given, the mean of the reference times just before and just
    after the call (the reference runs before the first call and after each).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    codes, call_s, refs = [], [], [reference()] if reference else []
    for call in calls:
        t0 = time.perf_counter()
        try:
            codes.append(cli_main(call["argv"] + ["--out", str(out_dir / f"{call['key']}.csv")]))
        except Exception:  # a crash counts as a failed call; the run goes on
            traceback.print_exc()
            codes.append(None)
        call_s.append(time.perf_counter() - t0)
        if reference:
            refs.append(reference())
    return codes, call_s, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def reference_s() -> float:
    """Seconds of a fixed piece of work that uses no percwalk code.

    It mixes the kinds of work the workloads spend their time in: an
    interpreter loop, small-array numpy calls with a dict lookup per step,
    LAPACK ``eigh`` at d=100 and a complex GEMM. Timed next to every
    call, it tells how fast the (shared) host ran at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    sym = rng.random((100, 100))
    sym += sym.T
    gemm = rng.random((150, 150)) + 1j * rng.random((150, 150))
    unitary = np.linalg.qr(rng.random((4, 4)) + 1j * rng.random((4, 4)))[0]
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    x, cache = np.ones(4, dtype=np.complex128), {}
    for i in range(2000):
        u = cache.setdefault(i % 16, unitary)
        x = u @ x
        x /= np.linalg.norm(x)
    for _ in range(6):
        np.linalg.eigh(sym)
    for _ in range(3):
        gemm @ gemm
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, or None where it cannot be read."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from percwalk import _kernels
    from percwalk.harness.cli import cli_main

    out_root = Path(plan["out_dir"])
    run_calls(cli_main, plan["warmup"], out_root / "warmup")
    setup_s = time.perf_counter() - t_start
    setup_reference_s = (reference_s() + reference_s()) / 2

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    reps = []
    deadline = time.perf_counter() + plan["seconds"]
    # start another repetition only while it is expected to end within the budget
    while len(reps) < plan["min_reps"] or (
            reps and time.perf_counter() + statistics.fmean(r["span_s"] for r in reps) <= deadline):
        traced = tracer is not None and len(reps) % 2 == 1
        rep_dir = out_root / f"rep{len(reps)}"
        t0 = time.perf_counter()
        if traced:  # no reference here: its numpy.linalg calls would land in the spans
            tracer.reset()
            tracer.install()
            try:
                codes, call_s, ref_s = run_calls(cli_main, plan["calls"], rep_dir)
            finally:
                tracer.uninstall()
            layers = tracer.summary()
        else:
            codes, call_s, ref_s = run_calls(cli_main, plan["calls"], rep_dir, reference_s)
            layers = None
        reps.append({"dir": str(rep_dir), "traced": traced, "span_s": time.perf_counter() - t0,
                     "call_s": call_s, "reference_s": ref_s, "codes": codes, "layers": layers})

    result = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_backend": _kernels.active_backend(),
        "blas_threads": blas_threads(),
        "reps": reps,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
