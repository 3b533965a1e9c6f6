"""Output checks for the benchmark's CSVs, against references built apart from percwalk's kernels.

Every CSV gets the shape checks (columns, row count, probabilities in
[-TOL, 1 + TOL]). The first repetition of a run also gets the reference
checks below; every later repetition ran the same inputs, so it must match the
first one to TOL.

The references share no code with ``percwalk._kernels``: Laplacians are
built from adjacency tables, propagators come from ``scipy.linalg.expm``,
the keep bits are drawn again from the documented stream (PCG64 seeded by
``SeedSequence(seed, spawn_key=(k,))`` for trajectory k, ``rng.random((steps,
edges)) < lam``), and the unpercolated reference uses ``scipy.linalg.eigh``.
Only the graph's edge order, which fixes the keep-bit positions, is read from
``percwalk.graph``. TOL is the package's state tolerance
(``percwalk.walk.STATE_NORM_ATOL``, 1e-10).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from percwalk.graph import graph_from_spec
from percwalk.walk import STATE_NORM_ATOL as TOL

from workloads import Call, Workload

# rows of each trajectory CSV replayed step by step against scipy expm
REPLAY_ROWS = {"trajectory": 3, "classical": 3, "montecarlo": 1, "envelope": 5}
# tolerances the repository's acceptance tests fix for these configurations
COMPLETE15_MAX_DEV = {"trajectory": 0.05, "classical": 0.02}
RING4_ENVELOPE_A = (0.70, 0.79)
RING4_ENVELOPE_B = (0.044, 0.054)
RING4_FINAL = (0.23, 0.27)
# column pairs (simulated, oracle) whose largest difference is the run's error
ERROR_COLUMNS = {
    "trajectory": ("p_sim", "p_oracle"),
    "classical": ("p_sim", "p_oracle"),
    "channel": ("p_sim", "p_oracle"),
    "montecarlo": ("p_mean", "p_oracle"),
    "envelope": ("p_channel", "p_quantum_oracle"),
}
EXPM_BATCH = 4096


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    # largest |CSV value - independent reference|, for checks that compare values
    deviation: float | None = None


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(metadata, column names, rows x columns array) of a percwalk CSV."""
    meta, names, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].partition("=")
            if sep:
                meta[key.strip()] = val.strip()
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    if names is None:
        raise ValueError(f"{path}: no column header")
    return meta, names, np.array(rows, dtype=np.float64).reshape(len(rows), len(names))


def max_abs_err(call: Call, names: list[str], data: np.ndarray) -> float:
    sim, ref = ERROR_COLUMNS[call.command]
    return float(np.max(np.abs(data[:, names.index(sim)] - data[:, names.index(ref)])))


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def laplacian(n: int, edges, bits) -> np.ndarray:
    adj = np.zeros((n, n))
    for (u, v), keep in zip(edges, bits):
        if keep:
            adj[u, v] = adj[v, u] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def keep_bits(seed: int, k: int, steps: int, n_edges: int, lam: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
    return rng.random((steps, n_edges)) < lam


def replay(n: int, edges, bits: np.ndarray, tau: float, x0: np.ndarray, every: int, quantum: bool) -> np.ndarray:
    """States after every ``every`` steps (and at step 0), one expm per distinct mask."""
    cache: dict[bytes, np.ndarray] = {}
    x = x0.astype(np.complex128 if quantum else np.float64)
    out = [x]
    for s, row in enumerate(bits, start=1):
        key = np.packbits(row).tobytes()
        prop = cache.get(key)
        if prop is None:
            h = laplacian(n, edges, row)
            prop = scipy.linalg.expm(-1j * tau * h if quantum else -tau * h)
            cache[key] = prop
        x = prop @ x
        if s % every == 0:
            out.append(x)
    return np.array(out)


def unpercolated_return(n: int, edges, start: int, times: np.ndarray, quantum: bool) -> np.ndarray:
    w, v = scipy.linalg.eigh(laplacian(n, edges, np.ones(len(edges), dtype=bool)))
    weights = v[start] ** 2
    if quantum:
        return np.abs(np.exp(-1j * np.multiply.outer(times, w)) @ weights) ** 2
    return np.exp(-np.multiply.outer(times, w)) @ weights


def channel_return(n: int, edges, lam: float, tau: float, start: int, steps: int, stride: int) -> np.ndarray:
    """<start| Phi^k(|start><start|) |start> at k = 0, stride, 2 stride, ..., steps.

    Phi = sum over all 2^E keep masks of p_mask U . U^dag, U = expm(-i tau H_mask),
    built as sum p kron(U, conj U), which acts on row-stacked densities.
    """
    n_edges = len(edges)
    dd = n * n
    sup = np.zeros((dd, dd), dtype=np.complex128)
    shifts = np.arange(n_edges)
    edge_terms = np.array([laplacian(n, edges, np.arange(n_edges) == e) for e in range(n_edges)])
    for lo in range(0, 1 << n_edges, EXPM_BATCH):
        masks = np.arange(lo, min(lo + EXPM_BATCH, 1 << n_edges))
        bits = (masks[:, None] >> shifts) & 1
        kept = bits.sum(axis=1)
        probs = lam**kept * (1 - lam) ** (n_edges - kept)
        hs = np.tensordot(bits, edge_terms, axes=1)
        us = scipy.linalg.expm(-1j * tau * hs).reshape(-1, dd)
        # vec_row(U rho U^dag) = kron(U, conj U) vec_row(rho)
        sup += np.einsum("r,ri,rj->ij", probs, us, us.conj(), optimize=True).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(dd, dd)
    rho = np.zeros(dd, dtype=np.complex128)
    rho[start * n + start] = 1.0
    out = [1.0]
    for s in range(1, steps + 1):
        rho = sup @ rho
        if s % stride == 0 or s == steps:
            out.append(rho[start * n + start].real)
    return np.array(out)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float = TOL) -> Check:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    return Check(name, bool(dev <= tol), f"max deviation {dev:.3e} (tolerance {tol:g})", dev)


def shape_checks(call: Call, names: list[str], data: np.ndarray) -> list[Check]:
    out = [Check("columns", names == list(call.columns), f"got {names}")]
    if not out[0].ok:
        return out
    out.append(Check("rows", data.shape[0] == call.expected_rows,
                     f"{data.shape[0]} rows, expected {call.expected_rows}"))
    probs = data[:, [i for i, c in enumerate(names) if c.startswith("p_")]]
    lo, hi = float(np.min(probs)), float(np.max(probs))
    out.append(Check("probability range", bool(np.all(np.isfinite(probs)) and lo >= -TOL and hi <= 1 + TOL),
                     f"min {lo:.3e}, max {hi:.17g}"))
    return out


def reference_checks(call: Call, workload: Workload, names: list[str], data: np.ndarray, meta: dict) -> list[Check]:
    """Checks against the independent references; run on the first repetition."""
    col = {c: data[:, i] for i, c in enumerate(names)}
    g = graph_from_spec(str(call.flags["graph"]))
    n, edges = g.node_count, g.edges
    lam, seed, start = float(call.flags["lambda"]), int(call.flags["seed"]), int(call.flags["start"])
    tau, steps, stride = float(call.flags["tau"]), int(call.flags["steps"]), int(call.flags["stride"])
    kind = call.command
    times = np.minimum(np.arange(call.expected_rows) * stride, steps) * tau
    out = [_close("time grid", col["t"], times, 1e-12 * max(1.0, steps * tau))]
    oracle_col = "p_quantum_oracle" if kind == "envelope" else "p_oracle"
    out.append(_close("oracle", col[oracle_col], unpercolated_return(n, edges, start, lam * times, kind != "classical")))
    x0 = np.zeros(n)
    x0[start] = 1.0
    if kind in ("trajectory", "classical"):
        rows = REPLAY_ROWS[kind]
        bits = keep_bits(seed, 0, (rows - 1) * stride, len(edges), lam)
        states = replay(n, edges, bits, tau, x0, stride, kind == "trajectory")
        p = np.abs(states[:, start]) ** 2 if kind == "trajectory" else states[:, start]
        out.append(_close(f"replay of rows 0-{rows - 1}", col["p_sim"][:rows], p))
        if str(call.flags["graph"]) == "complete:15":
            dev = max_abs_err(call, names, data)
            tol = COMPLETE15_MAX_DEV[kind]
            out.append(Check("deviation from rescaled reference", dev <= tol, f"{dev:.4f} <= {tol}"))
    elif kind == "montecarlo":
        rows = REPLAY_ROWS[kind] + 1
        k_traj = int(call.flags["trajectories"])
        states = np.array([
            replay(n, edges, keep_bits(seed, k, (rows - 1) * stride, len(edges), lam), tau, x0, stride, True)
            for k in range(k_traj)
        ])
        p = np.abs(states) ** 2  # (trajectory, row, node)
        stderr = np.sqrt(p.var(axis=0, ddof=1) / k_traj).max(axis=1)
        out.append(_close(f"replay mean of rows 0-{rows - 1}", col["p_mean"][:rows], p[:, :, start].mean(axis=0)))
        out.append(_close(f"replay stderr of rows 0-{rows - 1}", col["p_stderr"][:rows], stderr))
    elif kind == "channel":
        if lam == workload.replay_lambda:
            out.append(_close("independent channel", col["p_sim"], channel_return(n, edges, lam, tau, start, steps, stride)))
    elif kind == "envelope":
        out.append(_close("classical oracle", col["p_classical_oracle"],
                          unpercolated_return(n, edges, start, lam * times, False)))
        out.append(_close("independent channel", col["p_channel"], channel_return(n, edges, lam, tau, start, steps, stride)))
        traj_steps = int(call.flags["traj-steps"])
        every = traj_steps // steps * stride
        rows = REPLAY_ROWS[kind]
        bits = keep_bits(seed, 0, (rows - 1) * every, len(edges), lam)
        states = replay(n, edges, bits, steps * tau / traj_steps, x0, every, True)
        out.append(_close(f"replay of trajectory rows 0-{rows - 1}", col["p_trajectory"][:rows], np.abs(states[:, start]) ** 2))
        out += _envelope_fit_checks(call, meta, col)
    return out


def _envelope_fit_checks(call: Call, meta: dict, col: dict) -> list[Check]:
    try:
        a, b = float(meta["envelope_a"]), float(meta["envelope_b"])
    except (KeyError, ValueError):
        return [Check("envelope fit", False, f"no fit in metadata: {meta.get('envelope_error', 'missing')}")]
    out = [Check("envelope fit", bool(np.isfinite(a) and np.isfinite(b)), f"a={a}, b={b}")]
    if call.flags["graph"] == "ring:4" and float(call.flags["lambda"]) == 0.2:
        final = float(col["p_channel"][-1])
        out.append(Check("envelope a", RING4_ENVELOPE_A[0] <= a <= RING4_ENVELOPE_A[1], f"a={a:.4f} in {RING4_ENVELOPE_A}"))
        out.append(Check("envelope b", RING4_ENVELOPE_B[0] <= b <= RING4_ENVELOPE_B[1], f"b={b:.4f} in {RING4_ENVELOPE_B}"))
        out.append(Check("flat limit", RING4_FINAL[0] <= final <= RING4_FINAL[1], f"P(T)={final:.4f} in {RING4_FINAL}"))
    return out


def check_csv(call: Call, workload: Workload, path: Path, first: tuple | None) -> tuple[list[Check], tuple | None]:
    """All checks of one CSV. ``first`` is (names, data) of the first repetition's
    CSV for this call, or None when this is the first repetition."""
    try:
        meta, names, data = read_csv(path)
    except (OSError, ValueError) as exc:
        return [Check("readable", False, str(exc))], None
    checks = shape_checks(call, names, data)
    if not all(c.ok for c in checks):
        return checks, None
    if first is None:
        checks += reference_checks(call, workload, names, data, meta)
    else:
        checks.append(_close("same as first repetition", data, first[1]))
    return checks, (names, data)
