"""The benchmark's metrics: names, units, and how per-layer values come from a trace.

End-to-end metrics are measured with tracing off (``run.measure``); the
timed ones (``wall_norm_s``, ``setup_s``) are scaled to a fixed host speed
by a reference computation timed next to them (``run.normalized``). Each
per-layer metric is computed from the layer summary of one traced repetition
(``tracer.Tracer.summary``): ``<span>.s`` is the span's inclusive time,
``<layer>.self_s`` the layer's self time (span time minus child spans),
counts come from the tracer's hooks, and values marked GFLOP or ratio are
computed from the inputs, not measured.
"""
from __future__ import annotations

END_TO_END_UNITS = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
    "pass_frac": "ratio",
}

# kernels that advance trajectories step by step
STEP_KERNELS = ("kernels.trajectory_states", "kernels.classical_trajectory",
                "kernels.ensemble_quantum", "kernels.ensemble_classical")
LAYERS = ("cli", "experiments", "csvio", "oracles", "dynamics", "graph", "kernels", "linalg")


def _span_s(span):
    return ("s", lambda L: L["stats"][span][1], [span])


def _span_calls(span):
    return ("count", lambda L: L["stats"][span][0], [span])


def _counter(name, span, unit="count"):
    return (unit, lambda L: L["counters"].get(name, 0.0), [span])


def _ns_per_step(L):
    steps = L["counters"].get("kernels.steps", 0)
    busy = sum(L["stats"].get(k, [0, 0.0])[1] for k in STEP_KERNELS)
    return busy / steps * 1e9 if steps else 0.0


def _reuse(L):
    steps = L["counters"].get("kernels.steps", 0)
    return 1.0 - L["counters"].get("kernels.distinct_masks", 0) / steps if steps else 0.0


# name -> (unit, value from one traced repetition's layer summary, spans it needs)
PER_LAYER = {
    "kernels.hamiltonian_from_bits.s": _span_s("kernels.hamiltonian_from_bits"),
    "kernels.hamiltonian_from_bits.calls": _span_calls("kernels.hamiltonian_from_bits"),
    "linalg.eigh.s": _span_s("linalg.eigh"),
    "linalg.eigh.calls": _span_calls("linalg.eigh"),
    "linalg.norm.calls": _span_calls("linalg.norm"),
    "kernels.trajectory_states.s": _span_s("kernels.trajectory_states"),
    "kernels.classical_trajectory.s": _span_s("kernels.classical_trajectory"),
    "kernels.ensemble_quantum.s": _span_s("kernels.ensemble_quantum"),
    "kernels.steps": _counter("kernels.steps", "kernels.trajectory_states"),
    "kernels.ns_per_step": ("ns", _ns_per_step, ["kernels.trajectory_states"]),
    "kernels.distinct_masks": _counter("kernels.distinct_masks", "kernels.trajectory_states"),
    "kernels.mask_reuse_ratio": ("ratio", _reuse, ["kernels.trajectory_states"]),
    "dynamics.monte_carlo_channel.centre_s": (
        "s", lambda L: L["under"].get("kernels.trajectory_states<dynamics.monte_carlo_channel", 0.0),
        ["dynamics.monte_carlo_channel", "kernels.trajectory_states"]),
    "graph.sample_keep_bits.s": _span_s("graph.sample_keep_bits"),
    "graph.sample_keep_bits.bits": _counter("graph.sample_keep_bits.bits", "graph.sample_keep_bits"),
    "kernels.channel_accumulate.s": _span_s("kernels.channel_accumulate"),
    "kernels.channel_accumulate.realizations": _counter(
        "kernels.channel_accumulate.realizations", "kernels.channel_accumulate"),
    "kernels.channel_accumulate.gflop": _counter(
        "kernels.channel_accumulate.gflop", "kernels.channel_accumulate", "GFLOP"),
    "dynamics.evolve_channel.s": _span_s("dynamics.evolve_channel"),
    "dynamics.evolve_channel.steps": _counter("dynamics.evolve_channel.steps", "dynamics.evolve_channel"),
    "dynamics.evolve_channel.gflop": _counter("dynamics.evolve_channel.gflop", "dynamics.evolve_channel", "GFLOP"),
    "experiments.fit_exponential_envelope.s": _span_s("experiments.fit_exponential_envelope"),
    "oracles.s": ("s", lambda L: L["layer_incl"].get("oracles", 0.0), []),
    "csvio.render_csv.s": _span_s("csvio.render_csv"),
    "csvio.render_csv.rows": _counter("csvio.render_csv.rows", "csvio.render_csv"),
    "csvio.render_csv.bytes": _counter("csvio.render_csv.bytes", "csvio.render_csv", "B"),
    **{f"{layer}.self_s": ("s", lambda L, layer=layer: L["layer_self"].get(layer, 0.0), [])
       for layer in LAYERS},
    "trace.self_sum_s": ("s", lambda L: sum(L["layer_self"].values()), []),
}
# computed from the timings of whole repetitions, not from one summary
TRACE_TIMES = {"trace.wall_s": "s", "trace.overhead_s": "s"}
# counts that must repeat exactly from one traced repetition to the next
EXACT_COUNTS = ("kernels.hamiltonian_from_bits.calls", "linalg.eigh.calls", "linalg.norm.calls",
                "kernels.steps", "kernels.distinct_masks", "graph.sample_keep_bits.bits",
                "kernels.channel_accumulate.realizations", "dynamics.evolve_channel.steps",
                "csvio.render_csv.rows", "csvio.render_csv.bytes")


def layer_values(summary: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced repetition, and the metrics whose spans are absent."""
    values, absent = {}, []
    for name, (_, fn, spans) in PER_LAYER.items():
        missing = [s for s in spans if s not in summary["names"]]
        try:
            values[name] = float(fn(summary))
        except KeyError:  # span wrapped but never entered
            values[name] = 0.0
        if missing:
            absent.append(name)
            values[name] = 0.0
    return values, absent
