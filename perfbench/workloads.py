"""The benchmark's workloads: which CLI calls each one makes, built from the seed.

A workload is a fixed list of ``percwalk`` CLI calls. ``build`` returns it
at full size for timing; ``build(..., tiny=True)`` returns the same calls on
small inputs, which the benchmark runs once as warm-up before timing and
which its own tests use.

Why each workload is here:

* ``complete15-walks``: the per-step propagator with a fresh Laplacian and
  ``eigh`` every step (105 edges, so no mask ever repeats).
* ``lattice10x10-montecarlo``: the large-d (d=100) ensemble path, bound by
  ``eigh``, with the per-trajectory loop and the variance-centre re-run.
* ``ring15-channel``: the 2^15-realization exact channel and its evolution;
  no per-step propagator runs, so propagator changes should not move it.
* ``ring4-longtime``: 16 possible masks, so the mask cache hits on nearly
  every step and time goes to per-step interpreter overhead; the only
  workload with the envelope fit and a stride-1 CSV.
"""
from __future__ import annotations

from dataclasses import dataclass, field

NAMES = ("complete15-walks", "lattice10x10-montecarlo", "ring15-channel", "ring4-longtime")

CHANNEL_LAMBDAS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class Call:
    """One CLI call: its subcommand, its flags and the CSV columns it must write."""

    key: str
    command: str
    flags: dict = field(default_factory=dict)
    columns: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        """The CLI arguments, without --out."""
        args = [self.command]
        for flag, value in self.flags.items():
            args += [f"--{flag}", str(value)]
        return args

    @property
    def expected_rows(self) -> int:
        steps, stride = int(self.flags["steps"]), int(self.flags["stride"])
        return steps // stride + 1 + (1 if steps % stride else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # lambda of the ring15-channel CSV whose channel the checks rebuild independently
    replay_lambda: float | None = None


def _walk_calls(seed: int, steps: int) -> tuple[Call, ...]:
    flags = {"graph": "complete:15", "lambda": 0.3, "tau": 1e-4, "steps": steps,
             "stride": 100, "start": 0, "seed": seed}
    cols = ("t", "p_sim", "p_oracle")
    return (Call("trajectory", "trajectory", dict(flags), cols),
            Call("classical", "classical", dict(flags), cols))


def _montecarlo_calls(seed: int, steps: int, stride: int) -> tuple[Call, ...]:
    flags = {"graph": "lattice2d:10x10", "lambda": 0.5, "tau": 1e-3, "steps": steps,
             "stride": stride, "start": 44, "trajectories": 16, "seed": seed}
    return (Call("montecarlo", "montecarlo", flags, ("t", "p_mean", "p_stderr", "p_oracle")),)


def _channel_calls(seed: int, graph: str, nodes: int, steps: int) -> tuple[Call, ...]:
    # the channel has no randomness; the seed picks the start node
    return tuple(
        Call(f"channel_lam{lam:g}", "channel",
             {"graph": graph, "lambda": lam, "tau": 0.004, "steps": steps, "stride": 10,
              "start": seed % nodes, "seed": seed},
             ("t", "p_sim", "p_oracle"))
        for lam in CHANNEL_LAMBDAS
    )


def _envelope_calls(seed: int, traj_steps: int) -> tuple[Call, ...]:
    # the ring:4 envelope defaults (lambda 0.2, tau 0.1, 1000 steps, stride 1, start 0)
    flags = {"graph": "ring:4", "lambda": 0.2, "tau": 0.1, "steps": 1000, "stride": 1,
             "start": 0, "seed": seed, "traj-steps": traj_steps}
    cols = ("t", "p_channel", "p_trajectory", "p_quantum_oracle", "p_classical_oracle")
    return (Call("envelope", "envelope", flags, cols),)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "complete15-walks":
        calls = _walk_calls(seed, 300 if tiny else 2000)
    elif name == "lattice10x10-montecarlo":
        calls = _montecarlo_calls(seed, *((10, 5) if tiny else (30, 10)))
    elif name == "ring15-channel":
        calls = _channel_calls(seed, *(("ring:6", 6, 50) if tiny else ("ring:15", 15, 5000)))
        return Workload(name, calls, CHANNEL_LAMBDAS[seed % len(CHANNEL_LAMBDAS)])
    elif name == "ring4-longtime":
        calls = _envelope_calls(seed, 3000 if tiny else 60_000)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    return Workload(name, calls)
