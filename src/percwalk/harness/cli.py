"""Command-line interface.

Subcommands: trajectory, channel, montecarlo, classical, oracle,
convergence, horizon, envelope. All emit deterministic CSV (to --out, or
stdout when --out is omitted). Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 I/O error.

Each subcommand's handler runs one experiment driver and returns the CSV's
table ``(meta, columns)``; ``cli_main`` alone writes it, with ``_emit``, and
exits 0. A ``--config`` file's ``key = value`` lines are that subcommand's
``--key value`` flags, and a flag on the command line wins over its key.

The parser is built on first use and reused by every later call in the
process, so only the first call pays for building every subcommand's flags.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .csvio import finite_csv, load_config, write_csv
from .experiments import (
    DEFAULT_CONVERGENCE_SPEC,
    DEFAULT_CONVERGENCE_STEPS,
    DEFAULT_HORIZON_EPSILONS,
    DEFAULT_HORIZON_SPEC,
    DEFAULT_HORIZON_STEPS,
    DEFAULT_LONGTIME_SPEC,
    DEFAULT_TRAJECTORY_STEPS,
    ORACLE_CHOICES,
    ExperimentSpec,
    exp_convergence,
    exp_epsilon_horizon,
    exp_longtime_finite_tau,
    oracle_table,
    point_table,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


_SCANS = ("convergence", "horizon")


def _common_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The flags of every subcommand: a run's --tau and --steps or a scan's --time, and --seed where read."""
    p.add_argument("--graph", help="ring:N | lattice2d:WxH | complete:N | file:PATH")
    p.add_argument("--lambda", type=float, metavar="LAM", help="edge-keep probability in [0, 1]")
    if command in _SCANS:  # each step count S runs at tau = T/S and records every step
        p.add_argument("--time", type=float, metavar="T", help="time window of every step count")
    else:
        p.add_argument("--tau", type=float, help="step size")
        p.add_argument("--steps", type=int, help="number of percolation steps")
        p.add_argument("--stride", type=int, help="record every stride-th step")
    p.add_argument("--start", type=int, help="starting node (0-indexed)")
    if command not in ("oracle", *_SCANS):  # these draw nothing; channel's is kept for the benchmark
        p.add_argument("--seed", type=int, help="RNG seed (PCG64)")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.add_argument("--config", help="key=value config file; flags override it")


@cache
def build_parser() -> _Parser:
    """The CLI parser with every subcommand's flags, built once per process."""
    # the help shows the docstring's first two paragraphs (none under python -OO)
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="percwalk", description=description)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, descr in [
        ("trajectory", "one stochastic quantum trajectory, return probability vs rescaled reference"),
        ("channel", "exact realization-averaged channel, return probability vs rescaled reference"),
        ("montecarlo", "trajectory-ensemble channel estimate with standard errors"),
        ("classical", "one stochastic classical trajectory vs rescaled classical reference"),
        ("oracle", "evaluate a closed-form reference curve on a time grid"),
        ("convergence", "max deviation from the rescaled reference for a ladder of step counts"),
        ("horizon", "time horizon where the rescaled reference holds within relative error"),
        ("envelope", "long-run channel curve with exponential envelope fit"),
    ]:
        # no prefixes: a scan's --steps would otherwise be read as its --steps-list
        p = sub.add_parser(name, help=descr, allow_abbrev=False)
        _common_flags(p, name)
        if name == "montecarlo":
            p.add_argument("--trajectories", type=int,
                           help=f"ensemble size (default {ExperimentSpec.trajectories})")
        if name == "oracle":
            p.add_argument("--which", choices=ORACLE_CHOICES, help="which reference curve")
            p.add_argument("--target", type=int, help="target node for rescaled (default: start)")
        if name in ("convergence", "horizon"):
            p.add_argument("--steps-list", help="comma-separated step counts")
        if name == "horizon":
            p.add_argument("--epsilons", help="comma-separated relative-error thresholds")
        if name == "envelope":
            p.add_argument("--traj-steps", type=int,
                           help=f"steps of the companion trajectory (default {DEFAULT_TRAJECTORY_STEPS})")
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's ``key = value`` lines as ``--key=value`` flags of the subcommand.

    Every flag's destination is its name with ``-`` as ``_``, so a key names
    a flag exactly when the parsed namespace has that destination.
    """
    conf = load_config(args.config)
    known = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    unknown = set(conf) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return [f"--{key}={value}" for key, value in conf.items()]


def _require(args, dest, flag) -> None:
    if getattr(args, dest, None) is None:
        raise UsageError(f"missing required flag {flag}")


# flag dest -> ExperimentSpec field
_SPEC_FIELDS = {"graph": "graph_spec", "lambda": "lam", "time": "total_time"} | {
    dest: dest for dest in ("tau", "steps", "start", "seed", "stride", "trajectories")
}


def _spec_from_args(args, default: ExperimentSpec | None = None) -> ExperimentSpec:
    """The spec of the flags that are set, over ``default`` (a driver's default spec).

    Without ``default``, --graph is required and every unset flag takes the
    ``ExperimentSpec`` field default.
    """
    given = {field: getattr(args, dest) for dest, field in _SPEC_FIELDS.items()
             if getattr(args, dest, None) is not None}
    if default is None:
        _require(args, "graph", "--graph")
        return ExperimentSpec(**given)
    return replace(default, **given)


def _emit(out: str | None, meta: dict, columns) -> None:
    """Write the CSV to ``out``, or stdout; a non-finite column writes nothing (``finite_csv``)."""
    if out is None:
        sys.stdout.write(finite_csv(meta, columns))
    else:
        write_csv(Path(out), meta, columns)


def _parse_list(text: str | None, flag: str, typ, default) -> list:
    """The comma-separated values of ``flag``, or ``default`` when it is not given; none is refused."""
    if text is None:
        return list(default)
    try:
        values = [typ(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag} value {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} {text!r} lists no values")
    return values


def _cmd_point(args) -> tuple[dict, list]:
    """trajectory, classical, channel and montecarlo: one curve at one parameter point."""
    return point_table(_spec_from_args(args), args.command)


def _cmd_oracle(args) -> tuple[dict, list]:
    _require(args, "which", "--which")
    return oracle_table(_spec_from_args(args), args.which, args.target)


def _cmd_convergence(args) -> tuple[dict, list]:
    s_list = _parse_list(args.steps_list, "--steps-list", int, DEFAULT_CONVERGENCE_STEPS)
    return exp_convergence(_spec_from_args(args, DEFAULT_CONVERGENCE_SPEC), s_list)


def _cmd_horizon(args) -> tuple[dict, list]:
    s_list = _parse_list(args.steps_list, "--steps-list", int, DEFAULT_HORIZON_STEPS)
    epsilons = _parse_list(args.epsilons, "--epsilons", float, DEFAULT_HORIZON_EPSILONS)
    return exp_epsilon_horizon(_spec_from_args(args, DEFAULT_HORIZON_SPEC), epsilons, s_list)


def _cmd_envelope(args) -> tuple[dict, list]:
    traj_steps = DEFAULT_TRAJECTORY_STEPS if args.traj_steps is None else args.traj_steps
    return exp_longtime_finite_tau(_spec_from_args(args, DEFAULT_LONGTIME_SPEC), traj_steps)


_COMMANDS = {
    "trajectory": _cmd_point,
    "channel": _cmd_point,
    "montecarlo": _cmd_point,
    "classical": _cmd_point,
    "oracle": _cmd_oracle,
    "convergence": _cmd_convergence,
    "horizon": _cmd_horizon,
    "envelope": _cmd_envelope,
}


def cli_main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.command is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    try:
        if args.config:
            # the file's flags go first, so the command line's win
            args = parser.parse_args([args.command, *_config_flags(args), *argv[1:]])
        _emit(args.out, *_COMMANDS[args.command](args))
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    # before ValueError, which np.linalg.LinAlgError subclasses
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # includes CapacityError and bad parameters
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
