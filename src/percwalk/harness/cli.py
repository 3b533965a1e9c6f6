"""Command-line interface.

Subcommands: trajectory, channel, montecarlo, classical, oracle,
convergence, horizon, envelope. All emit deterministic CSV (to --out, or
stdout when --out is omitted). Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .csvio import load_config, render_csv, write_csv
from .experiments import (
    ORACLE_CHOICES,
    EnvelopeFitError,
    ExperimentSpec,
    convergence_table,
    horizon_table,
    longtime_table,
    oracle_table,
    point_table,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


_CONFIG_KEYS = {
    "graph": ("graph", str),
    "lambda": ("lam", float),
    "tau": ("tau", float),
    "steps": ("steps", int),
    "time": ("total_time", float),
    "start": ("start", int),
    "target": ("target", int),
    "seed": ("seed", int),
    "stride": ("stride", int),
    "out": ("out", str),
    "format": ("fmt", str),
    "trajectories": ("trajectories", int),
    "which": ("which", str),
    "steps-list": ("steps_list", str),
    "epsilons": ("epsilons", str),
    "traj-steps": ("traj_steps", int),
}


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="ring:N | lattice2d:WxH | complete:N | file:PATH")
    p.add_argument("--lambda", dest="lam", type=float, help="edge-keep probability in [0, 1]")
    p.add_argument("--tau", type=float, help="step size")
    p.add_argument("--steps", type=int, help="number of percolation steps")
    p.add_argument("--time", dest="total_time", type=float, help="total evolution time")
    p.add_argument("--start", type=int, help="starting node (0-indexed)")
    p.add_argument("--seed", type=int, help="RNG seed (PCG64)")
    p.add_argument("--stride", type=int, help="record every stride-th step")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.add_argument("--format", dest="fmt", choices=["csv"], help="output format")
    p.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="percwalk", description=__doc__)
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
        p = sub.add_parser(name, help=descr)
        _common_flags(p)
        if name == "montecarlo":
            p.add_argument("--trajectories", type=int, help="ensemble size (default 100)")
        if name == "oracle":
            p.add_argument("--which", choices=ORACLE_CHOICES, help="which reference curve")
            p.add_argument("--target", type=int, help="target node for rescaled (default: start)")
        if name in ("convergence", "horizon"):
            p.add_argument("--steps-list", dest="steps_list", help="comma-separated step counts")
        if name == "horizon":
            p.add_argument("--epsilons", help="comma-separated relative-error thresholds")
        if name == "envelope":
            p.add_argument("--traj-steps", dest="traj_steps", type=int,
                           help="steps of the companion trajectory (default 3000)")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    conf = load_config(args.config)
    known = set()
    for key, (dest, typ) in _CONFIG_KEYS.items():
        if hasattr(args, dest):
            known.add(key)
            if key in conf and getattr(args, dest) is None:
                setattr(args, dest, typ(conf[key]))
    unknown = set(conf) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _fill(args, **defaults) -> None:
    for dest, value in defaults.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args, dest, flag) -> None:
    if getattr(args, dest, None) is None:
        raise UsageError(f"missing required flag {flag}")


def _spec_from_args(args) -> ExperimentSpec:
    _require(args, "graph", "--graph")
    return ExperimentSpec(
        graph_spec=args.graph,
        lam=args.lam,
        tau=args.tau,
        steps=args.steps,
        total_time=args.total_time,
        start=args.start,
        seed=args.seed,
        stride=args.stride,
        trajectories=100 if getattr(args, "trajectories", None) is None else args.trajectories,
    )


def _emit(out: str | None, meta: dict, columns) -> None:
    """Write the CSV; a data column holding NaN or inf is a numerical failure and writes nothing."""
    for name, values in columns:
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"column {name} holds a non-finite value; no CSV written")
    if out is None:
        sys.stdout.write(render_csv(meta, columns))
    else:
        write_csv(Path(out), meta, columns)


def _parse_list(text: str, flag: str, typ) -> list:
    try:
        return [typ(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag} value {text!r}: {exc}") from exc


def _cmd_point(args) -> int:
    """trajectory, classical, channel and montecarlo: one curve at one parameter point."""
    _fill(args, lam=0.5)
    _emit(args.out, *point_table(_spec_from_args(args), args.command))
    return 0


def _cmd_oracle(args) -> int:
    _require(args, "which", "--which")
    _fill(args, lam=0.5)
    _emit(args.out, *oracle_table(_spec_from_args(args), args.which, args.target))
    return 0


def _cmd_convergence(args) -> int:
    _fill(args, graph="ring:10", lam=0.5)
    if args.tau is None and args.steps is None and args.total_time is None:
        args.total_time = 10.0
    spec = _spec_from_args(args)
    s_list = _parse_list(args.steps_list, "--steps-list", int) if args.steps_list else None
    _, meta, columns = convergence_table(spec, s_list) if s_list else convergence_table(spec)
    _emit(args.out, meta, columns)
    return 0


def _cmd_horizon(args) -> int:
    _fill(args, graph="ring:5", lam=0.5)
    if args.tau is None and args.steps is None and args.total_time is None:
        args.total_time = 10.0
    spec = _spec_from_args(args)
    kwargs = {}
    if args.steps_list:
        kwargs["s_list"] = _parse_list(args.steps_list, "--steps-list", int)
    if args.epsilons:
        kwargs["epsilon_list"] = _parse_list(args.epsilons, "--epsilons", float)
    _, meta, columns = horizon_table(spec, **kwargs)
    _emit(args.out, meta, columns)
    return 0


def _cmd_envelope(args) -> int:
    _fill(args, graph="ring:4", lam=0.2, traj_steps=3000)
    if args.tau is None and args.steps is None and args.total_time is None:
        args.tau, args.steps = 0.1, 1000
    spec = _spec_from_args(args)
    result, meta, columns = longtime_table(spec, args.traj_steps)
    _emit(args.out, meta, columns)
    if result.fit is None:
        print(f"envelope fit failed: {result.fit_error}", file=sys.stderr)
        return 2
    return 0


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
        _apply_config(args)
        _fill(args, start=0, seed=0, stride=1, fmt="csv")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    # before ValueError, which np.linalg.LinAlgError subclasses
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, EnvelopeFitError) as exc:
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
