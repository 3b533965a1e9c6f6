"""Per-layer span tracer that wraps percwalk from outside.

``install`` replaces every public function of each layer module with a
timing wrapper, at every place a caller looks it up: each binding of the
function in any loaded ``percwalk`` module (``dynamics`` imports
``sample_keep_bits`` by name, and calls ``_kernels.trajectory_states``
through the module), plus ``numpy.linalg.eigh`` and ``numpy.linalg.norm``.
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span's self time is its duration minus the time of its direct child spans,
so the self times of all spans sum to the duration of the root spans
(``cli.cli_main``). Span records are kept in memory (at most
MAX_RECORDS_PER_SPAN per name) and written out by the caller at the end.
A function that a later refactor removes is simply not wrapped; the metrics
built on it report it as absent.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = {
    "cli": "percwalk.harness.cli",
    "experiments": "percwalk.harness.experiments",
    "csvio": "percwalk.harness.csvio",
    "oracles": "percwalk.oracles",
    "dynamics": "percwalk.dynamics",
    "graph": "percwalk.graph",
    "kernels": "percwalk._kernels",
}
# the oracle curves evaluate the rescaled reference through these walk
# functions, looked up in the oracles namespace; their time belongs to oracles
ORACLE_ENGINE = ("percwalk.walk", ("transition_probability", "classical_transition"))
LINALG = ("eigh", "norm")
MAX_RECORDS_PER_SPAN = 256


def _distinct_rows(bits: np.ndarray) -> int:
    rows = np.ascontiguousarray(bits).reshape(-1, bits.shape[-1])
    return int(np.unique(np.packbits(rows, axis=1), axis=0).shape[0])


def _kernel_steps(argname):
    def hook(tr, args, result):
        bits = args[argname]
        tr.count("kernels.steps", int(np.prod(bits.shape[:-1])))
        tr.defer("kernels.distinct_masks", _distinct_rows, bits)
    return hook


def _channel_hook(tr, args, result):
    n, realizations = args["n"], 2 ** int(args["edges"].shape[0])
    tr.count("kernels.channel_accumulate.realizations", realizations)
    # the Kraus accumulation is a (d^2 x R) x (R x d^2) complex GEMM: 8 d^4 R flops
    tr.count("kernels.channel_accumulate.gflop", 8 * n**4 * realizations / 1e9)


def _evolve_hook(tr, args, result):
    steps, d = int(args["steps"]), args["phi"].dim
    tr.count("dynamics.evolve_channel.steps", steps)
    # one complex d^2 x d^2 matvec per step: 8 d^4 flops
    tr.count("dynamics.evolve_channel.gflop", 8 * steps * d**4 / 1e9)


def _render_hook(tr, args, result):
    columns = args["columns"]
    tr.count("csvio.render_csv.rows", len(columns[0][1]) if columns else 0)
    tr.count("csvio.render_csv.bytes", len(result.encode()))


HOOKS = {
    "kernels.trajectory_states": _kernel_steps("bits"),
    "kernels.classical_trajectory": _kernel_steps("bits"),
    "kernels.ensemble_quantum": _kernel_steps("bits3"),
    "kernels.ensemble_classical": _kernel_steps("bits3"),
    "kernels.channel_accumulate": _channel_hook,
    "dynamics.evolve_channel": _evolve_hook,
    "graph.sample_keep_bits": lambda tr, args, result: tr.count("graph.sample_keep_bits.bits", result.size),
    "csvio.render_csv": _render_hook,
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.names: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_incl: dict[str, float] = defaultdict(float)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_hooks: set[str] = set()
        self.records: list[tuple] = []
        self._n_records: dict[str, int] = defaultdict(int)
        self._deferred: list[tuple] = []

    def count(self, name: str, value) -> None:
        self.counters[name] += value

    def defer(self, name: str, fn, arg) -> None:
        """Add fn(arg) to counter ``name`` when the rep ends, outside the timed spans."""
        self._deferred.append((name, fn, arg))

    # -- installation -------------------------------------------------------

    def _targets(self) -> dict:
        targets = {}
        for layer, modname in LAYER_MODULES.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            bindings = defaultdict(list)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                    bindings[obj].append(attr)
            for fn, attrs in bindings.items():
                # a function bound under several names (a backend alias) is
                # named by its shortest one, the dispatch name callers use
                targets[fn] = (f"{layer}.{min(attrs, key=len)}", layer)
        modname, attrs = ORACLE_ENGINE
        mod = sys.modules.get(modname)
        for attr in attrs:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn):
                targets[fn] = (f"oracles.{attr}", "oracles")
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, layer, fn) for fn, (name, layer) in self._targets().items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "percwalk" or modname.startswith("percwalk.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", "linalg", fn))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, layer: str, fn):
        self.names.add(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
            if hook is not None:
                try:
                    hook(self, sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    self.broken_hooks.add(name)
            return result

        return traced

    def _close(self, frame: list, start: float, end: float) -> None:
        name, layer, child = frame
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        self.layer_self[layer] += dur - child
        if parent is None or parent[1] != layer:
            self.layer_incl[layer] += dur
        if parent is not None:
            parent[2] += dur
            self.under[(name, parent[0])] += dur
        if self._n_records[name] < MAX_RECORDS_PER_SPAN:
            self._n_records[name] += 1
            self.records.append((name, parent[0] if parent else None, start, end))

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Everything recorded since reset(), as plain data; runs deferred counters."""
        for name, fn, arg in self._deferred:
            self.counters[name] += fn(arg)
        self._deferred.clear()
        return {
            "names": sorted(self.names),
            "stats": {k: list(v) for k, v in self.stats.items()},
            "layer_self": dict(self.layer_self),
            "layer_incl": dict(self.layer_incl),
            "under": {f"{a}<{b}": v for (a, b), v in self.under.items()},
            "counters": dict(self.counters),
            "broken_hooks": sorted(self.broken_hooks),
            "spans": [list(r) for r in self.records],
        }
