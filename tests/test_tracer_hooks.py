"""The arguments that the benchmark's per-layer counters read by name.

``perfbench/tracer.py`` binds each hooked call's arguments with
``inspect.signature`` and reads them by name; a renamed or dropped
parameter would turn its counters into ``broken_hooks`` without failing
anything. This pins those names on the package side.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from percwalk import _kernels, dynamics, graph
from percwalk.harness import csvio

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# hook name in perfbench/tracer.py HOOKS -> (function, the parameters its hook reads)
READ_BY_NAME = {
    "kernels.trajectory_states": (_kernels.trajectory_states, {"bits"}),
    "kernels.classical_trajectory": (_kernels.classical_trajectory, {"bits"}),
    "kernels.ensemble_quantum": (_kernels.ensemble_quantum, {"bits3"}),
    "kernels.ensemble_classical": (_kernels.ensemble_classical, {"bits3"}),
    "kernels.channel_accumulate": (_kernels.channel_accumulate, {"edges", "n"}),
    "dynamics.evolve_channel": (dynamics.evolve_channel, {"phi", "steps"}),
    "graph.sample_keep_bits": (graph.sample_keep_bits, set()),  # reads only the result
    "csvio.render_csv": (csvio.render_csv, {"columns"}),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_pinned():
    assert set(_tracer().HOOKS) == set(READ_BY_NAME)


@pytest.mark.parametrize("hook", sorted(READ_BY_NAME))
def test_hooked_functions_keep_the_parameters_read_by_name(hook):
    fn, names = READ_BY_NAME[hook]
    _, name = hook.split(".")
    assert fn.__name__ == name and not name.startswith("_")  # the tracer wraps public functions only
    assert names <= set(inspect.signature(fn).parameters)
