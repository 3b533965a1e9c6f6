"""Experiment drivers, CSV emission, and the command-line interface.

Each ``exp_*`` driver returns the table of its CSV, ``(meta, columns)``,
and writes no file; ``csvio.write_csv(path, meta, columns)`` writes one.
"""

from .experiments import (  # noqa: F401
    EnvelopeFit,
    EnvelopeFitError,
    ExperimentSpec,
    exp_convergence,
    exp_epsilon_horizon,
    exp_longtime_finite_tau,
    extract_envelope_maxima,
    fit_exponential_envelope,
)
from .cli import cli_main  # noqa: F401
