"""Continuous-time quantum walks on dynamically percolated graphs.

The edge set of a base graph is independently resampled every tau time
units (each edge kept with probability lam); in the fast-switching limit the
walk reproduces the unpercolated evolution at the rescaled time lam * t.
This package provides stochastic single trajectories, the exact
realization-averaged one-step channel, Monte Carlo ensemble averaging, the
classical-walk counterpart, closed-form reference curves, and experiment
drivers with a CSV-emitting CLI.
"""

from . import oracles  # noqa: F401
from .dynamics import (  # noqa: F401
    ChannelMatrix,
    ClassicalTrajectoryRecord,
    EnsembleRecord,
    PercolationRun,
    TrajectoryRecord,
    build_step_channel,
    channel_site_probabilities,
    evolve_channel,
    monte_carlo_channel,
    recorded_steps,
    run_classical_trajectory,
    run_trajectory,
)
from .graph import (  # noqa: F401
    MAX_ENUM_EDGES,
    CapacityError,
    Graph,
    graph_from_spec,
    make_complete,
    make_lattice2d,
    make_ring,
    read_edge_file,
    rng_from_seed,
    write_edge_file,
)
from .walk import (  # noqa: F401
    basis_density,
    basis_state,
    classical_transition,
    full_hamiltonian,
    transition_probability,
)

__version__ = "0.1.0"
