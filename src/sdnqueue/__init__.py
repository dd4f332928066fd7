"""Queueing toolkit for SDN switch/controller feedback loops.

Closed-form balance equations with the corrected feedback probability, exact
mean sojourn times (two equivalent forms), the full sojourn-time distribution,
a discrete-event simulator with true forwarding semantics as the validation
oracle, and dimensioning helpers (admissible throughput, parameter sweeps,
deadline probabilities).  See the ``demos/`` scripts for worked examples and
``sdnqueue --help`` for the command-line front end.
"""

from .analytic import (
    ChainModel,
    ChainSojourn,
    ChainSolution,
    ControllerParams,
    NodeParams,
    SolvedRates,
    UnstableSystemError,
    chain_sojourn,
    derive_q_jack,
    mean_sojourn_jackson,
    mean_sojourn_naive_jackson,
    mean_sojourn_openflow,
    rate_from_us,
    solve_chain,
    solve_rates,
)
from .distribution import (
    SojournDistribution,
    build_distribution,
    ccdf,
    pdf,
    prob_within_deadline,
    quantile,
)
from .simulate import (
    ChainSimResult,
    SimConfig,
    SimResult,
    SimulationInvariantError,
    run_chain,
    run_single_node,
)
from .dimensioning import (
    SweepSpec,
    ThroughputResult,
    default_delay_bound_grid,
    max_throughput,
    stability_supremum,
    sweep,
    zero_load_sojourn,
)

__version__ = "0.1.0"

__all__ = [
    "ChainModel", "ChainSojourn", "ChainSolution", "ControllerParams",
    "NodeParams", "SolvedRates", "UnstableSystemError", "chain_sojourn",
    "derive_q_jack", "mean_sojourn_jackson", "mean_sojourn_naive_jackson",
    "mean_sojourn_openflow", "rate_from_us", "solve_chain", "solve_rates",
    "SojournDistribution", "build_distribution", "ccdf", "pdf",
    "prob_within_deadline", "quantile",
    "ChainSimResult", "SimConfig", "SimResult", "SimulationInvariantError",
    "run_chain", "run_single_node",
    "SweepSpec", "ThroughputResult", "default_delay_bound_grid",
    "max_throughput", "stability_supremum", "sweep", "zero_load_sojourn",
    "__version__",
]
