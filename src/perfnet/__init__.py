"""Decentralized SGD with greedy deployment on decision-dependent data.

A simulation library for multi-agent learning where each agent's deployed
decision shifts the distribution it samples from. Provides communication
topologies with certified spectral gaps, decision-dependent populations,
the two-phase mixing + stochastic-gradient scheme, stable-point oracles
(closed form, Newton root of the stable-point equation, repeated
deployment), convergence-rate constants and bound curves, per-iteration
metrics with log-log rate fitting, and a multi-seed experiment harness
with a CLI.

The package namespace holds the names the demos use, plus
``stable_point``; everything else is imported from its submodule
(``perfnet.environment``, ``perfnet.experiments``, ...).
"""

from .topology import (
    GraphSchedule,
    build_ring,
    build_star,
    from_edge_list,
    metropolis_weights,
    schedule_mixing,
    uniform_neighbor_weights,
)
from .environment import make_heterogeneous_suite
from .engine import RunConfig, StepSchedule, run
from .oracle import (
    apply_M,
    closed_form_multi_ps,
    contraction_probe,
    existence_check,
    repeated_gd_fixed_point,
    stable_point,
)
from .theory import (
    bound_curves,
    instance_constants,
    ratio_condition_check,
    step_size_cap,
)
from .metrics import metric_recorder
from .experiments import preset, run_single

__version__ = "0.1.0"
