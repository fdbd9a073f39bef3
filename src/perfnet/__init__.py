"""Decentralized SGD with greedy deployment on decision-dependent data.

A simulation library for multi-agent learning where each agent's deployed
decision shifts the distribution it samples from. Provides communication
topologies with certified spectral gaps, decision-dependent populations,
the two-phase mixing + stochastic-gradient scheme, stable-point oracles
(closed form, Newton root of the stable-point equation, repeated
deployment), convergence-rate constants and bound curves, per-iteration
metrics with log-log rate fitting, and a multi-seed experiment harness
with a CLI.
"""

from .topology import (
    Graph,
    GraphSchedule,
    MixingMatrix,
    MixingSchedule,
    build_complete,
    build_ring,
    build_star,
    from_edge_list,
    metropolis_weights,
    schedule_mixing,
    spectral_gap,
    uniform_neighbor_weights,
    validate_schedule,
)
from .environment import (
    Environment,
    LossSpec,
    PopulationSpec,
    decoupled_risk_gradient,
    loss_gradient,
    loss_value,
    make_heterogeneous_suite,
    sample,
    sample_batch,
)
from .engine import (
    RunConfig,
    SchemeState,
    StepSchedule,
    Trajectory,
    dsgd_gd_step,
    gamma,
    run,
)
from .oracle import (
    ContractionReport,
    FixedPointResult,
    NoFixedPointError,
    apply_M,
    closed_form_multi_ps,
    contraction_probe,
    existence_check,
    repeated_gd_fixed_point,
)
from .theory import (
    TheoryConstants,
    bound_curves,
    compute_constants,
    instance_constants,
    ratio_condition_check,
    step_size_cap,
    transient_threshold,
)
from .metrics import (
    MetricRecord,
    RateFit,
    consensus_error,
    decoupled_grad_norm,
    metric_recorder,
    performative_risk,
    rate_fit,
    shifted_test_accuracy,
)
from .config import Config, load_config, save_config
from .experiments import (
    preset,
    run_disconnected_baseline,
    run_experiment,
    run_nonperformative_baseline,
    run_single,
)

__version__ = "0.1.0"
