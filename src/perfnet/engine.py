"""Decentralized SGD with greedy deployment.

One iteration has two phases. Phase 1: each agent deploys its current
(pre-mixing) decision and draws samples from the distribution reacting to
it. Phase 2: decisions are mixed through the doubly stochastic weights and
a stochastic gradient step is taken, with the gradient evaluated at the
pre-mixing decision:

    theta_i <- sum_j W_ij theta_j - gamma * mean_batch grad_loss(theta_i; Z)

Randomness comes from counter-based (Philox) per-agent streams derived from
one master seed, so trajectories are bit-reproducible and independent of
agent evaluation order and thread count. Within a stream, position encodes
(iteration, draw index) because every iteration consumes a fixed number of
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import (
    Environment,
    deployed_gradients,
    decoupled_risk_gradient,
    make_engine_sampler,
    sample_batch,
    UnsupportedKindError,
    GAUSSIAN,
)

__all__ = [
    "SAMPLE_STREAM",
    "METRIC_STREAM",
    "PROBE_STREAM",
    "DATA_STREAM",
    "stream",
    "agent_streams",
    "StepSchedule",
    "gamma",
    "RunConfig",
    "SchemeState",
    "Trajectory",
    "dsgd_gd_step",
    "run",
    "BiasProbe",
    "bias_probe",
]

# Stream tags keep sampling, metric estimation, probing and data shuffling
# on disjoint random streams under a single master seed.
SAMPLE_STREAM = 0x5A
METRIC_STREAM = 0x4D
PROBE_STREAM = 0x50
DATA_STREAM = 0x44


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """One counter-based generator keyed by (seed, tag, index)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def agent_streams(seed: int, n: int, tag: int = SAMPLE_STREAM) -> list:
    """Independent per-agent streams derived from one master seed."""
    return [stream(seed, tag, i) for i in range(n)]


@dataclass(frozen=True)
class StepSchedule:
    """Constant or inverse-time step sizes: gamma_t = a0 / (a1 + t)."""

    kind: str
    gamma_const: float | None = None
    a0: float | None = None
    a1: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.gamma_const is None or self.gamma_const <= 0:
                raise ValueError("constant schedule needs gamma > 0")
        elif self.kind == "inverse_time":
            if self.a0 is None or self.a1 is None or self.a0 <= 0 or self.a1 < 0:
                raise ValueError("inverse_time schedule needs a0 > 0 and a1 >= 0")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def constant(cls, g: float) -> "StepSchedule":
        return cls("constant", gamma_const=g)

    @classmethod
    def inverse_time(cls, a0: float, a1: float) -> "StepSchedule":
        return cls("inverse_time", a0=a0, a1=a1)


def gamma(schedule: StepSchedule, t: int) -> float:
    """Step size gamma_t; step indices start at 1."""
    if t < 1:
        raise ValueError(f"step sizes are indexed from 1, got t={t}")
    if schedule.kind == "constant":
        return schedule.gamma_const
    return schedule.a0 / (schedule.a1 + t)


@dataclass(frozen=True)
class RunConfig:
    """Iteration budget and reproducibility knobs for one run."""

    T: int
    batch: int = 1
    record_every: int = 1
    seed: int = 0
    theta0: float | np.ndarray = 0.0
    divergence_threshold: float = 1e12

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.batch < 1 or self.record_every < 1:
            raise ValueError("batch and record_every must be >= 1")


@dataclass
class SchemeState:
    """Stacked agent decisions at iteration t plus their RNG streams."""

    theta: np.ndarray  # (n, d)
    t: int
    streams: list
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def theta_bar(self) -> np.ndarray:
        """Recomputed on demand; never stored stale."""
        return self.theta.mean(axis=0)


@dataclass
class Trajectory:
    """Metric records plus the final (last finite) state of a run."""

    records: list
    diverged: bool
    diverged_at: int | None
    final_theta: np.ndarray


def _finite(theta: np.ndarray, threshold: float) -> bool:
    """One reduction; NaN and inf entries fail the comparison as well."""
    return bool(np.abs(theta).max() <= threshold)


def dsgd_gd_step(
    state: SchemeState,
    weights: np.ndarray,
    env: Environment,
    gamma_t: float,
    batch: int = 1,
    sampler=None,
    check_average: bool = False,
    divergence_threshold: float = 1e12,
) -> SchemeState:
    """One two-phase update. Returns the state at iteration t+1.

    On divergence (non-finite or oversized update) the previous finite
    decisions are kept and the state is flagged with the failing iteration.
    """
    theta = state.theta
    if sampler is None:
        samples = _plain_samples(env, theta, batch, state.streams)
    else:
        samples = sampler(theta)
    grads = deployed_gradients(env, theta, samples)  # evaluated at pre-mixing theta
    nxt = weights @ theta - gamma_t * grads

    if check_average:
        expect = theta.mean(axis=0) - gamma_t * grads.mean(axis=0)
        drift = float(np.max(np.abs(nxt.mean(axis=0) - expect)))
        if drift > 1e-10:
            raise RuntimeError(f"average-preservation identity violated by {drift:.3e}")

    if not _finite(nxt, divergence_threshold):
        return SchemeState(theta, state.t, state.streams, diverged=True, diverged_at=state.t + 1)
    return SchemeState(nxt, state.t + 1, state.streams)


def _plain_samples(env, theta, batch, streams):
    if env.kind == GAUSSIAN:
        return np.stack([sample_batch(env, i, theta[i], batch, streams[i]) for i in range(env.n)])
    xs, ys = zip(*(sample_batch(env, i, theta[i], batch, streams[i]) for i in range(env.n)))
    return np.stack(xs), np.stack(ys)


def run(
    config: RunConfig,
    env: Environment,
    mixing,
    schedule: StepSchedule,
    sink=None,
    check_averages: bool = False,
) -> Trajectory:
    """Execute the scheme for ``config.T`` iterations.

    ``mixing`` is a :class:`~perfnet.topology.MixingMatrix` or a
    :class:`~perfnet.topology.MixingSchedule` (time-varying weights are taken
    at index t+1 for the step into iteration t+1, cycling the sequence).
    ``sink(state)`` is invoked at t = 0, every ``record_every`` iterations,
    at t = T, and at the last finite state before a divergence stop; whatever
    it returns is appended to the trajectory.
    """
    n, d = env.n, env.dim
    theta0 = np.broadcast_to(np.atleast_1d(np.asarray(config.theta0, dtype=float)), (d,))
    theta = np.tile(theta0, (n, 1)).astype(float)

    streams = agent_streams(config.seed, n)
    sampler = make_engine_sampler(env, config.batch, streams)
    weights_at = mixing.at if hasattr(mixing, "at") else (lambda t: mixing.weights)

    state = SchemeState(theta, 0, streams)
    records = []
    if sink is not None:
        records.append(sink(state))
    last_recorded = 0

    for t in range(config.T):
        g = gamma(schedule, t + 1)
        state = dsgd_gd_step(
            state,
            weights_at(t + 1),
            env,
            g,
            batch=config.batch,
            sampler=sampler,
            check_average=check_averages,
            divergence_threshold=config.divergence_threshold,
        )
        if state.diverged:
            break
        if (state.t % config.record_every == 0 or state.t == config.T) and sink is not None:
            records.append(sink(state))
            last_recorded = state.t

    if sink is not None and state.t != last_recorded:
        records.append(sink(state))  # final (or last finite) state
    return Trajectory(
        records=records,
        diverged=state.diverged,
        diverged_at=state.diverged_at,
        final_theta=state.theta,
    )


@dataclass(frozen=True)
class BiasProbe:
    """Monte Carlo deployed-gradient mean and its distance to the decoupled gradient."""

    mc_mean: np.ndarray
    diff_norm: float


def bias_probe(env: Environment, i: int, theta, mc: int, rng) -> BiasProbe:
    """Check that deployed samples estimate the decoupled gradient at (theta; theta).

    The deployed stochastic gradient is unbiased for the gradient of the
    decoupled risk with the distribution frozen at the deployed decision,
    which is not the total derivative of the performative risk. Gaussian
    populations only (the exact decoupled gradient is needed as reference).
    """
    if env.kind != GAUSSIAN:
        raise UnsupportedKindError("bias_probe needs the gaussian closed form")
    z = sample_batch(env, i, theta, mc, rng)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mc_mean = theta - z.mean(axis=0)
    ref = decoupled_risk_gradient(env, i, theta, theta)
    return BiasProbe(mc_mean=mc_mean, diff_norm=float(np.linalg.norm(mc_mean - ref)))
