"""Decentralized SGD with greedy deployment.

One iteration has two phases. Phase 1: each agent deploys its current
(pre-mixing) decision and draws samples from the distribution reacting to
it, as base draws that the gradient shifts by algebra. Phase 2: decisions
are mixed through the doubly stochastic weights and a stochastic gradient
step is taken, with the gradient evaluated at the pre-mixing decision:

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

from .config import DIVERGENCE_THRESHOLD, RunConfig, StepSchedule
from .environment import (
    Environment,
    deployed_gradients,
    make_engine_sampler,
)

__all__ = [
    "SAMPLE_STREAM",
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
]

# Stream tags keep sampling, probing and data shuffling on disjoint random
# streams under a single master seed.
SAMPLE_STREAM = 0x5A
PROBE_STREAM = 0x50
DATA_STREAM = 0x44


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """One counter-based generator keyed by (seed, tag, index)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def agent_streams(seed: int, n: int, tag: int = SAMPLE_STREAM) -> list:
    """Independent per-agent streams derived from one master seed."""
    return [stream(seed, tag, i) for i in range(n)]


def gamma(schedule: StepSchedule, t: int) -> float:
    """Step size gamma_t; step indices start at 1."""
    if t < 1:
        raise ValueError(f"step sizes are indexed from 1, got t={t}")
    if schedule.kind == "constant":
        return schedule.gamma
    return schedule.a0 / (schedule.a1 + t)


@dataclass
class SchemeState:
    """Stacked agent decisions at iteration t plus their RNG streams.

    ``theta`` is (..., n, d): its leading axes index seeds, each with its
    list of n generators in ``streams``. ``t`` counts steps, and ``diverged``
    is False until a seed stops, then one flag per seed (:func:`run` keeps
    each seed's stopping step).
    """

    theta: np.ndarray  # (..., n, d)
    t: int
    streams: list
    diverged: bool | np.ndarray = False

    @property
    def theta_bar(self) -> np.ndarray:
        """Recomputed on demand; never stored stale."""
        return self.theta.mean(axis=-2)


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
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> SchemeState:
    """One two-phase update. Returns the state at iteration t+1.

    The draw ignores ``state.theta``; the gradient is taken at it, the
    deployment. Without a ``sampler`` one unbuffered iteration of an (n, d)
    state is drawn from ``state.streams``, exactly as :func:`run`'s sampler
    would draw it. A seed whose update is non-finite or oversized, now or at an
    earlier step, keeps its previous finite rows and is flagged in ``diverged``;
    the other seeds, which share ``env``'s loss, move, and ``t`` advances.
    """
    theta = state.theta
    if sampler is None:
        sampler = make_engine_sampler(env, batch, state.streams, chunk=1)
    samples = sampler(theta)
    grads = deployed_gradients(env, theta, samples)  # evaluated at pre-mixing theta
    nxt = weights @ theta - gamma_t * grads

    if check_average:
        expect = theta.mean(axis=-2) - gamma_t * grads.mean(axis=-2)
        drift = float(np.max(np.abs(nxt.mean(axis=-2) - expect)))
        if drift > 1e-10:
            raise RuntimeError(f"average-preservation identity violated by {drift:.3e}")

    if state.diverged is False and _finite(nxt, divergence_threshold):
        return SchemeState(nxt, state.t + 1, state.streams)
    stopped = state.diverged | ~(np.abs(nxt).max(axis=(-2, -1)) <= divergence_threshold)
    return SchemeState(np.where(stopped[..., None, None], theta, nxt), state.t + 1, state.streams,
                       diverged=stopped)


def run(
    config: RunConfig,
    env: Environment,
    mixing,
    schedule: StepSchedule,
    sink=None,
    check_averages: bool = False,
    seeds=None,
) -> Trajectory | list:
    """Execute the scheme for ``config.T`` iterations.

    ``config`` and ``schedule`` are a config's ``run`` and ``step`` sections.
    ``mixing`` is a :class:`~perfnet.topology.MixingMatrix` or a
    :class:`~perfnet.topology.MixingSchedule` (time-varying weights are taken
    at index t+1 for the step into iteration t+1, cycling the sequence).
    ``sink(state)`` is invoked at t = 0, every ``record_every`` iterations,
    at t = T, and at the last finite state before a divergence stop; whatever
    it returns is appended to the trajectory.

    The seeds advance together as one (S, n, d) array program. With
    ``seeds``, ``config.seed`` is not used: ``env`` and ``sink`` (if given)
    are sequences with one entry per seed, the environments share one loss
    and size, and one :class:`Trajectory` per seed is returned. Without it
    the run is a batch of one seed, ``config.seed``, and returns its
    :class:`Trajectory`. Each seed draws from its own streams, so its
    trajectory is bit-identical to a run of that seed alone. A seed that
    diverges stops alone; the batch ends when every seed has stopped or t = T.
    """
    one = seeds is None
    if one:
        seeds, env, sink = [config.seed], [env], [sink]
    elif sink is None:
        sink = [None] * len(seeds)
    S = len(seeds)
    n, d = env[0].n, env[0].dim
    if any(e.loss != env[0].loss or e.n != n for e in env):
        raise ValueError("the seeds of a batch need one loss and one agent count")
    theta0 = np.broadcast_to(np.atleast_1d(np.asarray(config.theta0, dtype=float)), (d,))
    streams = [agent_streams(seed, n) for seed in seeds]
    sampler = make_engine_sampler(env, config.batch, streams, chunk=max(1, 256 // S))
    weights_at = mixing.at if hasattr(mixing, "at") else (lambda t: mixing.weights)

    state = SchemeState(np.tile(theta0, (S, n, 1)), 0, streams)
    records = [[] for _ in seeds]
    last_recorded = [0] * S
    stopped_at = [None] * S

    def record(s: int, t: int) -> None:
        if sink[s] is not None:
            records[s].append(sink[s](SchemeState(state.theta[s], t, streams[s])))
        last_recorded[s] = t

    for s in range(S):
        record(s, 0)
    for t in range(1, config.T + 1):
        state = dsgd_gd_step(
            state,
            weights_at(t),
            env[0],
            gamma(schedule, t),
            batch=config.batch,
            sampler=sampler,
            check_average=check_averages,
            divergence_threshold=config.divergence_threshold,
        )
        if state.diverged is not False:
            for s in np.flatnonzero(state.diverged):
                if stopped_at[s] is None:
                    stopped_at[s] = t
            if None not in stopped_at:
                break
        if t % config.record_every == 0 or t == config.T:
            for s in range(S):
                if stopped_at[s] is None:
                    record(s, t)

    trajectories = []
    for s in range(S):
        last = config.T if stopped_at[s] is None else stopped_at[s] - 1
        if last != last_recorded[s]:
            record(s, last)  # final (or last finite) state
        trajectories.append(Trajectory(
            records=records[s],
            diverged=stopped_at[s] is not None,
            diverged_at=stopped_at[s],
            final_theta=state.theta[s],
        ))
    return trajectories[0] if one else trajectories
