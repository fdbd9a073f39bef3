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

:func:`run` advances its seeds a block of iterations at a time. Each
iteration is one :func:`dsgd_gd_step`, which writes its decisions in place
into one preallocated array, and one scan per block tests for divergence. That
scan still locates each seed's first failing iteration exactly. What the
steps of a block take is made before the block starts: its step sizes come
from one array call of :func:`gamma`, its row views are made once per run, a
static graph's one matrix is read once per run, and its recorded iterations
are found by arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, StepSchedule
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
    "Trajectory",
    "dsgd_gd_step",
    "run",
]

# Stream tags keep sampling, probing and data shuffling on disjoint random
# streams under a single master seed.
SAMPLE_STREAM = 0x5A
PROBE_STREAM = 0x50
DATA_STREAM = 0x44

# run advances up to _BLOCK iterations per divergence scan, in a block of at
# most _BLOCK_BYTES; its sampler buffers up to _CHUNK iterations of at most
# _CHUNK_DRAWS draws
_BLOCK = 64
_BLOCK_BYTES = 1 << 18
_CHUNK = 256
_CHUNK_DRAWS = 1 << 17


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """One counter-based generator keyed by (seed, tag, index)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def agent_streams(seed: int, n: int) -> list:
    """Independent per-agent sample streams derived from one master seed."""
    return [stream(seed, SAMPLE_STREAM, i) for i in range(n)]


def gamma(schedule: StepSchedule, t):
    """Step size gamma_t; step indices start at 1.

    ``t`` may be an integer array; the result is then a float64 array whose
    elements have the bits of the scalar formula at each element.
    """
    if isinstance(t, np.ndarray):
        if t.size and t.min() < 1:
            raise ValueError(f"step sizes are indexed from 1, got t={t.min()}")
        if schedule.kind == "constant":
            return np.full(t.shape, float(schedule.gamma))
        return schedule.a0 / np.add(schedule.a1, t, dtype=float)
    if t < 1:
        raise ValueError(f"step sizes are indexed from 1, got t={t}")
    if schedule.kind == "constant":
        return schedule.gamma
    return schedule.a0 / (schedule.a1 + t)


@dataclass
class Trajectory:
    """Metric records plus the final (last finite) state of a run."""

    records: list
    diverged: bool
    diverged_at: int | None
    final_theta: np.ndarray


def _first_failures(rows: np.ndarray, threshold: float) -> np.ndarray:
    """Per seed, how many leading rows of ``rows`` (k, ..., n, d) stay within ``threshold``.

    That is the index of the seed's first row with an entry over the threshold
    in absolute value, or k when none has one. One reduction over the whole
    stack; NaN and inf entries fail the comparison as well, even under an
    infinite threshold.
    """
    ok = np.abs(rows).max(axis=(-2, -1)) <= min(threshold, np.finfo(float).max)
    return np.where(ok.all(axis=0), len(rows), ok.argmin(axis=0))


def dsgd_gd_step(theta, weights, env: Environment, gamma_t: float, draw, out=None) -> np.ndarray:
    """One DSGD-GD iteration of the (..., n, d) decisions ``theta``; returns the next decisions.

    ``draw(theta)`` deploys ``theta`` and draws its samples (a sampler from
    :func:`make_engine_sampler`). The gradient, taken at ``theta`` itself and
    returned as a new array, is scaled by ``gamma_t`` in place and subtracted
    from the mixed decisions ``weights @ theta``, which are written into
    ``out`` when it is given.
    """
    grads = deployed_gradients(env, theta, draw(theta))  # at pre-mixing theta
    grads *= gamma_t
    nxt = np.matmul(weights, theta, out=out)
    nxt -= grads
    return nxt


def run(
    config: RunConfig,
    env: Environment,
    mixing,
    schedule: StepSchedule,
    sink=None,
    seeds=None,
) -> Trajectory | list:
    """Execute the scheme for ``config.T`` iterations.

    ``config`` and ``schedule`` are a config's ``run`` and ``step`` sections.
    ``mixing`` is a :class:`~perfnet.topology.Mixing`; the step into iteration
    t+1 mixes with ``mixing.at(t + 1)``, so a static graph's one matrix is used
    at every step and a schedule's matrices are cycled.
    ``sink(t, theta)`` is invoked at t = 0, every ``record_every`` iterations,
    at t = T, and at the last finite state before a divergence stop, with the
    (n, d) decisions at iteration t; whatever it returns is appended to the
    trajectory. ``theta``, like ``final_theta``, is a copy, which later
    iterations never overwrite.

    The seeds advance together as one (S, n, d) array program. With
    ``seeds``, ``config.seed`` is not used: ``env`` and ``sink`` (if given)
    are sequences with one entry per seed, the environments share one loss
    (kind, dimension and ``beta``) and size, and one :class:`Trajectory` per
    seed is returned. Without it the run is a batch of one seed,
    ``config.seed``, and returns its :class:`Trajectory`. Each seed draws from
    its own streams, so its trajectory is bit-identical to a run of that seed
    alone.

    Iterations are written in place into a block of up to 64 of them (fewer
    when the block would exceed 256 KB), and one scan per block finds each
    seed's first non-finite or oversized iteration. A seed that diverges stops
    alone, at exactly that iteration, with its last finite decisions; it steps
    on from those decisions, its results discarded, and the batch ends after
    the block in which every seed has stopped, or at t = T.
    """
    one = seeds is None
    if one:
        seeds, env, sink = [config.seed], [env], [sink]
    elif sink is None:
        sink = [None] * len(seeds)
    S = len(seeds)
    n, d = env[0].n, env[0].dim
    if any((e.kind, e.dim, e.beta, e.n) != (env[0].kind, d, env[0].beta, n) for e in env):
        raise ValueError("the seeds of a batch need one loss (kind, dim, beta) and one agent count")
    theta0 = np.broadcast_to(np.atleast_1d(np.asarray(config.theta0, dtype=float)), (d,))
    streams = [agent_streams(seed, n) for seed in seeds]
    chunk = max(1, min(_CHUNK, _CHUNK_DRAWS // (S * n * config.batch)))
    sampler = make_engine_sampler(env, config.batch, streams, chunk=chunk)
    K = max(1, min(_BLOCK, _BLOCK_BYTES // (S * n * d * 8) - 1))
    block = np.empty((K + 1, S, n, d))
    block[0] = theta0
    views = list(block)  # block[j] for each j, made once
    static = mixing.matrices[0] if len(mixing.matrices) == 1 else None
    every = config.record_every

    records = [[] for _ in seeds]
    stopped_at = [None] * S
    final = [None] * S

    def record(s: int, t: int, rows: np.ndarray) -> None:
        if sink[s] is not None:
            records[s].append(sink[s](t, rows.copy()))

    for s in range(S):
        record(s, 0, block[0, s])
    live, t0 = list(range(S)), 0
    while live and t0 < config.T:
        k = min(K, config.T - t0)
        steps = gamma(schedule, np.arange(t0 + 1, t0 + k + 1)).tolist()
        # a failing seed steps on to the end of the block, so overflow here is
        # expected and raises no warning; the scan below locates the failure
        with np.errstate(over="ignore", invalid="ignore"):
            for j, gamma_t in enumerate(steps):
                weights = static if static is not None else mixing.at(t0 + j + 1)
                dsgd_gd_step(views[j], weights, env[0], gamma_t, sampler, out=views[j + 1])
        # block[j] holds iteration t0 + j; seed s is finite through block[kept[s]]
        kept = _first_failures(block[1:k + 1], config.divergence_threshold)
        recorded = range(t0 + every - t0 % every, t0 + k + 1, every)
        if t0 + k == config.T and config.T % every:
            recorded = [*recorded, config.T]
        for t in recorded:
            for s in live:
                if t - t0 <= kept[s]:
                    record(s, t, block[t - t0, s])
        for s in live:
            if kept[s] < k:
                stopped_at[s] = t0 + int(kept[s]) + 1
                last = block[kept[s], s]
                if (stopped_at[s] - 1) % every != 0:
                    record(s, stopped_at[s] - 1, last)  # the last finite state
                final[s] = last.copy()
        live = [s for s in live if stopped_at[s] is None]
        block[0] = block[k]
        for s in range(S):
            if stopped_at[s] is not None:
                block[0, s] = final[s]  # a stopped seed steps on from its last finite rows
        t0 += k
    for s in live:
        final[s] = block[0, s].copy()

    trajectories = [
        Trajectory(records=records[s], diverged=stopped_at[s] is not None,
                   diverged_at=stopped_at[s], final_theta=final[s])
        for s in range(S)
    ]
    return trajectories[0] if one else trajectories
