"""Per-sample and per-iteration references for the batched library paths.

The library draws base samples a chunk at a time and applies each agent's
shift by algebra (``make_engine_sampler``, ``deployed_gradients``), and it
scores and differentiates over whole datasets at once (``exact_risk``,
``decoupled_full_gradient``). Its ``engine.run`` advances blocks of
iterations and scans each block for divergence once, and its frozen Newton
solves take Hessian-vector products in float32. It scores test accuracy for
all agents in one stacked product. The functions here do the same work one
agent and one sample, or one iteration, at a time, or in float64, in the
plainest form, so the tests can check the library's paths against them.
"""

from typing import NamedTuple

import numpy as np

from perfnet.engine import agent_streams, dsgd_gd_step, gamma
from perfnet.environment import (
    GAUSSIAN,
    Environment,
    UnsupportedKindError,
    _check_theta,
    _softplus_minus_yu,
    expit,
    make_engine_sampler,
)

QUADRATIC = "quadratic"
LOGISTIC = "logistic"


class LossSpec(NamedTuple):
    """A per-sample loss on decisions of ``dim``: ``quadratic``, or ``logistic`` with ridge ``beta``."""

    kind: str
    dim: int
    beta: float = 0.0


def loss_of(env: Environment) -> LossSpec:
    """The loss that ``env``'s kind fixes: quadratic for gaussian, ridge logistic for strategic."""
    return LossSpec(QUADRATIC if env.kind == GAUSSIAN else LOGISTIC, env.dim, env.beta)


def shard(env: Environment, i: int):
    """Agent i's strategic base data ``(features, labels)``: its slice of the stacked rows."""
    first = int(env.sizes[:i].sum())
    end = first + int(env.sizes[i])
    return env.features[first:end], env.labels[first:end]


def sample_batch(env: Environment, i: int, theta, batch: int, rng):
    """``batch`` independent samples from agent i's shifted distribution."""
    theta = _check_theta(env, theta)
    if env.kind == GAUSSIAN:
        mean = env.zbar_stack[i] + env.eps[i] * theta
        noise = rng.standard_normal((batch, env.dim))
        return mean + np.sqrt(env.sigma2[i]) * noise
    features, labels = shard(env, i)
    idx = rng.integers(0, len(features), size=batch)
    return features[idx] + env.eps[i] * theta, labels[idx]


def loss_value(loss: LossSpec, theta, z):
    """Loss at ``theta``: a float for one sample, an array for a :func:`sample_batch` draw."""
    theta = _check_theta(loss, theta)
    if loss.kind == QUADRATIC:
        vals = 0.5 * np.sum((theta - np.asarray(z, dtype=float)) ** 2, axis=-1)
    else:
        x, y = z
        vals = _softplus_minus_yu(np.asarray(x, dtype=float) @ theta, y) \
            + 0.5 * loss.beta * float(np.dot(theta, theta))
    return float(vals) if np.ndim(vals) == 0 else vals


def loss_gradient(loss: LossSpec, theta, z) -> np.ndarray:
    """Gradient of the loss in its decision argument."""
    theta = _check_theta(loss, theta)
    if loss.kind == QUADRATIC:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return theta - z
    x, y = z
    x = np.asarray(x, dtype=float)
    return (expit(float(np.dot(x, theta))) - y) * x + loss.beta * theta


def decoupled_risk_gradient(env: Environment, i: int, theta, deployed) -> np.ndarray:
    """Analytic gradient of agent i's decoupled risk at ``theta`` under deployment ``deployed``.

    Closed form exists for the gaussian kind only:
    ``theta - zbar_i - eps_i * deployed``.
    """
    if env.kind != GAUSSIAN:
        raise UnsupportedKindError(
            "no closed-form decoupled gradient for strategic populations; "
            "use the full-batch path in perfnet.metrics"
        )
    theta = _check_theta(env, theta)
    deployed = _check_theta(env, deployed)
    return theta - env.zbar_stack[i] - env.eps[i] * deployed


def frozen_hessian(env: Environment, scores, deployed):
    """The frozen objective's Hessian-vector product in float64, from the stacked rows.

    ``H v = X^T (c * X v) + beta v`` with ``c = w p (1 - p)``, ``p =
    sigmoid(scores)`` and the shifted design ``X = F + eps_row deployed^T``,
    as ``oracle._frozen_hessian`` computes it in float32.
    """
    rows = env.rows
    p = expit(scores)
    c = rows.weights * p * (1.0 - p)

    def hv(v):
        u = c * (rows.features @ v + rows.eps * float(deployed @ v))
        return u @ rows.features + float(u @ rows.eps) * deployed + env.beta * v

    return hv


def stepped(cfg, envs, mixing, schedule, seeds):
    """Each seed's stop iteration (or None) and its (S, n, d) decisions by t, one step at a time.

    Each iteration is one ``dsgd_gd_step`` with an unbuffered (``chunk=1``)
    sampler. A seed stops at the first iteration that gives it a non-finite
    entry or one above ``cfg.divergence_threshold`` in absolute value, and
    from then on keeps its last finite rows.
    """
    n, d = envs[0].n, envs[0].dim
    draw = make_engine_sampler(envs, cfg.batch, [agent_streams(seed, n) for seed in seeds], chunk=1)
    theta = np.empty((len(seeds), n, d))
    theta[...] = cfg.theta0
    states, stops = [theta.copy()], [None] * len(seeds)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.T + 1):
            nxt = dsgd_gd_step(theta, mixing.at(t), envs[0], gamma(schedule, t), draw)
            for s in range(len(seeds)):
                if stops[s] is None and not (np.isfinite(nxt[s]).all()
                                             and np.abs(nxt[s]).max() <= cfg.divergence_threshold):
                    stops[s] = t
                if stops[s] is not None:
                    nxt[s] = theta[s]
            theta = nxt
            states.append(theta.copy())
    return stops, states


def shifted_test_accuracy(env: Environment, theta, features, labels) -> float:
    """``metrics.shifted_test_accuracy`` with one mat-vec and one count per agent."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        theta = np.tile(theta, (env.n, 1))
    pos = labels == 1
    valid = pos | (labels == 0)
    m = len(features)
    acc = 0.0
    for eps, th in zip(env.eps.tolist(), theta):
        scores = features @ th + eps * float(th @ th)
        acc += np.count_nonzero(((scores >= 0.0) == pos) & valid) / m
    return acc / env.n
