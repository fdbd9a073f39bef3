"""Per-sample and per-iteration references for the batched library paths.

The library draws base samples a chunk at a time and applies each agent's
shift by algebra (``make_engine_sampler``, ``deployed_gradients``), and it
scores and differentiates over whole datasets at once (``exact_risk``,
``decoupled_full_gradient``). Its ``engine.run`` advances blocks of
iterations and scans each block for divergence once, and its frozen Newton
solves take Hessian-vector products in float32. It scores test accuracy for
all agents in one stacked product. Its bound curves are running products over
chunks of steps, its step-ratio check takes its step sizes from one array
call, its frozen objective is ``exact_risk`` at the frozen scores, and it
aggregates every metric column in one stacked call per statistic. The
functions here do the same work one agent and one sample, or one iteration
or column, at a time, or in float64, in the plainest form, so the tests can
check the library's paths against them.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from perfnet.engine import agent_streams, dsgd_gd_step, gamma
from perfnet.metrics import CSV_COLUMNS
from perfnet.theory import BoundCurves, RatioCheck
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
    p = expit(scores)
    c = env.row_weights * p * (1.0 - p)

    def hv(v):
        u = c * (env.features @ v + env.row_eps * float(deployed @ v))
        return u @ env.features + float(u @ env.row_eps) * deployed + env.beta * v

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


def bound_curves(tc, schedule, ts) -> BoundCurves:
    """``theory.bound_curves`` with its running products taken one step at a time."""
    ts = np.asarray(sorted(set(int(t) for t in ts)), dtype=int)
    if ts.size == 0 or ts[0] < 0:
        raise ValueError("need nonnegative iterations")
    noise_sq = tc.sigma**2 + tc.varsigma**2
    net_coef = 288.0 * tc.c1 * noise_sq / (tc.rho**2 * tc.mu_tilde)
    fluct_coef = 8.0 * tc.sigma**2 / (tc.mu_tilde * tc.n)
    cons_coef = 2.0 * (9.0 + 12.0 * tc.delta_bar) * noise_sq / tc.rho**2
    cons0 = tc.q0_sq / tc.n

    gap = np.empty(ts.size)
    cons = np.empty(ts.size)
    transient = np.empty(ts.size)
    network = np.empty(ts.size)
    fluct = np.empty(ts.size)

    product = 1.0
    decay = 1.0  # (1 - rho/2)^t
    prev_t = 0
    for k, t in enumerate(ts):
        for i in range(prev_t + 1, t + 1):
            product *= 1.0 - tc.mu_tilde * gamma(schedule, i) / 2.0
            decay *= 1.0 - tc.rho / 2.0
        prev_t = int(t)
        if t == 0:
            transient[k] = tc.D
            network[k] = 0.0
            fluct[k] = 0.0
            cons[k] = cons0
        else:
            g = gamma(schedule, int(t))
            transient[k] = product * tc.D
            network[k] = net_coef * g**2
            fluct[k] = fluct_coef * g
            cons[k] = decay * cons0 + cons_coef * g**2
        gap[k] = transient[k] + network[k] + fluct[k]
    return BoundCurves(
        t=ts, gap_bound=gap, consensus_bound=cons,
        term_transient=transient, term_network=network, term_fluctuation=fluct,
    )


def ratio_condition_check(schedule, tc, T: int) -> RatioCheck:
    """``theory.ratio_condition_check`` with the step sizes taken one step at a time."""
    topo_limit = 1.0 + tc.rho / (4.0 - 2.0 * tc.rho)
    if schedule.kind == "constant":
        return RatioCheck(ok=True, first_violation=None, ratio=None, limit=None)
    for t in range(1, T + 1):
        g_now = gamma(schedule, t)
        g_next = gamma(schedule, t + 1)
        ratio = g_now / g_next
        limit = min(
            math.sqrt(1.0 + (tc.mu_tilde / 4.0) * g_next**2),
            (1.0 + (tc.mu_tilde / 4.0) * g_next**3) ** (1.0 / 3.0),
            topo_limit,
        )
        if ratio > limit:
            return RatioCheck(ok=False, first_violation=t, ratio=ratio, limit=limit)
    return RatioCheck(ok=True, first_violation=None, ratio=None, limit=None)


def frozen_objective(env: Environment, theta, deployed) -> float:
    """The oracle's frozen ridge-logistic objective at ``theta``, distributions frozen at ``deployed``."""
    scores = env.features @ theta + env.row_eps * float(deployed @ theta)
    loss = float(env.row_weights @ _softplus_minus_yu(scores, env.labels))
    return loss + 0.5 * env.beta * float(theta @ theta)


def aggregate_columns(runs: list) -> dict:
    """``metrics.aggregate_columns`` with its statistics taken one column at a time."""
    if not runs:
        return {}
    length = min(len(r["t"]) for r in runs)
    ts = runs[0]["t"][:length]
    for r in runs:
        differs = np.flatnonzero(r["t"][:length] != ts)
        if len(differs):
            length = int(differs[0])
            ts = ts[:length]
    out = {"t": ts.astype(np.int64)}
    for col in CSV_COLUMNS[1:]:
        stack = np.vstack([r[col][:length] for r in runs])
        nan = np.isnan(stack)
        full = ~nan.any(axis=0)
        part = ~full & ~nan.all(axis=0)
        bands = np.full((4, length), np.nan)  # median, p05, p95, mean
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf gives NaN
            if full.any():
                sub = stack[:, full]
                bands[0, full] = np.median(sub, axis=0)
                bands[1:3, full] = np.percentile(sub, [5, 95], axis=0)
                bands[3, full] = np.mean(sub, axis=0)
            if part.any():
                sub = stack[:, part]
                bands[0, part] = np.nanmedian(sub, axis=0)
                bands[1:3, part] = np.nanpercentile(sub, [5, 95], axis=0)
                bands[3, part] = np.nanmean(sub, axis=0)
        for stat, band in zip(("median", "p05", "p95", "mean"), bands):
            out[f"{col}_{stat}"] = band
    return out
