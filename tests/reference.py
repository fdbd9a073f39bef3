"""Per-sample references for the batched library paths.

The library draws base samples a chunk at a time and applies each agent's
shift by algebra (``make_engine_sampler``, ``deployed_gradients``), and it
scores and differentiates over whole datasets at once (``exact_risk``,
``decoupled_full_gradient``). The functions here do the same work one agent
and one sample at a time, in the plainest form, so the tests can check the
batched paths against them.
"""

import numpy as np

from perfnet.environment import (
    GAUSSIAN,
    QUADRATIC,
    Environment,
    LossSpec,
    UnsupportedKindError,
    _check_theta,
    _softplus_minus_yu,
    expit,
)


def shard(env: Environment, i: int):
    """Agent i's strategic base data ``(features, labels)``: its slice of ``env.rows``."""
    first = int(env.sizes[:i].sum())
    end = first + int(env.sizes[i])
    return env.rows.features[first:end], env.rows.labels[first:end]


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
