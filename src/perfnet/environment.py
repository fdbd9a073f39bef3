"""Decision-dependent populations and loss functions.

Two population kinds are supported:

* ``gaussian_mean``: agent i observes ``Z = zbar_i + eps_i * theta + sigma * xi``
  with standard normal ``xi`` (componentwise for vector decisions).
* ``strategic_shift``: agent i holds a base dataset of (features, label) pairs;
  a query at decision ``theta`` draws a base pair uniformly and reveals the
  feature vector shifted to ``X + eps_i * theta`` (labels are untouched).

Losses are ``quadratic`` (``|theta - Z|^2 / 2``, strongly convex and smooth
with constants exactly 1) for gaussian populations, ridge-regularized
``logistic`` for strategic ones. Only this module decides how each population
kind samples, scores and differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import expit

__all__ = [
    "GAUSSIAN",
    "STRATEGIC",
    "QUADRATIC",
    "LOGISTIC",
    "UnsupportedKindError",
    "CalibrationError",
    "PopulationSpec",
    "LossSpec",
    "Environment",
    "sample",
    "sample_batch",
    "loss_value",
    "loss_gradient",
    "deployed_gradients",
    "decoupled_risk_gradient",
    "decoupled_full_gradient",
    "exact_risk",
    "assumption_constants",
    "eps_multipliers",
    "make_heterogeneous_suite",
    "make_engine_sampler",
]

GAUSSIAN = "gaussian_mean"
STRATEGIC = "strategic_shift"
QUADRATIC = "quadratic"
LOGISTIC = "logistic"

_LOSS_OF = {GAUSSIAN: QUADRATIC, STRATEGIC: LOGISTIC}


class UnsupportedKindError(ValueError):
    """Operation requested for a population/loss kind that does not support it."""


class CalibrationError(ValueError):
    """A sensitivity grid whose mean is off target."""


@dataclass(frozen=True)
class PopulationSpec:
    """One agent's decision-dependent population."""

    kind: str
    eps: float
    zbar: np.ndarray | None = None    # gaussian: base mean, shape (d,)
    sigma2: float | None = None       # gaussian: noise variance per coordinate
    features: np.ndarray | None = None  # strategic: base features, shape (m_i, d)
    labels: np.ndarray | None = None    # strategic: 0/1 labels, shape (m_i,)

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, STRATEGIC):
            raise UnsupportedKindError(f"unknown population kind {self.kind!r}")
        if self.eps < 0:
            raise ValueError(f"sensitivity must be nonnegative, got {self.eps}")
        if self.kind == GAUSSIAN:
            if self.zbar is None or self.sigma2 is None:
                raise ValueError("gaussian population needs zbar and sigma2")
            if self.sigma2 < 0:
                raise ValueError(f"noise variance must be nonnegative, got {self.sigma2}")
            object.__setattr__(self, "zbar", np.atleast_1d(np.asarray(self.zbar, dtype=float)))
        else:
            if self.features is None or self.labels is None or len(self.features) == 0:
                raise ValueError("strategic population needs a nonempty base dataset")

    @property
    def dim(self) -> int:
        if self.kind == GAUSSIAN:
            return self.zbar.shape[0]
        return self.features.shape[1]


@dataclass(frozen=True)
class LossSpec:
    """Loss function family; ``beta`` is the logistic ridge coefficient."""

    kind: str
    dim: int
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in (QUADRATIC, LOGISTIC):
            raise UnsupportedKindError(f"unknown loss kind {self.kind!r}")
        if self.kind == LOGISTIC and self.beta <= 0:
            raise ValueError(f"logistic loss needs beta > 0, got {self.beta}")


class _Rows(NamedTuple):
    """Every strategic shard stacked row by row, with each row's agent data."""

    features: np.ndarray  # (N, d), shards in agent order
    labels: np.ndarray    # (N,)
    eps: np.ndarray       # (N,), the row's agent sensitivity
    weights: np.ndarray   # (N,), 1 / (n * m_i), so agent averages of shard means are one dot


@dataclass(frozen=True)
class Environment:
    """n populations plus the shared loss; sensitivity summaries are cached.

    Strategic environments also cache ``rows``, all shards stacked into one
    read-only design of ``N = sum m_i`` rows, built on first use. Full-batch
    gradients and exact risks make one pass over it instead of a loop over
    agents. It holds one extra copy of the strategic features (N * d * 8
    bytes; 2 MB for ``hetero_vs_homo``).
    """

    populations: tuple
    loss: LossSpec

    def __post_init__(self):
        if not self.populations:
            raise ValueError("environment needs at least one population")
        kinds = {p.kind for p in self.populations}
        if len(kinds) != 1:
            raise ValueError(f"mixed population kinds {kinds}")
        if _LOSS_OF[self.kind] != self.loss.kind:
            raise ValueError(f"{self.kind} populations need the {_LOSS_OF[self.kind]} loss")
        dims = {p.dim for p in self.populations}
        if dims != {self.loss.dim}:
            raise ValueError(f"population dims {dims} do not match loss dim {self.loss.dim}")

    @property
    def kind(self) -> str:
        return self.populations[0].kind

    @property
    def n(self) -> int:
        return len(self.populations)

    @property
    def dim(self) -> int:
        return self.loss.dim

    @cached_property
    def eps(self) -> np.ndarray:
        arr = np.array([p.eps for p in self.populations], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def eps_avg(self) -> float:
        return float(self.eps.mean())

    @property
    def eps_max(self) -> float:
        return float(self.eps.max())

    @cached_property
    def mu(self) -> float:
        """Strong-convexity constant of the decoupled objective."""
        if self.kind == GAUSSIAN:
            return 1.0
        return self.loss.beta

    @cached_property
    def smoothness(self) -> float:
        """Gradient Lipschitz constant; logistic uses beta + max ||x||^2 / 4."""
        if self.kind == GAUSSIAN:
            return 1.0
        peak = max(float(np.max(np.sum(p.features**2, axis=1))) for p in self.populations)
        return self.loss.beta + peak / 4.0

    @cached_property
    def zbar_stack(self) -> np.ndarray:
        if self.kind != GAUSSIAN:
            raise UnsupportedKindError("zbar_stack is gaussian-only")
        arr = np.stack([p.zbar for p in self.populations])
        arr.setflags(write=False)
        return arr

    @cached_property
    def zbar_mean(self) -> np.ndarray:
        """Agent average of the base means; gaussian-only like ``zbar_stack``."""
        arr = self.zbar_stack.mean(axis=0)
        arr.setflags(write=False)
        return arr

    @cached_property
    def sigma2(self) -> np.ndarray:
        if self.kind != GAUSSIAN:
            raise UnsupportedKindError("sigma2 is gaussian-only")
        arr = np.array([p.sigma2 for p in self.populations], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def rows(self) -> _Rows:
        if self.kind != STRATEGIC:
            raise UnsupportedKindError("rows is strategic-only")
        sizes = np.array([len(p.labels) for p in self.populations])
        rows = _Rows(
            features=np.concatenate([p.features for p in self.populations], dtype=float),
            labels=np.concatenate([p.labels for p in self.populations], dtype=float),
            eps=np.repeat(self.eps, sizes),
            weights=np.repeat(1.0 / (self.n * sizes), sizes),
        )
        for arr in rows:
            arr.setflags(write=False)
        return rows


def _check_theta(env_or_loss, theta: np.ndarray) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = env_or_loss.dim
    if theta.shape != (d,):
        raise ValueError(f"decision has shape {theta.shape}, expected ({d},)")
    return theta


def sample(env: Environment, i: int, theta, rng):
    """One sample from agent i's population reacting to deployed ``theta``.

    Returns an array for gaussian populations and an ``(x, y)`` pair for
    strategic ones.
    """
    if env.kind == GAUSSIAN:
        z, = sample_batch(env, i, theta, 1, rng)
        return z
    x, y = sample_batch(env, i, theta, 1, rng)
    return x[0], int(y[0])


def sample_batch(env: Environment, i: int, theta, batch: int, rng):
    """``batch`` independent samples from agent i's shifted distribution."""
    theta = _check_theta(env, theta)
    pop = env.populations[i]
    if env.kind == GAUSSIAN:
        mean = pop.zbar + pop.eps * theta
        noise = rng.standard_normal((batch, env.dim))
        return mean + np.sqrt(pop.sigma2) * noise
    idx = rng.integers(0, len(pop.features), size=batch)
    return pop.features[idx] + pop.eps * theta, pop.labels[idx]


def _softplus_minus_yu(u, y):
    """Stable ``softplus(u) - y*u``; the linear parts cancel before the log term."""
    u = np.asarray(u, dtype=float)
    return np.log1p(np.exp(-np.abs(u))) + (np.maximum(u, 0.0) - y * u)


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


def deployed_gradients(env: Environment, thetas: np.ndarray, samples) -> np.ndarray:
    """Batch-averaged stochastic gradients for all agents at once.

    ``thetas`` is (n, d), or (S, n, d) for a batch of seeds that share
    ``env``'s loss; ``samples`` is the output of an engine sampler:
    (..., n, batch, d) for gaussian, ``(X, Y)`` with shapes (..., n, batch, d)
    and (..., n, batch) for strategic. Returns the stack of gradients shaped
    like ``thetas``, each evaluated at the agent's own pre-mixing decision.
    """
    if env.kind == GAUSSIAN:
        return thetas - np.add.reduce(samples, axis=-2) / samples.shape[-2]
    x, y = samples
    shifted_scores = np.einsum("...bd,...d->...b", x, thetas)
    resid = expit(shifted_scores) - y
    g = np.einsum("...b,...bd->...d", resid, x) / x.shape[-2]
    return g + env.loss.beta * thetas


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
    pop = env.populations[i]
    return theta - pop.zbar - pop.eps * deployed


def decoupled_full_gradient(env: Environment, theta, deployed) -> np.ndarray:
    """Gradient of the agent-averaged decoupled risk, distributions frozen at ``deployed``.

    Gaussian populations use the closed form; strategic ones average the loss
    gradient over the full shifted empirical dataset, which makes the result
    deterministic. The shifted rows ``x = F + eps_row * deployed`` are never
    formed: ``x @ theta = F @ theta + eps_row * (deployed @ theta)`` and
    ``r @ x = r @ F + (r @ eps_row) * deployed``.
    """
    theta = _check_theta(env, theta)
    deployed = _check_theta(env, deployed)
    if env.kind == GAUSSIAN:
        return theta - env.zbar_mean - env.eps_avg * deployed
    rows = env.rows
    scores = rows.features @ theta + rows.eps * float(deployed @ theta)
    resid = rows.weights * (expit(scores) - rows.labels)
    return resid @ rows.features + float(resid @ rows.eps) * deployed + env.loss.beta * theta


def exact_risk(env: Environment, theta) -> float:
    """Agent-averaged loss at ``theta`` under the distributions ``theta`` induces.

    Gaussian populations use the closed form (the residual term plus half the
    noise variance per dimension); strategic ones average the loss over the
    full shifted empirical datasets in one pass over ``rows``.
    """
    theta = _check_theta(env, theta)
    if env.kind == GAUSSIAN:
        resid = (1.0 - env.eps)[:, None] * theta - env.zbar_stack
        terms = 0.5 * np.sum(resid**2, axis=1) + 0.5 * env.sigma2 * env.dim
        # left-to-right like a loop over agents; np.sum would add pairwise
        return float(np.cumsum(terms)[-1]) / env.n
    rows = env.rows
    sq = float(theta @ theta)
    core = _softplus_minus_yu(rows.features @ theta + rows.eps * sq, rows.labels)
    return float(rows.weights @ core) + 0.5 * env.loss.beta * sq


def assumption_constants(env: Environment, theta_ps) -> tuple[float, float]:
    """Gradient-noise and heterogeneity constants ``(sigma, varsigma)`` at a stable point.

    Gaussian: exact. The noise term is ``sigma^2 = d * max_i sigma2_i``. The
    heterogeneity deviation ``grad f - grad f_i`` is affine in
    ``theta - theta_ps`` with value ``a_i`` at ``theta_ps`` and slope
    ``eps_i - eps_avg``, so ``varsigma_i^2 = ||a_i||^2 + (eps_i - eps_avg)^2``
    is the tightest constant satisfying the quadratic growth bound
    (Cauchy-Schwarz gives ``||a + b u||^2 <= (||a||^2 + b^2)(1 + ||u||^2)``).

    Strategic: both constants are evaluated on the shifted empirical
    distributions at ``theta_ps`` (the growth term is not probed).
    """
    theta_ps = _check_theta(env, theta_ps)
    if env.kind == GAUSSIAN:
        sigma_sq = env.dim * max(p.sigma2 for p in env.populations)
        grad_avg = decoupled_full_gradient(env, theta_ps, theta_ps)
        worst = 0.0
        for i, pop in enumerate(env.populations):
            a = grad_avg - decoupled_risk_gradient(env, i, theta_ps, theta_ps)
            b = pop.eps - env.eps_avg
            worst = max(worst, float(np.dot(a, a)) + b * b)
        return float(np.sqrt(sigma_sq)), float(np.sqrt(worst))
    grad_avg = decoupled_full_gradient(env, theta_ps, theta_ps)
    noise_sq = 0.0
    hetero_sq = 0.0
    for pop in env.populations:
        x = pop.features + pop.eps * theta_ps
        resid = expit(x @ theta_ps) - pop.labels
        grads = resid[:, None] * x + env.loss.beta * theta_ps
        gi = grads.mean(axis=0)
        noise_sq = max(noise_sq, float(np.mean(np.sum((grads - gi) ** 2, axis=1))))
        hetero_sq = max(hetero_sq, float(np.sum((gi - grad_avg) ** 2)))
    return float(np.sqrt(noise_sq)), float(np.sqrt(hetero_sq))


def eps_multipliers(n: int, spread: float) -> np.ndarray:
    """Symmetric multiplicative grid around 1 with half-width ``spread``."""
    if n == 1 or spread == 0.0:
        return np.ones(n)
    return 1.0 + spread * np.linspace(-1.0, 1.0, n)


def make_heterogeneous_suite(
    n: int,
    eps_avg: float,
    spread: float = 0.0,
    kind: str = GAUSSIAN,
    *,
    multipliers=None,
    zbar=10.0,
    sigma2: float = 50.0,
    shards=None,
    beta: float = 1e-4,
) -> Environment:
    """Environment with sensitivities ``eps_i = m_i * eps_avg`` on a grid of mean 1.

    ``spread=0`` gives the homogeneous setting ``eps_i = eps_avg``. An explicit
    ``multipliers`` grid overrides ``spread`` and must average to 1 within
    1e-12, else :class:`CalibrationError`. For the gaussian kind ``zbar`` may
    be a scalar, a length-d vector shared by all agents, or an (n, d) array.
    The strategic kind takes ``shards``, a length-n list of ``(X_i, y_i)``
    pairs (share one pair n times for a homogeneous base).
    """
    if multipliers is None:
        mult = eps_multipliers(n, spread)
    else:
        mult = np.asarray(multipliers, dtype=float)
        if mult.shape != (n,):
            raise CalibrationError(f"need {n} multipliers, got shape {mult.shape}")
    if abs(mult.mean() - 1.0) > 1e-12:
        raise CalibrationError(f"multiplier grid mean {mult.mean()!r} is not 1")
    eps = mult * eps_avg

    if kind == GAUSSIAN:
        zb = np.asarray(zbar, dtype=float)
        if zb.ndim == 0:
            zb = np.full((n, 1), float(zb))
        elif zb.ndim == 1:
            zb = np.tile(zb, (n, 1))
        if zb.shape[0] != n:
            raise ValueError(f"zbar has {zb.shape[0]} rows for {n} agents")
        pops = tuple(
            PopulationSpec(GAUSSIAN, float(eps[i]), zbar=zb[i], sigma2=sigma2)
            for i in range(n)
        )
        return Environment(pops, LossSpec(QUADRATIC, dim=zb.shape[1]))

    if kind == STRATEGIC:
        if shards is None or len(shards) != n:
            raise ValueError(f"strategic suite needs {n} dataset shards")
        d = np.asarray(shards[0][0]).shape[1]
        pops = tuple(
            PopulationSpec(
                STRATEGIC,
                float(eps[i]),
                features=np.asarray(x, dtype=float),
                labels=np.asarray(y, dtype=float),
            )
            for i, (x, y) in enumerate(shards)
        )
        return Environment(pops, LossSpec(LOGISTIC, dim=d, beta=beta))

    raise UnsupportedKindError(f"unknown population kind {kind!r}")


def make_engine_sampler(env, batch: int, streams, chunk: int = 256):
    """Per-agent sampler for the iteration loop, buffered for speed.

    ``env`` is one :class:`Environment` with ``streams`` its n per-agent
    generators, and ``draw(thetas)`` takes (n, d). For a batch of S seeds,
    ``env`` is a sequence of S environments of one kind and size, ``streams``
    holds one list of n generators per seed, ``draw`` takes (S, n, d) and its
    samples carry the same leading seed axis.

    Each agent draws from its own stream, so results do not depend on agent
    evaluation order or on the other seeds of a batch; buffering whole chunks
    of iterations in one preallocated buffer consumes the streams in exactly
    the same order as unbuffered per-iteration draws.
    """
    one = isinstance(env, Environment)
    envs, streams = ((env,), (streams,)) if one else (tuple(env), tuple(streams))
    S, n, d = len(envs), envs[0].n, envs[0].dim
    lead = () if one else (S,)  # a single environment keeps no seed axis
    eps = np.stack([e.eps for e in envs]).reshape(lead + (n, 1, 1))
    pos = chunk

    if envs[0].kind == GAUSSIAN:
        scale = np.sqrt(np.stack([e.sigma2 for e in envs])).reshape(S, n, 1, 1, 1)
        zbar = np.stack([e.zbar_stack for e in envs]).reshape(lead + (n, 1, d))
        noise = np.empty((S, n, chunk, batch, d))

        def draw(thetas: np.ndarray) -> np.ndarray:
            nonlocal pos
            if pos == chunk:
                for gens, buf in zip(streams, noise):
                    for g, out in zip(gens, buf):
                        g.standard_normal(out=out)
                np.multiply(noise, scale, out=noise)
                pos = 0
            scaled = noise[:, :, pos].reshape(lead + (n, batch, d))
            pos += 1
            return zbar + eps * thetas[..., None, :] + scaled

        return draw

    # strategic: one gather per seed into its stacked rows, each agent's
    # indices offset by the agent's first row
    rows = [e.rows for e in envs]
    sizes = [[len(p.labels) for p in e.populations] for e in envs]
    firsts = [np.cumsum(m) - m for m in sizes]
    idx = np.empty((S, n, chunk, batch), dtype=np.intp)

    def draw(thetas: np.ndarray):
        nonlocal pos
        if pos == chunk:
            for gens, m, first, buf in zip(streams, sizes, firsts, idx):
                for i, g in enumerate(gens):
                    buf[i] = first[i] + g.integers(0, m[i], size=(chunk, batch))
            pos = 0
        x = np.empty((S, n, batch, d))
        y = np.empty((S, n, batch))
        for s, r in enumerate(rows):
            # the indices are in range; "clip" lets take write into x directly
            np.take(r.features, idx[s, :, pos], axis=0, out=x[s], mode="clip")
            np.take(r.labels, idx[s, :, pos], out=y[s], mode="clip")
        pos += 1
        x = x.reshape(lead + x.shape[1:])
        x += eps * thetas[..., None, :]
        return x, y.reshape(lead + y.shape[1:])

    return draw
