"""Decision-dependent populations and their losses.

Two population kinds are supported:

* ``gaussian_mean``: agent i observes ``Z = zbar_i + eps_i * theta + sigma * xi``
  with standard normal ``xi`` (componentwise for vector decisions).
* ``strategic_shift``: agent i holds a base dataset of (features, label) pairs;
  a query at decision ``theta`` draws a base pair uniformly and reveals the
  feature vector shifted to ``X + eps_i * theta`` (labels are untouched).

The kind fixes the loss: ``|theta - Z|^2 / 2`` (strongly convex and smooth
with constants exactly 1) for gaussian populations, ``beta``-ridge logistic
for strategic ones. Only this module decides how each population kind
samples, scores and differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "GAUSSIAN",
    "STRATEGIC",
    "UnsupportedKindError",
    "Environment",
    "deployed_gradients",
    "shifted_scores",
    "decoupled_full_gradient",
    "exact_risk",
    "assumption_constants",
    "eps_multipliers",
    "make_heterogeneous_suite",
    "make_engine_sampler",
    "expit",
]

GAUSSIAN = "gaussian_mean"
STRATEGIC = "strategic_shift"


class UnsupportedKindError(ValueError):
    """Operation requested for a population/loss kind that does not support it."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Environment:
    """n agents' populations as read-only arrays stacked per agent.

    ``eps`` (n,) holds the sensitivities. A gaussian environment sets
    ``zbar_stack`` (n, d) and ``sigma2`` (n,); a strategic one sets
    ``features`` (N, d) and ``labels`` (N,), every shard stacked row by row in
    agent order, the shard ``sizes`` (n,) and a ridge ``beta`` > 0. The other
    kind's fields are None and a gaussian ``beta`` is 0. The kind and ``dim``
    are read from the data; agent i's shard is the ``sizes[i]`` rows after
    the first ``sizes[:i].sum()``.
    """

    eps: np.ndarray
    zbar_stack: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    sizes: np.ndarray | None = None
    beta: float = 0.0

    def __post_init__(self):
        n = len(self.eps)
        if n == 0:
            raise ValueError("environment needs at least one population")
        if not np.all(np.isfinite(self.eps)):
            raise ValueError("sensitivity must be finite")
        if np.any(self.eps < 0):
            raise ValueError(f"sensitivity must be nonnegative, got {self.eps.min()}")
        if (self.zbar_stack is None) == (self.features is None):
            raise ValueError("environment needs the data of exactly one population kind")
        if self.kind == GAUSSIAN:
            if self.sigma2 is None:
                raise ValueError("gaussian population needs zbar and sigma2")
            if not np.all(np.isfinite(self.sigma2)):
                raise ValueError("noise variance must be finite")
            if np.any(self.sigma2 < 0):
                raise ValueError(f"noise variance must be nonnegative, got {self.sigma2.min()}")
            if self.zbar_stack.shape[0] != n:
                raise ValueError(f"zbar has {self.zbar_stack.shape[0]} rows for {n} agents")
            if self.beta != 0:
                raise ValueError(f"gaussian population takes no ridge beta, got {self.beta}")
        else:
            if self.sizes is None or len(self.sizes) != n or np.any(self.sizes <= 0):
                raise ValueError("strategic population needs a nonempty base dataset")
            m = len(self.features)
            if self.labels is None or self.labels.shape != (m,) or self.sizes.sum() != m:
                raise ValueError(f"labels and shard sizes must match the {m} feature rows")
            if not self.beta > 0:
                raise ValueError(f"strategic population needs a ridge beta > 0, got {self.beta}")
        for arr in (self.eps, self.zbar_stack, self.sigma2, self.features, self.labels, self.sizes):
            if arr is not None:
                arr.setflags(write=False)

    def __reduce__(self):
        """Pickle as the constructor's arguments, so an unpickled copy's arrays are read-only too."""
        return Environment, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def kind(self) -> str:
        return GAUSSIAN if self.features is None else STRATEGIC

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def dim(self) -> int:
        return (self.zbar_stack if self.features is None else self.features).shape[1]

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
        return self.beta

    @cached_property
    def smoothness(self) -> float:
        """Gradient Lipschitz constant; logistic uses beta + max ||x||^2 / 4."""
        if self.kind == GAUSSIAN:
            return 1.0
        return self.beta + float(np.max(np.sum(self.features**2, axis=1))) / 4.0

    # derived arrays, read-only and built on first use; each is None for the other kind

    @cached_property
    def zbar_mean(self) -> np.ndarray | None:
        """Agent average of the gaussian base means (d,)."""
        return None if self.zbar_stack is None else _read_only(self.zbar_stack.mean(axis=0))

    @cached_property
    def row_eps(self) -> np.ndarray | None:
        """Each strategic row's agent sensitivity (N,)."""
        return None if self.features is None else _read_only(np.repeat(self.eps, self.sizes))

    @cached_property
    def row_weights(self) -> np.ndarray | None:
        """Each strategic row's weight ``1 / (n m_i)`` (N,): an agent average of shard means is one dot."""
        if self.features is None:
            return None
        return _read_only(np.repeat(1.0 / (self.n * self.sizes), self.sizes))

    @cached_property
    def rows32(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(features, row_eps)`` as float32 copies.

        Only the frozen Newton–CG's Hessian-vector products read them, so a
        run that never solves a frozen problem never builds them.
        """
        if self.features is None:
            return None
        return _read_only(self.features.astype(np.float32)), _read_only(self.row_eps.astype(np.float32))


def _check_theta(env_or_loss, theta: np.ndarray) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = env_or_loss.dim
    if theta.shape != (d,):
        raise ValueError(f"decision has shape {theta.shape}, expected ({d},)")
    return theta


def expit(x, out=None):
    """The logistic sigmoid ``1 / (1 + exp(-x))``, in numpy; into ``out`` when given, which may be ``x``.

    A large negative score overflows ``exp`` to inf and gives exactly 0; the
    overflow warning is silenced. Each element is computed alone, so a
    value's bits do not depend on the batch, stride or offset it sits in.
    numpy's SIMD ``exp`` is not the C library's: on an AVX-512 host this
    differs from ``scipy.special.expit`` on 38 801 of 2e6 standard normals,
    by at most 4 ulp. That does not newly tie strategic artifacts to the
    machine, whose BLAS kernel already sets their bits. It spares every
    strategic process the ~0.24 s import of ``scipy.special``.
    """
    with np.errstate(over="ignore"):
        t = np.negative(x, out=out)
        t = np.exp(t, out=out)
        t = np.add(t, 1.0, out=out)
        return np.divide(1.0, t, out=out)


def _softplus_minus_yu(u, y):
    """Stable ``softplus(u) - y*u``; the linear parts cancel before the log term."""
    u = np.asarray(u, dtype=float)
    return np.log1p(np.exp(-np.abs(u))) + (np.maximum(u, 0.0) - y * u)


def deployed_gradients(env: Environment, thetas: np.ndarray, samples) -> np.ndarray:
    """Batch-averaged stochastic gradients for all agents at once.

    ``thetas`` is (n, d), or (S, n, d) for a batch of seeds whose
    environments share ``env``'s kind, dimension and ``beta``; ``samples`` is
    one :func:`make_engine_sampler` draw.
    Returns the stack of gradients shaped like ``thetas``, each evaluated at
    the agent's own pre-mixing decision, which is also the deployment.

    No shifted sample is formed. Gaussian: at ``Z = zbar_i + eps_i theta_i +
    sigma_i xi`` the quadratic loss's batch gradient is ``keep * thetas - base``,
    ``(1 - eps_i) theta_i - (zbar_i + sigma_i mean_b xi)``. Strategic, as in
    :func:`decoupled_full_gradient`: ``x @ theta_i = F @ theta_i + eps_i |theta_i|^2``
    and ``r @ x = r @ F + eps_i (sum r) theta_i`` for ``x = F + eps_i * theta_i``.
    """
    if env.kind == GAUSSIAN:
        base, keep = samples
        return keep * thetas - base
    rows, y, eps = samples
    b = rows.shape[-2]
    sq = (thetas[..., None, :] @ thetas[..., None])[..., 0]  # |theta_i|^2, (..., n, 1)
    # expit(F theta + eps |theta|^2) - y, its operations in their usual order
    # but in place on the score's array, so that the bits do not change
    resid = (rows @ thetas[..., None])[..., 0]
    resid += eps * sq
    expit(resid, out=resid)
    resid -= y
    # (r @ F + eps (sum r) theta) / b + beta theta, with the per-agent scalars
    # gathered first so that only three (..., n, d) operations remain
    coef = eps * np.add.reduce(resid, axis=-1, keepdims=True)
    coef /= b
    coef += env.beta
    grads = (resid[..., None, :] @ rows)[..., 0, :]
    grads /= b
    grads += coef * thetas
    return grads


def shifted_scores(env: Environment, theta, deployed) -> np.ndarray | None:
    """Scores ``x @ theta`` of the strategic rows ``x = F + eps_row * deployed``, never formed.

    None for a gaussian environment, whose risk and gradient take no scores.
    """
    if env.kind == GAUSSIAN:
        return None
    return env.features @ theta + env.row_eps * float(deployed @ theta)


def decoupled_full_gradient(env: Environment, theta, deployed, scores=None) -> np.ndarray:
    """Gradient of the agent-averaged decoupled risk, distributions frozen at ``deployed``.

    Gaussian populations use the closed form; strategic ones average the loss
    gradient over the full shifted empirical dataset, which makes the result
    deterministic. The shifted rows ``x`` are never formed:
    ``r @ x = r @ F + (r @ eps_row) * deployed``.

    ``scores``, when given, must be ``shifted_scores(env, theta, deployed)``;
    they are then not recomputed, and the bits are the same. The gaussian
    branch ignores them.
    """
    theta = _check_theta(env, theta)
    deployed = _check_theta(env, deployed)
    if env.kind == GAUSSIAN:
        return theta - env.zbar_mean - env.eps_avg * deployed
    if scores is None:
        scores = shifted_scores(env, theta, deployed)
    resid = env.row_weights * (expit(scores) - env.labels)
    return resid @ env.features + float(resid @ env.row_eps) * deployed + env.beta * theta


def exact_risk(env: Environment, theta, scores=None) -> float:
    """Agent-averaged loss at ``theta`` under the distributions ``theta`` induces.

    Gaussian populations use the closed form (the residual term plus half the
    noise variance per dimension); strategic ones average the loss over the
    full shifted empirical datasets in one pass over the stacked rows.
    ``scores`` is as in :func:`decoupled_full_gradient`, with ``deployed = theta``.
    """
    theta = _check_theta(env, theta)
    if env.kind == GAUSSIAN:
        resid = (1.0 - env.eps)[:, None] * theta - env.zbar_stack
        terms = 0.5 * np.sum(resid**2, axis=1) + 0.5 * env.sigma2 * env.dim
        # left-to-right like a loop over agents; np.sum would add pairwise
        return float(np.cumsum(terms)[-1]) / env.n
    if scores is None:
        scores = shifted_scores(env, theta, theta)
    core = _softplus_minus_yu(scores, env.labels)
    return float(env.row_weights @ core) + 0.5 * env.beta * float(theta @ theta)


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
    grad_avg = decoupled_full_gradient(env, theta_ps, theta_ps)
    if env.kind == GAUSSIAN:
        sigma_sq = env.dim * float(env.sigma2.max())
        worst = 0.0
        for zbar, eps in zip(env.zbar_stack, env.eps.tolist()):
            a = grad_avg - (theta_ps - zbar - eps * theta_ps)
            b = eps - env.eps_avg
            worst = max(worst, float(np.dot(a, a)) + b * b)
        return float(np.sqrt(sigma_sq)), float(np.sqrt(worst))
    noise_sq = 0.0
    hetero_sq = 0.0
    bounds = np.cumsum(env.sizes)[:-1]
    for f, y, eps in zip(np.split(env.features, bounds), np.split(env.labels, bounds),
                         env.eps.tolist()):
        x = f + eps * theta_ps
        resid = expit(x @ theta_ps) - y
        grads = resid[:, None] * x + env.beta * theta_ps
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
    *,
    eps=None,
    zbar=10.0,
    sigma2: float = 50.0,
    shards=None,
    beta: float = 1e-4,
) -> Environment:
    """Environment with sensitivities ``eps_i = m_i * eps_avg`` on a grid of mean 1.

    ``spread=0`` gives the homogeneous setting ``eps_i = eps_avg``. An explicit
    ``eps`` list overrides ``spread`` and is used exactly as given: it must be
    finite, hold n values and average to ``eps_avg`` within 1e-12 relative,
    else ``ValueError``. Without ``shards`` the populations are gaussian:
    ``zbar`` may be a scalar, a length-d vector shared by all agents, or an
    (n, d) array. With ``shards``, a length-n list of ``(X_i, y_i)`` pairs
    (share one pair n times for a homogeneous base), they are strategic, with
    the ridge ``beta``; ``zbar`` and ``sigma2`` are then unused, as ``beta``
    is for gaussian populations.
    """
    # checked before any mean, which would warn on an empty grid
    if n < 1:
        raise ValueError("environment needs at least one population")
    if eps is None:
        mult = eps_multipliers(n, spread)
        # a NaN spread is reported as a bad grid, not as a NaN sensitivity
        if not np.all(np.isfinite(mult)):
            raise ValueError(f"multiplier grid for spread {spread} is not finite")
        eps = mult * eps_avg
    else:
        eps = np.array(eps, dtype=float)
        if eps.shape != (n,):
            raise ValueError(f"need {n} sensitivities, got shape {eps.shape}")
        # NaN fails no comparison, so a NaN list would pass the mean test alone
        if not np.all(np.isfinite(eps)):
            raise ValueError("sensitivity list is not finite")
        if abs(eps.mean() - eps_avg) > 1e-12 * abs(eps_avg):
            raise ValueError(f"sensitivity mean {float(eps.mean())} is not eps_avg = {eps_avg}")

    if shards is None:
        zb = np.array(zbar, dtype=float)
        if zb.ndim == 0:
            zb = np.full((n, 1), float(zb))
        elif zb.ndim == 1:
            zb = np.tile(zb, (n, 1))
        return Environment(eps, zbar_stack=zb, sigma2=np.full(n, sigma2, dtype=float))

    if len(shards) != n or not all(len(y) for _, y in shards):
        raise ValueError(f"strategic suite needs {n} nonempty dataset shards")
    return Environment(
        eps,
        features=np.concatenate([np.asarray(x, dtype=float) for x, _ in shards]),
        labels=np.concatenate([np.asarray(y, dtype=float) for _, y in shards]),
        sizes=np.array([len(y) for _, y in shards]),
        beta=beta,
    )


def make_engine_sampler(envs, batch: int, streams, chunk: int):
    """Per-agent sampler for the iteration loop of a batch of seeds, buffered for speed.

    ``envs`` holds S environments of one kind and size, one per seed, and
    ``streams`` one list of n per-agent generators per seed; ``draw(thetas)``
    takes (S, n, d) and its samples carry the same leading seed axis.

    No draw depends on the deployment; :func:`deployed_gradients` applies each
    agent's shift by algebra. Gaussian draws are ``(base, keep)``: the batch-mean
    base draws ``zbar_i + sigma_i * mean_b xi`` (S, n, d), computed a chunk at a
    time into a new array that later draws never overwrite, and the read-only
    ``1 - eps_i`` (S, n, 1). Strategic draws are ``(F, Y, eps)``: the gathered
    base rows, their labels and each agent's sensitivity (S, n, 1), which travel
    with the draws because the seeds of one batch may differ in them.

    Each agent draws from its own stream, so results do not depend on agent
    evaluation order or on the other seeds of a batch; buffering whole chunks
    of ``chunk`` iterations in one preallocated buffer consumes the streams
    in exactly the same order as unbuffered per-iteration draws.
    """
    envs, streams = tuple(envs), tuple(streams)
    S, n, d = len(envs), envs[0].n, envs[0].dim
    eps = np.stack([e.eps for e in envs])[..., None]

    if envs[0].kind == GAUSSIAN:
        scale = np.sqrt(np.stack([e.sigma2 for e in envs])).reshape(S, n, 1)
        zbar = np.stack([e.zbar_stack for e in envs])
        keep = 1.0 - eps
        keep.setflags(write=False)
        noise = np.empty((S, n, chunk, batch, d))
        pos, base = chunk, None

        def gaussian_draw(thetas: np.ndarray):
            nonlocal pos, base
            if pos == chunk:
                base = None  # dropped first, so that the sampler holds one chunk of draws at a time
                for gens, buf in zip(streams, noise):
                    for g, out in zip(gens, buf):
                        g.standard_normal(out=out)
                # (chunk, S, n, d), each step's draws one contiguous block
                base = np.multiply(scale, np.moveaxis(noise.mean(axis=3), 2, 0), order="C")
                base += zbar
                pos = 0
            pos += 1
            return base[pos - 1], keep

        return gaussian_draw

    # strategic: one gather per seed into its stacked rows, each agent's
    # indices offset by the agent's first row; a step's indices are one
    # contiguous (n, batch) block, and the labels of a whole chunk are
    # gathered at its refill
    eps.setflags(write=False)
    pos = chunk
    sizes = [e.sizes for e in envs]
    firsts = [np.cumsum(m) - m for m in sizes]
    idx = np.empty((S, chunk, n, batch), dtype=np.intp)
    labels = None

    def draw(thetas: np.ndarray):
        nonlocal pos, labels
        if pos == chunk:
            labels = None  # dropped first, so that the sampler holds one chunk of labels at a time
            labels = np.empty((S, chunk, n, batch))
            for gens, m, first, buf, e, out in zip(streams, sizes, firsts, idx, envs, labels):
                for i, g in enumerate(gens):
                    buf[:, i] = first[i] + g.integers(0, m[i], size=(chunk, batch))
                e.labels.take(buf, out=out, mode="clip")
            pos = 0
        x = np.empty((S, n, batch, d))
        for s, e in enumerate(envs):
            # the indices are in range; "clip" lets take write into x directly
            e.features.take(idx[s, pos], axis=0, out=x[s], mode="clip")
        y = labels[:, pos]
        pos += 1
        return x, y, eps

    return draw
