"""Convergence-rate constants, step-size conditions, and bound curves.

Everything here is a pure function of instance constants (curvature mu,
smoothness L, gradient-noise sigma, heterogeneity varsigma, spectral gap
rho, sensitivities, a free parameter delta > 0) and the step-size schedule.
The bound curves give per-iteration upper bounds on the expected squared
distance of the average decision to the stable point and on the normalized
consensus error, valid when the schedule satisfies the size cap and the
ratio condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import StepSchedule, gamma
from .environment import Environment, assumption_constants

# bound_curves takes its running products over at most this many steps at a time
_CURVE_CHUNK = 1 << 14

__all__ = [
    "StabilityViolatedError",
    "ConstantsInapplicableError",
    "TheoryConstants",
    "compute_constants",
    "instance_constants",
    "StepSizeCap",
    "step_size_cap",
    "RatioCheck",
    "ratio_condition_check",
    "BoundCurves",
    "bound_curves",
    "transient_threshold",
]


class StabilityViolatedError(RuntimeError):
    """Average sensitivity too large for the rate guarantee to apply."""


class ConstantsInapplicableError(RuntimeError):
    """Constants are undefined (zero average sensitivity: classical regime)."""


@dataclass(frozen=True)
class TheoryConstants:
    """Instance constants plus everything derived from them."""

    mu: float
    L: float
    sigma: float
    varsigma: float
    delta: float
    eps_avg: float
    eps_max: float
    rho: float
    n: int
    gamma1: float
    gap0_sq: float   # squared distance of the initial average to the stable point
    q0_sq: float     # squared Frobenius norm of the initial consensus error
    mu_tilde: float
    c1: float
    c2: float
    c3: float
    D: float
    delta_bar: float


def compute_constants(
    *,
    mu: float,
    L: float,
    sigma: float,
    varsigma: float,
    rho: float,
    n: int,
    eps_avg: float,
    eps_max: float,
    gamma1: float,
    gap0_sq: float = 0.0,
    q0_sq: float = 0.0,
    delta: float = 0.1,
) -> TheoryConstants:
    """Evaluate all rate constants; raises when they are undefined or violated.

    ``eps_avg = 0`` makes c1 undefined (division by zero); that is the
    classical regime without decision feedback and is reported as
    inapplicable rather than patched with a limit. ``mu_tilde <= 0`` means
    the sensitivity condition ``eps_avg < mu / ((1 + delta) L)`` fails.
    """
    if delta <= 0:
        raise ValueError(f"free parameter delta must be positive, got {delta}")
    if eps_avg == 0:
        raise ConstantsInapplicableError(
            "eps_avg = 0: rate constants inapplicable, classical decentralized SGD regime"
        )
    mu_tilde = mu - (1.0 + delta) * eps_avg * L
    if mu_tilde <= 0:
        raise StabilityViolatedError(
            f"mu_tilde = {mu_tilde:.6g} <= 0; need eps_avg < mu / ((1 + delta) L) "
            f"= {mu / ((1 + delta) * L):.6g}, got eps_avg = {eps_avg}"
        )
    c1 = L * (1.0 + eps_max) ** 2 / (2.0 * n * delta * eps_avg)
    c2 = 4.0 * (sigma**2 / n + L**2 * (1.0 + eps_max) ** 2)
    c3 = 12.0 * sigma**2 + 18.0 * L**2 * (1.0 + eps_max) ** 2
    D = gap0_sq + gamma1 * (8.0 * c1 / (n * rho)) * q0_sq
    delta_bar = D + 1.5 + 8.0 * sigma**2 / (c2 * n)
    return TheoryConstants(
        mu=mu, L=L, sigma=sigma, varsigma=varsigma, delta=delta,
        eps_avg=eps_avg, eps_max=eps_max, rho=rho, n=n,
        gamma1=gamma1, gap0_sq=gap0_sq, q0_sq=q0_sq,
        mu_tilde=mu_tilde, c1=c1, c2=c2, c3=c3, D=D, delta_bar=delta_bar,
    )


def instance_constants(
    env: Environment,
    rho: float,
    schedule: StepSchedule,
    theta0=0.0,
    *,
    theta_ps,
    delta: float = 0.1,
) -> TheoryConstants:
    """Constants for a concrete environment with a shared initial decision.

    ``theta_ps`` is the instance's stable point, such as
    :func:`~perfnet.oracle.closed_form_multi_ps` gives a gaussian one.
    Gaussian environments use exact sigma and varsigma; for others the
    at-stable-point empirical values are used. The shared initial point
    makes the initial consensus error exactly zero.
    """
    theta_ps = np.atleast_1d(np.asarray(theta_ps, dtype=float))
    theta0 = np.broadcast_to(np.atleast_1d(np.asarray(theta0, dtype=float)), theta_ps.shape)
    sigma, varsigma = assumption_constants(env, theta_ps)
    return compute_constants(
        mu=env.mu,
        L=env.smoothness,
        sigma=sigma,
        varsigma=varsigma,
        rho=rho,
        n=env.n,
        eps_avg=env.eps_avg,
        eps_max=env.eps_max,
        gamma1=gamma(schedule, 1),
        gap0_sq=float(np.sum((theta0 - theta_ps) ** 2)),
        q0_sq=0.0,
        delta=delta,
    )


@dataclass(frozen=True)
class StepSizeCap:
    """The admissible step-size ceiling and which of the five terms binds."""

    cap: float
    terms: dict
    binding: str


def step_size_cap(tc: TheoryConstants) -> StepSizeCap:
    """Minimum of the five step-size conditions, with a per-term breakdown."""
    noise_sq = tc.sigma**2 + tc.varsigma**2
    terms = {
        "curvature": 4.0 / tc.mu_tilde,
        "descent": tc.mu_tilde / tc.c2,
        "consensus": tc.rho / math.sqrt(2.0 * tc.c3),
        "coupling": (
            math.sqrt(tc.rho**2 * tc.mu_tilde / (192.0 * tc.c1 * noise_sq))
            if noise_sq > 0
            else math.inf
        ),
        "drift": tc.rho * tc.c1 / (4.0 * tc.mu_tilde * tc.c1 + tc.rho * tc.c2),
    }
    binding = min(terms, key=terms.get)
    return StepSizeCap(cap=terms[binding], terms=terms, binding=binding)


@dataclass(frozen=True)
class RatioCheck:
    ok: bool
    first_violation: int | None
    ratio: float | None
    limit: float | None


def ratio_condition_check(schedule: StepSchedule, tc: TheoryConstants, T: int) -> RatioCheck:
    """Verify the successive step-size ratio condition for t = 1..T.

    The ratio gamma_t / gamma_{t+1} must stay below
    min( sqrt(1 + (mu_tilde/4) gamma_{t+1}^2),
         cbrt(1 + (mu_tilde/4) gamma_{t+1}^3),
         1 + rho / (4 - 2 rho) ).
    A violation is a result, not an error.
    """
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


@dataclass(frozen=True)
class BoundCurves:
    """Upper-bound series evaluated at the requested iterations.

    ``gap_bound`` bounds the expected squared distance of the average
    decision to the stable point; ``consensus_bound`` bounds the normalized
    squared consensus error. The three-term split of the gap bound (transient
    product, network/heterogeneity term, noise fluctuation term) is exposed
    for plotting.
    """

    t: np.ndarray
    gap_bound: np.ndarray
    consensus_bound: np.ndarray
    term_transient: np.ndarray
    term_network: np.ndarray
    term_fluctuation: np.ndarray


def bound_curves(tc: TheoryConstants, schedule: StepSchedule, ts) -> BoundCurves:
    """Evaluate the bound curves at (sorted, nonnegative) iterations ``ts``.

    The products over ``(1 - mu_tilde * gamma_i / 2)`` and ``(1 - rho / 2)``
    are running products, in order, over chunks of at most ``_CURVE_CHUNK``
    steps, each chunk starting from the last product of the one before; so
    the cost is linear in ``max(ts)`` and the memory bounded, and each value
    has the bits of a product taken one step at a time. ``gamma_t ** 2`` is
    Python's, the C library's ``pow``, at the requested iterations only.
    At t = 0 no step is taken: both products are 1 and the step size is 0.
    """
    ts = np.asarray(sorted(set(int(t) for t in ts)), dtype=int)
    if ts.size == 0 or ts[0] < 0:
        raise ValueError("need nonnegative iterations")
    noise_sq = tc.sigma**2 + tc.varsigma**2
    net_coef = 288.0 * tc.c1 * noise_sq / (tc.rho**2 * tc.mu_tilde)
    fluct_coef = 8.0 * tc.sigma**2 / (tc.mu_tilde * tc.n)
    cons_coef = 2.0 * (9.0 + 12.0 * tc.delta_bar) * noise_sq / tc.rho**2
    cons0 = tc.q0_sq / tc.n

    product, decay = np.empty(ts.size), np.empty(ts.size)
    shrink = 1.0 - tc.rho / 2.0
    running = np.ones(2)  # both products through step first - 1
    last = max(int(ts[-1]), 1)
    for first in range(1, last + 1, _CURVE_CHUNK):
        span = np.arange(first, min(first + _CURVE_CHUNK, last + 1))
        factors = np.empty((2, span.size + 1))
        factors[:, 0] = running
        factors[0, 1:] = 1.0 - tc.mu_tilde * gamma(schedule, span) / 2.0
        factors[1, 1:] = shrink
        np.multiply.accumulate(factors, axis=1, out=factors)
        # column k holds the products through step first - 1 + k
        here = (ts >= first - 1) & (ts <= span[-1])
        product[here], decay[here] = factors[:, ts[here] - first + 1]
        running = factors[:, -1]
    g = np.where(ts > 0, gamma(schedule, np.maximum(ts, 1)), 0.0)
    g_sq = np.array([x**2 for x in g.tolist()], dtype=float)
    transient = product * tc.D
    network = net_coef * g_sq
    fluct = fluct_coef * g
    cons = decay * cons0 + cons_coef * g_sq
    return BoundCurves(
        t=ts, gap_bound=transient + network + fluct, consensus_bound=cons,
        term_transient=transient, term_network=network, term_fluctuation=fluct,
    )


def transient_threshold(tc: TheoryConstants) -> float:
    """Step-size level below which the noise fluctuation term dominates.

    Once ``gamma_t`` falls under ``delta * rho^2 * eps_avg * sigma^2 /
    (L (sigma^2 + varsigma^2))`` the network/heterogeneity term is dominated
    and the topology and population heterogeneity no longer affect the rate.
    """
    if tc.sigma <= 0:
        raise ValueError("transient threshold needs sigma > 0")
    return tc.delta * tc.rho**2 * tc.eps_avg * tc.sigma**2 / (
        tc.L * (tc.sigma**2 + tc.varsigma**2)
    )
