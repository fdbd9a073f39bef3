"""Stable-point computation for decision-dependent objectives.

The deployment map M sends a decision to the minimizer of the average
decoupled risk with all distributions frozen at that decision. Its fixed
point is the consensual stable solution the iterative scheme targets. This
module computes it in closed form (gaussian mean estimation), by repeated
full-batch gradient descent (logistic on empirical data), and estimates the
map's Lipschitz ratio empirically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .engine import PROBE_STREAM, stream
from .environment import (
    Environment,
    GAUSSIAN,
    UnsupportedKindError,
    decoupled_full_gradient,
)

__all__ = [
    "NoFixedPointError",
    "FixedPointResult",
    "ContractionReport",
    "ExistenceResult",
    "closed_form_multi_ps",
    "closed_form_or_none",
    "apply_M",
    "repeated_gd_fixed_point",
    "contraction_probe",
    "existence_check",
]

# Matches the engine's blow-up cutoff.
DIVERGENCE_THRESHOLD = 1e12


class NoFixedPointError(RuntimeError):
    """The deployment map has no fixed point in the requested regime."""


@dataclass(frozen=True)
class FixedPointResult:
    theta_ps: np.ndarray
    residual: float
    deployments: int
    converged: bool
    diverged: bool = False


@dataclass(frozen=True)
class ContractionReport:
    empirical_ratio: float
    theoretical_bound: float
    pairs: int


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    threshold: float
    variant: str


def closed_form_multi_ps(env: Environment) -> np.ndarray:
    """Closed-form stable point for gaussian mean estimation.

    Componentwise ``mean(zbar) / (1 - eps_avg)``; requires ``eps_avg < 1``
    (the quadratic loss has curvature and smoothness exactly 1). Other kinds
    raise :class:`~perfnet.environment.UnsupportedKindError`.
    """
    zbar = env.zbar_stack
    if env.eps_avg >= 1.0:
        raise NoFixedPointError(
            f"eps_avg = {env.eps_avg} >= 1: no stable point exists"
        )
    return zbar.mean(axis=0) / (1.0 - env.eps_avg)


def closed_form_or_none(env: Environment) -> np.ndarray | None:
    """The closed-form stable point, or None when the instance has none."""
    try:
        return closed_form_multi_ps(env)
    except (UnsupportedKindError, NoFixedPointError):
        return None


def _minimize_frozen(env, deployed, theta_init, inner, inner_tol):
    """Full-batch GD with step 1/L on the deployment-frozen objective."""
    step = 1.0 / env.smoothness
    theta = np.array(theta_init, dtype=float)
    for k in range(inner):
        g = decoupled_full_gradient(env, theta, deployed)
        gn = float(np.linalg.norm(g))
        if gn <= inner_tol:
            return theta, gn, k
        theta = theta - step * g
    g = decoupled_full_gradient(env, theta, deployed)
    return theta, float(np.linalg.norm(g)), inner


def apply_M(env: Environment, theta, inner: int = 1000, inner_tol: float = 1e-10) -> np.ndarray:
    """Evaluate the deployment map: minimize the decoupled risk frozen at ``theta``.

    Gaussian environments use the exact analytic minimizer
    ``mean(zbar_i + eps_i * theta)``. Logistic ones run full-batch gradient
    descent on the deterministically shifted empirical datasets; if the
    budget runs out before ``inner_tol`` a warning flags the partial result.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if env.kind == GAUSSIAN:
        return env.zbar_stack.mean(axis=0) + env.eps_avg * theta
    out, gn, _ = _minimize_frozen(env, theta, theta, inner, inner_tol)
    if gn > inner_tol:
        warnings.warn(
            f"inner GD budget {inner} exhausted with gradient norm {gn:.3e} > {inner_tol:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def repeated_gd_fixed_point(
    env: Environment,
    deployments: int = 10_000,
    inner: int = 1000,
    tol: float = 1e-8,
    inner_tol: float = 1e-10,
    theta0=None,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> FixedPointResult:
    """Iterate the deployment map until successive decisions agree within ``tol``.

    Convergence is geometric whenever the map contracts
    (``eps_avg * L / mu < 1``). If the iterates blow past
    ``divergence_threshold`` a no-fixed-point result is returned with
    ``diverged=True`` rather than raising: beyond the stability threshold
    unbounded growth is the expected, reportable outcome.
    """
    theta = np.zeros(env.dim) if theta0 is None else np.atleast_1d(np.asarray(theta0, dtype=float))
    used = 0
    for _ in range(deployments):
        nxt = apply_M(env, theta, inner=inner, inner_tol=inner_tol)
        used += 1
        if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > divergence_threshold:
            return FixedPointResult(theta, float("inf"), used, converged=False, diverged=True)
        delta = float(np.linalg.norm(nxt - theta))
        theta = nxt
        if delta <= tol:
            residual = float(np.linalg.norm(apply_M(env, theta, inner=inner, inner_tol=inner_tol) - theta))
            return FixedPointResult(theta, residual, used + 1, converged=True)
    residual = float(np.linalg.norm(apply_M(env, theta, inner=inner, inner_tol=inner_tol) - theta))
    return FixedPointResult(theta, residual, used + 1, converged=False)


def contraction_probe(
    env: Environment,
    pairs: int = 16,
    radius: float = 10.0,
    rng=None,
    center=None,
    inner: int = 1000,
    inner_tol: float = 1e-10,
) -> ContractionReport:
    """Empirical Lipschitz ratio of the deployment map over random probe pairs.

    Pairs are drawn uniformly in a ball around ``center`` (default: the best
    available stable-point estimate). The theoretical bound is
    ``eps_avg * L / mu``.
    """
    if rng is None:
        rng = stream(0, PROBE_STREAM)
    if center is None:
        center = closed_form_or_none(env)
    if center is None:
        center = repeated_gd_fixed_point(env, deployments=200, inner=inner, tol=1e-10).theta_ps
    center = np.atleast_1d(np.asarray(center, dtype=float))

    worst = 0.0
    for _ in range(pairs):
        a = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
        b = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
        gap = float(np.linalg.norm(a - b))
        if gap < 1e-9:
            continue
        ma = apply_M(env, a, inner=inner, inner_tol=inner_tol)
        mb = apply_M(env, b, inner=inner, inner_tol=inner_tol)
        worst = max(worst, float(np.linalg.norm(ma - mb)) / gap)
    bound = env.eps_avg * env.smoothness / env.mu
    return ContractionReport(empirical_ratio=worst, theoretical_bound=bound, pairs=pairs)


def existence_check(
    eps_avg: float,
    mu: float,
    L: float,
    variant: str = "local",
    n: int | None = None,
) -> ExistenceResult:
    """Stable-point existence threshold on the average sensitivity.

    ``local``: each population reacts to its own agent only; the threshold is
    ``mu / L``. ``global_influence``: every population reacts to the stacked
    decision profile, tightening the threshold to ``mu / (sqrt(n) L)``.
    """
    if mu <= 0 or L <= 0:
        raise ValueError("curvature and smoothness constants must be positive")
    if variant == "local":
        threshold = mu / L
    elif variant == "global_influence":
        if n is None or n < 1:
            raise ValueError("global_influence variant needs the agent count n")
        threshold = mu / (np.sqrt(n) * L)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ExistenceResult(exists=bool(eps_avg < threshold), threshold=float(threshold), variant=variant)
