"""Stable-point computation for decision-dependent objectives.

The deployment map M sends a decision to the minimizer of the average
decoupled risk with all distributions frozen at that decision. Its fixed
point is the consensual stable solution the iterative scheme targets. This
module computes it in closed form (gaussian mean estimation) or as the
Newton root of the stable-point equation ``G(theta) = grad R(theta; theta)
= 0`` (logistic on empirical data), iterates the map itself, and estimates
the map's Lipschitz ratio empirically. The strategic frozen problem inside
M is a ridge-logistic fit solved by matrix-free Newton: Hessian-vector
products come from the stacked base rows without forming the shifted design.
A frozen solve stops at gradient norm ``|g| <= _INNER_TOL = 1e-10``. Each
Newton step's conjugate-gradient solve stops at relative residual
``min(0.5, max(|g|, 0.5 _INNER_TOL / |g|))``. The ``|g|`` term is a forcing
term ``O(|g|)``, which keeps the quadratic local rate of exact Newton (Dembo,
Eisenstat & Steihaug 1982). The safeguard ``0.5 _INNER_TOL / |g|`` stops the
oversolving of the last steps: a full step leaves a gradient of about the CG
residual, so a residual of ``0.5 _INNER_TOL`` already lands below the stop
``|g| <= _INNER_TOL``, and a tighter one buys no accuracy in the result
(Kelley 1995, section 6.3; Eisenstat & Walker 1996). Each step scores its
iterate ``X theta`` once, in the Armijo objective: the accepted point's
scores give both the Hessian weights and the gradient, which takes them as
``decoupled_full_gradient``'s ``scores`` and returns the bits a fresh
scoring would.

The Hessian-vector products run in float32: the features, row sensitivities,
curvature weights and deployed decision are cast, the product is returned as
float64, and ``beta v`` is added in float64. Everything that decides the
answer stays float64: the CG vectors, the gradient, the Armijo objective and
the stop ``|g| <= _INNER_TOL``. Inexact Newton needs each step's model only
to its CG tolerance (Dembo, Eisenstat & Steihaug 1982), which is never below
``sqrt(0.5 _INNER_TOL)`` (7.1e-6), while the float32 product is off by under
1e-6 relative on both strategic presets. So a solve still ends only at a
float64 gradient norm ``<= _INNER_TOL``, the same guarantee as with a
float64 product.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DIVERGENCE_THRESHOLD
from .engine import PROBE_STREAM, stream
from .environment import (
    Environment,
    GAUSSIAN,
    UnsupportedKindError,
    _softplus_minus_yu,
    decoupled_full_gradient,
    expit,
    shifted_scores,
)

__all__ = [
    "NoFixedPointError",
    "FixedPointResult",
    "ContractionReport",
    "ExistenceResult",
    "closed_form_multi_ps",
    "closed_form_or_none",
    "stable_point",
    "apply_M",
    "repeated_gd_fixed_point",
    "contraction_probe",
    "existence_check",
]

class NoFixedPointError(RuntimeError):
    """The deployment map has no fixed point in the requested regime."""


@dataclass(frozen=True)
class FixedPointResult:
    """:func:`repeated_gd_fixed_point`'s last finite iterate ``theta_ps`` and how it got there.

    ``residual`` is the last deployment's move ``|theta_k - theta_{k-1}|``, the
    quantity compared with ``tol`` (inf after a divergence or with no
    deployment); ``deployments`` counts the map evaluations made; and
    ``budget_exhausted`` the strategic frozen solves that ran out of inner steps.
    """

    theta_ps: np.ndarray
    residual: float
    deployments: int
    converged: bool
    diverged: bool = False
    budget_exhausted: int = 0


@dataclass(frozen=True)
class ContractionReport:
    """The deployment map's largest Lipschitz ratio over random pairs, and its bound.

    ``empirical_ratio`` is only a lower bound on the map's Lipschitz constant:
    on ``spam_logistic`` it read 0.0157 while the map's spectral radius is
    about 1.18, so a ratio below 1 does not show that the map contracts.
    """

    empirical_ratio: float
    theoretical_bound: float
    pairs: int
    budget_exhausted: int = 0


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
    if env.kind != GAUSSIAN:
        raise UnsupportedKindError(f"no closed-form stable point for {env.kind} populations")
    if env.eps_avg >= 1.0:
        raise NoFixedPointError(
            f"eps_avg = {env.eps_avg} >= 1: no stable point exists"
        )
    return env.zbar_mean / (1.0 - env.eps_avg)


def closed_form_or_none(env: Environment) -> np.ndarray | None:
    """The closed-form stable point, or None when the instance has none."""
    try:
        return closed_form_multi_ps(env)
    except (UnsupportedKindError, NoFixedPointError):
        return None


# Newton decrements below this are roundoff in the frozen objective: an
# Armijo test cannot see them, so the full step is taken
_DECREMENT_FLOOR = 1e-12
_MAX_HALVINGS = 40
# a frozen Newton solve stops at gradient norm |g| <= _INNER_TOL
_INNER_TOL = 1e-10
# cap on the forcing term min(_FORCING_CAP, max(|g|, 0.5 _INNER_TOL / |g|))
# of each frozen Newton step
_FORCING_CAP = 0.5
# stable_point's Newton stops at |G| <= _ROOT_TOL, well above roundoff in G
_ROOT_TOL = 1e-12
_ROOT_ITERATIONS = 100


class _BudgetExhausted(RuntimeWarning):
    """One frozen solve ran out of inner Newton steps before ``_INNER_TOL``."""


def _frozen_hessian(env, scores, deployed):
    """Hessian-vector product of the frozen objective at the point with these ``scores``.

    ``H v = X^T (c * X v) + beta v`` with ``c = w p (1 - p)``, ``p =
    sigmoid(scores)``, ``scores = X theta`` and the shifted design
    ``X = F + eps_row deployed^T``, which is never formed:
    ``X v = F v + eps_row (deployed . v)`` and
    ``X^T u = u F + (u . eps_row) deployed``.

    Both passes over the rows run in float32, on ``env.rows32``, with ``c``
    and ``deployed`` cast once per Newton step; ``v`` is cast per product, the
    product comes back as float64 and ``beta v`` is added in float64. Its
    relative error (under 1e-6 on both strategic presets) sits below the
    smallest CG tolerance the forcing rule asks for, ``max(|g|, 0.5 _INNER_TOL
    / |g|) >= sqrt(0.5 _INNER_TOL)``, and inexact Newton needs the step only
    to that tolerance (Dembo, Eisenstat & Steihaug 1982). The gradient, the
    line search and the stop test stay float64, so a solve still returns only
    at ``|g| <= _INNER_TOL``.
    """
    features, eps = env.rows32
    p = expit(scores)
    c = (env.rows.weights * p * (1.0 - p)).astype(np.float32)
    deployed32 = deployed.astype(np.float32)
    beta = env.beta

    def hv(v):
        v32 = v.astype(np.float32)
        u = c * (features @ v32 + eps * (deployed32 @ v32))
        return (u @ features + (u @ eps) * deployed32).astype(float) + beta * v

    return hv


def _conjugate_gradient(hv, g, iterations, rtol):
    """Approximate solution of ``H p = g`` for SPD ``H`` given as a product."""
    p = np.zeros_like(g)
    r = g.copy()
    d = r.copy()
    rr = float(r @ r)
    stop = (rtol * np.sqrt(rr)) ** 2
    for _ in range(iterations):
        hd = hv(d)
        alpha = rr / float(d @ hd)
        p += alpha * d
        r -= alpha * hd
        rr_new = float(r @ r)
        if rr_new <= stop:
            break
        d = r + (rr_new / rr) * d
        rr = rr_new
    return p


def _solve_frozen(env, deployed, start, inner):
    """``M(deployed)``, with a strategic solve started at ``start``.

    Gaussian environments return the closed form and ignore ``start``.
    Strategic ones run damped Newton on the deployment-frozen ridge-logistic
    objective: each step solves ``H p = g`` by conjugate gradients (at most d
    products, relative residual ``min(0.5, max(|g|, 0.5 _INNER_TOL / |g|))``),
    then backtracks with Armijo on the frozen objective. The ``|g|`` term is
    a forcing term ``O(|g|)``, which keeps the quadratic local rate of exact
    Newton. A full step leaves a gradient of about the CG residual, so the
    safeguard ``0.5 _INNER_TOL / |g|`` asks the last step for no more than
    the stop ``|g| <= _INNER_TOL`` needs (Kelley 1995, section 6.3; Eisenstat
    & Walker 1996); the stop itself is unchanged. The Hessian weights and
    the gradient, in each step and in the check after the last, reuse the
    scores ``X theta`` of the accepted line-search point. If ``inner``
    steps end before that stop, a warning flags the partial result at the
    caller of :func:`apply_M`.
    """
    if env.kind == GAUSSIAN:
        return env.zbar_mean + env.eps_avg * deployed
    rows = env.rows
    beta = env.beta

    def objective(t):
        """The frozen objective at ``t``, and the scores ``X t`` it was computed from."""
        scores = shifted_scores(env, t, deployed)
        value = float(rows.weights @ _softplus_minus_yu(scores, rows.labels)) + 0.5 * beta * float(t @ t)
        return value, scores

    theta = np.array(start, dtype=float)
    f, scores = objective(theta)
    for _ in range(inner):
        g = decoupled_full_gradient(env, theta, deployed, scores)
        gn = float(np.linalg.norm(g))
        if gn <= _INNER_TOL:
            return theta
        step = _conjugate_gradient(_frozen_hessian(env, scores, deployed), g, env.dim,
                                   min(_FORCING_CAP, max(gn, 0.5 * _INNER_TOL / gn)))
        decrement = float(g @ step)
        t = 1.0
        trial = theta - step
        f_trial, trial_scores = objective(trial)
        if decrement > _DECREMENT_FLOOR:
            for _ in range(_MAX_HALVINGS):
                if f_trial <= f - 1e-4 * t * decrement:
                    break
                t *= 0.5
                trial = theta - t * step
                f_trial, trial_scores = objective(trial)
        theta, f, scores = trial, f_trial, trial_scores
    gn = float(np.linalg.norm(decoupled_full_gradient(env, theta, deployed, scores)))
    if gn > _INNER_TOL:
        warnings.warn(
            f"inner Newton budget {inner} exhausted with gradient norm {gn:.3e} > {_INNER_TOL:.1e}",
            _BudgetExhausted,
            stacklevel=3,
        )
    return theta


def _check_budgets(**budgets) -> None:
    """Refuse any count below 1; NaN, being no count, fails the test too."""
    for name, value in budgets.items():
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


@contextlib.contextmanager
def _exhausted_solves():
    """Count the frozen solves in the block that run out of inner budget.

    Yields a one-element list that holds the count on exit. Those solves'
    warnings are recorded instead of shown; any other warning from the block
    is issued again on exit.
    """
    count = [0]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", _BudgetExhausted)
            yield count
    finally:
        for w in caught:
            if issubclass(w.category, _BudgetExhausted):
                count[0] += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)


def _warn_exhausted(count, solves, inner):
    """One warning for the ``count`` of ``solves`` frozen solves that ran out, at the caller's caller."""
    if count:
        warnings.warn(
            f"inner Newton budget {inner} exhausted in {count} of {solves} frozen solves "
            f"(gradient norm above {_INNER_TOL:.1e})",
            RuntimeWarning,
            stacklevel=3,
        )


def _stable_jacobian(env, theta):
    """Jacobian of ``G(theta) = decoupled_full_gradient(env, theta, theta)``.

    With ``x_r = F_r + eps_r theta``, ``p = sigmoid(x . theta)`` and row
    weights ``w``: ``J = X^T diag(w p (1 - p)) (X + eps theta^T)
    + (sum_r w_r (p_r - y_r) eps_r + beta) I``. Built densely (d x d).
    """
    rows = env.rows
    x = rows.features + np.outer(rows.eps, theta)
    p = expit(x @ theta)
    cx = x.T * (rows.weights * p * (1.0 - p))
    jac = cx @ x + np.outer(cx @ rows.eps, theta)
    jac[np.diag_indices_from(jac)] += float(rows.weights * (p - rows.labels) @ rows.eps) + env.beta
    return jac


def stable_point(env: Environment) -> np.ndarray:
    """The stable point: the root of ``G(theta) = grad R(theta; theta)``.

    Gaussian environments return :func:`closed_form_multi_ps`. Strategic ones
    run Newton on G from the origin with the analytic Jacobian, damping each
    step until ``|G|`` decreases, until ``|G| <= 1e-12``. This needs no
    contraction of the deployment map. Raises :class:`NoFixedPointError` on
    a non-finite or singular step, or when 100 iterations run out.
    """
    if env.kind == GAUSSIAN:
        return closed_form_multi_ps(env)
    theta = np.zeros(env.dim)
    g = decoupled_full_gradient(env, theta, theta)
    gn = float(np.linalg.norm(g))
    for _ in range(_ROOT_ITERATIONS):
        if gn <= _ROOT_TOL:
            return theta
        try:
            step = np.linalg.solve(_stable_jacobian(env, theta), g)
        except np.linalg.LinAlgError as exc:
            raise NoFixedPointError(f"singular stable-point Jacobian at |G| = {gn:.3e}") from exc
        if not np.all(np.isfinite(step)):
            raise NoFixedPointError(f"non-finite Newton step at |G| = {gn:.3e}")
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta - t * step
            g_trial = decoupled_full_gradient(env, trial, trial)
            gn_trial = float(np.linalg.norm(g_trial))
            if gn_trial <= (1.0 - 1e-4 * t) * gn:
                break
            t *= 0.5
        theta, g, gn = trial, g_trial, gn_trial
    if gn <= _ROOT_TOL:
        return theta
    raise NoFixedPointError(f"stable-point Newton stopped after {_ROOT_ITERATIONS} iterations at |G| = {gn:.3e}")


def apply_M(env: Environment, theta, inner: int = 1000) -> np.ndarray:
    """Evaluate the deployment map: minimize the decoupled risk frozen at ``theta``.

    Gaussian environments use the exact analytic minimizer
    ``mean(zbar_i + eps_i * theta)``. Logistic ones solve the ridge-logistic
    fit on the deterministically shifted empirical datasets by matrix-free
    damped Newton from ``theta``, at most ``inner`` iterations; if they run
    out before the gradient norm reaches ``_INNER_TOL`` a warning flags the
    partial result.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return _solve_frozen(env, theta, theta, inner)


def repeated_gd_fixed_point(
    env: Environment,
    deployments: int = 10_000,
    inner: int = 1000,
    tol: float = 1e-8,
    theta0=None,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> FixedPointResult:
    """Iterate the deployment map until successive decisions agree within ``tol``.

    Repeated risk minimization (Perdomo et al., ICML 2020), one :func:`apply_M`
    per deployment. Convergence is geometric whenever the map contracts
    (``eps_avg * L / mu < 1``). If the iterates blow past
    ``divergence_threshold`` a no-fixed-point result is returned with
    ``diverged=True`` rather than raising: beyond the stability threshold
    unbounded growth is the expected, reportable outcome. Strategic
    deployments that run out of inner budget are counted in
    ``budget_exhausted``, under one warning for the call. A ``tol`` that is
    NaN or negative raises ``ValueError``: no residual could ever meet it.
    So does a ``deployments`` or ``inner`` budget below 1.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    _check_budgets(deployments=deployments, inner=inner)
    theta = np.zeros(env.dim) if theta0 is None else np.atleast_1d(np.asarray(theta0, dtype=float))
    used, residual, converged, diverged = 0, float("inf"), False, False
    with _exhausted_solves() as exhausted:
        for used in range(1, deployments + 1):
            nxt = apply_M(env, theta, inner=inner)
            if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > divergence_threshold:
                residual, diverged = float("inf"), True
                break
            residual = float(np.linalg.norm(nxt - theta))
            theta = nxt
            if residual <= tol:
                converged = True
                break
    _warn_exhausted(exhausted[0], used, inner)
    return FixedPointResult(theta, residual, used, converged, diverged, exhausted[0])


def contraction_probe(
    env: Environment,
    pairs: int = 16,
    radius: float = 10.0,
    rng=None,
    center=None,
    inner: int = 1000,
) -> ContractionReport:
    """Empirical Lipschitz ratio of the deployment map over random probe pairs.

    Pairs are drawn uniformly in a box around ``center`` (default: the
    :func:`stable_point`, or the origin when there is none). The theoretical
    bound is ``eps_avg * L / mu``; the empirical ratio is only a lower bound
    on the map's Lipschitz constant (see :class:`ContractionReport`). Every
    strategic frozen solve starts at ``M(center)``, computed once, not at its
    probe point ``a``: by the map's Lipschitz bound ``M(a)`` lies within
    ``q |a - center|`` of ``M(center)``, and ``q`` is well below 1 wherever
    the probe is meaningful. Each solve still runs to ``_INNER_TOL`` or is
    counted in ``budget_exhausted`` (one warning for the call), so the start
    moves the ratio only by solver tolerance. ``pairs`` below 1 and a
    ``radius`` that is not a positive finite number raise ``ValueError``:
    with no pair measured the ratio would read 0, a contraction. So does an
    ``inner`` budget below 1.
    """
    _check_budgets(pairs=pairs, inner=inner)
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError(f"radius must be a positive finite number, got {radius}")
    if rng is None:
        rng = stream(0, PROBE_STREAM)
    if center is None:
        try:
            center = stable_point(env)
        except NoFixedPointError:
            center = np.zeros(env.dim)
    center = np.atleast_1d(np.asarray(center, dtype=float))

    worst = 0.0
    solves = 1
    with _exhausted_solves() as exhausted:
        start = _solve_frozen(env, center, center, inner)
        for _ in range(pairs):
            a = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
            b = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
            gap = float(np.linalg.norm(a - b))
            if gap < 1e-9:
                continue
            ma = _solve_frozen(env, a, start, inner)
            mb = _solve_frozen(env, b, start, inner)
            solves += 2
            worst = max(worst, float(np.linalg.norm(ma - mb)) / gap)
    _warn_exhausted(exhausted[0], solves, inner)
    bound = env.eps_avg * env.smoothness / env.mu
    return ContractionReport(empirical_ratio=worst, theoretical_bound=bound, pairs=pairs,
                             budget_exhausted=exhausted[0])


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
