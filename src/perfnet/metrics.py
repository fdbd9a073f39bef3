"""Per-iteration measurements and log-log rate fitting.

The metric vocabulary: ``gap_sq`` is the squared distance of the average
decision to the stable point (absent when no stable point is known),
``consensus_sq`` the squared Frobenius norm of the stacked deviations from
the average (raw and divided by n), ``risk`` the average loss at the average
decision under the distributions it induces, ``grad_norm_sq`` the squared
norm of the decoupled-risk gradient at that point, and ``accuracy`` the
classification accuracy on shift-adjusted test data.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .environment import (
    Environment,
    GAUSSIAN,
    _softplus_minus_yu,
    decoupled_full_gradient,
    sample_batch,
)
from .engine import METRIC_STREAM, SchemeState, stream

__all__ = [
    "MetricRecord",
    "CSV_COLUMNS",
    "consensus_error",
    "performative_risk",
    "decoupled_grad_norm",
    "shifted_test_accuracy",
    "RateFit",
    "FitUnavailableError",
    "rate_fit",
    "metric_recorder",
    "write_metrics_csv",
    "read_metrics_csv",
    "aggregate_columns",
    "write_aggregate_csv",
]

CSV_COLUMNS = (
    "t",
    "gap_sq",
    "consensus_sq_norm",
    "consensus_sq",
    "risk",
    "risk_se",
    "grad_norm_sq",
    "accuracy",
)


@dataclass
class MetricRecord:
    t: int
    gap_sq: float | None = None
    consensus_sq_norm: float = 0.0
    consensus_sq: float = 0.0
    risk: float | None = None
    risk_se: float | None = None
    grad_norm_sq: float | None = None
    accuracy: float | None = None


def consensus_error(theta: np.ndarray) -> tuple[float, float]:
    """Squared Frobenius norm of the deviations from the row average, raw and per agent."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    center = theta - theta.mean(axis=0, keepdims=True)
    raw = float(np.sum(center**2))
    return raw, raw / theta.shape[0]


def performative_risk(env: Environment, theta, mc: int | None = None, rng=None):
    """Average loss at ``theta`` under the distributions ``theta`` induces.

    ``mc=None`` gives the exact value: the closed form for gaussian
    populations (the residual term plus half the noise variance per
    dimension) and the full shifted-dataset average for strategic ones, both
    with zero standard error. With ``mc >= 1`` the value is a Monte Carlo
    estimate over ``mc`` samples per agent, returned with its standard error.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if mc is None:
        if env.kind == GAUSSIAN:
            total = 0.0
            for pop in env.populations:
                resid = (1.0 - pop.eps) * theta - pop.zbar
                total += 0.5 * float(np.sum(resid**2)) + 0.5 * pop.sigma2 * env.dim
            return total / env.n, 0.0
        rows = env.rows
        sq = float(theta @ theta)
        core = _softplus_minus_yu(rows.features @ theta + rows.eps * sq, rows.labels)
        return float(rows.weights @ core) + 0.5 * env.loss.beta * sq, 0.0

    if mc < 1:
        raise ValueError(f"mc must be >= 1, got {mc}")
    if rng is None:
        rng = stream(0, METRIC_STREAM)
    means = np.empty(env.n)
    variances = np.empty(env.n)
    for i in range(env.n):
        drawn = sample_batch(env, i, theta, mc, rng)
        if env.kind == GAUSSIAN:
            vals = 0.5 * np.sum((theta[None, :] - drawn) ** 2, axis=1)
        else:
            x, y = drawn
            vals = _softplus_minus_yu(x @ theta, y) \
                + 0.5 * env.loss.beta * float(np.dot(theta, theta))
        means[i] = vals.mean()
        variances[i] = vals.var(ddof=1) if mc > 1 else 0.0
    se = float(np.sqrt(variances.sum() / mc)) / env.n
    return float(means.mean()), se


def decoupled_grad_norm(env: Environment, theta) -> float:
    """Squared norm of the agent-averaged decoupled-risk gradient at (theta; theta).

    Exact for gaussian populations; full-batch over the shifted empirical
    datasets otherwise. Zero exactly at the stable point.
    """
    g = decoupled_full_gradient(env, theta, theta)
    return float(np.dot(g, g))


def shifted_test_accuracy(env: Environment, theta, features, labels) -> float:
    """Accuracy of per-agent classifiers on test data shifted by their own decisions.

    ``theta`` may be a single shared decision or an (n, d) stack. For each
    agent the test features are shifted by ``eps_i * theta_i`` before scoring,
    matching what that agent's population would present; scores with sigmoid
    exactly 1/2 classify as positive. The returned value is the agent average.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.size == 0:
        raise ValueError("empty test set")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        theta = np.tile(theta, (env.n, 1))
    acc = 0.0
    for i in range(env.n):
        shifted = features + env.populations[i].eps * theta[i]
        pred = (shifted @ theta[i] >= 0.0).astype(labels.dtype)
        acc += float(np.mean(pred == labels))
    return acc / env.n


class FitUnavailableError(RuntimeError):
    """Too few usable points to fit a rate."""


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    window: tuple


def rate_fit(
    ts,
    values,
    window: float = 0.5,
    min_t: int = 100,
    min_points: int = 10,
) -> RateFit:
    """Least-squares slope of log(value) against log(t) over a tail window.

    The window is the last ``window`` fraction of recorded points with
    ``t >= min_t``. Nonpositive values inside the window are dropped with a
    warning; fewer than ``min_points`` usable points raises
    :class:`FitUnavailableError`.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise ValueError("t and value series must have matching shapes")
    eligible = np.flatnonzero((ts >= min_t) & np.isfinite(values))
    start = len(eligible) - max(int(np.ceil(window * len(eligible))), 0)
    tail = eligible[start:]
    keep = tail[values[tail] > 0]
    if len(keep) < len(tail):
        warnings.warn(
            f"dropped {len(tail) - len(keep)} nonpositive values from the fit window",
            RuntimeWarning,
            stacklevel=2,
        )
    if len(keep) < min_points:
        raise FitUnavailableError(
            f"only {len(keep)} positive points in window, need {min_points}"
        )
    x = np.log(ts[keep])
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        window=(float(ts[keep[0]]), float(ts[keep[-1]])),
    )


def metric_recorder(
    env: Environment,
    theta_ps=None,
    risk_mc: int | None = None,
    seed: int = 0,
    test_data=None,
    with_grad_norm: bool = True,
    accuracy_env: Environment | None = None,
):
    """Build a sink computing the standard record from a scheme state.

    ``risk_mc=None`` records the exact risk where available. Monte Carlo
    estimation draws from a dedicated metric stream keyed by ``seed`` so
    recorded trajectories stay reproducible. ``accuracy_env`` lets accuracy
    be scored under different sensitivities than the training environment
    (used by the zero-shift baseline protocol).
    """
    if theta_ps is not None:
        theta_ps = np.atleast_1d(np.asarray(theta_ps, dtype=float))
    rng = stream(seed, METRIC_STREAM)
    acc_env = accuracy_env if accuracy_env is not None else env

    def record(state: SchemeState) -> MetricRecord:
        bar = state.theta_bar
        raw, norm = consensus_error(state.theta)
        risk, se = performative_risk(env, bar, mc=risk_mc, rng=rng)
        rec = MetricRecord(
            t=state.t,
            consensus_sq=raw,
            consensus_sq_norm=norm,
            risk=risk,
            risk_se=se,
        )
        if theta_ps is not None:
            rec.gap_sq = float(np.sum((bar - theta_ps) ** 2))
        if with_grad_norm:
            rec.grad_norm_sq = decoupled_grad_norm(env, bar)
        if test_data is not None:
            rec.accuracy = shifted_test_accuracy(acc_env, state.theta, *test_data)
        return rec

    return record


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_metrics_csv(path, records) -> None:
    """One row per record, fixed column order, empty cells for missing metrics."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow([_cell(getattr(rec, col)) for col in CSV_COLUMNS])


def read_metrics_csv(path) -> dict:
    """Columns as float arrays; missing cells become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    out = {}
    for j, col in enumerate(header):
        out[col] = np.array(
            [float(r[j]) if r[j] != "" else np.nan for r in data], dtype=float
        )
    return out


def aggregate_columns(runs: list) -> dict:
    """Median / 5th / 95th percentile / mean across runs, per column and iteration.

    ``runs`` holds per-seed column dicts as returned by
    :func:`read_metrics_csv`. Divergent seeds may have short series that end
    on different iterations, so only the longest common prefix on which every
    run records the same iterations is aggregated.
    """
    if not runs:
        return {}
    length = min(len(r["t"]) for r in runs)
    ts = runs[0]["t"][:length]
    for r in runs:
        differs = np.flatnonzero(r["t"][:length] != ts)
        if len(differs):
            length = int(differs[0])
            ts = ts[:length]
    out = {"t": ts}
    for col in CSV_COLUMNS[1:]:
        stack = np.vstack([r[col][:length] for r in runs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            out[f"{col}_median"] = np.nanmedian(stack, axis=0)
            out[f"{col}_p05"] = np.nanpercentile(stack, 5, axis=0)
            out[f"{col}_p95"] = np.nanpercentile(stack, 95, axis=0)
            out[f"{col}_mean"] = np.nanmean(stack, axis=0)
    return out


def write_aggregate_csv(path, agg: dict) -> None:
    cols = list(agg.keys())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for k in range(len(agg["t"])):
            w.writerow([_cell(agg[c][k]) if np.isfinite(agg[c][k]) else "" for c in cols])


def rate_fit_json(metric: str, fit: RateFit) -> dict:
    return {
        "metric": metric,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
        "window": [fit.window[0], fit.window[1]],
    }
