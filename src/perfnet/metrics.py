"""Per-iteration measurements and log-log rate fitting.

The metric vocabulary: ``gap_sq`` is the squared distance of the average
decision to the stable point (absent when no stable point is known),
``consensus_sq`` the squared Frobenius norm of the stacked deviations from
the average (raw and divided by n), ``risk`` the exact average loss at the
average decision under the distributions it induces (``risk_se``, its
standard error, is always 0.0), ``grad_norm_sq`` the squared norm of the
decoupled-risk gradient at that point, and ``accuracy`` the classification
accuracy on shift-adjusted test data.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .environment import Environment, decoupled_full_gradient, exact_risk

__all__ = [
    "MetricRecord",
    "CSV_COLUMNS",
    "consensus_error",
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


@dataclass
class MetricRecord:
    """One row of ``metrics.csv``: the fields, in order, are its columns."""

    t: int
    gap_sq: float | None = None
    consensus_sq_norm: float = 0.0
    consensus_sq: float = 0.0
    risk: float | None = None
    risk_se: float | None = None
    grad_norm_sq: float | None = None
    accuracy: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(MetricRecord))


def consensus_error(theta: np.ndarray) -> tuple[float, float]:
    """Squared Frobenius norm of the deviations from the row average, raw and per agent."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    center = theta - theta.mean(axis=0, keepdims=True)
    raw = float(np.sum(center**2))
    return raw, raw / theta.shape[0]


def decoupled_grad_norm(env: Environment, theta) -> float:
    """Squared norm of the agent-averaged decoupled-risk gradient at (theta; theta).

    Exact for gaussian populations; full-batch over the shifted empirical
    datasets otherwise. Zero exactly at the stable point.
    """
    g = decoupled_full_gradient(env, theta, theta)
    return float(np.dot(g, g))


def shifted_test_accuracy(env: Environment, theta, features, labels) -> float:
    """Accuracy of per-agent classifiers on test data shifted by their own decisions.

    ``theta`` may be a single shared decision or an (n, d) stack. Agent i's
    population presents each test row x as ``x + eps_i * theta_i``, so its
    score is ``x . theta_i + eps_i * (theta_i . theta_i)``: one mat-vec on the
    unshifted features per agent, without forming the shifted copy. A score
    >= 0 (sigmoid >= 1/2) classifies as positive. A row counts as correct
    when its label is 1 and it is classified positive, or its label is 0 and
    it is not; a label other than 0 or 1 never counts. The returned value is
    the agent average, summed left to right.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.size == 0:
        raise ValueError("empty test set")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        theta = np.broadcast_to(theta, (env.n, theta.size))
    pos = labels == 1
    valid = pos | (labels == 0)
    m = len(features)
    # one stacked (m, d) @ (d, 1) per agent: numpy runs each as its own gemv,
    # which gives each agent's scores the bits of features @ theta_i, whereas
    # one (m, d) @ (d, n) GEMM could differ in the last bit and is large
    # enough for the BLAS to spread over threads
    scores = np.matmul(features, theta[:, :, None])[:, :, 0]
    sq = np.matmul(theta[:, None, :], theta[:, :, None])[:, 0, 0]
    scores += (env.eps * sq)[:, None]
    counts = np.count_nonzero(((scores >= 0.0) == pos) & valid, axis=1)
    acc = 0.0
    for count in counts.tolist():
        acc += count / m
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
    ``t >= min_t``, ``t > 0`` (whose log exists) and a finite value.
    Nonpositive values inside the window are dropped with a warning; fewer
    than ``min_points`` usable points raises :class:`FitUnavailableError`,
    and a ``window`` outside (0, 1] raises ValueError.
    """
    if not 0 < window <= 1:  # NaN fails the comparison too
        raise ValueError(f"the fit window is a fraction in (0, 1], got {window}")
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise ValueError("t and value series must have matching shapes")
    eligible = np.flatnonzero((ts >= min_t) & (ts > 0) & np.isfinite(values))
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
    test_data=None,
    accuracy_env: Environment | None = None,
):
    """Build a sink ``record(t, theta)`` computing the standard record of the (n, d) decisions.

    Every record is exact: ``risk`` is
    :func:`~perfnet.environment.exact_risk` at the average decision, for
    gaussian and strategic populations alike, and ``risk_se`` is always 0.0,
    kept so the CSV schema does not change. ``grad_norm_sq`` is exact (full
    batch), and ``accuracy`` (with ``test_data``) scores each agent's own
    decision by :func:`shifted_test_accuracy`. ``accuracy_env`` lets accuracy
    be scored under different sensitivities than the training environment
    (used by the zero-shift baseline protocol).
    """
    if theta_ps is not None:
        theta_ps = np.atleast_1d(np.asarray(theta_ps, dtype=float))
    acc_env = accuracy_env if accuracy_env is not None else env

    def record(t: int, theta: np.ndarray) -> MetricRecord:
        bar = theta.mean(axis=-2)
        raw, norm = consensus_error(theta)
        rec = MetricRecord(
            t=t,
            consensus_sq=raw,
            consensus_sq_norm=norm,
            risk=exact_risk(env, bar),
            risk_se=0.0,
        )
        if theta_ps is not None:
            rec.gap_sq = float(np.sum((bar - theta_ps) ** 2))
        rec.grad_norm_sq = decoupled_grad_norm(env, bar)
        if test_data is not None:
            rec.accuracy = shifted_test_accuracy(acc_env, theta, *test_data)
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
    """Columns as float arrays; empty cells become NaN, and a row of the wrong length is refused."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    header, data = rows[0], rows[1:]
    for lineno, r in enumerate(data, start=2):
        if len(r) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(r)} fields for {len(header)} columns")
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
    run records the same iterations is aggregated. Each iteration covers the
    runs that recorded a value there (percentiles interpolate linearly) and
    is NaN when none did. Iterations without NaN take one vectorised numpy
    call per statistic, which gives the nan-functions' exact bits; only
    iterations where some runs are NaN go through those slower functions.
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


def write_aggregate_csv(path, agg: dict) -> None:
    """One row per iteration; the same cells as ``_cell``, empty where not finite."""
    cols = list(agg.keys())
    cells = [
        [repr(v) if math.isfinite(v) else "" for v in np.asarray(agg[c]).tolist()]
        for c in cols
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        w.writerows(zip(*cells))


def rate_fit_json(metric: str, fit: RateFit) -> dict:
    return {"metric": metric, **asdict(fit)}
