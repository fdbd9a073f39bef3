"""Per-iteration measurements, log-log rate fitting, and the artifact writer.

The metric vocabulary: ``gap_sq`` is the squared distance of the average
decision to the stable point (absent when no stable point is known),
``consensus_sq`` the squared Frobenius norm of the stacked deviations from
the average (raw and divided by n), ``risk`` the exact average loss at the
average decision under the distributions it induces (``risk_se``, its
standard error, is always 0.0), ``grad_norm_sq`` the squared norm of the
decoupled-risk gradient at that point, and ``accuracy`` the classification
accuracy on shift-adjusted test data.

:func:`write_csv` and :func:`write_json` write every run artifact, whole or
not at all; a CSV cell is empty for a missing or non-finite value.
"""

from __future__ import annotations

import csv
import json
import math
import os
import uuid
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .environment import GAUSSIAN, Environment, decoupled_full_gradient, exact_risk, shifted_scores

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
    "write_csv",
    "write_json",
    "write_metrics_csv",
    "read_metrics_csv",
    "aggregate_columns",
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


def decoupled_grad_norm(env: Environment, theta, scores=None) -> float:
    """Squared norm of the agent-averaged decoupled-risk gradient at (theta; theta).

    Exact for gaussian populations; full-batch over the shifted empirical
    datasets otherwise. Zero exactly at the stable point. ``scores`` is as
    in :func:`~perfnet.environment.exact_risk`.
    """
    g = decoupled_full_gradient(env, theta, theta, scores)
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


# rate_fit refuses a window with fewer usable points than this
_MIN_FIT_POINTS = 10


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
) -> RateFit:
    """Least-squares slope of log(value) against log(t) over a tail window.

    The window is the last ``window`` fraction of recorded points with
    ``t >= min_t``, ``t > 0`` (whose log exists) and a finite value.
    Nonpositive values inside the window are dropped with a warning; fewer
    than ``_MIN_FIT_POINTS`` (10) usable points raises
    :class:`FitUnavailableError`, and a ``window`` outside (0, 1] raises
    ValueError.
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
    if len(keep) < _MIN_FIT_POINTS:
        raise FitUnavailableError(
            f"only {len(keep)} positive points in window, need {_MIN_FIT_POINTS}"
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
        # the risk and the gradient share one scoring of the strategic rows
        scores = None if env.kind == GAUSSIAN else shifted_scores(env, bar, bar)
        rec = MetricRecord(
            t=t,
            consensus_sq=raw,
            consensus_sq_norm=norm,
            risk=exact_risk(env, bar, scores),
            risk_se=0.0,
        )
        if theta_ps is not None:
            rec.gap_sq = float(np.sum((bar - theta_ps) ** 2))
        rec.grad_norm_sq = decoupled_grad_norm(env, bar, scores)
        if test_data is not None:
            rec.accuracy = shifted_test_accuracy(acc_env, theta, *test_data)
        return rec

    return record


def _write_text(path, text: str) -> None:
    """Put ``text`` at ``path`` whole or not at all, making its directory first.

    A new file beside ``path``, with the mode a plain ``open`` gives, replaces
    it; on any error that file goes and an earlier ``path`` keeps its bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, columns: dict) -> None:
    """One row per index of ``columns`` (name -> equal-length values), under their names.

    A cell is empty for None and for a non-finite number, ``str(int(v))``
    for an int or numpy integer, and else ``repr(float(v))``, the shortest
    text that parses back to the same float.
    """

    def cell(v) -> str:
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "" if v is None or not math.isfinite(v) else repr(float(v))

    cells = [map(cell, v.tolist() if isinstance(v, np.ndarray) else v) for v in columns.values()]
    rows = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    _write_text(path, "\n".join(rows) + "\n")


def write_json(path, obj) -> None:
    """``obj`` as JSON indented by two spaces, with a final newline."""
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def write_metrics_csv(path, records) -> None:
    """One row per record, in ``CSV_COLUMNS`` order."""
    write_csv(path, {col: [getattr(rec, col) for rec in records] for col in CSV_COLUMNS})


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
    run records the same iterations is aggregated, and its iterations ``t``
    are returned as integers. Each iteration covers the runs that recorded a
    value there (percentiles interpolate linearly) and is NaN when none did.
    Every column is stacked into one array, so each statistic is one numpy
    call over the (column, iteration) entries without NaN, which gives the
    nan-functions' exact bits, and one nan-function call over those where
    only some runs are NaN.
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
    out = {"t": ts.astype(np.int64)}
    cols = CSV_COLUMNS[1:]
    stack = np.array([[r[col][:length] for col in cols] for r in runs], dtype=float)  # (run, column, t)
    nan = np.isnan(stack)
    full = ~nan.any(axis=0)
    part = ~full & ~nan.all(axis=0)
    bands = np.full((4, len(cols), length), np.nan)  # median, p05, p95, mean
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf gives NaN
        for entries, median, percentile, mean in ((full, np.median, np.percentile, np.mean),
                                                  (part, np.nanmedian, np.nanpercentile, np.nanmean)):
            if not entries.any():
                continue
            sub = stack[:, entries]
            bands[0, entries] = median(sub, axis=0)
            bands[1:3, entries] = percentile(sub, [5, 95], axis=0)
            bands[3, entries] = mean(sub, axis=0)
    for col, col_bands in zip(cols, bands.transpose(1, 0, 2)):
        for stat, band in zip(("median", "p05", "p95", "mean"), col_bands):
            out[f"{col}_{stat}"] = band
    return out


def rate_fit_json(metric: str, fit: RateFit) -> dict:
    return {"metric": metric, **asdict(fit)}
