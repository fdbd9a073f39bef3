"""CSV corpus loading, agent partitioning, and a synthetic stand-in generator."""

from __future__ import annotations

import csv

import numpy as np

from .engine import DATA_STREAM, stream
from .environment import expit

__all__ = [
    "DatasetError",
    "load_dataset",
    "standardize_features",
    "partition_agents",
    "synthetic_corpus",
    "synthetic_agent_shards",
]


class DatasetError(Exception):
    """Malformed or undersized input data."""


def load_dataset(path, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Load a binary-classification CSV: features first, 0/1 label last.

    A header row is auto-detected (non-numeric first cell) and skipped.
    ``dim`` keeps only the first ``dim`` feature columns. Parse failures
    report the offending line number.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from None
    rows = [(k + 1, r) for k, r in enumerate(rows) if any(cell.strip() for cell in r)]
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    start = 0
    try:
        float(rows[0][1][0])
    except ValueError:
        start = 1
    if start == len(rows):
        raise DatasetError(f"{path}: only a header row present")

    width = len(rows[start][1])
    feats, labels = [], []
    for lineno, r in rows[start:]:
        if len(r) != width:
            raise DatasetError(f"{path}:{lineno}: expected {width} fields, got {len(r)}")
        try:
            vals = [float(c) for c in r]
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: non-numeric field ({exc})") from None
        y = vals[-1]
        if y not in (0.0, 1.0):
            raise DatasetError(f"{path}:{lineno}: label must be 0 or 1, got {y!r}")
        feats.append(vals[:-1])
        labels.append(y)
    x = np.asarray(feats, dtype=float)
    y = np.asarray(labels, dtype=float)
    if dim is not None:
        if dim < 1 or dim > x.shape[1]:
            raise DatasetError(f"{path}: cannot select first {dim} of {x.shape[1]} features")
        x = x[:, :dim]
    return x, y


def standardize_features(x: np.ndarray, train_idx: np.ndarray) -> np.ndarray:
    """Per-column z-score using statistics from the training rows only."""
    rows = x[train_idx]
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std[std == 0] = 1.0
    # in place: one corpus-sized result, not a temporary and then a result
    out = x - mean
    out /= std
    return out


def partition_agents(
    x: np.ndarray,
    y: np.ndarray,
    n: int,
    per_agent: int,
    test_count: int,
    seed: int,
    standardize: bool = True,
) -> tuple[list, tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled split into n shards of ``per_agent`` rows and a test set.

    Returns ``(shards, test)`` as :func:`synthetic_agent_shards` does, each a
    ``(features, labels)`` pair in corpus row order. Standardization
    statistics come from the pooled training shards and are applied to every
    row, test included.
    """
    m = len(y)
    need = n * per_agent + test_count
    if need > m:
        raise DatasetError(
            f"need {need} rows (= {n} agents x {per_agent} + {test_count} test), have {m}"
        )
    perm = stream(seed, DATA_STREAM).permutation(m)
    train = perm[: n * per_agent]
    test = np.sort(perm[n * per_agent : need])
    if standardize:
        x = standardize_features(x, train)
    parts = [np.sort(train[k * per_agent : (k + 1) * per_agent]) for k in range(n)]
    return [(x[idx], y[idx]) for idx in parts], (x[test], y[test])


def synthetic_corpus(
    m: int = 4601,
    d: int = 48,
    seed: int = 7,
    signal: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Planted linear-model corpus standing in for a real spam dataset.

    Features are standard normal; labels are Bernoulli with logits
    ``signal * <x, w>`` for a fixed unit direction ``w``, so a linear
    classifier is learnable but imperfect.
    """
    rng = stream(seed, DATA_STREAM, 1)
    x = rng.standard_normal((m, d))
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    y = (rng.uniform(size=m) < expit(signal * (x @ w))).astype(float)
    return x, y


def synthetic_agent_shards(
    n: int = 25,
    per_agent: int = 100,
    d: int = 100,
    heterogeneity: float = 1.0,
    seed: int = 7,
    test_per_agent: int = 0,
    signal: float = 2.0,
) -> tuple[list, tuple[np.ndarray, np.ndarray]]:
    """Per-agent logistic data with agent-specific mean shifts and decision rules.

    ``heterogeneity`` scales both the offset of each agent's feature cloud
    and the deviation of its labeling direction from the shared one; zero
    makes all shards draws from one common distribution. Labels are
    Bernoulli with logits ``signal * <x, w_i>``. Returns the n training
    shards plus a pooled test set of ``n * test_per_agent`` rows drawn from
    the same per-agent mixture.
    """
    rng = stream(seed, DATA_STREAM, 2)
    w_shared = rng.standard_normal(d)
    w_shared /= np.linalg.norm(w_shared)
    shards, test_x, test_y = [], [], []
    for _ in range(n):
        offset = heterogeneity * rng.standard_normal(d) / np.sqrt(d)
        w_i = w_shared + heterogeneity * rng.standard_normal(d) / np.sqrt(d)
        x = offset + rng.standard_normal((per_agent + test_per_agent, d))
        y = (rng.uniform(size=len(x)) < expit(signal * (x @ w_i))).astype(float)
        shards.append((x[:per_agent], y[:per_agent]))
        test_x.append(x[per_agent:])
        test_y.append(y[per_agent:])
    test = (np.concatenate(test_x), np.concatenate(test_y))
    return shards, test

