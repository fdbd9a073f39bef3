import numpy as np
import pytest
import csv
import os
import stat
import warnings

from hypothesis import given, settings, strategies as st

from perfnet import environment, metrics, oracle
from perfnet.engine import stream
from perfnet.environment import exact_risk, make_heterogeneous_suite
from perfnet.metrics import (
    CSV_COLUMNS,
    FitUnavailableError,
    MetricRecord,
    aggregate_columns,
    consensus_error,
    decoupled_grad_norm,
    metric_recorder,
    rate_fit,
    read_metrics_csv,
    shifted_test_accuracy,
    write_csv,
    write_json,
    write_metrics_csv,
)
from perfnet.oracle import closed_form_multi_ps, repeated_gd_fixed_point
import reference
from reference import loss_of, loss_value, sample_batch, shard


def gaussian_env(n=25, eps_avg=0.9, spread=0.0, zbar=10.0, sigma2=50.0):
    return make_heterogeneous_suite(n, eps_avg, spread, zbar=zbar, sigma2=sigma2)


# ---------------------------------------------------------------- consensus error

def test_consensus_zero_when_equal():
    raw, norm = consensus_error(np.tile([3.0, -1.0], (5, 1)))
    assert raw == 0.0 and norm == 0.0


def test_consensus_hand_value():
    raw, norm = consensus_error(np.array([[0.0], [2.0]]))
    assert raw == pytest.approx(2.0) and norm == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8), st.integers(1, 4))
def test_consensus_invariances(seed, n, d):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((n, d))
    raw, _ = consensus_error(theta)
    shift = rng.standard_normal(d)
    raw_shifted, _ = consensus_error(theta + shift)
    assert raw_shifted == pytest.approx(raw, rel=1e-9, abs=1e-9)
    perm = rng.permutation(n)
    raw_perm, _ = consensus_error(theta[perm])
    assert raw_perm == pytest.approx(raw, rel=1e-12)


# ---------------------------------------------------------------- risk

def sampled_risk(env, theta, draws, rng):
    """Monte Carlo risk and its standard error from ``draws`` samples per agent."""
    means = np.empty(env.n)
    variances = np.empty(env.n)
    for i in range(env.n):
        vals = loss_value(loss_of(env), theta, sample_batch(env, i, theta, draws, rng))
        means[i] = vals.mean()
        variances[i] = vals.var(ddof=1)
    return float(means.mean()), float(np.sqrt(variances.sum() / draws)) / env.n


def test_risk_exact_at_stable_point():
    env = gaussian_env()
    risk = exact_risk(env, [100.0])
    assert risk == pytest.approx(25.0, abs=1e-9)


def test_risk_zero_noise_at_self_consistent_point():
    env = gaussian_env(eps_avg=0.6, sigma2=0.0)
    risk = exact_risk(env, [10.0 / 0.4])
    assert risk == pytest.approx(0.0, abs=1e-18)


def test_risk_classical_minimum():
    env = gaussian_env(eps_avg=0.0)
    risk = exact_risk(env, [10.0])
    assert risk == pytest.approx(25.0)


def test_risk_monte_carlo_agrees_with_analytic():
    rng = np.random.default_rng(4)
    mc_rng = stream(8, 0xEE)
    for k in range(100):
        env = gaussian_env(
            n=int(rng.integers(1, 6)),
            eps_avg=float(rng.uniform(0.0, 0.95)),
            spread=float(rng.uniform(0.0, 0.5)),
            zbar=float(rng.uniform(-5, 5)),
            sigma2=float(rng.uniform(0.1, 20.0)),
        )
        theta = np.array([float(rng.uniform(-10, 10))])
        exact = exact_risk(env, theta)
        est, se = sampled_risk(env, theta, 400, mc_rng)
        assert abs(est - exact) < 4.0 * se + 1e-12, f"probe {k}"


def test_risk_strategic_exact_and_mc():
    rng = np.random.default_rng(9)
    shards = [(rng.standard_normal((50, 3)), rng.integers(0, 2, 50).astype(float))
              for _ in range(2)]
    env = make_heterogeneous_suite(2, 0.2, 0.0, shards=shards, beta=0.1)
    theta = np.array([0.3, -0.2, 0.5])
    exact = exact_risk(env, theta)
    est, se = sampled_risk(env, theta, 2000, stream(3, 0xEE))
    assert abs(est - exact) < 4.0 * se


def test_risk_strategic_exact_unequal_shards():
    # agents weigh equally whatever their shard sizes
    rng = np.random.default_rng(4)
    shards = [(rng.standard_normal((m, 3)), rng.integers(0, 2, m).astype(float))
              for m in (7, 10, 13)]
    env = make_heterogeneous_suite(3, 0.4, 0.5, shards=shards, beta=0.1)
    theta = np.array([0.3, -0.2, 0.5])
    want = np.mean([
        np.mean([loss_value(loss_of(env), theta, (x + eps * theta, y))
                 for x, y in zip(*shard(env, i))])
        for i, eps in enumerate(env.eps)
    ])
    exact = exact_risk(env, theta)
    assert exact == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------- gradient norm

def test_grad_norm_vanishes_at_closed_form_point():
    for eps in [0.0, 0.3, 0.9, 0.99]:
        env = gaussian_env(eps_avg=eps, spread=0.5 if eps else 0.0)
        theta_ps = closed_form_multi_ps(env)
        assert decoupled_grad_norm(env, theta_ps) <= 1e-18


def test_grad_norm_classical_reduction():
    env = gaussian_env(eps_avg=0.0)
    assert decoupled_grad_norm(env, [7.0]) == pytest.approx((7.0 - 10.0) ** 2)


def test_grad_norm_logistic_at_estimated_stable_point(monkeypatch):
    rng = np.random.default_rng(2)
    shards = [(rng.standard_normal((40, 3)), rng.integers(0, 2, 40).astype(float))
              for _ in range(3)]
    env = make_heterogeneous_suite(3, 0.05, 0.0, shards=shards, beta=0.5)
    tol = 1e-9
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-12)
    res = repeated_gd_fixed_point(env, tol=tol)
    assert res.converged
    assert decoupled_grad_norm(env, res.theta_ps) <= (10 * tol) ** 2


# ---------------------------------------------------------------- accuracy

def accuracy_fixture():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 4))
    w = np.array([1.0, -2.0, 0.5, 0.0])
    y = (x @ w > 0).astype(float)
    shards = [(x[:50], y[:50])] * 3
    env = make_heterogeneous_suite(3, 0.4, 0.5, shards=shards, beta=0.01)
    return env, x[50:], y[50:], w


def test_accuracy_zero_decision_no_shift():
    env, xt, yt, _ = accuracy_fixture()
    # theta = 0 shifts nothing and scores everything 0, classified positive
    for theta in (np.zeros(4), np.zeros((3, 4))):
        assert shifted_test_accuracy(env, theta, xt, yt) == pytest.approx(yt.mean())


def test_accuracy_insensitive_equals_standard():
    env, xt, yt, w = accuracy_fixture()
    env0 = make_heterogeneous_suite(
        3, 0.0, 0.0,
        shards=[shard(env, i) for i in range(env.n)], beta=0.01,
    )
    want = np.mean((xt @ w >= 0).astype(float) == yt)
    assert shifted_test_accuracy(env0, w, xt, yt) == pytest.approx(want)


def test_accuracy_label_flip_complement():
    env, xt, yt, w = accuracy_fixture()
    theta = 0.5 * w
    a = shifted_test_accuracy(env, theta, xt, yt)
    b = shifted_test_accuracy(env, theta, xt, 1.0 - yt)
    assert a + b == pytest.approx(1.0)


def test_accuracy_per_agent_decisions():
    env, xt, yt, w = accuracy_fixture()
    stack = np.vstack([w, w, w])
    assert shifted_test_accuracy(env, stack, xt, yt) == pytest.approx(
        shifted_test_accuracy(env, w, xt, yt)
    )


def shifted_copy_accuracy(env, theta, features, labels):
    """Reference: score a shifted copy of the test set per agent."""
    theta = np.broadcast_to(theta, (env.n, features.shape[1]))
    acc = 0.0
    for i, eps in enumerate(env.eps):
        shifted = features + eps * theta[i]
        acc += float(np.mean((shifted @ theta[i] >= 0.0).astype(labels.dtype) == labels))
    return acc / env.n


def test_accuracy_matches_shifted_copy():
    env, xt, yt, w = accuracy_fixture()
    assert len(set(env.eps)) == env.n  # unequal sensitivities
    rng = np.random.default_rng(11)
    for theta in (w, 0.3 * w, np.vstack([w, -0.5 * w, 2.0 * w]),
                  rng.standard_normal((3, 4)), np.zeros(4), np.zeros((3, 4))):
        assert shifted_test_accuracy(env, theta, xt, yt) == shifted_copy_accuracy(
            env, theta, xt, yt
        )


def astype_tail_accuracy(env, theta, features, labels):
    """Earlier releases' rule: cast the predictions to the label dtype, compare, average."""
    theta = np.broadcast_to(theta, (env.n, features.shape[1]))
    acc = 0.0
    for eps, th in zip(env.eps, theta):
        scores = features @ th + eps * float(th @ th)
        acc += float(np.mean((scores >= 0.0).astype(labels.dtype) == labels))
    return acc / env.n


@pytest.mark.parametrize("labels", [
    "float01", "int01", "bool", "off_grid_float", "off_grid_int", "nan",
])
def test_accuracy_counts_like_the_astype_rule_for_any_labels(labels):
    # labels other than 0 and 1 never count as correct, under both rules
    env, xt, yt, w = accuracy_fixture()
    odd = np.array([0.5, 2.0, -1.0, -0.0])  # -0.0 == 0 is a valid label
    yt = {
        "float01": yt,
        "int01": yt.astype(np.int64),
        "bool": yt.astype(bool),
        "off_grid_float": np.where(np.arange(len(yt)) % 3 == 0, odd[np.arange(len(yt)) % 4], yt),
        "off_grid_int": np.where(np.arange(len(yt)) % 4 == 0, 2, yt.astype(np.int64)),
        "nan": np.where(np.arange(len(yt)) % 5 == 0, np.nan, yt),
    }[labels]
    rng = np.random.default_rng(12)
    for theta in (w, -0.7 * w, rng.standard_normal((3, 4)), np.zeros(4)):
        assert shifted_test_accuracy(env, theta, xt, yt) == astype_tail_accuracy(env, theta, xt, yt)


def _strategic_env(n, eps_avg, spread, x, y):
    return make_heterogeneous_suite(n, eps_avg, spread, shards=[(x, y)] * n, beta=0.01)


def test_accuracy_equals_the_per_agent_loop_bit_for_bit():
    # one agent or many, a shared or per-agent decision in either memory
    # order, and labels that are floats, integers, off {0, 1} or NaN
    rng = np.random.default_rng(21)
    for n, d, m in ((1, 1, 1), (1, 4, 50), (3, 4, 150), (25, 48, 1150), (7, 100, 33)):
        x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        env = _strategic_env(n, 1.3, 0.6 if n > 1 else 0.0, x, np.ones(m))
        for y in ((rng.uniform(size=m) < 0.5).astype(float), rng.integers(-1, 3, size=m),
                  rng.choice([0.0, 1.0, 0.5, np.nan, -0.0], size=m)):
            for theta in (rng.standard_normal(d), rng.standard_normal((n, d)),
                          np.asfortranarray(rng.standard_normal((n, d))), np.zeros(d)):
                for features in (x, np.asfortranarray(x)):
                    got = shifted_test_accuracy(env, theta, features, y)
                    assert got == reference.shifted_test_accuracy(env, theta, x, y)


def test_accuracy_counts_a_row_scoring_exactly_zero_as_positive_like_the_loop():
    # at eps = 0.5 and theta_i = (1, 0), rows (-0.5, 3) and (-0.5, -1) score
    # -0.5 + 0.5 = 0 and classify positive; agent 2 scores every row nonzero
    x = np.array([[-0.5, 3.0], [-0.5, -1.0], [2.0, 0.0], [-2.0, 0.0]])
    env = _strategic_env(3, 0.5, 0.0, x, np.ones(4))
    theta = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.5]])
    for y, want in (([1.0, 1.0, 1.0, 0.0], 2.5 / 3), ([0.0, 0.0, 1.0, 0.0], 1.0 / 3)):
        y = np.array(y)
        assert shifted_test_accuracy(env, theta, x, y) == want
        assert reference.shifted_test_accuracy(env, theta, x, y) == want
    # the shared decision (1, 0) scores rows 0 and 1 exactly 0 for every agent
    y = np.array([1.0, 0.0, 1.0, 0.0])
    assert shifted_test_accuracy(env, theta[0], x, y) == reference.shifted_test_accuracy(env, theta[0], x, y) == 0.75


def test_record_scores_the_rows_once_with_the_bits_of_two_passes(monkeypatch):
    # the risk and the gradient norm each scoring the rows themselves
    rng = np.random.default_rng(5)
    shards = [(rng.standard_normal((m, 6)), rng.integers(0, 2, m).astype(float)) for m in (30, 41, 17)]
    env = make_heterogeneous_suite(3, 0.7, 0.5, shards=shards, beta=0.01)
    thetas = [rng.standard_normal((3, 6)) * scale for scale in (0.1, 1.0, 10.0)]
    two_pass = [(exact_risk(env, theta.mean(axis=0)), decoupled_grad_norm(env, theta.mean(axis=0)))
                for theta in thetas]
    calls, original = [], environment.shifted_scores

    def counted(*args):
        calls.append(1)
        return original(*args)

    # the recorder's own call, and any the risk or the gradient would make
    monkeypatch.setattr(metrics, "shifted_scores", counted)
    monkeypatch.setattr(environment, "shifted_scores", counted)
    record = metric_recorder(env)
    for theta, (risk, grad_norm_sq) in zip(thetas, two_pass):
        rec = record(10, theta)
        assert (rec.risk, rec.grad_norm_sq) == (risk, grad_norm_sq)
    assert len(calls) == len(thetas)


# ---------------------------------------------------------------- rate fit

def test_rate_fit_exact_inverse_law():
    ts = np.arange(100, 3000, 7)
    fit = rate_fit(ts, 7.0 / ts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-9)


def test_rate_fit_exact_inverse_square():
    ts = np.arange(100, 3000, 7)
    fit = rate_fit(ts, 3.0 / ts**2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)


def test_rate_fit_mixed_orders_tail_dominated():
    ts = np.geomspace(1e3, 1e6, 80)
    vals = 5.0 / ts + 4.0 / ts**2
    fit = rate_fit(ts, vals, window=0.5, min_t=1000)
    assert -1.1 < fit.slope < -0.9


def test_rate_fit_drops_nonpositive_with_warning():
    ts = np.arange(1, 401)
    vals = 1.0 / ts
    vals[::50] = 0.0
    with pytest.warns(RuntimeWarning, match="nonpositive"):
        fit = rate_fit(ts, vals, window=1.0, min_t=1)
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_fit_ignores_points_at_t_zero():
    # every metrics.csv starts with a t = 0 row, whose log does not exist
    ts = np.arange(0, 2000, 20)
    vals = 7.0 / np.maximum(ts, 1)
    fit = rate_fit(ts, vals, window=1.0, min_t=0)
    assert fit == rate_fit(ts, vals, window=1.0, min_t=1)
    assert fit.window == (20.0, 1980.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_rate_fit_unavailable_when_sparse():
    with pytest.raises(FitUnavailableError):
        rate_fit(np.arange(1, 6), np.ones(5), window=1.0, min_t=1)


# ---------------------------------------------------------------- csv and aggregation

def test_metrics_csv_round_trip(tmp_path):
    recs = [
        MetricRecord(t=0, gap_sq=1.25, consensus_sq_norm=0.5, consensus_sq=1.0,
                     risk=3.0, risk_se=0.0, grad_norm_sq=None, accuracy=None),
        MetricRecord(t=10, gap_sq=None, consensus_sq_norm=0.25, consensus_sq=0.5,
                     risk=2.5, risk_se=0.1, grad_norm_sq=4.0, accuracy=0.9),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, recs)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    cols = read_metrics_csv(path)
    assert np.array_equal(cols["t"], [0.0, 10.0])
    assert cols["gap_sq"][0] == 1.25 and np.isnan(cols["gap_sq"][1])
    assert cols["accuracy"][1] == 0.9 and np.isnan(cols["accuracy"][0])


@pytest.mark.parametrize("value, cell", [
    (None, ""),
    (np.nan, ""),
    (np.inf, ""),
    (-np.inf, ""),
    (np.float64(np.inf), ""),
    (200, "200"),
    (np.int64(-7), "-7"),
    (200.0, "200.0"),
    (0.1, "0.1"),
    (np.float64(1e-300), "1e-300"),
    (-0.0, "-0.0"),
])
def test_write_csv_cell_rule(tmp_path, value, cell):
    path = tmp_path / "cells.csv"
    write_csv(path, {"t": [3], "v": [value]})
    assert path.read_bytes() == f"t,v\n3,{cell}\n".encode()


def test_write_csv_writes_columns_as_rows_and_refuses_ragged_ones(tmp_path):
    path = tmp_path / "deep" / "er" / "cols.csv"
    write_csv(path, {"a": np.array([1, 2]), "b": np.array([0.5, np.nan]), "c": [None, 2.5]})
    assert path.read_text() == "a,b,c\n1,0.5,\n2,,2.5\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", {"a": [1, 2], "b": [1.0]})


def test_metrics_csv_writes_a_non_finite_record_as_an_empty_cell(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=0, gap_sq=np.inf, consensus_sq=-np.inf, risk=np.nan)])
    assert path.read_text().splitlines()[1] == "0,,0.0,,,,,"
    assert np.isnan(read_metrics_csv(path)["gap_sq"][0])


def test_write_json_indents_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "made" / "report.json"
    write_json(path, {"a": [1, 2.5], "b": None})
    assert path.read_text() == '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": null\n}\n'


@pytest.mark.parametrize("write, data", [(write_csv, {"t": [1]}), (write_json, [1])])
def test_a_failed_write_leaves_the_earlier_file_and_no_temporary(tmp_path, monkeypatch, write, data):
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(metrics.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write(path, data)
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_written_artifacts_take_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        write_csv(tmp_path / "a.csv", {"t": [1]})
        write_json(tmp_path / "a.json", {})
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"a.csv": 0o644, "a.json": 0o644, "plain": 0o644}


def test_aggregate_percentiles(tmp_path):
    runs = []
    for seed in range(5):
        runs.append({
            "t": np.array([0.0, 1.0]),
            "gap_sq": np.array([float(seed), 2.0 * seed]),
            "consensus_sq_norm": np.zeros(2),
            "consensus_sq": np.zeros(2),
            "risk": np.full(2, np.nan),
            "risk_se": np.full(2, np.nan),
            "grad_norm_sq": np.zeros(2),
            "accuracy": np.full(2, np.nan),
        })
    agg = aggregate_columns(runs)
    assert agg["gap_sq_median"][0] == 2.0
    assert agg["gap_sq_mean"][1] == pytest.approx(4.0)
    assert agg["gap_sq_p05"][0] == pytest.approx(0.2)
    assert agg["gap_sq_p95"][0] == pytest.approx(3.8)


def test_aggregate_divergent_runs_ending_on_different_steps():
    # two divergent seeds: common records every 200 steps, then last finite
    # states at t=6605 and t=6606
    def run(last):
        t = np.append(np.arange(0.0, 6601.0, 200.0), last)
        cols = {col: np.arange(len(t), dtype=float) for col in CSV_COLUMNS[1:]}
        return {"t": t, **cols}

    agg = aggregate_columns([run(6605.0), run(6606.0)])
    assert np.array_equal(agg["t"], np.arange(0.0, 6601.0, 200.0))
    assert np.array_equal(agg["gap_sq_median"], np.arange(34.0))
    assert all(len(v) == 34 for v in agg.values())


def test_aggregate_stops_at_first_disagreement():
    a = {"t": np.array([0.0, 10.0, 20.0, 30.0]), **{c: np.ones(4) for c in CSV_COLUMNS[1:]}}
    b = {"t": np.array([0.0, 10.0, 25.0, 30.0]), **{c: np.ones(4) for c in CSV_COLUMNS[1:]}}
    assert np.array_equal(aggregate_columns([a, b])["t"], [0.0, 10.0])


def reference_aggregate(runs):
    """The nan-function aggregation, one numpy reduction per statistic."""
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
            warnings.simplefilter("ignore", RuntimeWarning)
            out[f"{col}_median"] = np.nanmedian(stack, axis=0)
            out[f"{col}_p05"] = np.nanpercentile(stack, 5, axis=0)
            out[f"{col}_p95"] = np.nanpercentile(stack, 95, axis=0)
            out[f"{col}_mean"] = np.nanmean(stack, axis=0)
    return out


def reference_aggregate_csv(path, agg):
    """The per-cell writer: ``t`` as an integer, else ``repr(float)`` of finite cells, empty otherwise."""

    def cell(col, v):
        if col == "t":
            return str(int(v))
        return repr(float(v)) if np.isfinite(v) else ""

    cols = list(agg.keys())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for k in range(len(agg["t"])):
            w.writerow([cell(c, agg[c][k]) for c in cols])


def random_runs(rng, seeds):
    """Seeded runs with ties, +-inf, a wide magnitude range and NaN patterns.

    ``gap_sq`` is all NaN, ``accuracy`` is NaN for one seed at some
    iterations, ``risk_se`` is NaN for every seed but one at some, and the
    runs end on different iterations.
    """
    length = int(rng.integers(20, 40))
    grid = np.arange(length, dtype=float) * 10.0
    runs = []
    for s in range(seeds):
        # a seed whose last record is off the common grid, as divergent seeds are
        t = grid[: length - int(rng.integers(0, 4))].copy()
        if s % 2:
            t[-1] += 1.0
        cols = {}
        for col in CSV_COLUMNS[1:]:
            v = rng.normal(size=len(t)) * 10.0 ** rng.integers(-5, 25, size=len(t))
            v[rng.random(len(t)) < 0.2] = 1.0  # ties
            v[rng.random(len(t)) < 0.05] = np.inf
            v[rng.random(len(t)) < 0.05] = -np.inf
            cols[col] = v
        cols["gap_sq"] = np.full(len(t), np.nan)
        if s == 0:
            cols["accuracy"][::3] = np.nan
        if s > 0:
            cols["risk_se"][1::4] = np.nan
        runs.append({"t": t, **cols})
    return runs


@pytest.mark.parametrize("seeds", range(1, 7))
def test_aggregate_bitwise_equal_to_nan_functions(tmp_path, seeds):
    rng = np.random.default_rng(700 + seeds)
    for trial in range(5):
        runs = random_runs(rng, seeds)
        got = aggregate_columns(runs)
        want = reference_aggregate(runs)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), key
        assert np.all(np.isnan(got["gap_sq_median"]))
        assert got["t"].dtype == np.int64
        write_csv(tmp_path / "got.csv", got)
        reference_aggregate_csv(tmp_path / "want.csv", want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def lone_entry_runs(seeds):
    """Runs where one column has a single iteration without NaN and another a single partly NaN one.

    Alone in its column, each entry is one (runs, 1) call of the per-column
    aggregation, while the stacked one takes it among the other columns' entries.
    """
    rng = np.random.default_rng(seeds)
    runs = []
    for s in range(seeds):
        cols = {col: rng.normal(size=6) * 10.0 ** rng.integers(-3, 9, size=6) for col in CSV_COLUMNS[1:]}
        cols["gap_sq"][:] = np.nan
        cols["gap_sq"][0] = 1.0 / (s + 3)  # only t = 0 is a full iteration
        cols["risk"][:] = np.nan
        if s != 0:
            cols["risk"][3] = 1.0 / (s + 2)  # one partly NaN iteration
        runs.append({"t": np.arange(6) * 10.0, **cols})
    return runs


@pytest.mark.parametrize("seeds", [1, 2, 3, 8, 10, 12])
def test_aggregate_equals_the_per_column_aggregation_bit_for_bit(seeds):
    # partly NaN, all-NaN and unequal-length (divergent) runs, then lone entries
    rng = np.random.default_rng(900 + seeds)
    cases = [random_runs(rng, seeds) for _ in range(3)] + [lone_entry_runs(seeds)]
    cases.append([{"t": np.zeros(1), **{c: np.full(1, 0.5 + s) for c in CSV_COLUMNS[1:]}} for s in range(seeds)])
    for runs in cases:
        got, want = aggregate_columns(runs), reference.aggregate_columns(runs)
        assert list(got) == list(want)
        for key, value in want.items():
            assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key
