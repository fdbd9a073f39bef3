"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The heavyweight runs are shared through session-scoped fixtures; the whole
module takes several minutes on one core.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfnet.config import Config
from perfnet.engine import RunConfig, StepSchedule, run, stream
from perfnet.environment import make_heterogeneous_suite
from perfnet.experiments import (
    build_environment,
    preset,
    run_disconnected_baseline,
    run_experiment,
    run_nonperformative_baseline,
    run_single,
)
from perfnet.metrics import (
    decoupled_grad_norm,
    metric_recorder,
    rate_fit,
    read_metrics_csv,
)
from perfnet.oracle import (
    closed_form_multi_ps,
    contraction_probe,
    repeated_gd_fixed_point,
)
from perfnet.theory import (
    bound_curves,
    compute_constants,
    instance_constants,
    ratio_condition_check,
    step_size_cap,
)
from perfnet.topology import (
    DisconnectedGraphError,
    GraphSchedule,
    build_ring,
    from_edge_list,
    schedule_mixing,
    uniform_neighbor_weights,
)
from reference import LossSpec, loss_gradient, loss_value

GAUSSIAN_SEEDS = list(range(9000, 9010))  # the preset's default seed list
SPAM_SEEDS = list(range(1000, 1010))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="session")
def gaussian_rates(tmp_path_factory):
    """Criterion-2 experiment: the gaussian preset, 10 seeds, T = 2e5."""
    out = tmp_path_factory.mktemp("crit2")
    cfg = preset("gaussian_mean").replace(**{"experiment.seeds": GAUSSIAN_SEEDS})
    manifest = run_experiment(cfg, out=out, threads=1)
    return cfg, out, manifest


@pytest.fixture(scope="session")
def gaussian_sweep(tmp_path_factory):
    """Criterion-3 sweep over the unstable sensitivities."""
    out = tmp_path_factory.mktemp("crit3")
    cfg = preset("gaussian_mean").replace(**{"experiment.seeds": GAUSSIAN_SEEDS})
    manifest = run_experiment(cfg, axis="eps_avg", values=[1.01, 1.05, 1.1],
                              out=out, threads=1)
    return cfg, out, manifest


def spam_seed(seed, out):
    """One criterion-9 seed: the paired runs' summary and the shift-aware run's metrics."""
    cfg = preset("spam_logistic").replace(**{
        "run.T": 20_000, "run.record_every": 100, "run.batch": 32,
        "run.seed": seed,
        "step.a0": 20.0, "step.a1": 1000.0,
        "environment.eps_avg": 1.0,
        "experiment.seeds": [seed],
    })
    summary = run_nonperformative_baseline(cfg, out=out / str(seed))
    return summary, read_metrics_csv(
        out / str(seed) / "spam_logistic" / "nonperformative_baseline" / "dsgd_gd" / "metrics.csv"
    )


@pytest.fixture(scope="session")
def spam_runs(tmp_path_factory):
    """Criterion-9 paired runs (shift-aware vs zero-shift baseline) per seed.

    The corpus is the shipped synthetic stand-in at the reference scale
    (4601 rows, 48 features, 25 shards of 138 plus 1150 test rows). The
    schedule is shortened relative to the preset default to keep the
    qualitative gate affordable; the criterion is directional. The seeds are
    independent and run on up to two worker processes.
    """
    out = tmp_path_factory.mktemp("crit9")
    # spawn, not fork: the session has already started BLAS threads
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = list(pool.map(spam_seed, SPAM_SEEDS, [out] * len(SPAM_SEEDS)))
    summaries, gd_runs = (list(part) for part in zip(*runs))
    return summaries, gd_runs


# ------------------------------------------------------------------ criteria

def test_criterion_1_closed_form_fixed_point():
    t0 = time.perf_counter()
    env, _ = build_environment(preset("gaussian_mean").environment, seed=0)
    theta_ps = closed_form_multi_ps(env)
    res = repeated_gd_fixed_point(env, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(theta_ps, [100.0], atol=1e-9)
        and res.converged
        and float(np.linalg.norm(res.theta_ps - theta_ps)) <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"theta_ps={theta_ps[0]:.9f}, oracle gap "
                  f"{float(np.linalg.norm(res.theta_ps - theta_ps)):.2e}, {elapsed:.2f}s")


def test_criterion_2_rate_claims(gaussian_rates):
    _, out, _ = gaussian_rates
    fits = {f["metric"]: f for f in json.loads(
        (out / "gaussian_mean" / "eps_avg=0.9" / "ratefit.json").read_text())}
    gap_slope = fits["gap_sq"]["slope"]
    cons_slope = fits["consensus_sq"]["slope"]
    ok = -1.3 <= gap_slope <= -0.7 and -2.4 <= cons_slope <= -1.6
    report(2, ok, f"mean gap_sq slope {gap_slope:+.3f} (want [-1.3,-0.7]), "
                  f"mean consensus_sq slope {cons_slope:+.3f} (want [-2.4,-1.6])")


def test_criterion_3_stability_threshold(gaussian_rates, gaussian_sweep):
    _, _, stable = gaussian_rates
    _, _, sweep = gaussian_sweep
    stable_flags = [s["flagged"] for s in stable["results"]["0.9"].values()]
    counts = {}
    for value in ("1.01", "1.05", "1.1"):
        counts[value] = sum(s["flagged"] for s in sweep["results"][value].values())
    ok = not any(stable_flags) and all(c >= 9 for c in counts.values())
    report(3, ok, f"flags at 0.9: {sum(stable_flags)}/10 (want 0); "
                  f"beyond threshold: {counts} (want >= 9/10 each)")


def test_criterion_4_stabilization_by_consensus(tmp_path):
    # one agent carries sensitivity 1.01 (individually unstable); the other
    # 24 are calibrated so the network average stays at 0.9
    rest = (0.9 * 25 - 1.01) / 24
    eps = [rest] * 24 + [1.01]
    cfg = preset("gaussian_mean").replace(**{
        "environment.eps_list": eps,
        "environment.eps_grid": None,
        "environment.eps_avg": float(np.mean(eps)),
        "experiment.seeds": [GAUSSIAN_SEEDS[0]],
        "run.seed": GAUSSIAN_SEEDS[0],
    })
    summary = run_disconnected_baseline(cfg, isolated=24, out=tmp_path)
    solo = read_metrics_csv(tmp_path / "gaussian_mean" / "disconnected_baseline"
                            / "isolated_24" / "metrics.csv")
    tail = solo["risk"][-(len(solo["risk"]) // 10):]
    strictly_up = bool(np.all(np.diff(tail) > 0))
    ok = strictly_up and summary["isolated_diverged"] and not summary["networked_diverged"]
    report(4, ok, f"isolated risk last-decile strictly increasing={strictly_up}, "
                  f"isolated flagged={summary['isolated_diverged']}, "
                  f"networked flagged={summary['networked_diverged']}")


def test_criterion_5_bound_dominance():
    # exact-constants instance: scalar means, sensitivity grid averaging 0.2,
    # ring of 25; constant step at 90% of the admissible cap passes both
    # step-size conditions
    env = make_heterogeneous_suite(25, 0.2, 0.6, zbar=10.0, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(25))
    theta_ps = closed_form_multi_ps(env)

    probe = StepSchedule.constant(1.0)  # placeholder to evaluate constants
    tc = instance_constants(env, mix.rho, probe, theta0=0.0, theta_ps=theta_ps, delta=0.1)
    dual = compute_constants(
        mu=env.mu, L=env.smoothness, sigma=tc.sigma, varsigma=tc.varsigma,
        rho=mix.rho, n=25, eps_avg=env.eps_avg, eps_max=env.eps_max,
        gamma1=1.0, gap0_sq=tc.gap0_sq, q0_sq=0.0, delta=0.1,
    )
    consts_agree = all(
        getattr(tc, k) == pytest.approx(getattr(dual, k), rel=1e-12)
        for k in ("mu_tilde", "c1", "c2", "c3")
    )

    g = 0.9 * step_size_cap(tc).cap
    sched = StepSchedule.constant(g)
    tc = instance_constants(env, mix.rho, sched, theta0=0.0, theta_ps=theta_ps, delta=0.1)
    assert g <= step_size_cap(tc).cap and ratio_condition_check(sched, tc, 2000).ok

    T, every, seeds = 2000, 50, 20
    gap_runs, cons_runs = [], []
    for seed in range(3000, 3000 + seeds):
        sink = metric_recorder(env, theta_ps=theta_ps)
        traj = run(RunConfig(T=T, record_every=every, seed=seed), env, mix, sched, sink=sink)
        gap_runs.append([r.gap_sq for r in traj.records])
        cons_runs.append([r.consensus_sq_norm for r in traj.records])
    ts = [r.t for r in traj.records]
    mean_gap = np.mean(gap_runs, axis=0)
    mean_cons = np.mean(cons_runs, axis=0)
    curves = bound_curves(tc, sched, ts)
    slack = 1e-9  # shared start makes the t=0 entries exactly equal
    gap_ok = bool(np.all(mean_gap <= curves.gap_bound * (1 + 1e-12) + slack))
    cons_ok = bool(np.all(mean_cons <= curves.consensus_bound + slack))
    ok = consts_agree and gap_ok and cons_ok
    report(5, ok, f"constants dual-path agree={consts_agree}; "
                  f"gap dominated={gap_ok} (worst ratio "
                  f"{float(np.max(mean_gap / np.maximum(curves.gap_bound, 1e-300))):.3f}), "
                  f"consensus dominated={cons_ok}")


def test_criterion_6_contraction():
    ratios_ok = True
    details = []
    for eps in (0.3, 0.5, 0.9):
        env = make_heterogeneous_suite(25, eps, 0.0, zbar=10.0, sigma2=50.0)
        rep = contraction_probe(env, pairs=16, rng=stream(1, 0x77))
        ratios_ok &= abs(rep.empirical_ratio - eps) <= 1e-8
        details.append(f"{eps}->{rep.empirical_ratio:.10f}")
    env_div = make_heterogeneous_suite(25, 1.01, 0.0, zbar=10.0, sigma2=1.0)
    res = repeated_gd_fixed_point(env_div, deployments=2000, tol=0.0,
                                  divergence_threshold=np.inf)
    growth = float(np.linalg.norm(res.theta_ps))
    diverges = (not res.converged) and growth > 1e10
    report(6, ratios_ok and diverges,
           f"ratios {details}; map iterate after 2000 deployments {growth:.3e} (> 1e10)")


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(77)
    worst = 0.0
    for kind, beta in (("quadratic", 0.0), ("logistic", 0.3)):
        loss = LossSpec(kind, dim=5, beta=beta)
        for _ in range(100):
            theta = rng.standard_normal(5)
            z = rng.standard_normal(5) if kind == "quadratic" else (
                rng.standard_normal(5), float(rng.integers(0, 2)))
            g = loss_gradient(loss, theta, z)
            fd = np.array([
                (loss_value(loss, theta + h, z) - loss_value(loss, theta - h, z))
                / (2e-6)
                for h in np.eye(5) * 1e-6
            ])
            worst = max(worst, float(np.linalg.norm(g - fd))
                        / max(1.0, float(np.linalg.norm(fd))))
    grad_at_ps_ok = True
    for eps in (0.3, 0.9, 0.99):
        env = make_heterogeneous_suite(25, eps, 0.5, zbar=10.0, sigma2=50.0)
        norm = np.sqrt(decoupled_grad_norm(env, closed_form_multi_ps(env)))
        grad_at_ps_ok &= norm <= 1e-9
    ok = worst <= 1e-6 and grad_at_ps_ok
    report(7, ok, f"finite-difference worst rel err {worst:.2e} (<= 1e-6); "
                  f"decoupled gradient at stable point <= 1e-9: {grad_at_ps_ok}")


def test_criterion_8_time_varying_graphs():
    n = 25
    cycle = [(i, (i + 1) % n) for i in range(n)]
    sched_graphs = GraphSchedule(
        graphs=(from_edge_list(n, cycle[0::2]), from_edge_list(n, cycle[1::2])),
        window=2,
    )
    # the certificate refuses window 1 (each matching alone is disconnected)
    # and certifies window 2, which raises if its products do not contract
    try:
        schedule_mixing(GraphSchedule(graphs=sched_graphs.graphs, window=1))
        certified_window = 1
    except DisconnectedGraphError:
        certified_window = 2
    mix = schedule_mixing(sched_graphs)
    union_is_ring = (sched_graphs.graphs[0].edges | sched_graphs.graphs[1].edges) \
        == build_ring(n).edges

    env = make_heterogeneous_suite(25, 0.9, 0.05, zbar=10.0, sigma2=50.0)
    theta_ps = closed_form_multi_ps(env)
    step = StepSchedule.inverse_time(50.0, 1e4)
    gaps = []
    for seed in GAUSSIAN_SEEDS[:5]:
        sink = metric_recorder(env, theta_ps=theta_ps)
        traj = run(RunConfig(T=200_000, record_every=200, seed=seed), env, mix,
                   step, sink=sink)
        assert not traj.diverged
        gaps.append([r.gap_sq for r in traj.records])
    ts = [r.t for r in traj.records]
    slope = rate_fit(np.asarray(ts), np.mean(gaps, axis=0)).slope
    ok = certified_window == 2 and union_is_ring and slope <= -0.5
    report(8, ok, f"certified window={certified_window} (rho {mix.rho:.4f}), "
                  f"union is the ring={union_is_ring}, "
                  f"mean gap slope {slope:+.3f} (<= -0.5)")


def test_criterion_9_spam_classification(spam_runs):
    summaries, gd_runs = spam_runs
    wins = sum(s["dsgd_gd_wins"] for s in summaries)
    ts = gd_runs[0]["t"]
    mean_grad = np.mean([r["grad_norm_sq"] for r in gd_runs], axis=0)
    slope = rate_fit(ts, mean_grad).slope
    ok = wins >= 8 and slope <= -0.7
    report(9, ok, f"shift-aware accuracy wins {wins}/10 (>= 8); "
                  f"mean grad_norm_sq slope {slope:+.3f} (<= -0.7)")


def test_criterion_10_determinism_across_thread_counts(gaussian_rates, tmp_path):
    cfg, out, _ = gaussian_rates
    sub = cfg.replace(**{"experiment.seeds": GAUSSIAN_SEEDS[:2]})
    run_experiment(sub, out=tmp_path, threads=2)
    identical = True
    for seed in GAUSSIAN_SEEDS[:2]:
        a = (out / "gaussian_mean" / "eps_avg=0.9" / str(seed) / "metrics.csv").read_bytes()
        b = (tmp_path / "gaussian_mean" / "eps_avg=0.9" / str(seed) / "metrics.csv").read_bytes()
        identical &= a == b
    report(10, identical, f"metrics.csv byte-identical across pool sizes for seeds "
                          f"{GAUSSIAN_SEEDS[:2]}: {identical}")
