import concurrent.futures
import gc
import json
import multiprocessing
import weakref

import numpy as np
import pytest

from perfnet import experiments
from perfnet.config import Config, ConfigError
from perfnet.datasets import synthetic_corpus
from perfnet.experiments import (
    build_environment,
    build_mixing,
    preset,
    run_disconnected_baseline,
    run_experiment,
    run_nonperformative_baseline,
    run_single,
    theory_report,
)
from perfnet.environment import exact_risk
from perfnet.metrics import read_metrics_csv, write_csv, write_metrics_csv
from reference import shard


def tiny_gaussian(T=400, seeds=(1, 2), eps=0.9, record_every=50):
    return preset("gaussian_mean").replace(**{
        "run.T": T,
        "run.record_every": record_every,
        "experiment.seeds": list(seeds),
        "environment.eps_avg": eps,
    })


def tiny_spam(T=150, seeds=(1,)):
    return preset("spam_logistic").replace(**{
        "run.T": T,
        "run.record_every": 30,
        "run.batch": 4,
        "experiment.seeds": list(seeds),
        "environment.strategic.per_agent": 20,
        "environment.strategic.test_split": 100,
        "environment.strategic.synthetic.m": 700,
        "environment.strategic.synthetic.dim": 10,
        "step.a1": 500.0,
        "step.a0": 5.0,
    })


def tiny_hetero(T=150, seeds=(1,)):
    return preset("hetero_vs_homo").replace(**{
        "run.T": T,
        "run.record_every": 30,
        "run.batch": 4,
        "experiment.seeds": list(seeds),
        "environment.strategic.synthetic": {"style": "per_agent", "per_agent": 20, "dim": 5},
        "environment.strategic.test_split": 50,
    })


def test_run_single_gap_decays():
    traj, records = run_single(tiny_gaussian(T=2000, record_every=200))
    assert not traj.diverged
    assert records[0].gap_sq == pytest.approx(1e4)
    assert records[-1].gap_sq < 0.2 * records[0].gap_sq
    # heterogeneous sensitivities make risk non-monotone along the path, but
    # it must stay below the divergence rule
    assert max(r.risk for r in records) < 10 * records[0].risk


def test_run_single_homogeneous_risk_decays():
    cfg = tiny_gaussian(T=2000, record_every=200).replace(
        **{"environment.eps_grid": {"spread": 0.0}}
    )
    _, records = run_single(cfg)
    assert records[0].risk == pytest.approx(75.0)
    assert records[-1].risk < records[0].risk


def test_homogeneous_pooling_shares_base_data():
    cfg = preset("hetero_vs_homo").replace(**{
        "environment.strategic.data_mode": "homogeneous",
        "environment.strategic.synthetic.per_agent": 10,
        "environment.strategic.test_split": 25,
    })
    env, test = build_environment(cfg.environment, seed=0)
    assert env.n == 25
    pooled = shard(env, 0)
    assert len(pooled[0]) == 250
    for i in range(env.n):
        assert all(np.array_equal(a, b) for a, b in zip(shard(env, i), pooled))
    assert test[0].shape[0] == 25  # one test row per agent at this split


def test_run_experiment_artifact_tree(tmp_path):
    cfg = tiny_gaussian()
    manifest = run_experiment(cfg, out=tmp_path, threads=1)
    root = tmp_path / "gaussian_mean"
    cell = root / "eps_avg=0.9"
    for seed in (1, 2):
        assert (cell / str(seed) / "metrics.csv").exists()
    assert (cell / "aggregate.csv").exists()
    assert (cell / "ratefit.json").exists()
    assert (cell / "theory.json").exists()
    saved = json.loads((root / "manifest.json").read_text())
    assert saved["config_hash"] == manifest["config_hash"]
    assert manifest["results"]["0.9"]["1"]["flagged"] is False
    assert manifest["divergence_in_convergent_regime"] is False
    assert manifest["convergent_regime"]["0.9"] is True


def test_manifest_rerun_reproduces_bytes(tmp_path):
    cfg = tiny_gaussian(seeds=(5,))
    run_experiment(cfg, out=tmp_path / "a", threads=1)
    manifest = json.loads((tmp_path / "a" / "gaussian_mean" / "manifest.json").read_text())
    cfg2 = Config.from_dict(manifest["config"])
    run_experiment(cfg2, out=tmp_path / "b", threads=1)
    f1 = (tmp_path / "a" / "gaussian_mean" / "eps_avg=0.9" / "5" / "metrics.csv").read_bytes()
    f2 = (tmp_path / "b" / "gaussian_mean" / "eps_avg=0.9" / "5" / "metrics.csv").read_bytes()
    assert f1 == f2


def test_thread_count_does_not_change_bytes(tmp_path):
    cfg = tiny_gaussian(T=200, seeds=(3, 4), record_every=40)
    run_experiment(cfg, out=tmp_path / "serial", threads=1)
    run_experiment(cfg, out=tmp_path / "pool", threads=2)
    for seed in (3, 4):
        a = (tmp_path / "serial" / "gaussian_mean" / "eps_avg=0.9" / str(seed) / "metrics.csv").read_bytes()
        b = (tmp_path / "pool" / "gaussian_mean" / "eps_avg=0.9" / str(seed) / "metrics.csv").read_bytes()
        assert a == b


@pytest.mark.parametrize("make", [tiny_gaussian, tiny_spam, tiny_hetero])
def test_seed_grouping_does_not_change_bytes(tmp_path, make):
    # threads=1 runs the three seeds as one batch, threads=2 as batches of 2
    # and 1 in a pool, whose first job returns the run seed's environment
    cfg = make(T=150, seeds=(3, 4, 5)).replace(**{"run.seed": 4})
    axis, values = ("data_mode", ["heterogeneous", "homogeneous"]) if make is tiny_hetero else ("eps_avg", [0.5, 0.9])
    one = run_experiment(cfg, axis=axis, values=values, out=tmp_path / "one", threads=1)
    two = run_experiment(cfg, axis=axis, values=values, out=tmp_path / "two", threads=2)
    # every artifact of every cell: metrics.csv, aggregate.csv, ratefit.json,
    # theory.json and, where written, theory_curves.csv
    files_one, files_two = _artifacts(tmp_path / "one"), _artifacts(tmp_path / "two")
    for value in one["results"]:
        cell = f"{cfg.experiment.name}/{axis}={value}/"
        assert {cell + rel for rel in ("3/metrics.csv", "4/metrics.csv", "5/metrics.csv", "aggregate.csv",
                                       "ratefit.json", "theory.json")} <= files_one.keys()
    assert files_one == files_two
    assert one["convergent_regime"] == two["convergent_regime"]
    for value in one["results"]:
        # a batch's seeds share its wall time equally
        walls_one = [one["results"][value][s].pop("wall_s") for s in ("3", "4", "5")]
        walls_two = [two["results"][value][s].pop("wall_s") for s in ("3", "4", "5")]
        assert len(set(walls_one)) == 1
        assert walls_two[0] == walls_two[1] != walls_two[2]
    assert one["results"] == two["results"]


def test_pooled_sweep_aggregates_each_value_inside_the_pool(tmp_path, monkeypatch):
    children = []
    aggregate = experiments._aggregate_cell

    def noting_aggregate(vcfg, env, mixing, cell, summaries):
        children.append(len(multiprocessing.active_children()))
        return aggregate(vcfg, env, mixing, cell, summaries)

    monkeypatch.setattr(experiments, "_aggregate_cell", noting_aggregate)
    run_experiment(tiny_gaussian(T=100, seeds=(3, 4)), axis="eps_avg", values=[0.5, 0.9],
                   out=tmp_path, threads=2)
    # each value is aggregated while the pool's workers still run
    assert len(children) == 2 and all(children)


def test_pool_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a forked pool starts every worker it is given; two seeds are two jobs
    sizes = []
    pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    run_experiment(tiny_gaussian(T=100, seeds=(3, 4)), out=tmp_path, threads=4)
    assert sizes == [2]


def test_batched_divergent_cell_matches_seeds_alone(tmp_path):
    # eps_avg = 2: the seeds stop on their own steps near t = 6600
    seeds = (9000, 9001, 9002, 9003)
    batch = run_experiment(tiny_gaussian(T=8000, seeds=seeds, eps=2.0, record_every=200),
                           out=tmp_path / "batch", threads=1)
    stops = {batch["results"]["2"][str(s)]["diverged_at"] for s in seeds}
    assert len(stops) > 1 and all(t < 8000 for t in stops)
    for seed in seeds:
        alone = run_experiment(tiny_gaussian(T=8000, seeds=(seed,), eps=2.0, record_every=200),
                               out=tmp_path / str(seed), threads=1)
        want, got = alone["results"]["2"][str(seed)], batch["results"]["2"][str(seed)]
        assert got["engine_diverged"] is True and got["diverged_at"] == want["diverged_at"]
        rel = f"gaussian_mean/eps_avg=2/{seed}/metrics.csv"
        assert (tmp_path / "batch" / rel).read_bytes() == (tmp_path / str(seed) / rel).read_bytes()


def test_sweep_flags_divergence_beyond_threshold(tmp_path):
    # homogeneous sensitivities: the admissible side converges cleanly, the
    # other drifts without bound
    cfg = tiny_gaussian(T=2500, seeds=(1,), record_every=100).replace(
        **{"step.kind": "constant", "step.gamma": 0.05, "step.a0": None, "step.a1": None,
           "environment.eps_grid": {"spread": 0.0}}
    )
    manifest = run_experiment(cfg, axis="eps_avg", values=[0.9, 1.2], out=tmp_path, threads=1)
    assert manifest["results"]["0.9"]["1"]["flagged"] is False
    assert manifest["results"]["1.2"]["1"]["flagged"] is True
    assert manifest["convergent_regime"]["1.2"] is False
    # divergence where no stable point exists is the expected outcome
    assert manifest["divergence_in_convergent_regime"] is False
    assert (tmp_path / "gaussian_mean" / "eps_avg=1.2" / "1" / "metrics.csv").exists()


def test_diverged_cell_has_no_rate_fits(tmp_path):
    # eps_avg = 2: the seed blows up near t = 6600, after enough records for a
    # log-log fit of the exploding series
    cfg = tiny_gaussian(T=8000, seeds=(9000,), eps=2.0, record_every=200)
    manifest = run_experiment(cfg, out=tmp_path, threads=1)
    assert manifest["results"]["2"]["9000"]["engine_diverged"] is True
    cell = tmp_path / "gaussian_mean" / "eps_avg=2"
    assert (cell / "aggregate.csv").exists()
    assert json.loads((cell / "ratefit.json").read_text()) == []


def test_empty_seeds_empty_manifest(tmp_path):
    cfg = tiny_gaussian(seeds=())
    manifest = run_experiment(cfg, out=tmp_path, threads=1)
    assert manifest["results"] == {} or all(not v for v in manifest["results"].values())


@pytest.mark.parametrize("axis, message", [
    ("nothing.x", "nothing is not a config section"),
    ("environment.nothing.x", "environment.nothing is not a config section"),
    ("run.T.x", "run.T is not a config section"),
    ("run.nothing", "run.nothing is not a config field"),
    ("environment.strategic.per_agent", "environment.strategic is unset in this config"),
])
def test_default_value_of_an_axis_that_is_not_a_config_path_is_a_config_error(tmp_path, axis, message):
    # without values the sweep reads the axis's value from the config
    with pytest.raises(ConfigError, match=message):
        run_experiment(tiny_gaussian(T=10), axis=axis, out=tmp_path, threads=1)
    assert not (tmp_path / "gaussian_mean").exists()


def test_theory_report_applicable_instance():
    cfg = tiny_gaussian(eps=0.2)
    report = theory_report(cfg, recorded_ts=[0, 10, 100])
    assert report["applicable"] is True
    assert report["constants"]["mu_tilde"] == pytest.approx(1.0 - 1.1 * 0.2)
    assert report["gamma_cap"] > 0
    assert "curves" in report and len(report["curves"].t) == 3
    # preset schedule opens far above the admissible cap; flagged, not clamped
    assert report["schedule_within_cap"] is False


def test_theory_report_takes_the_given_mixing(monkeypatch):
    cfg = tiny_gaussian(eps=0.2)
    mixing = build_mixing(cfg.topology)
    built = theory_report(cfg, recorded_ts=[0, 10, 100])

    def never(tc):
        raise AssertionError("built the mixing it was given")

    monkeypatch.setattr(experiments, "build_mixing", never)
    given = theory_report(cfg, recorded_ts=[0, 10, 100], mixing=mixing)
    assert given.pop("curves").gap_bound.tobytes() == built.pop("curves").gap_bound.tobytes()
    assert given == built


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_builds_one_mixing_per_value_for_its_jobs_and_report(tmp_path, monkeypatch, threads):
    built, used = [], []
    build, run = experiments.build_mixing, experiments.engine.run

    def counting_build(tc):
        built.append(build(tc))
        return built[-1]

    def noting_run(config, env, mixing, *args, **kwargs):
        used.append(mixing)
        return run(config, env, mixing, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_mixing", counting_build)
    monkeypatch.setattr(experiments.engine, "run", noting_run)
    cfg = tiny_gaussian(T=100, seeds=(3, 4))
    run_experiment(cfg, axis="eps_avg", values=[0.5, 0.9], out=tmp_path, threads=threads)
    # built here before the jobs start; a pool worker runs on an unpickled copy
    assert len(built) == 2
    if threads == 1:
        assert [id(m) for m in used] == [id(built[0]), id(built[1])]


def test_theory_report_inapplicable_beyond_condition():
    report = theory_report(tiny_gaussian(eps=0.95))
    assert report["applicable"] is False and "eps_avg" in report["reason"]


def ring_schedule(tmp_path, graphs, window):
    """The eps 0.2 gaussian config on a schedule of 25-ring edge sets."""
    path = tmp_path / f"schedule_{len(graphs)}_{window}.json"
    path.write_text(json.dumps({"graphs": graphs, "window": window}))
    topology = {"topology.kind": "schedule", "topology.schedule_file": str(path)}
    return tiny_gaussian(eps=0.2).replace(**topology)


def test_theory_report_refuses_window_certificates(tmp_path):
    cycle = [[i, (i + 1) % 25] for i in range(25)]
    matchings = ring_schedule(tmp_path, [cycle[0::2], cycle[1::2]], 2)
    report = theory_report(matchings)
    assert report == {"applicable": False, "reason": report["reason"]}
    rho = build_mixing(matchings.topology).rho
    assert rho == pytest.approx(0.0299, abs=1e-4)
    assert f"rho = {rho:.6g} certifies 2-step window products" in report["reason"]
    # one graph at window 1: rho certifies each step, and the report is the static ring's
    ring = theory_report(ring_schedule(tmp_path, [cycle], 1), recorded_ts=[0, 10, 100])
    static = theory_report(tiny_gaussian(eps=0.2), recorded_ts=[0, 10, 100])
    assert ring["applicable"] is True
    assert ring["gamma_cap"] == pytest.approx(static["gamma_cap"], rel=1e-12)


def test_eps_list_used_as_given():
    # with eps_avg the list's mean, 0.39999999999999997, dividing by eps_avg and
    # multiplying back would give 0.10000000000000002 and 0.4000000000000001
    eps = [0.1, 0.7, 0.4]
    cfg = tiny_gaussian(eps=float(np.mean(eps))).replace(**{
        "topology.n": 3, "environment.n": 3,
        "environment.eps_grid": None, "environment.eps_list": eps,
    })
    env, _ = build_environment(cfg.environment, cfg.run.seed)
    assert env.eps.tolist() == [0.1, 0.7, 0.4]


def test_disconnected_baseline_artifacts(tmp_path):
    eps = [0.89] * 24 + [1.01]
    mean = float(np.mean(eps))
    cfg = tiny_gaussian(T=300, seeds=(1,)).replace(**{
        "environment.eps_list": eps,
        "environment.eps_grid": None,
        "environment.eps_avg": mean,
    })
    summary = run_disconnected_baseline(cfg, isolated=24, out=tmp_path)
    assert summary["isolated_eps"] == pytest.approx(1.01)
    base = tmp_path / "gaussian_mean" / "disconnected_baseline"
    assert (base / "networked" / "metrics.csv").exists()
    assert (base / "isolated_24" / "metrics.csv").exists()
    assert json.loads((base / "baseline.json").read_text())["isolated_agent"] == 24


def test_disconnected_baseline_builds_its_environment_once(tmp_path, monkeypatch):
    from perfnet import experiments
    calls = []
    build = experiments.build_environment

    def counting_build(ec, seed):
        calls.append(seed)
        return build(ec, seed)

    monkeypatch.setattr(experiments, "build_environment", counting_build)
    eps = [0.89] * 24 + [1.01]
    cfg = tiny_gaussian(T=100, seeds=(1,)).replace(**{
        "environment.eps_list": eps, "environment.eps_grid": None, "environment.eps_avg": float(np.mean(eps)),
    })
    run_disconnected_baseline(cfg, isolated=24, out=tmp_path)
    assert calls == [cfg.run.seed]


@pytest.mark.parametrize("cfg, isolated, match", [
    (tiny_spam(), 0, "defined for gaussian presets"),
    (tiny_gaussian(), 25, "isolated agent index 25 out of range"),
    (tiny_gaussian(), -1, "isolated agent index -1 out of range"),
], ids=["strategic", "past_the_last_agent", "negative"])
def test_disconnected_baseline_refuses_before_building(tmp_path, monkeypatch, cfg, isolated, match):
    from perfnet import experiments

    def never(*args, **kwargs):
        raise AssertionError("built an environment for a refused baseline")

    monkeypatch.setattr(experiments, "build_environment", never)
    with pytest.raises(ConfigError, match=match):
        run_disconnected_baseline(cfg, isolated=isolated, out=tmp_path)
    assert not any(tmp_path.iterdir())


def test_nonperformative_baseline_artifacts(tmp_path):
    cfg = tiny_spam()
    summary = run_nonperformative_baseline(cfg, out=tmp_path)
    assert 0.0 <= summary["nonperformative_accuracy"] <= 1.0
    assert 0.0 <= summary["dsgd_gd_accuracy"] <= 1.0
    base = tmp_path / "spam_logistic" / "nonperformative_baseline"
    gd = read_metrics_csv(base / "dsgd_gd" / "metrics.csv")
    np_ = read_metrics_csv(base / "nonperformative" / "metrics.csv")
    assert np.all(np.isfinite(gd["accuracy"])) and np.all(np.isfinite(np_["accuracy"]))
    # the arms run as one seed batch; the shift-aware arm is the plain run
    _, records = run_single(cfg)
    write_metrics_csv(tmp_path / "alone.csv", records)
    assert (base / "dsgd_gd" / "metrics.csv").read_bytes() == (
        tmp_path / "alone.csv"
    ).read_bytes()


def test_strategic_run_records_accuracy_and_gradnorm():
    traj, records = run_single(tiny_spam())
    assert not traj.diverged
    assert records[-1].accuracy is not None
    assert records[-1].grad_norm_sq is not None


def test_strategic_run_records_exact_risk_by_default():
    cfg = tiny_spam()
    traj, records = run_single(cfg)
    env, _ = build_environment(cfg.environment, cfg.run.seed)
    assert records[-1].risk == exact_risk(env, traj.final_theta.mean(axis=0))
    assert all(r.risk_se == 0.0 for r in records)


# ---------------------------------------------------------------- corpus memo and reference environment

def write_corpus(path, x, y):
    """A corpus CSV: a header row, then one row of features and label per sample."""
    write_csv(path, {**{f"x{j}": x[:, j] for j in range(x.shape[1])}, "label": y})


def csv_spam(tmp_path, seeds=(3, 4, 5)):
    """tiny_spam on a CSV copy of its synthetic corpus."""
    x, y = synthetic_corpus(m=700, d=10, seed=7)
    path = tmp_path / "corpus.csv"
    write_corpus(path, x, y)
    return tiny_spam(seeds=seeds).replace(**{
        "environment.strategic.synthetic": None, "environment.strategic.dataset": str(path),
    })


@pytest.fixture
def loads(monkeypatch):
    """The paths ``load_dataset`` is called with from here on."""
    calls = []
    load = experiments.load_dataset

    def counting_load(path, dim=None):
        calls.append(path)
        return load(path, dim=dim)

    monkeypatch.setattr(experiments, "load_dataset", counting_load)
    return calls


def test_csv_corpus_is_parsed_once_per_call(tmp_path, loads):
    cfg = csv_spam(tmp_path)
    run_experiment(cfg, out=tmp_path / "seeds", threads=1)
    assert len(loads) == 1
    run_experiment(cfg, axis="eps_avg", values=[0.5, 1.0], out=tmp_path / "sweep", threads=1)
    assert len(loads) == 2
    run_nonperformative_baseline(cfg.replace(**{"run.seed": 3}), out=tmp_path / "np")
    assert len(loads) == 3
    assert experiments._corpora is None


def test_corpus_arrays_are_read_only(tmp_path):
    for cfg in (csv_spam(tmp_path), tiny_spam()):
        for arr in experiments._corpus(cfg.environment.strategic):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def test_each_call_reads_the_csv_afresh(tmp_path, loads):
    cfg = csv_spam(tmp_path, seeds=(3,))
    run_experiment(cfg, out=tmp_path / "first", threads=1)
    x, y = synthetic_corpus(m=700, d=10, seed=8)
    write_corpus(cfg.environment.strategic.dataset, x, y)
    run_experiment(cfg, out=tmp_path / "second", threads=1)
    assert len(loads) == 2
    first, second = (_artifacts(tmp_path / name) for name in ("first", "second"))
    assert first.keys() == second.keys() and first != second


def _artifacts(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_corpus_memo_leaves_artifacts_unchanged(tmp_path, monkeypatch, source):
    cfg = csv_spam(tmp_path, seeds=(3, 4)) if source == "csv" else tiny_spam(seeds=(3, 4))
    run_experiment(cfg, axis="eps_avg", values=[0.5, 1.0], out=tmp_path / "memo", threads=1)
    build = experiments.build_environment

    def build_afresh(ec, seed):
        experiments._corpora.clear()
        return build(ec, seed)

    monkeypatch.setattr(experiments, "build_environment", build_afresh)
    run_experiment(cfg, axis="eps_avg", values=[0.5, 1.0], out=tmp_path / "afresh", threads=1)
    memo, afresh = _artifacts(tmp_path / "memo"), _artifacts(tmp_path / "afresh")
    # per value: two metrics.csv, aggregate.csv, ratefit.json and theory.json
    assert len(memo) == 10 and "spam_logistic/eps_avg=0.5/theory.json" in memo
    assert memo == afresh


@pytest.mark.parametrize("threads, run_seed, events", [
    # the reference is the environment the run-seed job built, and a value
    # is aggregated before the next value's jobs run
    (1, 4, [3, 4, 5, "0.5", 3, 4, 5, "0.9"]),
    (1, 9, [3, 4, 5, 9, "0.5", 3, 4, 5, 9, "0.9"]),  # no job ran seed 9: one more build
    (2, 4, ["0.5", "0.9"]),  # the workers return the reference: the parent builds none
    (2, 9, [9, "0.5", 9, "0.9"]),  # no job ran seed 9: the parent builds one per value
])
def test_reference_environment_comes_from_the_job_that_ran_it(tmp_path, monkeypatch, threads, run_seed, events):
    calls = []
    build, aggregate = experiments.build_environment, experiments._aggregate_cell

    def counting_build(ec, seed):
        calls.append(seed)
        return build(ec, seed)

    def noting_aggregate(vcfg, env, mixing, cell, summaries):
        calls.append(cell.name.split("=")[1])
        return aggregate(vcfg, env, mixing, cell, summaries)

    monkeypatch.setattr(experiments, "build_environment", counting_build)
    monkeypatch.setattr(experiments, "_aggregate_cell", noting_aggregate)
    cfg = tiny_gaussian(T=100, seeds=(3, 4, 5)).replace(**{"run.seed": run_seed})
    run_experiment(cfg, axis="eps_avg", values=[0.5, 0.9], out=tmp_path / "kept", threads=threads)
    assert calls == events


@pytest.mark.parametrize("threads", [1, 2])
def test_reference_environment_is_the_run_seeds_at_any_pool_size(tmp_path, monkeypatch, threads):
    seen = []
    aggregate = experiments._aggregate_cell

    def noting_aggregate(vcfg, env, mixing, cell, summaries):
        seen.append((vcfg, env))
        return aggregate(vcfg, env, mixing, cell, summaries)

    monkeypatch.setattr(experiments, "_aggregate_cell", noting_aggregate)
    # seed 5 is the last of one batch at threads=1, and a batch alone at threads=2
    cfg = tiny_spam(seeds=(3, 4, 5)).replace(**{"run.seed": 5})
    run_experiment(cfg, axis="eps_avg", values=[0.5, 1.0], out=tmp_path, threads=threads)
    assert len(seen) == 2
    for vcfg, env in seen:
        want, _ = build_environment(vcfg.environment, 5)
        assert np.array_equal(env.features, want.features) and np.array_equal(env.eps, want.eps)
        # a reference that crossed the pool is as read-only as one built here
        assert not any(arr.flags.writeable for arr in (env.eps, env.features, env.labels, env.sizes))


def test_in_process_sweep_holds_one_value_environments_at_a_time(tmp_path, monkeypatch):
    alive, built = [], []
    build = experiments.build_environment

    def tracking_build(ec, seed):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        env, test = build(ec, seed)
        built.append(weakref.ref(env))
        return env, test

    monkeypatch.setattr(experiments, "build_environment", tracking_build)
    cfg = tiny_gaussian(T=100, seeds=(3, 4)).replace(**{"run.seed": 3})
    run_experiment(cfg, axis="eps_avg", values=[0.5, 0.7, 0.9], out=tmp_path, threads=1)
    # each value's first build sees none of the earlier values' environments
    assert alive == [0, 1, 0, 1, 0, 1]
