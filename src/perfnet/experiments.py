"""Experiment presets, multi-seed orchestration, and artifact emission.

Artifact layout under the experiment's output directory::

    <out>/<name>/<axis>=<value>/<seed>/metrics.csv
    <out>/<name>/<axis>=<value>/aggregate.csv
    <out>/<name>/<axis>=<value>/ratefit.json
    <out>/<name>/<axis>=<value>/theory.json        (+ theory_curves.csv)
    <out>/<name>/manifest.json

Each sweep value's seeds are split into contiguous groups, one per worker,
and a group runs as one seed-batched :func:`~perfnet.engine.run`. The jobs
run in a process pool of at most ``threads`` workers (the CPU count if left
out), or in this process for one worker; each value aggregates as its jobs
arrive. Runs are deterministic in (config, seed), so results are
byte-identical for any pool size and grouping. Every file goes through
``metrics.write_csv`` or ``write_json``, whole or not at all. Only they make
directories: a run refused before writing makes none.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import engine, metrics, oracle, theory, topology
from .config import Config, ConfigError, config_hash
from .datasets import (
    load_dataset,
    partition_agents,
    synthetic_agent_shards,
    synthetic_corpus,
)
from .environment import GAUSSIAN, STRATEGIC, Environment, make_heterogeneous_suite

__all__ = [
    "preset",
    "build_mixing",
    "build_environment",
    "run_single",
    "run_experiment",
    "run_disconnected_baseline",
    "run_nonperformative_baseline",
    "theory_report",
]

RISK_DIVERGENCE_FACTOR = 10.0


def preset(name: str, **overrides) -> Config:
    """Named experiment bundles; dotted-path overrides are applied on top.

    ``gaussian_mean``: 25 agents on a ring with uniform 1/3 weights estimate
    a shifted scalar mean (base mean 10, noise variance 50, distinct
    per-agent sensitivities). ``spam_logistic``: 25 agents train a ridge
    logistic classifier on shards of a binary corpus whose features shift
    with the deployed decision (sensitivity grid 0.4..1.6 around the
    average). ``hetero_vs_homo``: same machinery on per-agent synthetic
    data, contrasting per-agent and pooled base distributions.
    """
    if name == "gaussian_mean":
        base = {
            "config_version": 1,
            "topology": {"kind": "ring", "n": 25, "weights": "uniform"},
            # distinct per-agent sensitivities on a narrow grid: the wide
            # 0.4..1.6 grid used by the spam preset puts this instance in a
            # heterogeneity-bias regime whose gap decays like gamma^2 until
            # ~4e6 iterations, masking the fluctuation-driven 1/t rate
            "environment": {
                "kind": "gaussian_mean",
                "n": 25,
                "eps_avg": 0.9,
                "eps_grid": {"spread": 0.05},
                "gaussian": {"zbar": 10.0, "sigma2": 50.0},
            },
            "step": {"kind": "inverse_time", "a0": 50.0, "a1": 10000.0},
            "run": {"T": 200_000, "batch": 1, "record_every": 200, "seed": 9000},
            "experiment": {"name": "gaussian_mean", "seeds": list(range(9000, 9010))},
        }
    elif name == "spam_logistic":
        base = {
            "config_version": 1,
            "topology": {"kind": "ring", "n": 25, "weights": "uniform"},
            "environment": {
                "kind": "strategic_shift",
                "n": 25,
                "eps_avg": 1.0,
                "eps_grid": {"spread": 0.6},
                "strategic": {
                    "beta": 1e-4,
                    "per_agent": 138,
                    "test_split": 1150,
                    "standardize": True,
                    "synthetic": {"style": "corpus", "m": 4601, "dim": 48},
                },
            },
            "step": {"kind": "inverse_time", "a0": 50.0, "a1": 100_000.0},
            "run": {"T": 100_000, "batch": 32, "record_every": 200, "seed": 1000},
            "experiment": {"name": "spam_logistic", "seeds": list(range(1000, 1010))},
        }
    elif name == "hetero_vs_homo":
        base = {
            "config_version": 1,
            "topology": {"kind": "ring", "n": 25, "weights": "uniform"},
            "environment": {
                "kind": "strategic_shift",
                "n": 25,
                "eps_avg": 0.1,
                "strategic": {
                    "beta": 1e-4,
                    "test_split": 500,
                    "data_mode": "heterogeneous",
                    "synthetic": {"style": "per_agent", "per_agent": 100, "dim": 100},
                },
            },
            "step": {"kind": "inverse_time", "a0": 200.0, "a1": 1000.0},
            "run": {"T": 20_000, "batch": 32, "record_every": 100, "seed": 1000},
            "experiment": {"name": "hetero_vs_homo", "seeds": list(range(1000, 1010))},
        }
    else:
        raise ConfigError(f"unknown preset {name!r}")
    cfg = Config.from_dict(base)
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _load_schedule(path, n: int) -> topology.GraphSchedule:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read schedule file {path}: {exc}") from None
    if not isinstance(data, dict) or "graphs" not in data:
        raise ConfigError(f"schedule file {path} is not a JSON object with a \"graphs\" list")
    if data.get("n", n) != n:
        raise ConfigError(f"schedule file n={data.get('n')} disagrees with topology n={n}")
    window = data.get("window", 1)
    if type(window) is not int:  # a float, a bool or a string is not a window
        raise ConfigError(f"schedule file {path}: \"window\" must be an integer, got {json.dumps(window)}")
    try:
        graphs = tuple(topology.from_edge_list(n, [tuple(e) for e in g]) for g in data["graphs"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed schedule file {path}: {exc}") from None
    return topology.GraphSchedule(graphs=graphs, window=window)


def build_mixing(tc) -> topology.Mixing:
    """Weights for the configured graph; a graph the weights cannot serve is a config error."""
    builders = {"ring": topology.build_ring, "complete": topology.build_complete, "star": topology.build_star}
    try:
        if tc.kind == "schedule":
            return topology.schedule_mixing(_load_schedule(tc.schedule_file, tc.n))
        g = topology.read_edge_list(tc.edge_file, tc.n) if tc.kind == "edge_list" else builders[tc.kind](tc.n)
        if tc.weights == "uniform":
            return topology.uniform_neighbor_weights(g)
        return topology.metropolis_weights(g)
    except topology.TopologyError as exc:
        raise ConfigError(str(exc)) from exc


def build_environment(ec, seed: int) -> tuple[Environment, tuple | None]:
    """Instantiate the environment; returns (env, test_data or None).

    Strategic data partitioning is keyed by the run seed, so reruns of a
    manifest reproduce the identical split. The config has checked its
    ``eps_list``; a spread, population or loss parameter out of range is a
    :class:`ConfigError` with the suite's own message.
    """
    if ec.kind == GAUSSIAN:
        suite_kw, test = {"zbar": ec.gaussian.zbar, "sigma2": ec.gaussian.sigma2}, None
    else:
        shards, test = _strategic_shards(ec, seed)
        suite_kw = {"shards": shards, "beta": ec.strategic.beta}
    try:
        env = make_heterogeneous_suite(ec.n, ec.eps_avg, ec.spread, eps=ec.eps_list, **suite_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return env, test


def _strategic_shards(ec, seed: int) -> tuple[list, tuple]:
    """Per-agent (features, labels) shards and the test split of a strategic config."""
    sc = ec.strategic
    if sc.dataset is None and sc.synthetic.style == "per_agent":
        shards, test = synthetic_agent_shards(
            n=ec.n, per_agent=sc.synthetic.per_agent, d=sc.synthetic.dim,
            heterogeneity=sc.synthetic.heterogeneity, seed=sc.synthetic.seed,
            test_per_agent=max(1, sc.test_split // ec.n),
        )
    else:
        x, y = _corpus(sc)
        shards, test = partition_agents(
            x, y, ec.n, sc.per_agent, sc.test_split, seed=seed, standardize=sc.standardize
        )
    if sc.data_mode == "homogeneous":
        pooled_x = np.concatenate([s[0] for s in shards])
        pooled_y = np.concatenate([s[1] for s in shards])
        shards = [(pooled_x, pooled_y)] * ec.n
    return shards, test


# The corpus of a strategic config does not depend on the run seed. Within
# run_experiment and the nonperformative baseline, _corpora maps (dataset,
# dim, synthetic) to its (x, y), so one call draws or parses each corpus
# once, and each pool worker it forks keeps its own; elsewhere it is None.
_corpora: dict | None = None


@contextmanager
def _corpus_per_call():
    """Keep each corpus built within the block in ``_corpora``, and drop them all when it ends."""
    global _corpora
    _corpora = {}
    try:
        yield
    finally:
        _corpora = None


def _corpus(sc) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (features, labels) corpus of strategic config ``sc``.

    ``load_dataset`` and ``synthetic_corpus`` are looked up in this module at
    call time, and not called when ``_corpora`` holds the corpus.
    """
    key = (sc.dataset, sc.dim, sc.synthetic)
    if _corpora is not None and key in _corpora:
        return _corpora[key]
    if sc.dataset is not None:
        corpus = load_dataset(sc.dataset, dim=sc.dim)
    else:
        syn = sc.synthetic
        corpus = synthetic_corpus(m=syn.m, d=syn.dim, seed=syn.seed, signal=syn.signal)
    # every seed's partition reads the same arrays
    for arr in corpus:
        arr.setflags(write=False)
    if _corpora is not None:
        _corpora[key] = corpus
    return corpus


def _check_theta0(cfg: Config, env: Environment) -> None:
    """Refuse a ``run.theta0`` that is neither one number nor one per coordinate of ``env``'s decisions."""
    shape = np.asarray(cfg.run.theta0, dtype=float).shape
    if shape not in ((), (1,), (env.dim,)):
        raise ConfigError(f"run.theta0 must be a number or {env.dim} numbers, "
                          f"got {json.dumps(cfg.run.theta0, default=repr)}")


def _seed_parts(cfg: Config, seed: int):
    """One seed's environment, test split (or None) and standard metric recorder."""
    env, test = build_environment(cfg.environment, seed)
    _check_theta0(cfg, env)
    sink = metrics.metric_recorder(env, theta_ps=oracle.closed_form_or_none(env), test_data=test)
    return env, test, sink


def run_single(cfg: Config) -> tuple[engine.Trajectory, list]:
    """One seeded run with the standard metric recorder. Returns (trajectory, records)."""
    env, _, sink = _seed_parts(cfg, cfg.run.seed)
    traj = engine.run(cfg.run, env, build_mixing(cfg.topology), cfg.step, sink=sink)
    return traj, traj.records


def _risk_diverged(records) -> bool:
    risks = [r.risk for r in records if r.risk is not None]
    if not risks or risks[0] <= 0:
        return False
    return bool(max(risks) > RISK_DIVERGENCE_FACTOR * risks[0])


def _run_seeds(cfg: Config, envs, sinks, seeds, csv_paths, mixing=None) -> list:
    """Run ``seeds`` as one batch of ``cfg`` and write each seed's ``metrics.csv`` to its path.

    ``mixing`` defaults to the config's topology. Returns one trajectory per seed.
    """
    if mixing is None:
        mixing = build_mixing(cfg.topology)
    trajs = engine.run(cfg.run, envs, mixing, cfg.step, sink=sinks, seeds=seeds)
    for traj, csv_path in zip(trajs, csv_paths):
        metrics.write_metrics_csv(csv_path, traj.records)
    return trajs


def _run_job(args) -> tuple[list, Environment | None]:
    """One batch of seeds of one sweep value, on the value's mixing weights.

    Returns a summary per seed and the environment of the config's run seed
    if the batch ran that seed (else None); a pool worker returns it pickled.
    """
    cfg, mixing, seeds, csv_paths = args
    t0 = time.perf_counter()
    envs, _, sinks = zip(*(_seed_parts(cfg, seed) for seed in seeds))
    summaries = []
    for seed, traj in zip(seeds, _run_seeds(cfg, envs, sinks, seeds, csv_paths, mixing)):
        risk_diverged = _risk_diverged(traj.records)
        summaries.append({
            "seed": seed,
            "engine_diverged": traj.diverged,
            "diverged_at": traj.diverged_at,
            "risk_diverged": risk_diverged,
            "flagged": traj.diverged or risk_diverged,
        })
    wall_s = (time.perf_counter() - t0) / len(seeds)
    return [{**summary, "wall_s": wall_s} for summary in summaries], dict(zip(seeds, envs)).get(cfg.run.seed)


def _axis_path(axis: str) -> str:
    aliases = {"eps_avg": "environment.eps_avg", "data_mode": "environment.strategic.data_mode"}
    return aliases.get(axis, axis)


def _fmt_value(v) -> str:
    return f"{v:g}" if isinstance(v, float) else str(v)


@_corpus_per_call()
def run_experiment(
    cfg: Config,
    axis: str | None = None,
    values: list | None = None,
    out: str | None = None,
    threads: int | None = None,
) -> dict:
    """Run all (sweep value, seed) cells and emit the artifact tree.

    Returns the manifest. Divergence never aborts the experiment: in regimes
    where a stable point exists it is recorded (and surfaced through
    ``divergence_in_convergent_regime``), beyond the stability threshold it
    is the expected outcome.

    Each value's seeds run as ``min(threads, len(seeds))`` batched jobs of
    contiguous seeds (``threads`` is the CPU count if left out), on a pool
    of at most one worker per job; one loop receives them in order, and
    writes a value's artifacts once its jobs are in. Each value's mixing
    weights are built once, here, and serve its jobs and its theory report.
    A seed's ``wall_s`` in the manifest is its equal share of its job's wall
    time (building, running and writing the whole batch). A value's cell is
    ``<axis>=<value>``, floats formatted by ``:g``, and a value listed
    twice runs once. ``threads`` below 1, or two values that name one
    cell, raise :class:`ConfigError` before anything is written.
    """
    exp = cfg.experiment
    out_root = Path(out if out is not None else exp.out) / exp.name
    if axis is None:
        axis = "data_mode" if (
            cfg.environment.kind == STRATEGIC
            and cfg.environment.strategic.synthetic is not None
            and cfg.environment.strategic.synthetic.style == "per_agent"
        ) else "eps_avg"
    if values is None:
        values = [cfg.get(_axis_path(axis))]

    workers = (os.cpu_count() or 1) if threads is None else threads
    if workers < 1:
        raise ConfigError(f"the worker count must be at least 1, got {workers}")
    # one config, mixing and cell per sweep value; each value's config is made
    # before its name is compared, so that a NaN, unequal to itself, is refused
    # as a config error and not as two values of one cell
    named, cells = {}, {}
    for v in values:
        vcfg = cfg.replace(**{_axis_path(axis): v})
        key = _fmt_value(v)
        first = named.setdefault(key, v)
        if first is not v and first != v:
            raise ConfigError(f"{axis} values {first!r} and {v!r} both name the cell {axis}={key}")
        if key not in cells:
            cells[key] = (vcfg, build_mixing(vcfg.topology), out_root / f"{axis}={key}")
    # contiguous groups of near-equal size, one batched job per value and group
    groups = np.array_split(exp.seeds, min(workers, len(exp.seeds))) if exp.seeds else []
    groups = [[int(seed) for seed in group] for group in groups]
    payloads = [(vcfg, mixing, seeds, [str(cell / str(seed) / "metrics.csv") for seed in seeds])
                for vcfg, mixing, cell in cells.values() for seeds in groups]

    t0 = time.perf_counter()
    # a forked pool starts all its workers at the first submit, so it gets
    # no more of them than there are jobs
    workers = min(workers, len(payloads))
    pooled = workers > 1
    if pooled:
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads numpy.random on first use; loading it before the pool
        # forks spares each worker its own import (~15 ms)
        import numpy.random  # noqa: F401

    # map runs each job here as it is received; a value's reference environment,
    # at run.seed, is the one its job returned, else a new one
    results: dict = {}
    convergent = {}
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        jobs = (pool.map if pooled else map)(_run_job, payloads)
        for key, (vcfg, mixing, cell) in cells.items():
            results[key], env = {}, None
            for group, reference in itertools.islice(jobs, len(groups)):
                results[key].update((str(summary["seed"]), summary) for summary in group)
                if reference is not None:
                    env = reference
            if env is None:
                env, _ = build_environment(vcfg.environment, vcfg.run.seed)
            convergent[key] = oracle.existence_check(env.eps_avg, env.mu, env.smoothness).exists
            _aggregate_cell(vcfg, env, mixing, cell, results[key].values())
            env = reference = None  # freed before the next value's jobs are received

    flagged_in_convergent = any(
        s["flagged"] for key in cells if convergent[key] for s in results[key].values()
    )
    manifest = {
        "config_version": cfg.config_version,
        "name": exp.name,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "axis": axis,
        "values": values,
        "seeds": list(exp.seeds),
        "results": results,
        "convergent_regime": convergent,
        "divergence_in_convergent_regime": flagged_in_convergent,
        "wall_time_s": time.perf_counter() - t0,
        "created_unix": time.time(),
    }
    metrics.write_json(out_root / "manifest.json", manifest)
    return manifest


def _aggregate_cell(vcfg: Config, env: Environment, mixing, cell: Path, summaries) -> None:
    """Aggregate, rate fits and theory report of one sweep value's seeds."""
    # every seed's job has written its metrics.csv by now
    runs = [metrics.read_metrics_csv(cell / str(seed) / "metrics.csv") for seed in vcfg.experiment.seeds]
    if not runs:
        return
    agg = metrics.aggregate_columns(runs)
    metrics.write_csv(cell / "aggregate.csv", agg)

    fits = []
    # a power law fitted to a blow-up says nothing: no fits once any seed diverged
    diverged = any(s["engine_diverged"] for s in summaries)
    for col in ("gap_sq", "consensus_sq", "consensus_sq_norm", "risk", "grad_norm_sq"):
        series = agg.get(f"{col}_mean")
        if diverged or series is None or not np.any(np.isfinite(series)):
            continue
        try:
            fit = metrics.rate_fit(agg["t"], series)
        except metrics.FitUnavailableError:
            continue
        fits.append(metrics.rate_fit_json(col, fit))
    metrics.write_json(cell / "ratefit.json", fits)

    report = theory_report(vcfg, recorded_ts=agg["t"], env=env, mixing=mixing)
    curves = report.pop("curves", None)
    metrics.write_json(cell / "theory.json", report)
    if curves is not None:
        metrics.write_csv(cell / "theory_curves.csv", asdict(curves))


def theory_report(cfg: Config, recorded_ts=None, env: Environment | None = None,
                  mixing: topology.Mixing | None = None) -> dict:
    """Constants, step cap, ratio check, and bound curves for a config.

    ``env`` is the config's environment at ``cfg.run.seed`` and ``mixing``
    its topology's weights; each is built from ``cfg`` when omitted. Returns
    ``{"applicable": False, "reason": ...}`` when the constants are undefined for the instance (no stable point, zero
    sensitivity, estimates unavailable, or a window above 1, whose rho bounds
    window products and not the per-step gap the constants take) instead of raising.
    """
    if env is None:
        env, _ = build_environment(cfg.environment, cfg.run.seed)
    _check_theta0(cfg, env)
    theta_ps = oracle.closed_form_or_none(env)
    if theta_ps is None:
        return {"applicable": False, "reason": "no closed-form stable point for this instance"}
    if mixing is None:
        mixing = build_mixing(cfg.topology)
    if mixing.window > 1:
        return {"applicable": False, "reason": (
            f"rho = {mixing.rho:.6g} certifies {mixing.window}-step window products, "
            "not each step; the rate constants need a per-step spectral gap")}
    try:
        tc = theory.instance_constants(
            env, mixing.rho, cfg.step, theta0=cfg.run.theta0,
            theta_ps=theta_ps, delta=cfg.experiment.theory_delta,
        )
    except (theory.StabilityViolatedError, theory.ConstantsInapplicableError) as exc:
        return {"applicable": False, "reason": str(exc)}
    cap = theory.step_size_cap(tc)
    ratio = theory.ratio_condition_check(cfg.step, tc, min(cfg.run.T, 10_000))
    gamma1 = engine.gamma(cfg.step, 1)
    report = {
        "applicable": True,
        "constants": asdict(tc),
        "gamma_cap": cap.cap,
        "binding_term": cap.binding,
        "cap_terms": cap.terms,
        "ratio_check": {"ok": ratio.ok, "first_violation": ratio.first_violation},
        "schedule_within_cap": gamma1 <= cap.cap,
        "transient_threshold": theory.transient_threshold(tc) if tc.sigma > 0 else None,
    }
    if recorded_ts is not None and len(recorded_ts):
        report["curves"] = theory.bound_curves(tc, cfg.step, recorded_ts)
    return report


def run_disconnected_baseline(cfg: Config, isolated: int, out: str | None = None) -> dict:
    """Isolated-agent comparison: one agent runs the scheme alone, the network runs with it.

    Both runs share the schedule and seed; the isolated agent keeps its own
    sensitivity, so an individually unstable population (sensitivity above
    the single-agent threshold) diverges alone while the networked run can
    still converge on the strength of the average.
    """
    if cfg.environment.kind != GAUSSIAN:
        raise ConfigError("disconnected baseline is defined for gaussian presets")
    if not 0 <= isolated < cfg.environment.n:
        raise ConfigError(f"isolated agent index {isolated} out of range")

    base_dir = Path(out if out is not None else cfg.experiment.out) / cfg.experiment.name
    base_dir /= "disconnected_baseline"
    seed = cfg.run.seed
    env, _, sink = _seed_parts(cfg, seed)
    [traj_net] = _run_seeds(cfg, [env], [sink], [seed], [base_dir / "networked" / "metrics.csv"])

    one = slice(isolated, isolated + 1)
    solo_env = Environment(env.eps[one], zbar_stack=env.zbar_stack[one], sigma2=env.sigma2[one])
    solo_sink = metrics.metric_recorder(solo_env, theta_ps=oracle.closed_form_or_none(solo_env))
    solo_mix = topology.uniform_neighbor_weights(topology.build_ring(1))
    [traj_solo] = _run_seeds(cfg, [solo_env], [solo_sink], [seed],
                             [base_dir / f"isolated_{isolated}" / "metrics.csv"], mixing=solo_mix)

    solo_risks = [r.risk for r in traj_solo.records if r.risk is not None]
    tail = solo_risks[-max(2, len(solo_risks) // 10):]
    summary = {
        "isolated_agent": isolated,
        "isolated_eps": float(env.eps[isolated]),
        "isolated_diverged": traj_solo.diverged or _risk_diverged(traj_solo.records),
        "isolated_tail_increasing": all(b > a for a, b in zip(tail, tail[1:])),
        "networked_diverged": traj_net.diverged or _risk_diverged(traj_net.records),
        "networked_final_risk": traj_net.records[-1].risk,
        "isolated_final_risk": solo_risks[-1] if solo_risks else None,
    }
    metrics.write_json(base_dir / "baseline.json", summary)
    return summary


@_corpus_per_call()
def run_nonperformative_baseline(cfg: Config, out: str | None = None) -> dict:
    """Train with zero sensitivity, then evaluate under the shift the decision induces.

    The reference decision minimizes the average loss on unshifted data
    (trained by the same decentralized scheme with sensitivities zeroed);
    its accuracy is measured on test features shifted by that decision at
    each agent's true sensitivity, alongside the shift-aware run. The two
    arms share the run seed and advance as one seed-batched
    :func:`~perfnet.engine.run`; each arm's trajectory is bit-identical to a
    run of it alone.
    """
    seed = cfg.run.seed
    env, test, sink = _seed_parts(cfg, seed)
    if env.kind != STRATEGIC or test is None:
        raise ConfigError("nonperformative baseline needs a strategic preset with a test split")

    base_dir = Path(out if out is not None else cfg.experiment.out) / cfg.experiment.name
    base_dir /= "nonperformative_baseline"
    zero_cfg = cfg.replace(**{"environment.eps_avg": 0.0, "environment.eps_grid": None,
                              "environment.eps_list": None})
    env_zero, _ = build_environment(zero_cfg.environment, seed)
    sink_zero = metrics.metric_recorder(env_zero, test_data=test, accuracy_env=env)
    traj_gd, traj_zero = _run_seeds(
        cfg, [env, env_zero], [sink, sink_zero], [seed, seed],
        [base_dir / "dsgd_gd" / "metrics.csv", base_dir / "nonperformative" / "metrics.csv"])

    # each arm's last record scores its final (last finite) decisions
    acc_gd = traj_gd.records[-1].accuracy
    acc_zero = traj_zero.records[-1].accuracy
    summary = {
        "dsgd_gd_accuracy": acc_gd,
        "nonperformative_accuracy": acc_zero,
        "dsgd_gd_wins": bool(acc_gd >= acc_zero),
        "eps_avg": cfg.environment.eps_avg,
    }
    metrics.write_json(base_dir / "baseline.json", summary)
    return summary
