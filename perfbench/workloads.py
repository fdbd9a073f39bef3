"""The benchmark's four workloads, each driven through perfnet's public API.

A workload has three parts:

* ``setup(seeds)`` builds what the timed calls need (config, environment,
  mixing matrix, stable point and theory constants). ``setup_s`` times it in
  a fresh interpreter, so it includes importing perfnet.
* ``calls(ctx, out, threads)`` makes the timed public calls, one unit of
  work, and records each as an :class:`Op`.
* ``check(ctx, out, unit)`` verifies the outputs of one unit; a failed check
  marks its op failed, so a fast wrong answer counts as a failure.

``seeds(seed)`` derives a workload's seeds from the ``--seed`` argument; the
default seed of each workload is the first seed of the preset it uses.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfnet import engine, experiments, oracle


@dataclass
class Op:
    """One timed public call and what became of it."""

    label: str
    wall_s: float = 0.0
    error: str | None = None
    check_failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.check_failures)


@dataclass
class Unit:
    """The ops of one unit of work plus what the checks and layer metrics read."""

    ops: list = field(default_factory=list)
    results: dict = field(default_factory=dict)   # op label -> returned value
    digests: dict = field(default_factory=dict)   # output name -> sha256 of its bytes
    observed: dict = field(default_factory=dict)  # per-layer values read from outputs

    def attempt(self, label: str, fn, *args, **kwargs):
        """Call ``fn``; an exception it raises is recorded as the op's error."""
        op = Op(label)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a measured outcome, not a crash
            op.error = f"{type(exc).__name__}: {exc}"
            result = None
        op.wall_s = time.perf_counter() - start
        self.results[label] = result
        return result

    def fail(self, label: str, message: str) -> None:
        """Record a failed output check against the op ``label``."""
        next(op for op in self.ops if op.label == label).check_failures.append(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_digests(out: Path) -> dict:
    return {str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("metrics.csv"))}


def _read_columns(path: Path) -> dict:
    """metrics.csv columns as floats (empty cells become NaN)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) if r[k] else math.nan for r in rows] for k in rows[0]}


def _manifest_cells(unit: Unit, manifest: dict, label: str) -> None:
    """Per-cell wall times and the call's wall time, for the pool metrics."""
    walls = [s["wall_s"] for cell in manifest["results"].values() for s in cell.values()]
    wall = next(op.wall_s for op in unit.ops if op.label == label)
    unit.observed.setdefault("cells_s", []).extend(walls)
    unit.observed["calls_s"] = unit.observed.get("calls_s", 0.0) + wall


@dataclass
class Workload:
    """Common shape; subclasses set the preset, sizes and the three parts."""

    name: str = ""
    preset: str = ""
    default_seed: int = 0
    n_seeds: int = 1
    pooled: bool = False
    overrides: dict = field(default_factory=dict)

    def seeds(self, seed: int | None) -> list[int]:
        first = self.default_seed if seed is None else int(seed)
        return [first + k for k in range(self.n_seeds)]

    def config(self, seeds):
        return experiments.preset(
            self.preset,
            **{"experiment.seeds": list(seeds), "experiment.name": self.name,
               "run.seed": seeds[0], **self.overrides},
        )


@dataclass
class GaussianSeeds(Workload):
    name: str = "gaussian_seeds"
    preset: str = "gaussian_mean"
    default_seed: int = 9000
    n_seeds: int = 3
    overrides: dict = field(default_factory=lambda: {"run.T": 5000})

    def setup(self, seeds) -> dict:
        cfg = self.config(seeds)
        for s in seeds:
            experiments.build_environment(cfg.environment, s)
        experiments.build_mixing(cfg.topology)
        report = experiments.theory_report(cfg, recorded_ts=[cfg.run.T])
        return {"cfg": cfg, "gap_bound": float(report["curves"].gap_bound[-1])}

    def calls(self, ctx, out: Path, threads: int) -> Unit:
        unit = Unit()
        unit.attempt("run_experiment", experiments.run_experiment, ctx["cfg"], out=str(out), threads=threads)
        return unit

    def check(self, ctx, out: Path, unit: Unit) -> None:
        manifest = unit.results["run_experiment"]
        if manifest is None:
            return
        _manifest_cells(unit, manifest, "run_experiment")
        flagged = [s for cell in manifest["results"].values() for s, r in cell.items() if r["flagged"]]
        if flagged:
            unit.fail("run_experiment", f"seeds {flagged} flagged in a convergent regime")
        cell = out / self.name / f"eps_avg={ctx['cfg'].environment.eps_avg:g}"
        gap = _read_columns(cell / "aggregate.csv")["gap_sq_median"][-1]
        if not gap < ctx["gap_bound"]:
            unit.fail("run_experiment", f"final median gap_sq {gap!r} not below gap_bound {ctx['gap_bound']!r}")


@dataclass
class SpamSeeds(Workload):
    name: str = "spam_seeds"
    preset: str = "spam_logistic"
    default_seed: int = 1000
    n_seeds: int = 2
    overrides: dict = field(default_factory=lambda: {"run.T": 1000})

    def setup(self, seeds) -> dict:
        cfg = self.config(seeds)
        for s in seeds:
            experiments.build_environment(cfg.environment, s)
        experiments.build_mixing(cfg.topology)
        experiments.theory_report(cfg)
        return {"cfg": cfg}

    def calls(self, ctx, out: Path, threads: int) -> Unit:
        unit = Unit()
        unit.attempt("run_experiment", experiments.run_experiment, ctx["cfg"], out=str(out), threads=threads)
        return unit

    def check(self, ctx, out: Path, unit: Unit) -> None:
        manifest = unit.results["run_experiment"]
        if manifest is None:
            return
        _manifest_cells(unit, manifest, "run_experiment")
        cfg = ctx["cfg"]
        cell = out / self.name / f"eps_avg={cfg.environment.eps_avg:g}"
        for seed in cfg.experiment.seeds:
            cols = _read_columns(cell / str(seed) / "metrics.csv")
            if not all(math.isfinite(r) for r in cols["risk"]):
                unit.fail("run_experiment", f"seed {seed}: non-finite risk")
            acc = cols["accuracy"]
            if not acc[-1] >= acc[0]:
                unit.fail("run_experiment", f"seed {seed}: final accuracy {acc[-1]!r} below initial {acc[0]!r}")


@dataclass
class StrategicOracle(Workload):
    name: str = "strategic_oracle"
    preset: str = "hetero_vs_homo"
    default_seed: int = 7
    n_seeds: int = 1
    tol: float = 1e-6
    inner: int = 200
    max_deployments: int = 100
    probe_pairs: int = 4
    probe_radius: float = 1.0

    def setup(self, seeds) -> dict:
        cfg = experiments.preset(self.preset, **self.overrides)
        env, _ = experiments.build_environment(cfg.environment, cfg.run.seed)
        # the seed picks the starting decision and the probe pairs; the data
        # stay the preset's, so every seed costs about the same deployments
        theta0 = 0.1 * engine.stream(seeds[0], engine.DATA_STREAM).standard_normal(env.dim)
        return {"env": env, "theta0": theta0, "seed": seeds[0]}

    def calls(self, ctx, out: Path, threads: int) -> Unit:
        unit = Unit()
        env = ctx["env"]
        with warnings.catch_warnings():
            # apply_M warns once per deployment whose inner budget ran out
            warnings.simplefilter("ignore", RuntimeWarning)
            res = unit.attempt(
                "repeated_gd_fixed_point", oracle.repeated_gd_fixed_point, env,
                deployments=self.max_deployments, inner=self.inner, tol=self.tol,
                theta0=ctx["theta0"],
            )
            if res is not None:
                unit.attempt(
                    "contraction_probe", oracle.contraction_probe, env,
                    pairs=self.probe_pairs, radius=self.probe_radius,
                    rng=engine.stream(ctx["seed"], engine.PROBE_STREAM),
                    center=res.theta_ps, inner=self.inner,
                )
        return unit

    def check(self, ctx, out: Path, unit: Unit) -> None:
        res = unit.results["repeated_gd_fixed_point"]
        if res is None:
            return
        unit.digests["theta_ps"] = hashlib.sha256(np.ascontiguousarray(res.theta_ps).tobytes()).hexdigest()
        unit.observed["residual"] = res.residual
        if not res.converged or not res.residual <= self.tol:
            unit.fail("repeated_gd_fixed_point",
                      f"converged={res.converged} residual={res.residual!r} tol={self.tol}")
        probe = unit.results.get("contraction_probe")
        if probe is not None and not probe.empirical_ratio < 1.0:
            unit.fail("contraction_probe", f"empirical contraction ratio {probe.empirical_ratio!r} >= 1")


@dataclass
class GaussianSweep(Workload):
    name: str = "gaussian_sweep"
    preset: str = "gaussian_mean"
    default_seed: int = 9000
    n_seeds: int = 4
    pooled: bool = True
    values: tuple = (0.5, 0.95, 2.0)
    overrides: dict = field(default_factory=lambda: {"run.T": 8000})

    def setup(self, seeds) -> dict:
        cfg = self.config(seeds)
        experiments.build_mixing(cfg.topology)
        for v in self.values:
            vcfg = cfg.replace(**{"environment.eps_avg": v})
            for s in seeds:
                experiments.build_environment(vcfg.environment, s)
            experiments.theory_report(vcfg)
        return {"cfg": cfg}

    def calls(self, ctx, out: Path, threads: int) -> Unit:
        unit = Unit()
        for v in self.values:
            unit.attempt(f"run_experiment eps_avg={v:g}", experiments.run_experiment, ctx["cfg"],
                         axis="eps_avg", values=[v], out=str(out), threads=threads)
        return unit

    def check(self, ctx, out: Path, unit: Unit) -> None:
        cfg = ctx["cfg"]
        for v in self.values:
            label = f"run_experiment eps_avg={v:g}"
            manifest = unit.results[label]
            if manifest is not None:
                _manifest_cells(unit, manifest, label)
            if v < 1.0:
                if manifest is None:
                    unit.fail(label, "no manifest for a convergent value")
                    continue
                flagged = [s for s, r in manifest["results"][f"{v:g}"].items() if r["flagged"]]
                if flagged:
                    unit.fail(label, f"seeds {flagged} flagged in a convergent regime")
                continue
            # beyond the threshold every seed must stop early; read from the
            # per-seed CSVs because the known aggregation failure leaves no manifest
            for seed in cfg.experiment.seeds:
                path = out / self.name / f"eps_avg={v:g}" / str(seed) / "metrics.csv"
                if not path.exists():
                    unit.fail(label, f"seed {seed}: no metrics.csv")
                    continue
                last_t = _read_columns(path)["t"][-1]
                if not last_t < cfg.run.T:
                    unit.fail(label, f"seed {seed}: did not diverge (last t={last_t:g})")


WORKLOADS = {w.name: w for w in (GaussianSeeds(), SpamSeeds(), StrategicOracle(), GaussianSweep())}


def output_digests(out: Path, unit: Unit) -> dict:
    """Digests of every output a repeat must reproduce byte for byte."""
    return {**_csv_digests(out), **unit.digests}
