"""Command-line interface.

Subcommands: ``run``, ``fixed-point``, ``theory``, ``rate-check``,
``baseline``. ``run`` runs an experiment: the config's own value of its
axis, or with ``--axis``/``--values`` a grid of one axis. Exit codes: 0
success, 2 configuration error, 3 divergence in a regime where a stable
point exists, 4 dataset error. A missing edge-list or schedule file is a
configuration error, a missing dataset file a dataset error. ``run
--threads`` caps the worker pool (the CPU count if left out).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import experiments, metrics, oracle
from .config import INTEGER_FIELDS, ConfigError, load_config
from .datasets import DatasetError
from .environment import decoupled_full_gradient

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_DATASET = 4


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config across its seeds and axis values")
    run.add_argument("config")
    run.add_argument("--axis", default=None,
                     help="eps_avg, or data_mode for a per-agent synthetic config, if left out")
    run.add_argument("--values", default=None,
                     help="comma-separated values; the config's own value if left out")
    run.add_argument("--out", default=None)
    run.add_argument("--threads", type=int, default=None)

    fp = sub.add_parser("fixed-point", help="compute the stable point and contraction report")
    fp.add_argument("config")
    fp.add_argument("--deployments", type=int, default=10_000)
    fp.add_argument("--inner", type=int, default=1000,
                    help="inner solver cap per deployment (Newton iterations for strategic solves)")
    fp.add_argument("--tol", type=float, default=1e-8)

    th = sub.add_parser("theory", help="emit rate constants, step cap, and bound curves")
    th.add_argument("config")
    th.add_argument("--curves", default=None, help="write bound curves CSV here")

    rc = sub.add_parser("rate-check", help="fit a tail slope on a metrics CSV")
    rc.add_argument("metrics_csv")
    rc.add_argument("--metric", default="gap_sq")
    rc.add_argument("--window", type=float, default=0.5)
    rc.add_argument("--min-t", type=int, default=100)

    bl = sub.add_parser("baseline", help="comparative baselines")
    bl.add_argument("config")
    group = bl.add_mutually_exclusive_group(required=True)
    group.add_argument("--disconnected", type=int, default=None, metavar="AGENT")
    group.add_argument("--nonperformative", action="store_true")
    bl.add_argument("--out", default=None)
    return p


def _parse_values(raw: str, axis: str | None) -> list:
    """``--values`` tokens as numbers where they parse, else as strings.

    A token is an int on an integer axis (``config.INTEGER_FIELDS``) and a
    float on any other; one that does not parse, such as ``1e5`` on an
    integer axis, stays a string for the config to accept or refuse.
    """
    parse = int if axis in INTEGER_FIELDS else float
    out = []
    for tok in map(str.strip, raw.split(",")):
        try:
            out.append(parse(tok))
        except ValueError:
            out.append(tok)
    return out


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    values = None if args.values is None else _parse_values(args.values, args.axis)
    manifest = experiments.run_experiment(
        cfg, axis=args.axis, values=values, out=args.out, threads=args.threads,
    )
    keys = ("name", "config_hash", "axis", "values", "wall_time_s",
            "divergence_in_convergent_regime")
    print(json.dumps({k: manifest[k] for k in keys}, indent=2))
    return EXIT_DIVERGED if manifest["divergence_in_convergent_regime"] else EXIT_OK


def _cmd_fixed_point(args) -> int:
    if not args.tol >= 0:
        raise ConfigError(f"fixed-point --tol must be a nonnegative number, got {args.tol}")
    for flag, budget in (("--deployments", args.deployments), ("--inner", args.inner)):
        if budget < 1:
            raise ConfigError(f"fixed-point {flag} must be at least 1, got {budget}")
    cfg = load_config(args.config)
    env, _ = experiments.build_environment(cfg.environment, cfg.run.seed)
    result = oracle.repeated_gd_fixed_point(
        env, deployments=args.deployments, inner=args.inner, tol=args.tol
    )
    try:
        stable, stable_error = oracle.stable_point(env), None
    except oracle.NoFixedPointError as exc:
        stable, stable_error = None, exc
    if result.converged:
        center = result.theta_ps
    else:
        center = stable if stable is not None else np.zeros(env.dim)
    probe = oracle.contraction_probe(env, center=center, inner=args.inner)
    report = {
        **asdict(result),
        "theta_ps": [float(v) for v in result.theta_ps],
        "contraction": {
            "empirical": probe.empirical_ratio,
            "bound": probe.theoretical_bound,
            "budget_exhausted": probe.budget_exhausted,
        },
    }
    if stable is None:
        report["stable_point"] = None
        report["stable_point_error"] = str(stable_error)
    else:
        report["stable_point"] = {
            "theta": [float(v) for v in stable],
            "residual": float(np.linalg.norm(decoupled_full_gradient(env, stable, stable))),
        }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_theory(args) -> int:
    cfg = load_config(args.config)
    ts = None
    if args.curves:
        # the grid engine.run records on: every record_every iterations and t = T
        ts = [*range(0, cfg.run.T, cfg.run.record_every), cfg.run.T]
    report = experiments.theory_report(cfg, recorded_ts=ts)
    curves = report.pop("curves", None)
    if args.curves:
        if curves is not None:
            metrics.write_csv(args.curves, asdict(curves))
        # null, and no file written, when the report is not applicable
        report["curves"] = None if curves is None else args.curves
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_rate_check(args) -> int:
    try:
        cols = metrics.read_metrics_csv(args.metrics_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read metrics CSV {args.metrics_csv}: {exc}") from None
    if args.metric not in cols:
        raise ConfigError(f"metric {args.metric!r} not in {args.metrics_csv}")
    try:
        fit = metrics.rate_fit(cols["t"], cols[args.metric], window=args.window, min_t=args.min_t)
    except metrics.FitUnavailableError as exc:
        print(json.dumps({"metric": args.metric, "error": str(exc)}, indent=2))
        return EXIT_OK
    except ValueError as exc:
        raise ConfigError(f"rate-check --window: {exc}") from None
    print(json.dumps(metrics.rate_fit_json(args.metric, fit), indent=2))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    if args.nonperformative:
        summary = experiments.run_nonperformative_baseline(cfg, out=args.out)
    else:
        summary = experiments.run_disconnected_baseline(cfg, args.disconnected, out=args.out)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "fixed-point": _cmd_fixed_point,
    "theory": _cmd_theory,
    "rate-check": _cmd_rate_check,
    "baseline": _cmd_baseline,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET


if __name__ == "__main__":
    raise SystemExit(main())
