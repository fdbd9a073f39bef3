"""Run one perfnet benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gaussian_seeds [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all            # every workload, one table

``--seed`` picks the workload's seeds (N, N+1, ...); without it each
workload uses its default seed. The run repeats the workload's timed calls
for about ``--seconds`` seconds and checks every repeat's outputs.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters), ``wall_s`` and ``cpu_s`` (median per repeat),
``peak_rss_mb`` and ``ok_frac`` (share of the workload's calls that neither
raised nor failed an output check). A call is counted once however often the
run repeats it: every repeat must reproduce its output, and the call fails if
any repeat of it fails, so ``attempted`` and ``failed`` do not depend on how
many repeats fit into ``--seconds``. ``--trace 1`` alternates untraced and traced repeats at
one worker (plus pooled repeats for a pooled workload) and reports the
per-layer metrics and the tracing overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the provenance and a
readable table come before it, and ``.perfbench/`` receives the full result
and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    """Repeats of one workload's timed calls under one setting."""

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # host-speed probe times sampled during each repeat
    units: list = field(default_factory=list)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_passes(workload, ctx, seconds: float, settings: list, work: Path) -> list[Pass]:
    """Repeat the workload's calls for ``seconds``, rotating through ``settings``.

    Each setting is ``(threads, tracer or None)`` and gets its own
    :class:`Pass`; rotating keeps slow drift of the host out of the
    differences between settings. Every setting runs at least once. The
    host-speed probe is sampled during every repeat. Each repeat's outputs
    are checked and must match the run's first repeat byte for byte.
    """
    from perfbench.provenance import host_speed
    from perfbench.tracing import traced_calls
    from perfbench.workloads import output_digests

    passes = [Pass() for _ in settings]
    reference: dict = {}
    out = work / "unit"
    deadline = time.perf_counter() + seconds
    while not passes[-1].units or time.perf_counter() < deadline:
        for (threads, tracer), result in zip(settings, passes):
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.begin_run(f"{workload.name}/{len(result.units)}")
            with traced_calls(tracer) if tracer is not None else contextlib.nullcontext(), \
                    host_speed() as probes:
                cpu0 = cpu_seconds()
                start = time.perf_counter()
                unit = workload.calls(ctx, out, threads)
                wall = time.perf_counter() - start
                cpu = cpu_seconds() - cpu0
            result.probes.append(probes)
            workload.check(ctx, out, unit)
            for key, digest in output_digests(out, unit).items():
                if reference.setdefault(key, digest) != digest:
                    unit.ops[0].check_failures.append(f"{key} differs from the run's first repeat")
            result.walls.append(wall)
            result.cpus.append(cpu)
            result.units.append(unit)
    shutil.rmtree(out, ignore_errors=True)
    return passes


def probe_setup(name: str, seeds: list[int]) -> float:
    """``setup_s`` of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, ",".join(map(str, seeds))],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(workload, seed: int | None, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the full result (the printed line is a subset)."""
    from perfbench import provenance
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer

    seeds = workload.seeds(seed)
    workers = min(2, os.cpu_count() or 1) if workload.pooled else 1
    work = OUT / f"work-{os.getpid()}"
    info = {
        "workload": workload.name, "seed": seed, "seeds": seeds,
        "default_seed": workload.default_seed, "seconds": seconds, "trace": int(trace),
        "workers": workers, **provenance.describe(ROOT),
    }
    try:
        ctx = workload.setup(seeds)
        if not trace:
            passes = run_passes(workload, ctx, seconds, [(workers, None)], work)
            main = passes[0]
            peak = peak_rss_mb()  # before the set-up probes, which are children too
            setups = [probe_setup(workload.name, seeds) for _ in range(setup_repeats)]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (provenance.reference_seconds(main.walls, main.probes), "s"),
                "cpu_s": (provenance.reference_seconds(main.cpus, main.probes), "s"),
                "peak_rss_mb": (peak, "MB"),
            }
            info.update(
                measured_wall_s=statistics.median(main.walls),
                measured_cpu_s=statistics.median(main.cpus),
                setup_samples_s=setups,
            )
        else:
            tracer = Tracer()
            settings = [(1, None), (1, tracer)] + ([(workers, None)] if workers > 1 else [])
            passes = run_passes(workload, ctx, seconds, settings, work)
            untraced, traced = passes[0], passes[1]
            pool_pass = passes[2] if workers > 1 else untraced
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{workload.name}.npz")
            metrics = layer_metrics(tracer, traced, untraced, pool_pass, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for u in p.units for op in u.ops]
    call_failed: dict = {}
    for op in ops:
        call_failed[op.label] = call_failed.get(op.label, False) or op.failed
    attempted, failed = len(call_failed), sum(call_failed.values())
    if not trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    info.update(
        repeats=sum(len(p.units) for p in passes),
        walls_s=[w for p in passes for w in p.walls],
        probe_means_s=[statistics.fmean(k) for p in passes for k in p.probes],
        failures=sorted({f"{op.label}: {op.error}" for op in ops if op.error}),
        check_failures=sorted({f"{op.label}: {m}" for op in ops for m in op.check_failures}),
    )
    return {
        "correct": not info["check_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": info,
    }


def report(result: dict) -> None:
    """Provenance, a readable table, then the result line (last)."""
    info = result["provenance"]
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(f"{info['workload']}  seeds={info['seeds']}  trace={info['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} calls, {info['repeats']} repeats)")
    for line in info["failures"]:
        print(f"  failure: {line}")
    for line in info["check_failures"]:
        print(f"  check failed: {line}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{info['workload']}-trace{info['trace']}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    """Each workload in its own interpreter, then one summary table."""
    from perfbench.workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<36}" + "".join(f"{w:>18}" for w in rows))
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>18.6g}" for r in rows.values())
        print(f"{metric + ' [' + unit + ']':<36}{cells}")
    print(f"{'failed_frac [ratio]':<36}" + "".join(f"{r['failed'] / r['attempted']:>18.6g}" for r in rows.values()))
    print(f"{'correct':<36}" + "".join(f"{str(r['correct']):>18}" for r in rows.values()))
    print(json.dumps(rows), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perfnet" / "__init__.py").is_file():
        print(f"perfbench: no perfnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    report(run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
