"""Tests of the benchmark harness. Run with ``python -m pytest perfbench/tests``."""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.run import run_workload
from perfbench.tracing import TARGETS, Tracer, count_under, reduce_spans, traced_calls
from perfbench.workloads import WORKLOADS, GaussianSeeds, GaussianSweep, SpamSeeds, StrategicOracle, Unit

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the four workloads at sizes that keep each repeat well under a second
SMALL = {
    "gaussian_seeds": GaussianSeeds(n_seeds=2, overrides={"run.T": 600}),
    "spam_seeds": SpamSeeds(overrides={"run.T": 400}),
    "strategic_oracle": StrategicOracle(overrides={
        "environment.strategic.synthetic.dim": 10,
        "environment.strategic.synthetic.per_agent": 20,
    }),
    "gaussian_sweep": GaussianSweep(n_seeds=2, overrides={"run.T": 7000}),
}

# per-layer metrics that must be nonzero on the workload that exercises them
APPLIES = {
    "gaussian_seeds": [
        "engine.steps", "engine.step_us", "engine.step_self_us", "engine.loop_self_us",
        "environment.sample_us", "environment.gradient_us", "metrics.record_us", "metrics.records",
    ],
    "spam_seeds": [
        "engine.steps", "engine.step_us", "environment.sample_us", "environment.gradient_us",
        "metrics.record_us", "metrics.records", "experiments.build_environment_ms",
        "experiments.build_environment_calls", "topology.build_mixing_ms", "datasets.partition_ms",
    ],
    "strategic_oracle": [
        "environment.full_gradient_us", "environment.full_gradient_calls", "oracle.solve_s",
        "oracle.deployments", "oracle.inner_steps", "oracle.residual", "oracle.probe_s",
    ],
    "gaussian_sweep": [
        "metrics.csv_write_ms", "metrics.csv_read_ms", "metrics.aggregate_ms", "metrics.csv_bytes",
        "theory.report_ms", "theory.bound_curves_ms", "theory.ratio_check_ms",
        "experiments.build_environment_ms", "experiments.build_environment_calls",
        "experiments.cell_s", "experiments.pool_efficiency",
    ],
}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMALL)


def _current():
    return [getattr(importlib.import_module(module), attr) for module, attr, _, _ in TARGETS]


def test_wrappers_restore_the_original_functions():
    before = _current()
    with traced_calls(Tracer()):
        assert all(now is not old for now, old in zip(_current(), before))
    assert all(now is old for now, old in zip(_current(), before))


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with traced_calls(Tracer()):
            raise RuntimeError("raised inside the traced block")
    assert all(now is old for now, old in zip(_current(), before))


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.begin_run("test")
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    spans = tracer.array()
    stats = reduce_spans(spans, tracer.names)
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["total_s"] - stats["inner"]["total_s"])
    assert count_under(spans, tracer.names, ("outer", "inner")) == 2
    assert count_under(spans, tracer.names, ("inner", "outer")) == 0


@pytest.mark.parametrize("name", ["gaussian_seeds", "spam_seeds", "gaussian_sweep"])
def test_traced_and_untraced_runs_write_identical_csvs(tmp_path, name):
    workload = SMALL[name]
    ctx = workload.setup(workload.seeds(None))
    workload.calls(ctx, tmp_path / "plain", 1)
    tracer = Tracer()
    tracer.begin_run("test")
    with traced_calls(tracer):
        workload.calls(ctx, tmp_path / "traced", 1)
    assert len(tracer) > 0
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*.csv"))
    traced = sorted(p.relative_to(tmp_path / "traced") for p in (tmp_path / "traced").rglob("*.csv"))
    assert plain and plain == traced
    for rel in plain:
        assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "traced" / rel).read_bytes()


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_emits_every_per_layer_metric(name):
    # a seed outside the defaults must pass the same output checks
    result = run_workload(SMALL[name], seed=31, seconds=0, trace=True)
    assert result["correct"], result["provenance"]["check_failures"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[k]["value"] > 0 for k in APPLIES[name]), {k: metrics[k] for k in APPLIES[name]}


@pytest.mark.parametrize("name", list(SMALL))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run_workload(SMALL[name], seed=31, seconds=0, trace=False, setup_repeats=1)
    assert result["correct"], result["provenance"]["check_failures"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_a_raising_call_is_a_failed_op_not_a_crash():
    unit = Unit()
    assert unit.attempt("boom", lambda: 1 / 0) is None
    (op,) = unit.ops
    assert op.failed and op.error.startswith("ZeroDivisionError")


def test_sweep_counts_each_raising_call_as_failed():
    # at the default seeds 9000 and 9001 the eps_avg=2 cells stop at t=6605 and
    # t=6606, and aggregate_columns raises on the differing iteration grids
    result = run_workload(SMALL["gaussian_sweep"], seed=None, seconds=0, trace=False, setup_repeats=1)
    assert result["correct"]
    assert result["attempted"] == 3
    assert result["failed"] == len(result["provenance"]["failures"])


def test_repeats_do_not_multiply_the_call_counts():
    result = run_workload(SMALL["gaussian_seeds"], seed=None, seconds=1.0, trace=False, setup_repeats=1)
    assert result["provenance"]["repeats"] > 1
    assert (result["attempted"], result["failed"]) == (1, 0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaussian_seeds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
