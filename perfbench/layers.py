"""Per-layer metrics reduced from the spans of a traced run.

A layer is a perfnet module. Times are means per call over every traced
call; counts are per unit of work (one repeat of the workload's timed
calls), so they do not depend on how many repeats fit in the run. A layer
the workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics

from .tracing import count_under, reduce_spans

# metric -> (span name, "total_s" or "self_s", scale, unit): mean per call
PER_CALL = {
    "engine.step_us": ("engine.dsgd_gd_step", "total_s", 1e6, "us"),
    "engine.step_self_us": ("engine.dsgd_gd_step", "self_s", 1e6, "us"),
    "environment.sample_us": ("environment.sample", "total_s", 1e6, "us"),
    "environment.gradient_us": ("environment.deployed_gradients", "total_s", 1e6, "us"),
    "environment.full_gradient_us": ("environment.decoupled_full_gradient", "total_s", 1e6, "us"),
    "metrics.record_us": ("metrics.record", "total_s", 1e6, "us"),
    "metrics.csv_write_ms": ("metrics.write_metrics_csv", "total_s", 1e3, "ms"),
    "metrics.csv_read_ms": ("metrics.read_metrics_csv", "total_s", 1e3, "ms"),
    "metrics.aggregate_ms": ("metrics.aggregate_columns", "total_s", 1e3, "ms"),
    "oracle.solve_s": ("oracle.repeated_gd_fixed_point", "total_s", 1.0, "s"),
    "oracle.probe_s": ("oracle.contraction_probe", "total_s", 1.0, "s"),
    "theory.report_ms": ("experiments.theory_report", "total_s", 1e3, "ms"),
    "theory.bound_curves_ms": ("theory.bound_curves", "total_s", 1e3, "ms"),
    "theory.ratio_check_ms": ("theory.ratio_condition_check", "total_s", 1e3, "ms"),
    "experiments.build_environment_ms": ("experiments.build_environment", "total_s", 1e3, "ms"),
    "topology.build_mixing_ms": ("topology.build_mixing", "total_s", 1e3, "ms"),
    "datasets.partition_ms": ("datasets.partition", "total_s", 1e3, "ms"),
}

# metric -> span name: calls per unit of work
PER_UNIT = {
    "engine.steps": "engine.dsgd_gd_step",
    "environment.full_gradient_calls": "environment.decoupled_full_gradient",
    "metrics.records": "metrics.record",
    "experiments.build_environment_calls": "experiments.build_environment",
}

SOLVE = "oracle.repeated_gd_fixed_point"
APPLY = "oracle.apply_M"
FULL_GRADIENT = "environment.decoupled_full_gradient"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, traced, untraced, pool_pass, workers: int) -> dict:
    """``{metric: (value, unit)}`` from a traced pass and its untraced twin.

    ``traced`` and ``untraced`` are passes at one worker; ``pool_pass`` is the
    pass on the process pool (the untraced pass when the workload has none),
    which the per-cell and pool-efficiency figures come from.
    """
    spans = tracer.array()
    stats = reduce_spans(spans, tracer.names)
    units = len(traced.units)

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    out = {}
    for metric, (span, kind, scale, unit) in PER_CALL.items():
        s = stats.get(span)
        out[metric] = (_ratio(s[kind], s["calls"]) * scale if s else 0.0, unit)
    for metric, span in PER_UNIT.items():
        out[metric] = (calls(span) / units, "count")

    steps = calls("engine.dsgd_gd_step")
    out["engine.loop_self_us"] = (_ratio(stats.get("engine.run", {}).get("self_s", 0.0), steps) * 1e6, "us")
    out["metrics.csv_bytes"] = (tracer.bytes_written / units, "bytes")

    solves = calls(SOLVE)
    deployments = count_under(spans, tracer.names, (SOLVE, APPLY))
    gradients = count_under(spans, tracer.names, (SOLVE, APPLY, FULL_GRADIENT))
    out["oracle.deployments"] = (_ratio(deployments, solves), "count")
    # each apply_M evaluates the gradient once per inner step plus once at the end
    out["oracle.inner_steps"] = (_ratio(gradients - deployments, solves), "count")
    residuals = [u.observed["residual"] for u in traced.units if "residual" in u.observed]
    out["oracle.residual"] = (_median(residuals), "norm")

    cells = [c for u in pool_pass.units for c in u.observed.get("cells_s", [])]
    call_wall = sum(u.observed.get("calls_s", 0.0) for u in pool_pass.units)
    out["experiments.cell_s"] = (_median(cells), "s")
    out["experiments.pool_efficiency"] = (_ratio(sum(cells), workers * call_wall), "ratio")

    base, with_spans = _median(untraced.walls), _median(traced.walls)
    out["trace.untraced_wall_s"] = (base, "s")
    out["trace.traced_wall_s"] = (with_spans, "s")
    out["trace.overhead_s"] = (with_spans - base, "s")
    out["trace.spans"] = (len(tracer) / units, "count")
    return out
