"""Spans recorded around perfnet's public functions from outside the library.

For a traced run the benchmark swaps each traced function for a wrapper in
the module namespace its caller resolves it from (``perfnet.engine`` looks up
``deployed_gradients`` in its own globals, ``perfnet.experiments`` calls
``metrics.write_metrics_csv`` through the ``perfnet.metrics`` module), and
puts the originals back when the run ends. Each wrapped call appends one span
``(name, start_ns, end_ns, parent, run)`` to an in-memory array; the spans are
written out once at the end and reduced to per-name totals and self times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span name, how): "call" wraps the function itself,
# "returns" wraps the callable it returns (a sampler or a metric sink) and
# "writes" also adds the size of the file it writes to the byte counter.
TARGETS = (
    ("perfnet.engine", "run", "engine.run", "call"),
    ("perfnet.engine", "dsgd_gd_step", "engine.dsgd_gd_step", "call"),
    ("perfnet.engine", "make_engine_sampler", "environment.sample", "returns"),
    ("perfnet.engine", "deployed_gradients", "environment.deployed_gradients", "call"),
    ("perfnet.environment", "decoupled_full_gradient", "environment.decoupled_full_gradient", "call"),
    ("perfnet.metrics", "decoupled_full_gradient", "environment.decoupled_full_gradient", "call"),
    ("perfnet.oracle", "decoupled_full_gradient", "environment.decoupled_full_gradient", "call"),
    ("perfnet.metrics", "metric_recorder", "metrics.record", "returns"),
    ("perfnet.metrics", "write_metrics_csv", "metrics.write_metrics_csv", "writes"),
    ("perfnet.metrics", "read_metrics_csv", "metrics.read_metrics_csv", "call"),
    ("perfnet.metrics", "aggregate_columns", "metrics.aggregate_columns", "call"),
    ("perfnet.oracle", "repeated_gd_fixed_point", "oracle.repeated_gd_fixed_point", "call"),
    ("perfnet.oracle", "apply_M", "oracle.apply_M", "call"),
    ("perfnet.oracle", "contraction_probe", "oracle.contraction_probe", "call"),
    ("perfnet.experiments", "theory_report", "experiments.theory_report", "call"),
    ("perfnet.theory", "bound_curves", "theory.bound_curves", "call"),
    ("perfnet.theory", "ratio_condition_check", "theory.ratio_condition_check", "call"),
    ("perfnet.experiments", "build_environment", "experiments.build_environment", "call"),
    ("perfnet.experiments", "build_mixing", "topology.build_mixing", "call"),
    ("perfnet.experiments", "partition_agents", "datasets.partition", "call"),
    ("perfnet.experiments", "synthetic_corpus", "datasets.partition", "call"),
    ("perfnet.experiments", "synthetic_agent_shards", "datasets.partition", "call"),
)

_FIELDS = 5  # name id, start ns, end ns, parent span index (-1 for none), run id


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self._spans = array("q")
        self._stack: list[int] = []
        self._run = -1
        self.bytes_written = 0

    def __len__(self) -> int:
        return len(self._spans) // _FIELDS

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, label: str) -> int:
        """Start a new run id; later spans carry it."""
        self.runs.append(label)
        self._run = len(self.runs) - 1
        return self._run

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        nid = self.name_id(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self._run))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx * _FIELDS + 1] = start
                spans[idx * _FIELDS + 2] = end

        return traced

    def wrap_returned(self, name: str, factory):
        """``factory`` whose returned callable records spans under ``name``."""

        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return build

    def wrap_writer(self, name: str, writer):
        """A ``writer(path, ...)`` whose output file size is added to the byte count."""
        traced = self.wrap(name, writer)

        @functools.wraps(writer)
        def write(path, *args, **kwargs):
            out = traced(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)
            return out

        return write

    def array(self) -> np.ndarray:
        """Spans as an ``(N, 5)`` int64 array (a copy)."""
        return np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _FIELDS).copy()

    def save(self, path) -> None:
        """Write every span with the name and run tables to an ``.npz`` file."""
        np.savez(
            path,
            spans=self.array(),
            names=np.array(self.names, dtype=str),
            runs=np.array(self.runs, dtype=str),
        )


@contextlib.contextmanager
def traced_calls(tracer: Tracer, targets=TARGETS):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, how in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if how == "returns":
                wrapped = tracer.wrap_returned(name, original)
            elif how == "writes":
                wrapped = tracer.wrap_writer(name, original)
            else:
                wrapped = tracer.wrap(name, original)
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def reduce_spans(spans: np.ndarray, names: list[str]) -> dict:
    """Per span name: call count and total and self time in seconds.

    Self time is a span's duration minus the durations of its direct
    children. Returns ``{name: {"calls", "total_s", "self_s"}}``.
    """
    if len(spans) == 0:
        return {}
    name, start, end, parent = spans[:, 0], spans[:, 1], spans[:, 2], spans[:, 3]
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    own = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k) * 1e-9
    self_s = np.bincount(name, weights=own, minlength=k) * 1e-9
    return {
        names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i in range(k)
        if calls[i]
    }


def count_under(spans: np.ndarray, names: list[str], path: tuple[str, ...]) -> int:
    """Spans named ``path[-1]`` whose direct ancestors are named ``path[:-1]`` in order."""
    if len(spans) == 0 or any(p not in names for p in path):
        return 0
    name, parent = spans[:, 0], spans[:, 3]
    match = name == names.index(path[0])
    for step in path[1:]:
        has_parent = parent >= 0
        below = np.zeros(len(spans), dtype=bool)
        below[has_parent] = match[parent[has_parent]]
        match = below & (name == names.index(step))
    return int(match.sum())
