"""Host, library and source description attached to every benchmark result."""

from __future__ import annotations

import contextlib
import os
import platform
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PERFNET_THREADS")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_sha(root: Path) -> str | None:
    """The checked-out commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# The host-speed probe runs every PROBE_PERIOD_S during a timed repeat.
# REFERENCE_PROBE_S is a fixed scale: about the probe's time on an Intel Xeon
# virtual machine with 2 vCPUs whose neighbours are idle. End-to-end times are
# reported in seconds on a host where the probe takes that long (see
# ``reference_seconds``).
PROBE_PERIOD_S = 0.05
REFERENCE_PROBE_S = 150e-6

_PROBE_W = np.full((25, 25), 1.0 / 25)
_PROBE_X = np.ones((25, 1))


def probe_s() -> float:
    """Time a fixed slice of small-array numpy dispatch and Python arithmetic (~0.2 ms)."""
    start = time.perf_counter()
    x = _PROBE_X
    for _ in range(20):
        x = _PROBE_W @ x - 0.01 * x
    total = 0.0
    for i in range(1500):
        total += i * 0.5
    return time.perf_counter() - start


@contextlib.contextmanager
def host_speed():
    """Sample ``probe_s`` every PROBE_PERIOD_S while the block runs; yields the samples.

    The samples are taken by a SIGALRM handler, so they run in the main thread
    on the same CPU as the timed work, interleaved with it. A block shorter
    than one period gets one probe at its end.
    """
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        if not samples:
            samples.append(probe_s())


def reference_seconds(times, probes) -> float:
    """Median of ``time / mean probe time`` over repeats, in reference-host seconds.

    The host's speed changes from second to second with what its neighbours
    run on the same cores; dividing each repeat by the probe time sampled
    during it removes most of that change.
    """
    return statistics.median(t / statistics.fmean(p) for t, p in zip(times, probes)) * REFERENCE_PROBE_S


def describe(root: Path) -> dict:
    """Everything needed to tell whether two results came from comparable runs."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_sha": git_sha(root),
        "calibration_ms": statistics.median(probe_s() for _ in range(200)) * 1e3,
    }
