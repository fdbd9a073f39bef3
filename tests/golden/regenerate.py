"""Rewrite the golden artifacts under tests/golden/ from the current code.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The case list: gaussian_mean at eps_avg 0.9 and 2.0 (T = 2000, 3 seeds),
spam_logistic (T = 400, 2 seeds), hetero_vs_homo in both data modes
(T = 200, 2 seeds), both baselines, ``perfnet theory --curves`` and one
``perfnet fixed-point``. Every case runs through the CLI, and each
command's exit code and printed JSON are kept under ``stdout/`` beside the
files it writes. Timings (``TIMING_KEYS``) are written as 0.0 here, and
``tests/test_golden.py`` skips their values. A change that alters an
artifact on purpose reruns this script and names the files that changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from perfnet.cli import main
from perfnet.config import save_config
from perfnet.experiments import preset

GOLDEN = Path(__file__).resolve().parent

# values that differ from one run to the next
TIMING_KEYS = frozenset({"wall_time_s", "created_unix", "wall_s"})

# name: (preset, overrides, arguments after the config path; "{threads}" is
# the worker count of the run). Cases sharing a preset share its output tree.
CASES = {
    "gaussian_run": ("gaussian_mean", {"run.T": 2000, "run.record_every": 20,
                                       "experiment.seeds": [9000, 9001, 9002]},
                     ["run", "--axis", "eps_avg", "--values", "0.9,2.0", "--threads", "{threads}"]),
    "spam_run": ("spam_logistic", {"run.T": 400, "run.record_every": 20,
                                   "experiment.seeds": [1000, 1001]},
                 ["run", "--threads", "{threads}"]),
    "hetero_run": ("hetero_vs_homo", {"run.T": 200, "run.record_every": 10,
                                      "experiment.seeds": [1000, 1001]},
                   ["run", "--axis", "data_mode", "--values", "heterogeneous,homogeneous",
                    "--threads", "{threads}"]),
    "disconnected_baseline": ("gaussian_mean", {"run.T": 2000, "run.record_every": 20},
                              ["baseline", "--disconnected", "24"]),
    "nonperformative_baseline": ("spam_logistic", {"run.T": 400, "run.record_every": 20},
                                 ["baseline", "--nonperformative"]),
    "theory_curves": ("gaussian_mean", {"run.T": 2000, "run.record_every": 20},
                      ["theory", "--curves", "theory_curves.csv"]),
    "fixed_point": ("hetero_vs_homo", {}, ["fixed-point", "--tol", "1e-6"]),
}


def produce(out, threads: int) -> None:
    """Run every case with ``out`` as the working directory and output root."""
    out = Path(out).resolve()
    (out / "stdout").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as configs:
        cwd = os.getcwd()
        os.chdir(out)
        try:
            for name, (preset_name, overrides, args) in CASES.items():
                cfg = Path(configs) / f"{name}.json"
                save_config(preset(preset_name, **overrides), cfg)
                command, *flags = (a.format(threads=threads) for a in args)
                if command in ("run", "baseline"):
                    flags += ["--out", "."]
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = main([command, str(cfg), *flags])
                record = {"exit_code": code, "stdout": json.loads(printed.getvalue())}
                (out / "stdout" / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
        finally:
            os.chdir(cwd)


def _zero_timings(obj):
    if isinstance(obj, dict):
        return {k: 0.0 if k in TIMING_KEYS else _zero_timings(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_timings(v) for v in obj]
    return obj


def regenerate() -> None:
    for child in GOLDEN.iterdir():
        if child.is_dir() and child.name != "__pycache__":
            shutil.rmtree(child)
    produce(GOLDEN, threads=1)
    for path in GOLDEN.rglob("*.json"):
        text = json.dumps(_zero_timings(json.loads(path.read_text())), indent=2) + "\n"
        path.write_text(text)


if __name__ == "__main__":
    regenerate()
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file() and p.suffix != '.py')} files "
          f"under {GOLDEN}", file=sys.stderr)
