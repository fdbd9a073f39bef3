"""What the package imports and exports.

Every name in a module's ``__all__`` resolves, and a fresh interpreter never
loads scipy, which only the tests use as a reference. The fresh-interpreter
checks run in their own subprocess, because this test process has long since
imported everything the other tests needed.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfnet

SRC = str(Path(perfnet.__file__).resolve().parent.parent)

LOADED = """
import json, sys
print(json.dumps({m: m in sys.modules for m in ("scipy", "concurrent.futures.process")}))
"""


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(perfnet.__path__) if m.name != "__main__"))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"perfnet.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def fresh_modules(script: str, cwd) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script + LOADED], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gaussian_workflow_imports_neither_scipy_special_nor_a_process_pool(tmp_path):
    loaded = fresh_modules("""
import perfnet, perfnet.cli
from perfnet.experiments import (
    build_environment, build_mixing, preset, run_experiment, theory_report)
cfg = preset("gaussian_mean")
env, _ = build_environment(cfg.environment, cfg.run.seed)
build_mixing(cfg.topology)
theory_report(cfg, env=env)
run_experiment(cfg.replace(**{"run.T": 200}), out="out", threads=1)
""", tmp_path)
    assert loaded == {"scipy": False, "concurrent.futures.process": False}


def test_strategic_workflow_never_imports_scipy(tmp_path):
    # the strategic presets score through expit; the package needs numpy alone
    loaded = fresh_modules("""
from perfnet.cli import main
from perfnet.config import save_config
from perfnet.experiments import build_environment, preset, run_experiment, theory_report
for name in ("spam_logistic", "hetero_vs_homo"):
    cfg = preset(name)
    env, _ = build_environment(cfg.environment, cfg.run.seed)
    theory_report(cfg, env=env)
run_experiment(preset("spam_logistic").replace(**{"run.T": 100, "experiment.seeds": [1]}),
               out="out", threads=1)
# repeated deployment, the stable point and the contraction probe
save_config(cfg, "strategic.json")
main(["fixed-point", "strategic.json"])
""", tmp_path)
    assert not loaded["scipy"]


def test_theory_imports_nothing_from_the_oracle():
    # the theory layer takes the stable point from its caller
    tree = ast.parse(Path(perfnet.__file__).with_name("theory.py").read_text())
    imported = [f"{node.module or ''}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert imported and [name for name in imported if "oracle" in name.split(".")] == []
