import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import perfnet
from perfnet.cli import main
from perfnet.config import config_hash, load_config, save_config
from perfnet.experiments import preset, run_experiment
from perfnet.metrics import MetricRecord, write_metrics_csv
from perfnet.topology import build_star, metropolis_weights


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    save_config(cfg, p)
    return str(p)


def tiny_gaussian_cfg(tmp_path, **extra):
    cfg = preset("gaussian_mean").replace(**{
        "run.T": 300,
        "run.record_every": 50,
        "experiment.seeds": [1],
        "experiment.out": str(tmp_path / "out"),
        **extra,
    })
    return write_cfg(tmp_path, cfg)


def tiny_strategic_cfg(tmp_path, **extra):
    cfg = preset("hetero_vs_homo").replace(**{
        "environment.strategic.synthetic": {"style": "per_agent", "per_agent": 20, "dim": 5},
        "environment.strategic.beta": 0.01,
        "environment.strategic.test_split": 50,
        "experiment.out": str(tmp_path / "out"),
        **extra,
    })
    return write_cfg(tmp_path, cfg)


def test_run_success_exit_zero(tmp_path, capsys):
    rc = main(["run", tiny_gaussian_cfg(tmp_path), "--threads", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["divergence_in_convergent_regime"] is False
    assert list(out) == ["name", "config_hash", "axis", "values", "wall_time_s",
                         "divergence_in_convergent_regime"]
    assert out["axis"] == "eps_avg" and out["values"] == [0.9]
    assert (tmp_path / "out" / "gaussian_mean" / "manifest.json").exists()


def test_strategic_run_on_two_workers_writes_each_seed(tmp_path, capsys):
    # the strategic sampler runs through the process pool
    path = tiny_strategic_cfg(tmp_path, **{"run.T": 200, "experiment.seeds": [1, 2]})
    assert main(["run", path, "--threads", "2"]) == 0
    for seed in (1, 2):
        assert (tmp_path / "out" / "hetero_vs_homo" / "data_mode=heterogeneous" / str(seed) / "metrics.csv").stat().st_size


def test_run_divergence_in_convergent_regime_exit_three(tmp_path, capsys):
    # stable point exists (eps 0.9) but the constant step is far beyond the
    # stability range of the recursion (|1 - gamma (1 - eps)| > 1)
    path = tiny_gaussian_cfg(
        tmp_path,
        **{"step.kind": "constant", "step.gamma": 25.0, "step.a0": None, "step.a1": None,
           "environment.eps_grid": {"spread": 0.0}, "run.T": 4000},
    )
    rc = main(["run", path, "--threads", "1"])
    assert rc == 3


def test_sweep_expected_divergence_exit_zero(tmp_path, capsys):
    path = tiny_gaussian_cfg(
        tmp_path,
        **{"step.kind": "constant", "step.gamma": 0.05, "step.a0": None, "step.a1": None,
           "environment.eps_grid": {"spread": 0.0}, "run.T": 2500},
    )
    rc = main(["run", path, "--axis", "eps_avg", "--values", "1.2", "--threads", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == [1.2]


def test_sweep_over_an_integer_field(tmp_path, capsys):
    path = tiny_gaussian_cfg(tmp_path)
    rc = main(["run", path, "--axis", "run.T", "--values", "100,200", "--threads", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["values"] == [100, 200]
    root = tmp_path / "out" / "gaussian_mean"
    for T in (100, 200):
        rows = (root / f"run.T={T}" / "1" / "metrics.csv").read_text().splitlines()
        assert rows[-1].split(",")[0] == str(T)


@pytest.mark.parametrize("axis, values", [
    ("environment.strategic.per_agent", [100, 120]),
    ("environment.strategic.synthetic.m", [4601, 4700]),
])
def test_sweep_over_an_integer_strategic_field(tmp_path, capsys, axis, values):
    cfg = preset("spam_logistic").replace(**{
        "run.T": 20, "run.record_every": 10, "experiment.seeds": [1], "experiment.out": str(tmp_path / "out"),
    })
    rc = main(["run", write_cfg(tmp_path, cfg), "--axis", axis, "--values", ",".join(map(str, values)),
               "--threads", "1"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "spam_logistic" / "manifest.json").read_text())
    assert manifest["values"] == values and all(isinstance(v, int) for v in manifest["values"])


@pytest.mark.parametrize("values", ["1e2", "100.5", "many"])
def test_sweep_over_an_integer_field_refuses_a_non_integer_token(tmp_path, capsys, values):
    path = tiny_gaussian_cfg(tmp_path)
    rc = main(["run", path, "--axis", "run.T", "--values", values, "--threads", "1"])
    assert rc == 2
    assert "run.T must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("axis, missing", [
    ("nothing.x", "nothing"),
    ("environment.nothing.x", "environment.nothing"),
    ("run.T.x", "run.T"),
])
def test_sweep_over_an_axis_that_is_not_a_config_path_exits_two(tmp_path, capsys, axis, missing):
    # refused before the experiment directory is made
    path = tiny_gaussian_cfg(tmp_path)
    rc = main(["run", path, "--axis", axis, "--values", "100", "--threads", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{missing} is not a config section" in err
    assert not (tmp_path / "out" / "gaussian_mean").exists()


def test_sweep_that_breaks_the_eps_list_exits_two_and_makes_no_directory(tmp_path, capsys):
    # the sweep's eps_avg is not the list's average, so the cell's config is refused
    eps = [0.89] * 24 + [1.01]
    mean = math.fsum(eps) / 25
    path = tiny_gaussian_cfg(tmp_path, **{"environment.eps_list": eps, "environment.eps_grid": None,
                                          "environment.eps_avg": mean})
    rc = main(["run", path, "--axis", "eps_avg", "--values", "0.5", "--threads", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: environment.eps_list averages {mean}, not environment.eps_avg = 0.5\n")
    assert not (tmp_path / "out" / "gaussian_mean").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_refuses_a_worker_count_below_one(tmp_path, capsys, threads):
    # unrefused, both ran on one worker
    assert main(["run", tiny_gaussian_cfg(tmp_path), "--threads", threads]) == 2
    assert capsys.readouterr().err == f"config error: the worker count must be at least 1, got {threads}\n"
    assert not (tmp_path / "out" / "gaussian_mean").exists()


def test_run_refuses_two_values_that_name_one_cell(tmp_path, capsys):
    # both name the cell eps_avg=0.123457; unrefused, it held the later value's
    # run while the manifest listed both
    path = tiny_gaussian_cfg(tmp_path)
    assert main(["run", path, "--values", "0.1234567,0.1234568", "--threads", "1"]) == 2
    assert capsys.readouterr().err == (
        "config error: eps_avg values 0.1234567 and 0.1234568 both name the cell eps_avg=0.123457\n")
    assert not (tmp_path / "out" / "gaussian_mean").exists()
    # a value listed twice is one value, and runs once
    assert main(["run", path, "--values", "0.5,0.5", "--threads", "1"]) == 0
    manifest = json.loads((tmp_path / "out" / "gaussian_mean" / "manifest.json").read_text())
    assert manifest["values"] == [0.5, 0.5] and sorted(manifest["results"]) == ["0.5"]
    # a NaN names no cell twice: the config refuses it, before any cell is written
    capsys.readouterr()
    assert main(["run", path, "--values", "nan", "--out", str(tmp_path / "nan"), "--threads", "1"]) == 2
    assert capsys.readouterr().err == "config error: environment.eps_avg must be finite, got nan\n"
    assert not (tmp_path / "nan").exists()
    # two NaNs too; the config used to be made after the names were compared
    assert main(["run", path, "--values", "nan,nan", "--out", str(tmp_path / "nan"), "--threads", "1"]) == 2
    assert capsys.readouterr().err == "config error: environment.eps_avg must be finite, got nan\n"
    assert not (tmp_path / "nan").exists()


def test_run_refuses_a_synthetic_corpus_too_small_for_its_partition(tmp_path, capsys):
    # unrefused, the per_agent=100 cell was written whole before the next value
    # failed its partition with exit 4 and no manifest
    cfg = preset("spam_logistic").replace(**{
        "run.T": 20, "run.record_every": 10, "experiment.seeds": [1], "experiment.out": str(tmp_path / "out")})
    rc = main(["run", write_cfg(tmp_path, cfg), "--axis", "environment.strategic.per_agent",
               "--values", "100,100000", "--threads", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: need 2501150 rows (= 25 agents x 100000 + 1150 test), have 4601\n")
    assert not (tmp_path / "out" / "spam_logistic").exists()


def test_run_on_a_dataset_file_too_small_for_its_partition_exits_four(tmp_path, capsys):
    # a file's rows are counted only when it loads, in the value's jobs
    rows = np.random.default_rng(0).normal(size=(60, 3))
    (tmp_path / "small.csv").write_text("".join(f"{a},{b},{c},{int(a > 0)}\n" for a, b, c in rows))
    cfg = preset("spam_logistic").replace(**{
        "environment.strategic.dataset": str(tmp_path / "small.csv"), "environment.strategic.synthetic": None,
        "run.T": 20, "experiment.seeds": [1], "experiment.out": str(tmp_path / "out")})
    assert main(["run", write_cfg(tmp_path, cfg), "--threads", "1"]) == 4
    assert capsys.readouterr().err == "dataset error: need 4600 rows (= 25 agents x 138 + 1150 test), have 60\n"
    assert not (tmp_path / "out" / "spam_logistic").exists()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["missing_edge_file", "missing_dataset"])
def test_run_refused_in_its_jobs_makes_no_directory(tmp_path, capsys, case, threads):
    # the edge file is first read when a value's mixing is built, the dataset
    # when a job builds its seeds
    if case == "missing_edge_file":
        path = tiny_gaussian_cfg(tmp_path, **{
            "topology.kind": "edge_list", "topology.edge_file": str(tmp_path / "missing.txt"),
            "experiment.seeds": [1, 2]})
        name, code, prefix = "gaussian_mean", 2, "config error:"
    else:
        path = write_cfg(tmp_path, preset("spam_logistic").replace(**{
            "environment.strategic.dataset": str(tmp_path / "missing.csv"),
            "environment.strategic.synthetic": None,
            "experiment.seeds": [1, 2], "experiment.out": str(tmp_path / "out"), "run.T": 10}))
        name, code, prefix = "spam_logistic", 4, "dataset error:"
    assert main(["run", path, "--threads", str(threads)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "missing." in err
    assert not (tmp_path / "out" / name).exists()


def _tree(root):
    """Every file under ``root`` by relative path; manifests without their timings."""
    files = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            files[str(p.relative_to(root))] = p.read_bytes()
    manifest = json.loads(files.pop("manifest.json"))
    for key in ("wall_time_s", "created_unix"):
        manifest.pop(key)
    for value in manifest["results"].values():
        for summary in value.values():
            summary.pop("wall_s")
    return files, manifest


def test_run_over_values_writes_what_run_experiment_writes(tmp_path, capsys):
    path = tiny_gaussian_cfg(tmp_path, **{"experiment.seeds": [1, 2]})
    assert main(["run", path, "--axis", "eps_avg", "--values", "0.5,2", "--threads", "1"]) == 0
    run_experiment(load_config(path), axis="eps_avg", values=[0.5, 2.0], out=tmp_path / "library", threads=1)
    cli_files, cli_manifest = _tree(tmp_path / "out" / "gaussian_mean")
    lib_files, lib_manifest = _tree(tmp_path / "library" / "gaussian_mean")
    assert "eps_avg=2/2/metrics.csv" in cli_files and "eps_avg=0.5/theory.json" in cli_files
    assert cli_files == lib_files and cli_manifest == lib_manifest


@pytest.mark.parametrize("strategic, cells", [
    (False, ["eps_avg=0.5", "eps_avg=0.9"]),
    (True, ["data_mode=heterogeneous", "data_mode=homogeneous"]),
], ids=["gaussian", "per_agent_synthetic"])
def test_run_with_values_and_no_axis_sweeps_the_default_axis(tmp_path, capsys, strategic, cells):
    if strategic:
        path = tiny_strategic_cfg(tmp_path, **{"run.T": 100, "experiment.seeds": [1]})
        values, name = "heterogeneous,homogeneous", "hetero_vs_homo"
    else:
        path = tiny_gaussian_cfg(tmp_path, **{"run.T": 100})
        values, name = "0.5,0.9", "gaussian_mean"
    assert main(["run", path, "--values", values, "--threads", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["axis"] == cells[0].split("=")[0]
    root = tmp_path / "out" / name
    assert sorted(p.name for p in root.iterdir() if p.is_dir()) == cells


def test_star_with_metropolis_weights_runs(tmp_path, capsys):
    path = tiny_gaussian_cfg(tmp_path, **{"topology.kind": "star", "topology.weights": "metropolis"})
    assert main(["run", path, "--threads", "1"]) == 0
    report = json.loads((tmp_path / "out" / "gaussian_mean" / "eps_avg=0.9" / "theory.json").read_text())
    assert report["constants"]["rho"] == metropolis_weights(build_star(25)).rho


def test_sweep_over_a_float_field_keeps_float_values(tmp_path, capsys):
    # an integral token on a float axis stays a float, so the manifest's
    # values and cell names are what they were before integer axes parsed as int
    path = tiny_gaussian_cfg(tmp_path, **{"run.T": 100})
    rc = main(["run", path, "--axis", "eps_avg", "--values", "1,0.5", "--threads", "1"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "gaussian_mean" / "manifest.json").read_text())
    assert manifest["values"] == [1.0, 0.5]
    assert all(isinstance(v, float) for v in manifest["values"])
    assert manifest["config_hash"] == config_hash(load_config(path))
    assert sorted(manifest["results"]) == ["0.5", "1"]


def test_config_error_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"config_version": 1, "nonsense": {}}')
    assert main(["run", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_dataset_error_exit_four(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,7\n")
    cfg = preset("spam_logistic").replace(**{
        "environment.strategic.dataset": str(bad),
        "environment.strategic.synthetic": None,
        "experiment.seeds": [1],
        "experiment.out": str(tmp_path / "out"),
        "run.T": 10,
    })
    assert main(["run", write_cfg(tmp_path, cfg)]) == 4
    assert "dataset error" in capsys.readouterr().err


def test_missing_dataset_exit_four(tmp_path, capsys):
    cfg = preset("spam_logistic").replace(**{
        "environment.strategic.dataset": str(tmp_path / "missing.csv"),
        "environment.strategic.synthetic": None,
    })
    assert main(["theory", write_cfg(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("dataset error:") and "missing.csv" in err


@pytest.mark.parametrize("command", [[sys.executable, "-m", "perfnet"], [shutil.which("perfnet")]],
                         ids=["module", "console_script"])
def test_entry_point_exits_with_the_cli_code(tmp_path, command):
    # python -m perfnet, and the installed perfnet script, pass main's exit code on
    if command[0] is None:
        pytest.skip("the perfnet console script is not installed")
    src = str(Path(perfnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    d = preset("gaussian_mean").to_dict()
    d["step"]["a0"] = -1.0
    (tmp_path / "bad.json").write_text(json.dumps(d))
    for name, code in (write_cfg(tmp_path, preset("gaussian_mean")), 0), (str(tmp_path / "bad.json"), 2):
        proc = subprocess.run(command + ["theory", name], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert code == 0 or proc.stderr.startswith("config error:")


# run and experiment fields of the wrong type or range; each error names its field
FIELD_ERRORS = {
    "run_T_a_float": {"run.T": 1e5},  # how JSON users write 1e5 iterations
    "run_batch_a_float": {"run.batch": 2.5},
    "run_record_every_a_float": {"run.record_every": 200.0},
    "run_seed_a_float": {"run.seed": 1.5},
    "seed_a_bool": {"experiment.seeds": [True]},
    "negative_seed": {"experiment.seeds": [-1]},
    "nan_divergence_threshold": {"run.divergence_threshold": float("nan")},
    "negative_divergence_threshold": {"run.divergence_threshold": -1.0},
    "theta0_of_the_wrong_length": {"run.theta0": [1.0, 2.0]},  # the preset's d is 1
    "eps_avg_a_numeral": {"environment.eps_avg": "0.9"},
    "eps_avg_null": {"environment.eps_avg": None},
    "spread_null": {"environment.eps_grid": {"spread": None}},
    "spread_a_numeral": {"environment.eps_grid": {"spread": "0.05"}},
    "n_a_numeral": {"environment.n": "25"},
    "topology_n_a_numeral": {"topology.n": "25"},
    "theory_delta_a_numeral": {"experiment.theory_delta": "0.1"},
    # json writes and reads NaN and Infinity; each is refused as its section
    # loads (a NaN a0 used to run and "diverge" at t=1)
    "nan_eps_avg": {"environment.eps_avg": float("nan")},
    "inf_eps_avg": {"environment.eps_avg": float("inf")},
    "nan_step_a0": {"step.a0": float("nan")},
    "inf_step_a0": {"step.a0": float("inf")},
    "inf_step_a1": {"step.a1": float("inf")},
    "nan_step_gamma": {"step.gamma": float("nan")},
    "negative_inf_step_gamma": {"step.gamma": float("-inf")},
    "nan_theory_delta": {"experiment.theory_delta": float("nan")},
    "inf_theory_delta": {"experiment.theory_delta": float("inf")},
    # json reads an integer of any size; math.isfinite raises on one too large for a float
    "step_a0_too_large_for_a_float": {"step.a0": 10**400},
    "edge_file_a_number": {"topology.edge_file": 5},
}

# configs that parse but fail when loaded or built; the step a0 case cannot be
# written by save_config, because the step section rejects it
BUILD_ERRORS = {
    "star_with_uniform_weights": {"topology.kind": "star"},
    "eps_list_off_its_average": {"environment.eps_grid": None, "environment.eps_list": [0.5] * 25},
    "eps_list_a_number": {"environment.eps_grid": None, "environment.eps_list": 0.5},
    "eps_list_not_finite": {"environment.eps_grid": None, "environment.eps_list": [0.9] * 24 + [float("nan")]},
    # json writes and reads NaN, so this spread reaches the suite builder
    "nan_spread": {"environment.eps_grid": {"spread": float("nan")}},
    "negative_noise_variance": {"environment.gaussian.sigma2": -1.0},
    "negative_step_a0": {"step.a0": -1.0},
    "removed_risk_mc": {"experiment.risk_mc": 256},
    "missing_edge_file": {"topology.kind": "edge_list", "topology.edge_file": "missing.txt"},
    "schedule_without_graphs": {"topology.kind": "schedule", "topology.schedule_file": "no_graphs.json"},
    "schedule_not_an_object": {"topology.kind": "schedule", "topology.schedule_file": "list.json"},
    "schedule_graphs_not_a_list": {"topology.kind": "schedule", "topology.schedule_file": "int.json"},
    "schedule_edge_not_a_pair": {"topology.kind": "schedule", "topology.schedule_file": "edge.json"},
    "schedule_window_not_an_int": {"topology.kind": "schedule", "topology.schedule_file": "window.json"},
    "schedule_window_a_float": {"topology.kind": "schedule", "topology.schedule_file": "window_float.json"},
    "schedule_window_a_bool": {"topology.kind": "schedule", "topology.schedule_file": "window_bool.json"},
    "schedule_window_a_numeral": {"topology.kind": "schedule", "topology.schedule_file": "window_str.json"},
    "schedule_window_does_not_mix": {"topology.kind": "schedule", "topology.schedule_file": "matchings.json"},
    "schedule_vertex_a_float": {"topology.kind": "schedule", "topology.schedule_file": "vertex_float.json"},
    "schedule_vertex_a_bool": {"topology.kind": "schedule", "topology.schedule_file": "vertex_bool.json"},
    "repeated_seed": {"experiment.seeds": [5, 5, 6]},
    **FIELD_ERRORS,
}

RING = json.dumps([[i, (i + 1) % 25] for i in range(25)])
RING_MATCHINGS = [json.dumps([[i, (i + 1) % 25] for i in range(k, 25, 2)]) for k in (0, 1)]

# schedule files the cases above name, written beside the config
SCHEDULE_FILES = {
    "no_graphs.json": '{"n": 25, "window": 1}',
    "list.json": "[[0, 1]]",
    "int.json": '{"graphs": 3}',
    "edge.json": '{"graphs": [[5]]}',
    "window.json": '{"graphs": [[[0, 1]]], "window": "x"}',
    # a connected ring on the preset's 25 agents, so only the window is wrong
    "window_float.json": '{"graphs": [%s], "window": 2.7}' % RING,
    "window_bool.json": '{"graphs": [%s], "window": true}' % RING,
    "window_str.json": '{"graphs": [%s], "window": "3"}' % RING,
    # the ring's two matchings: each alone is disconnected, so window 1 cannot mix
    "matchings.json": '{"graphs": [%s, %s], "window": 1}' % (RING_MATCHINGS[0], RING_MATCHINGS[1]),
    "vertex_float.json": '{"graphs": [[[0.5, 1]]]}',
    "vertex_bool.json": '{"graphs": [[[true, 2]]]}',
}


# strategic blocks that name a data source twice, set a dataset-only field
# without a dataset, or hold a value of the wrong type
STRATEGIC_ERRORS = {
    "dataset_and_synthetic": ({"dataset": "corpus.csv"}, "not both"),
    "dim_without_dataset": ({"dim": 5}, "synthetic.dim"),
    "per_agent_a_float": ({"per_agent": 138.0}, "environment.strategic.per_agent must be an integer, got 138.0"),
    "beta_a_numeral": ({"beta": "1e-4"}, 'environment.strategic.beta must be a number, got "1e-4"'),
    "standardize_a_string": ({"standardize": "no"},
                             'environment.strategic.standardize must be true or false, got "no"'),
    "dataset_a_list": ({"dataset": ["a.csv"], "synthetic": None},
                       'environment.strategic.dataset must be a string, got ["a.csv"]'),
    "synthetic_m_a_float": ({"synthetic": {"m": 4601.0, "dim": 48}},
                            "environment.strategic.synthetic.m must be an integer, got 4601.0"),
    "synthetic_seed_a_float": ({"synthetic": {"seed": 7.5, "dim": 48}},
                               "environment.strategic.synthetic.seed must be an integer, got 7.5"),
}


@pytest.mark.parametrize("case", STRATEGIC_ERRORS)
def test_run_on_ambiguous_strategic_block_exits_two(tmp_path, capsys, case):
    fields, message = STRATEGIC_ERRORS[case]
    d = preset("spam_logistic").to_dict()
    d["environment"]["strategic"].update(fields)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    assert main(["run", str(p), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("case", BUILD_ERRORS)
def test_theory_on_unbuildable_config_exits_two(tmp_path, capsys, case):
    overrides = BUILD_ERRORS[case]
    d = preset("gaussian_mean").to_dict()
    for key, val in overrides.items():
        *sections, leaf = key.split(".")
        node = d
        for section in sections:
            node = node[section]
        node[leaf] = val
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    for name, text in SCHEDULE_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(["theory", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if case == "eps_list_off_its_average":
        # in the config's own terms, with plain floats
        assert err == "config error: environment.eps_list averages 0.5, not environment.eps_avg = 0.9\n"
    if case == "eps_list_a_number":
        assert err == "config error: environment.eps_list must be a list of numbers, got 0.5\n"
    if case == "eps_list_not_finite":
        assert err == "config error: environment.eps_list has non-finite entries [nan]\n"
    if case == "nan_spread":
        assert err == "config error: multiplier grid for spread nan is not finite\n"
    if case == "schedule_window_does_not_mix":
        assert "window starting at 0 does not contract" in err
    if case.startswith("schedule_vertex"):
        assert "non-integer vertex" in err
    if case == "repeated_seed":
        assert err == "config error: experiment.seeds repeats [5]\n"
    if case == "n_a_numeral":
        # named as a string, not as "topology.n = 25 disagrees with environment.n = 25"
        assert err == 'config error: environment.n must be an integer, got "25"\n'
    if case in FIELD_ERRORS:
        assert err.startswith(f"config error: {next(iter(overrides))}")


@pytest.mark.parametrize("overrides", [
    {"run.theta0": [1.0, 2.0]},
    {"run.divergence_threshold": float("nan")},
], ids=["theta0_of_the_wrong_length", "nan_divergence_threshold"])
def test_run_on_misconfigured_run_section_exits_two(tmp_path, capsys, overrides):
    # not divergence (exit 3) and not numpy's broadcast error (exit 1); the
    # field is set in the JSON, since Config.replace refuses the NaN itself
    path = tmp_path / "cfg.json"
    d = json.loads(Path(tiny_gaussian_cfg(tmp_path)).read_text())
    (key, val), = overrides.items()
    section, leaf = key.split(".")
    d[section][leaf] = val
    path.write_text(json.dumps(d))
    assert main(["run", str(path), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and next(iter(overrides)) in err


def test_fixed_point_emits_json(tmp_path, capsys):
    rc = main(["fixed-point", tiny_gaussian_cfg(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True
    assert out["theta_ps"][0] == pytest.approx(100.0, abs=1e-5)
    assert out["contraction"]["empirical"] == pytest.approx(0.9, abs=1e-6)
    assert out["contraction"]["bound"] == pytest.approx(0.9)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_fixed_point_refuses_a_tolerance_no_residual_can_meet(tmp_path, capsys, monkeypatch, tol):
    from perfnet import oracle

    def never(*args, **kwargs):
        raise AssertionError("solved with a tolerance that was refused")

    monkeypatch.setattr(oracle, "repeated_gd_fixed_point", never)
    rc = main(["fixed-point", tiny_gaussian_cfg(tmp_path), "--tol", tol])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--tol" in err


@pytest.mark.parametrize("flag, value", [
    ("--deployments", "-5"), ("--deployments", "0"), ("--inner", "0"), ("--inner", "-1"),
])
def test_fixed_point_refuses_a_budget_below_one(tmp_path, capsys, monkeypatch, flag, value):
    from perfnet import oracle

    def never(*args, **kwargs):
        raise AssertionError("solved with a budget that was refused")

    monkeypatch.setattr(oracle, "repeated_gd_fixed_point", never)
    # refused before the config is read: the file does not exist
    rc = main(["fixed-point", str(tmp_path / "missing.json"), flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: fixed-point {flag} must be at least 1, got {value}\n"


def test_fixed_point_strategic_stable_point_and_inner(tmp_path, capsys, monkeypatch):
    from perfnet import oracle
    seen = []
    probe = oracle.contraction_probe

    def recording_probe(env, **kwargs):
        seen.append(kwargs["inner"])
        return probe(env, **kwargs)

    monkeypatch.setattr(oracle, "contraction_probe", recording_probe)
    rc = main(["fixed-point", tiny_strategic_cfg(tmp_path), "--inner", "37", "--tol", "1e-10"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert seen == [37]
    assert out["converged"] is True
    stable = out["stable_point"]
    assert stable["residual"] <= 1e-10
    assert np.allclose(stable["theta"], out["theta_ps"], atol=1e-8)


def test_fixed_point_reports_budget_exhaustion(tmp_path, capsys):
    cfg = tiny_strategic_cfg(tmp_path)
    assert main(["fixed-point", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["budget_exhausted"] == out["contraction"]["budget_exhausted"] == 0
    # one Newton step per frozen solve: one warning per call names its count
    with pytest.warns(RuntimeWarning, match="budget 1 exhausted in") as record:
        assert main(["fixed-point", cfg, "--inner", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["budget_exhausted"] <= out["deployments"]
    assert 0 < out["contraction"]["budget_exhausted"] <= 33
    assert [str(w.message).split(" in ")[1].split(" of ")[0] for w in record] == [
        str(out["budget_exhausted"]), str(out["contraction"]["budget_exhausted"])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fixed_point_on_the_strategic_preset_meets_the_stable_point(tmp_path, capsys):
    assert main(["fixed-point", write_cfg(tmp_path, preset("hetero_vs_homo"))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True and 0 < out["residual"] <= 1e-8
    assert out["contraction"]["empirical"] < 1
    assert out["stable_point"]["residual"] <= 1e-10
    assert out["budget_exhausted"] == out["contraction"]["budget_exhausted"] == 0
    # inner_tol / beta bounds the frozen solve's own error, so a cheaper
    # solver cannot move the answer unnoticed
    assert np.linalg.norm(np.subtract(out["theta_ps"], out["stable_point"]["theta"])) <= 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fixed_point_on_spam_runs_no_solve_out_of_budget(tmp_path, capsys):
    # spam's deployments never converge, so each frozen solve starts far from
    # its answer, and a CG forcing term that under-solves shows as exhaustion
    assert main(["fixed-point", write_cfg(tmp_path, preset("spam_logistic")), "--deployments", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["budget_exhausted"] == out["contraction"]["budget_exhausted"] == 0


def test_fixed_point_computes_the_stable_point_once(tmp_path, capsys, monkeypatch):
    # one deployment cannot converge, so the probe is centred at the stable
    # point that the report also prints
    from perfnet import oracle
    calls = []
    stable_point = oracle.stable_point

    def counting_stable_point(env):
        calls.append(env)
        return stable_point(env)

    centers = []
    probe = oracle.contraction_probe

    def recording_probe(env, **kwargs):
        centers.append(kwargs["center"])
        return probe(env, **kwargs)

    monkeypatch.setattr(oracle, "stable_point", counting_stable_point)
    monkeypatch.setattr(oracle, "contraction_probe", recording_probe)
    rc = main(["fixed-point", tiny_strategic_cfg(tmp_path), "--deployments", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False
    assert len(calls) == 1
    assert np.array_equal(centers[0], out["stable_point"]["theta"])
    assert out["stable_point"]["residual"] <= 1e-10


def test_fixed_point_reports_missing_stable_point(tmp_path, capsys):
    rc = main(["fixed-point", tiny_gaussian_cfg(tmp_path, **{"environment.eps_avg": 1.5}),
               "--deployments", "50"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stable_point"] is None
    assert "no stable point" in out["stable_point_error"]


def test_theory_emits_constants_and_curves(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    rc = main(["theory", tiny_gaussian_cfg(tmp_path), "--curves", str(curves)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["applicable"] is True
    assert out["binding_term"] in out["cap_terms"]
    assert curves.exists()
    header = curves.read_text().splitlines()[0]
    assert header.startswith("t,gap_bound,consensus_bound")


def test_theory_curves_into_a_missing_directory_make_it(tmp_path, capsys):
    curves = tmp_path / "not" / "yet" / "c.csv"
    assert main(["theory", tiny_gaussian_cfg(tmp_path), "--curves", str(curves)]) == 0
    assert json.loads(capsys.readouterr().out)["curves"] == str(curves)
    assert curves.read_text().startswith("t,gap_bound,consensus_bound")


@pytest.mark.parametrize("existing", [False, True])
def test_theory_curves_when_not_applicable_print_null_and_write_nothing(tmp_path, capsys, existing):
    # hetero_vs_homo has no closed-form stable point, so no bound curves; a
    # file already at the path is left as it was
    curves = tmp_path / "c.csv"
    if existing:
        curves.write_text("kept\n")
    path = write_cfg(tmp_path, preset("hetero_vs_homo").replace(**{"run.T": 200}))
    assert main(["theory", path, "--curves", str(curves)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "applicable": False, "reason": "no closed-form stable point for this instance", "curves": None}
    if existing:
        assert curves.read_text() == "kept\n"
    else:
        assert not curves.exists()


def test_theory_curves_match_experiment_artifact(tmp_path, capsys):
    path = tiny_gaussian_cfg(tmp_path)
    assert main(["run", path, "--threads", "1"]) == 0
    curves = tmp_path / "curves.csv"
    assert main(["theory", path, "--curves", str(curves)]) == 0
    cell = tmp_path / "out" / "gaussian_mean" / "eps_avg=0.9" / "theory_curves.csv"
    assert curves.read_bytes() == cell.read_bytes()


def test_theory_curves_end_at_T_like_the_run(tmp_path, capsys):
    # T is not a multiple of record_every: the run also records t = T
    path = tiny_gaussian_cfg(tmp_path, **{"run.T": 310})
    assert main(["run", path, "--threads", "1"]) == 0
    curves = tmp_path / "curves.csv"
    assert main(["theory", path, "--curves", str(curves)]) == 0
    cell = tmp_path / "out" / "gaussian_mean" / "eps_avg=0.9" / "theory_curves.csv"
    assert curves.read_text().splitlines()[-1].startswith("310,")
    assert curves.read_bytes() == cell.read_bytes()


def test_theory_on_a_long_window_answers_not_applicable_at_once(tmp_path, capsys):
    # window products are taken by repeated squaring; the ring's two matchings
    # mix over a window, but rho certifies window products and not each step
    (tmp_path / "long.json").write_text(
        '{"graphs": [%s, %s], "window": 10000000}' % (RING_MATCHINGS[0], RING_MATCHINGS[1]))
    cfg = preset("gaussian_mean").replace(**{"topology.kind": "schedule", "topology.schedule_file": "long.json"})
    start = time.perf_counter()
    assert main(["theory", write_cfg(tmp_path, cfg)]) == 0
    assert time.perf_counter() - start < 10
    assert json.loads(capsys.readouterr().out)["applicable"] is False


def test_rate_check_on_csv(tmp_path, capsys):
    ts = np.arange(100, 2000, 20)
    recs = [MetricRecord(t=int(t), gap_sq=float(7.0 / t)) for t in ts]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, recs)
    rc = main(["rate-check", str(path), "--metric", "gap_sq"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] == pytest.approx(-1.0, abs=1e-9)
    assert out["metric"] == "gap_sq"


def test_rate_check_on_a_metric_not_in_the_csv_exits_two(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=int(t), gap_sq=7.0 / t) for t in range(100, 2000, 20)])
    assert main(["rate-check", str(path), "--metric", "nope"]) == 2
    assert capsys.readouterr().err == f"config error: metric 'nope' not in {path}\n"


def test_rate_check_with_too_few_points_reports_the_error(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=t, gap_sq=7.0 / t) for t in range(100, 1000, 100)])
    assert main(["rate-check", str(path), "--window", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"metric": "gap_sq", "error": "only 9 positive points in window, need 10"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_check_from_t_zero_skips_the_t_zero_row(tmp_path, capfd):
    # capfd, not capsys: LAPACK prints its complaints about log(0) to the process's stdout
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=t, gap_sq=7.0 / max(t, 1)) for t in range(0, 2000, 20)])
    assert main(["rate-check", str(path), "--window", "1", "--min-t", "0"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    fit = json.loads(out)
    assert fit["window"] == [20.0, 1980.0]
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("text", [None, ""], ids=["missing", "empty"])
def test_rate_check_on_unreadable_csv_exits_two(tmp_path, capsys, text):
    path = tmp_path / "metrics.csv"
    if text is not None:
        path.write_text(text)
    assert main(["rate-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read metrics CSV {path}:")


@pytest.mark.parametrize("text, line, fields", [
    ("t,gap_sq\n100,1.0\n200\n", 3, 1),
    ("t,gap_sq\n100,1.0,7\n", 2, 3),
], ids=["short_row", "long_row"])
def test_rate_check_on_ragged_csv_exits_two(tmp_path, capsys, text, line, fields):
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    assert main(["rate-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read metrics CSV {path}: ")
    assert f"{path}:{line}: {fields} fields for 2 columns" in err


@pytest.mark.parametrize("window", ["nan", "0", "-0.5", "1.5"])
def test_rate_check_on_window_outside_the_unit_interval_exits_two(tmp_path, capsys, window):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=int(t), gap_sq=7.0 / t) for t in range(100, 2000, 20)])
    assert main(["rate-check", str(path), "--window", window]) == 2
    assert capsys.readouterr().err.startswith("config error: rate-check --window:")
    assert main(["rate-check", str(path), "--window", "1"]) == 0


def test_baseline_disconnected_cli(tmp_path, capsys):
    eps = [0.89] * 24 + [1.01]
    path = tiny_gaussian_cfg(
        tmp_path,
        **{"environment.eps_list": eps, "environment.eps_grid": None,
           "environment.eps_avg": float(np.mean(eps))},
    )
    rc = main(["baseline", path, "--disconnected", "24"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isolated_agent"] == 24


def test_baseline_nonperformative_cli(tmp_path, capsys):
    path = tiny_strategic_cfg(tmp_path, **{"run.T": 200})
    assert main(["baseline", path, "--nonperformative"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["dsgd_gd_accuracy", "nonperformative_accuracy", "dsgd_gd_wins", "eps_avg"]
    base = tmp_path / "out" / "hetero_vs_homo" / "nonperformative_baseline"
    for arm in ("dsgd_gd", "nonperformative"):
        assert (base / arm / "metrics.csv").read_text().splitlines()[-1].startswith("200,")
    assert json.loads((base / "baseline.json").read_text()) == out


def test_published_schemas_are_pinned(tmp_path, capsys):
    """Each artifact's columns and keys, in order; a renamed or reordered field fails here."""
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricRecord(t=t, gap_sq=1.0 / t) for t in range(100, 2100, 100)])
    assert path.read_text().splitlines()[0] == (
        "t,gap_sq,consensus_sq_norm,consensus_sq,risk,risk_se,grad_norm_sq,accuracy")

    assert main(["rate-check", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["metric", "slope", "intercept", "r2", "window"]

    cfg = tiny_gaussian_cfg(tmp_path)
    curves = tmp_path / "curves.csv"
    assert main(["theory", cfg, "--curves", str(curves)]) == 0
    assert list(json.loads(capsys.readouterr().out)["constants"]) == [
        "mu", "L", "sigma", "varsigma", "delta", "eps_avg", "eps_max", "rho", "n",
        "gamma1", "gap0_sq", "q0_sq", "mu_tilde", "c1", "c2", "c3", "D", "delta_bar"]
    assert curves.read_text().splitlines()[0] == (
        "t,gap_bound,consensus_bound,term_transient,term_network,term_fluctuation")

    assert main(["fixed-point", cfg]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "theta_ps", "residual", "deployments", "converged", "diverged", "budget_exhausted",
        "contraction", "stable_point"]
