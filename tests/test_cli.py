import json

import numpy as np
import pytest

from perfnet.cli import main
from perfnet.config import save_config
from perfnet.experiments import preset
from perfnet.metrics import MetricRecord, write_metrics_csv


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


def test_run_success_exit_zero(tmp_path, capsys):
    rc = main(["run", tiny_gaussian_cfg(tmp_path), "--threads", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["divergence_in_convergent_regime"] is False
    assert (tmp_path / "out" / "gaussian_mean" / "manifest.json").exists()


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
    rc = main(["sweep", path, "--axis", "eps_avg", "--values", "1.2", "--threads", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == [1.2]


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


def test_fixed_point_emits_json(tmp_path, capsys):
    rc = main(["fixed-point", tiny_gaussian_cfg(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True
    assert out["theta_ps"][0] == pytest.approx(100.0, abs=1e-5)
    assert out["contraction"]["empirical"] == pytest.approx(0.9, abs=1e-6)
    assert out["contraction"]["bound"] == pytest.approx(0.9)


def test_fixed_point_strategic_stable_point_and_inner(tmp_path, capsys, monkeypatch):
    from perfnet import oracle
    cfg = preset("hetero_vs_homo").replace(**{
        "environment.strategic.synthetic": {"style": "per_agent", "per_agent": 20, "dim": 5},
        "environment.strategic.beta": 0.01,
        "environment.strategic.test_split": 50,
        "experiment.out": str(tmp_path / "out"),
    })
    seen = []
    probe = oracle.contraction_probe

    def recording_probe(env, **kwargs):
        seen.append(kwargs["inner"])
        return probe(env, **kwargs)

    monkeypatch.setattr(oracle, "contraction_probe", recording_probe)
    rc = main(["fixed-point", write_cfg(tmp_path, cfg), "--inner", "37", "--tol", "1e-10"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert seen == [37]
    assert out["converged"] is True
    stable = out["stable_point"]
    assert stable["residual"] <= 1e-10
    assert np.allclose(stable["theta"], out["theta_ps"], atol=1e-8)


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
