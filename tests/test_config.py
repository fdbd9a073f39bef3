import json
import re
from pathlib import Path

import pytest

from perfnet import config, engine
from perfnet.config import (
    Config,
    ConfigError,
    config_hash,
    load_config,
    save_config,
)
from perfnet.experiments import preset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_round_trip_identity_for_presets():
    for name in ("gaussian_mean", "spam_logistic", "hetero_vs_homo"):
        cfg = preset(name)
        assert Config.from_dict(cfg.to_dict()) == cfg


def test_file_round_trip(tmp_path):
    cfg = preset("gaussian_mean")
    p = tmp_path / "run.json"
    save_config(cfg, p)
    assert load_config(p) == cfg
    assert config_hash(load_config(p)) == config_hash(cfg)


def test_golden_gaussian_preset_parameters():
    cfg = preset("gaussian_mean")
    assert cfg.topology.kind == "ring" and cfg.topology.n == 25
    assert cfg.topology.weights == "uniform"
    assert cfg.environment.gaussian.zbar == 10.0
    assert cfg.environment.gaussian.sigma2 == 50.0
    assert cfg.environment.eps_avg == 0.9
    assert cfg.step.a0 == 50.0 and cfg.step.a1 == 10_000.0
    assert cfg.run.batch == 1
    assert len(cfg.experiment.seeds) == 10


def test_spam_preset_parameters():
    cfg = preset("spam_logistic")
    assert cfg.environment.strategic.beta == 1e-4
    assert cfg.environment.strategic.per_agent == 138
    assert cfg.environment.strategic.test_split == 1150
    assert cfg.step.a0 == 50.0 and cfg.step.a1 == 100_000.0
    assert cfg.run.batch == 32


def test_unknown_key_rejected():
    d = preset("gaussian_mean").to_dict()
    d["typo_section"] = {}
    with pytest.raises(ConfigError, match="unknown keys"):
        Config.from_dict(d)


def test_n_mismatch_rejected():
    d = preset("gaussian_mean").to_dict()
    d["environment"]["n"] = 7
    with pytest.raises(ConfigError, match="disagrees"):
        Config.from_dict(d)


def test_repeated_seed_rejected():
    d = preset("gaussian_mean").to_dict()
    d["experiment"]["seeds"] = [5, 6, 5, 7, 6]
    with pytest.raises(ConfigError, match=r"experiment.seeds repeats \[5, 6\]"):
        Config.from_dict(d)


@pytest.mark.parametrize("eps_list, message", [
    (0.5, "environment.eps_list must be a list of numbers, got 0.5"),
    ({"a": 1}, 'environment.eps_list must be a list of numbers, got {"a": 1}'),
    ([0.9] * 24 + ["0.9"], "environment.eps_list must be a list of numbers"),
    ([0.9] * 24 + [True], "environment.eps_list must be a list of numbers"),
    ([0.9] * 24 + [None], "environment.eps_list must be a list of numbers"),
    ([0.9] * 3, "eps_list has 3 entries for n=25"),
    ([], "eps_list has 0 entries for n=25"),
    ([0.9] * 24 + [float("nan")], "environment.eps_list has non-finite entries [nan]"),
    ([0.9] * 23 + [float("inf"), float("-inf")], "environment.eps_list has non-finite entries [inf, -inf]"),
    ([0.5] * 25, "environment.eps_list averages 0.5, not environment.eps_avg = 0.9"),
    ([1e308] * 25, "environment.eps_list averages inf, not environment.eps_avg = 0.9"),
], ids=["number", "object", "string_entry", "bool_entry", "null_entry", "short", "empty",
        "nan_entry", "inf_entries", "off_its_average", "sum_overflows"])
def test_eps_list_refused_when_the_config_loads(eps_list, message):
    d = preset("gaussian_mean").to_dict()
    d["environment"].update(eps_grid=None, eps_list=eps_list)
    with pytest.raises(ConfigError, match=re.escape(message)):
        Config.from_dict(d)


@pytest.mark.parametrize("section, values, message", [
    ("environment", {"eps_avg": "0.9"}, 'environment.eps_avg must be a number, got "0.9"'),
    ("environment", {"eps_avg": None}, "environment.eps_avg must be a number, got null"),
    ("environment", {"eps_avg": True}, "environment.eps_avg must be a number, got true"),
    ("environment", {"eps_grid": {"spread": None}}, "environment.eps_grid.spread must be a number, got null"),
    ("environment", {"eps_grid": {"spread": "0.05"}},
     'environment.eps_grid.spread must be a number, got "0.05"'),
    ("environment", {"eps_grid": {"spread": False}}, "environment.eps_grid.spread must be a number, got false"),
    ("environment", {"n": "25"}, 'environment.n must be an integer, got "25"'),
    ("environment", {"n": 25.0}, "environment.n must be an integer, got 25.0"),
    ("environment", {"n": True}, "environment.n must be an integer, got true"),
    ("topology", {"n": "25"}, 'topology.n must be an integer, got "25"'),
], ids=["eps_avg_numeral", "eps_avg_null", "eps_avg_bool", "spread_null", "spread_numeral",
        "spread_bool", "n_numeral", "n_float", "n_bool", "topology_n_numeral"])
def test_numbers_refused_when_the_config_loads(section, values, message):
    d = preset("gaussian_mean").to_dict()
    d[section].update(values)
    with pytest.raises(ConfigError, match=re.escape(message)):
        Config.from_dict(d)


def test_numbers_of_any_real_type_accepted():
    d = preset("gaussian_mean").to_dict()
    d["environment"].update(eps_avg=1, eps_grid={"spread": 0})
    env = Config.from_dict(d).environment
    assert (env.eps_avg, env.spread) == (1, 0.0)


def test_eps_list_accepted_at_its_mean():
    eps = [0.89] * 24 + [1.01]
    d = preset("gaussian_mean").to_dict()
    d["environment"].update(eps_grid=None, eps_list=eps, eps_avg=sum(eps) / 25)
    assert Config.from_dict(d).environment.eps_list == eps
    # within 1e-12 relative of eps_avg, not further
    d["environment"]["eps_avg"] *= 1 + 1e-10
    with pytest.raises(ConfigError, match="averages"):
        Config.from_dict(d)
    d["environment"]["eps_avg"] = float("nan")
    with pytest.raises(ConfigError, match="averages"):
        Config.from_dict(d)


def test_bad_version_rejected():
    d = preset("gaussian_mean").to_dict()
    d["config_version"] = 99
    with pytest.raises(ConfigError, match="config_version"):
        Config.from_dict(d)


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")


def test_relative_dataset_path_resolved(tmp_path):
    d = preset("spam_logistic").to_dict()
    d["environment"]["strategic"]["dataset"] = "data/corpus.csv"
    d["environment"]["strategic"]["synthetic"] = None
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    cfg = load_config(p)
    assert cfg.environment.strategic.dataset == str(tmp_path / "data" / "corpus.csv")


def test_strategic_dataset_and_synthetic_refused_together():
    with pytest.raises(ConfigError, match="not both"):
        preset("spam_logistic").replace(**{"environment.strategic.dataset": "corpus.csv"})
    cfg = preset("spam_logistic").replace(**{"environment.strategic.dataset": "corpus.csv",
                                             "environment.strategic.synthetic": None})
    assert cfg.environment.strategic.synthetic is None


def test_strategic_dim_without_dataset_refused():
    with pytest.raises(ConfigError, match="synthetic.dim"):
        preset("spam_logistic").replace(**{"environment.strategic.dim": 5})
    cfg = preset("spam_logistic").replace(**{"environment.strategic.dataset": "corpus.csv",
                                             "environment.strategic.synthetic": None,
                                             "environment.strategic.dim": 5})
    assert cfg.environment.strategic.dim == 5


def test_replace_dotted_paths():
    cfg = preset("gaussian_mean")
    out = cfg.replace(**{"environment.eps_avg": 1.05, "run.seed": 7})
    assert out.environment.eps_avg == 1.05 and out.run.seed == 7
    assert cfg.environment.eps_avg == 0.9  # original untouched


def test_hash_changes_with_content():
    a = preset("gaussian_mean")
    b = a.replace(**{"run.T": 17})
    assert config_hash(a) != config_hash(b)


def test_hash_ignores_the_output_directory():
    a = preset("gaussian_mean")
    assert config_hash(a.replace(**{"experiment.out": "elsewhere/runs"})) == config_hash(a)
    assert config_hash(a.replace(**{"experiment.out": "elsewhere", "run.T": 17})) != (
        config_hash(a)
    )


# Hashes of the presets since the experiment section dropped its Monte Carlo
# risk setting; a schema change that adds, drops or moves a field or default
# breaks them.
@pytest.mark.parametrize("name, digest", [
    ("gaussian_mean", "0f960156f6a8e91ec99abb4f5c7f7a482b818165c78690e20815a5dce7dccf1d"),
    ("spam_logistic", "d71fa329095ce0d1e0327fb099655f79f9305d777b5befb1260bf4fb82f08031"),
    ("hetero_vs_homo", "05571c4e5ca90ac9c152eabeddc8c9288420fe3dce0a871e12575cb353b306d7"),
])
def test_preset_hash_pinned(name, digest):
    assert config_hash(preset(name)) == digest


def test_readme_config_example_loads():
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = Config.from_dict(json.loads(block))
    assert cfg.run.divergence_threshold == config.DIVERGENCE_THRESHOLD


def test_engine_takes_the_config_sections():
    assert engine.RunConfig is config.RunConfig
    assert engine.StepSchedule is config.StepSchedule
    cfg = preset("gaussian_mean")
    assert isinstance(cfg.run, engine.RunConfig) and isinstance(cfg.step, engine.StepSchedule)
