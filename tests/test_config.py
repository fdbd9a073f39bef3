import dataclasses
import json
import re
import types
import typing
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
    # JSON reads an integer of any size; one too large for a float is not finite
    ([0.9] * 24 + [10**400], "environment.eps_list has non-finite entries [1000"),
], ids=["number", "object", "string_entry", "bool_entry", "null_entry", "short", "empty",
        "nan_entry", "inf_entries", "off_its_average", "sum_overflows", "int_entry_too_large_for_a_float"])
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
    # the message of each non-finite kind; FIELD_ERRORS in test_cli.py has every field
    ("environment", {"eps_avg": float("nan")}, "environment.eps_avg must be finite, got nan"),
    ("step", {"a1": float("inf")}, "step.a1 must be finite, got inf"),
    ("step", {"gamma": float("-inf")}, "step.gamma must be finite, got -inf"),
], ids=["eps_avg_numeral", "eps_avg_null", "eps_avg_bool", "spread_null", "spread_numeral",
        "spread_bool", "n_numeral", "n_float", "n_bool", "topology_n_numeral", "eps_avg_nan",
        "a1_inf", "gamma_minus_inf"])
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
    d["environment"]["eps_avg"] = 10**400  # too large for a float
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


def _options(tp):
    return typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)


def _leaf_fields(cls=Config, prefix=""):
    """Every field that is not a section, as (dotted path, annotation), read off ``dataclasses.fields``."""
    for f in dataclasses.fields(cls):
        sections = [tp for tp in _options(f.type) if dataclasses.is_dataclass(tp)]
        if sections:
            yield from _leaf_fields(sections[0], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


def _wrong_value(tp):
    """A value of none of the types ``tp`` admits."""
    first = next(t for t in _options(tp) if t is not type(None))
    if typing.get_origin(first) is typing.Literal:
        return 7
    if typing.get_origin(first) is list:
        return ["x"]
    return {int: 2.5, float: "1.0", str: 7, bool: "no"}[first]


LEAF_FIELDS = dict(_leaf_fields())


def test_the_leaf_fields_cover_every_section():
    sections = {path.rsplit(".", 1)[0] for path in LEAF_FIELDS if "." in path}
    assert sections == {"topology", "environment", "environment.eps_grid", "environment.gaussian",
                        "environment.strategic", "environment.strategic.synthetic", "step", "run",
                        "experiment"}
    assert "config_version" in LEAF_FIELDS


@pytest.mark.parametrize("path", LEAF_FIELDS)
def test_every_field_refuses_a_value_of_another_type(path):
    d = preset("spam_logistic" if ".strategic." in path else "gaussian_mean").to_dict()
    *sections, leaf = path.split(".")
    node = d
    for section in sections:
        node = node[section]
    wrong = _wrong_value(LEAF_FIELDS[path])
    node[leaf] = wrong
    with pytest.raises(ConfigError) as info:
        Config.from_dict(d)
    assert str(info.value).startswith(f"{path} must be ")
    assert str(info.value).endswith(f", got {json.dumps(wrong)}")


@pytest.mark.parametrize("build, message", [
    (lambda: config.RunConfig(T=1e5), "run.T must be an integer, got 100000.0"),
    (lambda: config.RunConfig(seed=True), "run.seed must be an integer, got true"),
    (lambda: config.SyntheticConfig(m=4601.0), "environment.strategic.synthetic.m must be an integer, got 4601.0"),
    (lambda: config.StrategicConfig(standardize="no", synthetic=config.SyntheticConfig()),
     'environment.strategic.standardize must be true or false, got "no"'),
    (lambda: config.ExperimentSection(seeds=[1, 2.0]), "experiment.seeds must be a list of integers, got [1, 2.0]"),
    (lambda: config.EnvironmentConfig(eps_grid={"spread": "0.05"}),
     'environment.eps_grid.spread must be a number, got "0.05"'),
    (lambda: config.Config(topology=None), "topology must be an object, got null"),
], ids=["T_a_float", "seed_a_bool", "m_a_float", "standardize_a_string", "seed_list_of_floats",
        "spread_a_numeral", "topology_null"])
def test_sections_refuse_a_value_of_another_type_when_constructed(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


def test_a_section_given_as_a_dict_is_built_from_it():
    env = config.EnvironmentConfig(eps_grid={"spread": 0.05})
    assert env.eps_grid == config.EpsGrid(spread=0.05) and env.spread == 0.05
    assert dataclasses.asdict(env)["eps_grid"] == {"spread": 0.05}


def test_integer_fields_are_read_off_the_annotations():
    assert config.INTEGER_FIELDS == {
        "config_version", "topology.n", "environment.n",
        "environment.strategic.per_agent", "environment.strategic.test_split", "environment.strategic.dim",
        "environment.strategic.synthetic.m", "environment.strategic.synthetic.per_agent",
        "environment.strategic.synthetic.dim", "environment.strategic.synthetic.seed",
        "run.T", "run.batch", "run.record_every", "run.seed",
    }


@pytest.mark.parametrize("path, value", [
    ("topology.edge_file", 5),
    ("topology.schedule_file", True),
    ("environment.strategic.dataset", ["a.csv"]),
])
def test_a_path_that_is_not_a_string_is_a_config_error(tmp_path, path, value):
    # load_config resolves only string paths, and leaves the rest to the type check
    d = preset("spam_logistic").to_dict()
    d["environment"]["strategic"]["synthetic"] = None
    *sections, leaf = path.split(".")
    node = d
    for section in sections:
        node = node[section]
    node[leaf] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match=re.escape(f"{path} must be a string, got {json.dumps(value)}")):
        load_config(p)


def test_synthetic_corpus_too_small_for_its_partition_is_refused():
    # the preset needs 25 x 138 + 1150 = 4600 of its 4601 rows; a file's rows are counted when it loads
    spam = preset("spam_logistic")
    assert spam.replace(**{"environment.strategic.test_split": 1151}).environment.strategic.test_split == 1151
    with pytest.raises(ConfigError, match=r"^need 4602 rows \(= 25 agents x 138 \+ 1152 test\), have 4601$"):
        spam.replace(**{"environment.strategic.test_split": 1152})
    with pytest.raises(ConfigError, match=r"^need 5150 rows \(= 25 agents x 160 \+ 1150 test\), have 4601$"):
        spam.replace(**{"environment.strategic.per_agent": 160})
    with pytest.raises(ConfigError, match=r"^need 4738 rows \(= 26 agents x 138 \+ 1150 test\), have 4601$"):
        spam.replace(**{"environment.n": 26, "topology.n": 26})
    # per_agent-style synthetic data draws each shard, and a dataset file is counted when it loads
    preset("hetero_vs_homo", **{"environment.strategic.per_agent": 10_000})
    spam.replace(**{"environment.strategic.dataset": "missing.csv", "environment.strategic.synthetic": None,
                    "environment.strategic.per_agent": 10_000})



# each enumerated field, the words its Literal annotation allows, and the
# preset whose sections hold it
WORDS = {
    "topology.kind": ("gaussian_mean", ["ring", "complete", "star", "edge_list", "schedule"]),
    "topology.weights": ("gaussian_mean", ["uniform", "metropolis"]),
    "environment.kind": ("gaussian_mean", ["gaussian_mean", "strategic_shift"]),
    "environment.strategic.data_mode": ("spam_logistic", ["heterogeneous", "homogeneous"]),
    "environment.strategic.synthetic.style": ("spam_logistic", ["corpus", "per_agent"]),
    "step.kind": ("gaussian_mean", ["constant", "inverse_time"]),
}


def test_the_enumerated_fields_are_the_literal_annotations():
    assert {path for path, tp in LEAF_FIELDS.items() if typing.get_origin(tp) is typing.Literal} == set(WORDS)
    assert all(list(typing.get_args(LEAF_FIELDS[path])) == words for path, (_, words) in WORDS.items())


@pytest.mark.parametrize("path", WORDS)
def test_an_enumerated_field_refuses_another_word_and_lists_its_words(path):
    name, words = WORDS[path]
    d = preset(name).to_dict()
    *sections, leaf = path.split(".")
    node = d
    for section in sections:
        node = node[section]
    node[leaf] = "x"
    listed = ", ".join(f'"{word}"' for word in words)
    message = f'{path} must be one of {listed}, got "x"'
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Config.from_dict(d)


@pytest.mark.parametrize("field, value, message", [
    ("T", -1, "run.T must be nonnegative, got -1"),
    ("seed", -1, "run.seed must be nonnegative, got -1"),
    ("batch", 0, "run.batch must be at least 1, got 0"),
    ("record_every", 0, "run.record_every must be at least 1, got 0"),
    ("divergence_threshold", 0.0, "run.divergence_threshold must be positive, got 0.0"),
    ("divergence_threshold", float("nan"), "run.divergence_threshold must be positive, got nan"),
], ids=["T", "seed", "batch", "record_every", "divergence_threshold_zero", "divergence_threshold_nan"])
def test_each_run_bound_names_its_own_field(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.RunConfig(**{field: value})
    config.RunConfig(divergence_threshold=float("inf"))  # then only non-finite decisions stop a run


@pytest.mark.parametrize("updates, message", [
    ({"environment.gaussian.sigma2": -1.0}, "environment.gaussian.sigma2 must be nonnegative, got -1.0"),
    ({"environment.gaussian.sigma2": float("inf")}, "environment.gaussian.sigma2 must be finite, got inf"),
    ({"environment.eps_grid.spread": float("nan")}, "environment.eps_grid.spread must be finite, got nan"),
    ({"environment.eps_avg": -0.5}, "environment.eps_avg must be nonnegative, got -0.5"),
    ({"environment.eps_grid.spread": -1.5},
     "environment.eps_grid.spread = -1.5 gives the negative sensitivity -0.45 at environment.eps_avg = 0.9"),
    ({"environment.eps_grid": None, "environment.eps_list": [1.0] * 24 + [-0.1], "environment.eps_avg": 0.956},
     "environment.eps_list has negative entries [-0.1]"),
    ({"environment.gaussian.zbar": [[10.0, 1.0]] * 24 + [[3.0]]},
     "environment.gaussian.zbar must have rows of one length, got lengths [1, 2]"),
    ({"environment.gaussian.zbar": [[10.0]] * 3}, "environment.gaussian.zbar has 3 rows for n=25"),
    ({"environment.n": 0, "topology.n": 0}, "environment.n must be at least 1, got 0"),
], ids=["negative_sigma2", "inf_sigma2", "nan_spread", "negative_eps_avg", "spread_below_minus_one",
        "eps_list_negative_entry", "ragged_zbar", "zbar_rows_not_n", "n_zero"])
def test_environment_values_the_suite_would_refuse_are_refused_at_load(updates, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        preset("gaussian_mean").replace(**updates)


def test_environment_values_the_suite_accepts_load():
    # a spread of exactly 1 gives one agent sensitivity 0; at eps_avg 0 any spread gives all zeros
    gm = preset("gaussian_mean")
    gm.replace(**{"environment.eps_grid.spread": 1.0})
    gm.replace(**{"environment.eps_grid.spread": 5.0, "environment.eps_avg": 0.0})
    gm.replace(**{"environment.gaussian.zbar": [[10.0, 1.0]] * 25, "environment.gaussian.sigma2": 0})
    # the zbar rows are not judged for a strategic environment, which ignores them
    preset("spam_logistic").replace(**{"environment.gaussian": {"zbar": [[1.0]] * 3}})
