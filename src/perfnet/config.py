"""Run-configuration schema: JSON files with a versioned, validated layout.

Top-level sections: ``topology``, ``environment``, ``step``, ``run`` and an
optional ``experiment`` block (name, seeds, output directory, theory delta).
The ``step`` and ``run`` sections are the :class:`StepSchedule` and
:class:`RunConfig` that :func:`perfnet.engine.run` takes. The
dialect is plain JSON with a mandatory ``config_version`` field. Relative
dataset/edge-list/schedule paths are resolved against the config file's
directory at load time.

Schedule files are JSON too: ``{"n": int, "window": B, "graphs": [edges...]}``
where each ``edges`` entry lists integer ``[i, j]`` pairs (self-loops
implicit). Edge-list files are plain text, one ``i j`` pair per line.
"""

import hashlib
import json
import math
import numbers
import typing
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "TopologyConfig",
    "GaussianConfig",
    "SyntheticConfig",
    "StrategicConfig",
    "EnvironmentConfig",
    "DIVERGENCE_THRESHOLD",
    "INTEGER_FIELDS",
    "StepSchedule",
    "RunConfig",
    "ExperimentSection",
    "Config",
    "load_config",
    "save_config",
    "config_hash",
]

CONFIG_VERSION = 1

# |theta| beyond this counts as divergence, in the engine and the oracle alike
DIVERGENCE_THRESHOLD = 1e12


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# what an error message calls a value of each annotated type
_NOUNS = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          list[int]: "a list of integers", list[float]: "a list of numbers",
          list[list[float]]: "a list of lists of numbers"}


def _options(tp) -> tuple:
    """The types an annotation admits: the members of a union, else the type itself."""
    return typing.get_args(tp) if isinstance(tp, UnionType) else (tp,)


def _fits(value, tp) -> bool:
    """Whether ``value`` has type ``tp``: a bool is not a number, an int is a float, a list's items count."""
    if typing.get_origin(tp) is list:
        return isinstance(value, (list, tuple)) and all(_fits(v, typing.get_args(tp)[0]) for v in value)
    if tp in (int, float):
        return isinstance(value, numbers.Integral if tp is int else numbers.Real) and not isinstance(value, bool)
    return isinstance(value, tp)


def _typed(cls):
    """A frozen dataclass that checks each field against its annotation, building a section given as a dict.

    Its own ``__post_init__`` checks run after, on values of the declared types.
    """
    own_checks = getattr(cls, "__post_init__", None)

    def __post_init__(self):
        for f in fields(self):
            value, options, path = getattr(self, f.name), _options(f.type), _PREFIXES[cls] + f.name
            nested = next((tp for tp in options if is_dataclass(tp)), None)
            if nested is not None and value is not None and not isinstance(value, nested):
                value = _from_dict(nested, value, f"config.{path}")
                object.__setattr__(self, f.name, value)
            if not any(_fits(value, tp) for tp in options):
                nouns = " or ".join(_NOUNS.get(tp, "an object") for tp in options if tp is not NoneType)
                raise ConfigError(f"{path} must be {nouns}, got {json.dumps(value, default=repr)}")
        if own_checks is not None:
            own_checks(self)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


def _finite(value) -> bool:
    """``math.isfinite``, with an int too large for a float counted as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check(section, ok, must: str, *names) -> None:
    """Refuse a value of the named fields of ``section`` that is not ``ok``; None is left to its own checks."""
    for name in names:
        value = getattr(section, name)
        if value is not None and not ok(value):
            raise ConfigError(f"{_PREFIXES[type(section)]}{name} must be {must}, got {value}")


def _size(value) -> bool:
    """Whether a count is at least 1: a size, a row count or a dimension."""
    return value >= 1


def _from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@_typed
class TopologyConfig:
    """Graph and mixing weights; ``weights`` applies to static graphs only.

    A ``schedule`` topology always uses Metropolis weights, since its graphs
    need not be regular.
    """

    kind: str = "ring"
    n: int = 25
    weights: str = "uniform"
    edge_file: str | None = None
    schedule_file: str | None = None

    def __post_init__(self):
        if self.kind not in ("ring", "complete", "star", "edge_list", "schedule"):
            raise ConfigError(f"topology.kind {self.kind!r} unknown")
        if self.weights not in ("uniform", "metropolis"):
            raise ConfigError(f"topology.weights {self.weights!r} unknown")
        if self.kind == "edge_list" and not self.edge_file:
            raise ConfigError("topology.kind=edge_list needs edge_file")
        if self.kind == "schedule" and not self.schedule_file:
            raise ConfigError("topology.kind=schedule needs schedule_file")


@_typed
class GaussianConfig:
    zbar: float | list[float] | list[list[float]] = 10.0
    sigma2: float = 50.0

    def __post_init__(self):
        zbar = self.zbar
        if isinstance(zbar, numbers.Real):
            return
        # the list, and each row of a list of rows, must be nonempty
        if not all([zbar, *(row for row in zbar if isinstance(row, (list, tuple)))]):
            raise ConfigError(f"{_PREFIXES[GaussianConfig]}zbar must hold a number in each list, "
                              f"got {json.dumps(zbar)}")


@_typed
class SyntheticConfig:
    """Parametric generator used instead of a dataset file.

    ``style="corpus"`` plants one linear model in ``m`` rows which are then
    partitioned like a loaded file; ``style="per_agent"`` draws each agent's
    shard from an agent-specific distribution whose offset and labeling
    direction deviate by ``heterogeneity``.
    """

    style: str = "corpus"
    m: int = 4601
    per_agent: int = 100
    dim: int = 100
    heterogeneity: float = 1.0
    signal: float = 2.0
    seed: int = 7

    def __post_init__(self):
        _check(self, _size, "at least 1", "m", "per_agent", "dim")
        if self.style not in ("corpus", "per_agent"):
            raise ConfigError(f"synthetic.style {self.style!r} unknown")


@_typed
class StrategicConfig:
    dataset: str | None = None
    beta: float = 1e-4
    per_agent: int = 138
    test_split: int = 1150
    standardize: bool = True
    dim: int | None = None
    data_mode: str = "heterogeneous"
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        _check(self, _size, "at least 1", "per_agent", "test_split", "dim")
        if self.data_mode not in ("heterogeneous", "homogeneous"):
            raise ConfigError(f"strategic.data_mode {self.data_mode!r} unknown")
        if self.dataset is None and self.synthetic is None:
            raise ConfigError("strategic environment needs a dataset path or a synthetic block")
        if self.dataset is not None and self.synthetic is not None:
            raise ConfigError("give strategic.dataset or strategic.synthetic, not both")
        if self.dataset is None and self.dim is not None:
            raise ConfigError(
                "strategic.dim applies only to a dataset file; "
                "set strategic.synthetic.dim for synthetic data"
            )


@_typed
class EpsGrid:
    """Sensitivities on a symmetric multiplicative grid around ``eps_avg`` with half-width ``spread``."""

    spread: float


@_typed
class EnvironmentConfig:
    kind: str = "gaussian_mean"
    n: int = 25
    eps_avg: float = 0.9
    eps_grid: EpsGrid | None = None
    eps_list: list[float] | None = None
    gaussian: GaussianConfig | None = None
    strategic: StrategicConfig | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_mean", "strategic_shift"):
            raise ConfigError(f"environment.kind {self.kind!r} unknown")
        if self.eps_grid is not None and self.eps_list is not None:
            raise ConfigError("give eps_grid or eps_list, not both")
        eps = self.eps_list
        # n finite numbers whose mean is eps_avg within 1e-12 relative
        if eps is not None:
            if not eps or len(eps) != self.n:
                raise ConfigError(f"eps_list has {len(eps)} entries for n={self.n}")
            bad = [v for v in eps if not _finite(v)]
            if bad:
                raise ConfigError(f"environment.eps_list has non-finite entries {bad}")
            try:
                mean = math.fsum(eps) / len(eps)
            except OverflowError:  # finite entries whose sum is not: a plain sum gives inf or nan
                mean = sum(eps) / len(eps)
            # a NaN eps_avg fails too, and an int too large for a float fails before the subtraction
            if not (_finite(self.eps_avg) and abs(mean - self.eps_avg) <= 1e-12 * abs(self.eps_avg)):
                raise ConfigError(
                    f"environment.eps_list averages {mean}, not environment.eps_avg = {self.eps_avg}")
        _check(self, _finite, "finite", "eps_avg")
        if self.kind == "gaussian_mean" and self.gaussian is None:
            object.__setattr__(self, "gaussian", GaussianConfig())
        if self.kind == "strategic_shift" and self.strategic is None:
            raise ConfigError("strategic_shift environment needs a strategic block")
        # a synthetic corpus's size is known here; a dataset file's only once it loads
        sc = self.strategic
        if self.kind == "strategic_shift" and sc.synthetic is not None and sc.synthetic.style == "corpus":
            need = self.n * sc.per_agent + sc.test_split
            if need > sc.synthetic.m:
                raise ConfigError(f"need {need} rows (= {self.n} agents x {sc.per_agent} + "
                                  f"{sc.test_split} test), have {sc.synthetic.m}")

    @property
    def spread(self) -> float:
        return float(self.eps_grid.spread) if self.eps_grid else 0.0


@_typed
class StepSchedule:
    """Constant or inverse-time step sizes: gamma_t = gamma or a0 / (a1 + t)."""

    kind: str = "inverse_time"
    gamma: float | None = None
    a0: float | None = 50.0
    a1: float | None = 10000.0

    def __post_init__(self):
        _check(self, _finite, "finite", "gamma", "a0", "a1")
        if self.kind == "constant":
            if self.gamma is None or self.gamma <= 0:
                raise ConfigError("step.kind=constant needs gamma > 0")
        elif self.kind == "inverse_time":
            if self.a0 is None or self.a1 is None or self.a0 <= 0 or self.a1 < 0:
                raise ConfigError("step.kind=inverse_time needs a0 > 0 and a1 >= 0")
        else:
            raise ConfigError(f"step.kind {self.kind!r} unknown")

    @classmethod
    def constant(cls, g: float) -> "StepSchedule":
        return cls("constant", gamma=g)

    @classmethod
    def inverse_time(cls, a0: float, a1: float) -> "StepSchedule":
        return cls("inverse_time", a0=a0, a1=a1)


@_typed
class RunConfig:
    """Iteration budget and reproducibility knobs for one run."""

    T: int = 200_000
    batch: int = 1
    record_every: int = 200
    seed: int = 1000
    theta0: float | list[float] = 0.0
    divergence_threshold: float = DIVERGENCE_THRESHOLD

    def __post_init__(self):
        if self.T < 0:
            raise ConfigError(f"run.T must be nonnegative, got {self.T}")
        if self.batch < 1 or self.record_every < 1:
            raise ConfigError("run.batch and run.record_every must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be nonnegative, got {self.seed}")
        # NaN fails the comparison too; +inf is allowed, and then only non-finite decisions stop a run
        if not self.divergence_threshold > 0:
            raise ConfigError(
                f"run.divergence_threshold must be positive, got {self.divergence_threshold}")


@_typed
class ExperimentSection:
    name: str = "experiment"
    seeds: list[int] = field(default_factory=lambda: [1000])
    out: str = "out"
    theory_delta: float = 0.1

    def __post_init__(self):
        _check(self, _finite, "finite", "theory_delta")
        negative = sorted(s for s in self.seeds if s < 0)
        if negative:
            raise ConfigError(f"experiment.seeds must be nonnegative, got {negative}")
        # a repeated seed would write one run directory and count twice in the aggregates
        repeated = sorted(s for s, k in Counter(self.seeds).items() if k > 1)
        if repeated:
            raise ConfigError(f"experiment.seeds repeats {repeated}")


@_typed
class Config:
    config_version: int = CONFIG_VERSION
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    step: StepSchedule = field(default_factory=StepSchedule)
    run: RunConfig = field(default_factory=RunConfig)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(
                f"config_version {self.config_version} unsupported (expected {CONFIG_VERSION})"
            )
        if self.topology.n != self.environment.n:
            raise ConfigError(
                f"topology.n = {self.topology.n} disagrees with environment.n = {self.environment.n}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        return _from_dict(cls, data, "config")

    def get(self, path: str):
        """The value at a dotted path (``"environment.eps_avg"``).

        Raises :class:`ConfigError` where :meth:`replace` would, and also when
        the last part is not a field of its section.
        """
        section, name = _section(self.to_dict(), path, "read")
        if name not in section:
            raise ConfigError(f"cannot read {path}: {path} is not a config field")
        return section[name]

    def replace(self, **updates) -> "Config":
        """New config with fields replaced by dotted path (``**{"environment.eps_avg": 1.01}``).

        A path may end at a whole section, given as a dict. Every part before
        the last must name a section, else :class:`ConfigError`.
        """
        d = self.to_dict()
        for key, val in updates.items():
            section, name = _section(d, key, "set")
            section[name] = val
        return Config.from_dict(d)


def _section(d: dict, path: str, verb: str) -> tuple[dict, str]:
    """The section of the config dict ``d`` that holds dotted ``path``, and the path's last part.

    Raises :class:`ConfigError` ("cannot <verb> <path>: ...") naming the
    first part before the last that is not a section, or is a section unset here.
    """
    parts = path.split(".")
    for k, part in enumerate(parts[:-1]):
        d, head = d.get(part), ".".join(parts[:k + 1])
        if not isinstance(d, dict):
            why = "is unset in this config" if head + "." in _PREFIXES.values() else "is not a config section"
            raise ConfigError(f"cannot {verb} {path}: {head} {why}")
    return d, parts[-1]


def _prefixes(cls, prefix: str = "") -> dict:
    """Each section class under ``cls`` mapped to its dotted path prefix, read off the annotations."""
    out = {cls: prefix}
    for f in fields(cls):
        for tp in _options(f.type):
            if is_dataclass(tp):
                out.update(_prefixes(tp, f"{prefix}{f.name}."))
    return out


_PREFIXES = _prefixes(Config)
# the integer fields, by dotted path; `perfnet run --values` parses them as int
INTEGER_FIELDS = frozenset(
    prefix + f.name for cls, prefix in _PREFIXES.items() for f in fields(cls) if int in _options(f.type)
)


def load_config(path) -> Config:
    """Parse a JSON config file, resolving relative paths against its directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    cfg = Config.from_dict(data)
    strategic = cfg.environment.strategic
    paths = {"topology.edge_file": cfg.topology.edge_file, "topology.schedule_file": cfg.topology.schedule_file,
             "environment.strategic.dataset": strategic and strategic.dataset}
    base = path.resolve().parent
    resolved = {key: str(base / p) for key, p in paths.items() if p and not Path(p).is_absolute()}
    return cfg.replace(**resolved) if resolved else cfg


def save_config(cfg: Config, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def config_hash(cfg: Config) -> str:
    """Stable content hash of the fully resolved configuration.

    ``experiment.out`` names where the artifacts go, not what they are, so it
    is hashed at its default: one experiment written to two directories gets
    one hash.
    """
    data = cfg.to_dict()
    data["experiment"]["out"] = ExperimentSection.out
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
