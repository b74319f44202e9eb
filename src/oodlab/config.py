"""Experiment configs: flat INI sections with strict keys and documented defaults.

``_KEYS`` is the one list of INI keys: it maps each ``(section, key)`` to the
config part and field it sets and the parser of its text, in the order of
``config.resolved.ini``. A key the file leaves out keeps its dataclass
default, and each dataclass checks its own fields and resolves its own
"auto" values when it is built. Every run writes the resolved config next to
its outputs as ``config.resolved.ini``; that file both documents the defaults
in force and reproduces the run when fed back in. Unknown sections or keys,
and any key under ``[DEFAULT]``, are rejected. The single ``data.seed`` is the
root of all randomness (see seeding.py for the derivation table) and can be
overridden on the command line.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import criteria
from .errors import ConfigError
from .gda import ring_centers
from .trainer import TrainConfig

# Threshold default: the two-cluster density at radius 2.5 from a center.
DEFAULT_ZETA = math.exp(-3.125) / math.tau


@dataclass(frozen=True)
class DataConfig:
    mu: float = 3.0
    zeta: float = DEFAULT_ZETA
    n: int = 400  # draws per split (train and eval each)
    dims: int = 2
    seed: int = 1234
    hard_radius: float = 7.0  # held-out outlier family: cluster ring radius
    hard_std: float = 0.5
    hard_clusters: int = 4
    n_hard: int = -1  # -1 resolves to n // 2
    data_dir: str = ""  # when set, load gen-data CSVs instead of sampling inline

    def __post_init__(self) -> None:
        if self.mu <= 0 or self.zeta <= 0:
            raise ValueError("[data] mu and zeta must be positive")
        if self.n < 0 or self.dims < 2:
            raise ValueError("[data] n must be >= 0 and dims >= 2")
        if self.hard_clusters < 1 or self.hard_std <= 0:
            raise ValueError("[data] hard_clusters must be >= 1 and hard_std positive")
        if self.seed < 0:
            raise ValueError(f"[data] seed must be >= 0, got {self.seed}")
        if self.n_hard < 0:
            object.__setattr__(self, "n_hard", self.n // 2)

    def hard_centers(self) -> np.ndarray:
        return ring_centers(self.hard_radius, self.hard_clusters, self.dims)


@dataclass(frozen=True)
class ShiftConfig:
    steps: int = 100
    lr: float = 0.05
    n_in: int = 200
    n_out: int = 200

    def __post_init__(self) -> None:
        if self.steps < 1 or self.n_in < 1 or self.n_out < 1:
            raise ValueError("[shift] steps, n_in and n_out must be >= 1")
        if self.lr <= 0:
            raise ValueError("[shift] lr must be positive")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    shift: ShiftConfig
    train: TrainConfig
    output: OutputConfig


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _hidden(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",")) if raw else ()


def _weight(raw: str) -> float | None:
    return None if raw == "auto" else _finite(raw)


# (section, key) -> (config part, field, parser), in config.resolved.ini order.
# The parts are DataConfig, TrainConfig, its CriterionConfig, ShiftConfig and
# OutputConfig; TrainConfig.seed is not a key, it always copies data.seed.
_KEYS = {
    ("data", "mu"): ("data", "mu", _finite),
    ("data", "zeta"): ("data", "zeta", _finite),
    ("data", "n"): ("data", "n", int),
    ("data", "dims"): ("data", "dims", int),
    ("data", "seed"): ("data", "seed", int),
    ("data", "hard_radius"): ("data", "hard_radius", _finite),
    ("data", "hard_std"): ("data", "hard_std", _finite),
    ("data", "hard_clusters"): ("data", "hard_clusters", int),
    ("data", "n_hard"): ("data", "n_hard", int),
    ("data", "data_dir"): ("data", "data_dir", str),
    ("model", "head"): ("train", "head", str),
    ("model", "hidden"): ("train", "hidden", _hidden),
    ("model", "feature_dim"): ("train", "feature_dim", int),
    ("criterion", "kind"): ("criterion", "kind", str),
    ("criterion", "lambda"): ("criterion", "lam", _weight),
    ("criterion", "gamma"): ("train", "gamma", _finite),
    ("training", "schedule"): ("train", "schedule", str),
    ("training", "lr"): ("train", "initial_lr", _finite),
    ("training", "epochs"): ("train", "epochs", int),
    ("training", "batch_in"): ("train", "batch_in", int),
    ("training", "batch_out"): ("train", "batch_out", int),
    ("training", "momentum"): ("train", "momentum", _finite),
    ("shift", "steps"): ("shift", "steps", int),
    ("shift", "lr"): ("shift", "lr", _finite),
    ("shift", "n_in"): ("shift", "n_in", int),
    ("shift", "n_out"): ("shift", "n_out", int),
    ("eval", "scorer"): ("train", "scorer", str),
    ("eval", "aupr_positive"): ("train", "aupr_positive", str),
    ("output", "dir"): ("output", "directory", str),
    ("output", "hist_bins"): ("train", "hist_bins", int),
}
_SECTIONS = {section for section, _ in _KEYS}


def _read_keys(path) -> dict[str, dict[str, object]]:
    """The parsed value of every key the file sets, grouped by config part."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        if parser.defaults():
            raise ConfigError(f"[DEFAULT] keys are not supported, got {sorted(parser.defaults())}")
        given: dict[str, dict[str, object]] = {part: {} for part, _, _ in _KEYS.values()}
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                part, field, parse = _KEYS[section, key]
                try:
                    given[part][field] = parse(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return given


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate an INI experiment config.

    Raises ConfigError for unknown sections or keys, unparsable values, and
    invalid values or combinations (e.g. an ice criterion on the linear head).
    """
    given = _read_keys(path)
    if seed_override is not None:
        given["data"]["seed"] = seed_override
    try:
        data = DataConfig(**given["data"])
        # CriterionConfig.kind has no default: a config that names no kind trains the paper's ice.
        criterion = criteria.CriterionConfig(**{"kind": "ice", **given["criterion"]})
        return ExperimentConfig(
            data=data,
            shift=ShiftConfig(**given["shift"]),
            train=TrainConfig(criterion=criterion, seed=data.seed, **given["train"]),
            output=OutputConfig(**given["output"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def resolved_ini(config: ExperimentConfig) -> str:
    """The config with every default filled in and every "auto" made concrete."""
    parts = {
        "data": config.data,
        "train": config.train,
        "criterion": config.train.criterion,
        "shift": config.shift,
        "output": config.output,
    }
    blocks = []
    for section, entries in itertools.groupby(_KEYS.items(), key=lambda entry: entry[0][0]):
        lines = [f"{key} = {_text(getattr(parts[part], field))}\n" for (_, key), (part, field, _) in entries]
        blocks.append(f"[{section}]\n" + "".join(lines))
    return "\n".join(blocks)
