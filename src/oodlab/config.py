"""Experiment configs: flat INI sections with strict keys and documented defaults.

Every run resolves its config (defaults filled, "auto" values made concrete)
and writes the result next to its outputs as ``config.resolved.ini``; that
file both documents the defaults in force and reproduces the run when fed
back in. Unknown sections or keys are rejected. The single ``data.seed`` is
the root of all randomness (see seeding.py for the derivation table) and can
be overridden on the command line.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import criteria
from .gda import ring_centers
from .seeding import RNG_ALGORITHM
from .trainer import TrainConfig, resolve_head_kind, resolve_scorer

# Threshold default: the two-cluster density at radius 2.5 from a center.
DEFAULT_ZETA = math.exp(-3.125) / math.tau


class ConfigError(ValueError):
    """A config file is malformed, has unknown keys, or holds invalid values."""


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

    def resolved_n_hard(self) -> int:
        return self.n // 2 if self.n_hard < 0 else self.n_hard

    def hard_centers(self) -> np.ndarray:
        return ring_centers(self.hard_radius, self.hard_clusters, self.dims)


@dataclass(frozen=True)
class ShiftConfig:
    steps: int = 100
    lr: float = 0.05
    n_in: int = 200
    n_out: int = 200


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    rng: str = RNG_ALGORITHM


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    shift: ShiftConfig
    train: TrainConfig
    output: OutputConfig


_SCHEMA = {
    "data": ("mu", "zeta", "n", "dims", "seed", "hard_radius", "hard_std", "hard_clusters", "n_hard", "data_dir"),
    "model": ("head", "hidden", "feature_dim"),
    "criterion": ("kind", "lambda", "gamma"),
    "training": ("schedule", "lr", "epochs", "batch_in", "batch_out", "momentum"),
    "shift": ("steps", "lr", "n_in", "n_out"),
    "eval": ("scorer", "aupr_positive"),
    "output": ("dir", "hist_bins", "rng"),
}


def _parse_number(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _parse_hidden(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part.strip()) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"[model] hidden: cannot parse {raw!r}") from exc


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate an INI experiment config.

    Raises ConfigError for unknown sections or keys, unparsable values, and
    invalid combinations (e.g. an ice criterion on the linear head).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section: str, key: str, default: str) -> str:
        return parser.get(section, key, fallback=default).strip()

    data = DataConfig(
        mu=_parse_number("data", "mu", get("data", "mu", "3.0"), float),
        zeta=_parse_number("data", "zeta", get("data", "zeta", repr(DEFAULT_ZETA)), float),
        n=_parse_number("data", "n", get("data", "n", "400"), int),
        dims=_parse_number("data", "dims", get("data", "dims", "2"), int),
        seed=_parse_number("data", "seed", get("data", "seed", "1234"), int),
        hard_radius=_parse_number("data", "hard_radius", get("data", "hard_radius", "7.0"), float),
        hard_std=_parse_number("data", "hard_std", get("data", "hard_std", "0.5"), float),
        hard_clusters=_parse_number("data", "hard_clusters", get("data", "hard_clusters", "4"), int),
        n_hard=_parse_number("data", "n_hard", get("data", "n_hard", "-1"), int),
        data_dir=get("data", "data_dir", ""),
    )
    if seed_override is not None:
        data = dataclasses.replace(data, seed=int(seed_override))
    if data.mu <= 0:
        raise ConfigError("[data] mu must be positive")
    if data.n < 0 or data.dims < 2:
        raise ConfigError("[data] n must be >= 0 and dims >= 2")
    if data.hard_clusters < 1 or data.hard_std <= 0:
        raise ConfigError("[data] hard_clusters must be >= 1 and hard_std positive")

    kind = get("criterion", "kind", "ice")
    if kind not in criteria.KINDS:
        raise ConfigError(f"[criterion] kind must be one of {criteria.KINDS}, got {kind!r}")
    lam_raw = get("criterion", "lambda", "auto")
    lam = None if lam_raw == "auto" else _parse_number("criterion", "lambda", lam_raw, float)
    try:
        criterion = criteria.CriterionConfig(kind=kind, lam=lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    shift = ShiftConfig(
        steps=_parse_number("shift", "steps", get("shift", "steps", "100"), int),
        lr=_parse_number("shift", "lr", get("shift", "lr", "0.05"), float),
        n_in=_parse_number("shift", "n_in", get("shift", "n_in", "200"), int),
        n_out=_parse_number("shift", "n_out", get("shift", "n_out", "200"), int),
    )
    if shift.steps < 1 or shift.n_in < 1 or shift.n_out < 1:
        raise ConfigError("[shift] steps, n_in and n_out must be >= 1")
    if shift.lr <= 0:
        raise ConfigError("[shift] lr must be positive")

    output = OutputConfig(
        directory=get("output", "dir", "out"),
        rng=get("output", "rng", RNG_ALGORITHM),
    )
    if output.rng != RNG_ALGORITHM:
        raise ConfigError(f"[output] rng: only {RNG_ALGORITHM!r} is supported")

    try:
        train = TrainConfig(
            criterion=criterion,
            schedule=get("training", "schedule", "cosine"),
            initial_lr=_parse_number("training", "lr", get("training", "lr", "0.01"), float),
            epochs=_parse_number("training", "epochs", get("training", "epochs", "10"), int),
            batch_in=_parse_number("training", "batch_in", get("training", "batch_in", "128"), int),
            batch_out=_parse_number("training", "batch_out", get("training", "batch_out", "256"), int),
            momentum=_parse_number("training", "momentum", get("training", "momentum", "0.9"), float),
            seed=data.seed,
            gamma=_parse_number("criterion", "gamma", get("criterion", "gamma", "1.0"), float),
            head=get("model", "head", "auto"),
            hidden=_parse_hidden(get("model", "hidden", "64,64")),
            feature_dim=_parse_number("model", "feature_dim", get("model", "feature_dim", "8"), int),
            scorer=get("eval", "scorer", "auto"),
            aupr_positive=get("eval", "aupr_positive", "out"),
            hist_bins=_parse_number("output", "hist_bins", get("output", "hist_bins", "20"), int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(data=data, shift=shift, train=train, output=output)


def resolved_ini(config: ExperimentConfig) -> str:
    """The config with every default filled in and every "auto" made concrete."""
    train = config.train
    head = resolve_head_kind(train.head, train.criterion)
    scorer = resolve_scorer(train.scorer, head, train.criterion)
    lines = [
        "[data]",
        f"mu = {config.data.mu!r}",
        f"zeta = {config.data.zeta!r}",
        f"n = {config.data.n}",
        f"dims = {config.data.dims}",
        f"seed = {config.data.seed}",
        f"hard_radius = {config.data.hard_radius!r}",
        f"hard_std = {config.data.hard_std!r}",
        f"hard_clusters = {config.data.hard_clusters}",
        f"n_hard = {config.data.resolved_n_hard()}",
        f"data_dir = {config.data.data_dir}",
        "",
        "[model]",
        f"head = {head}",
        "hidden = " + ",".join(str(w) for w in train.hidden),
        f"feature_dim = {train.feature_dim}",
        "",
        "[criterion]",
        f"kind = {train.criterion.kind}",
        f"lambda = {train.criterion.weight!r}",
        f"gamma = {train.gamma!r}",
        "",
        "[training]",
        f"schedule = {train.schedule}",
        f"lr = {train.initial_lr!r}",
        f"epochs = {train.epochs}",
        f"batch_in = {train.batch_in}",
        f"batch_out = {train.batch_out}",
        f"momentum = {train.momentum!r}",
        "",
        "[shift]",
        f"steps = {config.shift.steps}",
        f"lr = {config.shift.lr!r}",
        f"n_in = {config.shift.n_in}",
        f"n_out = {config.shift.n_out}",
        "",
        "[eval]",
        f"scorer = {scorer}",
        f"aupr_positive = {train.aupr_positive}",
        "",
        "[output]",
        f"dir = {config.output.directory}",
        f"hist_bins = {train.hist_bins}",
        f"rng = {config.output.rng}",
    ]
    return "\n".join(lines) + "\n"
