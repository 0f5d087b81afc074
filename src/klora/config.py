"""Run configuration: one JSON document, strict keys, every setting described once.

The document has nested sections `model`, `kernel`, `sparsity`, `train`,
and `experiments`. Unknown keys are rejected. This module owns the layout,
`klora.model` what a setting means: a trainer setting is one `TrainerConfig`
field (default, and type or name enum with any range rule) plus one SETTINGS row,
the document key that sets it. `model.layer_dims`, `model.bias`,
`model.attention` and `train.task` are checked here; a task's keys are its
dataset builder's parameters. The final budget is not stored: it derives
from sparsity.budget_ratio times the total adaptable weight count at
trainer construction.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from . import datasets
from .choices import Count, SettingError, check
from .model import TrainerConfig


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration content."""


# document key -> the TrainerConfig field that holds its default, type and check
SETTINGS = {
    "model.rank": "rank", "model.factor_std": "factor_std",
    "kernel.kind": "kernel_kind", "kernel.pieces": "pieces",
    "sparsity.budget_ratio": "budget_ratio", "sparsity.schedule": "schedule_kind",
    "sparsity.alloc_period": "alloc_period", "sparsity.sparsify_mode": "sparsify_mode",
    "sparsity.importance_metric": "importance_metric",
    "sparsity.smoothing_beta1": "smoothing_beta1", "sparsity.smoothing_beta2": "smoothing_beta2",
    "train.lr": "lr", "train.adam_beta1": "adam_beta1", "train.adam_beta2": "adam_beta2",
    "train.adam_eps": "adam_eps", "train.epochs": "epochs",
    "train.steps_per_epoch": "steps_per_epoch", "train.batch_size": "batch_size",
    "train.seed": "seed", "train.recompute_merge": "recompute_merge",
}
ATTENTION_DEFAULTS = {"position": 0, "tokens": 2}
# model.layer_dims: the layer widths, input first
LayerDims = Annotated[list[Count], (lambda dims: len(dims) >= 2, "must list at least two widths")]


def _defaults() -> dict:
    """Every document default: each setting's field default, and config's own keys."""
    out = {
        "model": {"layer_dims": [16, 16], "bias": True, "attention": None},
        "kernel": {}, "sparsity": {},
        # per-kind task parameter defaults live with the dataset builders
        "train": {"task": {"kind": datasets.TaskKind.HIGH_RANK_REGRESSION.value}},
        "experiments": [],
    }
    defaults = TrainerConfig().to_dict()
    for key, name in SETTINGS.items():
        section, leaf = key.split(".")
        out[section][leaf] = defaults[name]
    return out


DEFAULTS = _defaults()


@dataclass
class RunConfig:
    """Validated, fully defaulted configuration."""

    model: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    sparsity: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    experiments: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def value(self, key: str):
        """The value at a `section.leaf` document key."""
        section, leaf = key.split(".")
        return getattr(self, section)[leaf]


def _reject_unknown(given: dict, allowed, where: str) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}' (known: {', '.join(allowed)})")


def _check_range(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"value out of range for '{key}': {message}")


def located(err: SettingError, key: str) -> ConfigError:
    """The ConfigError for a setting or param error at document key `key`."""
    return ConfigError(f"{err.problem} for '{key}': {err}")


def check_type(key: str, value, hint):
    """`value` at `key` held to a field's, param's or assert's type and range rule
    (`choices.check`, the key's leaf naming it); a ConfigError names the key."""
    try:
        return check(key.rsplit(".", 1)[-1], value, hint)
    except SettingError as err:
        raise located(err, key) from None


def _merge_section(section: str, given) -> dict:
    base = copy.deepcopy(DEFAULTS[section])
    if given is None:
        return base
    if not isinstance(given, dict):
        raise ConfigError(f"section '{section}' must be an object")
    _reject_unknown(given, base.keys(), section)
    for key, value in given.items():
        if key == "task" and isinstance(value, dict):
            value = {**base["task"], **value}
        base[key] = copy.deepcopy(value)
    return base


def _task(config: RunConfig) -> tuple:
    """The configured task's kind and builder arguments, checked against its
    builder's parameters, their annotations and the rules that read the
    model's layer dims."""
    if not isinstance(config.train["task"], dict):
        raise ConfigError("wrong type for 'train.task': need an object")
    args = dict(config.train["task"])
    kind = check_type("train.task.kind", args.pop("kind"), datasets.TaskKind)
    keys, ranges = datasets.TASK_KEYS[kind], datasets.TASKS[kind][2]
    _reject_unknown(args, keys, "train.task")
    for key, value in args.items():
        if keys[key] is not None:
            check_type(f"train.task.{key}", value, keys[key])
        if key in ranges:
            holds, rule = ranges[key]
            _check_range(holds(value, config.model["layer_dims"]), f"train.task.{key}",
                         f"{key} {rule}, got {json.dumps(value)}")
    return kind, args


def _attention(model: dict):
    """(position, tokens) of the attention block; None when there is none (null or {})."""
    attn = model["attention"]
    if attn is None or attn == {}:
        return None
    if not isinstance(attn, dict):
        raise ConfigError("wrong type for 'model.attention': need an object or null")
    _reject_unknown(attn, ATTENTION_DEFAULTS, "model.attention")
    attn = {**ATTENTION_DEFAULTS, **attn}
    for key, value in attn.items():
        check_type(f"model.attention.{key}", value, int)
    position, tokens, dims = attn["position"], attn["tokens"], model["layer_dims"]
    _check_range(0 <= position < len(dims) - 1, "model.attention.position",
                 f"{position} not in [0, {len(dims) - 2}]")
    width = dims[position + 1]
    _check_range(tokens >= 1 and width % tokens == 0, "model.attention.tokens",
                 f"{tokens} does not divide layer width {width}")
    return position, tokens


def apply_defaults(raw: dict) -> RunConfig:
    """Fill defaults, reject unknown keys, and check every value's type and range."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(raw, DEFAULTS.keys(), "<root>")
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("section 'experiments' must be a list")
    config = RunConfig(**{section: _merge_section(section, raw.get(section))
                          for section in ("model", "kernel", "sparsity", "train")},
                       experiments=experiments)

    config.model["layer_dims"] = check_type("model.layer_dims", config.model["layer_dims"],
                                            LayerDims)
    check_type("model.bias", config.model["bias"], bool)
    _attention(config.model)
    _task(config)
    try:
        trainer_config_from(config)
    except SettingError as err:
        raise located(err, next(k for k, name in SETTINGS.items() if name == err.name)) from None
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:  # JSON is UTF-8 text
        raise ConfigError(f"malformed JSON in {path}: {err}") from None
    return apply_defaults(raw)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def trainer_config_from(config: RunConfig) -> TrainerConfig:
    """Translate the document into the trainer's dataclass."""
    return TrainerConfig(**{name: config.value(key) for key, name in SETTINGS.items()})


def dataset_from(config: RunConfig):
    """Build the configured synthetic dataset (model dims drive the task).

    A `min_rank` that no sparse draw at the task's density reaches is a
    ConfigError: which ranks a draw can reach depends on the density, so
    `apply_defaults` cannot rule it out.
    """
    kind, args = _task(config)
    dims, seed = config.model["layer_dims"], config.train["seed"]
    supplied = {"layer_dims": tuple(dims), "bias": config.model["bias"]}
    args.update((key, supplied[key]) for key in datasets.TASKS[kind][1])
    try:
        dataset = datasets.synth_dataset(kind, seed=seed, **args)
    except datasets.UnreachableRank as err:
        raise ConfigError(f"value out of range for 'train.task.min_rank': {err}") from None

    attention = _attention(config.model)
    if attention is not None:
        position, tokens = attention
        dh = dims[position + 1] // tokens
        rng = np.random.default_rng([seed, 0xA7])
        weights = [(rng.normal(0.0, 1.0 / np.sqrt(dh), size=(dh, dh)), None) for _ in range(4)]
        dataset.attention = {"position": position, "tokens": tokens, "weights": weights}
    return dataset
