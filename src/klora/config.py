"""Run configuration: one JSON document, strict keys, defaults in one place.

The document has nested sections `model`, `kernel`, `sparsity`, `train`,
and `experiments`. Unknown keys are rejected; every default lives in
DEFAULTS below. The final budget is not stored: it derives from
sparsity.budget_ratio times the total adaptable weight count at trainer
construction.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from .allocation import parse_metric, parse_schedule_kind, parse_sparsify_mode
from .kernels import parse_kernel_kind
from .model import parse_alloc_period


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration content."""


DEFAULTS = {
    "model": {
        "layer_dims": [16, 16],
        "bias": True,
        "rank": 4,
        "factor_std": 0.02,
        "attention": None,
    },
    "kernel": {
        "kind": "mix-k",
        "pieces": 2,
    },
    "sparsity": {
        "budget_ratio": 0.3,
        "schedule": "cubic",
        "alloc_period": "per-epoch",
        "sparsify_mode": "soft",
        "importance_metric": "sensitivity",
        "smoothing_beta1": 0.85,
        "smoothing_beta2": 0.85,
    },
    "train": {
        "lr": 1e-2,
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_eps": 1e-8,
        "epochs": 10,
        "steps_per_epoch": None,
        "batch_size": 16,
        "seed": 0,
        "recompute_merge": False,
        # per-kind task parameter defaults live with the dataset builders
        "task": {"kind": "high-rank-regression"},
    },
    "experiments": [],
}


@dataclass
class RunConfig:
    """Validated, fully defaulted configuration."""

    model: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    sparsity: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    experiments: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": copy.deepcopy(self.model),
            "kernel": copy.deepcopy(self.kernel),
            "sparsity": copy.deepcopy(self.sparsity),
            "train": copy.deepcopy(self.train),
            "experiments": copy.deepcopy(self.experiments),
        }


def _reject_unknown(given: dict, allowed, where: str) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'")


def _check_range(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"value out of range for '{key}': {message}")


def _merge_section(section: str, given) -> dict:
    base = copy.deepcopy(DEFAULTS[section])
    if given is None:
        return base
    if not isinstance(given, dict):
        raise ConfigError(f"section '{section}' must be an object")
    _reject_unknown(given, base.keys(), section)
    for key, value in given.items():
        if key == "task" and isinstance(value, dict):
            task = copy.deepcopy(base["task"])
            known_task = {"kind", "samples", "density", "perturb_scale", "noise_std",
                          "min_rank", "perturb_layers", "features", "classes", "spread",
                          "hidden"}
            _reject_unknown(value, known_task, "train.task")
            task.update(value)
            base["task"] = task
        else:
            base[key] = copy.deepcopy(value)
    return base


def apply_defaults(raw: dict) -> RunConfig:
    """Fill defaults, reject unknown keys, and validate ranges."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(raw, DEFAULTS.keys(), "<root>")

    model = _merge_section("model", raw.get("model"))
    kernel = _merge_section("kernel", raw.get("kernel"))
    sparsity = _merge_section("sparsity", raw.get("sparsity"))
    train = _merge_section("train", raw.get("train"))
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("section 'experiments' must be a list")

    dims = model["layer_dims"]
    _check_range(
        isinstance(dims, list) and len(dims) >= 2 and all(int(d) > 0 for d in dims),
        "model.layer_dims",
        "need at least two positive dimensions",
    )
    _check_range(int(model["rank"]) >= 1, "model.rank", "rank must be >= 1")
    _check_range(float(model["factor_std"]) > 0, "model.factor_std", "must be positive")

    _check_range(int(kernel["pieces"]) >= 1, "kernel.pieces", "must be >= 1")

    ratio = float(sparsity["budget_ratio"])
    _check_range(0.0 <= ratio <= 1.0, "sparsity.budget_ratio", f"{ratio} not in [0, 1]")
    for key, value, parser in (
        ("kernel.kind", kernel["kind"], parse_kernel_kind),
        ("sparsity.schedule", sparsity["schedule"], parse_schedule_kind),
        ("sparsity.alloc_period", sparsity["alloc_period"], parse_alloc_period),
        ("sparsity.sparsify_mode", sparsity["sparsify_mode"], parse_sparsify_mode),
        ("sparsity.importance_metric", sparsity["importance_metric"], parse_metric),
    ):
        try:
            parser(value)
        except ValueError as err:
            raise ConfigError(f"value out of range for '{key}': {err}") from None
    for key in ("smoothing_beta1", "smoothing_beta2"):
        _check_range(0.0 <= float(sparsity[key]) <= 1.0, f"sparsity.{key}", "not in [0, 1]")

    _check_range(float(train["lr"]) >= 0.0, "train.lr", "must be nonnegative")
    for key in ("adam_beta1", "adam_beta2"):
        _check_range(0.0 <= float(train[key]) < 1.0, f"train.{key}", "not in [0, 1)")
    _check_range(float(train["adam_eps"]) > 0.0, "train.adam_eps", "must be positive")
    _check_range(int(train["epochs"]) >= 0, "train.epochs", "must be >= 0")
    _check_range(int(train["batch_size"]) >= 1, "train.batch_size", "must be >= 1")
    spe = train["steps_per_epoch"]
    _check_range(spe is None or int(spe) >= 1, "train.steps_per_epoch", "must be >= 1 or null")

    return RunConfig(
        model=model, kernel=kernel, sparsity=sparsity, train=train, experiments=experiments
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON in {path}: {err}") from None
    return apply_defaults(raw)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def trainer_config_from(config: RunConfig):
    """Translate the document into the trainer's dataclass."""
    from .model import TrainerConfig

    t, k, s, m = config.train, config.kernel, config.sparsity, config.model
    return TrainerConfig(
        lr=float(t["lr"]),
        adam_beta1=float(t["adam_beta1"]),
        adam_beta2=float(t["adam_beta2"]),
        adam_eps=float(t["adam_eps"]),
        epochs=int(t["epochs"]),
        steps_per_epoch=None if t["steps_per_epoch"] is None else int(t["steps_per_epoch"]),
        batch_size=int(t["batch_size"]),
        seed=int(t["seed"]),
        kernel_kind=k["kind"],
        pieces=int(k["pieces"]),
        rank=int(m["rank"]),
        factor_std=float(m["factor_std"]),
        budget_ratio=float(s["budget_ratio"]),
        schedule_kind=s["schedule"],
        alloc_period=s["alloc_period"],
        sparsify_mode=s["sparsify_mode"],
        importance_metric=s["importance_metric"],
        smoothing_beta1=float(s["smoothing_beta1"]),
        smoothing_beta2=float(s["smoothing_beta2"]),
        recompute_merge=bool(t["recompute_merge"]),
    )


def dataset_from(config: RunConfig):
    """Build the configured synthetic dataset (model dims drive the task)."""
    import numpy as np

    from .datasets import synth_dataset

    task = dict(config.train["task"])
    kind = task.pop("kind")
    seed = int(config.train["seed"])
    dims = [int(d) for d in config.model["layer_dims"]]
    if str(kind).replace("_", "-") in ("high-rank-regression", "highrankregression"):
        task.setdefault("layer_dims", tuple(dims))
        task.setdefault("bias", bool(config.model["bias"]))
    dataset = synth_dataset(kind, seed=seed, **task)

    attn = config.model.get("attention")
    if attn:
        position = int(attn.get("position", 0))
        tokens = int(attn.get("tokens", 2))
        if not 0 <= position < len(dims) - 1:
            raise ConfigError(f"value out of range for 'model.attention.position': {position}")
        width = dims[position + 1]
        if width % tokens:
            raise ConfigError(
                f"value out of range for 'model.attention.tokens': {tokens} "
                f"does not divide layer width {width}"
            )
        dh = width // tokens
        rng = np.random.default_rng([seed, 0xA7])
        dataset.attention = {
            "position": position,
            "tokens": tokens,
            "weights": [
                (rng.normal(0.0, 1.0 / np.sqrt(dh), size=(dh, dh)), None) for _ in range(4)
            ],
        }
    return dataset
