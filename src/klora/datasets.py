"""Seed-deterministic synthetic tasks for desk-scale adapter training.

The regression task plants a random sparse, higher-than-adapter-rank
perturbation on a frozen random base network and labels inputs with the
perturbed network, so recovering the labels means expressing an update the
plain rank-r product cannot. The classification task is Gaussian blobs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .choices import Choice, Count, NonNegative, Unit, hints
from .kernels import numerical_rank


class TaskKind(Choice, what="dataset kind"):
    HIGH_RANK_REGRESSION = "high-rank-regression"
    BLOB_CLASSIFICATION = "blob-classification"

    @classmethod
    def spellings(cls) -> dict:
        return {kind.value.replace("-", sep): kind for kind in cls for sep in ("_", "")}


@dataclass
class SynthDataset:
    kind: str
    x: np.ndarray
    y: np.ndarray
    base_weights: list
    loss: str
    meta: dict = field(default_factory=dict)
    attention: dict | None = None


def _base_network(rng: np.random.Generator, layer_dims, bias: bool):
    weights = []
    for n_in, n_out in zip(layer_dims, layer_dims[1:]):
        w0 = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        b = rng.normal(0.0, 0.05, size=n_out) if bias else None
        weights.append((w0, b))
    return weights


def _forward_numpy(weights, x: np.ndarray) -> np.ndarray:
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(weights):
        h = h @ w.T
        if b is not None:
            h = h + b
        if i < last:
            h = np.maximum(h, 0.0)
    return h


class UnreachableRank(ValueError):
    """No sparse perturbation of the asked-for rank came out of the draws."""


def _sparse_perturbation(rng: np.random.Generator, shape, density: float,
                         scale: float, min_rank: int) -> np.ndarray:
    """Random sparse matrix with numerical rank above min_rank (when feasible)."""
    for _ in range(64):
        mask = rng.random(shape) < density
        pert = rng.normal(0.0, scale, size=shape) * mask
        if min_rank <= 0 or numerical_rank(pert, 1e-9) > min_rank:
            return pert
    raise UnreachableRank(
        f"could not draw a density-{density} perturbation of rank > {min_rank} on {shape}"
    )


def high_rank_regression(seed: int, layer_dims=(16, 16), samples: Count = 96,
                         density: Unit = 0.1, min_rank: int | None = None,
                         perturb_layers=None, perturb_scale: NonNegative = 2.5,
                         noise_std: NonNegative = 0.0, bias: bool = True) -> SynthDataset:
    rng = np.random.default_rng([seed, 0xD5])
    base = _base_network(rng, layer_dims, bias)
    n_layers = len(base)
    if perturb_layers is None:
        perturb_layers = list(range(n_layers))
    perturbations = {}
    target = []
    for i, (w0, b) in enumerate(base):
        if i in perturb_layers and density > 0.0:
            # min_rank defaults to half the layer's smaller dimension, well
            # above the desk-scale adapter ranks
            floor_rank = min_rank if min_rank is not None else max(1, min(w0.shape) // 2)
            pert = _sparse_perturbation(
                rng, w0.shape, density, perturb_scale / np.sqrt(w0.shape[1]), floor_rank
            )
            perturbations[i] = pert
            target.append((w0 + pert, b))
        else:
            target.append((w0, b))
    x = rng.normal(size=(samples, layer_dims[0]))
    y = _forward_numpy(target, x)
    if noise_std > 0.0:
        y = y + rng.normal(0.0, noise_std, size=y.shape)
    return SynthDataset(
        kind="high-rank-regression",
        x=x,
        y=y,
        base_weights=base,
        loss="mse",
        meta={
            "density": density,
            "perturb_layers": list(perturb_layers),
            "perturbation_ranks": {
                str(i): numerical_rank(p, 1e-9) for i, p in perturbations.items()
            },
            "noise_std": noise_std,
        },
    )


def blob_classification(seed: int, features: Count = 8, classes: Count = 3,
                        samples: Count = 240, spread: NonNegative = 0.6,
                        hidden: Count = 16, bias: bool = True) -> SynthDataset:
    rng = np.random.default_rng([seed, 0xB1])
    centers = rng.normal(0.0, 2.0, size=(classes, features))
    labels = rng.integers(0, classes, size=samples)
    x = centers[labels] + rng.normal(0.0, spread, size=(samples, features))
    onehot = np.zeros((samples, classes))
    onehot[np.arange(samples), labels] = 1.0
    base = _base_network(rng, (features, hidden, classes), bias)
    return SynthDataset(
        kind="blob-classification",
        x=x,
        y=onehot,
        base_weights=base,
        loss="cross-entropy",
        meta={"classes": classes, "spread": spread},
    )


# each kind's builder, the builder parameters a run config's model section supplies,
# and the rules of the others that also read the model's layer dims: (holds(value, dims),
# what a value must be); every other rule is part of a parameter's annotation
TASKS = {
    TaskKind.HIGH_RANK_REGRESSION: (high_rank_regression, ("layer_dims", "bias"), {
        "min_rank": (lambda v, dims: v is None or 0 <= v < min(dims),
                     "must be null or below every layer dimension"),
        "perturb_layers": (lambda v, dims: v is None or isinstance(v, list) and all(
            type(i) is int and 0 <= i < len(dims) - 1 for i in v),
            "must be null or a list of layer indices")}),
    TaskKind.BLOB_CLASSIFICATION: (blob_classification, (), {}),
}


def _task_keys(builder, supplied) -> dict:
    annotations = hints(builder)
    return {p: annotations.get(p) for p in inspect.signature(builder).parameters
            if p not in ("seed", *supplied)}


# per kind, the builder parameters a run config may set, with their types and any
# range rule (None: any value)
TASK_KEYS = {kind: _task_keys(builder, supplied)
             for kind, (builder, supplied, _) in TASKS.items()}


def synth_dataset(kind, seed: int, **sizes) -> SynthDataset:
    return TASKS[TaskKind(kind)][0](seed=seed, **sizes)
