"""The flat importance arena against the per-layer state it replaced, bit for bit.

Layer scores feed the integer floors of `alloc`, so the trainer must give
the scores, budgets, grad norms and losses of `per_layer_importance`'s
per-layer trainer exactly, under every importance metric and allocation
period, with and without `recompute_merge`.
"""

import json

import numpy as np
import pytest

import per_layer_importance
from klora import config, model

# a 16-row attention head and factors of 128 to 384 entries, so the means
# and sums run numpy's pairwise summation over more than one block
RAW = {
    "model": {"layer_dims": [48, 32, 16], "rank": 8, "attention": {"position": 0, "tokens": 2}},
    "kernel": {"kind": "mix-k", "pieces": 2},
    "sparsity": {"budget_ratio": 0.4, "schedule": "cubic"},
    "train": {"lr": 1e-2, "epochs": 3, "batch_size": 8, "steps_per_epoch": 4, "seed": 2,
              "task": {"kind": "high-rank-regression", "samples": 32}},
}


def train(trainer_class, raw):
    """A run's trace without its duration, and the layer scores after every step."""
    run_config = config.apply_defaults(json.loads(json.dumps(raw)))
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    trainer = trainer_class(model.build_model(dataset, trainer_config), trainer_config, dataset)
    step_scores = []
    step = trainer.train_step

    def train_step(xb, yb):
        loss = step(xb, yb)
        step_scores.append(trainer.layer_scores())
        return loss

    trainer.train_step = train_step
    trace = trainer.fine_tune().to_dict()
    trace.pop("duration_s")
    return trace, step_scores


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("recompute", [False, True], ids=["plain", "recompute-merge"])
@pytest.mark.parametrize("metric", ["sensitivity", "magnitude", "w-magnitude"])
@pytest.mark.parametrize("period", ["per-epoch", "per-step"])
def test_run_equals_the_per_layer_oracle(period, metric, recompute):
    raw = json.loads(json.dumps(RAW))
    raw["sparsity"].update(alloc_period=period, importance_metric=metric)
    raw["train"]["recompute_merge"] = recompute
    flat, flat_scores = train(model.Trainer, raw)
    ref, ref_scores = train(per_layer_importance.PerLayerTrainer, raw)
    assert len(flat_scores) == len(ref_scores) == 12
    for step, (got, want) in enumerate(zip(flat_scores, ref_scores)):
        assert bits(got) == bits(want), f"layer scores differ after step {step}"
    for got, want in zip(flat["epochs"], ref["epochs"]):
        assert got["budgets"] == want["budgets"]
        for key in ("scores", "grad_norms", "mean_loss"):
            assert bits(got[key]) == bits(want[key]), f"epoch {got['epoch']}: {key}"
    assert json.dumps(flat, sort_keys=True) == json.dumps(ref, sort_keys=True)
