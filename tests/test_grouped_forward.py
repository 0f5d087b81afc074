"""The grouped forward pass against the per-layer one, bit for bit, and its op counts.

`TinyModel.forward` merges and sparsifies each group of same-shaped adapted
layers as one stack. A whole training run must give the trace and the
checkpoint bytes of `per_layer_forward`'s per-layer pass under every
sparsify mode, with and without `recompute_merge`, under per-epoch and
per-step allocation, on a model with groups of two (the 64x64 pair) and
four (the attention projections).
"""

import json

import numpy as np
import pytest

import per_layer_forward
from klora import checkpoint, config, model
from klora.tensor import Tensor, backward, reduce_sum, reshape, stack, take

# the perfbench train-sparse model: two 64x64 layers and a 16x16 attention head
GROUPED = {
    "model": {"layer_dims": [64, 64, 64], "rank": 8, "attention": {"position": 0, "tokens": 4}},
    "kernel": {"kind": "mix-k", "pieces": 2},
    "sparsity": {"budget_ratio": 0.5, "schedule": "cubic"},
    "train": {"lr": 1e-2, "epochs": 3, "batch_size": 32, "seed": 3,
              "task": {"kind": "high-rank-regression", "samples": 96}},
}
# every layer shape differs, so every group is a group of one
DISTINCT = {
    "model": {"layer_dims": [48, 32, 16], "rank": 8},
    "kernel": {"kind": "mix-k", "pieces": 2},
    "train": {"batch_size": 8, "task": {"kind": "high-rank-regression", "samples": 32}},
}


def trainer_for(raw):
    run_config = config.apply_defaults(json.loads(json.dumps(raw)))
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    return model.Trainer(model.build_model(dataset, trainer_config), trainer_config, dataset)


def train_and_save(raw, path):
    trainer = trainer_for(raw)
    trace = trainer.fine_tune().to_dict()
    trace.pop("duration_s")
    checkpoint.save_checkpoint(trainer.model, path)
    return json.dumps(trace, sort_keys=True), path.read_bytes()


@pytest.mark.parametrize("period", ["per-epoch", "per-step"])
@pytest.mark.parametrize("recompute", [False, True], ids=["plain", "recompute-merge"])
@pytest.mark.parametrize("mode", ["soft", "literal", "hard"])
def test_training_run_equals_the_per_layer_oracle(tmp_path, mode, recompute, period):
    raw = json.loads(json.dumps(GROUPED))
    raw["sparsity"].update(sparsify_mode=mode, alloc_period=period)
    raw["train"]["recompute_merge"] = recompute
    grouped = train_and_save(raw, tmp_path / "grouped.bin")
    with per_layer_forward.patched_in():
        per_layer = train_and_save(raw, tmp_path / "per-layer.bin")
    assert grouped[0] == per_layer[0]
    assert grouped[1] == per_layer[1]


def layer_gradients(group) -> list:
    """Each layer's parameter gradients: its slices of the group's leaf gradients."""
    grads = [p.grad for p in group.trainables()]
    return [grads] if len(group.layers) == 1 else list(zip(*grads))


def forward_and_gradients(forward, net, x):
    for p in net.trainables():
        p.grad = None
    out = forward(net, Tensor(x))
    backward(reduce_sum(out))
    return [out.data] + [g for grads in net.per_group(layer_gradients) for g in grads]


@pytest.mark.parametrize("mode", ["soft", "literal", "hard"])
def test_a_group_with_distinct_budgets_equals_the_oracle(mode):
    # every layer of both groups gets its own budget, so each slice of a
    # group's merge is sparsified with its own threshold
    raw = json.loads(json.dumps(GROUPED))
    raw["sparsity"]["sparsify_mode"] = mode
    trainer = trainer_for(raw)
    x = trainer.dataset.x[:16]
    trainer.train_step(x, trainer.dataset.y[:16])
    for i, layer in enumerate(trainer.layers):
        layer.budget = layer.cap // (i + 2)
    assert [len(group.layers) for group in trainer.model.groups] == [2, 4]
    got = forward_and_gradients(model.TinyModel.forward, trainer.model, x)
    per_layer = per_layer_forward.per_layer_model(trainer.model)
    want = forward_and_gradients(per_layer_forward.forward, per_layer, x)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_a_group_mixing_warm_and_budgeted_layers_raises_before_merging(monkeypatch):
    trainer = trainer_for(GROUPED)
    trainer.layers[0].budget = trainer.layers[0].cap // 2
    merges = count_calls(monkeypatch, "merge")
    with pytest.raises(ValueError, match="mixes warm-start and budgeted layers"):
        trainer.model.forward(Tensor(trainer.dataset.x[:8]))
    assert merges == []


def test_groups_train_from_stacked_leaves_that_their_layers_view():
    trainer = trainer_for(GROUPED)
    net = trainer.model
    # group-major: the two 64x64 layers' blocks, then the attention head's
    assert [p.data.shape for p in trainer.params] == [
        (2, 64, 8), (2, 64, 8), (2, 2), (2, 1, 1), (2, 1, 1),
        (4, 16, 8), (4, 16, 8), (4, 2), (4, 1, 1), (4, 1, 1)]
    x, y = trainer.dataset.x[:8], trainer.dataset.y[:8]
    for _ in range(2):
        trainer.train_step(x, y)
        trainer.allocate()
        for group in net.groups:
            for k, layer in enumerate(group.layers):
                for t, block in zip(layer.trainables(), group.trainables()):
                    assert np.shares_memory(t.data, block.data)
                    assert t.data.tobytes() == block.data[k].tobytes()
    # a write through a layer's tensor reaches the block the forward pass merges
    before = net.forward(Tensor(x)).data
    trainer.layers[5].pair.B.data[...] = 0.0
    assert not np.array_equal(net.forward(Tensor(x)).data, before)
    assert not net.groups[0].pair.B.data[1].any()


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, name, counted)
    return calls


def test_one_merge_and_one_sparsify_per_layer_shape(monkeypatch):
    trainer = trainer_for(GROUPED)
    x, y = trainer.dataset.x[:8], trainer.dataset.y[:8]
    trainer.train_step(x, y)
    trainer.allocate()
    merges = count_calls(monkeypatch, "merge")
    sparsifies = count_calls(monkeypatch, "sparsify")
    trainer.train_step(x, y)
    # six adapted layers in two shapes: 64x64 (two) and 16x16 (four)
    assert len(trainer.layers) == 6
    assert [pair.A.data.shape for _, pair in merges] == [(2, 64, 8), (4, 16, 8)]
    assert [len(budgets) for _, budgets, _ in sparsifies] == [2, 4]


@pytest.mark.parametrize("recompute", [False, True], ids=["plain", "recompute-merge"])
def test_w_magnitude_scores_merge_once_per_layer_shape(monkeypatch, recompute):
    raw = json.loads(json.dumps(GROUPED))
    raw["sparsity"]["importance_metric"] = "w-magnitude"
    raw["train"]["recompute_merge"] = recompute
    trainer = trainer_for(raw)
    trainer.train_step(trainer.dataset.x[:8], trainer.dataset.y[:8])
    merges = count_calls(monkeypatch, "merge")
    trainer.allocate()
    assert [pair.A.data.shape for _, pair in merges] == [(2, 64, 8), (4, 16, 8)]
    trainer.train_step(trainer.dataset.x[:8], trainer.dataset.y[:8])
    merges.clear()
    trainer.allocate()
    assert len(merges) == 2


def nodes_per_step(raw) -> int:
    trainer = trainer_for(raw)
    x, y = trainer.dataset.x[:8], trainer.dataset.y[:8]
    trainer.train_step(x, y)
    trainer.allocate()
    before = Tensor(0.0).node_id
    trainer.train_step(x, y)
    return Tensor(0.0).node_id - before - 1


# the counts below were pinned with the loss as a chain of target tensor,
# subtraction, square and mean; the fused loss is one node, three fewer
FUSED_LOSS_SAVES = 3


# the grouped counts below were pinned when each group stacked its layers'
# parameters every step; a group trains from stacked leaves now, which saves
# the five stack nodes of each of the two groups
STACKED_LEAVES_SAVE = 10


# the counts below were pinned with the mix-k merge as two ops, the distance
# op and its column mix; the fused op is one. Both models merge twice per step
# (two layers, or two groups), and recompute_merge rebuilds each merge in the
# backward, so a step saves two nodes, or four under recompute_merge
FUSED_MIX_K_SAVES = {False: 2, True: 4}


# nodes built per trainer step before layers were grouped; a group of one
# must record exactly these
@pytest.mark.parametrize("mode, recompute, nodes", [
    ("soft", False, 14), ("soft", True, 40), ("literal", False, 20), ("literal", True, 46),
    ("hard", False, 16), ("hard", True, 42),
])
def test_groups_of_one_record_the_per_layer_node_count(mode, recompute, nodes):
    raw = json.loads(json.dumps(DISTINCT))
    raw["sparsity"] = {"sparsify_mode": mode}
    raw["train"]["recompute_merge"] = recompute
    assert nodes_per_step(raw) == nodes - FUSED_LOSS_SAVES - FUSED_MIX_K_SAVES[recompute]


# soft: 41 per layer; a group of S once added a stack for A, B and each of
# the three mix-k coefficients and S takes, and saved S - 1 merges (two nodes
# each) and S - 1 sparsifies: 41 + (5 + 2 - 3) + (5 + 4 - 9) = 45, less the
# fused loss's saving. Under recompute_merge the backward rebuilds each
# group's merge, so a merge outside the checkpoint would show as a lower count.
@pytest.mark.parametrize("mode, recompute, nodes", [
    ("soft", False, 45), ("soft", True, 71), ("literal", False, 51), ("literal", True, 77),
    ("hard", False, 47), ("hard", True, 73),
])
def test_grouped_step_node_count(mode, recompute, nodes):
    raw = json.loads(json.dumps(GROUPED))
    raw["sparsity"]["sparsify_mode"] = mode
    raw["train"]["recompute_merge"] = recompute
    assert nodes_per_step(raw) == (nodes - FUSED_LOSS_SAVES - STACKED_LEAVES_SAVE
                                   - FUSED_MIX_K_SAVES[recompute])


def test_stack_and_take_route_gradients_to_their_parts():
    rng = np.random.default_rng(0)
    parts = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(3)]
    scalars = [Tensor(float(v), requires_grad=True) for v in rng.normal(size=3)]
    stacked = stack(parts)
    scale = reshape(stack(scalars), (3, 1, 1))
    assert stacked.data.shape == (3, 3, 2) and scale.data.shape == (3, 1, 1)
    weights = rng.normal(size=(3, 2))
    # slice 2 is used twice and slice 1 not at all
    terms = [take(stacked, 0) * Tensor(weights), take(stacked, 2), take(stacked, 2),
             stacked * scale]
    backward(sum((reduce_sum(t) for t in terms[1:]), reduce_sum(terms[0])))
    for k, part in enumerate(parts):
        want = scalars[k].data + (weights if k == 0 else 2.0 if k == 2 else 0.0)
        np.testing.assert_array_equal(part.grad, np.broadcast_to(want, (3, 2)))
        assert scalars[k].grad == part.data.sum()


def test_take_by_a_negative_index_names_the_same_slice():
    # take(x, -1) and take(x, 2) add into slice 2; slice 1, never taken, is zero
    x = Tensor(np.ones((3, 2, 2)), requires_grad=True)
    backward(reduce_sum(take(x, 0)) + reduce_sum(take(x, 2)) + reduce_sum(take(x, -1)))
    np.testing.assert_array_equal(x.grad, np.array([1.0, 0.0, 2.0])[:, None, None]
                                  * np.ones((3, 2, 2)))
