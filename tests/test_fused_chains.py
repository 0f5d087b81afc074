"""The fused per-layer ops against their composed chains, bit for bit.

`mixed_segment_distances`, `soft_threshold` and `affine` promise to repeat
the floating-point operations of the chains in `composed_chains`, in order.
These tests hold each op to the same forward bits and the same bits in
every gradient, and a whole training run to the same trace and checkpoint
bytes.
"""

import json

import numpy as np
import pytest

import composed_chains
from klora import checkpoint, config, model
from klora.allocation import threshold_for_budget
from klora.kernels import segment_bounds
from klora.tensor import (
    Tensor,
    affine,
    backward,
    mixed_segment_distances,
    mul,
    reduce_sum,
    soft_threshold,
)

# (batch axes, m, n, r): two trainer layer shapes and the stacked fit-small shape
SHAPES = [((), 16, 16, 8), ((), 64, 64, 8), ((3,), 32, 32, 4)]
SHAPE_IDS = ["16x16r8", "64x64r8", "stacked3x32x32r4"]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def value_and_gradients(build, arrays, upstream):
    """Forward value of build(*leaves) and each leaf's gradient of sum(upstream * value)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    backward(reduce_sum(mul(out, Tensor(upstream))))
    return [out.data] + [leaf.grad for leaf in leaves]


def assert_fused_equals_chain(fused, chain, arrays, upstream):
    for got, want in zip(value_and_gradients(fused, arrays, upstream),
                         value_and_gradients(chain, arrays, upstream)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("lead, m, n, r", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("layout", ["c-order", "transposed"])
def test_mixed_segment_distances_equals_its_chain(lead, m, n, r, layout):
    # row 3 of A equals row 5 of B: a zero distance, inside the cancellation
    # guard. A transposed incoming gradient is what an `affine` weight
    # gradient hands the merge; reductions over it add in its memory order.
    rng = np.random.default_rng([m, n, r, len(lead)])
    bounds = segment_bounds(r, 2)
    scalar = (*lead, 1, 1) if lead else ()
    b, a = rng.normal(size=(*lead, m, r)), rng.normal(size=(*lead, n, r))
    a[..., 3, :] = b[..., 5, :]
    arrays = [b, a, rng.normal(size=(*lead, 2)), rng.normal(size=scalar),
              rng.normal(size=scalar)]
    if layout == "c-order":
        upstream = rng.normal(size=(*lead, m, n))
    else:
        upstream = np.swapaxes(rng.normal(size=(*lead, n, m)), -1, -2)
    assert_fused_equals_chain(lambda *t: mixed_segment_distances(*t, bounds),
                              lambda *t: composed_chains.mixed_segment_distances(*t, bounds),
                              arrays, upstream)


def test_a_stack_of_1x1_mixes_equals_its_chain():
    # alpha is as large as the merge here, so its gradient g * s is not a
    # reduction; at an incoming -0 and a negative alpha it is -0 while the
    # merge's gradient is +0
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 1)),
              rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 1, 1))]
    arrays[3][1] = -0.5
    upstream = rng.normal(size=(3, 1, 1))
    upstream[1] = -0.0
    assert_fused_equals_chain(lambda *t: mixed_segment_distances(*t, [(0, 1)]),
                              lambda *t: composed_chains.mixed_segment_distances(*t, [(0, 1)]),
                              arrays, upstream)


@pytest.mark.parametrize("lead, m, n, r", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("budget_share", [0.5, 1.0])
def test_soft_threshold_equals_its_chain(lead, m, n, r, budget_share):
    rng = np.random.default_rng([m, n, r, len(lead)])
    x = rng.normal(size=(*lead, m, n))
    x.reshape(-1)[0] = 0.0
    # the budget's threshold is the magnitude of an entry; place two more on it
    tau = threshold_for_budget(x, int(budget_share * x.size))
    x.reshape(-1)[1:3] = tau, -tau
    assert_fused_equals_chain(lambda t: soft_threshold(t, tau),
                              lambda t: composed_chains.soft_threshold(t, tau),
                              [x], rng.normal(size=x.shape))


@pytest.mark.parametrize("m, n", [(16, 16), (64, 64), (24, 40)])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
def test_affine_equals_its_chain(m, n, with_bias):
    rng = np.random.default_rng([m, n])
    w0 = rng.normal(size=(m, n))
    bias = rng.normal(size=m) if with_bias else None
    arrays = [rng.normal(size=(32, n)), rng.normal(size=(m, n))]
    assert_fused_equals_chain(lambda x, d: affine(x, w0, d, bias),
                              lambda x, d: composed_chains.affine(x, w0, d, bias),
                              arrays, rng.normal(size=(32, m)))


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_soft_threshold_kinks_have_zero_subgradient(tau):
    x = Tensor([[0.0, tau, -tau, 0.75, -0.75]], requires_grad=True)
    out = soft_threshold(x, tau)
    backward(reduce_sum(out))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0, 0.75 - tau, tau - 0.75]])
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0, 1.0, 1.0]])


def test_affine_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="affine needs"):
        affine(Tensor(np.zeros((2, 3))), np.zeros((4, 5)), Tensor(np.zeros((4, 5))))
    with pytest.raises(ValueError, match="affine needs"):
        affine(Tensor(np.zeros((2, 5))), np.zeros((4, 5)), Tensor(np.zeros((5, 4))))


# the perfbench train-sparse configuration: mix-k, attention, per-step
# allocation and the soft sparsify, so every fused op runs on every step
TRAIN_SPARSE = {
    "model": {"layer_dims": [64, 64, 64], "rank": 8, "attention": {"position": 0, "tokens": 4}},
    "kernel": {"kind": "mix-k", "pieces": 2},
    "sparsity": {"budget_ratio": 0.5, "schedule": "cubic", "alloc_period": "per-step",
                 "sparsify_mode": "soft"},
    "train": {"lr": 1e-2, "epochs": 10, "batch_size": 32, "seed": 3,
              "task": {"kind": "high-rank-regression", "samples": 192}},
}


def train_and_save(raw, path):
    run_config = config.apply_defaults(json.loads(json.dumps(raw)))
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    net = model.build_model(dataset, trainer_config)
    trace = model.Trainer(net, trainer_config, dataset).fine_tune().to_dict()
    trace.pop("duration_s")
    checkpoint.save_checkpoint(net, path)
    return trace, path.read_bytes()


@pytest.mark.parametrize("recompute", [False, True], ids=["plain", "recompute-merge"])
def test_training_run_equals_the_run_on_composed_chains(tmp_path, recompute):
    raw = json.loads(json.dumps(TRAIN_SPARSE))
    raw["train"]["recompute_merge"] = recompute
    fused = train_and_save(raw, tmp_path / "fused.bin")
    with composed_chains.patched_in():
        chained = train_and_save(raw, tmp_path / "chained.bin")
    assert json.dumps(fused[0], sort_keys=True) == json.dumps(chained[0], sort_keys=True)
    assert fused[1] == chained[1]
