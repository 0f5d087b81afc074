"""The fused per-layer ops against their composed chains, bit for bit.

`mixed_segment_distances`, `soft_threshold` and `affine` promise to repeat
the floating-point operations of the chains in `composed_chains`, in order.
These tests hold each op to the same forward bits and the same bits in
every gradient, and a whole training run to the same trace and checkpoint
bytes. On drawn stacks (`distance_cases`), the distance ops are held to
their chains, partial mixes and `weighted_segment_distances` slice by
slice included, and the cancellation guard to its full-mask definition;
`soft_threshold` and `affine` are held to theirs on drawn cases too.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_chains
from klora import checkpoint, config, model
from klora.allocation import threshold_for_budget
from klora.kernels import segment_bounds
from klora.tensor import (
    _GUARD,
    Tensor,
    _piece_columns,
    _segment_sq_distances,
    _split_pieces,
    affine,
    backward,
    mixed_segment_distances,
    mul,
    reduce_sum,
    soft_threshold,
    weighted_segment_distances,
)

# (batch axes, m, n, r): two trainer layer shapes and the stacked fit-small shape
SHAPES = [((), 16, 16, 8), ((), 64, 64, 8), ((3,), 32, 32, 4)]
SHAPE_IDS = ["16x16r8", "64x64r8", "stacked3x32x32r4"]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def value_and_gradients(build, arrays, upstream):
    """Forward value of build(*leaves) and each leaf's gradient of sum(upstream * value);
    an empty leaf's gradient is empty whether or not the graph reaches it."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    backward(reduce_sum(mul(out, Tensor(upstream))))
    return [out.data] + [np.zeros(leaf.data.shape) if leaf.grad is None and not leaf.data.size
                         else leaf.grad for leaf in leaves]


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


# rows this far apart, relative to their scale, sit near the guard's edge: a
# piece's d² is about offset² * (|b_p|² + |a_p|²) / 2 there, against
# _GUARD * (|b_p|² + |a_p|²)
NEAR_GUARD = [0.0, 1e-9, 3e-4, 1e-3, 1.4e-3, 2e-3]
LAYOUTS = ["c-order", "fortran", "transposed"]


def incoming_gradient(rng, layout, shape):
    """A drawn gradient of `shape`: C order, Fortran order, or a transposed view."""
    if layout == "transposed":
        return np.swapaxes(rng.normal(size=(*shape[:-2], shape[-1], shape[-2])), -1, -2)
    return np.asarray(rng.normal(size=shape), order="F" if layout == "fortran" else "C")


@st.composite
def distance_cases(draw):
    """Factor stacks for the distance ops: 0-2 stack axes, pieces of unequal
    widths, zero-distance and near-guard row pairs, the number M of mixed
    slices and the layout of the incoming gradient."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m, n, r = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 7))
    edges = [0, *sorted(draw(st.sets(st.integers(1, r - 1))) if r > 1 else ()), r]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-3, 0, 3]))
    b, a = scale * rng.normal(size=(*lead, m, r)), scale * rng.normal(size=(*lead, n, r))
    for j in range(draw(st.integers(0, n))):
        offset = draw(st.sampled_from(NEAR_GUARD))
        a[..., j, :] = b[..., draw(st.integers(0, m - 1)), :] + offset * scale * rng.normal(
            size=(*lead, r))
    mixes = draw(st.integers(0, lead[0])) if lead else None
    upstream = incoming_gradient(rng, draw(st.sampled_from(LAYOUTS)), (*lead, m, n))
    return b, a, list(zip(edges, edges[1:])), mixes, upstream, rng


@settings(max_examples=150, deadline=None, derandomize=True)
@given(distance_cases())
def test_distance_ops_equal_their_chains_bit_for_bit(case):
    b, a, bounds, mixes, upstream, rng = case
    lead = b.shape[:-2]
    alpha_p = rng.normal(size=(*lead, len(bounds)))
    scalar = (mixes, *lead[1:], 1, 1) if lead else ()
    alpha, beta = rng.normal(size=scalar), rng.normal(size=scalar)
    assert_fused_equals_chain(lambda *t: mixed_segment_distances(*t, bounds),
                              lambda *t: composed_chains.mixed_segment_distances(*t, bounds),
                              [b, a, alpha_p, alpha, beta], upstream)
    assert_fused_equals_chain(
        lambda *t: weighted_segment_distances(*t, bounds),
        lambda *t: composed_chains.weighted_segment_distances_by_slice(*t, bounds),
        [b, a, alpha_p], upstream)


def full_mask_guard(bs, as_):
    """The guard by its definition: the index of every entry with
    d² <= _GUARD * (|b_i|² + |a_j|²), from a full array of per-entry bounds."""
    nb = np.einsum("...ik,...ik->...i", bs, bs)[..., :, None]
    na = np.einsum("...jk,...jk->...j", as_, as_)[..., None, :]
    d2 = bs @ np.swapaxes(as_, -1, -2)
    d2 *= -2.0
    d2 += nb
    d2 += na
    return np.nonzero(d2 <= _GUARD * (nb + na))


def assert_guard_is_its_full_mask(bs, as_):
    want = full_mask_guard(bs, as_)
    d2, guarded = _segment_sq_distances(bs, as_)
    got = want if guarded is None and not want[0].size else guarded[0]
    assert len(got) == d2.ndim
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(distance_cases())
def test_the_guard_takes_the_entries_of_its_full_mask(case):
    # on the factors, and on the piece views the distance op hands it
    b, a, bounds, *_ = case
    w, cols = _piece_columns(bounds, b.shape[-1])
    assert_guard_is_its_full_mask(b, a)
    assert_guard_is_its_full_mask(_split_pieces(b, w, cols), _split_pieces(a, w, cols))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_guard_skips_rows_with_nan_or_infinite_norms():
    # a NaN norm makes the largest norm NaN; rows beside it keep their guard
    rng = np.random.default_rng(5)
    b, a = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 5, 4))
    a[..., 2, :] = b[..., 4, :]
    b[0, 1, 0], b[1, 3, 2], a[2, 0, 1] = np.nan, np.inf, -np.inf
    assert_guard_is_its_full_mask(b, a)


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


@st.composite
def threshold_cases(draw):
    """Stacks for `soft_threshold`: 0-2 stack axes, a scalar or per-slice tau,
    entries exactly at +-tau and at +-0, and the layout of the incoming gradient."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(*lead, m, n))
    per_slice = np.abs(rng.normal(size=(*lead, 1, 1)))
    tau = per_slice if draw(st.booleans()) else float(per_slice.flat[0])
    slice_tau = np.broadcast_to(tau, per_slice.shape)[..., 0, 0]
    for _ in range(draw(st.integers(0, m * n))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        x[..., i, j] = draw(st.sampled_from([1.0, -1.0, 0.0, -0.0])) * slice_tau
    return x, tau, incoming_gradient(rng, draw(st.sampled_from(LAYOUTS)), x.shape)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(threshold_cases())
def test_soft_threshold_equals_its_chain_bit_for_bit(case):
    x, tau, upstream = case
    assert_fused_equals_chain(lambda t: soft_threshold(t, tau),
                              lambda t: composed_chains.soft_threshold(t, tau), [x], upstream)


@st.composite
def affine_cases(draw):
    """A batch for `affine`: its size, the layer widths, a bias or none, and
    the layout of the incoming gradient."""
    k, m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w0, bias = rng.normal(size=(m, n)), rng.normal(size=m) if draw(st.booleans()) else None
    arrays = [rng.normal(size=(k, n)), rng.normal(size=(m, n))]
    return w0, bias, arrays, incoming_gradient(rng, draw(st.sampled_from(LAYOUTS)), (k, m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(affine_cases())
def test_affine_equals_its_chain_bit_for_bit(case):
    w0, bias, arrays, upstream = case
    assert_fused_equals_chain(lambda x, d: affine(x, w0, d, bias),
                              lambda x, d: composed_chains.affine(x, w0, d, bias),
                              arrays, upstream)


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
