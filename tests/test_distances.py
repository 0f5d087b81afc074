"""The fused distance ops against explicit row differences and the composed oracle.

`weighted_segment_distances` and `squared_distances` build d² from the Gram
identity; entries where that cancels are recomputed from explicit row
differences. These tests pin that guard, check the ops against the
composed (m, n, r) formulation in `composed_merge`, and check that no merge
allocates an (m, n, r) array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_merge import composed_merge, segment_l2_norm
from klora.kernels import KernelKind, KernelSpec, LowRankPair, merge, segment_bounds
from klora.tensor import (
    Tensor,
    backward,
    finite_diff_check,
    mul,
    record_and_backward,
    reduce_sum,
    squared_distances,
    weighted_segment_distances,
)


def explicit_distances(b, a, bounds):
    """Per-segment distances from the (m, n, r) differences, as a (P, m, n) array."""
    diff = b[:, None, :] - a[None, :, :]
    return np.stack([np.sqrt((diff[..., s:e] ** 2).sum(axis=2)) for s, e in bounds])


def explicit_gradients(b, a, alpha, bounds, g):
    """Gradients of sum(g * out) by B and A, from explicit differences; 0 at d = 0."""
    diff = b[:, None, :] - a[None, :, :]
    gb, ga = np.zeros_like(b), np.zeros_like(a)
    for w, (s, e) in zip(alpha, bounds):
        seg = diff[..., s:e]
        d = np.sqrt((seg * seg).sum(axis=2))
        scale = np.where(d > 0.0, w * g / np.where(d > 0.0, d, 1.0), 0.0)
        gb[:, s:e] += (scale[..., None] * seg).sum(axis=1)
        ga[:, s:e] -= (scale[..., None] * seg).sum(axis=0)
    return gb, ga


def fused_gradients(b, a, alpha, bounds, g):
    B, A = Tensor(b, requires_grad=True), Tensor(a, requires_grad=True)
    backward(reduce_sum(mul(weighted_segment_distances(B, A, Tensor(alpha), bounds), Tensor(g))))
    return B.grad, A.grad


class TestComposedOracle:
    def test_segment_l2_norm_345(self):
        out = segment_l2_norm(Tensor([3.0, 4.0]), [(0, 2)])
        np.testing.assert_allclose(out.data, [5.0])

    def test_segment_l2_norm_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        mags = rng.uniform(0.3, 1.5, size=(4, 4)) * np.where(rng.random((4, 4)) < 0.5, -1.0, 1.0)
        a = Tensor(mags, requires_grad=True)
        report = finite_diff_check(
            lambda: segment_l2_norm(a, [(0, 2), (2, 4)]).sum(), [a], h=1e-5, tol=1e-5
        )
        assert report.passed, report.max_rel_err


class TestCancellationGuard:
    bounds = [(0, 2), (2, 4)]
    alpha = np.array([1.0, -0.5])

    def test_rows_1e9_apart_match_explicit_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 4))
        b = a + 1e-9 * rng.normal(size=a.shape)
        out = weighted_segment_distances(Tensor(b), Tensor(a), Tensor(self.alpha), self.bounds)
        want = np.tensordot(self.alpha, explicit_distances(b, a, self.bounds), axes=1)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.diag(out.data), np.diag(want), rtol=1e-12, atol=0.0)
        d2 = squared_distances(Tensor(b), Tensor(a)).data
        np.testing.assert_allclose(d2, explicit_distances(b, a, [(0, 4)])[0] ** 2,
                                   rtol=1e-12, atol=0.0)

    def test_rows_1e9_apart_gradients_use_explicit_differences(self):
        # Folding these entries into the Gram form of the backward would
        # lose about 1e-7 of each unit-size contribution to cancellation.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 4))
        b = a + 1e-9 * rng.normal(size=a.shape)
        g = rng.normal(size=(5, 5))
        got = fused_gradients(b, a, self.alpha, self.bounds, g)
        want = explicit_gradients(b, a, self.alpha, self.bounds, g)
        for x, y in zip(got, want):
            np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-12 * np.abs(y).max())

    def test_identical_rows_give_zero_distance_and_zero_subgradient(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4)) * 1e3
        out = weighted_segment_distances(Tensor(a), Tensor(a), Tensor(self.alpha), self.bounds)
        np.testing.assert_array_equal(np.diag(out.data), 0.0)
        np.testing.assert_array_equal(np.diag(squared_distances(Tensor(a), Tensor(a)).data), 0.0)
        gb, ga = fused_gradients(a, a.copy(), self.alpha, self.bounds, np.eye(4))
        np.testing.assert_array_equal(gb, 0.0)
        np.testing.assert_array_equal(ga, 0.0)

    def test_rows_just_above_the_guard_keep_nine_digits(self):
        # an unguarded entry loses about eps / (2 * guard) of d to cancellation
        rng = np.random.default_rng(3)
        a = 1e3 * rng.normal(size=(64, 4))
        for offset in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5):
            b = a + offset * 1e3 * rng.normal(size=a.shape)
            got = weighted_segment_distances(Tensor(b), Tensor(a), Tensor(np.ones(1)), [(0, 4)])
            want = explicit_distances(b, a, [(0, 4)])[0]
            np.testing.assert_allclose(got.data, want, rtol=1e-9, atol=0.0, err_msg=str(offset))


def test_rejects_bad_segments_and_shapes():
    b, a = Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="out of range"):
        weighted_segment_distances(b, a, Tensor(np.ones(2)), [(0, 2), (2, 5)])
    for bounds in ([(0, 1), (2, 4)], [(2, 4), (0, 2)], [(0, 2)]):
        with pytest.raises(ValueError, match="tile"):
            weighted_segment_distances(b, a, Tensor(np.ones(len(bounds))), bounds)
    with pytest.raises(ValueError, match="segment weights"):
        weighted_segment_distances(b, a, Tensor(np.ones(3)), [(0, 2), (2, 4)])
    with pytest.raises(ValueError, match="matrices"):
        squared_distances(b, Tensor(np.zeros((2, 3))))


@st.composite
def factor_cases(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(1, 8))
    pieces = draw(st.integers(1, r))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = scale * rng.normal(size=(m, r))
    a = scale * rng.normal(size=(n, r))
    # copy some rows of B into A, exactly or nudged by a relative offset
    for j in range(draw(st.integers(0, n))):
        offset = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]))
        a[j] = b[draw(st.integers(0, m - 1))] + offset * scale * rng.normal(size=r)
    alpha = rng.uniform(-2.0, 2.0, size=pieces)
    return b, a, alpha, segment_bounds(r, pieces), rng.normal(size=(m, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_cases())
def test_fused_ops_match_explicit_differences(case):
    b, a, alpha, bounds, g = case
    dist = explicit_distances(b, a, bounds)
    got = weighted_segment_distances(Tensor(b), Tensor(a), Tensor(alpha), bounds).data
    want = np.tensordot(alpha, dist, axes=1)
    # each term's own size bounds its rounding; with one-signed weights this is |want|
    size = np.tensordot(np.abs(alpha), dist, axes=1)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, size))
    d2 = explicit_distances(b, a, [(0, b.shape[1])])[0] ** 2
    got2 = squared_distances(Tensor(b), Tensor(a)).data
    assert np.all(np.abs(got2 - d2) <= 1e-9 * np.maximum(1.0, d2))
    for grad in fused_gradients(b, a, alpha, bounds, g):
        assert np.all(np.isfinite(grad))


def _gradients(merge_fn, kind, pieces, a, b, weights, values=None, spec=None):
    """The merge and the gradients of sum(weights * merge) by A, B and each coefficient."""
    pair = LowRankPair(A=Tensor(a.copy(), requires_grad=True),
                       B=Tensor(b.copy(), requires_grad=True))
    if values is None:
        values = KernelSpec.canonical(kind, pieces=pieces).coefficient_values() * 0.9 + 0.05
    spec = spec or KernelSpec.from_coefficient_values(kind, values)
    params = [pair.A, pair.B, *spec.coefficients()]
    out = merge_fn(spec, pair)
    grads = record_and_backward(lambda: reduce_sum(mul(merge_fn(spec, pair), weights)), params)
    return [out.data] + [grads[p].data for p in params]


@pytest.mark.parametrize("pieces", [1, 2, 3])
@pytest.mark.parametrize("kind", [KernelKind.P_LINEAR, KernelKind.MIX_K, KernelKind.RBF,
                                  KernelKind.RBF_NORMALIZED])
def test_merge_matches_composed_oracle_at_64x48(kind, pieces):
    rng = np.random.default_rng([pieces, 48])
    a, b = 0.5 * rng.normal(size=(48, 8)), 0.5 * rng.normal(size=(64, 8))
    weights = Tensor(rng.normal(size=(64, 48)))
    fused = _gradients(merge, kind, pieces, a, b, weights)
    oracle = _gradients(composed_merge, kind, pieces, a, b, weights)
    np.testing.assert_allclose(fused[0], oracle[0], rtol=0.0, atol=1e-12 * np.abs(oracle[0]).max())
    scale = max(np.abs(x).max() for x in oracle[1:])
    for got, want in zip(fused[1:], oracle[1:]):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("r, pieces", [(3, 2), (7, 3)])
@pytest.mark.parametrize("kind", [KernelKind.P_LINEAR, KernelKind.MIX_K])
def test_unequal_pieces_match_composed_oracle(kind, r, pieces):
    # the pieces lie on one axis, the narrower ones zero-padded to the widest
    # one's width; one row pair sits inside the cancellation guard
    rng = np.random.default_rng([r, pieces])
    a, b = 0.5 * rng.normal(size=(20, r)), 0.5 * rng.normal(size=(24, r))
    a[3] = b[5] + 1e-9
    weights = Tensor(rng.normal(size=(24, 20)))
    fused = _gradients(merge, kind, pieces, a, b, weights)
    oracle = _gradients(composed_merge, kind, pieces, a, b, weights)
    np.testing.assert_allclose(fused[0], oracle[0], rtol=0.0, atol=1e-12 * np.abs(oracle[0]).max())
    scale = max(np.abs(x).max() for x in oracle[1:])
    for got, want in zip(fused[1:], oracle[1:]):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * scale)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_merge_holds_no_m_n_r_array(kind):
    m, n, r = 128, 96, 64
    rng = np.random.default_rng(3)
    pair = LowRankPair(A=Tensor(rng.normal(size=(n, r)), requires_grad=True),
                       B=Tensor(rng.normal(size=(m, r)), requires_grad=True))
    spec = KernelSpec.canonical(kind, pieces=2, trainable=True)
    tracemalloc.start()
    try:
        backward(reduce_sum(merge(spec, pair)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * n * r * 8 / 4, f"{kind.value}: peak {peak} bytes"


@pytest.mark.parametrize("kind", [KernelKind.P_LINEAR, KernelKind.MIX_K, KernelKind.RBF,
                                  KernelKind.RBF_NORMALIZED])
def test_stacked_merge_equals_merge_of_each_slice(kind):
    # three slices with their own factors and coefficients; one slice has a
    # row pair inside the cancellation guard
    rng = np.random.default_rng([7, len(kind.value)])
    a, b = 0.5 * rng.normal(size=(3, 20, 6)), 0.5 * rng.normal(size=(3, 24, 6))
    a[1, 4] = b[1, 9] + 1e-9
    weights = rng.normal(size=(3, 24, 20))
    base = KernelSpec.canonical(kind, pieces=3).coefficient_values()
    values = [base * 0.9 + 0.05 + 0.1 * rng.uniform(size=base.size) for _ in range(3)]
    solo = [_gradients(merge, kind, 3, a[s], b[s], Tensor(weights[s]), values[s])
            for s in range(3)]
    specs = [KernelSpec.from_coefficient_values(kind, v) for v in values]
    stacked = specs[0].stacked(3)
    for c, *slices in zip(stacked.coeffs, *(spec.coeffs for spec in specs)):
        c.data[...] = np.stack([x.data for x in slices]).reshape(c.data.shape)
    batched = _gradients(merge, kind, 3, a, b, Tensor(weights), spec=stacked)
    for s in range(3):
        for got, want in zip(batched, solo[s]):
            np.testing.assert_array_equal(got[s].reshape(want.shape), want)


def _grad_check_case(kind, seed):
    """The draw of `klora grad-check` at its defaults (8 x 6, rank 4, 2 pieces)."""
    rng = np.random.default_rng([seed, 0xEC])
    a, b = rng.normal(size=(6, 4)), rng.normal(size=(8, 4))
    spec = KernelSpec.canonical(kind, pieces=2, trainable=True)
    return a, b, Tensor(rng.normal(size=(8, 6))), spec


@pytest.mark.parametrize("kind, seed", [(KernelKind.RBF_NORMALIZED, 0), (KernelKind.RBF, 12)])
def test_grad_check_failures_were_not_gradient_errors(kind, seed):
    # the entries `klora grad-check` used to fail on (gradients near 1e-8 to
    # 1e-6) agree with the composed oracle to rounding: the check, not the
    # gradient, was at fault
    a, b, weights, spec = _grad_check_case(kind, seed)
    fused = _gradients(merge, kind, 2, a, b, weights, spec=spec)
    oracle = _gradients(composed_merge, kind, 2, a, b, weights, spec=spec)
    scale = max(np.abs(x).max() for x in oracle[1:])
    for got, want in zip(fused[1:], oracle[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15 * scale)
