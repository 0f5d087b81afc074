"""Gradient-engine tests: analytic cases, finite-difference oracles, properties."""

import math

import numpy as np
import pytest

from klora.kernels import KernelKind, KernelSpec, LowRankPair, merge
from klora.tensor import (
    GradientReport,
    Tensor,
    _make,
    absolute,
    add,
    affine,
    backward,
    checkpoint,
    column_softmax,
    exp,
    finite_diff_check,
    log,
    matmul,
    mean_squared_error,
    mixed_segment_distances,
    mul,
    reciprocal,
    record_and_backward,
    rectify,
    reduce_mean,
    reduce_sum,
    reshape,
    scalar_add,
    scalar_mul,
    sign,
    soft_threshold,
    softmax,
    square,
    stack,
    squared_distances,
    sub,
    transpose,
    weighted_segment_distances,
)


def test_sum_gradient_is_ones():
    a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    grads = record_and_backward(lambda: a.sum(), [a])
    np.testing.assert_array_equal(grads[a].data, np.ones((3, 4)))


def test_elementwise_square_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    grads = record_and_backward(lambda: mul(a, a).sum(), [a])
    np.testing.assert_array_equal(grads[a].data, [2.0, 4.0])


def test_matmul_sum_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    report = finite_diff_check(lambda: matmul(b, transpose(a)).sum(), [a, b], h=1e-5, tol=1e-7)
    assert report.passed, report.max_rel_err


def test_column_softmax_uniform():
    col = Tensor(np.full((4, 1), 3.7))
    out = column_softmax(col)
    np.testing.assert_allclose(out.data, 0.25)


def test_sign_carries_zero_gradient():
    x = Tensor([-2.0, 5.0], requires_grad=True)
    grads = record_and_backward(lambda: mul(sign(x), x).sum(), [x])
    # d(sign(x) * x)/dx with sign detached is sign(x).
    np.testing.assert_array_equal(grads[x].data, [-1.0, 1.0])


def test_unreachable_parameter_gets_zero_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([5.0], requires_grad=True)
    grads = record_and_backward(lambda: a.sum(), [a, b])
    np.testing.assert_array_equal(grads[b].data, [0.0])


def test_non_scalar_output_rejected():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        record_and_backward(lambda: mul(a, a), [a])


def test_gradient_linearity_in_scalar_factor():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(5,)), requires_grad=True)
    g1 = record_and_backward(lambda: exp(a).sum(), [a])[a].data
    g7 = record_and_backward(lambda: (7.0 * exp(a)).sum(), [a])[a].data
    np.testing.assert_allclose(g7, 7.0 * g1, rtol=0, atol=0)


def test_gradient_of_sum_of_terms_adds():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(6,)), requires_grad=True)
    g_first = record_and_backward(lambda: square(a).sum(), [a])[a].data
    g_second = record_and_backward(lambda: exp(a).sum(), [a])[a].data
    g_both = record_and_backward(lambda: (square(a).sum() + exp(a).sum()), [a])[a].data
    np.testing.assert_allclose(g_both, g_first + g_second, rtol=1e-15)


def _random_smooth_input(rng, shape, low=0.3, high=1.5):
    # keep magnitudes away from 0 so abs/rectify/norm kinks are not sampled
    mags = rng.uniform(low, high, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mags * signs


# constants for the affine cases, and a mask and offset that pin three
# entries of a soft_threshold input at 0, +tau and -tau (tau = 0.7) whatever
# the perturbation, so the check runs with entries sitting on the kinks
_W0 = np.random.default_rng(43).normal(size=(4, 4))
_BIAS = np.random.default_rng(44).normal(size=4)
_KINK_MASK = np.ones((4, 4))
_KINK_MASK[0, :3] = 0.0
_KINK_OFFSET = np.zeros((4, 4))
_KINK_OFFSET[0, 1:3] = 0.7, -0.7


def _per_slice(t, fn):
    """fn of each half of a 4 x 4 tensor, as the (2, 1, 1) scalars of a stack of two."""
    return reshape(reduce_mean(reshape(fn(t), (2, 8)), axis=1), (2, 1, 1))


@pytest.mark.parametrize(
    "name,builder",
    [
        ("exp", lambda a, b: exp(a).sum()),
        ("log_abs", lambda a, b: log(absolute(a)).sum()),
        ("square", lambda a, b: square(a).sum()),
        ("reciprocal", lambda a, b: reciprocal(a).sum()),
        ("mul", lambda a, b: mul(a, b).sum()),
        ("sub", lambda a, b: sub(a, b).sum()),
        ("rectify", lambda a, b: rectify(a).sum()),
        ("abs", lambda a, b: absolute(a).sum()),
        ("mean_axis", lambda a, b: square(reduce_mean(a, axis=1)).sum()),
        ("sum_axis", lambda a, b: square(reduce_sum(a, axis=0)).sum()),
        ("softmax_cols", lambda a, b: mul(column_softmax(a), b).sum()),
        ("softmax_rows", lambda a, b: mul(softmax(a, axis=1), b).sum()),
        ("matmul", lambda a, b: matmul(a, transpose(b)).sum()),
        ("transpose", lambda a, b: mul(transpose(a), transpose(b)).sum()),
        ("reshape", lambda a, b: square(reshape(a, (8, 2))).sum()),
        ("segdist", lambda a, b: mul(weighted_segment_distances(
            a, b, Tensor([0.7, -1.3]), [(0, 1), (1, 4)]), transpose(b)).sum()),
        ("sqdist", lambda a, b: mul(squared_distances(a, b), transpose(a)).sum()),
        # stacks of two 2 x 4 factor matrices, with per-slice weights drawn from a
        ("segdist_stacked", lambda a, b: square(weighted_segment_distances(
            reshape(a, (2, 2, 4)), reshape(b, (2, 2, 4)), reshape(reduce_mean(a, axis=1), (2, 2)),
            [(0, 1), (1, 4)])).sum()),
        ("sqdist_stacked", lambda a, b: square(mul(
            reshape(reduce_mean(reshape(b, (2, 8)), axis=1), (2, 1, 1)),
            squared_distances(reshape(a, (2, 2, 4)), reshape(b, (2, 2, 4))))).sum()),
        ("softmax_cols_stacked", lambda a, b: mul(
            column_softmax(reshape(a, (2, 2, 4))), reshape(b, (2, 2, 4))).sum()),
        # the mix-k merge, with its piece weights drawn from a and alpha, beta from b
        ("mixed_segment_distances", lambda a, b: mul(mixed_segment_distances(
            a, b, reduce_mean(reshape(a, (2, 8)), axis=1), reduce_mean(b), reduce_mean(square(b)),
            [(0, 1), (1, 4)]), transpose(b)).sum()),
        ("mixed_segment_distances_stacked", lambda a, b: square(mixed_segment_distances(
            reshape(a, (2, 2, 4)), reshape(b, (2, 2, 4)), reshape(reduce_mean(a, axis=1), (2, 2)),
            _per_slice(b, lambda t: t), _per_slice(b, square), [(0, 1), (1, 4)])).sum()),
        ("soft_threshold", lambda a, b: mul(soft_threshold(a, 0.7), b).sum()),
        ("soft_threshold_kinks", lambda a, b: mul(soft_threshold(
            add(mul(a, Tensor(_KINK_MASK)), Tensor(_KINK_OFFSET)), 0.7), b).sum()),
        ("soft_threshold_tau0", lambda a, b: mul(
            soft_threshold(mul(a, Tensor(_KINK_MASK)), 0.0), b).sum()),
        ("affine", lambda a, b: square(affine(a, _W0, b, _BIAS)).sum()),
        ("affine_no_bias", lambda a, b: square(affine(a, _W0, b)).sum()),
    ],
)
def test_primitive_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(42)
    a = Tensor(_random_smooth_input(rng, (4, 4)), requires_grad=True)
    b = Tensor(_random_smooth_input(rng, (4, 4)), requires_grad=True)
    report = finite_diff_check(lambda: builder(a, b), [a, b], h=1e-5, tol=1e-5)
    assert report.passed, f"{name}: max rel err {report.max_rel_err}"


def test_exp_finite_difference_tight():
    rng = np.random.default_rng(11)
    a = Tensor(rng.uniform(-1.0, 1.0, size=(6,)), requires_grad=True)
    report = finite_diff_check(lambda: exp(a).sum(), [a], h=1e-4, tol=1e-6)
    assert report.passed


def test_linear_program_finite_difference_is_exact():
    a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    report = finite_diff_check(lambda: (2.0 * a).sum(), [a], h=1e-3, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_finite_diff_check_rejects_bad_step():
    a = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        finite_diff_check(lambda: a.sum(), [a], h=0.0, tol=1e-5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_diff_check_reports_nonfinite():
    a = Tensor([700.0], requires_grad=True)
    with pytest.raises(FloatingPointError):
        finite_diff_check(lambda: exp(square(a)).sum(), [a], h=1e-4, tol=1e-5)


def _merge_program(kind, seed, grad_scale=1.0):
    """The program `klora grad-check` checks at its defaults, its gradient scaled by grad_scale."""
    rng = np.random.default_rng([seed, 0xEC])
    pair = LowRankPair(A=Tensor(rng.normal(size=(6, 4)), requires_grad=True),
                       B=Tensor(rng.normal(size=(8, 4)), requires_grad=True))
    spec = KernelSpec.canonical(kind, pieces=2, trainable=True)
    weights = Tensor(rng.normal(size=(8, 6)))

    def program():
        out = reduce_sum(mul(merge(spec, pair), weights))
        return _make(out.data, (out,), lambda g: (g * grad_scale,))

    return program, [pair.A, pair.B, *spec.coefficients()]


@pytest.mark.parametrize("h", [1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("kind, seed", [(KernelKind.RBF_NORMALIZED, 0), (KernelKind.RBF, 12)])
def test_finite_diff_check_passes_tiny_correct_gradients(kind, seed, h):
    # these draws have gradient entries near 1e-8 to 1e-6, where the central
    # difference's rounding alone once gave relative errors up to 1e-3
    program, params = _merge_program(kind, seed)
    assert finite_diff_check(program, params, h=h, tol=1e-5).passed


@pytest.mark.parametrize("h", [1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_finite_diff_check_fails_a_gradient_off_by_1e_4(kind, h):
    program, params = _merge_program(kind, 0, grad_scale=1.0 + 1e-4)
    report = finite_diff_check(program, params, h=h, tol=1e-5)
    assert not report.passed
    assert report.max_rel_err > 5e-5


def test_finite_diff_check_rounding_allowance_stays_small():
    # f = 0.8 + 7e-7 * sum(a): the difference is exact up to rounding, whose
    # bound 16 eps (2 * 0.8) / (2h) is near 3e-10 at h = 1e-5; an error of
    # 1e-9 on a gradient of 7e-7 still fails
    a = Tensor(np.zeros(3), requires_grad=True)

    def program(slope):
        def f():
            out = scalar_add(scalar_mul(a, 7e-7).sum(), 0.8)
            return _make(out.data, (out,), lambda g: (g * slope / 7e-7,))
        return f

    assert finite_diff_check(program(7e-7), [a], h=1e-5, tol=1e-5).passed
    assert not finite_diff_check(program(7e-7 + 1e-9), [a], h=1e-5, tol=1e-5).passed


def test_gradient_report_shape():
    a = Tensor([0.5, 1.5], requires_grad=True)
    report = finite_diff_check(lambda: square(a).sum(), [a], h=1e-5, tol=1e-5)
    assert isinstance(report, GradientReport)
    assert len(report.per_param) == 1
    assert report.h == 1e-5
    assert report.max_rel_err >= 0.0 and math.isfinite(report.max_rel_err)


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.ones((3, 1, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 4, 2)), requires_grad=True)
    grads = record_and_backward(lambda: sub(a, b).sum(), [a, b])
    np.testing.assert_array_equal(grads[a].data, np.full((3, 1, 2), 4.0))
    np.testing.assert_array_equal(grads[b].data, np.full((1, 4, 2), -3.0))


def test_softmax_empty_axis_rejected():
    with pytest.raises(ValueError, match="empty"):
        softmax(Tensor(np.zeros((0, 3))), axis=0)


def test_matmul_shape_mismatch_rejected():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        matmul(a, b)


@pytest.mark.parametrize("target_shape", [(3, 3, 3), (4, 2, 3, 3), (2, 3, 4)])
def test_mean_squared_error_rejects_a_target_that_does_not_broadcast(target_shape):
    x = Tensor(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="target that broadcasts"):
        mean_squared_error(x, np.zeros(target_shape))


def test_stack_of_no_parts_rejected():
    with pytest.raises(ValueError, match="at least one part"):
        stack([])


def test_a_stack_of_one_part_views_it():
    part = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = stack([part])
    assert out.data.shape == (1, 2, 3) and np.shares_memory(out.data, part.data)
    backward(reduce_sum(mul(out, Tensor(np.arange(6.0).reshape(1, 2, 3)))))
    np.testing.assert_array_equal(part.grad, np.arange(6.0).reshape(2, 3))


def test_mixed_segment_distances_rejects_misshaped_coefficients():
    b, a = Tensor(np.ones((2, 4, 2))), Tensor(np.ones((2, 3, 2)))
    alpha_p, good = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 1, 1)))
    more = Tensor(np.ones((3, 1, 1)))  # a mix of more slices than the stack has
    for alpha, beta in [(Tensor(1.0), good), (good, Tensor(np.ones((2, 4, 3)))), (more, more),
                        (good, Tensor(np.ones((1, 1, 1))))]:
        with pytest.raises(ValueError, match="alpha and beta of shape"):
            mixed_segment_distances(b, a, alpha_p, alpha, beta, [(0, 1), (1, 2)])


def test_shape_invariant_product_equals_length():
    t = Tensor(np.zeros((3, 5, 2)))
    assert int(np.prod(t.shape)) == t.size


def test_backward_gradient_shapes_match_parameters():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    grads = record_and_backward(lambda: matmul(b, transpose(a)).sum(), [a, b])
    assert grads[a].data.shape == a.data.shape
    assert grads[b].data.shape == b.data.shape


def test_checkpoint_matches_direct_gradients():
    rng = np.random.default_rng(21)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def merge_like(x, y):
        return matmul(y, transpose(x))

    direct = record_and_backward(lambda: square(merge_like(a, b)).sum(), [a, b])
    ckpt = record_and_backward(lambda: square(checkpoint(merge_like, a, b)).sum(), [a, b])
    np.testing.assert_array_equal(direct[a].data, ckpt[a].data)
    np.testing.assert_array_equal(direct[b].data, ckpt[b].data)


def test_determinism_same_inputs_same_gradients():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, 3))
    runs = []
    for _ in range(2):
        a = Tensor(vals.copy(), requires_grad=True)
        g = record_and_backward(lambda: exp(mul(a, a)).sum(), [a])[a].data
        runs.append(g.copy())
    np.testing.assert_array_equal(runs[0], runs[1])
