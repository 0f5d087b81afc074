"""Kernel evaluation, merge, rank, and PSD tests.

Rank assertions are cross-checked against a pivoted Gaussian elimination
oracle that shares nothing with the SVD-based implementation.
"""

import math

import numpy as np
import pytest

from klora.kernels import (
    KINDS,
    KernelKind,
    KernelSpec,
    LowRankPair,
    kernel_coefficient_count,
    mean_abs_factor_gradient,
    merge,
    numerical_rank,
    psd_check,
    segment_bounds,
)
from klora.tensor import Tensor, finite_diff_check, record_and_backward, reduce_sum

ALL_KINDS = list(KernelKind)


def elimination_rank(matrix, tol=1e-9):
    """Rank by Gaussian elimination with partial pivoting (test oracle)."""
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.size == 0:
        return 0
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0
    rows, cols = a.shape
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= tol * scale:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row + 1 :, col:] -= np.outer(a[row + 1 :, col] / a[row, col], a[row, col:])
        rank += 1
        row += 1
    return rank


def pairwise(spec, a, b):
    """The kernel between two r-vectors: the 1 x 1 merge of B = [a] against A = [b]."""
    return KINDS[spec.kind].merge(spec, Tensor(np.atleast_2d(a)), Tensor(np.atleast_2d(b))).item()


def random_pair(rng, m, n, r, std=1.0):
    return LowRankPair(
        A=Tensor(rng.normal(0.0, std, size=(n, r)), requires_grad=True),
        B=Tensor(rng.normal(0.0, std, size=(m, r)), requires_grad=True),
    )


class TestSegmentBounds:
    def test_even_split(self):
        assert segment_bounds(4, 2) == [(0, 2), (2, 4)]

    def test_uneven_split_puts_remainder_last(self):
        assert segment_bounds(5, 2) == [(0, 2), (2, 5)]

    def test_single_segment(self):
        assert segment_bounds(3, 1) == [(0, 3)]

    def test_cover_disjoint_fuzz(self):
        for r in range(1, 17):
            for p in range(1, r + 1):
                bounds = segment_bounds(r, p)
                assert bounds[0][0] == 0 and bounds[-1][1] == r
                for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
                    assert e0 == s1 and s0 < e0

    def test_rejects_bad_piece_counts(self):
        with pytest.raises(ValueError):
            segment_bounds(3, 0)
        with pytest.raises(ValueError):
            segment_bounds(3, 4)


class TestPairwiseValues:
    def test_plinear_zero_distance(self):
        spec = KernelSpec.canonical(KernelKind.P_LINEAR, pieces=2)
        a = np.array([1.0, -2.0, 0.5, 3.0])
        assert pairwise(spec, a, a) == 0.0

    def test_sigmoid_at_zero_inner_product(self):
        spec = KernelSpec.from_coefficient_values(KernelKind.SIGMOID, [2.0, 1.0, 0.25])
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert pairwise(spec, a, b) == pytest.approx(2.0 * 0.5 + 0.25, abs=1e-15)

    def test_plinear_hand_value(self):
        # r=4, P=2, unit piece scales, a=(1,2,3,4), b=0:
        # segments [0,2) and [2,4) give norm(1,2)=sqrt(5) and norm(3,4)=5.
        spec = KernelSpec.canonical(KernelKind.P_LINEAR, pieces=2)
        val = pairwise(spec, np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
        assert val == pytest.approx(math.sqrt(5.0) + 5.0, abs=1e-12)

    def test_linear_is_inner_product(self):
        spec = KernelSpec(kind=KernelKind.LINEAR)
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, -5.0, 6.0])
        assert pairwise(spec, a, b) == pytest.approx(float(a @ b), abs=1e-12)

    def test_rbf_value(self):
        spec = KernelSpec.canonical(KernelKind.RBF)
        a = np.array([1.0, 1.0])
        b = np.array([0.0, 0.0])
        assert pairwise(spec, a, b) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ranks differ"):
            LowRankPair(A=Tensor(np.zeros((4, 3))), B=Tensor(np.zeros((4, 4))))

    @pytest.mark.parametrize("kind", [KernelKind.LINEAR, KernelKind.P_LINEAR, KernelKind.RBF])
    def test_symmetry(self, kind):
        rng = np.random.default_rng(13)
        spec = KernelSpec.canonical(kind, pieces=2)
        for _ in range(5):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            assert pairwise(spec, a, b) == pytest.approx(pairwise(spec, b, a), rel=1e-12)


class TestMerge:
    def test_linear_outer_product(self):
        pair = LowRankPair(A=Tensor([[1.0], [2.0]]), B=Tensor([[3.0], [4.0]]))
        out = merge(KernelSpec(kind=KernelKind.LINEAR), pair)
        np.testing.assert_array_equal(out.data, [[3.0, 6.0], [4.0, 8.0]])

    def test_mixk_all_zero_coefficients_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        pair = random_pair(rng, 5, 4, 3)
        spec = KernelSpec.zero_init(KernelKind.MIX_K, pieces=2)
        out = merge(spec, pair)
        np.testing.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_mixk_column_component_sums_to_alpha(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pair = random_pair(rng, 7, 5, 3)
            alpha = 1.7
            beta = -0.3
            spec = KernelSpec.from_coefficient_values(KernelKind.MIX_K, [1.0, 1.0, alpha, beta])
            full = merge(spec, pair).data
            plain = merge(KernelSpec.canonical(KernelKind.P_LINEAR, pieces=2), pair).data
            col_sums = (full - plain - beta).sum(axis=0)
            np.testing.assert_allclose(col_sums, alpha, atol=1e-9)

    def test_rbf_normalized_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng, 6, 4, 2)
        spec = KernelSpec.canonical(KernelKind.RBF_NORMALIZED)
        out = merge(spec, pair).data
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_zero_init_merge_is_zero_for_zeroable_kinds(self):
        rng = np.random.default_rng(3)
        pair = random_pair(rng, 5, 4, 3)
        for kind in (KernelKind.P_LINEAR, KernelKind.MIX_K, KernelKind.SIGMOID, KernelKind.RBF):
            spec = KernelSpec.zero_init(kind, pieces=2)
            np.testing.assert_array_equal(merge(spec, pair).data, np.zeros((5, 4)))

    def test_zero_init_coefficients_receive_nonzero_gradients(self):
        rng = np.random.default_rng(4)
        pair = random_pair(rng, 5, 4, 3)
        for kind in (KernelKind.P_LINEAR, KernelKind.MIX_K, KernelKind.SIGMOID, KernelKind.RBF):
            spec = KernelSpec.zero_init(kind, pieces=2)
            coeffs = spec.coefficients()
            grads = record_and_backward(lambda: reduce_sum(merge(spec, pair)), coeffs)
            assert any(np.abs(grads[c].data).max() > 0 for c in coeffs), kind


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4), 1e-6) == 4

    def test_outer_product(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([4.0, 5.0])
        assert numerical_rank(np.outer(u, v), 1e-6) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0

    def test_low_rank_product_matches_elimination_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b = rng.normal(size=(16, 3))
            a = rng.normal(size=(16, 3))
            prod = b @ a.T
            assert numerical_rank(prod, 1e-9) == 3
            assert elimination_rank(prod) == 3

    def test_oracle_agreement_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            k = min(k, m, n)
            mat = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
            assert numerical_rank(mat, 1e-9) == elimination_rank(mat) == k

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank(bad, 1e-6)

    def test_matrix_gives_an_int(self):
        assert type(numerical_rank(np.eye(3), 1e-9)) is int
        assert type(numerical_rank(np.zeros((0, 3)), 1e-9)) is int

    def test_stack_equals_the_per_matrix_calls(self):
        rng = np.random.default_rng(11)
        stack = np.stack([rng.normal(size=(12, 9)),
                          rng.normal(size=(12, 2)) @ rng.normal(size=(2, 9)),
                          np.zeros((12, 9)),
                          rng.normal(size=(12, 5)) @ rng.normal(size=(5, 9))])
        counts = numerical_rank(stack, 1e-9)
        assert counts.tolist() == [numerical_rank(m, 1e-9) for m in stack] == [9, 2, 0, 5]
        nested = numerical_rank(stack.reshape(2, 2, 12, 9), 1e-9)
        assert nested.tolist() == [[9, 2], [0, 5]]

    def test_empty_stack_gives_zeros(self):
        assert numerical_rank(np.zeros((3, 0, 4)), 1e-9).tolist() == [0, 0, 0]
        assert numerical_rank(np.zeros((0, 4, 4)), 1e-9).tolist() == []

    def test_nonfinite_entry_of_a_stack_rejected(self):
        stack = np.stack([np.eye(3), np.eye(3)])
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank(stack, 1e-6)


class TestRankProperties:
    def test_linear_merge_rank_at_most_r(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pair = random_pair(rng, 64, 64, 4)
            out = merge(KernelSpec(kind=KernelKind.LINEAR), pair)
            assert numerical_rank(out.data, 1e-6) <= 4

    @pytest.mark.parametrize("kind", [KernelKind.P_LINEAR, KernelKind.MIX_K])
    def test_nonlinear_merge_exceeds_r(self, kind):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pair = random_pair(rng, 64, 64, 4)
            out = merge(KernelSpec.canonical(kind, pieces=2), pair)
            assert numerical_rank(out.data, 1e-6) > 4, f"{kind} seed {seed}"


class TestPsd:
    def test_linear_gram_is_psd(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(8, 4))
        assert psd_check(KernelSpec(kind=KernelKind.LINEAR), pts) >= -1e-8

    def test_rbf_gram_is_psd(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(8, 4))
        spec = KernelSpec.canonical(KernelKind.RBF)
        assert psd_check(spec, pts) >= -1e-8

    def test_single_point_gram_nonnegative(self):
        spec = KernelSpec.canonical(KernelKind.RBF)
        assert psd_check(spec, np.array([[0.3, -0.7]])) >= 0.0

    def test_column_normalized_kinds_rejected(self):
        pts = np.random.default_rng(10).normal(size=(5, 2))
        for kind in (KernelKind.MIX_K, KernelKind.RBF_NORMALIZED):
            with pytest.raises(ValueError, match="not symmetric"):
                psd_check(KernelSpec.canonical(kind), pts)


class TestMergeGradients:
    def test_mixk_merge_loss_finite_difference_at_coarser_step(self):
        rng = np.random.default_rng(31)
        pair = random_pair(rng, 4, 3, 2, std=0.8)
        spec = KernelSpec.canonical(KernelKind.MIX_K, pieces=2, trainable=True)
        params = [pair.A, pair.B, *spec.coefficients()]
        report = finite_diff_check(
            lambda: reduce_sum(merge(spec, pair)), params, h=1e-4, tol=1e-5
        )
        assert report.passed, report.max_rel_err

    def test_all_zero_factors_give_zero_factor_gradients_everywhere(self):
        # symmetric start: every kernel's factor gradient vanishes at the
        # all-zero factor configuration (subgradients at kinks are 0)
        for kind in ALL_KINDS:
            pair = LowRankPair(
                A=Tensor(np.zeros((3, 2)), requires_grad=True),
                B=Tensor(np.zeros((4, 2)), requires_grad=True),
            )
            spec = KernelSpec.canonical(kind, pieces=2)
            grads = record_and_backward(
                lambda: reduce_sum(merge(spec, pair)), [pair.A, pair.B]
            )
            np.testing.assert_array_equal(grads[pair.A].data, 0.0, err_msg=str(kind))
            np.testing.assert_array_equal(grads[pair.B].data, 0.0, err_msg=str(kind))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_merge_gradcheck_wrt_factors_and_coefficients(self, kind):
        rng = np.random.default_rng(17)
        pair = random_pair(rng, 4, 3, 2, std=0.8)
        spec = KernelSpec.canonical(kind, pieces=2, trainable=True)
        params = [pair.A, pair.B] + spec.coefficients()
        weights = Tensor(rng.normal(size=(4, 3)))

        def program():
            from klora.tensor import mul

            return reduce_sum(mul(merge(spec, pair), weights))

        report = finite_diff_check(program, params, h=1e-5, tol=1e-5)
        assert report.passed, f"{kind}: {report.max_rel_err}"

    def test_gradient_vanishing_contrast_at_scale_ten(self):
        # Bare RBF gradients collapse at large factor scales; the mixed
        # kernel's stay at unit order. Ratio must be at most 0.1.
        ratios = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = 10.0
            a = rng.uniform(-c, c, size=(16, 4))
            b = rng.uniform(-c, c, size=(16, 4))

            def pair():
                return LowRankPair(
                    A=Tensor(a.copy(), requires_grad=True),
                    B=Tensor(b.copy(), requires_grad=True),
                )

            rbf = mean_abs_factor_gradient(KernelSpec.canonical(KernelKind.RBF), pair())
            mixk = mean_abs_factor_gradient(
                KernelSpec.canonical(KernelKind.MIX_K, pieces=2), pair()
            )
            ratios.append(rbf / mixk)
        assert max(ratios) <= 0.1, ratios


class TestSpecPlumbing:
    def test_parse_aliases(self):
        assert KernelKind("MixK") is KernelKind.MIX_K
        assert KernelKind("p_linear") is KernelKind.P_LINEAR
        assert KernelKind("rbf-normalized") is KernelKind.RBF_NORMALIZED

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelKind("polynomial")

    def test_coefficient_roundtrip(self):
        for kind in ALL_KINDS:
            spec = KernelSpec.canonical(kind, pieces=3)
            vals = spec.coefficient_values()
            back = KernelSpec.from_coefficient_values(kind, vals)
            np.testing.assert_array_equal(back.coefficient_values(), vals)
            assert back.pieces == spec.pieces or kind not in (
                KernelKind.P_LINEAR,
                KernelKind.MIX_K,
            )

    @pytest.mark.parametrize("pieces", [2.5, True, 2.0])
    def test_non_integer_piece_count_rejected(self, pieces):
        for kind in ("mix-k", "linear"):
            with pytest.raises(ValueError, match="pieces must be an integer"):
                kernel_coefficient_count(kind, pieces)
            with pytest.raises(ValueError, match="pieces must be an integer"):
                KernelSpec(kind=kind, pieces=pieces)
        for build in (KernelSpec.zero_init, KernelSpec.canonical):
            with pytest.raises(ValueError, match="pieces must be an integer"):
                build("p-linear", pieces=pieces)

    def test_numpy_integer_piece_count_accepted(self):
        assert kernel_coefficient_count("mix-k", np.int64(3)) == 5
        assert KernelSpec.zero_init("p-linear", pieces=np.int64(3)).coeffs[0].data.shape == (3,)

    def test_rbf_beta_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            KernelSpec(kind=KernelKind.RBF, coeffs=(Tensor(1.0), Tensor(0.0), Tensor(0.0)))

    def test_pair_rank_validation(self):
        with pytest.raises(ValueError, match="rank"):
            LowRankPair(A=Tensor(np.zeros((2, 3))), B=Tensor(np.zeros((2, 3))))
