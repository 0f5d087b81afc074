"""Sparsity machinery tests: EMAs, scores, schedules, allocation, thresholds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_unit_alloc
from klora import allocation, config
from klora.allocation import (
    AllocationResult,
    BudgetSchedule,
    ImportanceState,
    Metric,
    ScheduleKind,
    SparsifyMode,
    alloc,
    budget_at,
    layer_score,
    sensitivity,
    sparsify,
    sparsify_with_threshold,
    threshold_for_budget,
)
from klora.choices import SettingError
from klora.model import Trainer, build_model, group_merge
from klora.tensor import Tensor, backward, finite_diff_check, mul, reduce_sum


class TestSensitivity:
    def test_zero_gradient_gives_zero(self):
        p = np.ones((3, 2))
        np.testing.assert_array_equal(sensitivity(p, np.zeros_like(p)), np.zeros((3, 2)))

    def test_hand_value(self):
        np.testing.assert_array_equal(
            sensitivity(np.array([[2.0]]), np.array([[-3.0]])), np.array([[6.0]])
        )

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        expected = np.array([[abs(g[i, j] * p[i, j]) for j in range(2)] for i in range(3)])
        np.testing.assert_array_equal(sensitivity(p, g), expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            sensitivity(np.zeros((2, 2)), np.zeros((3, 2)))


class TestImportanceState:
    def test_first_update_seeds_state(self):
        st = ImportanceState(beta1=0.85, beta2=0.85)
        raw = np.full(4, 0.5)
        st.update(raw)
        assert st.t == 0
        np.testing.assert_array_equal(st.i_bar, raw)
        np.testing.assert_array_equal(st.u_bar, np.zeros(4))

    def test_constant_stream_keeps_uncertainty_zero(self):
        for b1, b2 in [(0.85, 0.85), (0.5, 0.99), (0.0, 0.0), (1.0, 1.0)]:
            st = ImportanceState(beta1=b1, beta2=b2)
            raw = np.array([1.25])
            for _ in range(10):
                st.update(raw)
                np.testing.assert_array_equal(st.u_bar, np.zeros(1))
                np.testing.assert_array_equal(st.i_bar, raw)

    def test_no_smoothing_tracks_raw(self):
        st = ImportanceState(beta1=0.0, beta2=0.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            raw = np.abs(rng.normal(size=6))
            st.update(raw)
            np.testing.assert_array_equal(st.i_bar, raw)
            np.testing.assert_array_equal(st.u_bar, np.zeros(6))

    def test_alternating_stream_matches_scalar_recurrence_oracle(self):
        b1 = b2 = 0.85
        st = ImportanceState(beta1=b1, beta2=b2)
        i_bar = u_bar = None
        for step in range(10):
            raw = float(step % 2)
            st.update(np.array([raw]))
            if i_bar is None:
                i_bar, u_bar = raw, 0.0
            else:
                i_bar = b1 * i_bar + (1 - b1) * raw
                u_bar = b2 * u_bar + (1 - b2) * abs(i_bar - raw)
            assert st.i_bar[0] == pytest.approx(i_bar, abs=1e-15)
            assert st.u_bar[0] == pytest.approx(u_bar, abs=1e-15)

    def test_uncertainty_stays_nonnegative(self):
        rng = np.random.default_rng(2)
        st = ImportanceState(beta1=0.7, beta2=0.6)
        for _ in range(50):
            st.update(np.abs(rng.normal(size=14)))
            assert (st.u_bar >= 0).all()

    def test_shape_change_rejected(self):
        st = ImportanceState()
        st.update(np.ones(3))
        with pytest.raises(ValueError, match="shape changed"):
            st.update(np.ones(4))


class TestLayerScore:
    def test_fresh_state_sensitivity_is_zero(self):
        st = ImportanceState()
        st.update(np.abs(np.random.default_rng(0).normal(size=8)))
        product = st.i_bar * st.u_bar
        assert layer_score([product.reshape(1, 8)]) == [0.0]
        assert layer_score([product.reshape(2, 4)]) == [0.0, 0.0]

    def test_magnitude_hand_value(self):
        # one layer, a stack of one; then two layers with (1, 2) A and B slices
        assert layer_score([np.abs([[1.0, -1.0]]), np.abs([[2.0, 2.0]])]) == [3.0]
        a = np.abs(np.array([[[1.0, -1.0]], [[3.0, 5.0]]]))
        b = np.abs(np.array([[[2.0, 2.0]], [[0.0, -1.0]]]))
        assert layer_score([a, b]) == [3.0, 4.5]

    def test_sensitivity_matches_elementwise_oracle(self):
        # two layers' (3, 2) A slices and (2, 2) B slices, and two kernel
        # coefficients the score skips, laid out as in the trainer's flat arena
        rng = np.random.default_rng(3)
        st = ImportanceState(beta1=0.9, beta2=0.8)
        for _ in range(4):
            st.update(np.abs(rng.normal(size=22)))
        a, b = slice(0, 12), slice(12, 20)
        product = st.i_bar * st.u_bar
        scores = layer_score([product[a].reshape(2, 3, 2), product[b].reshape(2, 2, 2)])
        i_a, u_a = st.i_bar[a].reshape(2, 3, 2), st.u_bar[a].reshape(2, 3, 2)
        i_b, u_b = st.i_bar[b].reshape(2, 2, 2), st.u_bar[b].reshape(2, 2, 2)
        expected = [float(np.mean(i_a[k] * u_a[k]) + np.mean(i_b[k] * u_b[k])) for k in range(2)]
        assert scores == expected
        assert min(scores) >= 0.0
        assert layer_score([product.reshape(1, -1)]) == pytest.approx([np.mean(product)])

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda metric: metric.value)
    def test_group_scores_equal_the_per_layer_sums(self, metric):
        # groups of 1 (16 -> 8), 2 (the two 16 x 16 layers) and 4 (the attention
        # projections), each layer scored on its own by the sums of the reduction
        # the grouped scores replaced
        trainer = grouped_trainer(metric)
        assert sorted(len(group.layers) for group in trainer.model.groups) == [1, 2, 4]
        product = trainer.importance.i_bar * trainer.importance.u_bar
        want = []
        for group in trainer.model.groups:
            count = len(group.layers)
            if metric is Metric.SENSITIVITY:
                runs = [np.split(product[run], count) for run in trainer.factor_runs[group]]
                parts = list(zip(*runs))
            elif metric is Metric.MAGNITUDE:
                parts = [(np.abs(layer.pair.A.data), np.abs(layer.pair.B.data))
                         for layer in group.layers]
            else:
                merged = group_merge(group).data.reshape(count, *group.layers[0].w0.shape)
                parts = [(np.abs(w),) for w in merged]
            want.extend(float(sum(x.sum() / x.size for x in layer)) for layer in parts)
        scores = trainer.layer_scores()
        got = [scores[i] for group in trainer.model.groups for i in layer_indices(trainer, group)]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_metric_aliases(self):
        assert Metric("W-Magnitude") is Metric.W_MAGNITUDE
        with pytest.raises(ValueError, match="unknown"):
            Metric("entropy")


def grouped_trainer(metric):
    """A trainer two steps in whose layers form groups of 1, 2 and 4."""
    raw = {
        "model": {"layer_dims": [16, 16, 16, 8], "rank": 4,
                  "attention": {"position": 0, "tokens": 2}},
        "kernel": {"kind": "mix-k", "pieces": 2},
        "sparsity": {"importance_metric": metric.value},
        "train": {"batch_size": 8, "task": {"kind": "high-rank-regression", "samples": 16}},
    }
    run_config = config.apply_defaults(raw)
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    trainer = Trainer(build_model(dataset, trainer_config), trainer_config, dataset)
    for lo in (0, 8):
        trainer.train_step(dataset.x[lo:lo + 8], dataset.y[lo:lo + 8])
    return trainer


def layer_indices(trainer, group) -> list:
    """The positions of a group's layers among the trainer's layers."""
    return [next(i for i, layer in enumerate(trainer.layers) if layer is member)
            for member in group.layers]


class TestBudgetSchedule:
    def test_endpoints_exact(self):
        for kind in (ScheduleKind.LINEAR, ScheduleKind.QUADRATIC, ScheduleKind.CUBIC):
            sched = BudgetSchedule(b0=937, bT=211, T=13, kind=kind)
            assert budget_at(sched, 0) == 937
            assert budget_at(sched, 13) == 211

    def test_cubic_midpoint(self):
        sched = BudgetSchedule(b0=1000, bT=0, T=10, kind=ScheduleKind.CUBIC)
        assert budget_at(sched, 5) == 125

    def test_linear_and_quadratic_midpoints(self):
        lin = BudgetSchedule(b0=1000, bT=0, T=10, kind=ScheduleKind.LINEAR)
        quad = BudgetSchedule(b0=1000, bT=0, T=10, kind=ScheduleKind.QUADRATIC)
        assert budget_at(lin, 5) == 500
        assert budget_at(quad, 5) == 250

    def test_constant_is_flat(self):
        sched = BudgetSchedule(b0=1000, bT=300, T=10, kind=ScheduleKind.CONSTANT)
        assert all(budget_at(sched, t) == 300 for t in range(11))

    def test_nonincreasing_and_kind_ordering(self):
        b0, bT, T = 1000, 100, 37
        kinds = {k: BudgetSchedule(b0=b0, bT=bT, T=T, kind=k) for k in ScheduleKind}
        prev = {k: budget_at(s, 0) for k, s in kinds.items()}
        for t in range(1, T + 1):
            for k, s in kinds.items():
                cur = budget_at(s, t)
                assert cur <= prev[k], (k, t)
                prev[k] = cur
            if 0 < t < T:
                assert (
                    budget_at(kinds[ScheduleKind.CUBIC], t)
                    <= budget_at(kinds[ScheduleKind.QUADRATIC], t)
                    <= budget_at(kinds[ScheduleKind.LINEAR], t)
                )

    def test_step_out_of_range(self):
        sched = BudgetSchedule(b0=10, bT=0, T=5)
        with pytest.raises(ValueError):
            budget_at(sched, 6)
        with pytest.raises(ValueError):
            budget_at(sched, -1)

    def test_invalid_schedule_fields(self):
        with pytest.raises(ValueError):
            BudgetSchedule(b0=10, bT=20, T=5)
        with pytest.raises(ValueError):
            BudgetSchedule(b0=10, bT=0, T=0)


class TestAlloc:
    def test_single_layer(self):
        assert alloc([1.0], [50], 30).budgets == [30]
        assert alloc([1.0], [50], 80 - 30).budgets == [50]

    def test_one_pass_hand_trace(self):
        result = alloc([0.75, 0.25], [100, 100], 80)
        assert result.budgets == [60, 20]

    def test_two_pass_hand_trace_with_saturation(self):
        result = alloc([0.9, 0.1], [50, 100], 80)
        assert result.budgets == [50, 30]

    def test_budget_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamp"):
            result = alloc([1.0, 1.0], [10, 10], 100)
        assert result.budgets == [10, 10]
        assert result.global_budget == 20

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            alloc([1.0], [10], -1)
        with pytest.raises(ValueError):
            alloc([-0.1], [10], 5)

    def test_zero_score_layer_served_only_by_remainder(self):
        result = alloc([1.0, 0.0], [10, 100], 50)
        # layer 1 saturates at 10; the other 40 can only arrive via
        # remainder distribution
        assert result.budgets == [10, 40]

    @pytest.mark.filterwarnings("ignore:budget .* exceeds total capacity")
    def test_conservation_caps_termination_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            layers = int(rng.integers(1, 17))
            caps = rng.integers(0, 200, size=layers).tolist()
            scores = np.where(rng.random(layers) < 0.15, 0.0, rng.random(layers)).tolist()
            total = sum(caps)
            budget = int(rng.integers(0, max(total, 1) + 1))
            first = alloc(scores, caps, budget)
            second = alloc(scores, caps, budget)
            assert first.budgets == second.budgets  # deterministic
            assert sum(first.budgets) == min(budget, total)
            assert all(0 <= b <= c for b, c in zip(first.budgets, caps))

    @pytest.mark.filterwarnings("ignore:budget .* exceeds total capacity")
    def test_budgets_equal_the_unit_at_a_time_oracle(self):
        rng = np.random.default_rng(13)
        for case in range(2000):
            layers = int(rng.integers(1, 13))
            # caps of 0 and 1 saturate at once; the others differ in size
            caps = rng.choice([0, 1, 2, 5, 17, 60, 300], size=layers).tolist()
            scores = [np.zeros(layers),  # every unit goes out in rounds
                      rng.choice([0.0, 0.25, 1.0], size=layers),  # ties
                      rng.exponential(size=layers),
                      rng.choice([0.0, 1e-9, 1.0, 1e9], size=layers)][case % 4].tolist()
            total = sum(caps)
            # a budget above the capacity is clamped
            budget = int(rng.integers(0, total + 20))
            got, want = alloc(scores, caps, budget), per_unit_alloc.alloc(scores, caps, budget)
            assert got.budgets == want.budgets, (scores, caps, budget)
            assert got.global_budget == want.global_budget

    def test_all_zero_scores_on_a_large_model_fill_the_target(self):
        # 12 layers of 768x768 at budget ratio 0.3: the oracle's loop takes
        # one Python round per unit of each layer's share
        caps = [768 * 768] * 12
        target = int(math.floor(0.3 * sum(caps) + 0.5))
        budgets = alloc([0.0] * 12, caps, target).budgets
        assert sum(budgets) == target
        assert max(budgets) - min(budgets) <= 1

    def test_monotone_dominance_equal_caps(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            layers = int(rng.integers(2, 8))
            cap = 500
            scores = rng.random(layers) + 0.01
            budget = int(rng.integers(0, cap))  # below any single cap: no saturation
            result = alloc(scores.tolist(), [cap] * layers, budget)
            assert max(result.budgets) < cap
            for i in range(layers):
                for j in range(layers):
                    if scores[i] > scores[j]:
                        assert result.budgets[i] >= result.budgets[j]


class TestThreshold:
    def test_hand_example(self):
        dw = np.array([[3.0, -1.0], [0.5, -2.0]])
        assert threshold_for_budget(dw, 2) == 1.0

    def test_full_budget_zero_threshold(self):
        dw = np.array([[3.0, -1.0], [0.5, -2.0]])
        assert threshold_for_budget(dw, 4) == 0.0

    def test_zero_budget_infinite_threshold(self):
        dw = np.array([[3.0, -1.0], [0.5, -2.0]])
        assert threshold_for_budget(dw, 0) == math.inf

    def test_out_of_range_rejected(self):
        dw = np.zeros((2, 2))
        with pytest.raises(ValueError):
            threshold_for_budget(dw, 5)
        with pytest.raises(ValueError):
            threshold_for_budget(dw, -1)

    @pytest.mark.parametrize("budget, problem", [
        (2.5, "wrong type"), (True, "wrong type"), (np.float64(2.0), "wrong type"),
        ("2", "wrong type"), (None, "wrong type"), (5, "value out of range"),
        (-1, "value out of range")])
    def test_bad_budgets_raise_setting_errors(self, budget, problem):
        dw = np.zeros((2, 2))
        for call in (lambda: threshold_for_budget(dw, budget),
                     lambda: sparsify(Tensor(dw), budget)):
            with pytest.raises(SettingError, match="budget") as err:
                call()
            assert (err.value.name, err.value.problem) == ("budget", problem)

    @pytest.mark.parametrize("budgets", [[1, 2.5], [2.5, 1], [True, 1], [1, 5], [-1, 1]])
    def test_a_bad_budget_in_a_stack_raises_before_any_partition(self, monkeypatch, budgets):
        def thresholds(*args):
            raise AssertionError("partitioned before the budgets were checked")

        monkeypatch.setattr(allocation, "_thresholds", thresholds)
        with pytest.raises(SettingError, match="budget"):
            sparsify(Tensor(np.ones((2, 2, 2))), budgets)

    def test_numpy_integer_budgets_are_budgets(self):
        dw = np.array([[3.0, -1.0], [0.5, -2.0]])
        assert threshold_for_budget(dw, np.int64(2)) == 1.0
        out = sparsify(Tensor(np.stack([dw, -dw])), np.array([2, 4]))
        np.testing.assert_array_equal(out.data, [[[2.0, 0.0], [0.0, -1.0]], -dw])


@st.composite
def stacked_sparsify_cases(draw):
    """A stack of S matrices with a budget per slice (0, 1, m·n - 1, m·n or any),
    entries from a few magnitudes (ties at the threshold) or drawn, +-0 entries,
    and an incoming gradient."""
    count, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = m * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.choice([0.0, 0.5, 1.0, 2.0], size=(count, m, n))
    else:
        x = rng.normal(size=(count, m, n))
    x *= rng.choice([-1.0, 1.0], size=x.shape)  # -0 where a zero was drawn
    x[rng.random(x.shape) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    budgets = [draw(st.sampled_from([0, 1, size - 1, size, int(rng.integers(0, size + 1))]))
               for _ in range(count)]
    return x, budgets, rng.normal(size=x.shape)


def sparsified_with_gradient(x, budgets, mode, upstream):
    leaf = Tensor(x.copy(), requires_grad=True)
    out = sparsify(leaf, budgets, mode)
    backward(reduce_sum(mul(out, Tensor(upstream))))
    return out.data, leaf.grad


@pytest.mark.parametrize("mode", list(SparsifyMode), ids=lambda mode: mode.value)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=stacked_sparsify_cases())
def test_stacked_sparsify_equals_each_slice_on_its_own(mode, case):
    # each slice's own threshold_for_budget, the (b+1)-th largest magnitude by
    # a sort, applied on its own, and sparsify of the slice as a matrix: the
    # same outputs and gradients, bit for bit
    x, budgets, upstream = case
    got = sparsified_with_gradient(x, budgets, mode, upstream)
    for k, b in enumerate(budgets):
        tau = threshold_for_budget(x[k], b)
        ordered = np.sort(np.abs(x[k]), axis=None)[::-1]
        assert tau == (math.inf if b == 0 else 0.0 if b == x[k].size else ordered[b])
        leaf = Tensor(x[k].copy(), requires_grad=True)
        out = sparsify_with_threshold(leaf, tau, mode)
        backward(reduce_sum(mul(out, Tensor(upstream[k]))))
        matrix = sparsified_with_gradient(x[k], b, mode, upstream[k])
        for want in ((out.data, leaf.grad), matrix):
            assert got[0][k].tobytes() == want[0].tobytes()
            assert got[1][k].tobytes() == want[1].tobytes()


def _distinct_magnitude_matrix(rng, m, n):
    mags = rng.permutation(np.arange(1, m * n + 1, dtype=np.float64))
    signs = np.where(rng.random(m * n) < 0.5, -1.0, 1.0)
    return (mags * signs).reshape(m, n)


class TestSparsify:
    def test_soft_sign_hand_example(self):
        dw = Tensor([[3.0, -1.0], [0.5, -2.0]])
        out = sparsify(dw, 2, SparsifyMode.SOFT_SIGN)
        np.testing.assert_array_equal(out.data, [[2.0, 0.0], [0.0, -1.0]])

    def test_full_budget_soft_sign_is_identity(self):
        rng = np.random.default_rng(9)
        dw = Tensor(rng.normal(size=(4, 5)))
        out = sparsify(dw, 20, SparsifyMode.SOFT_SIGN)
        np.testing.assert_array_equal(out.data, dw.data)

    def test_zero_budget_all_modes_zero(self):
        rng = np.random.default_rng(10)
        dw = Tensor(rng.normal(size=(3, 3)))
        for mode in SparsifyMode:
            out = sparsify(dw, 0, mode)
            np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    @pytest.mark.parametrize("mode", list(SparsifyMode))
    def test_nonzero_count_exact_fuzz(self, mode):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            dw = Tensor(_distinct_magnitude_matrix(rng, m, n))
            b = int(rng.integers(0, m * n + 1))
            out = sparsify(dw, b, mode)
            assert int(np.count_nonzero(out.data)) == min(b, m * n)

    def test_literal_product_form(self):
        dw = Tensor([[3.0, -1.0], [0.5, -2.0]])
        out = sparsify(dw, 2, SparsifyMode.LITERAL_PRODUCT)
        # entry * max(|entry| - tau, 0) with tau = 1
        np.testing.assert_allclose(out.data, [[6.0, 0.0], [0.0, -2.0]])

    def test_hard_mask_preserves_surviving_values(self):
        dw = Tensor([[3.0, -1.0], [0.5, -2.0]])
        out = sparsify(dw, 2, SparsifyMode.HARD_MASK)
        np.testing.assert_array_equal(out.data, [[3.0, 0.0], [0.0, -2.0]])

    @pytest.mark.parametrize("mode", [SparsifyMode.SOFT_SIGN, SparsifyMode.LITERAL_PRODUCT])
    def test_gradients_match_finite_differences_with_frozen_threshold(self, mode):
        rng = np.random.default_rng(12)
        base = _distinct_magnitude_matrix(rng, 3, 4)
        x = Tensor(base, requires_grad=True)
        # freeze tau midway between the 5th and 6th magnitudes: same
        # surviving set, but no entry sits on the rectifier kink
        tau = threshold_for_budget(base, 5) + 0.5
        weights = Tensor(rng.normal(size=(3, 4)))

        def program():
            from klora.tensor import mul

            return reduce_sum(mul(sparsify_with_threshold(x, tau, mode), weights))

        # integer-spaced magnitudes leave |entry| - tau >= 1 at survivors,
        # far from the rectifier kink relative to h
        report = finite_diff_check(program, [x], h=1e-5, tol=1e-5)
        assert report.passed, report.max_rel_err

    def test_gradients_flow_to_survivors_only(self):
        dw_vals = np.array([[3.0, -1.0], [0.5, -2.0]])
        x = Tensor(dw_vals, requires_grad=True)
        from klora.tensor import record_and_backward

        grads = record_and_backward(
            lambda: reduce_sum(sparsify(x, 2, SparsifyMode.SOFT_SIGN)), [x]
        )
        # d/dx of sign(x) * (|x| - tau) is sign(x)^2 = 1 at every survivor
        np.testing.assert_array_equal(grads[x].data, [[1.0, 0.0], [0.0, 1.0]])


def test_allocation_result_invariants_on_example():
    result = alloc([0.5, 0.3, 0.2], [40, 40, 40], 100)
    assert isinstance(result, AllocationResult)
    assert sum(result.budgets) == 100
    assert all(b <= 40 for b in result.budgets)
    assert result.scores == [0.5, 0.3, 0.2]
