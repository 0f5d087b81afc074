"""Adapted layers, optimizer, trainer, and dataset tests.

The linear-baseline equivalence tests compare the trainer against a
hand-derived numpy adapter trainer (closed-form forward, gradients, and
adaptive-moment updates) that shares only the initialization draw and the
batch order with the real implementation.
"""

import math

import numpy as np
import pytest

from klora.allocation import ScheduleKind, SparsifyMode
from klora.datasets import blob_classification, high_rank_regression, synth_dataset
from klora.kernels import KernelKind, KernelSpec, LowRankPair
from klora.model import (
    Adam,
    AdaptedLinear,
    Trainer,
    TrainerConfig,
    build_model,
    cross_entropy_loss,
    fine_tune,
    mse_loss,
)
from klora.tensor import Tensor, backward

from end_to_end_losses import mixk_and_linear_final_losses


def make_layer(rng, m=5, n=4, r=2, kind=KernelKind.MIX_K, std=0.02, **kwargs):
    w0 = rng.normal(size=(m, n))
    bias = rng.normal(size=m)
    pair = LowRankPair.random(m, n, r, rng, std=std)
    spec = KernelSpec.zero_init(kind, pieces=2)
    return AdaptedLinear(w0, bias, pair, spec, **kwargs)


class TestAdaptedLinear:
    def test_zero_init_matches_base_layer_exactly(self):
        rng = np.random.default_rng(0)
        layer = make_layer(rng)
        x = rng.normal(size=(7, 4))
        expected = x @ layer.w0.T + layer.bias
        np.testing.assert_array_equal(layer.forward(Tensor(x), layer.delta_w()).data, expected)

    def test_zero_budget_matches_base_regardless_of_factors(self):
        rng = np.random.default_rng(1)
        layer = make_layer(rng, std=1.5, kind=KernelKind.LINEAR)
        layer.budget = 0
        x = rng.normal(size=(3, 4))
        expected = x @ layer.w0.T + layer.bias
        np.testing.assert_array_equal(layer.forward(Tensor(x), layer.delta_w()).data, expected)

    def test_linear_full_budget_matches_plain_adapter_oracle(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, kind=KernelKind.LINEAR, std=0.5)
        layer.budget = layer.cap
        x = rng.normal(size=(6, 4))
        oracle = x @ (layer.w0 + layer.pair.B.data @ layer.pair.A.data.T).T + layer.bias
        np.testing.assert_allclose(layer.forward(Tensor(x), layer.delta_w()).data, oracle,
                                   atol=1e-12)

    def test_effective_weight_is_base_plus_sparsified_merge(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng, kind=KernelKind.LINEAR, std=0.8)
        layer.budget = 7
        dw = layer.delta_w().data
        assert np.count_nonzero(dw) <= 7
        x = np.eye(4)
        np.testing.assert_allclose(
            layer.forward(Tensor(x), layer.delta_w()).data, x @ (layer.w0 + dw).T + layer.bias
        )

    def test_recompute_merge_gradients_identical(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(3, 4))
        results = []
        for flag in (False, True):
            rng2 = np.random.default_rng(11)
            layer = make_layer(rng2, kind=KernelKind.MIX_K, std=0.4, recompute_merge=flag)
            layer.spec.coeffs[0].data[:] = [0.3, -0.2]
            layer.spec.coeffs[1].data[...] = 0.5
            layer.budget = 10
            loss = mse_loss(layer.forward(Tensor(vals), layer.delta_w()), np.ones((3, 5)))
            backward(loss)
            results.append(
                (float(loss.data), layer.pair.A.grad.copy(), layer.pair.B.grad.copy())
            )
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])
        np.testing.assert_array_equal(results[0][2], results[1][2])

    def test_shape_validation(self):
        rng = np.random.default_rng(5)
        pair = LowRankPair.random(4, 4, 2, rng)
        spec = KernelSpec.zero_init(KernelKind.MIX_K)
        with pytest.raises(ValueError, match="base weight"):
            AdaptedLinear(np.zeros((5, 4)), None, pair, spec)


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        # quadratic loss on a scalar: first update is lr * g / (|g| + eps)
        theta = Tensor(3.0, requires_grad=True)
        opt = Adam([theta], lr=0.1)
        from klora.tensor import square

        loss = square(theta).sum()
        backward(loss)
        opt.step()
        g = 6.0
        expected = 3.0 - 0.1 * g / (abs(g) + 1e-8)
        assert float(theta.data) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("settings, message", [
        ({"beta1": 1.0}, "beta1 must lie in"), ({"beta1": -0.1}, "beta1 must lie in"),
        ({"beta2": 1.5}, "beta2 must lie in"), ({"beta2": float("nan")}, "beta2 must be finite"),
        ({"eps": -1.0}, "eps must be positive"), ({"eps": 0.0}, "eps must be positive"),
    ])
    def test_out_of_range_settings_rejected(self, settings, message):
        theta = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError, match=message):
            Adam([theta], lr=0.1, **settings)
        adam_settings = {f"adam_{name}": value for name, value in settings.items()}
        with pytest.raises(ValueError, match=message):
            TrainerConfig(**adam_settings)

    def test_zero_lr_freezes_parameters(self):
        theta = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam([theta], lr=0.0)
        from klora.tensor import square

        backward(square(theta).sum())
        opt.step()
        np.testing.assert_array_equal(theta.data, [1.0, -2.0])

    def test_flat_state_matches_per_parameter_updates(self):
        # the per-parameter update the flat buffers replaced is the reference:
        # every parameter, 0-d ones and missing gradients included, gets its bits
        rng = np.random.default_rng(12)
        shapes = [(3, 2), (), (4,), (), (2, 2, 2)]
        ref = [rng.normal(size=s) for s in shapes]
        params = [Tensor(r.copy(), requires_grad=True) for r in ref]
        opt = Adam(params, lr=0.05)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 7):
            grads = [None if (t + i) % 3 == 0 else rng.normal(size=s)
                     for i, s in enumerate(shapes)]
            for p, g in zip(params, grads):
                p.grad = g
            held = [p.data for p in params]
            opt.step()
            for i, g in enumerate(grads):
                g = np.zeros(shapes[i]) if g is None else g
                m[i] = m[i] * 0.9 + (1.0 - 0.9) * g
                v[i] = v[i] * 0.999 + (1.0 - 0.999) * (g * g)
                m_hat, v_hat = m[i] / (1.0 - 0.9**t), v[i] / (1.0 - 0.999**t)
                ref[i] = ref[i] - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for p, r in zip(params, ref):
                assert p.data.shape == r.shape
                assert np.asarray(p.data).tobytes() == np.asarray(r).tobytes()
            # each parameter's array is the one it held
            for p, h in zip(params, held):
                assert p.data is h


class TestLosses:
    def test_mse_hand_value(self):
        pred = Tensor([[1.0, 2.0]])
        assert float(mse_loss(pred, np.array([[0.0, 0.0]])).data) == pytest.approx(2.5)

    def test_cross_entropy_matches_numpy_oracle(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 3)) * 3
        labels = rng.integers(0, 3, size=5)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), labels] = 1.0
        z = logits - logits.max(axis=1, keepdims=True)
        lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expected = float(-(onehot * lsm).sum(axis=1).mean())
        got = float(cross_entropy_loss(Tensor(logits), onehot).data)
        assert got == pytest.approx(expected, rel=1e-12)


class TestDatasets:
    def test_same_seed_bit_identical(self):
        a = high_rank_regression(seed=9)
        b = high_rank_regression(seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        for (wa, ba), (wb, bb) in zip(a.base_weights, b.base_weights):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_zero_density_means_base_is_optimal(self):
        ds = high_rank_regression(seed=3, density=0.0)
        from klora.datasets import _forward_numpy

        np.testing.assert_array_equal(_forward_numpy(ds.base_weights, ds.x), ds.y)

    def test_perturbation_rank_exceeds_adapter_rank(self):
        ds = high_rank_regression(seed=4, min_rank=6)
        assert ds.meta["perturbation_ranks"]
        for rank in ds.meta["perturbation_ranks"].values():
            assert rank > 6

    def test_default_min_rank_scales_with_layer(self):
        ds = high_rank_regression(seed=5, layer_dims=(8, 8), samples=32)
        for rank in ds.meta["perturbation_ranks"].values():
            assert rank > 4

    def test_blob_shapes_and_determinism(self):
        a = blob_classification(seed=2)
        b = blob_classification(seed=2)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.y.sum(axis=1).max() == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            synth_dataset("spiral", seed=0)


def small_config(**overrides):
    defaults = dict(
        lr=5e-3,
        epochs=3,
        steps_per_epoch=8,
        batch_size=16,
        seed=0,
        rank=3,
        kernel_kind=KernelKind.MIX_K,
        budget_ratio=0.3,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def small_dataset(seed=0):
    return high_rank_regression(seed=seed, layer_dims=(8, 8, 8), samples=64)


class TestTrainer:
    def test_base_weights_untouched_by_training(self):
        ds = small_dataset()
        cfg = small_config()
        model = build_model(ds, cfg)
        before = model.base_checksums()
        Trainer(model, cfg, ds).fine_tune()
        assert model.base_checksums() == before

    def test_untrained_model_equals_base_model_output(self):
        ds = small_dataset()
        model = build_model(ds, small_config())
        from klora.datasets import _forward_numpy

        out = model.forward(Tensor(ds.x)).data
        np.testing.assert_array_equal(out, _forward_numpy(ds.base_weights, ds.x))

    def test_zero_lr_advances_importance_but_not_params(self):
        ds = small_dataset()
        cfg = small_config(lr=0.0, epochs=1, steps_per_epoch=2)
        model = build_model(ds, cfg)
        trainer = Trainer(model, cfg, ds)
        a_before = trainer.layers[0].pair.A.data.copy()
        trainer.train_step(ds.x[:16], ds.y[:16])
        np.testing.assert_array_equal(trainer.layers[0].pair.A.data, a_before)
        assert trainer.importance.initialized

    def test_determinism_same_seed_same_final_loss(self):
        traces = [fine_tune(small_config(seed=5), small_dataset(5)) for _ in range(2)]
        assert traces[0].final_loss == traces[1].final_loss
        assert traces[0].epochs[-1].budgets == traces[1].epochs[-1].budgets

    def test_zero_epochs_trace_contains_only_initial_eval(self):
        ds = small_dataset()
        trace = fine_tune(small_config(epochs=0), ds)
        assert trace.epochs == []
        assert trace.final_loss == trace.initial_loss

    def test_budget_compliance_after_allocation(self):
        ds = small_dataset()
        cfg = small_config(epochs=3, steps_per_epoch=6)
        model = build_model(ds, cfg)
        trainer = Trainer(model, cfg, ds)
        n = ds.x.shape[0]
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            perm = rng.permutation(n)
            for step in range(cfg.steps_per_epoch):
                lo = step * cfg.batch_size
                idx = np.take(perm, np.arange(lo, lo + cfg.batch_size), mode="wrap")
                trainer.train_step(ds.x[idx], ds.y[idx])
                if epoch > 0:
                    total = 0
                    for layer in trainer.layers:
                        nz = np.count_nonzero(layer.delta_w().data)
                        assert nz <= layer.budget
                        total += nz
                    assert total <= last_alloc.global_budget
            last_alloc = trainer.allocate()

    def test_epoch_boundary_requires_a_step(self):
        ds = small_dataset()
        cfg = small_config()
        trainer = Trainer(build_model(ds, cfg), cfg, ds)
        with pytest.raises(ValueError, match="at least one"):
            trainer.allocate()

    def test_uninitialized_state_rejected(self):
        ds = small_dataset()
        cfg = small_config()
        trainer = Trainer(build_model(ds, cfg), cfg, ds)
        with pytest.raises(ValueError, match="updated"):
            trainer.layer_scores()

    def test_early_boundary_budget_tracks_cubic_law(self):
        ds = small_dataset()
        cfg = small_config(epochs=10, steps_per_epoch=4, schedule_kind=ScheduleKind.CUBIC)
        model = build_model(ds, cfg)
        trainer = Trainer(model, cfg, ds)
        trainer.train_step(ds.x[:16], ds.y[:16])
        trainer.global_step = 4  # pretend the first epoch finished
        result = trainer.allocate()
        frac = (1.0 - 4 / trainer.schedule.T) ** 3
        expected = trainer.schedule.bT + frac * (trainer.schedule.b0 - trainer.schedule.bT)
        assert result.global_budget == int(math.floor(expected + 0.5))

    def test_equal_scores_equal_caps_divisible_budget_split_equally(self):
        from klora.allocation import alloc

        result = alloc([0.4, 0.4, 0.4, 0.4], [100, 100, 100, 100], 200)
        assert result.budgets == [50, 50, 50, 50]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostic(self):
        ds = small_dataset()
        cfg = small_config()
        model = build_model(ds, cfg)
        trainer = Trainer(model, cfg, ds)
        trainer.layers[0].pair.A.data[:] = np.inf
        trainer.layers[0].spec.coeffs[0].data[:] = 1.0
        with pytest.raises(RuntimeError, match="non-finite loss"):
            trainer.train_step(ds.x[:4], ds.y[:4])

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_per_epoch_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="steps_per_epoch"):
            small_config(steps_per_epoch=steps)

    def test_steps_per_epoch_none_is_one_pass(self):
        ds = small_dataset()
        cfg = small_config(steps_per_epoch=None)
        assert Trainer(build_model(ds, cfg), cfg, ds).steps_per_epoch == 64 // 16

    def test_per_step_allocation_runs(self):
        ds = small_dataset()
        cfg = small_config(alloc_period="per-step", epochs=1, steps_per_epoch=4)
        trace = fine_tune(cfg, ds)
        assert len(trace.epochs) == 1
        assert all(b is not None for b in trace.epochs[0].budgets)

    @pytest.mark.parametrize("metric", ["magnitude", "w-magnitude"])
    def test_alternative_importance_metrics_train(self, metric):
        ds = small_dataset()
        cfg = small_config(importance_metric=metric, epochs=2, steps_per_epoch=4)
        trace = fine_tune(cfg, ds)
        assert all(s >= 0 for s in trace.epochs[-1].scores)
        assert sum(trace.epochs[-1].budgets) <= trace.epochs[-1].global_budget

    def test_classification_task_trains(self):
        from klora.datasets import blob_classification

        ds = blob_classification(seed=4, features=6, classes=3, samples=60, hidden=8)
        cfg = small_config(epochs=3, steps_per_epoch=5, batch_size=12, rank=2)
        trace = fine_tune(cfg, ds)
        assert trace.final_loss < trace.initial_loss

    def test_attention_block_trains_and_preserves_base(self):
        rng = np.random.default_rng(12)
        dims = (8, 8, 8)
        ds = high_rank_regression(seed=7, layer_dims=dims, samples=48)
        dh, tokens = 4, 2
        ds.attention = {
            "position": 0,
            "tokens": tokens,
            "weights": [
                (rng.normal(0.0, 0.5, size=(dh, dh)), None) for _ in range(4)
            ],
        }
        cfg = small_config(epochs=1, steps_per_epoch=4, batch_size=8)
        model = build_model(ds, cfg)
        assert len(model.adapted_layers()) == len(dims) - 1 + 4
        out0 = model.forward(Tensor(ds.x[:5])).data
        assert out0.shape == (5, dims[-1])
        before = model.base_checksums()
        Trainer(model, cfg, ds).fine_tune()
        assert model.base_checksums() == before


class PlainLowRankOracle:
    """Hand-derived plain low-rank adapter trainer (linear merge, full budget)."""

    def __init__(self, base_weights, factors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.weights = [(w.copy(), None if b is None else b.copy()) for w, b in base_weights]
        self.factors = [(a.copy(), b.copy()) for a, b in factors]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [(np.zeros_like(a), np.zeros_like(b)) for a, b in self.factors]
        self.v = [(np.zeros_like(a), np.zeros_like(b)) for a, b in self.factors]

    def effective(self, i):
        w0, _ = self.weights[i]
        a, b = self.factors[i]
        return w0 + b @ a.T

    def forward(self, x):
        acts = [x]
        pre = []
        h = x
        last = len(self.weights) - 1
        for i, (w0, bias) in enumerate(self.weights):
            z = h @ self.effective(i).T
            if bias is not None:
                z = z + bias
            pre.append(z)
            h = np.maximum(z, 0.0) if i < last else z
            acts.append(h)
        return acts, pre

    def step(self, x, y):
        acts, pre = self.forward(x)
        pred = acts[-1]
        batch, out_dim = pred.shape
        grad_z = 2.0 * (pred - y) / (batch * out_dim)
        grads = [None] * len(self.weights)
        for i in reversed(range(len(self.weights))):
            grads[i] = grad_z.T @ acts[i]
            if i > 0:
                grad_h = grad_z @ self.effective(i)
                grad_z = grad_h * (pre[i - 1] > 0.0)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, gw in enumerate(grads):
            a, b = self.factors[i]
            ga = gw.T @ b
            gb = gw @ a
            ma, mb = self.m[i]
            va, vb = self.v[i]
            ma[:] = self.beta1 * ma + (1 - self.beta1) * ga
            mb[:] = self.beta1 * mb + (1 - self.beta1) * gb
            va[:] = self.beta2 * va + (1 - self.beta2) * ga * ga
            vb[:] = self.beta2 * vb + (1 - self.beta2) * gb * gb
            a -= self.lr * (ma / bc1) / (np.sqrt(va / bc2) + self.eps)
            b -= self.lr * (mb / bc1) / (np.sqrt(vb / bc2) + self.eps)
        return float(np.mean((pred - y) ** 2))


class TestLinearBaselineEquivalence:
    def test_loss_trajectory_matches_plain_adapter_oracle(self):
        ds = high_rank_regression(seed=11, layer_dims=(8, 8, 8), samples=64, bias=False)
        cfg = TrainerConfig(
            lr=1e-2,
            epochs=1,
            steps_per_epoch=20,
            batch_size=16,
            seed=11,
            rank=3,
            kernel_kind=KernelKind.LINEAR,
            budget_ratio=1.0,
            schedule_kind=ScheduleKind.CONSTANT,
            sparsify_mode=SparsifyMode.SOFT_SIGN,
        )
        model = build_model(ds, cfg)
        trainer = Trainer(model, cfg, ds)
        oracle = PlainLowRankOracle(
            ds.base_weights,
            [(l.pair.A.data, l.pair.B.data) for l in trainer.layers],
            lr=cfg.lr,
        )
        rng = np.random.default_rng([cfg.seed, 0])
        perm = rng.permutation(ds.x.shape[0])
        for step in range(20):
            lo = step * cfg.batch_size
            idx = np.take(perm, np.arange(lo, lo + cfg.batch_size), mode="wrap")
            ours = trainer.train_step(ds.x[idx], ds.y[idx])
            theirs = oracle.step(ds.x[idx], ds.y[idx])
            assert abs(ours - theirs) < 1e-9, f"step {step}: {ours} vs {theirs}"


class TestAllocationResponsiveness:
    def test_perturbed_layer_scores_higher(self):
        wins = 0
        for seed in range(10):
            ds = high_rank_regression(
                seed=seed, layer_dims=(8, 8, 8), samples=64, perturb_layers=[1]
            )
            cfg = small_config(seed=seed, epochs=1, steps_per_epoch=8)
            model = build_model(ds, cfg)
            trainer = Trainer(model, cfg, ds)
            trainer.fine_tune()
            scores = trainer.layer_scores()
            if scores[1] > scores[0]:
                wins += 1
        assert wins >= 8, f"perturbed layer won only {wins}/10 seeds"


class TestEndToEndAdvantage:
    def test_mixk_beats_linear_on_high_rank_task(self):
        # the planted update is scattered (density 0.1) and rank > 4, so a
        # rank-4 linear merge cannot spike at its support without lighting
        # up whole rows and columns; the mixed kernel can
        losses = mixk_and_linear_final_losses()
        wins = sum(r[KernelKind.MIX_K] < r[KernelKind.LINEAR] for r in losses)
        assert wins >= 8, f"mixk won only {wins}/10: {losses}"
