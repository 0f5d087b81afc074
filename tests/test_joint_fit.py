"""The joint fit against the per-kind one, bit for bit, and its op counts.

`experiments._fit` fits every kernel kind of an experiment in one recorded
graph per step. Each (kind, seed) result must equal the fit of that kind
alone in `per_kind_fit`, for every kind, for both fit drivers, and when
another kind diverges.
"""

import tracemalloc

import numpy as np
import pytest

import per_kind_fit
from klora import experiments, kernels, model
from klora.experiments import _fit, fit_matrix_experiment, grad_evolution_experiment
from klora.kernels import KINDS, KernelKind
from klora.tensor import Tensor

ALL_KINDS = list(KINDS)
SEEDS = [3, 4, 5]


def targets_for(seeds, m=10, n=8):
    return np.stack([np.random.default_rng([seed, 0x7A]).normal(size=(m, n)) for seed in seeds])


# the fit-matrix set-up (zero-init coefficients, antisymmetric pieces) and the
# grad-evolution one (uniform factors, canonical coefficients)
SETUPS = {
    "fit-matrix": dict(factor_std=1.0, piece_init_eps=0.5),
    "grad-evolution": dict(factor_std=1.0, init_scale=2.0, canonical_coeffs=True),
}


@pytest.mark.parametrize("setup", SETUPS)
def test_every_kind_equals_its_per_kind_fit(setup):
    targets = targets_for(SEEDS)
    args = (targets, SEEDS)
    kwargs = dict(r=4, steps=60, lr=1e-2, pieces=2, record_points=7, **SETUPS[setup])
    joint = _fit(ALL_KINDS, *args, **kwargs)
    assert len(joint) == len(ALL_KINDS)
    for kind, runs in zip(ALL_KINDS, joint):
        solo = per_kind_fit.fit(kind, *args, **kwargs)
        assert not any(run["diverged"] for run in solo)
        assert runs == solo, kind.value


@pytest.mark.parametrize("driver, params", [
    (fit_matrix_experiment, dict(m=12, n=10, r=4, steps=80, seeds=3, density=0.5,
                                 piece_init_eps=1.0, seed_base=2)),
    (grad_evolution_experiment, dict(m=10, n=10, steps=50, seeds=2, scale=3.0)),
], ids=["fit-matrix", "grad-evolution"])
def test_drivers_equal_the_per_kind_oracle(driver, params):
    joint = driver(**params)
    with per_kind_fit.patched_in():
        per_kind = driver(**params)
    assert joint.per_seed == per_kind.per_seed
    assert joint.aggregates == per_kind.aggregates


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_kind_leaves_every_other_fit_unchanged():
    kinds = [KernelKind.MIX_K, KernelKind.LINEAR, KernelKind.P_LINEAR]
    targets = np.broadcast_to(targets_for(SEEDS), (3, len(SEEDS), 10, 8)).copy()
    kwargs = dict(r=2, steps=30, lr=1e-2, pieces=2, factor_std=1.0)
    healthy = _fit(kinds, targets, SEEDS, **kwargs)
    # the linear kind's squared errors overflow from the first step on
    targets[1] *= 1e308
    mixed = _fit(kinds, targets, SEEDS, **kwargs)
    assert mixed[0] == healthy[0] and mixed[2] == healthy[2]
    assert all(run["diverged"] and run["trace"] == [] for run in mixed[1])
    assert mixed[1] == per_kind_fit.fit(kinds[1], targets[1], SEEDS, **kwargs)


@pytest.mark.parametrize("kinds", [
    ["p-linear", "linear", "mix-k"],  # p-linear ahead of mix-k, another kind between
    ["p-linear"],
    ["rbf", "mix-k"],  # a lone distance kind merges on its own
    ["mix-k", "p-linear", "mix-k", "p-linear"],  # repeated kinds share the block
], ids=["interleaved", "lone-p-linear", "lone-mix-k", "repeated"])
def test_any_order_of_kinds_equals_the_per_kind_fits(monkeypatch, kinds):
    distance_ops = []

    def counted(op):
        def call(*args):
            distance_ops.append(op.__name__)
            return op(*args)
        return call

    for name in ("mixed_segment_distances", "weighted_segment_distances"):
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
    kinds = [KernelKind(k) for k in kinds]
    targets = targets_for(SEEDS)
    kwargs = dict(r=4, steps=40, lr=1e-2, pieces=2, factor_std=1.0, piece_init_eps=0.5,
                  record_points=7)
    joint = _fit(kinds, targets, SEEDS, **kwargs)
    assert len(distance_ops) == 41  # one per step, and one for the final losses
    monkeypatch.undo()
    assert joint == per_kind_fit.fit_each(kinds, targets, SEEDS, **kwargs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_mix_k_fit_leaves_its_block_unchanged():
    # mix-k and p-linear merge in one block; one mix-k seed diverges in it
    kinds = [KernelKind.P_LINEAR, KernelKind.LINEAR, KernelKind.MIX_K]
    targets = np.broadcast_to(targets_for(SEEDS), (3, len(SEEDS), 10, 8)).copy()
    kwargs = dict(r=4, steps=30, lr=1e-2, pieces=2, factor_std=1.0, piece_init_eps=0.5)
    healthy = _fit(kinds, targets, SEEDS, **kwargs)
    targets[2, 1] *= 1e308
    mixed = _fit(kinds, targets, SEEDS, **kwargs)
    assert mixed[:2] == healthy[:2]
    assert mixed[2][1]["diverged"] and mixed[2][1]["trace"] == []
    assert mixed[2][0] == healthy[2][0] and mixed[2][2] == healthy[2][2]
    assert mixed[2] == per_kind_fit.fit(kinds[2], targets[2], SEEDS, **kwargs)


def test_a_fit_step_records_one_graph(monkeypatch):
    calls = {"backward": 0, "loss": 0}
    marks = []  # the next node id at each optimizer step

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(experiments, "backward", counted("backward", experiments.backward))
    monkeypatch.setattr(experiments, "mean_squared_error",
                        counted("loss", experiments.mean_squared_error))
    step = model.Adam.step

    def marked_step(self):
        marks.append(Tensor(0.0).node_id)
        return step(self)

    monkeypatch.setattr(model.Adam, "step", marked_step)
    kinds = [KernelKind.MIX_K, KernelKind.P_LINEAR, KernelKind.LINEAR]
    _fit(kinds, targets_for(SEEDS), SEEDS, r=4, steps=5, lr=1e-3, pieces=2, factor_std=1.0)
    assert calls == {"backward": 5, "loss": 6}  # one per step, and the final losses
    assert len(marks) == 5
    # the mix-k and p-linear block 1 (the fused distances and partial column
    # mix) and a slice of it for each, linear 2 (transpose, matmul), the
    # stack, the loss and its sum; the mark's own tensor is 1 more
    assert {b - a - 1 for a, b in zip(marks, marks[1:])} == {8}


def test_a_mix_k_fit_step_holds_few_matrices():
    # the previous step's graph is alive while the next one is recorded: two
    # graphs of four matrices (the two piece distances, the column softmax
    # and the merge), the target and the forward's temporaries come to about
    # 10.5 matrices; graphs that keep six each reach about 14.5
    m = n = 256
    params = dict(m=m, n=n, r=8, kernels=("mix-k",), lr=1e-5, seeds=1, density=0.05, pieces=2)
    fit_matrix_experiment(steps=1, **params)  # what the first call imports or caches stays out
    tracemalloc.start()
    try:
        fit_matrix_experiment(steps=3, **params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * m * n * 8, f"peak {peak / (m * n * 8):.2f} matrices of {m}x{n}"
