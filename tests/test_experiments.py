"""Harness drivers: fit targets, schedules, ranks, memory model, run-all, CLI."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from klora.choices import SettingError, check, hints
from klora.cli import main as cli_main
from klora.config import ConfigError, apply_defaults, dataset_from
from klora.experiments import (
    DEFAULT_KERNELS,
    EXPERIMENT_TYPES,
    MEMORY_MODES,
    REQUIRED,
    MemoryMode,
    alloc_trace_table,
    default_run_config,
    fit_matrix_experiment,
    grad_evolution_experiment,
    kernel_coefficient_count,
    make_fit_target,
    memory_footprint_estimate,
    ordering_fraction,
    rank_sweep,
    rank_table,
    run_all,
    schedule_table,
    train_experiment,
)
from klora.experiments import _fit
from klora.kernels import KernelKind, numerical_rank
from klora.model import RunTrace, Trainer, TrainerConfig, build_model, fine_tune
from klora.datasets import high_rank_regression
from klora.reports import ExperimentReport, read_csv, write_csv


SCHEDULE_ENTRY = {"name": "s", "type": "schedule", "params": {"b0": 100, "bT": 10, "T": 5}}

# run configs with one bad value each, and the start of the message naming its key
BAD_DOCUMENTS = [
    ({"train": {"recompute_merge": "false"}},
     "wrong type for 'train.recompute_merge': need a boolean"),
    ({"model": {"bias": "no"}}, "wrong type for 'model.bias': need a boolean"),
    ({"train": {"epochs": 1.5}}, "wrong type for 'train.epochs': need an integer"),
    ({"train": {"epochs": True}}, "wrong type for 'train.epochs': need an integer"),
    ({"train": {"lr": None}}, "wrong type for 'train.lr': need a number, got null"),
    ({"train": {"seed": "a"}}, "wrong type for 'train.seed': need an integer"),
    ({"train": {"seed": -1}}, "value out of range for 'train.seed'"),
    ({"train": {"steps_per_epoch": 2.0}},
     "wrong type for 'train.steps_per_epoch': need an integer or null"),
    ({"train": {"task": {"kind": "high-rank-regresion"}}},
     "value out of range for 'train.task.kind': unknown dataset kind"),
    ({"train": {"task": {"kind": "blob-classification", "density": 0.1}}},
     "unknown key 'train.task.density'"),
    ({"train": {"task": {"layer_dims": [8, 8]}}}, "unknown key 'train.task.layer_dims'"),
    ({"train": {"task": {"samples": "many"}}}, "wrong type for 'train.task.samples'"),
    ({"train": {"task": "blobs"}}, "wrong type for 'train.task': need an object"),
    ({"model": {"attention": {"position": 0, "heads": 1}}},
     "unknown key 'model.attention.heads'"),
    ({"model": {"attention": {"tokens": 3}}}, "value out of range for 'model.attention.tokens'"),
    ({"model": {"attention": {"tokens": 0}}}, "value out of range for 'model.attention.tokens'"),
    ({"model": {"attention": {"position": 1}}},
     "value out of range for 'model.attention.position'"),
    ({"model": {"attention": True}}, "wrong type for 'model.attention'"),
    ({"model": {"layer_dims": [16]}}, "value out of range for 'model.layer_dims'"),
    ({"model": {"rank": 0}}, "value out of range for 'model.rank'"),
    ({"kernel": {"pieces": 0}}, "value out of range for 'kernel.pieces'"),
    ({"model": {"factor_std": 0}}, "value out of range for 'model.factor_std'"),
    ({"sparsity": {"smoothing_beta1": 1.5}}, "value out of range for 'sparsity.smoothing_beta1'"),
    ({"sparsity": {"smoothing_beta2": -0.1}}, "value out of range for 'sparsity.smoothing_beta2'"),
    ({"kernel": {"kind": 3}}, "wrong type for 'kernel.kind': need a name"),
    ({"train": {"task": {"samples": 0}}}, "value out of range for 'train.task.samples'"),
    ({"train": {"task": {"kind": "blob-classification", "classes": 0}}},
     "value out of range for 'train.task.classes'"),
    ({"train": {"task": {"min_rank": 100}}}, "value out of range for 'train.task.min_rank'"),
    ({"train": {"task": {"perturb_layers": "x"}}},
     "value out of range for 'train.task.perturb_layers'"),
    ({"train": {"task": {"kind": "blob-classification", "hidden": 0}}},
     "value out of range for 'train.task.hidden'"),
    ({"train": {"task": {"density": 1.5}}}, "value out of range for 'train.task.density'"),
]

# bad second entries: a misspelled param and assert key, a missing required
# param, an out-of-range train override, misspelled schedule names, param
# values the driver rejects, every bad document as a train override, more
# values the driver rejects, a train task whose min_rank no draw reaches, assert
# values of the wrong type or naming what the entry does not report, names
# that are not one new file name, a ratio assert on an entry without rbf,
# params of the wrong type (list items too), the removed schedule `points`,
# list params given as one value, negative seed bases, factor scales that are not
# positive, and a name list item of the wrong type and a name no enum knows
TYPO_ENTRIES = [
    ({"type": "fit-matrix", "params": {"stepz": 3}}, "experiments[1].params.stepz"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 4},
      "assert": {"lowrank_fullft_ratoi": [0.0208, 0.01]}},
     "experiments[1].assert.lowrank_fullft_ratoi"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]]}}, "experiments[1].params.r"),
    ({"type": "train", "params": {"config": {"train": {"lr": -1}}}},
     "experiments[1].params.config"),
    ({"type": "schedule", "params": {"kinds": ["cubik"]}}, "experiments[1].params.kinds"),
    ({"type": "schedule", "assert": {"values": [["cubik", 5, 125]]}},
     "experiments[1].assert.values"),
    ({"type": "fit-matrix", "params": {"seeds": 0}},
     "experiments[1].params.seeds': seeds must be >= 1, got 0"),
    ({"type": "fit-matrix", "params": {"steps": -5}},
     "experiments[1].params.steps': steps must be nonnegative, got -5"),
    ({"type": "rank-sweep", "params": {"m": 8, "n": 8, "r_values": [99]}},
     "experiments[1].params: rank 99 outside [1, min(m, n) = 8]"),
    ({"type": "schedule", "params": {"b0": 5, "bT": 10}},
     "experiments[1].params: need 0 <= bT <= b0, got bT=10, b0=5"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": -1}},
     "experiments[1].params.r': r must be nonnegative, got -1"),
    ({"type": "memory-model", "params": {"layer_dims": [], "r": 4}},
     "experiments[1].params.layer_dims': layer_dims must list at least one layer, got []"),
    ({"type": "grad-evolution", "params": {"scale": 0}},
     "experiments[1].params.scale': scale must be positive, got 0.0"),
    *[({"type": "train", "params": {"config": document}},
       f"experiments[1].params.config: {message}") for document, message in BAD_DOCUMENTS],
    ({"type": "rank-sweep", "params": {"pieces": 0}},
     "experiments[1].params.pieces': pieces must be >= 1, got 0"),
    ({"type": "fit-matrix", "params": {"m": 8, "n": 8, "pieces": 3, "r": 2}},
     "experiments[1].params: piece count 3 exceeds rank 2"),
    ({"type": "fit-matrix", "params": {"m": 8, "n": 8, "r": 9}},
     "experiments[1].params: rank 9 outside [1, min(m, n) = 8]"),
    ({"type": "rank-sweep", "params": {"eps_rel": 2}},
     "experiments[1].params.eps_rel': eps_rel must lie in (0, 1), got 2.0"),
    ({"type": "grad-evolution", "params": {"pieces": 0}},
     "experiments[1].params.pieces': pieces must be >= 1, got 0"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 2, "pieces": -5}},
     "experiments[1].params.pieces': pieces must be >= 1, got -5"),
    ({"type": "train", "params": {"config": {"train": {"task": {"min_rank": 15}}}}},
     "experiments[1].params.config: value out of range for 'train.task.min_rank': could not "
     "draw a density-0.1 perturbation of rank > 15 on (16, 16)"),
    ({"type": "fit-matrix", "params": {"target_rank": 0}},
     "experiments[1].params.target_rank': target_rank must be >= 1, got 0"),
    ({"type": "fit-matrix", "params": {"target_rank": -1}},
     "experiments[1].params.target_rank': target_rank must be >= 1, got -1"),
    ({"type": "fit-matrix", "params": {"density": -0.5}},
     "experiments[1].params.density': density must lie in [0, 1], got -0.5"),
    ({"type": "fit-matrix", "params": {"density": 1.5}},
     "experiments[1].params.density': density must lie in [0, 1], got 1.5"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 4},
      "assert": {"lowrank_fullft_ratio": 0.02}},
     "experiments[1].assert.lowrank_fullft_ratio': need a list of 2 items, got 0.02"),
    ({"type": "rank-sweep", "assert": {"rank_at_most": 4}},
     "experiments[1].assert.rank_at_most': need an object, got 4"),
    ({"type": "rank-sweep", "params": {"r_values": [2]},
      "assert": {"rank_at_most": {"linear@r=4": 4}}},
     "experiments[1].assert.rank_at_most: the entry reports no 'linear@r=4' "
     "(it reports mix-k@r=2, p-linear@r=2, linear@r=2)"),
    ({"type": "fit-matrix", "params": {"kernels": ["linear"]},
      "assert": {"max_final_mse": {"rbf": 1.0}}},
     "experiments[1].assert.max_final_mse: the entry reports no 'rbf' (it reports linear)"),
    ({"type": "fit-matrix", "params": {"kernels": ["linear"]},
      "assert": {"mse_ordering": ["mix-k", "linear"]}},
     "experiments[1].assert.mse_ordering: the entry reports no 'mix-k' (it reports linear)"),
    ({"type": "fit-matrix", "assert": {"min_seed_fraction": "most"}},
     "experiments[1].assert.min_seed_fraction': need a number, got \"most\""),
    ({"type": "train", "assert": {"max_final_loss": "low"}},
     "experiments[1].assert.max_final_loss': need a number, got \"low\""),
    ({"type": "schedule", "assert": {"values": [["cubic", 1]]}},
     "experiments[1].assert.values': need a list of 3 items, got [\"cubic\", 1]"),
    ({"type": "schedule", "params": {"kinds": ["linear"]},
      "assert": {"values": [["cubic", 1, 3]]}},
     "experiments[1].assert.values: the entry reports no 'cubic' (it reports linear)"),
    ({"name": "s", "type": "schedule"}, "experiments[1].name \"s\" repeats experiments[0]'s name"),
    ({"name": "../escaped", "type": "schedule"},
     "experiments[1].name': name must be a nonempty string, not '.' or '..', with no path "
     'separator, got "../escaped"'),
    ({"name": ["x"], "type": "schedule"}, "experiments[1].name': need a name, got [\"x\"]"),
    ({"name": "", "type": "schedule"},
     "experiments[1].name': name must be a nonempty string, not '.' or '..', with no path "
     'separator, got ""'),
    ({"name": "..", "type": "schedule"},
     "experiments[1].name': name must be a nonempty string, not '.' or '..', with no path "
     'separator, got ".."'),
    ({"type": "grad-evolution", "params": {"kernels": ["linear"]},
      "assert": {"max_rbf_mixk_ratio": 0.1}},
     "experiments[1].assert.max_rbf_mixk_ratio: the entry reports no 'rbf' (it reports linear)"),
    ({"type": "fit-matrix", "params": {"seeds": 1.5}},
     "wrong type for 'experiments[1].params.seeds': need an integer, got 1.5"),
    ({"type": "fit-matrix", "params": {"steps": 1.5}},
     "wrong type for 'experiments[1].params.steps': need an integer, got 1.5"),
    ({"type": "schedule", "params": {"T": 2.5}},
     "wrong type for 'experiments[1].params.T': need an integer, got 2.5"),
    ({"type": "rank-sweep", "params": {"m": 8.0}},
     "wrong type for 'experiments[1].params.m': need an integer, got 8.0"),
    ({"type": "schedule", "params": {"b0": True}},
     "wrong type for 'experiments[1].params.b0': need an integer, got true"),
    ({"type": "grad-evolution", "params": {"steps": True}},
     "wrong type for 'experiments[1].params.steps': need an integer, got true"),
    ({"type": "grad-evolution", "params": {"lr": "fast"}},
     "wrong type for 'experiments[1].params.lr': need a number, got \"fast\""),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 2.5}},
     "wrong type for 'experiments[1].params.r': need an integer, got 2.5"),
    ({"type": "memory-model", "params": {"layer_dims": [[8.5, 8]], "r": 2}},
     "experiments[1].params.layer_dims': need an integer, got 8.5"),
    ({"type": "rank-sweep", "params": {"r_values": [2, 2.5]}},
     "experiments[1].params.r_values': need an integer, got 2.5"),
    ({"type": "schedule", "params": {"points": 3}}, "unknown key 'experiments[1].params.points'"),
    ({"type": "fit-matrix", "params": {"kernels": "linear"}},
     "experiments[1].params.kernels': need a list, got \"linear\""),
    ({"type": "schedule", "params": {"kinds": "cubic"}},
     "experiments[1].params.kinds': need a list, got \"cubic\""),
    ({"type": "rank-sweep", "params": {"r_values": 4}},
     "experiments[1].params.r_values': need a list, got 4"),
    ({"type": "memory-model", "params": {"layer_dims": "ab", "r": 2}},
     "experiments[1].params.layer_dims': need a list, got \"ab\""),
    ({"type": "fit-matrix", "params": {"seed_base": -1}},
     "experiments[1].params.seed_base': seed_base must be nonnegative, got -1"),
    ({"type": "rank-sweep", "params": {"seed_base": -1}},
     "experiments[1].params.seed_base': seed_base must be nonnegative, got -1"),
    ({"type": "grad-evolution", "params": {"seed_base": -1}},
     "experiments[1].params.seed_base': seed_base must be nonnegative, got -1"),
    ({"type": "fit-matrix", "params": {"factor_std": 0.0}},
     "experiments[1].params.factor_std': factor_std must be positive, got 0.0"),
    ({"type": "fit-matrix", "params": {"factor_std": -1.0}},
     "experiments[1].params.factor_std': factor_std must be positive, got -1.0"),
    ({"type": "fit-matrix", "params": {"kernels": ["linear", 3]}},
     "wrong type for 'experiments[1].params.kernels': need a name, got 3"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 2, "kernel_kind": "poly"}},
     "value out of range for 'experiments[1].params.kernel_kind': unknown kernel 'poly'"),
    ({"type": "fit-matrix", "params": {"kernels": ["linear", "poly"]}},
     "value out of range for 'experiments[1].params.kernels': unknown kernel 'poly'"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, "8"]], "r": 2}},
     "wrong type for 'experiments[1].params.layer_dims': need an integer, got \"8\""),
]

# appended after TYPO_ENTRIES takes in the documents above, so that its rows keep their ids
BAD_DOCUMENTS.append(({"train": {"task": {"kind": 3}}},
                      "wrong type for 'train.task.kind': need a name, got 3"))
TYPO_ENTRIES.append(({"type": "train", "params": {"config": BAD_DOCUMENTS[-1][0]}},
                     f"experiments[1].params.config: {BAD_DOCUMENTS[-1][1]}"))
# assert values outside their annotations' rules, sections and layers of the wrong
# shape, and a train override that is no object
TYPO_ENTRIES += [
    ({"type": "fit-matrix", "assert": {"min_seed_fraction": 1.5}},
     "value out of range for 'experiments[1].assert.min_seed_fraction': min_seed_fraction "
     "must lie in [0, 1], got 1.5"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": 4},
      "assert": {"lowrank_fullft_ratio": [0.0208, -0.01]}},
     "value out of range for 'experiments[1].assert.lowrank_fullft_ratio': "
     "lowrank_fullft_ratio must be nonnegative, got -0.01"),
    ({"type": "schedule", "assert": {"values": [["cubic", 5.5, 125.25]]}},
     "wrong type for 'experiments[1].assert.values': need an integer, got 5.5"),
    ({"type": "train", "assert": {"max_final_loss": float("nan")}},
     "value out of range for 'experiments[1].assert.max_final_loss': max_final_loss "
     "must be finite, got nan"),
    ({"type": "fit-matrix", "params": {"kernels": ["linear"]},
      "assert": {"max_final_mse": {"linear": -1}}},
     "value out of range for 'experiments[1].assert.max_final_mse': max_final_mse "
     "must be nonnegative, got -1.0"),
    ({"type": "fit-matrix", "assert": {"mse_ordering": ["linear", "linear"]}},
     "value out of range for 'experiments[1].assert.mse_ordering': mse_ordering "
     "must name each kernel once, got [\"linear\", \"linear\"]"),
    ({"type": "grad-evolution", "assert": {"max_rbf_mixk_ratio": -0.1}},
     "value out of range for 'experiments[1].assert.max_rbf_mixk_ratio': max_rbf_mixk_ratio "
     "must be nonnegative, got -0.1"),
    ({"type": "rank-sweep", "params": {"r_values": [4]},
      "assert": {"rank_above": {"mix-k@r=4": 4.5}}},
     "wrong type for 'experiments[1].assert.rank_above': need an integer, got 4.5"),
    ({"type": "schedule", "params": 3},
     "wrong type for 'experiments[1].params': need an object, got 3"),
    ({"type": "schedule", "assert": ["values"]},
     "wrong type for 'experiments[1].assert': need an object, got [\"values\"]"),
    ({"type": "train", "params": {"config": 3}},
     "wrong type for 'experiments[1].params.config': need an object, got 3"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 0]], "r": 2}},
     "value out of range for 'experiments[1].params.layer_dims': layer_dims must be >= 1, "
     "got 0"),
    ({"type": "memory-model", "params": {"layer_dims": [[8, 8, 8]], "r": 2}},
     "wrong type for 'experiments[1].params.layer_dims': need a list of 2 items, "
     "got [8, 8, 8]"),
]
# appended last, so that the rows above keep their ids: an lr that JSON reads
# as inf and a layer width that is no integer (in a document and a train
# override each), and a piece init that is NaN
BAD_DOCUMENTS += [
    ({"train": {"lr": 1e400}}, "value out of range for 'train.lr': lr must be finite, got inf"),
    ({"model": {"layer_dims": [16, 2.5]}},
     "wrong type for 'model.layer_dims': need an integer, got 2.5"),
]
TYPO_ENTRIES += [
    *[({"type": "train", "params": {"config": document}},
       f"experiments[1].params.config: {message}") for document, message in BAD_DOCUMENTS[-2:]],
    ({"type": "fit-matrix", "params": {"piece_init_eps": float("nan")}},
     "value out of range for 'experiments[1].params.piece_init_eps': piece_init_eps "
     "must be finite, got nan"),
]
# appended last, so that the rows above keep their ids: sections that are no
# object or list, the first in section order named (in a document and a train
# override each)
BAD_DOCUMENTS += [
    ({"model": 3}, "section 'model' must be an object"),
    ({"experiments": None}, "section 'experiments' must be a list"),
    ({"train": 3, "model": 3}, "section 'model' must be an object"),
]
TYPO_ENTRIES += [({"type": "train", "params": {"config": document}},
                  f"experiments[1].params.config: {message}")
                 for document, message in BAD_DOCUMENTS[-3:]]


class TestFitTargets:
    def test_full_rank_dense(self):
        t = make_fit_target(np.random.default_rng(0), 16, 16, 16, 1.0)
        assert numerical_rank(t, 1e-9) == 16

    def test_given_rank(self):
        t = make_fit_target(np.random.default_rng(1), 16, 16, 3, 1.0)
        assert numerical_rank(t, 1e-9) == 3

    def test_density_mask(self):
        t = make_fit_target(np.random.default_rng(2), 32, 32, 32, 0.1)
        frac = np.count_nonzero(t) / t.size
        assert 0.04 < frac < 0.2


class TestFitMatrix:
    def test_zero_steps_mse_equals_zero_prediction_baseline(self):
        report = fit_matrix_experiment(m=8, n=8, r=2, steps=0, seeds=2, density=1.0)
        for entry in report.per_seed:
            for kind in DEFAULT_KERNELS:
                run = entry["kernels"][kind]
                assert run["final_mse"] == pytest.approx(entry["baseline_mse"], rel=1e-12)

    def test_realizable_linear_target_fits_to_near_zero(self):
        # rank-2 target with a linear kernel of the same rank: global optimum 0
        report = fit_matrix_experiment(
            m=12, n=12, r=2, target_rank=2, kernels=("linear",), steps=4000,
            lr=1e-2, seeds=1, density=1.0,
        )
        assert report.aggregates["mean_final_mse"]["linear"] < 1e-6

    def test_aggregates_recomputable_from_per_seed(self):
        report = fit_matrix_experiment(m=8, n=8, r=2, steps=50, seeds=3, density=1.0)
        for kind in DEFAULT_KERNELS:
            mean = np.mean([s["kernels"][kind]["final_mse"] for s in report.per_seed])
            assert report.aggregates["mean_final_mse"][kind] == pytest.approx(float(mean))

    def test_reproducible_rerun(self):
        a = fit_matrix_experiment(m=8, n=8, r=2, steps=60, seeds=2, density=0.5)
        b = fit_matrix_experiment(m=8, n=8, r=2, steps=60, seeds=2, density=0.5)
        assert a.aggregates["mean_final_mse"] == b.aggregates["mean_final_mse"]

    def test_ordering_fraction_counts_strict_orderings(self):
        report = fit_matrix_experiment(m=8, n=8, r=2, steps=0, seeds=2, density=1.0)
        # all finals equal the baseline at zero steps: no strict ordering
        assert ordering_fraction(report, ["mix-k", "p-linear", "linear"]) == 0.0

    def test_antisymmetric_piece_init_recorded_and_applied(self):
        report = fit_matrix_experiment(m=8, n=8, r=2, steps=0, seeds=1, density=1.0,
                                       piece_init_eps=0.5)
        assert report.config["piece_init_eps"] == 0.5
        # nonzero piece coefficients make the step-0 merge nonzero
        run = report.per_seed[0]["kernels"]["p-linear"]
        assert run["final_mse"] != pytest.approx(report.per_seed[0]["baseline_mse"])

    def test_each_seed_of_a_batch_equals_its_solo_run(self):
        params = dict(m=10, n=8, r=3, steps=80, density=0.5, piece_init_eps=0.5,
                      kernels=("mix-k", "p-linear", "linear"))
        batch = fit_matrix_experiment(seeds=3, seed_base=4, **params)
        for i, entry in enumerate(batch.per_seed):
            solo = fit_matrix_experiment(seeds=1, seed_base=4 + i, **params).per_seed[0]
            assert entry == solo

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", [KernelKind.MIX_K, KernelKind.LINEAR])
    def test_diverged_seed_leaves_the_others_unchanged(self, kind):
        rng = np.random.default_rng(5)
        # the second target's squared error overflows, and so do its gradients:
        # a diverged seed that kept stepping would end at nan, not at inf
        targets = np.stack([rng.normal(size=(8, 6)), 1e308 * rng.normal(size=(8, 6))])

        def fit(index, seeds):
            return _fit([kind], targets[index], seeds, r=2, steps=30, lr=1e-2, pieces=2,
                        factor_std=1.0)[0]

        healthy, diverged = fit([0, 1], [0, 1])
        assert healthy == fit([0], [0])[0]
        assert not healthy["diverged"] and healthy["trace"]
        assert diverged["diverged"] and diverged["trace"] == []
        solo = fit([1], [1])[0]
        assert solo["final_mse"] == diverged["final_mse"] == np.inf
        assert solo == diverged

    @pytest.mark.parametrize("driver", [fit_matrix_experiment, grad_evolution_experiment])
    def test_bad_rank_rejected_before_any_target_is_drawn(self, driver, monkeypatch):
        drawn = []
        monkeypatch.setattr("klora.experiments.make_fit_target",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=re.escape("rank 0 outside [1, min(m, n) = 8]")):
            driver(m=8, n=8, r=0, kernels=("linear",), steps=2, seeds=1)
        with pytest.raises(ValueError, match="piece count 3 exceeds rank 2"):
            driver(m=8, n=8, r=2, pieces=3, kernels=("p-linear",), steps=2, seeds=1)
        with pytest.raises(ValueError, match="unknown kernel"):
            driver(m=8, n=8, r=2, kernels=("poly",), steps=2, seeds=1)
        with pytest.raises(ValueError, match="need an integer, got 2.5"):
            driver(m=8, n=8, r=4, pieces=2.5, kernels=("p-linear",), steps=2, seeds=1)
        assert drawn == []

    def test_nonlinear_kernels_beat_linear_on_dense_targets(self):
        # dense-target analogue: with two-wide segments (r=4, P=2) both
        # nonlinear kinds separate from the rank-capped linear merge
        report = fit_matrix_experiment(m=16, n=16, r=4, steps=6000, seeds=2,
                                       density=1.0, piece_init_eps=0.5)
        means = report.aggregates["mean_final_mse"]
        assert means["mix-k"] < means["linear"]
        assert means["p-linear"] < means["linear"]


class TestGradEvolution:
    def test_rbf_collapses_against_mixk_at_scale_ten(self):
        report = grad_evolution_experiment(
            kernels=("mix-k", "rbf"), scale=10.0, steps=40, seeds=2, m=12, n=12
        )
        assert report.aggregates["rbf_mixk_ratio"] <= 0.1

    def test_linear_gradient_does_not_vanish(self):
        report = grad_evolution_experiment(
            kernels=("linear",), scale=10.0, steps=40, seeds=1, m=12, n=12
        )
        assert report.aggregates["static_mean_abs_gradient"]["linear"] > 1.0

    def test_trace_recorded(self):
        report = grad_evolution_experiment(kernels=("mix-k",), scale=5.0, steps=30,
                                           seeds=1, m=8, n=8)
        run = report.per_seed[0]["kernels"]["mix-k"]
        assert run["grad_trace"] and run["trace"]


class TestRankSweep:
    def test_linear_capped_and_nonlinear_exceeds(self):
        report = rank_sweep(m=32, n=32, r_values=(4,), seeds=3)
        assert report.aggregates["linear@r=4"]["max"] <= 4
        assert report.aggregates["mix-k@r=4"]["min"] > 4
        assert report.aggregates["p-linear@r=4"]["min"] > 4

    def test_full_rank_linear_at_r_equals_min_dim(self):
        report = rank_sweep(m=12, n=12, r_values=(12,), kernels=("linear",), seeds=3)
        assert report.aggregates["linear@r=12"]["min"] == 12

    def test_table_round_trip(self, tmp_path):
        report = rank_sweep(m=16, n=16, r_values=(2, 4), seeds=2)
        header, rows = rank_table(report)
        path = tmp_path / "ranks.csv"
        write_csv(path, header, rows)
        header2, rows2 = read_csv(path)
        assert header2 == header and rows2 == rows


class TestScheduleTable:
    def test_midpoints_and_endpoints(self):
        header, rows = schedule_table(b0=1000, bT=0, T=10)
        assert header == ["t", "constant", "linear", "quadratic", "cubic"]
        by_t = {row[0]: row for row in rows}
        assert by_t[0][1:] == [0, 1000, 1000, 1000]
        assert by_t[5][1:] == [0, 500, 250, 125]
        assert by_t[10][1:] == [0, 0, 0, 0]

    def test_constant_kind_flat(self):
        header, rows = schedule_table(b0=100, bT=30, T=5, kinds=("constant",))
        assert all(row[1] == 30 for row in rows)


class TestMemoryModel:
    def test_headline_ratio(self):
        dims = [(768, 768)] * 12
        full = memory_footprint_estimate(dims, 8, "full-ft")
        low = memory_footprint_estimate(dims, 8, "low-rank", kernel_kind="mix-k", pieces=2)
        ratio = low["optimizer_param_floats"] / full["optimizer_param_floats"]
        assert abs(ratio - 0.0208) <= 0.01 * 0.0208

    def test_storing_delta_difference_is_weight_count(self):
        dims = [(64, 48), (48, 32)]
        low = memory_footprint_estimate(dims, 4, "low-rank")
        delta = memory_footprint_estimate(dims, 4, "low-rank-storing-delta")
        assert delta["total_floats"] - low["total_floats"] == 64 * 48 + 48 * 32

    def test_zero_rank_counts_only_coefficients(self):
        dims = [(16, 16)]
        low = memory_footprint_estimate(dims, 0, "low-rank", kernel_kind="mix-k", pieces=2)
        assert low["optimizer_param_floats"] == kernel_coefficient_count("mix-k", 2)

    def test_unknown_mode_rejected(self):
        message = ("unknown memory mode 'dense' "
                   "(known: full-ft, low-rank, low-rank-storing-delta)")
        with pytest.raises(ValueError, match=re.escape(message)):
            memory_footprint_estimate([(4, 4)], 2, "dense")

    def test_mode_parsed_by_its_enum(self):
        assert MEMORY_MODES == tuple(mode.value for mode in MemoryMode)
        spelled = memory_footprint_estimate([(4, 4)], 2, " Low-Rank ")
        assert spelled == memory_footprint_estimate([(4, 4)], 2, MemoryMode.LOW_RANK)
        assert spelled["mode"] == "low-rank"

    def test_coefficient_counts(self):
        assert kernel_coefficient_count("linear") == 0
        assert kernel_coefficient_count("p-linear", 3) == 3
        assert kernel_coefficient_count("mix-k", 2) == 4
        assert kernel_coefficient_count("rbf") == 3

    @pytest.mark.parametrize("kind", ["mix-k", "linear"])
    def test_piece_count_below_one_rejected(self, kind):
        with pytest.raises(ValueError, match="pieces must be >= 1, got -5"):
            kernel_coefficient_count(kind, -5)
        with pytest.raises(ValueError, match="pieces must be >= 1, got 0"):
            memory_footprint_estimate([(8, 8)], 2, "low-rank", kernel_kind=kind, pieces=0)

    @pytest.mark.parametrize("layer_dims, r, pieces", [
        ([[8.5, 8]], 2, 2), ([[8, 8]], 2.5, 2), ([[8, True]], 2, 2), ([[8, 8]], True, 2),
        ([[8, 8]], 2, 2.5)])
    def test_non_integer_dimension_rank_or_pieces_rejected(self, layer_dims, r, pieces):
        for mode in MEMORY_MODES:
            with pytest.raises(ValueError, match="need an integer, got (8.5|2.5|true)"):
                memory_footprint_estimate(layer_dims, r, mode, pieces=pieces)

    # the last two rows' layers are clipped: the 4-wide attention head to rank 4, and the
    # 2 x 2 layer to rank 2 (and at P3 to two pieces), as are its 1-wide heads
    @pytest.mark.parametrize("layer_dims, r, tokens", [
        ([256, 256, 256], 4, 2), ([16, 32, 8], 3, 2), ([64, 64, 64], 8, 2),
        ([64, 64, 64], 8, 16), ([2, 2], 8, 2)])
    def test_adam_state_holds_the_estimated_optimizer_floats(self, layer_dims, r, tokens):
        # every kind, piece count and attention setting
        for attention in (None, {"position": 0, "tokens": tokens}):
            run_config = apply_defaults({"model": {"layer_dims": layer_dims,
                                                   "attention": attention},
                                         "train": {"task": {"samples": 8}}})
            dataset = dataset_from(run_config)
            dims = [(n_out, n_in) for n_in, n_out in zip(layer_dims, layer_dims[1:])]
            if attention is not None:
                dims += [(layer_dims[1] // tokens, layer_dims[1] // tokens)] * 4
            for kind in KernelKind:
                for pieces in (1, 2, 3):
                    cfg = TrainerConfig(kernel_kind=kind, pieces=pieces, rank=r)
                    opt = Trainer(build_model(dataset, cfg), cfg, dataset).opt
                    estimate = memory_footprint_estimate(dims, r, "low-rank", kind, pieces)
                    assert opt._m.size == opt._v.size == estimate["optimizer_param_floats"]


class TestAllocTraceExport:
    def _trace(self):
        ds = high_rank_regression(seed=0, layer_dims=(8, 8, 8), samples=32)
        cfg = TrainerConfig(epochs=2, steps_per_epoch=4, batch_size=8, seed=0, rank=2,
                            budget_ratio=0.3)
        return fine_tune(cfg, ds)

    def test_warm_start_row_is_all_zero(self):
        header, rows = alloc_trace_table(self._trace())
        assert rows[0] == [0, 0.0, 0.0]

    def test_final_mean_ratio_tracks_budget_ratio(self):
        ds = high_rank_regression(seed=1, layer_dims=(8, 8), samples=32)
        cfg = TrainerConfig(epochs=3, steps_per_epoch=4, batch_size=8, seed=1, rank=2,
                            budget_ratio=0.3)
        trace = fine_tune(cfg, ds)
        header, rows = alloc_trace_table(trace)
        final = rows[-1][1:]
        cap = trace.layer_caps[0]
        expected = 1.0 - round(0.3 * cap) / cap
        assert final[0] == pytest.approx(expected, abs=1.0 / cap)

    def test_single_layer_ratio_formula(self):
        trace = RunTrace(seed=0, config={}, layer_caps=[100], initial_loss=1.0,
                         final_loss=0.5)
        from klora.model import EpochRecord

        trace.epochs = [EpochRecord(epoch=0, mean_loss=0.7, global_budget=40,
                                    budgets=[40], ratios=[0.6], scores=[1.0],
                                    grad_norms=[0.1])]
        header, rows = alloc_trace_table(trace)
        assert rows[1] == [1, 0.6]

    def test_round_trip_through_json(self):
        trace = self._trace()
        again = RunTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert again == trace
        assert alloc_trace_table(again) == alloc_trace_table(trace)


class TestRunAll:
    def test_empty_experiment_list_succeeds(self, tmp_path):
        cfg = apply_defaults({"experiments": []})
        paths, failures = run_all(cfg, tmp_path)
        assert paths == [] and failures == []

    def test_unknown_kernel_fails_validation_before_running(self, tmp_path):
        cfg = apply_defaults(
            {"experiments": [{"type": "rank-sweep", "params": {"kernels": ["poly"]}}]}
        )
        with pytest.raises(ConfigError, match="poly"):
            run_all(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_type_rejected(self, tmp_path):
        cfg = apply_defaults({"experiments": [{"type": "mystery"}]})
        with pytest.raises(ConfigError, match="mystery"):
            run_all(cfg, tmp_path)

    def test_small_bundle_runs_and_writes_reports(self, tmp_path):
        cfg = apply_defaults(
            {
                "experiments": [
                    {
                        "name": "sched",
                        "type": "schedule",
                        "params": {"b0": 100, "bT": 10, "T": 5},
                        "assert": {"values": [["cubic", 0, 100], ["cubic", 5, 10]]},
                    },
                    {
                        "name": "mem",
                        "type": "memory-model",
                        "params": {"layer_dims": [[768, 768]] * 12, "r": 8},
                        "assert": {"lowrank_fullft_ratio": [0.0208, 0.01]},
                    },
                ]
            }
        )
        paths, failures = run_all(cfg, tmp_path)
        assert failures == []
        names = sorted(p.name for p in paths)
        assert "sched.csv" in names and "sched.json" in names and "mem.json" in names

    def test_failed_assertion_reported_not_fatal(self, tmp_path):
        cfg = apply_defaults(
            {
                "experiments": [
                    {
                        "name": "mem",
                        "type": "memory-model",
                        "params": {"layer_dims": [[8, 8]], "r": 4},
                        "assert": {"lowrank_fullft_ratio": [0.0001, 0.01]},
                    }
                ]
            }
        )
        paths, failures = run_all(cfg, tmp_path)
        assert len(failures) == 1 and "mem" in failures[0]

    def test_linear_fit_with_more_pieces_than_rank_still_runs(self, tmp_path):
        entry = {"type": "fit-matrix", "params": {"m": 8, "n": 8, "r": 2, "pieces": 3,
                                                  "kernels": ["linear"], "steps": 5, "seeds": 1}}
        paths, failures = run_all(apply_defaults({"experiments": [entry]}), tmp_path)
        assert failures == [] and [p.name for p in paths] == ["fit-matrix-0.json"]

    def test_train_entry_writes_its_sparsity_table_and_report(self, tmp_path):
        entry = {"name": "t", "type": "train",
                 "params": {"config": {"model": {"layer_dims": [8, 8], "rank": 2},
                                       "train": {"epochs": 2, "steps_per_epoch": 2,
                                                 "batch_size": 8, "task": {"samples": 16}}}},
                 "assert": {"max_final_loss": 1e6}}
        paths, failures = run_all(apply_defaults({"experiments": [entry]}), tmp_path)
        assert failures == [] and [p.name for p in paths] == ["t-sparsity.csv", "t.json"]
        header, rows = read_csv(tmp_path / "t-sparsity.csv")
        assert header == ["epoch", "layer_0"] and [row[0] for row in rows] == [0, 1, 2]
        report = json.loads((tmp_path / "t.json").read_text())
        assert report["name"] == "t" and math.isfinite(report["aggregates"]["final_loss"])

    def test_name_equal_to_an_earlier_default_rejected(self, tmp_path):
        entries = [{"type": "schedule"}, {"name": "schedule-0", "type": "schedule"}]
        with pytest.raises(ConfigError, match=re.escape(
                "experiments[1].name \"schedule-0\" repeats experiments[0]'s name")):
            run_all(apply_defaults({"experiments": entries}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0)])
    def test_entry_writing_an_earlier_entrys_file_rejected(self, tmp_path, first, second):
        entries = [{"name": "a", "type": "train"}, {"name": "a-sparsity", "type": "schedule"}]
        later = entries[second]
        with pytest.raises(ConfigError, match=re.escape(
                f"experiments[1].name {json.dumps(later['name'])} writes a-sparsity.csv, "
                "which experiments[0] writes too")):
            run_all(apply_defaults({"experiments": [entries[first], later]}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second, where", TYPO_ENTRIES)
    def test_typo_in_later_entry_rejected_before_running(self, tmp_path, second, where):
        cfg = apply_defaults({"experiments": [SCHEDULE_ENTRY, second]})
        with pytest.raises(ConfigError, match=re.escape(where)):
            run_all(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


# per assert check: the experiment type, a hand-built report's fields and
# table, a value it meets, one it misses, and the details the miss yields
CHECK_CASES = [
    ("fit-matrix", "mse_ordering",
     {"aggregates": {"mean_final_mse": {"mix-k": 1.0, "linear": 2.0}},
      "per_seed": [{"kernels": {"mix-k": {"final_mse": 1.0}, "linear": {"final_mse": 2.0}}}]},
     None, ["mix-k", "linear"], ["linear", "mix-k"],
     ["mean MSE not ordered ['linear', 'mix-k']: [2.0, 1.0]",
      "strict per-seed ordering fraction 0.0 < 0.8"]),
    ("fit-matrix", "max_final_mse", {"aggregates": {"mean_final_mse": {"linear": 2.0}}}, None,
     {"linear": 2.5}, {"linear": 1.5}, ["linear mean MSE 2.0 > 1.5"]),
    ("grad-evolution", "max_rbf_mixk_ratio", {"aggregates": {"rbf_mixk_ratio": 0.05}}, None,
     0.1, 0.01, ["rbf/mix-k gradient ratio 0.05 > 0.01"]),
    ("rank-sweep", "rank_at_most", {"aggregates": {"linear@r=4": {"min": 3, "max": 4}}}, None,
     {"linear@r=4": 4}, {"linear@r=4": 3}, ["linear@r=4 max rank 4 > 3"]),
    ("rank-sweep", "rank_above", {"aggregates": {"mix-k@r=4": {"min": 8, "max": 16}}}, None,
     {"mix-k@r=4": 4}, {"mix-k@r=4": 8}, ["mix-k@r=4 min rank 8 <= 8"]),
    ("train", "max_final_loss", {"aggregates": {"final_loss": 0.5}}, None, 1.0, 0.25,
     ["final loss 0.5 > 0.25"]),
    ("schedule", "values", {}, (["t", "cubic"], [[0, 100], [5, 10]]),
     [["cubic", 5, 10]], [["cubic", 5, 11]], ["cubic at t=5: 10 != 11"]),
    ("memory-model", "lowrank_fullft_ratio", {"aggregates": {"lowrank_fullft_ratio": 0.02}},
     None, [0.02, 0.01], [0.03, 0.01], ["ratio 0.02 not within 0.01 of 0.03"]),
]


@pytest.mark.parametrize("etype, key, fields, table, met, missed, details", CHECK_CASES,
                         ids=[case[1] for case in CHECK_CASES])
def test_assert_check_passes_a_met_bound_and_reports_a_missed_one(
        etype, key, fields, table, met, missed, details):
    report = ExperimentReport(etype, {}, [], fields.get("per_seed", []),
                              fields.get("aggregates", {}))
    assert_check, = [c for c in EXPERIMENT_TYPES[etype].checks if key in hints(c)]
    for value, yielded in ((met, []), (missed, details)):
        parsed = check(key, value, hints(assert_check)[key])
        assert list(assert_check(report, table, **{key: parsed})) == yielded


# direct driver calls with one bad param, the run-all entry giving the same value, and
# the param, problem and message of the SettingError that both stop at
DIRECT_CALLS = [
    (fit_matrix_experiment, (), {"kernels": "linear"},
     {"type": "fit-matrix", "params": {"kernels": "linear"}},
     "kernels", "wrong type", 'need a list, got "linear"'),
    (schedule_table, (), {"b0": True}, {"type": "schedule", "params": {"b0": True}},
     "b0", "wrong type", "need an integer, got true"),
    (rank_sweep, (), {"seeds": 0}, {"type": "rank-sweep", "params": {"seeds": 0}},
     "seeds", "value out of range", "seeds must be >= 1, got 0"),
    (memory_footprint_estimate, ([[8, 8]], -1, "full-ft"), {},
     {"type": "memory-model", "params": {"layer_dims": [[8, 8]], "r": -1}},
     "r", "value out of range", "r must be nonnegative, got -1"),
]


@pytest.mark.parametrize("driver, args, kwargs, entry, name, problem, message", DIRECT_CALLS,
                         ids=[row[0].__name__ for row in DIRECT_CALLS])
def test_direct_call_fails_before_any_work_like_run_all(
        driver, args, kwargs, entry, name, problem, message, monkeypatch, tmp_path):
    called = []
    for work in ("make_fit_target", "merge", "budget_at", "kernel_coefficient_count"):
        monkeypatch.setattr(f"klora.experiments.{work}",
                            lambda *a, work=work, **k: called.append(work))
    with pytest.raises(SettingError) as err:
        driver(*args, **kwargs)
    assert (err.value.name, err.value.problem, str(err.value)) == (name, problem, message)
    assert called == []
    with pytest.raises(ConfigError) as err:
        run_all(apply_defaults({"experiments": [entry]}), tmp_path / "out")
    assert str(err.value) == f"{problem} for 'experiments[0].params.{name}': {message}"
    assert called == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("document, message", BAD_DOCUMENTS)
def test_bad_document_rejected_naming_its_key(document, message):
    with pytest.raises(ConfigError) as err:
        apply_defaults(document)
    assert str(err.value).startswith(message)


class TestTrainExperiment:
    def test_case_variant_task_kind_trains_on_model_dims(self):
        cfg = apply_defaults({
            "model": {"layer_dims": [32, 32]},
            "train": {"epochs": 1, "steps_per_epoch": 1,
                      "task": {"kind": "High-Rank-Regression", "samples": 16}},
        })
        _, trace = train_experiment(cfg)
        assert trace.layer_caps == [32 * 32]

    def test_report_and_trace(self):
        cfg = apply_defaults(
            {
                "model": {"layer_dims": [8, 8]},
                "train": {"epochs": 2, "steps_per_epoch": 3, "batch_size": 8,
                           "task": {"samples": 24}},
            }
        )
        report, trace = train_experiment(cfg)
        assert report.aggregates["final_loss"] == trace.final_loss
        assert len(trace.epochs) == 2


class TestCli:
    def test_schedule_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["schedule", "--out", str(tmp_path), "--b0", "1000", "--bt", "0",
                       "--steps", "10"]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_csv(tmp_path / "schedule.csv")
        by_t = {row[0]: row for row in rows}
        assert by_t[5][header.index("cubic")] == 125

    def test_memory_model_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["memory-model", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        data = json.loads((tmp_path / "memory-model.json").read_text())
        assert set(data["aggregates"]) == {*MEMORY_MODES, "lowrank_fullft_ratio"}

    def test_rank_sweep_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["rank-sweep", "--out", str(tmp_path), "--size", "16", "--seeds", "2",
             "--rank", "2"],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rank-sweep.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_diverging_fit_is_reported_without_a_numpy_warning(self, tmp_path):
        # sigmoid at this lr overflows exp within the steps: inf in the forward
        # pass, and inf times a zero gradient in the backward pass
        result = CliRunner().invoke(cli_main, [
            "fit-matrix", "--kernel", "sigmoid", "--size", "32", "--rank", "4", "--steps",
            "3000", "--seeds", "1", "--density", "1.0", "--lr", "1e-2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "diverged_runs: 1" in result.output

    def test_train_and_alloc_trace_commands(self, tmp_path):
        runner = CliRunner()
        cfg = {
            "model": {"layer_dims": [8, 8], "rank": 2},
            "train": {"epochs": 2, "steps_per_epoch": 3, "batch_size": 8,
                      "task": {"samples": 24}},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "adapter.bin"
        result = runner.invoke(
            cli_main,
            ["train", "--config", str(cfg_path), "--out", str(tmp_path),
             "--checkpoint", str(ckpt)],
        )
        assert result.exit_code == 0, result.output
        assert ckpt.exists()
        trace_path = tmp_path / "train-trace.json"
        assert trace_path.exists()
        result = runner.invoke(
            cli_main, ["alloc-trace", str(trace_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sparsity-ratios.csv").exists()
        assert (tmp_path / "sparsity-ratios.svg").exists()

    def test_grad_check_command(self):
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["grad-check", "--seeds", "2", "--kernel", "mix-k",
                       "--kernel", "rbf"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 2

    def test_fit_matrix_command_tiny(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["fit-matrix", "--out", str(tmp_path), "--size", "8", "--rank", "2",
             "--steps", "40", "--seeds", "1", "--kernel", "linear"],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fit-matrix.json").exists()

    def test_run_all_with_passing_asserts_exits_zero(self, tmp_path):
        entry = {**SCHEDULE_ENTRY, "assert": {"values": [["cubic", 0, 100], ["cubic", 5, 10]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiments": [entry]}))
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, ["run-all", "--config", str(cfg_path),
                                               "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == (f"wrote {out / 's.csv'}\nwrote {out / 's.json'}\n"
                                 "all assertions passed\n")

    def test_run_all_with_failing_assert_exits_nonzero(self, tmp_path):
        cfg = {
            "experiments": [
                {
                    "name": "mem",
                    "type": "memory-model",
                    "params": {"layer_dims": [[8, 8]], "r": 4},
                    "assert": {"lowrank_fullft_ratio": [0.0001, 0.01]},
                }
            ]
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["run-all", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "ASSERTION FAILED" in result.output

    def test_run_all_validates_unknown_kernel_before_running(self, tmp_path):
        cfg = {"experiments": [{"type": "fit-matrix", "params": {"kernels": ["poly"]}}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["run-all", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code != 0
        assert "poly" in result.output

    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0)])
    def test_entry_writing_an_earlier_entrys_file_rejected(self, tmp_path, first, second):
        entries = [{"name": "a", "type": "train"}, {"name": "a-sparsity", "type": "schedule"}]
        later = entries[second]
        with pytest.raises(ConfigError, match=re.escape(
                f"experiments[1].name {json.dumps(later['name'])} writes a-sparsity.csv, "
                "which experiments[0] writes too")):
            run_all(apply_defaults({"experiments": [entries[first], later]}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second, where", TYPO_ENTRIES)
    def test_run_all_reports_typo_as_click_error(self, tmp_path, second, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiments": [SCHEDULE_ENTRY, second]}))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli_main, ["run-all", "--config", str(cfg_path), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and where in result.output
        assert not out.exists()


# unknown names, then values out of range; each with the message it must print.
# BAD_CONFIG stands for a config file holding {"kernel": {"pieces": 0}}.
BAD_INPUT_COMMANDS = [
    (["fit-matrix", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["grad-evolution", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["rank-sweep", "--kernel", "linear", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["grad-check", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["memory-model", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["schedule", "--schedule", "cubik"], "unknown schedule 'cubik'"),
    (["train", "--kernel", "poly"], "unknown kernel 'poly'"),
    (["train", "--schedule", "cubik"], "unknown schedule 'cubik'"),
    (["train", "--budget-ratio", "2"], "value out of range for 'sparsity.budget_ratio'"),
    (["memory-model", "--rank", "-1"], "r must be nonnegative, got -1"),
    (["fit-matrix", "--size", "8", "--target-rank", "9"], "target rank 9 exceeds min(m, n)"),
    (["fit-matrix", "--lr", "-1"], "lr must be nonnegative, got -1.0"),
    (["fit-matrix", "--seeds", "0"], "seeds must be >= 1, got 0"),
    (["grad-evolution", "--seeds", "0"], "seeds must be >= 1, got 0"),
    (["rank-sweep", "--rank", "99", "--size", "8"], "rank 99 outside [1, min(m, n) = 8]"),
    (["rank-sweep", "--seeds", "0"], "seeds must be >= 1, got 0"),
    (["train", "--config", "BAD_CONFIG"], "value out of range for 'kernel.pieces'"),
    (["schedule", "--b0", "-5"], "need 0 <= bT <= b0, got bT=0, b0=-5"),
    (["schedule", "--steps", "0"], "need T >= 1, got 0"),
    (["grad-check", "--pieces", "0"], "pieces must be >= 1, got 0"),
    (["grad-check", "--m", "0"], "m must be >= 1, got 0"),
    (["grad-check", "--seeds", "0"], "seeds must be >= 1, got 0"),
    (["train", "--seed", "-1"], "value out of range for 'train.seed'"),
    (["fit-matrix", "--steps", "-5"], "steps must be nonnegative, got -5"),
    (["grad-evolution", "--steps", "-1"], "steps must be nonnegative, got -1"),
    (["memory-model", "--layers", "0"], "layer_dims must list at least one layer, got []"),
    (["grad-check", "--h", "0"], "h must be positive, got 0.0"),
    (["grad-check", "--tol", "-1"], "tol must be positive, got -1.0"),
    (["alloc-trace", "NOT_JSON"], "Expecting value: line 1 column 1"),
    (["alloc-trace", "NO_CONFIG"], "missing 4 required positional arguments: 'config'"),
    (["alloc-trace", "UNKNOWN_KEY"], "unexpected keyword argument 'loss'"),
    (["alloc-trace", "NO_LAYERS"], "trace has no layers"),
    (["alloc-trace", "RAGGED"], "epoch 0 has 0 ratios for 1 layers"),
    (["rank-sweep", "--pieces", "0"], "pieces must be >= 1, got 0"),
    (["fit-matrix", "--pieces", "3", "--rank", "2", "--size", "8"],
     "piece count 3 exceeds rank 2"),
    (["fit-matrix", "--rank", "9", "--size", "8"], "rank 9 outside [1, min(m, n) = 8]"),
    (["grad-evolution", "--pieces", "0"], "pieces must be >= 1, got 0"),
    (["memory-model", "--pieces", "-5", "--layers", "1", "--m", "8", "--n", "8", "--rank", "2"],
     "pieces must be >= 1, got -5"),
    (["fit-matrix", "--target-rank", "0"], "target_rank must be >= 1, got 0"),
    (["fit-matrix", "--target-rank", "-1"], "target_rank must be >= 1, got -1"),
    (["fit-matrix", "--density", "-0.5"], "density must lie in [0, 1], got -0.5"),
    (["fit-matrix", "--density", "1.5"], "density must lie in [0, 1], got 1.5"),
    (["fit-matrix", "--seed", "-1"], "seed_base must be nonnegative, got -1"),
    (["rank-sweep", "--seed", "-1"], "seed_base must be nonnegative, got -1"),
    (["grad-evolution", "--seed", "-1"], "seed_base must be nonnegative, got -1"),
    (["fit-matrix", "--factor-std", "0"], "factor_std must be positive, got 0.0"),
    (["alloc-trace", "RATIO_ABOVE_ONE"],
     "value out of range for 'epochs[0].ratios[0]': ratios[0] must lie in [0, 1], got 1.5"),
    (["alloc-trace", "RATIO_NAN"],
     "value out of range for 'epochs[0].ratios[0]': ratios[0] must be finite, got nan"),
    (["grad-check", "--rank", "7"], "rank 7 outside [1, min(m, n) = 6]"),
    (["alloc-trace", "RATIO_STRING"],
     "wrong type for 'epochs[0].ratios[0]': need a number, got \"0.5\""),
    (["fit-matrix", "--piece-init-eps", "inf"], "piece_init_eps must be finite, got inf"),
]

# files the commands above name by a placeholder
_TRACE = {"seed": 0, "config": {}, "layer_caps": [4], "initial_loss": 1.0, "final_loss": 0.5}
_EPOCH = {"epoch": 0, "mean_loss": 1.0, "global_budget": 2, "budgets": [2], "scores": [1.0],
          "grad_norms": [0.1]}
BAD_INPUT_FILES = {
    "BAD_CONFIG": '{"kernel": {"pieces": 0}}',
    "NOT_JSON": "not json",
    "NO_CONFIG": '{"seed": 0}',
    "UNKNOWN_KEY": json.dumps({**_TRACE, "loss": 1.0}),
    "NO_LAYERS": json.dumps({**_TRACE, "layer_caps": []}),
    "RAGGED": json.dumps({**_TRACE, "epochs": [{**_EPOCH, "ratios": []}]}),
    "RATIO_ABOVE_ONE": json.dumps({**_TRACE, "epochs": [{**_EPOCH, "ratios": [1.5]}]}),
    "RATIO_NAN": json.dumps({**_TRACE, "epochs": [{**_EPOCH, "ratios": [math.nan]}]}),
    "RATIO_STRING": json.dumps({**_TRACE, "epochs": [{**_EPOCH, "ratios": ["0.5"]}]}),
}


@pytest.mark.parametrize("args, message", BAD_INPUT_COMMANDS,
                         ids=["-".join(args[:2]) for args, _ in BAD_INPUT_COMMANDS])
def test_cli_rejects_unknown_name_as_usage_error(tmp_path, args, message):
    for placeholder, text in BAD_INPUT_FILES.items():
        (tmp_path / placeholder).write_text(text)
    args = [str(tmp_path / arg) if arg in BAD_INPUT_FILES else arg for arg in args]
    out = tmp_path / "out"
    extra = [] if args[0] == "grad-check" else ["--out", str(out)]
    result = CliRunner().invoke(cli_main, args + extra)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("train, key", [
    ({"adam_beta1": 1.0}, "train.adam_beta1"), ({"adam_beta2": 1.5}, "train.adam_beta2"),
    ({"adam_eps": -1}, "train.adam_eps"),
])
def test_cli_train_rejects_out_of_range_adam_setting(tmp_path, train, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": train}))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"value out of range for '{key}'" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("document, message", BAD_DOCUMENTS)
def test_cli_train_rejects_bad_document(tmp_path, document, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


# config files that each command rejects before any work: one that is not
# UTF-8 ("{}" in UTF-16, with its byte-order mark), and one that names the
# retired rbf-normalized kernel
BAD_CONFIG_FILES = {
    "utf-16": (b"\xff\xfe{\x00}\x00", "malformed JSON in {path}: 'utf-8' codec can't decode"),
    "rbf-normalized": (b'{"kernel": {"kind": "rbf-normalized"}}',
                       "value out of range for 'kernel.kind': unknown kernel 'rbf-normalized'"),
}


@pytest.mark.parametrize("command", ["train", "run-all"])
@pytest.mark.parametrize("name", BAD_CONFIG_FILES)
def test_cli_rejects_a_bad_config_file_before_any_work(tmp_path, name, command):
    content, message = BAD_CONFIG_FILES[name]
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [command, "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message.format(path=path) in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_cli_train_rejects_an_unreachable_min_rank(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"task": {"min_rank": 15}}}))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert ("value out of range for 'train.task.min_rank': could not draw a density-0.1 "
            "perturbation of rank > 15 on (16, 16)") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [[], ["--h", "1e-4", "--seeds", "20"], ["--h", "1e-6"]],
                         ids=["defaults", "h1e-4-seeds20", "h1e-6"])
def test_cli_grad_check_passes(args):
    result = CliRunner().invoke(cli_main, ["grad-check", *args])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == len(KernelKind)


@pytest.mark.parametrize("args", [
    ["memory-model", "--kernel", "MixK"],
    ["memory-model", "--kernel", "p_linear"],
    ["memory-model", "--kernel", "mix_k"],
    ["schedule", "--schedule", " Cubic ", "--schedule", "LINEAR"],
    ["train", "--sparsify-mode", "SOFT", "--alloc-period", "Per-Step", "--epochs", "1"],
])
def test_cli_keeps_accepted_spellings(tmp_path, args):
    result = CliRunner().invoke(cli_main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output


EXPERIMENT_COMMANDS = ("fit-matrix", "grad-evolution", "rank-sweep", "schedule", "memory-model")


@pytest.mark.parametrize("command", EXPERIMENT_COMMANDS)
def test_cli_option_defaults_are_the_drivers(command):
    # an option sets the driver parameter it is named after; --size sets m and n
    defaults = EXPERIMENT_TYPES[command].params
    for option in cli_main.commands[command].params:
        names = ("m", "n") if option.opts == ["--size"] else (option.name,)
        for name in names:
            if defaults.get(name, REQUIRED) is not REQUIRED and option.default is not None:
                assert option.default == defaults[name], (command, option.opts, name)


@pytest.mark.parametrize("args, params", [
    (["schedule", "--b0", "100", "--bt", "10", "--steps", "5"],
     {"b0": 100, "bT": 10, "T": 5, "kinds": ["constant", "linear", "quadratic", "cubic"]}),
    (["memory-model", "--layers", "2", "--m", "8", "--n", "6", "--rank", "2"],
     {"layer_dims": [[8, 6], [8, 6]], "r": 2, "kernel_kind": "mix-k", "pieces": 2}),
    (["rank-sweep", "--size", "16", "--seeds", "2", "--rank", "2", "--rank", "4"],
     {"m": 16, "n": 16, "seeds": 2, "r_values": [2, 4]}),
], ids=["schedule", "memory-model", "rank-sweep"])
def test_cli_command_writes_what_its_run_all_entry_writes(tmp_path, args, params):
    command = tmp_path / "command"
    result = CliRunner().invoke(cli_main, args + ["--out", str(command)])
    assert result.exit_code == 0, result.output
    entry = {"name": args[0], "type": args[0], "params": params}
    paths, failures = run_all(apply_defaults({"experiments": [entry]}), tmp_path / "run-all")
    assert failures == []
    assert sorted(p.name for p in command.iterdir()) == sorted(p.name for p in paths)
    for path in paths:
        mine, theirs = (command / path.name).read_text(), path.read_text()
        if path.suffix == ".json":
            mine, theirs = json.loads(mine), json.loads(theirs)
            mine.pop("duration_s"), theirs.pop("duration_s")
        assert mine == theirs, path.name


def test_default_run_config_is_valid():
    cfg = default_run_config()
    assert len(cfg["experiments"]) == 6


class TestConcurrencyDeterminism:
    def test_parallel_and_sequential_seeds_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        def one(seed):
            ds = high_rank_regression(seed=seed, layer_dims=(8, 8), samples=24)
            cfg = TrainerConfig(epochs=1, steps_per_epoch=3, batch_size=8, seed=seed,
                                rank=2)
            return fine_tune(cfg, ds).final_loss

        sequential = [one(s) for s in range(3)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(one, range(3)))
        assert sequential == parallel
