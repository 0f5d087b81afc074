"""The benchmark's workloads, driven only through klora's public entry points.

Each workload has a fixed unit of work that the seed determines completely;
a run repeats the unit until its time is used, so every repetition must give
the same numbers. See README.md in this directory for why each was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

from klora import checkpoint, config, experiments, model
from klora.kernels import KernelSpec, LowRankPair, merge
from klora.tensor import Tensor, backward, reduce_sum
from reference import reference_merge

MERGE_TOLERANCE = 1e-9  # relative to max(1, max |reference entry|)


def digest_of(obj) -> str:
    """SHA-256 of a JSON rendering; Python writes floats with all their digits."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check(name: str, ok: bool, detail: str = "") -> tuple:
    return (name, bool(ok), detail)


def coefficient_count(kind: str, pieces: int) -> int:
    return {"linear": 0, "p-linear": pieces, "mix-k": pieces + 2}[kind]


def merge_reference_checks(shapes, seed: int) -> list:
    """Compare kernels.merge with the numpy reference at each (kind, m, n, r, P)."""
    checks = []
    for i, (kind, m, n, r, pieces) in enumerate(shapes):
        rng = np.random.default_rng([seed, 0xBE, i])
        a, b = rng.normal(size=(n, r)), rng.normal(size=(m, r))
        coeffs = rng.normal(size=coefficient_count(kind, pieces))
        spec = KernelSpec.from_coefficient_values(kind, coeffs, trainable=False)
        got = merge(spec, LowRankPair(A=Tensor(a), B=Tensor(b))).data
        want = reference_merge(kind, coeffs, a, b)
        err = float(np.max(np.abs(got - want)))
        limit = MERGE_TOLERANCE * max(1.0, float(np.max(np.abs(want))))
        checks.append(check(f"merge.{kind}.{m}x{n}.r{r}", err <= limit,
                            f"max abs error {err:.3e}, limit {limit:.3e}"))
    return checks


def merge_probe(shape, repeats: int = 3) -> dict:
    """mix-k merge forward+backward at one shape: median time and tracemalloc peak."""
    _, m, n, r, pieces = shape
    rng = np.random.default_rng([0xBE, m, n, r])
    a, b = rng.normal(size=(n, r)), rng.normal(size=(m, r))
    coeffs = rng.normal(size=coefficient_count("mix-k", pieces))

    def once():
        spec = KernelSpec.from_coefficient_values("mix-k", coeffs, trainable=True)
        pair = LowRankPair(A=Tensor(a, requires_grad=True), B=Tensor(b, requires_grad=True))
        backward(reduce_sum(merge(spec, pair)))

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        once()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"kernels.merge.fwd_bwd_ms": 1e3 * float(np.median(times)),
            "kernels.merge.peak_mib": peak / 2**20}


class FitWorkload:
    """`fit_matrix_experiment` over a fixed set of targets and kernels.

    Timed units fit for `steps` steps. The checked unit, run once per run
    before the timed ones, fits for `check_steps`, long enough that every fit
    ends below its baseline.
    """

    def __init__(self, targets: int, steps: int, check_steps: int | None = None,
                 probe_steps: int = 0, yardstick: str = "interpreter", **params):
        self.yardstick = yardstick
        self.targets = targets
        self.steps = steps
        self.check_steps = check_steps or steps
        self.probe_steps = probe_steps
        self.params = params
        m, n, r, pieces = params["m"], params["n"], params["r"], params["pieces"]
        self.merge_shapes = [(k, m, n, r, pieces) for k in params["kernels"]]
        self.probe_shape = ("mix-k", m, n, r, pieces)

    def prepare(self, seed: int) -> dict:
        return {"seeds": self.targets, "seed_base": self.targets * seed}

    def setup_probe(self, seed: int) -> None:
        """Everything before the first fit step: targets, their ranks, factors."""
        experiments.fit_matrix_experiment(steps=0, **self.prepare(seed), **self.params)

    def run_unit(self, state: dict, span, scratch: Path, full: bool = False):
        steps = self.check_steps if full else self.steps
        with span("experiments.fit_matrix"):
            return experiments.fit_matrix_experiment(steps=steps, **state, **self.params)

    def summarize(self, report) -> dict:
        fits = [(entry, fit) for entry in report.per_seed for fit in entry["kernels"].values()]
        return {
            "steps": report.config["steps"] * len(fits),
            # final MSE relative to the zero update's MSE (the baseline)
            "final_loss": float(np.mean([f["final_mse"] / e["baseline_mse"] for e, f in fits])),
            "digest": digest_of(report.per_seed),
        }

    def verify(self, report) -> tuple:
        """Every fit finite and not diverged; in the checked unit, also below baseline."""
        checks = []
        full = report.config["steps"] == self.check_steps
        for entry in report.per_seed:
            base = entry["baseline_mse"]
            for kind, fit in entry["kernels"].items():
                final = fit["final_mse"]
                ok = math.isfinite(final) and not fit["diverged"] and (final < base or not full)
                checks.append(check(f"fit.{kind}.seed{entry['seed']}", ok,
                                    f"final {final!r}, baseline {base!r}, diverged {fit['diverged']}"))
        return checks, {}

    def step_probes(self, seed: int, repeats: int = 3) -> dict:
        """Fit microseconds per step for each kernel alone, set-up cost subtracted."""
        out = {}
        steps = self.probe_steps
        for kind in self.params["kernels"] if steps else ():
            params = dict(self.params, kernels=(kind,), seeds=1, seed_base=self.targets * seed)
            cost = []
            for n_steps in (0, steps):
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    experiments.fit_matrix_experiment(steps=n_steps, **params)
                    times.append(time.perf_counter() - t0)
                cost.append(float(np.median(times)))
            out[f"experiments.fit_us_per_step.{kind}"] = 1e6 * (cost[1] - cost[0]) / steps
        return out


class TrainWorkload:
    """`Trainer.fine_tune` plus a checkpoint round trip, for several trainer seeds."""

    yardstick = "interpreter"

    def __init__(self, trainings: int, raw: dict):
        self.trainings = trainings
        self.raw = raw
        dims = raw["model"]["layer_dims"]
        r, pieces = raw["model"]["rank"], raw["kernel"]["pieces"]
        head = dims[1] // raw["model"]["attention"]["tokens"]
        self.merge_shapes = [("mix-k", dims[1], dims[0], r, pieces),
                             ("mix-k", head, head, min(r, head), pieces)]
        self.probe_shape = self.merge_shapes[0]

    def prepare(self, seed: int) -> list:
        out = []
        for s in range(self.trainings * seed, self.trainings * (seed + 1)):
            raw = json.loads(json.dumps(self.raw))
            raw["train"]["seed"] = s
            cfg = config.apply_defaults(raw)
            out.append((config.dataset_from(cfg), config.trainer_config_from(cfg)))
        return out

    def setup_probe(self, seed: int) -> None:
        for dataset, tcfg in self.prepare(seed):
            model.Trainer(model.build_model(dataset, tcfg), tcfg, dataset)

    def run_unit(self, state: list, span, scratch: Path, full: bool = False) -> list:
        runs = []
        path = scratch / "adapter.bin"
        for dataset, tcfg in state:
            with span("model.build"):
                net = model.build_model(dataset, tcfg)
                trainer = model.Trainer(net, tcfg, dataset)
            base_before = net.base_checksums()
            with span("model.fine_tune"):
                trace = trainer.fine_tune()
            with span("checkpoint.save"):
                checkpoint.save_checkpoint(net, path)
            with span("checkpoint.load"):
                records = checkpoint.load_checkpoint(path)
            runs.append({"model": net, "trainer": trainer, "trace": trace, "base": base_before,
                         "records": records,
                         "checkpoint": hashlib.sha256(path.read_bytes()).hexdigest()})
        return runs

    def summarize(self, runs: list) -> dict:
        traces = []
        for run in runs:
            d = run["trace"].to_dict()
            d.pop("duration_s")
            traces.append([d, run["checkpoint"]])
        return {
            "steps": sum(run["trainer"].global_step for run in runs),
            # final loss relative to the loss before training (zero update)
            "final_loss": float(np.mean([r["trace"].final_loss / r["trace"].initial_loss
                                         for r in runs])),
            "digest": digest_of(traces),
        }

    def verify(self, runs: list) -> tuple:
        checks = []
        live_total = budget_total = 0
        for run in runs:
            tag = f"train.seed{run['trace'].seed}"
            trace, layers = run["trace"], run["model"].adapted_layers()
            checks.append(check(f"{tag}.loss_falls", trace.final_loss < trace.initial_loss,
                                f"initial {trace.initial_loss!r}, final {trace.final_loss!r}"))
            over = []
            for i, layer in enumerate(layers):
                live = int(np.count_nonzero(layer.delta_w().data))
                budget = layer.cap if layer.budget is None else min(int(layer.budget), layer.cap)
                live_total += live
                budget_total += budget
                if live > budget:
                    over.append(f"layer {i}: {live} live > budget {budget}")
            checks.append(check(f"{tag}.live_within_budget", not over, "; ".join(over)))
            checks.append(check(f"{tag}.base_unchanged",
                                run["model"].base_checksums() == run["base"]))
            checks.append(check(f"{tag}.checkpoint_roundtrip",
                                _records_match(run["records"], layers)))
        live_over_budget = live_total / budget_total if budget_total else 0.0
        return checks, {"allocation.live_over_budget": live_over_budget}

    def step_probes(self, seed: int) -> dict:
        return {}


def _records_match(records, layers) -> bool:
    if len(records) != len(layers):
        return False
    for rec, layer in zip(records, layers):
        pair, spec = layer.pair, layer.spec
        if (rec.kind, rec.m, rec.n, rec.r) != (spec.kind, pair.m, pair.n, pair.r):
            return False
        for got, want in ((rec.a, pair.A.data), (rec.b, pair.B.data),
                          (rec.coefficients, spec.coefficient_values())):
            if got.tobytes() != np.ascontiguousarray(want, dtype=np.float64).tobytes():
                return False
    return True


WORKLOADS = {
    # the run-all / Tier-1 fit-matrix protocol shape, cut to 4000 steps per
    # kernel in the checked unit and to 100 in the timed ones
    "fit-small": FitWorkload(
        targets=3, steps=100, check_steps=4000, probe_steps=1000, m=32, n=32, r=4, pieces=2,
        lr=1e-3, density=0.05, piece_init_eps=1.0, kernels=("mix-k", "p-linear", "linear"),
    ),
    # the memory-model layer shape; lr is small enough that the few steps
    # taken move the fit monotonically below its baseline
    "merge-large": FitWorkload(
        targets=1, steps=4, yardstick="memory", m=768, n=768, r=8, pieces=2, lr=1e-5,
        density=0.05, kernels=("mix-k",),
    ),
    # budget ratio, batch and samples differ from the config defaults, at
    # which the final loss rose above the initial loss on some seeds
    "train-sparse": TrainWorkload(
        trainings=6,
        raw={
            "model": {"layer_dims": [64, 64, 64], "rank": 8,
                      "attention": {"position": 0, "tokens": 4}},
            "kernel": {"kind": "mix-k", "pieces": 2},
            "sparsity": {"budget_ratio": 0.5, "schedule": "cubic",
                         "alloc_period": "per-step", "sparsify_mode": "soft"},
            "train": {"lr": 1e-2, "epochs": 10, "batch_size": 32,
                      "task": {"kind": "high-rank-regression", "samples": 192}},
        },
    ),
}
