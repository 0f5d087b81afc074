"""Desk-scale experiment drivers behind the CLI.

Each driver returns an ExperimentReport whose aggregates are recomputable
from the per-seed entries. The fitting drivers run every kernel and seed
together, the seeds stacked on a leading axis and the kernels' merges
stacked on one more, with one recorded graph and one optimizer step for
all of them per step; the fits share no values, so each (kernel, seed)
result is that of a run on its own. Every run is deterministic per seed.
"""

from __future__ import annotations

import inspect
import math
import threading
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .allocation import BudgetSchedule, ScheduleKind, budget_at
from .choices import Choice
from .config import (ConfigError, RunConfig, apply_defaults, check_type, dataset_from,
                     trainer_config_from)
from .kernels import (
    KINDS,
    KernelKind,
    KernelSpec,
    LowRankPair,
    check_integer_pieces,
    kernel_coefficient_count,
    mean_abs_factor_gradient,
    merge,
    numerical_rank,
)
# the rank worker's name for numerical_rank: perfbench's span recorder wraps
# `numerical_rank` here and keeps one span stack for all threads
from .kernels import numerical_rank as _rank_off_thread
from .model import Adam, RunTrace, fine_tune
from .reports import ExperimentReport, StopWatch, write_csv
from .tensor import Tensor, backward, mean_squared_error, reduce_sum, stack
# the fits no longer call these; perfbench's span recorder wraps them by name here
from .tensor import reduce_mean, square, sub  # noqa: F401

DEFAULT_KERNELS = ("mix-k", "p-linear", "linear")

# SVD work (targets x m x n x min(m, n)) from which fit_matrix_experiment runs
# the targets' ranks on a worker thread during the fit. On a 2-core x86_64
# host with one BLAS thread, the SVDs of 3 targets of 32 x 32 (98304) take
# 0.15 ms, and with a worker a 100-step fit of them took 3% longer (51.9
# against 50.2 ms, medians of 40 alternating calls); one 256 x 256 target
# (2**24) takes 6 ms, and one 768 x 768 target 134 ms, 43% of a 4-step fit.
RANK_THREAD_WORK = 2**24


def make_fit_target(rng: np.random.Generator, m: int, n: int, rank: int,
                    density: float) -> np.ndarray:
    """Random fit target of the given rank, optionally sparsified by a mask."""
    if rank >= min(m, n):
        target = rng.normal(size=(m, n))
    else:
        target = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n)) / math.sqrt(rank)
    if density < 1.0:
        target = target * (rng.random((m, n)) < density)
    return target


def _fresh_factors(kind: KernelKind, rng: np.random.Generator, m: int, n: int, r: int,
                   factor_std: float, scale: float | None = None) -> tuple:
    """Fit-experiment factor init: the (A, B) arrays of one seed.

    Both factors start Gaussian; a kind without coefficients (linear)
    starts with B at zero (the classic zero-update init, and its only route
    to a zero merge). Every kernel's merge is therefore zero before the
    first step. `scale` switches to uniform [-scale, scale] draws for
    the gradient-evolution probes.
    """
    if scale is not None:
        a = rng.uniform(-scale, scale, size=(n, r))
        b = rng.uniform(-scale, scale, size=(m, r))
    else:
        a = factor_std * rng.normal(size=(n, r))
        b = factor_std * rng.normal(size=(m, r))
        if not KINDS[kind].coefficients:
            b = np.zeros((m, r))
    return a, b


def _check_args(seeds: int = 1, lr: float = 0.0, steps: int = 0, m: int = 1, n: int = 1,
                target_rank: int | None = None, scale: float = 1.0, r_values=(),
                r: int | None = None, pieces: int = 1, kernels=(), eps_rel: float = 0.5,
                density: float = 1.0, **_) -> None:
    """The fitting and rank drivers' range checks, by argument name; `run-all`
    runs them on each entry's params before anything runs."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if target_rank is not None and target_rank < 1:
        raise ValueError(f"target rank must be >= 1, got {target_rank}")
    if target_rank is not None and target_rank > min(m, n):
        raise ValueError(f"target rank {target_rank} exceeds min(m, n)")
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if not scale > 0:
        raise ValueError("factor scale must be positive")
    check_integer_pieces(pieces)
    if pieces < 1:
        raise ValueError(f"piece count must be >= 1, got {pieces}")
    if not 0 < eps_rel < 1:
        raise ValueError(f"eps_rel must lie in (0, 1), got {eps_rel}")
    for rank in (*r_values, *([] if r is None else [r])):
        if not 1 <= rank <= min(m, n):
            raise ValueError(f"rank {rank} outside [1, min(m, n) = {min(m, n)}]")
    # the fits split the rank into pieces; the rank sweep caps pieces at each rank
    if r is not None and pieces > r and any(KINDS[KernelKind(k)].piecewise for k in kernels):
        raise ValueError(f"piece count {pieces} exceeds rank {r}")


def _memory_dims(layer_dims, r: int, pieces: int = 1, **_) -> list:
    """The checked (m, n) pairs of a memory-model layer list."""
    dims = [(m, n) for m, n in layer_dims]
    for value in (*(d for pair in dims for d in pair), r, pieces):
        if type(value) is not int:
            raise ValueError(f"layer dimensions, rank and pieces must be integers, "
                             f"got {value!r}")
    if not dims or any(m <= 0 or n <= 0 for m, n in dims):
        raise ValueError("need at least one layer, with positive dimensions")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if pieces < 1:
        raise ValueError(f"piece count must be >= 1, got {pieces}")
    return dims


def _fit(kinds, targets: np.ndarray, seeds, r: int, steps: int, lr: float, pieces: int,
         factor_std: float, record_points: int = 40, init_scale: float | None = None,
         canonical_coeffs: bool = False, piece_init_eps: float = 0.0) -> list:
    """Fit every kernel kind to every seed's target at once; returns, per kind,
    one run dict per seed.

    Each kind keeps its own factors (S, n, r) and (S, m, r) and coefficients,
    stacked on a leading seed axis; each seed's factors come from its own
    stream. Each step merges every kind, stacks the K merges into
    (K, S, m, n), and records one graph whose loss is the sum of the K x S
    mean squared errors against the targets ((S, m, n), or (K, S, m, n) for
    one set per kind); one backward pass and one Adam step follow. Every
    fit gets exactly its own gradient and shares no values with the others,
    and Adam is elementwise, so each (kind, seed) result is that of a fit on
    its own. A fit whose loss turns non-finite is marked diverged and keeps
    the parameters it had at that step; the others carry on.

    `piece_init_eps` > 0 starts the piece coefficients antisymmetric
    (+eps, -eps, ...), which keeps the merged values mean-centered and
    closes the offset-drift corridor (piece scales all one sign with the
    additive offset racing the other way) that can trap the mixed kernel
    at this step budget.
    """
    m, n = targets.shape[-2:]
    if not kinds:
        return []
    fits = []
    for kind in kinds:
        factors = [_fresh_factors(kind, np.random.default_rng([seed, 0xF1]), m, n, r,
                                  factor_std, scale=init_scale) for seed in seeds]
        pair = LowRankPair(A=Tensor(np.stack([a for a, _ in factors]), requires_grad=True),
                           B=Tensor(np.stack([b for _, b in factors]), requires_grad=True))
        if canonical_coeffs:
            spec = KernelSpec.canonical(kind, pieces=pieces, trainable=True)
        else:
            spec = KernelSpec.zero_init(kind, pieces=pieces)
            if piece_init_eps and KINDS[kind].piecewise:
                alpha_p = spec.coeffs[0]
                signs = np.where(np.arange(alpha_p.data.size) % 2 == 0, 1.0, -1.0)
                alpha_p.data[:] = piece_init_eps * signs
        fits.append((spec.stacked(len(seeds)), pair))
    params = [[pair.A, pair.B, *spec.coefficients()] for spec, pair in fits]
    opt = Adam([p for kind_params in params for p in kind_params], lr=lr)

    def losses():
        return mean_squared_error(stack([merge(spec, pair) for spec, pair in fits]), targets)

    record_every = max(1, steps // record_points) if steps else 1
    traces = [[[] for _ in seeds] for _ in fits]
    grad_traces = [[[] for _ in seeds] for _ in fits]
    live = np.ones((len(fits), len(seeds)), dtype=bool)
    held = {}  # kind index -> parameters of its diverged seeds, as of their divergence
    for step in range(steps):
        opt.zero_grad()
        loss = losses()
        values = loss.data
        diverging = live & ~np.isfinite(values)
        if diverging.any():
            live &= ~diverging
            if not live.any():
                break
            for k in np.flatnonzero(diverging.any(axis=1)):
                held[k] = [p.data[~live[k]] for p in params[k]]  # boolean indexing copies
        backward(reduce_sum(loss))
        if step % record_every == 0:
            for k, (_, pair) in enumerate(fits):
                # mean |gradient| over both factors, per seed
                mag = (np.abs(pair.A.grad).sum(axis=(-2, -1))
                       + np.abs(pair.B.grad).sum(axis=(-2, -1))) / ((m + n) * r)
                kind_values, mags = values[k].tolist(), mag.tolist()
                for s in np.flatnonzero(live[k]):
                    traces[k][s].append([step, kind_values[s]])
                    grad_traces[k][s].append([step, mags[s]])
        opt.step()
        for k, kept in held.items():
            for p, p_kept in zip(params[k], kept):
                p.data[~live[k]] = p_kept
    finals = losses().data.tolist()
    return [[{"final_mse": final, "diverged": not (ok and math.isfinite(final)),
              "trace": trace, "grad_trace": grad_trace}
             for final, ok, trace, grad_trace in zip(*kind_runs)]
            for kind_runs in zip(finals, live.tolist(), traces, grad_traces)]


def _fit_beside_ranks(fit: Callable, targets: np.ndarray) -> tuple:
    """(fit(), the targets' numerical ranks), the ranks computed on a worker
    thread while `fit` runs here; the LAPACK SVD releases the GIL. The worker
    is joined before this returns or raises, and its error is raised here."""
    out = {}

    def ranks():
        try:
            out["ranks"] = _rank_off_thread(targets, 1e-9)
        except BaseException as err:  # re-raised by the caller's thread
            out["error"] = err

    worker = threading.Thread(target=ranks, name="klora-target-ranks")
    worker.start()
    try:
        runs = fit()
    finally:
        worker.join()
    if "error" in out:
        raise out["error"]
    return runs, out["ranks"]


def fit_matrix_experiment(m: int = 32, n: int = 32, r: int = 4, target_rank: int | None = None,
                          kernels=DEFAULT_KERNELS, steps: int = 20000, lr: float = 1e-3,
                          seeds: int = 5, density: float = 0.1, pieces: int = 2,
                          factor_std: float = 1.0, piece_init_eps: float = 0.0,
                          seed_base: int = 0) -> ExperimentReport:
    """Fit random targets by gradient descent on the merged matrix.

    Per kernel and seed, minimizes the mean squared entrywise error between
    the merge and a fixed random target of the given rank and density,
    reporting the final error. Targets and factor draws are shared across
    kernels within a seed so comparisons are paired.
    """
    watch = StopWatch()
    _check_args(seeds=seeds, lr=lr, steps=steps, m=m, n=n, target_rank=target_rank, r=r,
                pieces=pieces, kernels=kernels, density=density)
    if target_rank is None:
        target_rank = min(m, n)
    kinds = [KernelKind(k) for k in kernels]
    seed_list = list(range(seed_base, seed_base + seeds))
    targets = np.stack([
        make_fit_target(np.random.default_rng([seed, 0x7A]), m, n, target_rank, density)
        for seed in seed_list
    ])

    def fit():
        return _fit(kinds, targets, seed_list, r, steps, lr, pieces, factor_std,
                    piece_init_eps=piece_init_eps)

    if targets.size * min(m, n) >= RANK_THREAD_WORK:
        runs, ranks = _fit_beside_ranks(fit, targets)
    else:
        ranks = [numerical_rank(target, 1e-9) for target in targets]
        runs = fit()
    per_seed = [
        {
            "seed": seed,
            "target_rank": int(rank),
            "baseline_mse": float(np.mean(target * target)),
            "kernels": {},
        }
        for seed, target, rank in zip(seed_list, targets, ranks)
    ]
    for kind, kind_runs in zip(kinds, runs):
        for entry, run in zip(per_seed, kind_runs):
            entry["kernels"][kind.value] = run
    aggregates = {
        "mean_final_mse": {
            kind.value: float(np.mean([s["kernels"][kind.value]["final_mse"] for s in per_seed]))
            for kind in kinds
        },
        "diverged_runs": int(
            sum(s["kernels"][k.value]["diverged"] for s in per_seed for k in kinds)
        ),
    }
    config = {"m": m, "n": n, "r": r, "target_rank": target_rank, "steps": steps,
              "lr": lr, "density": density, "pieces": pieces, "factor_std": factor_std,
              "piece_init_eps": piece_init_eps, "kernels": [k.value for k in kinds]}
    return ExperimentReport(name="fit-matrix", config=config, seeds=seed_list,
                            per_seed=per_seed, aggregates=aggregates,
                            duration_s=watch.elapsed())


def ordering_fraction(report: ExperimentReport, ordering) -> float:
    """Fraction of seeds where final MSEs strictly follow the given kernel order."""
    kinds = [KernelKind(k).value for k in ordering]
    wins = 0
    for entry in report.per_seed:
        values = [entry["kernels"][k]["final_mse"] for k in kinds]
        if all(a < b for a, b in zip(values, values[1:])):
            wins += 1
    return wins / max(len(report.per_seed), 1)


def grad_evolution_experiment(kernels=("mix-k", "rbf", "linear"), scale: float = 10.0,
                              steps: int = 300, m: int = 16, n: int = 16, r: int = 4,
                              seeds: int = 3, lr: float = 1e-3,
                              pieces: int = 2, seed_base: int = 0) -> ExperimentReport:
    """Record gradient-magnitude traces of the fitting loss per kernel.

    Factors start uniform in [-scale, scale] with canonical coefficients, the
    regime where a bare RBF merge loses its gradient signal. The report also
    carries the static sum-of-entries magnitude per kernel at that scale,
    and the RBF/mixed ratio when both kinds are present.
    """
    watch = StopWatch()
    _check_args(seeds=seeds, lr=lr, steps=steps, m=m, n=n, scale=scale, r=r, pieces=pieces,
                kernels=kernels)
    kinds = [KernelKind(k) for k in kernels]
    seed_list = list(range(seed_base, seed_base + seeds))
    targets = np.stack([
        make_fit_target(np.random.default_rng([seed, 0x7B]), m, n, min(m, n), 1.0)
        for seed in seed_list
    ])
    per_seed = [{"seed": seed, "kernels": {}} for seed in seed_list]
    runs = _fit(kinds, targets, seed_list, r, steps, lr, pieces, factor_std=1.0,
                init_scale=scale, canonical_coeffs=True)
    for kind, kind_runs in zip(kinds, runs):
        for entry, run in zip(per_seed, kind_runs):
            rng = np.random.default_rng([entry["seed"], 0xC3])
            probe = LowRankPair(
                A=Tensor(rng.uniform(-scale, scale, size=(n, r)), requires_grad=True),
                B=Tensor(rng.uniform(-scale, scale, size=(m, r)), requires_grad=True),
            )
            static = mean_abs_factor_gradient(KernelSpec.canonical(kind, pieces=pieces), probe)
            run["static_mean_abs_gradient"] = static
            entry["kernels"][kind.value] = run
    aggregates = {
        "static_mean_abs_gradient": {
            kind.value: float(
                np.mean([s["kernels"][kind.value]["static_mean_abs_gradient"] for s in per_seed])
            )
            for kind in kinds
        }
    }
    static = aggregates["static_mean_abs_gradient"]
    if "rbf" in static and "mix-k" in static and static["mix-k"] > 0:
        aggregates["rbf_mixk_ratio"] = static["rbf"] / static["mix-k"]
    config = {"kernels": [k.value for k in kinds], "scale": scale, "steps": steps,
              "m": m, "n": n, "r": r, "lr": lr, "pieces": pieces}
    return ExperimentReport(name="grad-evolution", config=config, seeds=seed_list,
                            per_seed=per_seed, aggregates=aggregates,
                            duration_s=watch.elapsed())


def rank_sweep(m: int = 64, n: int = 64, r_values=(2, 4, 8), kernels=DEFAULT_KERNELS,
               seeds: int = 10, eps_rel: float = 1e-6, pieces: int = 2,
               seed_base: int = 0) -> ExperimentReport:
    """Numerical ranks of merges of random factor pairs per (kernel, r)."""
    watch = StopWatch()
    _check_args(seeds=seeds, m=m, n=n, r_values=r_values)
    kinds = [KernelKind(k) for k in kernels]
    seed_list = list(range(seed_base, seed_base + seeds))
    per_seed = []
    for seed in seed_list:
        rng = np.random.default_rng([seed, 0xA4])
        entry = {"seed": seed, "ranks": {}}
        for r in r_values:
            pair = LowRankPair(
                A=Tensor(rng.normal(size=(n, r))), B=Tensor(rng.normal(size=(m, r)))
            )
            for kind in kinds:
                spec = KernelSpec.canonical(kind, pieces=min(pieces, r))
                rank = numerical_rank(merge(spec, pair).data, eps_rel)
                entry["ranks"][f"{kind.value}@r={r}"] = rank
        per_seed.append(entry)
    keys = per_seed[0]["ranks"].keys() if per_seed else []
    aggregates = {
        key: {
            "min": int(min(s["ranks"][key] for s in per_seed)),
            "max": int(max(s["ranks"][key] for s in per_seed)),
            "mean": float(np.mean([s["ranks"][key] for s in per_seed])),
        }
        for key in keys
    }
    config = {"m": m, "n": n, "r_values": list(r_values), "eps_rel": eps_rel,
              "kernels": [k.value for k in kinds], "pieces": pieces}
    return ExperimentReport(name="rank-sweep", config=config, seeds=seed_list,
                            per_seed=per_seed, aggregates=aggregates,
                            duration_s=watch.elapsed())


def rank_table(report: ExperimentReport):
    header = ["seed"] + sorted(report.per_seed[0]["ranks"]) if report.per_seed else ["seed"]
    rows = [
        [entry["seed"]] + [entry["ranks"][k] for k in header[1:]] for entry in report.per_seed
    ]
    return header, rows


def alloc_trace_table(trace: RunTrace):
    """Per-layer, per-epoch sparsity ratios (1 - budget / capacity) as a table."""
    if not trace.layer_caps:
        raise ValueError("trace has no layers")
    n_layers = len(trace.layer_caps)
    header = ["epoch"] + [f"layer_{i}" for i in range(n_layers)]
    rows = [[0] + [0.0] * n_layers]  # warm start: nothing sparsified yet
    for record in trace.epochs:
        if len(record.ratios) != n_layers:
            raise ValueError(f"epoch {record.epoch} has {len(record.ratios)} ratios "
                             f"for {n_layers} layers")
        rows.append([record.epoch + 1] + [float(x) for x in record.ratios])
    return header, rows


def schedule_table(b0: int = 1000, bT: int = 0, T: int = 10,
                   kinds=("constant", "linear", "quadratic", "cubic")):
    """(t, budget) at every step t = 0..T, per schedule kind."""
    parsed = [ScheduleKind(k) for k in kinds]
    header = ["t"] + [k.value for k in parsed]
    rows = []
    for t in range(T + 1):
        row = [t]
        for kind in parsed:
            row.append(budget_at(BudgetSchedule(b0=b0, bT=bT, T=T, kind=kind), t))
        rows.append(row)
    return header, rows


class MemoryMode(Choice, what="memory mode"):
    FULL_FT = "full-ft"
    LOW_RANK = "low-rank"
    LOW_RANK_STORING_DELTA = "low-rank-storing-delta"


MEMORY_MODES = tuple(mode.value for mode in MemoryMode)


def memory_footprint_estimate(layer_dims, r: int, mode: str,
                              kernel_kind="mix-k", pieces: int = 2) -> dict:
    """Analytic float counts for parameters and optimizer state.

    full-ft tracks every weight matrix entry; low-rank tracks the factor
    pairs plus kernel coefficients; low-rank-storing-delta additionally
    retains every merged update matrix between passes. Moment counts
    assume an adaptive-moment optimizer (two state floats per tracked
    parameter).
    """
    mode = MemoryMode(mode)
    dims = _memory_dims(layer_dims, r, pieces)
    coeffs = kernel_coefficient_count(kernel_kind, pieces)
    weight_floats = sum(m * n for m, n in dims)
    if mode is MemoryMode.FULL_FT:
        params = weight_floats
        retained = 0
    else:
        params = sum((m + n) * r + coeffs for m, n in dims)
        retained = weight_floats if mode is MemoryMode.LOW_RANK_STORING_DELTA else 0
    return {
        "mode": mode.value,
        "layers": len(dims),
        "rank": r,
        "optimizer_param_floats": params,
        "optimizer_moment_floats": 2 * params,
        "retained_merge_floats": retained,
        "total_floats": params + 2 * params + retained,
    }


def train_experiment(config: RunConfig) -> tuple:
    """Run the configured fine-tune; returns (report, trace)."""
    watch = StopWatch()
    dataset = dataset_from(config)
    trainer_cfg = trainer_config_from(config)
    trace = fine_tune(trainer_cfg, dataset)
    report = ExperimentReport(
        name="train",
        config=config.to_dict(),
        seeds=[trace.seed],
        per_seed=[{"seed": trace.seed, "initial_loss": trace.initial_loss,
                   "final_loss": trace.final_loss,
                   "epoch_losses": [e.mean_loss for e in trace.epochs]}],
        aggregates={"final_loss": trace.final_loss, "initial_loss": trace.initial_loss},
        duration_s=watch.elapsed(),
    )
    return report, trace


# -- run-all ------------------------------------------------------------------


def _report_only(driver):
    return lambda params, config: (driver(**params), None)


def _run_rank_sweep(params, config):
    report = rank_sweep(**params)
    return report, rank_table(report)


def _run_schedule(params, config):
    header, rows = schedule_table(**params)
    report = ExperimentReport(name="schedule", config=params, seeds=[], per_seed=[],
                              aggregates={"rows": len(rows)})
    return report, (header, rows)


def _run_memory_model(params, config):
    estimates = {mode: memory_footprint_estimate(mode=mode, **params) for mode in MEMORY_MODES}
    ratio = (estimates["low-rank"]["optimizer_param_floats"]
             / estimates["full-ft"]["optimizer_param_floats"])
    report = ExperimentReport(name="memory-model", config=params, seeds=[], per_seed=[],
                              aggregates={**estimates, "lowrank_fullft_ratio": ratio})
    return report, None


def _train_config(params, config) -> RunConfig:
    """The run config with the entry's `config` overrides applied."""
    overrides = params.get("config", {})
    if not isinstance(overrides, dict):
        raise ConfigError("must be an object")
    sub_config = apply_defaults(_merge_dicts(config.to_dict(), overrides))
    sub_config.experiments = []
    return sub_config


def _check_train(params, config) -> None:
    """Everything `_run_train` checks before its first step: the config
    overrides and whether the task's `min_rank` is reachable."""
    dataset_from(_train_config(params, config))


def _run_train(params, config):
    report, trace = train_experiment(_train_config(params, config))
    return report, alloc_trace_table(trace)


def _check_mse_ordering(report, table, ordered, asserts):
    frac = ordering_fraction(report, ordered)
    report.aggregates["ordering_fraction"] = frac
    need = float(asserts.get("min_seed_fraction", 0.8))
    means = [report.aggregates["mean_final_mse"][KernelKind(k).value] for k in ordered]
    if not all(a < b for a, b in zip(means, means[1:])):
        yield f"mean MSE not ordered {ordered}: {means}"
    if not frac >= need:
        yield f"strict per-seed ordering fraction {frac} < {need}"


def _check_max_final_mse(report, table, bounds, asserts):
    for k, bound in bounds.items():
        got = report.aggregates["mean_final_mse"][KernelKind(k).value]
        if not got <= bound:
            yield f"{k} mean MSE {got} > {bound}"


def _check_max_rbf_mixk_ratio(report, table, bound, asserts):
    ratio = report.aggregates.get("rbf_mixk_ratio")
    if not (ratio is not None and ratio <= float(bound)):
        yield f"rbf/mix-k gradient ratio {ratio} > {float(bound)}"


def _check_rank_at_most(report, table, bounds, asserts):
    for key, bound in bounds.items():
        if not report.aggregates[key]["max"] <= bound:
            yield f"{key} max rank {report.aggregates[key]['max']} > {bound}"


def _check_rank_above(report, table, bounds, asserts):
    for key, bound in bounds.items():
        if not report.aggregates[key]["min"] > bound:
            yield f"{key} min rank {report.aggregates[key]['min']} <= {bound}"


def _check_schedule_values(report, table, values, asserts):
    header, rows = table
    for kind, t, expected in values:
        kind_i = header.index(ScheduleKind(kind).value)
        row = next((r for r in rows if r[0] == t), None)
        if not (row is not None and row[kind_i] == expected):
            yield f"{kind} at t={t}: {None if row is None else row[kind_i]} != {expected}"


def _check_lowrank_fullft_ratio(report, table, target_rel, asserts):
    target, rel = target_rel
    got = report.aggregates["lowrank_fullft_ratio"]
    if not abs(got - target) <= rel * target:
        yield f"ratio {got} not within {rel} of {target}"


def _check_max_final_loss(report, table, bound, asserts):
    if not report.aggregates["final_loss"] <= bound:
        yield f"final loss {report.aggregates['final_loss']} > {bound}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _need(holds: bool, what: str, value) -> None:
    if not holds:
        raise TypeError(f"need {what}, got {value!r}")


# the shape of each assert value: each checks it and returns the names it lists
def _bound(value) -> list:
    _need(_is_number(value), "a number", value)
    return []


def _name_list(value) -> list:
    _need(isinstance(value, list) and all(isinstance(v, str) for v in value),
          "a list of names", value)
    return value


def _bound_per_name(value) -> list:
    _need(isinstance(value, dict) and all(map(_is_number, value.values())),
          "an object of numeric bounds", value)
    return list(value)


def _schedule_rows(value) -> list:
    _need(isinstance(value, list) and all(
        isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
        and all(map(_is_number, row[1:])) for row in value),
        "a list of [kind, step, budget] rows", value)
    return [row[0] for row in value]


def _target_rel(value) -> list:
    _need(isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)),
          "[target, relative tolerance]", value)
    return []


def _kernel(name) -> str:
    return KernelKind(name).value


def _kind(name) -> str:
    return ScheduleKind(name).value


REQUIRED = inspect.Parameter.empty  # the default of a parameter without one


@dataclass(frozen=True)
class ExperimentType:
    """How `run-all` runs one experiment type.

    `run(params, config)` returns the report and an optional CSV table
    (header, rows), which an entry named `name` writes as
    `<name><table>.csv`; `table` is that file-name suffix, None for a type
    that writes no table. `params` maps the driver's parameter names to
    their defaults, REQUIRED for those without one, and `hints` maps the
    annotated ones to their types; `check_params(params, config)` raises
    what the run would raise for their values. `checks` maps each assert
    key, in evaluation order, to its value's shape(value), which raises a
    TypeError for a malformed value and returns the names it lists, and a
    check(report, table, value, asserts) that yields one detail per
    failure, where table is the run's (header, rows); None marks a key that
    another check reads. `names` is None or (parse, produced): the
    canonical form of a listed name, and produced(params) the kernels, rank
    keys or schedule kinds that a run with those params reports.
    """

    run: Callable
    params: dict
    hints: dict
    check_params: Callable
    checks: dict
    names: tuple | None = None
    table: str | None = None


def _params_of(driver, check, *fixed) -> tuple:
    """The driver's parameters with their defaults, less `fixed`, the types
    of the annotated ones, and a check(params, config) that runs `check` on
    params with those defaults."""
    params = {p.name: p.default for p in inspect.signature(driver).parameters.values()
              if p.name not in fixed}
    hints = {k: v for k, v in typing.get_type_hints(driver).items() if k in params}
    return params, hints, lambda given, config: check(**{**params, **given})


_KERNEL_NAMES = (_kernel, lambda params: [_kernel(k) for k in params["kernels"]])
EXPERIMENT_TYPES = {
    "fit-matrix": ExperimentType(
        _report_only(fit_matrix_experiment), *_params_of(fit_matrix_experiment, _check_args),
        {"mse_ordering": (_name_list, _check_mse_ordering), "min_seed_fraction": (_bound, None),
         "max_final_mse": (_bound_per_name, _check_max_final_mse)},
        _KERNEL_NAMES),
    "grad-evolution": ExperimentType(
        _report_only(grad_evolution_experiment),
        *_params_of(grad_evolution_experiment, _check_args),
        # the ratio needs both kernels
        {"max_rbf_mixk_ratio": (lambda value: [*_bound(value), "rbf", "mix-k"],
                                _check_max_rbf_mixk_ratio)}, _KERNEL_NAMES),
    "rank-sweep": ExperimentType(
        _run_rank_sweep, *_params_of(rank_sweep, _check_args),
        {"rank_at_most": (_bound_per_name, _check_rank_at_most),
         "rank_above": (_bound_per_name, _check_rank_above)},
        (str, lambda params: [f"{_kernel(k)}@r={r}" for k in params["kernels"]
                              for r in params["r_values"]]), table=""),
    # the entry's one param is an optional override of the run config
    "train": ExperimentType(
        _run_train, {"config": {}}, {}, _check_train,
        {"max_final_loss": (_bound, _check_max_final_loss)}, table="-sparsity"),
    "schedule": ExperimentType(
        _run_schedule,
        *_params_of(schedule_table, lambda b0, bT, T, **_: BudgetSchedule(b0=b0, bT=bT, T=T)),
        {"values": (_schedule_rows, _check_schedule_values)},
        (_kind, lambda params: [_kind(k) for k in params["kinds"]]), table=""),
    "memory-model": ExperimentType(
        _run_memory_model, *_params_of(memory_footprint_estimate, _memory_dims, "mode"),
        {"lowrank_fullft_ratio": (_target_rel, _check_lowrank_fullft_ratio)}),
}


def _integer(value) -> None:
    _need(type(value) is int, "an integer", value)


def _list(value) -> list:
    _need(isinstance(value, (list, tuple)), "a list", value)  # the CLI passes tuples
    return list(value)


# params that list names or integers: how to list the items, and each item's check
_ITEMS = {
    "kernel_kind": (lambda v: [v], KernelKind),
    "kernels": (_list, KernelKind),
    "kinds": (_list, ScheduleKind),
    "r_values": (_list, _integer),
    "layer_dims": (lambda v: [d for dims in _list(v) for d in _list(dims)], _integer),
}
_ENTRY_KEYS = ("name", "type", "params", "assert")


def check_entry(entry: dict, config: RunConfig, where: str = "") -> None:
    """Raise a ConfigError for any key or value of one experiment entry that
    its run would fail on; `where` prefixes the keys a message names."""
    for key in entry:
        if key not in _ENTRY_KEYS:
            raise ConfigError(f"unknown key '{where}{key}' (known: {', '.join(_ENTRY_KEYS)})")
    etype = EXPERIMENT_TYPES.get(entry.get("type"))
    if etype is None:
        raise ConfigError(f"{where}type {entry.get('type')!r} unknown "
                          f"(known: {', '.join(sorted(EXPERIMENT_TYPES))})")
    for section, allowed in (("params", etype.params), ("assert", etype.checks)):
        block = entry.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{where}{section} must be an object")
        for key, value in block.items():
            if key not in allowed:
                raise ConfigError(f"unknown key '{where}{section}.{key}' "
                                  f"(known: {', '.join(sorted(allowed))})")
            if section == "params" and key in etype.hints:
                check_type(f"{where}params.{key}", value, etype.hints[key])
            if key in _ITEMS:
                listed, check = _ITEMS[key]
                try:
                    for item in listed(value):
                        check(item)
                except (TypeError, ValueError, IndexError, KeyError) as err:
                    raise ConfigError(f"{where}{section}.{key}: {err}") from None
    params = entry.get("params", {})
    missing = sorted(k for k, v in etype.params.items() if v is REQUIRED and k not in params)
    if missing:
        raise ConfigError(f"missing key '{where}params.{missing[0]}'")
    try:
        etype.check_params(params, config)
    except (TypeError, ValueError) as err:
        # a train entry's one param is its config overrides
        config_key = ".config" if entry["type"] == "train" else ""
        raise ConfigError(f"{where}params{config_key}: {err}") from None
    given = {**etype.params, **params}
    for key, value in entry.get("assert", {}).items():
        shape, _ = etype.checks[key]
        try:
            listed = shape(value)
            if listed:
                parse, produced = etype.names
                known = produced(given)
                for name in listed:
                    if parse(name) not in known:
                        raise ValueError(f"the entry reports no {name!r} "
                                         f"(it reports {', '.join(known)})")
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{where}assert.{key}: {err}") from None


def run_entry(entry: dict, config: RunConfig, out_dir: Path, name: str) -> tuple:
    """Run one checked entry, write its table and report as `name` under
    `out_dir`, and evaluate its asserts; returns (report, paths, failures)."""
    etype = EXPERIMENT_TYPES[entry["type"]]
    asserts = entry.get("assert", {})
    report, table = etype.run(dict(entry.get("params", {})), config)
    report.name = name
    paths = []
    if table is not None:
        paths.append(out_dir / f"{name}{etype.table}.csv")
        write_csv(paths[-1], *table)
    failures = [f"{name}: {detail}" for key, (_, check) in etype.checks.items()
                if check is not None and key in asserts
                for detail in check(report, table, asserts[key], asserts)]
    paths.append(report.write(out_dir))
    return report, paths, failures


def run_all(config: RunConfig, out_dir) -> tuple:
    """Execute every experiment in the config; returns (report paths, failures).

    All entries are checked before anything runs, their names too: each
    names the files it writes under `out_dir`, so it must be one file name,
    used by no earlier entry, and no file it writes may be one an earlier
    entry writes. Embedded `assert` blocks are evaluated against each
    experiment's results; failures are collected, not fatal.
    """
    names, writers = [], {}  # writers: file name -> index of the entry writing it
    for i, entry in enumerate(config.experiments):
        if not isinstance(entry, dict):
            raise ConfigError(f"experiments[{i}] must be an object")
        check_entry(entry, config, f"experiments[{i}].")
        name = entry.get("name", f"{entry['type']}-{i}")
        if not (isinstance(name, str) and name not in ("", ".", "..")
                and Path(name).name == name):
            raise ConfigError(f"experiments[{i}].name must be a nonempty string, not '.' or "
                              f"'..', with no path separator, got {name!r}")
        if name in names:
            raise ConfigError(f"experiments[{i}].name {name!r} repeats "
                              f"experiments[{names.index(name)}]'s name")
        names.append(name)
        suffix = EXPERIMENT_TYPES[entry["type"]].table
        for file in [f"{name}.json", *([] if suffix is None else [f"{name}{suffix}.csv"])]:
            if file in writers:
                raise ConfigError(f"experiments[{i}].name {name!r} writes {file}, which "
                                  f"experiments[{writers[file]}] writes too")
            writers[file] = i
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, failures = [], []
    for entry, name in zip(config.experiments, names):
        _, written, failed = run_entry(entry, config, out_dir, name)
        paths += written
        failures += failed
    return paths, failures


def _merge_dicts(base: dict, overrides: dict) -> dict:
    out = {k: (v.copy() if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_dicts(out[key], value)
        else:
            out[key] = value
    return out


def default_run_config() -> RunConfig:
    """The bundled configuration exercised by `run-all` with no --config."""
    return apply_defaults(
        {
            "experiments": [
                {
                    "name": "schedule",
                    "type": "schedule",
                    "params": {"b0": 1000, "bT": 0, "T": 10},
                    "assert": {"values": [["cubic", 5, 125], ["quadratic", 5, 250],
                                           ["linear", 5, 500], ["cubic", 0, 1000],
                                           ["cubic", 10, 0]]},
                },
                {
                    "name": "memory-model",
                    "type": "memory-model",
                    "params": {"layer_dims": [[768, 768]] * 12, "r": 8,
                               "kernel_kind": "mix-k", "pieces": 2},
                    "assert": {"lowrank_fullft_ratio": [0.0208, 0.01]},
                },
                {
                    "name": "rank-sweep",
                    "type": "rank-sweep",
                    "params": {"m": 64, "n": 64, "r_values": [4], "seeds": 10},
                    "assert": {"rank_at_most": {"linear@r=4": 4},
                                "rank_above": {"mix-k@r=4": 4, "p-linear@r=4": 4}},
                },
                {
                    "name": "grad-evolution",
                    "type": "grad-evolution",
                    "params": {"scale": 10.0, "steps": 120, "seeds": 3},
                    "assert": {"max_rbf_mixk_ratio": 0.1},
                },
                {
                    "name": "fit-matrix",
                    "type": "fit-matrix",
                    "params": {"m": 32, "n": 32, "r": 4, "steps": 20000, "lr": 1e-3,
                               "seeds": 5, "density": 0.05, "piece_init_eps": 1.0},
                    "assert": {"mse_ordering": ["mix-k", "p-linear", "linear"],
                                "min_seed_fraction": 0.8},
                },
                {
                    "name": "train",
                    "type": "train",
                    "params": {"config": {"train": {"epochs": 10}}},
                    "assert": {},
                },
            ]
        }
    )
