"""Desk-scale experiment drivers behind the CLI.

Each driver returns an ExperimentReport whose aggregates are recomputable
from the per-seed entries. The fitting drivers run every kernel and seed
together, the seeds stacked on a leading axis and the kernels' merges
stacked on one more, with one recorded graph and one optimizer step for
all of them per step; the fits share no values, so each (kernel, seed)
result is that of a run on its own. Every run is deterministic per seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable

import numpy as np

from .allocation import BudgetSchedule, ScheduleKind, budget_at
from .choices import (COUNT, Choice, Count, Natural, NonNegative, OpenUnit, Positive,
                      SettingError, Unit, check, hints)
from .config import (ConfigError, apply_defaults, check_type, dataset_from, located, merged,
                     trainer_config_from)
from .kernels import (
    KINDS,
    KernelKind,
    KernelSpec,
    LowRankPair,
    kernel_coefficient_count,
    mean_abs_factor_gradient,
    merge,
    numerical_rank,
    stacked_block,
)
# the rank worker's name for numerical_rank: perfbench's span recorder wraps
# `numerical_rank` here and keeps one span stack for all threads
from .kernels import numerical_rank as _rank_off_thread
from .model import Adam, RunTrace, fine_tune
from .reports import ExperimentReport, StopWatch, write_csv
from .tensor import Tensor, backward, mean_squared_error, reduce_sum, stack, take
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


def checked(*cross):
    """A driver that holds each annotated argument to its type and range rule
    (`choices.check`), then runs the rules across params `cross`, and runs on
    the parsed values; `driver.check(**params)` runs the checks alone."""
    def decorate(driver):
        signature, annotations = inspect.signature(driver), hints(driver)

        def bind(binder, *args, **kwargs):
            bound = binder(*args, **kwargs)
            bound.apply_defaults()
            for name, value in bound.arguments.items():
                if name in annotations:
                    bound.arguments[name] = check(name, value, annotations[name])
            for rule in cross:
                rule(**bound.arguments)
            return bound

        @functools.wraps(driver)
        def run(*args, **kwargs):
            bound = bind(signature.bind, *args, **kwargs)
            return driver(*bound.args, **bound.kwargs)

        run.check = functools.partial(bind, signature.bind_partial)
        return run

    return decorate


def check_ranks(m, n, r=None, r_values=(), target_rank=None, pieces=1, kernels=(), **_):
    """The fitting and rank drivers' rules across params: every rank and the
    target rank within min(m, n), and a fit's pieces within its rank."""
    if target_rank is not None and target_rank > min(m, n):
        raise ValueError(f"target rank {target_rank} exceeds min(m, n)")
    for rank in (*r_values, *([] if r is None else [r])):
        if not 1 <= rank <= min(m, n):
            raise ValueError(f"rank {rank} outside [1, min(m, n) = {min(m, n)}]")
    # the fits split the rank into pieces; the rank sweep caps pieces at each rank
    if r is not None and pieces > r and any(KINDS[k].piecewise for k in kernels):
        raise ValueError(f"piece count {pieces} exceeds rank {r}")


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
    one set per kind); one backward pass and one Adam step follow. The
    distance kinds (mix-k and p-linear) merge as one block (`_block`), so a
    step makes one distance op for all of them. Every fit gets exactly its
    own gradient and shares no values with the others, and Adam is
    elementwise, so each (kind, seed) result is that of a fit on its own. A
    fit whose loss turns non-finite is marked diverged and keeps the
    parameters it had at that step; the others carry on.

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
    members = sorted((k for k, kind in enumerate(kinds) if KINDS[kind].piecewise),
                     key=lambda k: kinds[k] is not KernelKind.MIX_K)
    block = _block([fits[k] for k in members]) if len(members) > 1 else None
    slot = {k: t for t, k in enumerate(members)} if block else {}
    leaves = [block[1].A, block[1].B, *block[0].coefficients()] if block else []
    opt = Adam(leaves + [p for k, kind_params in enumerate(params) if k not in slot
                         for p in kind_params], lr=lr)

    def losses():
        merged = merge(*block) if block else None
        return mean_squared_error(stack([take(merged, slot[k]) if k in slot else merge(spec, pair)
                                         for k, (spec, pair) in enumerate(fits)]), targets)

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
                ga, gb = ((block[1].A.grad[slot[k]], block[1].B.grad[slot[k]]) if k in slot
                          else (pair.A.grad, pair.B.grad))
                # mean |gradient| over both factors, per seed
                mag = (np.abs(ga).sum(axis=(-2, -1))
                       + np.abs(gb).sum(axis=(-2, -1))) / ((m + n) * r)
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


def _block(fits) -> tuple:
    """The (spec, pair) that merges fits of the distance kinds as one, mix-k's
    first: each factor and coefficient stacked on a new leading axis, alpha and
    beta over the mix-k fits alone (the partial mix of
    `tensor.mixed_segment_distances`). Each fit's own tensors become views of
    its slice of the blocks (`stacked_block`, as in `model.LayerGroup`)."""
    mixing = [spec for spec, _ in fits if spec.kind is KernelKind.MIX_K]
    groups = [[pair.A for _, pair in fits], [pair.B for _, pair in fits],
              [spec.coeffs[0] for spec, _ in fits]]
    if mixing:
        groups += [[spec.coeffs[c] for spec in mixing] for c in (1, 2)]
    blocks = [stacked_block(tensors) for tensors in groups]
    kind = KernelKind.MIX_K if mixing else KernelKind.P_LINEAR
    return (KernelSpec(kind, pieces=fits[0][0].pieces, coeffs=blocks[2:]),
            LowRankPair(A=blocks[0], B=blocks[1]))


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


@checked(check_ranks)
def fit_matrix_experiment(m: int = 32, n: int = 32, r: int = 4,
                          target_rank: Annotated[int | None, COUNT] = None,
                          kernels: list[KernelKind] = DEFAULT_KERNELS, steps: Natural = 20000,
                          lr: NonNegative = 1e-3, seeds: Count = 5, density: Unit = 0.1,
                          pieces: Count = 2, factor_std: Positive = 1.0,
                          piece_init_eps: float = 0.0,
                          seed_base: Natural = 0) -> ExperimentReport:
    """Fit random targets by gradient descent on the merged matrix.

    Per kernel and seed, minimizes the mean squared entrywise error between
    the merge and a fixed random target of the given rank and density,
    reporting the final error. Targets and factor draws are shared across
    kernels within a seed so comparisons are paired.
    """
    watch = StopWatch()
    if target_rank is None:
        target_rank = min(m, n)
    seed_list = list(range(seed_base, seed_base + seeds))
    targets = np.stack([
        make_fit_target(np.random.default_rng([seed, 0x7A]), m, n, target_rank, density)
        for seed in seed_list
    ])

    def fit():
        return _fit(kernels, targets, seed_list, r, steps, lr, pieces, factor_std,
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
    for kind, kind_runs in zip(kernels, runs):
        for entry, run in zip(per_seed, kind_runs):
            entry["kernels"][kind.value] = run
    aggregates = {
        "mean_final_mse": {
            kind.value: float(np.mean([s["kernels"][kind.value]["final_mse"] for s in per_seed]))
            for kind in kernels
        },
        "diverged_runs": int(
            sum(s["kernels"][k.value]["diverged"] for s in per_seed for k in kernels)
        ),
    }
    config = {"m": m, "n": n, "r": r, "target_rank": target_rank, "steps": steps,
              "lr": lr, "density": density, "pieces": pieces, "factor_std": factor_std,
              "piece_init_eps": piece_init_eps, "kernels": [k.value for k in kernels]}
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


@checked(check_ranks)
def grad_evolution_experiment(kernels: list[KernelKind] = ("mix-k", "rbf", "linear"),
                              scale: Positive = 10.0, steps: Natural = 300, m: int = 16,
                              n: int = 16, r: int = 4, seeds: Count = 3, lr: NonNegative = 1e-3,
                              pieces: Count = 2, seed_base: Natural = 0) -> ExperimentReport:
    """Record gradient-magnitude traces of the fitting loss per kernel.

    Factors start uniform in [-scale, scale] with canonical coefficients, the
    regime where a bare RBF merge loses its gradient signal. The report also
    carries the static sum-of-entries magnitude per kernel at that scale,
    and the RBF/mixed ratio when both kinds are present.
    """
    watch = StopWatch()
    seed_list = list(range(seed_base, seed_base + seeds))
    targets = np.stack([
        make_fit_target(np.random.default_rng([seed, 0x7B]), m, n, min(m, n), 1.0)
        for seed in seed_list
    ])
    per_seed = [{"seed": seed, "kernels": {}} for seed in seed_list]
    runs = _fit(kernels, targets, seed_list, r, steps, lr, pieces, factor_std=1.0,
                init_scale=scale, canonical_coeffs=True)
    for kind, kind_runs in zip(kernels, runs):
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
            for kind in kernels
        }
    }
    static = aggregates["static_mean_abs_gradient"]
    if "rbf" in static and "mix-k" in static and static["mix-k"] > 0:
        aggregates["rbf_mixk_ratio"] = static["rbf"] / static["mix-k"]
    config = {"kernels": [k.value for k in kernels], "scale": scale, "steps": steps,
              "m": m, "n": n, "r": r, "lr": lr, "pieces": pieces}
    return ExperimentReport(name="grad-evolution", config=config, seeds=seed_list,
                            per_seed=per_seed, aggregates=aggregates,
                            duration_s=watch.elapsed())


@checked(check_ranks)
def rank_sweep(m: int = 64, n: int = 64, r_values: list[int] = (2, 4, 8),
               kernels: list[KernelKind] = DEFAULT_KERNELS,
               seeds: Count = 10, eps_rel: OpenUnit = 1e-6, pieces: Count = 2,
               seed_base: Natural = 0) -> ExperimentReport:
    """Numerical ranks of merges of random factor pairs per (kernel, r)."""
    watch = StopWatch()
    seed_list = list(range(seed_base, seed_base + seeds))
    per_seed = []
    for seed in seed_list:
        rng = np.random.default_rng([seed, 0xA4])
        entry = {"seed": seed, "ranks": {}}
        for r in r_values:
            pair = LowRankPair(
                A=Tensor(rng.normal(size=(n, r))), B=Tensor(rng.normal(size=(m, r)))
            )
            for kind in kernels:
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
              "kernels": [k.value for k in kernels], "pieces": pieces}
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
    for k, record in enumerate(trace.epochs):
        if len(record.ratios) != n_layers:
            raise ValueError(f"epoch {record.epoch} has {len(record.ratios)} ratios "
                             f"for {n_layers} layers")
        ratios = [check_type(f"epochs[{k}].ratios[{layer}]", x, Unit)
                  for layer, x in enumerate(record.ratios)]
        rows.append([record.epoch + 1] + ratios)
    return header, rows


@checked(lambda b0, bT, T, **_: BudgetSchedule(b0=b0, bT=bT, T=T))
def schedule_table(b0: int = 1000, bT: int = 0, T: int = 10,
                   kinds: list[ScheduleKind] = ("constant", "linear", "quadratic", "cubic")):
    """(t, budget) at every step t = 0..T, per schedule kind."""
    header = ["t"] + [k.value for k in kinds]
    rows = []
    for t in range(T + 1):
        row = [t]
        for kind in kinds:
            row.append(budget_at(BudgetSchedule(b0=b0, bT=bT, T=T, kind=kind), t))
        rows.append(row)
    return header, rows


class MemoryMode(Choice, what="memory mode"):
    FULL_FT = "full-ft"
    LOW_RANK = "low-rank"
    LOW_RANK_STORING_DELTA = "low-rank-storing-delta"


MEMORY_MODES = tuple(mode.value for mode in MemoryMode)


Layers = Annotated[list[tuple[Count, Count]],
                   (lambda layers: len(layers) > 0, "must list at least one layer")]


@checked()
def memory_footprint_estimate(layer_dims: Layers, r: Natural, mode: MemoryMode,
                              kernel_kind: KernelKind = "mix-k", pieces: Count = 2) -> dict:
    """Analytic float counts for parameters and optimizer state.

    full-ft tracks every weight matrix entry; low-rank tracks the factor
    pairs plus kernel coefficients, each layer's rank and piece count
    clipped as the trainer clips them (`model.build_model`);
    low-rank-storing-delta additionally retains every merged update matrix
    between passes. Moment counts assume an adaptive-moment optimizer (two
    state floats per tracked parameter).
    """
    weight_floats = sum(m * n for m, n in layer_dims)
    if mode is MemoryMode.FULL_FT:
        params = weight_floats
        retained = 0
    else:
        # at r = 0 a layer keeps only its coefficients, for every piece asked for
        params = sum((m + n) * min(r, m, n)
                     + kernel_coefficient_count(kernel_kind, min(pieces, r, m, n) or pieces)
                     for m, n in layer_dims)
        retained = weight_floats if mode is MemoryMode.LOW_RANK_STORING_DELTA else 0
    return {
        "mode": mode.value,
        "layers": len(layer_dims),
        "rank": r,
        "optimizer_param_floats": params,
        "optimizer_moment_floats": 2 * params,
        "retained_merge_floats": retained,
        "total_floats": params + 2 * params + retained,
    }


def train_experiment(config: dict) -> tuple:
    """Run the configured fine-tune; returns (report, trace)."""
    watch = StopWatch()
    dataset = dataset_from(config)
    trainer_cfg = trainer_config_from(config)
    trace = fine_tune(trainer_cfg, dataset)
    report = ExperimentReport(
        name="train",
        config=config,
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


def _train_config(params, config) -> dict:
    """The run config with the entry's `config` overrides applied."""
    overrides = check("config", params.get("config", {}), dict)
    sub_config = apply_defaults(merged(config, overrides))
    sub_config["experiments"] = []
    return sub_config


def _check_train(params, config) -> dict:
    """Everything `_run_train` checks before its first step: the config
    overrides and whether the task's `min_rank` is reachable; returns params."""
    dataset_from(_train_config(params, config))
    return params


def _run_train(params, config):
    report, trace = train_experiment(_train_config(params, config))
    return report, alloc_trace_table(trace)


# a kernel order: one that repeats a kernel can never hold
Ordering = Annotated[list[KernelKind],
                     (lambda kinds: len(set(kinds)) == len(kinds), "must name each kernel once")]


# a check reads assert keys: the first key given runs it, and those after are options
def _check_mse_ordering(report, table, mse_ordering: Ordering, min_seed_fraction: Unit = 0.8):
    frac = ordering_fraction(report, mse_ordering)
    report.aggregates["ordering_fraction"] = frac
    names = [k.value for k in mse_ordering]
    means = [report.aggregates["mean_final_mse"][k] for k in names]
    if not all(a < b for a, b in zip(means, means[1:])):
        yield f"mean MSE not ordered {names}: {means}"
    if not frac >= min_seed_fraction:
        yield f"strict per-seed ordering fraction {frac} < {min_seed_fraction}"


def _check_max_final_mse(report, table, max_final_mse: dict[KernelKind, NonNegative]):
    for kind, bound in max_final_mse.items():
        got = report.aggregates["mean_final_mse"][kind.value]
        if not got <= bound:
            yield f"{kind.value} mean MSE {got} > {bound}"


def _check_max_rbf_mixk_ratio(report, table, max_rbf_mixk_ratio: NonNegative):
    ratio = report.aggregates.get("rbf_mixk_ratio")
    if not (ratio is not None and ratio <= max_rbf_mixk_ratio):
        yield f"rbf/mix-k gradient ratio {ratio} > {max_rbf_mixk_ratio}"


_check_max_rbf_mixk_ratio.needs = ("rbf", "mix-k")  # the ratio needs both kernels


def _check_rank_at_most(report, table, rank_at_most: dict[str, Natural]):
    for key, bound in rank_at_most.items():
        if not report.aggregates[key]["max"] <= bound:
            yield f"{key} max rank {report.aggregates[key]['max']} > {bound}"


def _check_rank_above(report, table, rank_above: dict[str, Natural]):
    for key, bound in rank_above.items():
        if not report.aggregates[key]["min"] > bound:
            yield f"{key} min rank {report.aggregates[key]['min']} <= {bound}"


def _check_schedule_values(report, table, values: list[tuple[ScheduleKind, Natural, Natural]]):
    header, rows = table
    for kind, t, expected in values:
        kind_i = header.index(kind.value)
        row = next((r for r in rows if r[0] == t), None)
        if not (row is not None and row[kind_i] == expected):
            yield f"{kind.value} at t={t}: {None if row is None else row[kind_i]} != {expected}"


def _check_lowrank_fullft_ratio(report, table,
                                lowrank_fullft_ratio: tuple[Positive, NonNegative]):
    target, rel = lowrank_fullft_ratio
    got = report.aggregates["lowrank_fullft_ratio"]
    if not abs(got - target) <= rel * target:
        yield f"ratio {got} not within {rel} of {target}"


def _check_max_final_loss(report, table, max_final_loss: NonNegative):
    if not report.aggregates["final_loss"] <= max_final_loss:
        yield f"final loss {report.aggregates['final_loss']} > {max_final_loss}"


REQUIRED = inspect.Parameter.empty  # the default of a parameter without one


@dataclass(frozen=True)
class ExperimentType:
    """How `run-all` runs one experiment type.

    `run(params, config)` returns the report and an optional CSV table
    (header, rows), which an entry named `name` writes as
    `<name><table>.csv`; `table` is that file-name suffix, None for a type
    that writes no table. `params` maps the driver's parameter names to
    their defaults, REQUIRED for those without one; `check_params(params,
    config)` raises what the run would raise for their values, a
    SettingError for a single param's, and returns them parsed. `checks`
    holds the assert checks in evaluation order, each a check(report, table,
    **values) that yields one detail per failure, where table is the run's
    (header, rows): its keyword params are the assert keys it reads, each
    value held to the param's annotation, and an entry that gives its first
    key runs it. `names` is None or names(parsed params), the kernels, rank
    keys or schedule kinds that a run with those params reports; each name in
    an assert value (a member or an object key) and in its check's `needs`
    must be one of them.
    """

    run: Callable
    params: dict
    check_params: Callable
    checks: tuple
    names: Callable | None = None
    table: str | None = None


def _params_of(driver, *fixed) -> tuple:
    """The `checked` driver's parameters with their defaults, less `fixed`, and
    a check(params, config) that runs its `checked` rules on params and
    returns them parsed, defaults filled in."""
    params = {p.name: p.default for p in inspect.signature(driver).parameters.values()
              if p.name not in fixed}
    return params, lambda given, config: driver.check(**given).arguments


def _kernel_names(params) -> list:
    return [k.value for k in params["kernels"]]


EXPERIMENT_TYPES = {
    "fit-matrix": ExperimentType(
        _report_only(fit_matrix_experiment), *_params_of(fit_matrix_experiment),
        (_check_mse_ordering, _check_max_final_mse), _kernel_names),
    "grad-evolution": ExperimentType(
        _report_only(grad_evolution_experiment), *_params_of(grad_evolution_experiment),
        (_check_max_rbf_mixk_ratio,), _kernel_names),
    "rank-sweep": ExperimentType(
        _run_rank_sweep, *_params_of(rank_sweep), (_check_rank_at_most, _check_rank_above),
        lambda params: [f"{k.value}@r={r}" for k in params["kernels"]
                        for r in params["r_values"]], table=""),
    # the entry's one param is an optional override of the run config
    "train": ExperimentType(
        _run_train, {"config": {}}, _check_train, (_check_max_final_loss,), table="-sparsity"),
    "schedule": ExperimentType(
        _run_schedule, *_params_of(schedule_table), (_check_schedule_values,),
        lambda params: [k.value for k in params["kinds"]], table=""),
    "memory-model": ExperimentType(
        _run_memory_model, *_params_of(memory_footprint_estimate, "mode"),
        (_check_lowrank_fullft_ratio,)),
}


def _names(value) -> list:
    """The names a parsed assert value lists: its members and its object keys."""
    if isinstance(value, Choice):
        return [value.value]
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple, dict)):
        return [name for item in value for name in _names(item)]
    return []


def _asserts(assert_check, asserts: dict, where: str = "") -> dict:
    """The values `asserts` gives for `assert_check`'s keys, each held to its annotation."""
    return {key: check_type(f"{where}assert.{key}", asserts[key], hint)
            for key, hint in hints(assert_check).items() if key in asserts}


_ENTRY_KEYS = ("name", "type", "params", "assert")


def check_entry(entry: dict, config: dict, where: str = "") -> None:
    """Raise a ConfigError for any key or value of one experiment entry that
    its run would fail on; `where` prefixes the keys a message names."""
    for key in entry:
        if key not in _ENTRY_KEYS:
            raise ConfigError(f"unknown key '{where}{key}' (known: {', '.join(_ENTRY_KEYS)})")
    etype = EXPERIMENT_TYPES.get(entry.get("type"))
    if etype is None:
        raise ConfigError(f"{where}type {entry.get('type')!r} unknown "
                          f"(known: {', '.join(sorted(EXPERIMENT_TYPES))})")
    assert_keys = [key for assert_check in etype.checks for key in hints(assert_check)]
    for section, allowed in (("params", etype.params), ("assert", assert_keys)):
        for key in check_type(f"{where}{section}", entry.get(section, {}), dict):
            if key not in allowed:
                raise ConfigError(f"unknown key '{where}{section}.{key}' "
                                  f"(known: {', '.join(sorted(allowed))})")
    params = entry.get("params", {})
    missing = sorted(k for k, v in etype.params.items() if v is REQUIRED and k not in params)
    if missing:
        raise ConfigError(f"missing key '{where}params.{missing[0]}'")
    try:
        parsed = etype.check_params(params, config)
    except SettingError as err:
        raise located(err, f"{where}params.{err.name}") from None
    except (TypeError, ValueError) as err:
        # a train entry's one param is its config overrides
        config_key = ".config" if entry["type"] == "train" else ""
        raise ConfigError(f"{where}params{config_key}: {err}") from None
    known = etype.names(parsed) if etype.names else []
    for assert_check in etype.checks:
        for key, value in _asserts(assert_check, entry.get("assert", {}), where).items():
            for name in [*_names(value), *getattr(assert_check, "needs", ())]:
                if name not in known:
                    raise ConfigError(f"{where}assert.{key}: the entry reports no {name!r} "
                                      f"(it reports {', '.join(known)})")


def run_entry(entry: dict, config: dict, out_dir: Path, name: str) -> tuple:
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
    failures = [f"{name}: {detail}" for assert_check in etype.checks
                if next(iter(hints(assert_check))) in asserts
                for detail in assert_check(report, table, **_asserts(assert_check, asserts))]
    paths.append(report.write(out_dir))
    return report, paths, failures


# an entry's name: the stem of the files it writes under the output directory
EntryName = Annotated[str, (lambda name: name not in ("", ".", "..") and Path(name).name == name,
                            "must be a nonempty string, not '.' or '..', with no path separator")]


def run_all(config: dict, out_dir) -> tuple:
    """Execute every experiment in the config; returns (report paths, failures).

    All entries are checked before anything runs, their names too: each
    names the files it writes under `out_dir`, so it must be one file name,
    used by no earlier entry, and no file it writes may be one an earlier
    entry writes. Embedded `assert` blocks are evaluated against each
    experiment's results; failures are collected, not fatal.
    """
    names, writers = [], {}  # writers: file name -> index of the entry writing it
    for i, entry in enumerate(config["experiments"]):
        check_entry(check_type(f"experiments[{i}]", entry, dict), config, f"experiments[{i}].")
        name = check_type(f"experiments[{i}].name", entry.get("name", f"{entry['type']}-{i}"),
                          EntryName)
        if name in names:
            raise ConfigError(f"experiments[{i}].name {json.dumps(name)} repeats "
                              f"experiments[{names.index(name)}]'s name")
        names.append(name)
        suffix = EXPERIMENT_TYPES[entry["type"]].table
        for file in [f"{name}.json", *([] if suffix is None else [f"{name}{suffix}.csv"])]:
            if file in writers:
                raise ConfigError(f"experiments[{i}].name {json.dumps(name)} writes {file}, which "
                                  f"experiments[{writers[file]}] writes too")
            writers[file] = i
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, failures = [], []
    for entry, name in zip(config["experiments"], names):
        _, written, failed = run_entry(entry, config, out_dir, name)
        paths += written
        failures += failed
    return paths, failures


def default_run_config() -> dict:
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
