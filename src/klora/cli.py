"""Command-line entry point for the experiment harness.

Every subcommand is seed-deterministic and writes machine-readable output
(a JSON report per experiment, CSV tables, optional SVG heatmaps) under
--out. `run-all` executes the experiment list from a config file (or the
bundled default) and exits nonzero when an embedded assertion fails.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import experiments as ex
from .allocation import SparsifyMode, parse_schedule_kind
from .checkpoint import save_checkpoint
from .config import (SETTINGS, ConfigError, apply_defaults, dataset_from, load_config,
                     trainer_config_from)
from .experiments import default_run_config
from .kernels import (
    KernelKind,
    KernelSpec,
    LowRankPair,
    merge,
    parse_kernel_kind,
)
from .model import AllocPeriod, RunTrace, Trainer, build_model
from .reports import write_csv
from .svgplot import emit_heatmap_svg
from .tensor import Tensor, finite_diff_check, reduce_sum, mul


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _names(parse):
    """Option callback: a name `parse` rejects is a usage error (exit code 2)."""

    def callback(ctx, param, value):
        for name in value if isinstance(value, tuple) else () if value is None else (value,):
            try:
                parse(name)
            except ValueError as err:
                raise click.BadParameter(str(err), ctx, param) from None
        return value

    return callback


@contextlib.contextmanager
def _usage_errors():
    """A bad argument value is a usage error (exit code 2), not a traceback.

    The drivers and `apply_defaults` raise ValueError (ConfigError is one)
    for argument values they cannot run with.
    """
    try:
        yield
    except ValueError as err:
        raise click.UsageError(str(err)) from None


common = {
    "config": click.option("--config", type=click.Path(exists=True, dir_okay=False),
                           default=None, help="JSON run configuration."),
    "out": click.option("--out", type=click.Path(file_okay=False), default="out",
                        show_default=True, help="Output directory."),
    "seed": click.option("--seed", type=int, default=0, show_default=True),
    "seeds": click.option("--seeds", type=int, default=5, show_default=True,
                          help="Number of seeds."),
    "kernel": click.option("--kernel", "kernels", multiple=True,
                           callback=_names(parse_kernel_kind),
                           help="Kernel name (repeatable)."),
    "rank": click.option("--rank", type=int, default=4, show_default=True),
    "pieces": click.option("--pieces", type=int, default=2, show_default=True),
}


@click.group()
def main():
    """Kernel-merged low-rank adapters with budgeted bi-level sparsity."""


@main.command("fit-matrix")
@common["out"]
@common["seed"]
@common["seeds"]
@common["kernel"]
@common["rank"]
@common["pieces"]
@click.option("--size", type=int, default=32, show_default=True, help="Target is size x size.")
@click.option("--target-rank", type=int, default=None, help="Target rank (default full).")
@click.option("--density", type=float, default=0.1, show_default=True,
              help="Fraction of nonzero target entries.")
@click.option("--steps", type=int, default=20000, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--factor-std", type=float, default=1.0, show_default=True)
@click.option("--piece-init-eps", type=float, default=0.0, show_default=True,
              help="Start piece coefficients at (+eps, -eps, ...) instead of zeros.")
def fit_matrix_cmd(out, seed, seeds, kernels, rank, pieces, size, target_rank, density,
                   steps, lr, factor_std, piece_init_eps):
    """Fit random matrices with kernel merges; report final MSE per kernel."""
    kernels = kernels or ex.DEFAULT_KERNELS
    with _usage_errors():
        report = ex.fit_matrix_experiment(
            m=size, n=size, r=rank, target_rank=target_rank, kernels=kernels, steps=steps,
            lr=lr, seeds=seeds, density=density, pieces=pieces, factor_std=factor_std,
            piece_init_eps=piece_init_eps, seed_base=seed,
        )
    path = report.write(_out_dir(out))
    for kind, mse in report.aggregates["mean_final_mse"].items():
        click.echo(f"{kind}: mean final MSE {mse:.6g}")
    click.echo(f"report: {path}")


@main.command("grad-evolution")
@common["out"]
@common["seed"]
@common["seeds"]
@common["kernel"]
@common["rank"]
@common["pieces"]
@click.option("--scale", type=float, default=10.0, show_default=True,
              help="Factor entries start uniform in [-scale, scale].")
@click.option("--steps", type=int, default=300, show_default=True)
def grad_evolution_cmd(out, seed, seeds, kernels, rank, pieces, scale, steps):
    """Trace gradient magnitudes through each kernel merge."""
    kernels = kernels or ("mix-k", "rbf", "linear")
    with _usage_errors():
        report = ex.grad_evolution_experiment(
            kernels=kernels, scale=scale, steps=steps, seeds=seeds, r=rank, pieces=pieces,
            seed_base=seed,
        )
    path = report.write(_out_dir(out))
    for kind, mag in report.aggregates["static_mean_abs_gradient"].items():
        click.echo(f"{kind}: mean |grad| {mag:.6g}")
    ratio = report.aggregates.get("rbf_mixk_ratio")
    if ratio is not None:
        click.echo(f"rbf / mix-k ratio: {ratio:.6g}")
    click.echo(f"report: {path}")


@main.command("rank-sweep")
@common["out"]
@common["seed"]
@common["seeds"]
@common["kernel"]
@common["pieces"]
@click.option("--size", type=int, default=64, show_default=True)
@click.option("--rank", "ranks", type=int, multiple=True, help="Factor rank (repeatable).")
def rank_sweep_cmd(out, seed, seeds, kernels, pieces, size, ranks):
    """Numerical rank of merged matrices across kernels and ranks."""
    kernels = kernels or ex.DEFAULT_KERNELS
    ranks = ranks or (2, 4, 8)
    with _usage_errors():
        report = ex.rank_sweep(m=size, n=size, r_values=ranks, kernels=kernels,
                               seeds=seeds, pieces=pieces, seed_base=seed)
    out_dir = _out_dir(out)
    header, rows = ex.rank_table(report)
    write_csv(out_dir / "rank-sweep.csv", header, rows)
    path = report.write(out_dir)
    for key, stats in sorted(report.aggregates.items()):
        click.echo(f"{key}: min {stats['min']} max {stats['max']}")
    click.echo(f"report: {path}")


# train's override options: each is named after the leaf of the document key it sets
_OVERRIDE_KEYS = {key.split(".")[1]: key for key in SETTINGS}


@main.command("train")
@common["config"]
@common["out"]
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--kernel", "kind", type=str, default=None, callback=_names(parse_kernel_kind),
              help="Override the kernel kind.")
@click.option("--rank", type=int, default=None, help="Override the adapter rank.")
@click.option("--pieces", type=int, default=None)
@click.option("--budget-ratio", type=float, default=None)
@click.option("--schedule", type=str, default=None, callback=_names(parse_schedule_kind))
@click.option("--alloc-period", type=click.Choice([p.value for p in AllocPeriod]), default=None)
@click.option("--sparsify-mode", type=click.Choice([m.value for m in SparsifyMode]),
              default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--checkpoint", "checkpoint_path", type=click.Path(dir_okay=False),
              default=None, help="Write the trained adapter state here.")
def train_cmd(config, out, checkpoint_path, **overrides):
    """Fine-tune adapters on the configured synthetic task."""
    with _usage_errors():
        raw = {} if config is None else load_config(config).to_dict()
        for option, value in overrides.items():
            if value is not None:
                section, key = _OVERRIDE_KEYS[option].split(".")
                raw.setdefault(section, {})[key] = value
        run_config = apply_defaults(raw)
    dataset = dataset_from(run_config)
    trainer_cfg = trainer_config_from(run_config)
    model = build_model(dataset, trainer_cfg)
    trainer = Trainer(model, trainer_cfg, dataset)
    trace = trainer.fine_tune()
    out_dir = _out_dir(out)
    trace_path = out_dir / "train-trace.json"
    trace_path.write_text(json.dumps(trace.to_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path)
        click.echo(f"checkpoint: {checkpoint_path}")
    click.echo(f"initial loss {trace.initial_loss:.6g} -> final loss {trace.final_loss:.6g}")
    click.echo(f"trace: {trace_path}")


@main.command("alloc-trace")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@common["out"]
@click.option("--svg/--no-svg", default=True, show_default=True,
              help="Also render the sparsity heatmap.")
def alloc_trace_cmd(trace_path, out, svg):
    """Export per-layer, per-epoch sparsity ratios from a training trace."""
    try:
        trace = RunTrace.from_dict(json.loads(Path(trace_path).read_text(encoding="utf-8")))
        header, rows = ex.alloc_trace_table(trace)
    except (TypeError, ValueError) as err:
        # from_dict raises TypeError for a missing or unknown key
        raise click.UsageError(f"malformed trace {trace_path}: {err}") from None
    out_dir = _out_dir(out)
    csv_path = out_dir / "sparsity-ratios.csv"
    write_csv(csv_path, header, rows)
    click.echo(f"table: {csv_path}")
    if svg:
        # table rows are epochs; the heatmap wants layer rows
        ratios = [[row[1 + layer] for row in rows] for layer in range(len(header) - 1)]
        svg_path = out_dir / "sparsity-ratios.svg"
        emit_heatmap_svg(ratios, svg_path)
        click.echo(f"heatmap: {svg_path}")


@main.command("schedule")
@common["out"]
@click.option("--b0", type=int, default=1000, show_default=True)
@click.option("--bt", "bT", type=int, default=0, show_default=True)
@click.option("--steps", "T", type=int, default=10, show_default=True)
@click.option("--schedule", "kinds", multiple=True, callback=_names(parse_schedule_kind),
              help="Schedule kind (repeatable; default all four).")
def schedule_cmd(out, b0, bT, T, kinds):
    """Tabulate the tunable-weight budget over training steps."""
    kinds = kinds or ("constant", "linear", "quadratic", "cubic")
    with _usage_errors():
        header, rows = ex.schedule_table(b0=b0, bT=bT, T=T, kinds=kinds)
    out_dir = _out_dir(out)
    path = out_dir / "schedule.csv"
    write_csv(path, header, rows)
    click.echo(f"table: {path}")


@main.command("memory-model")
@common["out"]
@click.option("--layers", type=int, default=12, show_default=True)
@click.option("--m", type=int, default=768, show_default=True)
@click.option("--n", type=int, default=768, show_default=True)
@common["rank"]
@click.option("--kernel", type=str, default="mix-k", show_default=True,
              callback=_names(parse_kernel_kind))
@common["pieces"]
def memory_model_cmd(out, layers, m, n, rank, kernel, pieces):
    """Analytic parameter and optimizer-state float counts per strategy."""
    dims = [(m, n)] * layers
    with _usage_errors():
        estimates = {
            mode: ex.memory_footprint_estimate(dims, rank, mode, kernel_kind=kernel, pieces=pieces)
            for mode in ex.MEMORY_MODES
        }
    out_dir = _out_dir(out)
    path = out_dir / "memory-model.json"
    path.write_text(json.dumps(estimates, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ratio = (estimates["low-rank"]["optimizer_param_floats"]
             / estimates["full-ft"]["optimizer_param_floats"])
    click.echo(f"low-rank / full-ft optimizer parameters: {ratio:.6g}")
    click.echo(f"report: {path}")


@main.command("grad-check")
@common["seeds"]
@common["kernel"]
@click.option("--m", type=int, default=8, show_default=True)
@click.option("--n", type=int, default=6, show_default=True)
@common["rank"]
@common["pieces"]
@click.option("--h", "step", type=float, default=1e-5, show_default=True)
@click.option("--tol", type=float, default=1e-5, show_default=True)
def grad_check_cmd(seeds, kernels, m, n, rank, pieces, step, tol):
    """Finite-difference validation of merge gradients for each kernel kind."""
    kinds = [parse_kernel_kind(k) for k in kernels] if kernels else list(KernelKind)
    if min(m, n, rank, seeds) < 1:
        raise click.UsageError(f"m, n, rank and seeds must be >= 1, got {m}, {n}, {rank}, {seeds}")
    if not (step > 0 and tol > 0):
        raise click.UsageError(f"h and tol must be positive, got {step}, {tol}")
    rank = min(rank, m, n)
    failures = 0
    for kind in kinds:
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng([seed, 0xEC])
            pair = LowRankPair(
                A=Tensor(rng.normal(size=(n, rank)), requires_grad=True),
                B=Tensor(rng.normal(size=(m, rank)), requires_grad=True),
            )
            with _usage_errors():
                spec = KernelSpec.canonical(kind, pieces=min(pieces, rank), trainable=True)
            weights = Tensor(rng.normal(size=(m, n)))
            params = [pair.A, pair.B, *spec.coefficients()]
            report = finite_diff_check(
                lambda: reduce_sum(mul(merge(spec, pair), weights)), params, h=step, tol=tol
            )
            worst = max(worst, report.max_rel_err)
        ok = worst < tol
        failures += not ok
        click.echo(f"{'PASS' if ok else 'FAIL'} {kind.value}: max rel err {worst:.3g}")
    if failures:
        sys.exit(1)


@main.command("run-all")
@common["config"]
@common["out"]
def run_all_cmd(config, out):
    """Run every experiment in the config (bundled default when omitted)."""
    try:
        run_config = default_run_config() if config is None else load_config(config)
        paths, failures = ex.run_all(run_config, out)
    except ConfigError as err:
        raise click.ClickException(str(err)) from None
    for path in paths:
        click.echo(f"wrote {path}")
    if failures:
        for failure in failures:
            click.echo(f"ASSERTION FAILED {failure}", err=True)
        sys.exit(1)
    click.echo("all assertions passed")


if __name__ == "__main__":
    main()
