"""Command-line entry point for the experiment harness.

Every subcommand is seed-deterministic and writes machine-readable output
(a JSON report per experiment, CSV tables, optional SVG heatmaps) under
--out. `run-all` executes the experiment list from a config file (or the
bundled default) and exits nonzero when an embedded assertion fails. Each
experiment subcommand runs as a one-entry `run-all`, with the driver's
defaults.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import experiments as ex
from .checkpoint import save_checkpoint
from .choices import Count, Positive
from .config import (SETTINGS, ConfigError, apply_defaults, dataset_from, load_config,
                     trainer_config_from)
from .experiments import check_ranks, checked, default_run_config
from .kernels import KernelKind, KernelSpec, LowRankPair, merge
from .model import RunTrace, Trainer, build_model
from .reports import write_csv
from .svgplot import emit_heatmap_svg
from .tensor import Tensor, finite_diff_check, reduce_sum, mul


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def _usage_errors():
    """A bad argument value is a usage error (exit code 2), not a traceback.

    `apply_defaults` and a driver's `check` raise ValueError (ConfigError and
    SettingError are ones) for argument values they cannot run with.
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
}


@click.group()
def main():
    """Kernel-merged low-rank adapters with budgeted bi-level sparsity."""


def _experiment(etype: str, *flags):
    """Register the subcommand for run-all entry type `etype`.

    Each flag is (option, parameter[, attrs]): the option sets the driver
    parameter and takes the driver's default unless `attrs` gives one.
    """
    defaults = ex.EXPERIMENT_TYPES[etype].params

    def register(body):
        for option, param, *attrs in reversed(flags):
            attrs = {"default": defaults.get(param), "show_default": True, **dict(*attrs)}
            body = click.option(option, param, **attrs)(body)
        return main.command(etype)(common["out"](body))

    return register


def _run(etype: str, out, **params):
    """Run a subcommand as a one-entry run-all: check the entry, run it, write
    its files, and print each aggregate of its report and each path written."""
    entry = {"name": etype, "type": etype, "params": params}
    config = apply_defaults({})
    try:
        ex.check_entry(entry, config)
    except ConfigError as err:
        raise click.UsageError(str(err)) from None
    report, paths, _ = ex.run_entry(entry, config, _out_dir(out), etype)
    _echo(report.aggregates)
    for path in paths:
        click.echo(f"wrote {path}")


def _echo(aggregates: dict, prefix: str = "") -> None:
    """Print one line per aggregate; a nested one under its dotted key."""
    for key, value in aggregates.items():
        if isinstance(value, dict):
            _echo(value, f"{prefix}{key}.")
        else:
            click.echo(f"{prefix}{key}: {value:.6g}" if isinstance(value, float)
                       else f"{prefix}{key}: {value}")


_SEEDS = (("--seed", "seed_base"), ("--seeds", "seeds", {"help": "Number of seeds."}),
          ("--kernel", "kernels", {"multiple": True, "help": "Kernel name (repeatable)."}),
          ("--pieces", "pieces"))


@_experiment("fit-matrix", *_SEEDS, ("--rank", "r"),
             ("--size", "m", {"help": "Target is size x size."}),
             ("--target-rank", "target_rank",
              {"type": int, "help": "Target rank (default full)."}),
             ("--density", "density", {"help": "Fraction of nonzero target entries."}),
             ("--steps", "steps"), ("--lr", "lr"), ("--factor-std", "factor_std"),
             ("--piece-init-eps", "piece_init_eps",
              {"help": "Start piece coefficients at (+eps, -eps, ...) instead of zeros."}))
def fit_matrix_cmd(out, m, **params):
    """Fit random matrices with kernel merges; report final MSE per kernel."""
    _run("fit-matrix", out, m=m, n=m, **params)


@_experiment("grad-evolution", *_SEEDS, ("--rank", "r"),
             ("--scale", "scale", {"help": "Factor entries start uniform in [-scale, scale]."}),
             ("--steps", "steps"))
def grad_evolution_cmd(out, **params):
    """Trace gradient magnitudes through each kernel merge."""
    _run("grad-evolution", out, **params)


@_experiment("rank-sweep", *_SEEDS, ("--size", "m", {"help": "Merges are size x size."}),
             ("--rank", "r_values", {"multiple": True, "help": "Factor rank (repeatable)."}))
def rank_sweep_cmd(out, m, **params):
    """Numerical rank of merged matrices across kernels and ranks."""
    _run("rank-sweep", out, m=m, n=m, **params)


# train's override options: each is named after the leaf of the document key it sets
_OVERRIDE_KEYS = {key.split(".")[1]: key for key in SETTINGS}


@main.command("train")
@common["config"]
@common["out"]
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--kernel", "kind", type=str, default=None, help="Override the kernel kind.")
@click.option("--rank", type=int, default=None, help="Override the adapter rank.")
@click.option("--pieces", type=int, default=None)
@click.option("--budget-ratio", type=float, default=None)
@click.option("--schedule", type=str, default=None)
@click.option("--alloc-period", type=str, default=None)
@click.option("--sparsify-mode", type=str, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--checkpoint", "checkpoint_path", type=click.Path(dir_okay=False),
              default=None, help="Write the trained adapter state here.")
def train_cmd(config, out, checkpoint_path, **overrides):
    """Fine-tune adapters on the configured synthetic task."""
    with _usage_errors():
        raw = {} if config is None else load_config(config)
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


@_experiment("schedule", ("--b0", "b0"), ("--bt", "bT"), ("--steps", "T"),
             ("--schedule", "kinds", {"multiple": True, "help": "Schedule kind (repeatable)."}))
def schedule_cmd(out, **params):
    """Tabulate the tunable-weight budget over training steps."""
    _run("schedule", out, **params)


@_experiment("memory-model", ("--layers", "layers", {"default": 12}),
             ("--m", "m", {"default": 768}), ("--n", "n", {"default": 768}),
             ("--rank", "r", {"default": 4}), ("--kernel", "kernel_kind"), ("--pieces", "pieces"))
def memory_model_cmd(out, layers, m, n, **params):
    """Analytic parameter and optimizer-state float counts per strategy."""
    _run("memory-model", out, layer_dims=[[m, n]] * layers, **params)


@checked(lambda m, n, rank, **_: check_ranks(m, n, r=rank))
def _grad_check(kernels: list[KernelKind], seeds: Count, m: Count, n: Count, rank: Count,
               pieces: Count, h: Positive, tol: Positive):
    """Yield (kind, largest relative error) per kernel of finite-difference checks
    (step `h`, tolerance `tol`) of the merge's gradients at `seeds` random (m, n)
    factor pairs of rank `rank`, canonical coefficients, pieces capped at the rank."""
    for kind in kernels:
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng([seed, 0xEC])
            pair = LowRankPair(
                A=Tensor(rng.normal(size=(n, rank)), requires_grad=True),
                B=Tensor(rng.normal(size=(m, rank)), requires_grad=True),
            )
            spec = KernelSpec.canonical(kind, pieces=min(pieces, rank), trainable=True)
            weights = Tensor(rng.normal(size=(m, n)))
            params = [pair.A, pair.B, *spec.coefficients()]
            report = finite_diff_check(
                lambda: reduce_sum(mul(merge(spec, pair), weights)), params, h=h, tol=tol
            )
            worst = max(worst, report.max_rel_err)
        yield kind, worst


@main.command("grad-check")
@click.option("--seeds", type=int, default=5, show_default=True, help="Number of seeds.")
@click.option("--kernel", "kernels", multiple=True, help="Kernel name (repeatable).")
@click.option("--m", type=int, default=8, show_default=True)
@click.option("--n", type=int, default=6, show_default=True)
@click.option("--rank", type=int, default=4, show_default=True)
@click.option("--pieces", type=int, default=2, show_default=True)
@click.option("--h", type=float, default=1e-5, show_default=True)
@click.option("--tol", type=float, default=1e-5, show_default=True)
def grad_check_cmd(kernels, **options):
    """Finite-difference validation of merge gradients for each kernel kind."""
    options["kernels"] = kernels or tuple(KernelKind)
    with _usage_errors():
        _grad_check.check(**options)
    failures = 0
    for kind, worst in _grad_check(**options):
        ok = worst < options["tol"]
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
        raise click.UsageError(str(err)) from None
    for path in paths:
        click.echo(f"wrote {path}")
    if failures:
        for failure in failures:
            click.echo(f"ASSERTION FAILED {failure}", err=True)
        sys.exit(1)
    click.echo("all assertions passed")


if __name__ == "__main__":
    main()
