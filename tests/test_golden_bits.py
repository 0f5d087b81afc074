"""Golden bits: outputs that a change claiming to keep behaviour must keep, bit for bit.

`GOLDEN` maps each output's name to the blake2b-8 digest of its float64
bytes (every number of a report or trace, in key order; strings carry no
bits):

- `fit/...`: 500 steps of `test_03`'s fit protocol (32 x 32, r 4, 5 seeds,
  density 0.05, `piece_init_eps` 1.0), once with all five kinds in one
  fit, whose mix-k and p-linear seeds share one partially mixed distance
  block, and once per kind; and one fit of the piecewise kinds with pieces
  of unequal width (r 5, 3 pieces). At 500 steps some distance calls take
  the cancellation guard's path.
- `train/...`: a trainer run's `RunTrace` (all but its `config` block, the
  run's input, and `duration_s`), its checkpoint bytes and every adapted
  layer's `delta_w()`, for a default run of each kind, for a [48, 32, 16]
  model under each sparsify mode, allocation period and `recompute_merge`,
  and for an attention model, whose four projections train as one stacked
  group, under each importance metric. A `recompute_merge` run keeps the
  bits of the run without it, so its entry equals that run's.
- `report/...`: small grad-evolution and rank-sweep reports.

The bits depend on numpy and its BLAS: OpenBLAS's summation order fixes
the distance op's augmented GEMM. So the table records the build it was
made on, and the test skips on any other. A change that moves bits on
purpose replaces the table and names every changed entry; running this
file as a script (`PYTHONPATH=src python tests/test_golden_bits.py`)
prints a fresh table.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from klora import checkpoint, config, model
from klora.allocation import Metric, SparsifyMode
from klora.experiments import fit_matrix_experiment, grad_evolution_experiment, rank_sweep
from klora.kernels import KernelKind
from klora.model import AllocPeriod

NUMPY = "2.4.6"
BLAS = "scipy-openblas 0.3.31.188.0"

GOLDEN = {
    "fit/joint": "6b03744f02ea714d",
    "fit/linear": "479c96805e946115",
    "fit/p-linear": "d1498a69c1dcf04c",
    "fit/sigmoid": "d56a1a2454f4bcf7",
    "fit/rbf": "408864a521de0d71",
    "fit/mix-k": "2688349984c3974a",
    "fit/unequal-pieces": "b44ae7642c8f4c09",
    "train/default/linear": "a9c53de45f005abd",
    "train/default/p-linear": "c87300607bcd3859",
    "train/default/sigmoid": "8c3d999865459f53",
    "train/default/rbf": "269ac3c251ab2289",
    "train/default/mix-k": "80c3ba80c6b422ed",
    "train/48-32-16/soft/per-epoch": "54d30f50ce695aa3",
    "train/48-32-16/soft/per-epoch/recompute": "54d30f50ce695aa3",
    "train/48-32-16/soft/per-step": "46ec1283c067601f",
    "train/48-32-16/soft/per-step/recompute": "46ec1283c067601f",
    "train/48-32-16/literal/per-epoch": "46a849db09af0bc8",
    "train/48-32-16/literal/per-epoch/recompute": "46a849db09af0bc8",
    "train/48-32-16/literal/per-step": "816084b1beb25e29",
    "train/48-32-16/literal/per-step/recompute": "816084b1beb25e29",
    "train/48-32-16/hard/per-epoch": "e2eab493c34bb8d5",
    "train/48-32-16/hard/per-epoch/recompute": "e2eab493c34bb8d5",
    "train/48-32-16/hard/per-step": "5e4e8d615f84bdb9",
    "train/48-32-16/hard/per-step/recompute": "5e4e8d615f84bdb9",
    "train/attention/sensitivity": "0b0ab0291178f01e",
    "train/attention/magnitude": "4fa4efd834d03bba",
    "train/attention/w-magnitude": "34c37b5042956e09",
    "report/grad-evolution": "f3fc5054acce32bf",
    "report/rank-sweep": "6c4b9650388b947d",
}

KINDS = [kind.value for kind in KernelKind]
FIT = dict(m=32, n=32, r=4, steps=500, lr=1e-3, seeds=5, density=0.05, piece_init_eps=1.0)
ATTENTION = {"layer_dims": [16, 16, 16], "attention": {"position": 0, "tokens": 2}}


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def numbers(x):
    """Every number in a JSON-like value, dict entries in key order."""
    if isinstance(x, dict):
        for key in sorted(x):
            yield from numbers(x[key])
    elif isinstance(x, (list, tuple)):
        for value in x:
            yield from numbers(value)
    elif isinstance(x, (bool, int, float, np.integer, np.floating)):
        yield float(x)


def digest(*parts) -> str:
    """blake2b-8 of the parts in order: bytes as they are, anything else as float64."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if not isinstance(part, bytes):
            part = np.ascontiguousarray(part, dtype=np.float64).tobytes()
        h.update(part)
    return h.hexdigest()


def report_digest(report) -> str:
    d = report.to_dict()
    d.pop("duration_s")
    return digest(list(numbers(d)))


def train_digest(overrides: dict, workdir: Path) -> str:
    run_config = config.apply_defaults(json.loads(json.dumps(overrides)))
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    net = model.build_model(dataset, trainer_config)
    trace = model.Trainer(net, trainer_config, dataset).fine_tune().to_dict()
    del trace["config"], trace["duration_s"]
    path = workdir / "adapters.bin"
    checkpoint.save_checkpoint(net, path)
    deltas = [layer.delta_w().data for layer in net.adapted_layers()]
    return digest(list(numbers(trace)), path.read_bytes(), *deltas)


def train_runs() -> dict:
    """Name -> document overrides of every trainer entry."""
    runs = {f"train/default/{kind}": {"kernel": {"kind": kind}} for kind in KINDS}
    for mode in SparsifyMode:
        for period in AllocPeriod:
            for recompute in (False, True):
                name = f"train/48-32-16/{mode.value}/{period.value}"
                runs[name + ("/recompute" if recompute else "")] = {
                    "model": {"layer_dims": [48, 32, 16]},
                    "sparsity": {"sparsify_mode": mode.value, "alloc_period": period.value},
                    "train": {"recompute_merge": recompute}}
    for metric in Metric:
        runs[f"train/attention/{metric.value}"] = {
            "model": ATTENTION, "sparsity": {"importance_metric": metric.value}}
    return runs


def golden_table() -> dict:
    table = {"fit/joint": report_digest(fit_matrix_experiment(kernels=KINDS, **FIT))}
    for kind in KINDS:
        table[f"fit/{kind}"] = report_digest(fit_matrix_experiment(kernels=[kind], **FIT))
    table["fit/unequal-pieces"] = report_digest(fit_matrix_experiment(
        kernels=["mix-k", "p-linear"], **{**FIT, "r": 5}, pieces=3))
    with tempfile.TemporaryDirectory() as workdir:
        for name, overrides in train_runs().items():
            table[name] = train_digest(overrides, Path(workdir))
    table["report/grad-evolution"] = report_digest(grad_evolution_experiment(steps=60, seeds=2))
    table["report/rank-sweep"] = report_digest(rank_sweep(m=16, n=16, r_values=[2, 4],
                                                          kernels=KINDS, seeds=3))
    return table


def test_outputs_keep_their_golden_bits():
    here = (np.__version__, blas_build())
    if here != (NUMPY, BLAS):
        pytest.skip(f"golden bits were recorded under numpy {NUMPY} with {BLAS}; "
                    f"this is numpy {here[0]} with {here[1]}")
    table = golden_table()
    for name in table:
        if name.endswith("/recompute"):
            assert table[name] == table[name.removesuffix("/recompute")], name
    changed = sorted(name for name in GOLDEN.keys() | table.keys()
                     if GOLDEN.get(name) != table.get(name))
    assert not changed, "changed entries: " + ", ".join(
        f"{name} ({GOLDEN.get(name)} -> {table.get(name)})" for name in changed)


if __name__ == "__main__":
    print(f'NUMPY = "{np.__version__}"')
    print(f'BLAS = "{blas_build()}"')
    print()
    print("GOLDEN = {")
    for name, value in golden_table().items():
        print(f'    "{name}": "{value}",')
    print("}")
