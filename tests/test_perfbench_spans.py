"""The names perfbench's span recorder wraps must exist in klora, and fire.

`Tracer.wrap` skips a name its owner lacks, so a rename in klora would
silently drop that span and the per-layer metrics built on it. The first
test loads `perfbench/tracing.py`, records every (owner, attr) its `install`
asks for without patching anything, and checks each one resolves. A name
can also resolve and never be called, when klora stops calling it through
the wrapped module attribute; the second test runs trainer steps under the
recorder and checks that every span the train workload reports fired.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from klora import config, model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    tracer = load_tracing().Tracer()
    wrapped = []
    tracer.wrap = lambda owner, attr, name, before=None: wrapped.append((owner, attr))
    tracer.install()
    assert tracer._patches == []
    names = {f"{owner.__name__}.{attr}" for owner, attr in wrapped}
    missing = sorted(f"{owner.__name__}.{attr}" for owner, attr in wrapped
                     if getattr(owner, attr, None) is None)
    assert not missing, f"perfbench wraps names klora no longer has: {missing}"
    for name in ("Adam.step", "ImportanceState.update", "klora.model.sensitivity",
                 "klora.model.layer_score", "Trainer.allocate"):
        assert name in names


# the spans behind train-sparse's per-layer metrics: merge, sparsify,
# layer_score, importance, alloc and Adam
TRAIN_SPANS = ("kernels.merge.mix-k", "allocation.sparsify", "allocation.layer_score",
               "allocation.importance.update", "allocation.importance.sensitivity",
               "allocation.alloc", "model.adam")


def test_every_train_span_fires():
    raw = {
        "model": {"layer_dims": [16, 16, 16], "rank": 4, "attention": {"position": 0, "tokens": 2}},
        "kernel": {"kind": "mix-k", "pieces": 2},
        "sparsity": {"alloc_period": "per-step"},
        "train": {"batch_size": 8, "task": {"kind": "high-rank-regression", "samples": 16}},
    }
    run_config = config.apply_defaults(json.loads(json.dumps(raw)))
    dataset = config.dataset_from(run_config)
    trainer_config = config.trainer_config_from(run_config)
    trainer = model.Trainer(model.build_model(dataset, trainer_config), trainer_config, dataset)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        for _ in range(2):  # the second step's forward pass sparsifies
            trainer.train_step(dataset.x[:8], dataset.y[:8])
            trainer.allocate()
    calls = Counter(span[0] for span in tracer.spans)
    silent = [name for name in TRAIN_SPANS if not calls[name]]
    assert not silent, f"spans that recorded no call: {silent}"
