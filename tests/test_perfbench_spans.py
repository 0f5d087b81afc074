"""The names perfbench's span recorder wraps must exist in klora.

`Tracer.wrap` skips a name its owner lacks, so a rename in klora would
silently drop that span and the per-layer metrics built on it. This test
loads `perfbench/tracing.py`, records every (owner, attr) its `install`
asks for without patching anything, and checks each one resolves.
"""

import importlib.util
from pathlib import Path

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
