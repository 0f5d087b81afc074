"""In-memory span recorder that wraps klora's public functions for a traced run.

Wrappers are installed at the names the calling modules import (for example
`klora.model.merge`, not only `klora.kernels.merge`), so the spans sit at the
boundaries between the package's layers. An untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import klora.allocation
import klora.datasets
import klora.experiments
import klora.model
from klora.tensor import Tensor


class Tracer:
    """Records spans as [name, start, end, parent] lists; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patches = []
        self.step_nodes = []  # (optimizer, node id) at each Adam.step entry

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, before=None) -> None:
        """Replace owner.attr with a recording wrapper.

        `name` is a span name or a function of the call's positional
        arguments that returns one; `before` runs on those arguments first.
        A name the owner does not have is skipped.
        """
        original = getattr(owner, attr, None)
        if original is None:
            # the package moved or renamed this name; its spans are then absent
            return
        name_of = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield self
        finally:
            self.install()

    def install(self) -> None:
        ex, md, al = klora.experiments, klora.model, klora.allocation
        merge_name = lambda args: f"kernels.merge.{args[0].kind.value}"
        for module in (ex, md):
            self.wrap(module, "merge", merge_name)
            self.wrap(module, "backward", "tensor.backward")
        for attr in ("sub", "square", "reduce_mean"):
            self.wrap(ex, attr, "tensor.ops")
        self.wrap(ex, "make_fit_target", "experiments.target.draw")
        self.wrap(ex, "numerical_rank", "experiments.target.rank")
        self.wrap(md.Adam, "step", "model.adam", before=self._note_step)
        self.wrap(md.TinyModel, "forward", "model.forward")
        self.wrap(md.AttentionBlock, "forward", "model.forward.attention")
        self.wrap(md.AdaptedLinear, "forward", "model.forward.linear")
        self.wrap(md, "mse_loss", "model.loss")
        self.wrap(md.Trainer, "train_step", "model.train_step")
        self.wrap(md.Trainer, "evaluate", "model.evaluate")
        self.wrap(md.Trainer, "allocate", "model.allocate")
        self.wrap(md, "sparsify", "allocation.sparsify")
        self.wrap(md, "alloc", "allocation.alloc")
        self.wrap(md, "sensitivity", "allocation.importance.sensitivity")
        self.wrap(al.ImportanceState, "update", "allocation.importance.update")
        self.wrap(md, "layer_score", "allocation.layer_score")
        # config.dataset_from imports synth_dataset at call time, from here
        self.wrap(klora.datasets, "synth_dataset", "datasets.build")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _note_step(self, args) -> None:
        # building a Tensor takes the next node id; the probe's own id is
        # subtracted again in nodes_per_step
        self.step_nodes.append((args[0], Tensor(0.0).node_id))

    def nodes_per_step(self) -> float:
        """Mean count of tensors built between consecutive steps of one optimizer."""
        marks = self.step_nodes
        deltas = [b[1] - a[1] - 1 for a, b in zip(marks, marks[1:]) if a[0] is b[0]]
        return sum(deltas) / len(deltas) if deltas else 0.0

    def self_times(self, lo: int = 0, hi: int | None = None) -> list:
        """Per-span (name, duration, self time) for spans[lo:hi]."""
        spans = self.spans[lo:hi]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= lo:
                child[parent] += end - start
        return [(name, end - start, end - start - child[lo + i])
                for i, (name, start, end, _) in enumerate(spans)]

    def counts(self, lo: int, hi: int) -> Counter:
        return Counter(span[0] for span in self.spans[lo:hi])

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

