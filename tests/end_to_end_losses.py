"""The end-to-end advantage protocol, run once per test session.

Two tests judge the same 20 fine-tunes: mix-k and linear adapters on the
high-rank sparse regression task, seeds 0-9, 60 epochs of 30 steps. The
final losses are computed on first use and cached for the other test.
"""

from __future__ import annotations

import functools

from klora.datasets import high_rank_regression
from klora.kernels import KernelKind
from klora.model import TrainerConfig, fine_tune


@functools.lru_cache(maxsize=None)
def mixk_and_linear_final_losses() -> tuple:
    """Per seed 0-9, the final loss of each kind: ({MIX_K: loss, LINEAR: loss}, ...)."""
    losses = []
    for seed in range(10):
        ds = high_rank_regression(seed=seed)
        results = {}
        for kind in (KernelKind.MIX_K, KernelKind.LINEAR):
            cfg = TrainerConfig(lr=1e-2, epochs=60, steps_per_epoch=30, batch_size=16,
                                seed=seed, rank=4, kernel_kind=kind, budget_ratio=0.3)
            results[kind] = fine_tune(cfg, ds).final_loss
        losses.append(results)
    return tuple(losses)
