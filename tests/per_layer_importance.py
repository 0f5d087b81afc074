"""The per-layer trainer state behind the flat importance arena: the test oracle.

`klora.model.Trainer` keeps one `ImportanceState` over Adam's flat parameter
vector and reduces each layer's factor slices of it for scores and grad
norms. Before that, every layer had its own state with separate A and B
copies of both moving averages, `train_step` zero-filled missing gradients
per layer, `fine_tune` summed squared gradients per layer, and every
`EpochRecord` scored the layers a second time after allocating.
`PerLayerTrainer` is that trainer, so a whole training run can be replayed
on it and compared bit for bit. It trains the model of
`per_layer_forward.per_layer_model`, whose layers keep their own leaves
and gradients, with its own optimizer over those leaves.
"""

from __future__ import annotations

import math
import time

import numpy as np

import per_layer_forward
from klora.allocation import Metric, alloc, budget_at, sensitivity
from klora.kernels import merge
from klora.model import AllocPeriod, EpochRecord, RunTrace, Trainer
from klora.tensor import Tensor, backward


class LayerImportanceState:
    """Smoothed sensitivity and its deviation for one layer, per factor."""

    def __init__(self, beta1: float, beta2: float):
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.t = -1
        self.i_bar_a = self.u_bar_a = self.i_bar_b = self.u_bar_b = None

    def update(self, raw_a, raw_b) -> None:
        if self.t < 0:
            self.i_bar_a = raw_a.copy()
            self.u_bar_a = np.zeros_like(raw_a)
            self.i_bar_b = raw_b.copy()
            self.u_bar_b = np.zeros_like(raw_b)
            self.t = 0
            return
        b1, b2 = self.beta1, self.beta2
        self.i_bar_a = b1 * self.i_bar_a + (1.0 - b1) * raw_a
        self.u_bar_a = b2 * self.u_bar_a + (1.0 - b2) * np.abs(self.i_bar_a - raw_a)
        self.i_bar_b = b1 * self.i_bar_b + (1.0 - b1) * raw_b
        self.u_bar_b = b2 * self.u_bar_b + (1.0 - b2) * np.abs(self.i_bar_b - raw_b)
        self.t += 1


def layer_score(state: LayerImportanceState, metric: Metric, layer) -> float:
    if metric is Metric.SENSITIVITY:
        return float(
            (state.i_bar_a * state.u_bar_a).mean() + (state.i_bar_b * state.u_bar_b).mean()
        )
    if metric is Metric.MAGNITUDE:
        return float(np.abs(layer.pair.A.data).mean() + np.abs(layer.pair.B.data).mean())
    return float(np.abs(merge(layer.spec, layer.pair).data).mean())


class PerLayerTrainer(Trainer):
    """The trainer with one importance state per layer and per-layer gradient loops."""

    def __init__(self, model, config, dataset):
        super().__init__(per_layer_forward.per_layer_model(model), config, dataset)
        self.states = [LayerImportanceState(config.smoothing_beta1, config.smoothing_beta2)
                       for _ in self.layers]

    def train_step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        self.opt.zero_grad()
        loss = self._loss_fn(self.model.forward(Tensor(xb)), yb)
        backward(loss)
        for layer, state in zip(self.layers, self.states):
            a, b = layer.pair.A, layer.pair.B
            ga = a.grad if a.grad is not None else np.zeros_like(a.data)
            gb = b.grad if b.grad is not None else np.zeros_like(b.data)
            state.update(sensitivity(a.data, ga), sensitivity(b.data, gb))
        self.opt.step()
        self.global_step += 1
        return float(loss.data)

    def layer_scores(self) -> list:
        metric = self.config.importance_metric
        return [layer_score(state, metric, layer)
                for layer, state in zip(self.layers, self.states)]

    def allocate(self):
        target = budget_at(self.schedule, min(self.global_step, self.schedule.T))
        result = alloc(self.layer_scores(), [layer.cap for layer in self.layers], target)
        for layer, b in zip(self.layers, result.budgets):
            layer.budget = b
        return result

    def grad_norms(self) -> list:
        norms = []
        for layer in self.layers:
            ga, gb = layer.pair.A.grad, layer.pair.B.grad
            sq = 0.0
            if ga is not None:
                sq += float((ga * ga).sum())
            if gb is not None:
                sq += float((gb * gb).sum())
            norms.append(math.sqrt(sq))
        return norms

    def fine_tune(self) -> RunTrace:
        start = time.perf_counter()
        cfg = self.config
        trace = RunTrace(seed=cfg.seed, config=cfg.to_dict(),
                         layer_caps=[layer.cap for layer in self.layers],
                         initial_loss=self.evaluate(), final_loss=math.nan)
        n = self.dataset.x.shape[0]
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
            losses = []
            norms = np.zeros(len(self.layers))
            for step in range(self.steps_per_epoch):
                lo = step * cfg.batch_size
                idx = np.take(perm, np.arange(lo, lo + cfg.batch_size), mode="wrap")
                losses.append(self.train_step(self.dataset.x[idx], self.dataset.y[idx]))
                for i, norm in enumerate(self.grad_norms()):
                    norms[i] += norm
                if cfg.alloc_period is AllocPeriod.PER_STEP:
                    result = self.allocate()
            if cfg.alloc_period is AllocPeriod.PER_EPOCH:
                result = self.allocate()
            caps = [layer.cap for layer in self.layers]
            trace.epochs.append(EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                global_budget=result.global_budget,
                budgets=list(result.budgets),
                ratios=[1.0 - b / c for b, c in zip(result.budgets, caps)],
                scores=self.layer_scores(),
                grad_norms=(norms / self.steps_per_epoch).tolist(),
            ))
        trace.final_loss = self.evaluate()
        trace.duration_s = time.perf_counter() - start
        return trace
