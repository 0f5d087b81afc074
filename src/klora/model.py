"""Adapted linear layers, a tiny trainable network, and the training loop.

An adapted layer keeps its base weight frozen and adds a budget-sparsified
kernel merge of its low-rank factors; only the factors and kernel
coefficients train. Each group of same-shaped layers trains from one
stacked leaf per parameter (`LayerGroup`), and a forward pass merges and
sparsifies it as one stack (`group_deltas`). The trainer refreshes one
sensitivity state over the optimizer's flat parameter vector every step and
re-divides the decaying global budget across layers at each allocation
event (per epoch by default). Each trainer setting is one `TrainerConfig`
field, and a run's trace echoes the config it ran (`TrainerConfig.to_dict`).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Annotated

import numpy as np

from .allocation import (
    AllocationResult,
    BudgetSchedule,
    ImportanceState,
    Metric,
    ScheduleKind,
    SparsifyMode,
    alloc,
    budget_at,
    layer_score,
    sensitivity,
    sparsify,
)
from .choices import (COUNT, Choice, Count, Decay, Natural, NonNegative, Positive, Unit,
                      check, hints)
from .kernels import (KernelKind, KernelSpec, LowRankPair, adapter_leaves, adapter_on, merge,
                      stack_adapters)
from .tensor import (
    Tensor,
    add,
    affine,
    backward,
    checkpoint,
    exp,
    log,
    matmul,
    mean_squared_error,
    mul,
    rectify,
    reduce_mean,
    reduce_sum,
    reshape,
    scalar_mul,
    softmax,
    sub,
    take,
    transpose,
)


class AllocPeriod(Choice, what="allocation period"):
    PER_EPOCH = "per-epoch"
    PER_STEP = "per-step"


# -- losses -------------------------------------------------------------------


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    return mean_squared_error(pred, target)


def cross_entropy_loss(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the batch (targets are one-hot rows)."""
    # shifting by the detached row max leaves both the value and the
    # gradient of logsumexp exact while preventing overflow
    row_max = logits.data.max(axis=1, keepdims=True)
    shifted = sub(logits, Tensor(row_max))
    lse = add(log(reduce_sum(exp(shifted), axis=1)), Tensor(row_max[:, 0]))
    picked = reduce_sum(mul(logits, Tensor(onehot)), axis=1)
    return reduce_mean(sub(lse, picked))


# -- optimizer ----------------------------------------------------------------


class Adam:
    """Adaptive-moment optimizer over a fixed parameter list.

    The moments of all parameters live in one flat `m` and one flat `v`
    buffer, so a step makes the same few numpy calls for any number of
    parameters. `step` subtracts each parameter's update from its array in
    place, so a parameter keeps its array, and every view of it, for its
    whole life; it returns the flat gradient, laid out parameter by
    parameter. `slots` holds each parameter's (slice, shape) in that layout,
    and `_updates` each parameter's view of the update buffer, in its shape.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        for name, value in (("lr", lr), ("adam_beta1", beta1), ("adam_beta2", beta2),
                            ("adam_eps", eps)):
            check(name, value, _HINTS[name])
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        bounds = list(itertools.accumulate((p.data.size for p in self.params), initial=0))
        self.slots = [(slice(lo, hi), p.data.shape)
                       for p, lo, hi in zip(self.params, bounds, bounds[1:])]
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])
        self._x = np.empty(bounds[-1])  # scratch for the step's intermediates
        self._y = np.empty(bounds[-1])
        self._updates = [self._y[part].reshape(shape) for part, shape in self.slots]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> np.ndarray:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        if not self.params:
            return np.zeros(0)
        g = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad
                            for p in self.params], axis=None)
        m, v, x, y = self._m, self._v, self._x, self._y
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=x)
        m += x
        v *= self.beta2
        np.multiply(g, g, out=x)
        x *= 1.0 - self.beta2
        v += x
        # lr * m_hat / (sqrt(v_hat) + eps), in that order
        np.divide(v, bc2, out=x)
        np.sqrt(x, out=x)
        x += self.eps
        np.divide(m, bc1, out=y)
        y *= self.lr
        y /= x
        for p, update in zip(self.params, self._updates):
            p.data -= update
        return g


# -- layers -------------------------------------------------------------------


class AdaptedLinear:
    """A frozen base weight plus a budget-sparsified kernel merge."""

    def __init__(self, w0, bias, pair: LowRankPair, spec: KernelSpec,
                 sparsify_mode=SparsifyMode.SOFT_SIGN, recompute_merge: bool = False):
        self.w0 = np.array(w0, dtype=np.float64, copy=True)
        if self.w0.ndim != 2:
            raise ValueError("base weight must be a matrix")
        self.bias = None if bias is None else np.array(bias, dtype=np.float64, copy=True)
        if self.bias is not None and self.bias.shape != (self.w0.shape[0],):
            raise ValueError("bias length must match output dimension")
        if (pair.m, pair.n) != self.w0.shape:
            raise ValueError(
                f"factor pair merges to {(pair.m, pair.n)} but base weight is {self.w0.shape}"
            )
        self.pair = pair
        self.spec = spec
        self.sparsify_mode = SparsifyMode(sparsify_mode)
        self.recompute_merge = bool(recompute_merge)
        self.budget = None  # None = warm start: full budget, no sparsification

    @property
    def m(self) -> int:
        return self.w0.shape[0]

    @property
    def n(self) -> int:
        return self.w0.shape[1]

    @property
    def cap(self) -> int:
        return self.m * self.n

    def group_key(self) -> tuple:
        """Layers with equal keys train from one `LayerGroup`.

        The warm-start state is not part of the key: the trainer sets every
        layer's budget at once.
        """
        return (self.m, self.n, self.pair.r, self.spec.kind, self.spec.pieces,
                self.sparsify_mode, self.recompute_merge)

    def delta_w(self) -> Tensor:
        """This layer's sparsified update, as a group of one."""
        return group_deltas(LayerGroup([self]))[0]

    def forward(self, x: Tensor, delta: Tensor) -> Tensor:
        """x (W0 + delta)ᵀ + bias, with delta this layer's update from `group_deltas`."""
        return affine(x, self.w0, delta, self.bias)

    def trainables(self) -> list:
        return adapter_leaves(self.spec, self.pair)


class LayerGroup:
    """Adapted layers sharing a `group_key`, trained from one leaf per parameter.

    A group of S >= 2 stacks its layers' adapters (`stack_adapters`): A
    (S, n, r), B (S, m, r), a per-piece coefficient (S, P) and each scalar
    one (S, 1, 1). Layer k's own pair and spec tensors become views of slice
    k of the blocks, in their own shapes; an optimizer steps the blocks in
    place, so the views stay current. A group of one keeps its layer's own
    tensors.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        adapters = [(layer.spec, layer.pair) for layer in self.layers]
        self.spec, self.pair = adapters[0] if len(adapters) == 1 else stack_adapters(adapters)

    def trainables(self) -> list:
        return adapter_leaves(self.spec, self.pair)


def group_merge(group: LayerGroup) -> Tensor:
    """One merge of a group's parameters: (S, m, n) for a block, (m, n) for a group
    of one; under `recompute_merge`, inside one `tensor.checkpoint`."""
    if not group.layers[0].recompute_merge:
        return merge(group.spec, group.pair)
    return checkpoint(lambda *leaves: merge(*adapter_on(group.spec, leaves)),
                      *group.trainables())


def group_deltas(group: LayerGroup) -> list:
    """The sparsified updates of a group's layers, in order.

    The group's `group_merge` is sparsified with one budget and threshold
    per slice; a group of one records the same nodes as a lone layer. The
    trainer sets every layer's budget at once, so a group's layers are
    either all past their warm start or none is; a mix is a ValueError.
    """
    layers = group.layers
    budgets = [None if layer.budget is None else min(int(layer.budget), layer.cap)
               for layer in layers]
    warm = [b is None for b in budgets]
    if any(warm) and not all(warm):
        raise ValueError(f"a group of {len(layers)} layers mixes warm-start and budgeted "
                         f"layers: budgets {budgets}")
    dw = group_merge(group)
    if not any(warm):
        dw = sparsify(dw, budgets if len(layers) > 1 else budgets[0], layers[0].sparsify_mode)
    return [take(dw, k) for k in range(len(layers))] if len(layers) > 1 else [dw]


class AttentionBlock:
    """Single-head self-attention whose four projections are adapted layers.

    Operates on flat feature vectors by viewing each as `tokens` rows of
    width d / tokens.
    """

    def __init__(self, wq: AdaptedLinear, wk: AdaptedLinear, wv: AdaptedLinear,
                 wo: AdaptedLinear, tokens: int):
        dh = wq.n
        for proj in (wq, wk, wv, wo):
            if proj.w0.shape != (dh, dh):
                raise ValueError("attention projections must be square and same-sized")
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.tokens = int(tokens)
        self.head_dim = dh

    def projections(self) -> list:
        return [self.wq, self.wk, self.wv, self.wo]

    def forward(self, x: Tensor, deltas) -> Tensor:
        """The block on x, with `deltas` the updates of wq, wk, wv and wo."""
        dq, dk, dv, do = deltas
        batch = x.data.shape[0]
        t, dh = self.tokens, self.head_dim
        if x.data.shape[1] != t * dh:
            raise ValueError(f"expected width {t * dh}, got {x.data.shape[1]}")
        flat = reshape(x, (batch * t, dh))
        q = reshape(self.wq.forward(flat, dq), (batch, t, dh))
        k = reshape(self.wk.forward(flat, dk), (batch, t, dh))
        v = reshape(self.wv.forward(flat, dv), (batch, t, dh))
        scores = scalar_mul(matmul(q, transpose(k)), 1.0 / math.sqrt(dh))
        attn = softmax(scores, axis=2)
        ctx = reshape(matmul(attn, v), (batch * t, dh))
        return reshape(self.wo.forward(ctx, do), (batch, t * dh))


class TinyModel:
    """Adapted linear layers interleaved with rectifier nonlinearities.

    Optionally inserts one single-head attention block (four adapted
    projections) after a hidden layer. The adapted layers are split once
    into `LayerGroup`s by `group_key`, in order of first appearance.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        members = {}
        for i, layer in enumerate(self.adapted_layers()):
            members.setdefault(layer.group_key(), []).append((i, layer))
        self.groups = [LayerGroup(layer for _, layer in group) for group in members.values()]
        self._indices = [[i for i, _ in group] for group in members.values()]

    def forward(self, x) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        deltas = iter(self.per_group(group_deltas))
        for kind, block in self.blocks:
            if kind == "linear":
                h = block.forward(h, next(deltas))
            elif kind == "attention":
                h = block.forward(h, [next(deltas) for _ in range(4)])
            else:
                h = rectify(h)
        return h

    def per_group(self, fn) -> list:
        """fn(group) per `LayerGroup`, one value per layer, spread back in `adapted_layers` order."""
        out = [None] * sum(map(len, self._indices))
        for group, indices in zip(self.groups, self._indices):
            for i, value in zip(indices, fn(group)):
                out[i] = value
        return out

    def adapted_layers(self) -> list:
        """Every adapted weight matrix, attention projections included."""
        out = []
        for kind, block in self.blocks:
            if kind == "linear":
                out.append(block)
            elif kind == "attention":
                out.extend(block.projections())
        return out

    def trainables(self) -> list:
        """The leaves an optimizer steps, group by group."""
        return [p for group in self.groups for p in group.trainables()]

    def base_checksums(self) -> list:
        import hashlib

        sums = []
        for layer in self.adapted_layers():
            digest = hashlib.blake2b(layer.w0.tobytes(), digest_size=16).hexdigest()
            bias_digest = (
                None if layer.bias is None
                else hashlib.blake2b(layer.bias.tobytes(), digest_size=16).hexdigest()
            )
            sums.append((digest, bias_digest))
        return sums


# -- training -----------------------------------------------------------------


@dataclass
class TrainerConfig:
    """Every trainer setting, declared once: its field holds the default and
    the type (its annotation, in the JSON sense of `choices.typed`, a name enum
    too), with any range rule as part of it; `__post_init__` holds each value
    to both (`choices.check`)."""

    lr: NonNegative = 1e-2
    adam_beta1: Decay = 0.9
    adam_beta2: Decay = 0.999
    adam_eps: Positive = 1e-8
    epochs: Natural = 10
    steps_per_epoch: Annotated[int | None, COUNT] = None
    batch_size: Count = 16
    seed: Natural = 0
    kernel_kind: KernelKind = KernelKind.MIX_K
    pieces: Count = 2
    rank: Count = 4
    factor_std: Positive = 0.02
    budget_ratio: Unit = 0.3
    schedule_kind: ScheduleKind = ScheduleKind.CUBIC
    alloc_period: AllocPeriod = AllocPeriod.PER_EPOCH
    sparsify_mode: SparsifyMode = SparsifyMode.SOFT_SIGN
    importance_metric: Metric = Metric.SENSITIVITY
    smoothing_beta1: Unit = 0.85
    smoothing_beta2: Unit = 0.85
    recompute_merge: bool = False

    def __post_init__(self):
        for name, hint in _HINTS.items():
            setattr(self, name, check(name, getattr(self, name), hint))

    def to_dict(self) -> dict:
        """Each field's value by name, an enum as its name: `TrainerConfig(**d)` rebuilds it."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.value if isinstance(v, Choice) else v for name, v in values.items()}


_HINTS = hints(TrainerConfig)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    global_budget: int
    budgets: list
    ratios: list
    scores: list
    grad_norms: list


@dataclass
class RunTrace:
    """One training run: `config` is its `TrainerConfig.to_dict()`."""

    seed: int
    config: dict
    layer_caps: list
    initial_loss: float
    final_loss: float
    epochs: list = field(default_factory=list)
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunTrace":
        """Rebuild a trace from `to_dict` output; a missing or unknown key is a TypeError."""
        trace = cls(**d)
        trace.epochs = [EpochRecord(**e) for e in trace.epochs]
        return trace


class Trainer:
    """Wires per-step importance updates to scheduled budget reallocation.

    Its state is flat: Adam's moment and gradient vectors, laid out group by
    group, and one importance arena aligned with them. Each step gathers the
    parameters into that layout before Adam steps them in place, so the
    sensitivity |g·w| reads the values the gradient was taken at. A layer's
    score and grad norm reduce its slices of its group's two factor blocks,
    each one contiguous; the kernel-coefficient slices are skipped.
    """

    def __init__(self, model: TinyModel, config: TrainerConfig, dataset):
        self.model = model
        self.config = config
        self.dataset = dataset
        self.layers = model.adapted_layers()
        self.params = model.trainables()
        self.opt = Adam(self.params, lr=config.lr, beta1=config.adam_beta1,
                        beta2=config.adam_beta2, eps=config.adam_eps)
        self.importance = ImportanceState(config.smoothing_beta1, config.smoothing_beta2)
        slice_of = {id(p): part for p, (part, _) in zip(self.params, self.opt.slots)}

        def factor_parts(group):
            count = len(group.layers)
            return zip(*(_split(slice_of[id(p)], count) for p in (group.pair.A, group.pair.B)))

        self.factor_parts = model.per_group(factor_parts)
        self.grad = None  # the flat gradient of the last step
        n = dataset.x.shape[0]
        self.steps_per_epoch = config.steps_per_epoch or max(1, n // config.batch_size)
        total_steps = max(1, config.epochs * self.steps_per_epoch)
        b0 = sum(layer.cap for layer in self.layers)
        bT = int(math.floor(config.budget_ratio * b0 + 0.5))
        self.schedule = BudgetSchedule(b0=b0, bT=bT, T=total_steps, kind=config.schedule_kind)
        self.global_step = 0
        self._loss_fn = mse_loss if dataset.loss == "mse" else cross_entropy_loss

    def evaluate(self) -> float:
        out = self.model.forward(Tensor(self.dataset.x))
        return float(self._loss_fn(out, self.dataset.y).data)

    def train_step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        self.opt.zero_grad()
        loss = self._loss_fn(self.model.forward(Tensor(xb)), yb)
        value = float(loss.data)
        if not math.isfinite(value):
            raise RuntimeError(
                f"non-finite loss at step {self.global_step}: {value} "
                f"(kernel={self.config.kernel_kind.value}, lr={self.config.lr})"
            )
        backward(loss)
        data = np.concatenate([p.data for p in self.params], axis=None)  # before the step
        self.grad = self.opt.step()
        self.importance.update(sensitivity(data, self.grad))
        self.global_step += 1
        return value

    def layer_scores(self) -> list:
        """Each layer's `layer_score` over the arrays its importance metric reads:
        its A and B slices of i_bar·u_bar (sensitivity, after a step), |A| and |B|
        (magnitude), or |merge| from one `group_merge` per group (w-magnitude)."""
        metric, state = self.config.importance_metric, self.importance
        if metric is Metric.SENSITIVITY:
            if not state.initialized:
                raise ValueError("sensitivity metric needs an updated importance state")
            product = state.i_bar * state.u_bar
            arrays = [(product[a], product[b]) for a, b in self.factor_parts]
        elif metric is Metric.MAGNITUDE:
            arrays = [(np.abs(layer.pair.A.data), np.abs(layer.pair.B.data))
                      for layer in self.layers]
        else:
            arrays = [(np.abs(merged),) for merged in self.model.per_group(
                lambda group: group_merge(group).data.reshape(
                    len(group.layers), group.layers[0].m, group.layers[0].n))]
        return [layer_score(parts) for parts in arrays]

    def grad_norms(self) -> list:
        """Per-layer norm of the last step's factor gradients."""
        gg = self.grad * self.grad
        return [math.sqrt(gg[a].sum() + gg[b].sum()) for a, b in self.factor_parts]

    def allocate(self) -> AllocationResult:
        if self.global_step == 0:
            raise ValueError("allocation needs at least one completed step")
        t = min(self.global_step, self.schedule.T)
        target = budget_at(self.schedule, t)
        scores = self.layer_scores()
        caps = [layer.cap for layer in self.layers]
        result = alloc(scores, caps, target)
        for layer, b in zip(self.layers, result.budgets):
            layer.budget = b
        return result

    def fine_tune(self) -> RunTrace:
        start = time.perf_counter()
        cfg = self.config
        trace = RunTrace(
            seed=cfg.seed,
            config=cfg.to_dict(),
            layer_caps=[layer.cap for layer in self.layers],
            initial_loss=self.evaluate(),
            final_loss=math.nan,
        )
        n = self.dataset.x.shape[0]
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            perm = rng.permutation(n)
            losses = []
            norms = np.zeros(len(self.layers))
            for step in range(self.steps_per_epoch):
                lo, hi = step * cfg.batch_size, (step + 1) * cfg.batch_size
                idx = perm[lo:hi] if hi <= n else np.take(perm, np.arange(lo, hi), mode="wrap")
                losses.append(self.train_step(self.dataset.x[idx], self.dataset.y[idx]))
                norms += self.grad_norms()
                if cfg.alloc_period is AllocPeriod.PER_STEP:
                    result = self.allocate()
            if cfg.alloc_period is AllocPeriod.PER_EPOCH:
                result = self.allocate()
            caps = [layer.cap for layer in self.layers]
            trace.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)),
                    global_budget=result.global_budget,
                    budgets=list(result.budgets),
                    ratios=[1.0 - b / c for b, c in zip(result.budgets, caps)],
                    scores=result.scores,
                    grad_norms=(norms / self.steps_per_epoch).tolist(),
                )
            )
        trace.final_loss = self.evaluate()
        trace.duration_s = time.perf_counter() - start
        return trace


def _split(part: slice, count: int) -> list:
    """`part` cut into `count` equal consecutive slices."""
    size = (part.stop - part.start) // count
    return [slice(part.start + k * size, part.start + (k + 1) * size) for k in range(count)]


def build_model(dataset, config: TrainerConfig) -> TinyModel:
    """Adapters around the dataset's frozen base weights, a list of (w0, bias-or-None).

    `dataset.attention`, when set, is a dict {"position": i, "tokens": t,
    "weights": [(w0, bias) x4]} inserted after hidden layer i.
    """
    base_weights, attention = dataset.base_weights, dataset.attention
    seeds = np.random.SeedSequence(config.seed).spawn(len(base_weights) + 4)

    def adapted(w0, bias, seq):
        m, n = np.asarray(w0).shape
        r = min(config.rank, m, n)
        pair = LowRankPair.random(m, n, r, np.random.default_rng(seq), std=config.factor_std)
        spec = KernelSpec.zero_init(config.kernel_kind, pieces=min(config.pieces, r))
        return AdaptedLinear(w0, bias, pair, spec, sparsify_mode=config.sparsify_mode,
                             recompute_merge=config.recompute_merge)

    blocks = []
    n_layers = len(base_weights)
    for i, (w0, bias) in enumerate(base_weights):
        blocks.append(("linear", adapted(w0, bias, seeds[i])))
        if attention is not None and attention.get("position") == i:
            projs = [adapted(w0a, biasa, seeds[n_layers + j])
                     for j, (w0a, biasa) in enumerate(attention["weights"])]
            blocks.append(("attention", AttentionBlock(*projs, tokens=attention["tokens"])))
        if i < n_layers - 1:
            blocks.append(("relu", None))
    return TinyModel(blocks)


def fine_tune(config: TrainerConfig, dataset) -> RunTrace:
    """Train adapters on a dataset; deterministic for a fixed seed."""
    model = build_model(dataset, config)
    return Trainer(model, config, dataset).fine_tune()
