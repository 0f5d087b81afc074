"""Adapted linear layers, a tiny trainable network, and the training loop.

An adapted layer keeps its base weight frozen and adds a budget-sparsified
kernel merge of its low-rank factors; only the factors and kernel
coefficients train. The trainer refreshes per-layer sensitivity statistics
every step and re-divides the decaying global budget across layers at each
allocation event (per epoch by default).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

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
    parse_metric,
    parse_schedule_kind,
    parse_sparsify_mode,
    sensitivity,
    sparsify,
)
from .choices import parse_choice
from .kernels import KernelKind, KernelSpec, LowRankPair, merge, parse_kernel_kind
from .tensor import (
    Tensor,
    add,
    backward,
    checkpoint,
    exp,
    log,
    matmul,
    mul,
    rectify,
    reduce_mean,
    reduce_sum,
    reshape,
    scalar_mul,
    softmax,
    square,
    sub,
    transpose,
)


class AllocPeriod(enum.Enum):
    PER_EPOCH = "per-epoch"
    PER_STEP = "per-step"


def parse_alloc_period(name) -> AllocPeriod:
    return parse_choice(AllocPeriod, name, "allocation period")


# -- losses -------------------------------------------------------------------


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    return reduce_mean(square(sub(pred, Tensor(target))))


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
    """Adaptive-moment optimizer over a fixed parameter list."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        # `[()]` turns the moments of a 0-d parameter into numpy scalars, on
        # which arithmetic is several times faster than on 0-d arrays
        self._m = [np.zeros_like(p.data)[()] for p in self.params]
        self._v = [np.zeros_like(p.data)[()] for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            # in place for arrays; a numpy scalar is rebound, hence the stores
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            self._m[i], self._v[i] = m, v
            m_hat = m / bc1
            v_hat = v / bc2
            # a fresh array: the caller may still hold the old one
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
        self.sparsify_mode = parse_sparsify_mode(sparsify_mode)
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

    def merged(self) -> Tensor:
        if not self.recompute_merge:
            return merge(self.spec, self.pair)
        tensors = [self.pair.A, self.pair.B, *self.spec.coefficients()]

        def rebuild(a, b, *coeffs):
            return merge(self.spec.with_coefficients(coeffs), LowRankPair(A=a, B=b))

        return checkpoint(rebuild, *tensors)

    def delta_w(self) -> Tensor:
        dw = self.merged()
        if self.budget is None:
            return dw
        return sparsify(dw, min(int(self.budget), self.cap), self.sparsify_mode)

    def forward(self, x: Tensor) -> Tensor:
        w_eff = add(Tensor(self.w0), self.delta_w())
        y = matmul(x, transpose(w_eff))
        if self.bias is not None:
            y = add(y, Tensor(self.bias))
        return y

    def trainables(self) -> list:
        return [self.pair.A, self.pair.B, *self.spec.coefficients()]

    def nonzero_updates(self) -> int:
        return int(np.count_nonzero(self.delta_w().data))


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

    def forward(self, x: Tensor) -> Tensor:
        batch = x.data.shape[0]
        t, dh = self.tokens, self.head_dim
        if x.data.shape[1] != t * dh:
            raise ValueError(f"expected width {t * dh}, got {x.data.shape[1]}")
        flat = reshape(x, (batch * t, dh))
        q = reshape(self.wq.forward(flat), (batch, t, dh))
        k = reshape(self.wk.forward(flat), (batch, t, dh))
        v = reshape(self.wv.forward(flat), (batch, t, dh))
        scores = scalar_mul(matmul(q, transpose(k)), 1.0 / math.sqrt(dh))
        attn = softmax(scores, axis=2)
        ctx = reshape(matmul(attn, v), (batch * t, dh))
        return reshape(self.wo.forward(ctx), (batch, t * dh))


class TinyModel:
    """Adapted linear layers interleaved with rectifier nonlinearities.

    Optionally inserts one single-head attention block (four adapted
    projections) after a hidden layer.
    """

    def __init__(self, blocks):
        self.blocks = blocks

    @classmethod
    def build(cls, base_weights, kernel_kind=KernelKind.MIX_K, pieces: int = 2,
              rank: int = 4, seed: int = 0, factor_std: float = 0.02,
              sparsify_mode=SparsifyMode.SOFT_SIGN, recompute_merge: bool = False,
              attention=None):
        """Assemble a model around frozen base weights.

        `base_weights` is a list of (w0, bias-or-None); `attention`, when
        given, is a dict {"position": i, "tokens": t, "weights": [(w0, bias)
        x4]} inserted after hidden layer i.
        """
        kind = parse_kernel_kind(kernel_kind)
        mode = parse_sparsify_mode(sparsify_mode)
        seeds = np.random.SeedSequence(seed).spawn(len(base_weights) + 4)

        def adapted(w0, bias, seq):
            m, n = np.asarray(w0).shape
            r = min(rank, m, n)
            pair = LowRankPair.random(m, n, r, np.random.default_rng(seq), std=factor_std)
            spec = KernelSpec.zero_init(kind, pieces=min(pieces, r))
            return AdaptedLinear(w0, bias, pair, spec, sparsify_mode=mode,
                                 recompute_merge=recompute_merge)

        blocks = []
        n_layers = len(base_weights)
        for i, (w0, bias) in enumerate(base_weights):
            blocks.append(("linear", adapted(w0, bias, seeds[i])))
            if attention is not None and attention.get("position") == i:
                projs = [
                    adapted(w0a, biasa, seeds[n_layers + j])
                    for j, (w0a, biasa) in enumerate(attention["weights"])
                ]
                blocks.append(("attention", AttentionBlock(*projs, tokens=attention["tokens"])))
            if i < n_layers - 1:
                blocks.append(("relu", None))
        return cls(blocks)

    def forward(self, x) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        for kind, block in self.blocks:
            if kind == "linear":
                h = block.forward(h)
            elif kind == "attention":
                h = block.forward(h)
            else:
                h = rectify(h)
        return h

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
        params = []
        for layer in self.adapted_layers():
            params.extend(layer.trainables())
        return params

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
    lr: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 5
    steps_per_epoch: int | None = None
    batch_size: int = 16
    seed: int = 0
    kernel_kind: KernelKind = KernelKind.MIX_K
    pieces: int = 2
    rank: int = 4
    factor_std: float = 0.02
    budget_ratio: float = 0.3
    schedule_kind: ScheduleKind = ScheduleKind.CUBIC
    alloc_period: AllocPeriod = AllocPeriod.PER_EPOCH
    sparsify_mode: SparsifyMode = SparsifyMode.SOFT_SIGN
    importance_metric: Metric = Metric.SENSITIVITY
    smoothing_beta1: float = 0.85
    smoothing_beta2: float = 0.85
    recompute_merge: bool = False

    def __post_init__(self):
        self.kernel_kind = parse_kernel_kind(self.kernel_kind)
        self.schedule_kind = parse_schedule_kind(self.schedule_kind)
        self.alloc_period = parse_alloc_period(self.alloc_period)
        self.sparsify_mode = parse_sparsify_mode(self.sparsify_mode)
        self.importance_metric = parse_metric(self.importance_metric)
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.budget_ratio <= 1.0:
            raise ValueError("budget_ratio must lie in [0, 1]")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    global_budget: int
    budgets: list
    ratios: list
    scores: list
    grad_norms: list

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "mean_loss": self.mean_loss,
            "global_budget": self.global_budget,
            "budgets": list(self.budgets),
            "ratios": list(self.ratios),
            "scores": list(self.scores),
            "grad_norms": list(self.grad_norms),
        }


@dataclass
class RunTrace:
    seed: int
    config: dict
    layer_caps: list
    initial_loss: float
    final_loss: float
    epochs: list = field(default_factory=list)
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "layer_caps": list(self.layer_caps),
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "epochs": [e.to_dict() for e in self.epochs],
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunTrace":
        trace = cls(
            seed=d["seed"],
            config=d["config"],
            layer_caps=list(d["layer_caps"]),
            initial_loss=d["initial_loss"],
            final_loss=d["final_loss"],
            duration_s=d.get("duration_s", 0.0),
        )
        trace.epochs = [
            EpochRecord(
                epoch=e["epoch"],
                mean_loss=e["mean_loss"],
                global_budget=e["global_budget"],
                budgets=list(e["budgets"]),
                ratios=list(e["ratios"]),
                scores=list(e["scores"]),
                grad_norms=list(e["grad_norms"]),
            )
            for e in d["epochs"]
        ]
        return trace


class Trainer:
    """Wires per-step importance updates to scheduled budget reallocation."""

    def __init__(self, model: TinyModel, config: TrainerConfig, dataset):
        self.model = model
        self.config = config
        self.dataset = dataset
        self.layers = model.adapted_layers()
        self.params = model.trainables()
        self.opt = Adam(self.params, lr=config.lr, beta1=config.adam_beta1,
                        beta2=config.adam_beta2, eps=config.adam_eps)
        self.states = [
            ImportanceState(config.smoothing_beta1, config.smoothing_beta2)
            for _ in self.layers
        ]
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
        for layer, state in zip(self.layers, self.states):
            a, b = layer.pair.A, layer.pair.B
            ga = a.grad if a.grad is not None else np.zeros_like(a.data)
            gb = b.grad if b.grad is not None else np.zeros_like(b.data)
            state.update(sensitivity(a.data, ga), sensitivity(b.data, gb))
        self.opt.step()
        self.global_step += 1
        return value

    def layer_scores(self) -> list:
        metric = self.config.importance_metric
        scores = []
        for layer, state in zip(self.layers, self.states):
            merged = layer.merged().data if metric is Metric.W_MAGNITUDE else None
            scores.append(layer_score(state, metric, pair=layer.pair, merged=merged))
        return scores

    def allocate(self) -> AllocationResult:
        t = min(self.global_step, self.schedule.T)
        target = budget_at(self.schedule, t)
        scores = self.layer_scores()
        caps = [layer.cap for layer in self.layers]
        result = alloc(scores, caps, target)
        for layer, b in zip(self.layers, result.budgets):
            layer.budget = b
        return result

    def epoch_boundary(self) -> AllocationResult:
        if self.global_step == 0:
            raise ValueError("allocation needs at least one completed step")
        return self.allocate()

    def fine_tune(self) -> RunTrace:
        start = time.perf_counter()
        cfg = self.config
        trace = RunTrace(
            seed=cfg.seed,
            config=_config_echo(cfg),
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
                lo = step * cfg.batch_size
                idx = np.take(perm, np.arange(lo, lo + cfg.batch_size), mode="wrap")
                losses.append(self.train_step(self.dataset.x[idx], self.dataset.y[idx]))
                for i, layer in enumerate(self.layers):
                    ga = layer.pair.A.grad
                    gb = layer.pair.B.grad
                    sq = 0.0
                    if ga is not None:
                        sq += float((ga * ga).sum())
                    if gb is not None:
                        sq += float((gb * gb).sum())
                    norms[i] += math.sqrt(sq)
                if cfg.alloc_period is AllocPeriod.PER_STEP:
                    result = self.allocate()
            if cfg.alloc_period is AllocPeriod.PER_EPOCH:
                result = self.epoch_boundary()
            caps = [layer.cap for layer in self.layers]
            trace.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)),
                    global_budget=result.global_budget,
                    budgets=list(result.budgets),
                    ratios=[1.0 - b / c for b, c in zip(result.budgets, caps)],
                    scores=self.layer_scores(),
                    grad_norms=(norms / self.steps_per_epoch).tolist(),
                )
            )
        trace.final_loss = self.evaluate()
        trace.duration_s = time.perf_counter() - start
        return trace


def _config_echo(cfg: TrainerConfig) -> dict:
    return {
        "lr": cfg.lr,
        "adam": [cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps],
        "epochs": cfg.epochs,
        "steps_per_epoch": cfg.steps_per_epoch,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "kernel": cfg.kernel_kind.value,
        "pieces": cfg.pieces,
        "rank": cfg.rank,
        "factor_std": cfg.factor_std,
        "budget_ratio": cfg.budget_ratio,
        "schedule": cfg.schedule_kind.value,
        "alloc_period": cfg.alloc_period.value,
        "sparsify_mode": cfg.sparsify_mode.value,
        "importance_metric": cfg.importance_metric.value,
        "smoothing": [cfg.smoothing_beta1, cfg.smoothing_beta2],
        "recompute_merge": cfg.recompute_merge,
    }


def build_model(dataset, config: TrainerConfig) -> TinyModel:
    return TinyModel.build(
        dataset.base_weights,
        kernel_kind=config.kernel_kind,
        pieces=config.pieces,
        rank=config.rank,
        seed=config.seed,
        factor_std=config.factor_std,
        sparsify_mode=config.sparsify_mode,
        recompute_merge=config.recompute_merge,
        attention=dataset.attention,
    )


def fine_tune(config: TrainerConfig, dataset) -> RunTrace:
    """Train adapters on a dataset; deterministic for a fixed seed."""
    model = build_model(dataset, config)
    return Trainer(model, config, dataset).fine_tune()
