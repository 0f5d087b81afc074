"""Bi-level sparsity machinery.

Layer level: smoothed sensitivity statistics turn into per-layer scores, a
decaying global budget is split across layers by iterative proportional
allocation with caps, and leftover units are handed out in rounds of one
unit per layer.
Weight level: within a layer, a dynamic magnitude threshold keeps exactly
the budgeted number of update entries alive (given distinct magnitudes)
and zeroes the rest with a soft-threshold function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .choices import Choice, Unit, check
from .tensor import Tensor, absolute, mul, rectify, scalar_add, soft_threshold


class ScheduleKind(Choice, what="schedule"):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC = "cubic"


_SCHEDULE_EXPONENT = {
    ScheduleKind.LINEAR: 1,
    ScheduleKind.QUADRATIC: 2,
    ScheduleKind.CUBIC: 3,
}


class SparsifyMode(Choice, what="sparsify mode"):
    SOFT_SIGN = "soft"
    LITERAL_PRODUCT = "literal"
    HARD_MASK = "hard"


class Metric(Choice, what="importance metric"):
    SENSITIVITY = "sensitivity"
    MAGNITUDE = "magnitude"
    W_MAGNITUDE = "w-magnitude"

    @classmethod
    def spellings(cls) -> dict:
        return {"wmagnitude": cls.W_MAGNITUDE, "w_magnitude": cls.W_MAGNITUDE}


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def sensitivity(param, grad) -> np.ndarray:
    """Elementwise |grad * param|."""
    p = _as_array(param)
    g = _as_array(grad)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
    return np.abs(g * p)


class ImportanceState:
    """Smoothed per-entry sensitivity and its deviation over one flat arena.

    The trainer keeps one state over the flat parameter vector of its
    optimizer; a layer's score reads the slices of its factors. The first
    update seeds the smoothed sensitivity with the raw value and the
    deviation with zero; later updates apply exponential moving averages
    with constants beta1 (sensitivity) and beta2 (deviation).
    """

    def __init__(self, beta1: Unit = 0.85, beta2: Unit = 0.85):
        self.beta1 = check("beta1", beta1, Unit)
        self.beta2 = check("beta2", beta2, Unit)
        self.t = -1
        self.i_bar = None
        self.u_bar = None

    @property
    def initialized(self) -> bool:
        return self.t >= 0

    def update(self, raw) -> None:
        raw = np.asarray(raw, dtype=np.float64)
        if not self.initialized:
            self.i_bar = raw.copy()
            self.u_bar = np.zeros_like(raw)
            self.t = 0
            return
        if raw.shape != self.i_bar.shape:
            raise ValueError("sensitivity shape changed between updates")
        # in place, in the order of b1 * i_bar + (1 - b1) * raw and
        # b2 * u_bar + (1 - b2) * |i_bar - raw|
        b1, b2 = self.beta1, self.beta2
        i_bar, u_bar = self.i_bar, self.u_bar
        i_bar *= b1
        i_bar += (1.0 - b1) * raw
        dev = i_bar - raw
        np.abs(dev, out=dev)
        dev *= 1.0 - b2
        u_bar *= b2
        u_bar += dev
        self.t += 1


def layer_score(parts) -> float:
    """A layer's importance score: the sum, over its nonnegative arrays, of their means.

    `Trainer.layer_scores` picks the arrays each metric reads.
    """
    # sum / size is how numpy forms a float mean
    return float(sum(x.sum() / x.size for x in parts))


@dataclass
class BudgetSchedule:
    """Global tunable-weight budget decayed from b0 to bT over T steps."""

    b0: int
    bT: int
    T: int
    kind: ScheduleKind = ScheduleKind.CUBIC

    def __post_init__(self):
        self.kind = ScheduleKind(self.kind)
        if not 0 <= self.bT <= self.b0:
            raise ValueError(f"need 0 <= bT <= b0, got bT={self.bT}, b0={self.b0}")
        if self.T < 1:
            raise ValueError(f"need T >= 1, got {self.T}")


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def budget_at(schedule: BudgetSchedule, t: int) -> int:
    if not 0 <= t <= schedule.T:
        raise ValueError(f"step {t} outside [0, {schedule.T}]")
    if schedule.kind is ScheduleKind.CONSTANT:
        return schedule.bT
    k = _SCHEDULE_EXPONENT[schedule.kind]
    frac = 1.0 - t / schedule.T
    return _round_half_away(schedule.bT + frac**k * (schedule.b0 - schedule.bT))


@dataclass
class AllocationResult:
    """Per-layer integer budgets, the global budget and the scores it was split by."""

    budgets: list
    global_budget: int
    scores: list


def alloc(scores, caps, budget: int) -> AllocationResult:
    """Split a global budget across layers in proportion to their scores.

    Iterative proportional allocation with caps: each pass hands every
    unsaturated layer the floor of its normalized share of the remaining
    budget, saturated layers drop out, and the pass repeats. If a pass
    makes no progress while budget remains, the remainder goes out one
    unit at a time in descending score order (ties break toward the lower
    layer index). A budget above the total capacity is clamped with a
    warning.
    """
    scores = [float(s) for s in scores]
    caps = [int(c) for c in caps]
    if len(scores) != len(caps):
        raise ValueError(f"{len(scores)} scores but {len(caps)} caps")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if any(s < 0 for s in scores):
        raise ValueError("scores must be nonnegative")
    if any(c < 0 for c in caps):
        raise ValueError("caps must be nonnegative")
    total_cap = sum(caps)
    if budget > total_cap:
        warnings.warn(
            f"budget {budget} exceeds total capacity {total_cap}; clamping", stacklevel=2
        )
        budget = total_cap

    n = len(caps)
    budgets = [0] * n
    p = [scores[l] if caps[l] > 0 else 0.0 for l in range(n)]
    remaining = budget
    while remaining > 0:
        p_sum = sum(p)
        progress = False
        if p_sum > 0.0:
            pass_budget = remaining
            for l in range(n):
                if p[l] <= 0.0:
                    continue
                inc = min(math.floor(p[l] / p_sum * pass_budget), caps[l] - budgets[l])
                if inc > 0:
                    budgets[l] += inc
                    progress = True
                if budgets[l] == caps[l]:
                    p[l] = 0.0
            remaining = budget - sum(budgets)
        if remaining > 0 and (p_sum <= 0.0 or not progress):
            _hand_out(budgets, caps, scores, remaining)
            break
    return AllocationResult(budgets=budgets, global_budget=budget, scores=scores)


def _hand_out(budgets: list, caps: list, scores: list, remaining: int) -> None:
    """Give `remaining` units one at a time in rounds over the unsaturated layers.

    A round visits the layers in descending score order (ties toward the
    lower index) and gives each one unit; saturated layers drop out between
    rounds. Whole rounds are given out in closed form: as many as the
    emptiest layer's room and the remainder both allow. The last, partial
    round gives one unit to each of the first `remaining` layers. `remaining`
    never exceeds the total room left.
    """
    order = sorted((l for l in range(len(caps)) if budgets[l] < caps[l]),
                   key=lambda l: (-scores[l], l))
    while remaining >= len(order) > 0:
        rounds = min(min(caps[l] - budgets[l] for l in order), remaining // len(order))
        for l in order:
            budgets[l] += rounds
        remaining -= rounds * len(order)
        order = [l for l in order if budgets[l] < caps[l]]
    for l in order[:remaining]:
        budgets[l] += 1


def threshold_for_budget(delta_w, b: int) -> float:
    """Magnitude threshold below which update entries are zeroed.

    Returns the (b+1)-th largest |entry| so that entries strictly above
    the threshold survive: 0 when everything survives, +inf when nothing
    does.
    """
    a = np.abs(_as_array(delta_w)).ravel()
    n = a.size
    if not 0 <= b <= n:
        raise ValueError(f"budget {b} outside [0, {n}]")
    if b == 0:
        return math.inf
    if b == n:
        return 0.0
    idx = n - 1 - b
    return float(np.partition(a, idx)[idx])


def sparsify_with_threshold(delta_w: Tensor, tau, mode=SparsifyMode.SOFT_SIGN) -> Tensor:
    """Apply a fixed magnitude threshold; tau never carries gradient.

    tau is a float, or an (S, 1, 1) array of per-slice thresholds for a
    stack of S matrices.
    """
    mode = SparsifyMode(mode)
    if mode is SparsifyMode.HARD_MASK:
        mask = Tensor((np.abs(delta_w.data) > tau).astype(np.float64))
        return mul(delta_w, mask)
    if mode is SparsifyMode.SOFT_SIGN:
        return soft_threshold(delta_w, tau)
    return mul(delta_w, rectify(scalar_add(absolute(delta_w), -tau)))


def sparsify(delta_w: Tensor, b, mode=SparsifyMode.SOFT_SIGN) -> Tensor:
    """Keep the b largest-magnitude update entries; zero the rest.

    The threshold is an order statistic of the current values and is
    treated as a constant, so gradients flow to surviving entries only.
    With distinct magnitudes exactly min(b, size) entries stay nonzero.
    For a stack of S matrices, `b` is a sequence of S budgets: each slice
    gets its own threshold, applied as one (S, 1, 1) array.
    """
    if np.ndim(b) == 0:
        return sparsify_with_threshold(delta_w, threshold_for_budget(delta_w.data, b), mode)
    if delta_w.data.ndim != 3 or len(b) != delta_w.data.shape[0]:
        raise ValueError(f"need one budget per slice of an (S, m, n) stack, got {len(b)} "
                         f"budgets for shape {delta_w.data.shape}")
    tau = np.array([threshold_for_budget(d, bk) for d, bk in zip(delta_w.data, b)])
    return sparsify_with_threshold(delta_w, tau.reshape(-1, 1, 1), mode)
