"""Bi-level sparsity machinery.

Layer level: smoothed sensitivity statistics turn into per-layer scores, a
decaying global budget is split across layers by iterative proportional
allocation with caps, and leftover units are handed out one at a time.
Weight level: within a layer, a dynamic magnitude threshold keeps exactly
the budgeted number of update entries alive (given distinct magnitudes)
and zeroes the rest with a soft-threshold function.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .choices import parse_choice
from .tensor import Tensor, absolute, mul, rectify, scalar_add, sign


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC = "cubic"


_SCHEDULE_EXPONENT = {
    ScheduleKind.LINEAR: 1,
    ScheduleKind.QUADRATIC: 2,
    ScheduleKind.CUBIC: 3,
}


def parse_schedule_kind(name) -> ScheduleKind:
    return parse_choice(ScheduleKind, name, "schedule")


class SparsifyMode(enum.Enum):
    SOFT_SIGN = "soft"
    LITERAL_PRODUCT = "literal"
    HARD_MASK = "hard"


def parse_sparsify_mode(name) -> SparsifyMode:
    return parse_choice(SparsifyMode, name, "sparsify mode")


class Metric(enum.Enum):
    SENSITIVITY = "sensitivity"
    MAGNITUDE = "magnitude"
    W_MAGNITUDE = "w-magnitude"


def parse_metric(name) -> Metric:
    aliases = {"wmagnitude": Metric.W_MAGNITUDE, "w_magnitude": Metric.W_MAGNITUDE}
    return parse_choice(Metric, name, "importance metric", aliases)


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
    """Smoothed per-entry sensitivity and its deviation for one layer.

    The first update seeds the smoothed sensitivity with the raw value and
    the deviation with zero; later updates apply exponential moving
    averages with constants beta1 (sensitivity) and beta2 (deviation).
    """

    def __init__(self, beta1: float = 0.85, beta2: float = 0.85):
        if not (0.0 <= beta1 <= 1.0 and 0.0 <= beta2 <= 1.0):
            raise ValueError("smoothing constants must lie in [0, 1]")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.t = -1
        self.i_bar_a = None
        self.u_bar_a = None
        self.i_bar_b = None
        self.u_bar_b = None

    @property
    def initialized(self) -> bool:
        return self.t >= 0

    def update(self, raw_a, raw_b) -> None:
        raw_a = np.asarray(raw_a, dtype=np.float64)
        raw_b = np.asarray(raw_b, dtype=np.float64)
        if not self.initialized:
            self.i_bar_a = raw_a.copy()
            self.u_bar_a = np.zeros_like(raw_a)
            self.i_bar_b = raw_b.copy()
            self.u_bar_b = np.zeros_like(raw_b)
            self.t = 0
            return
        if raw_a.shape != self.i_bar_a.shape or raw_b.shape != self.i_bar_b.shape:
            raise ValueError("sensitivity shape changed between updates")
        b1, b2 = self.beta1, self.beta2
        self.i_bar_a = b1 * self.i_bar_a + (1.0 - b1) * raw_a
        self.u_bar_a = b2 * self.u_bar_a + (1.0 - b2) * np.abs(self.i_bar_a - raw_a)
        self.i_bar_b = b1 * self.i_bar_b + (1.0 - b1) * raw_b
        self.u_bar_b = b2 * self.u_bar_b + (1.0 - b2) * np.abs(self.i_bar_b - raw_b)
        self.t += 1


def layer_score(state: ImportanceState | None, metric, pair=None, merged=None) -> float:
    """Per-layer importance score under the chosen metric (always >= 0)."""
    metric = parse_metric(metric)
    if metric is Metric.SENSITIVITY:
        if state is None or not state.initialized:
            raise ValueError("sensitivity metric needs an updated importance state")
        return float(
            (state.i_bar_a * state.u_bar_a).mean() + (state.i_bar_b * state.u_bar_b).mean()
        )
    if metric is Metric.MAGNITUDE:
        if pair is None:
            raise ValueError("magnitude metric needs the factor pair")
        a, b = pair if isinstance(pair, tuple) else (pair.A, pair.B)
        return float(np.abs(_as_array(a)).mean() + np.abs(_as_array(b)).mean())
    if merged is None:
        raise ValueError("w-magnitude metric needs the merged matrix")
    return float(np.abs(_as_array(merged)).mean())


@dataclass
class BudgetSchedule:
    """Global tunable-weight budget decayed from b0 to bT over T steps."""

    b0: int
    bT: int
    T: int
    kind: ScheduleKind = ScheduleKind.CUBIC

    def __post_init__(self):
        self.kind = parse_schedule_kind(self.kind)
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
    """Per-layer integer budgets plus the global budget they were drawn from."""

    budgets: list
    global_budget: int


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
            order = sorted(
                (l for l in range(n) if budgets[l] < caps[l]),
                key=lambda l: (-scores[l], l),
            )
            while remaining > 0 and order:
                for l in order:
                    if remaining == 0:
                        break
                    if budgets[l] < caps[l]:
                        budgets[l] += 1
                        remaining -= 1
                order = [l for l in order if budgets[l] < caps[l]]
            break
    return AllocationResult(budgets=budgets, global_budget=budget)


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


def sparsify_with_threshold(delta_w: Tensor, tau: float, mode=SparsifyMode.SOFT_SIGN) -> Tensor:
    """Apply a fixed magnitude threshold; tau never carries gradient."""
    mode = parse_sparsify_mode(mode)
    if mode is SparsifyMode.HARD_MASK:
        mask = Tensor((np.abs(delta_w.data) > tau).astype(np.float64))
        return mul(delta_w, mask)
    head = rectify(scalar_add(absolute(delta_w), -tau))
    if mode is SparsifyMode.SOFT_SIGN:
        return mul(sign(delta_w), head)
    return mul(delta_w, head)


def sparsify(delta_w: Tensor, b: int, mode=SparsifyMode.SOFT_SIGN) -> Tensor:
    """Keep the b largest-magnitude update entries; zero the rest.

    The threshold is an order statistic of the current values and is
    treated as a constant, so gradients flow to surviving entries only.
    With distinct magnitudes exactly min(b, size) entries stay nonzero.
    """
    tau = threshold_for_budget(delta_w.data, b)
    return sparsify_with_threshold(delta_w, tau, mode)
