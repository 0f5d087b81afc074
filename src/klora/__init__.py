"""Kernel-merged low-rank weight adapters with budgeted bi-level sparsity."""

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
    threshold_for_budget,
)
from .kernels import (
    KernelKind,
    KernelSpec,
    LowRankPair,
    merge,
    numerical_rank,
    psd_check,
    segment_bounds,
)
from .model import (
    AdaptedLinear,
    Adam,
    RunTrace,
    TinyModel,
    Trainer,
    TrainerConfig,
    fine_tune,
)
from .datasets import SynthDataset, synth_dataset
from .tensor import (
    GradientReport,
    Tensor,
    backward,
    finite_diff_check,
    record_and_backward,
)

__version__ = "0.1.0"
