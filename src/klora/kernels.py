"""Kernel functions and the kernelized merge of low-rank factor pairs.

A factor pair (A: n x r, B: m x r) is merged into an m x n update matrix by
evaluating a kernel between factor rows: entry (i, j) compares B's row i
with A's row j. The plain inner product reproduces the usual low-rank
product (rank <= r); nonlinear kernels break that cap. The mixed kind adds
a column-normalized exponential of the piecewise-linear kernel plus a
learnable offset, keeping gradients alive at large factor scales where a
bare RBF flatlines.

Every per-kind fact lives in the kind's row of `KINDS`; a new kind is one row.

Coefficient conventions
-----------------------
zero_init: every learnable coefficient starts at 0 except the RBF and
sigmoid bandwidths, which start at 1 and must stay positive. A kind with
coefficients then merges to the zero matrix, so an adapted layer starts as
its base layer. `linear` has none: its merge starts at B A^T, with both
factors Gaussian in the trainer; only the fits start B at zero.
canonical:  every learnable coefficient is 1 except additive offsets
(gamma terms and the mixed kind's offset), which are 0. This is the
positive-semidefinite configuration used by analysis utilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .choices import Choice, Count, OpenUnit, check
from .tensor import (
    Tensor,
    add,
    exp,
    matmul,
    mixed_segment_distances,
    mul,
    reciprocal,
    record_and_backward,
    reduce_sum,
    scalar_add,
    squared_distances,
    transpose,
    weighted_segment_distances,
)


class KernelKind(Choice, what="kernel"):
    LINEAR = "linear"
    P_LINEAR = "p-linear"
    SIGMOID = "sigmoid"
    RBF = "rbf"
    MIX_K = "mix-k"

    @classmethod
    def spellings(cls) -> dict:
        return {alias: row.kind for row in KINDS.values() for alias in row.aliases}


def segment_bounds(r: int, pieces: int):
    """Split [0, r) into `pieces` contiguous near-equal half-open ranges; `pieces`
    is a checked piece count (`KernelSpec` holds it to `Count`)."""
    if not 1 <= pieces <= r:
        raise ValueError(f"piece count {pieces} outside [1, rank {r}]")
    return [(r * (p - 1) // pieces, r * p // pieces) for p in range(1, pieces + 1)]


# -- merge functions: (spec, B: m x r, A: n x r) -> m x n, per stacked slice ----


def _linear(spec, b, a):
    return matmul(b, transpose(a))


def _sigmoid(spec, b, a):
    alpha, beta, gamma = spec.coeffs
    s = matmul(b, transpose(a))
    logistic = reciprocal(scalar_add(exp(mul(beta, -s)), 1.0))
    return add(mul(alpha, logistic), gamma)


def _rbf(spec, b, a):
    alpha, beta, gamma = spec.coeffs
    return add(mul(alpha, exp(mul(beta, -squared_distances(b, a)))), gamma)


def _p_linear(spec, b, a):
    bounds = segment_bounds(b.data.shape[-1], spec.pieces)
    return weighted_segment_distances(b, a, spec.coeffs[0], bounds)


def _mix_k(spec, b, a):
    alpha_p, alpha, beta = spec.coeffs
    return mixed_segment_distances(b, a, alpha_p, alpha, beta,
                                   segment_bounds(b.data.shape[-1], spec.pieces))


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Coefficient:
    """One learnable coefficient: a scalar, or a vector with one entry per piece."""

    name: str
    zero: float
    canonical: float
    per_piece: bool = False
    positive: bool = False


@dataclass(frozen=True)
class KindRow:
    """Every per-kind fact.

    `kind_id` is the stable id in checkpoint format v1 (id 4 is retired);
    `aliases` are the accepted spellings besides the kind's value.
    `coefficients` lists the per-piece vector first, then the scalars, in
    checkpoint order.
    `merge(spec, B, A)` builds the m x n matrix of kernel values.
    """

    kind: KernelKind
    kind_id: int
    aliases: tuple
    coefficients: tuple
    merge: Callable

    @property
    def piecewise(self) -> bool:
        return bool(self.coefficients) and self.coefficients[0].per_piece

    def count(self, pieces: int) -> int:
        """Number of coefficient values at the given piece count."""
        check("pieces", pieces, Count)
        return len(self.coefficients) + (pieces - 1 if self.piecewise else 0)

    def pieces_for(self, count: int) -> int:
        """Piece count implied by a coefficient-value count (2 for kinds without pieces)."""
        pieces = count - len(self.coefficients) + 1 if self.piecewise else 2
        if pieces < 1 or self.count(pieces) != count:
            least = "at least " if self.piecewise else ""
            raise ValueError(
                f"{self.kind.value} kernel takes {least}{self.count(1)} coefficients, got {count}"
            )
        return pieces


_ALPHA_P = Coefficient("alpha_p", zero=0.0, canonical=1.0, per_piece=True)
_SIGMOID = (
    Coefficient("alpha", zero=0.0, canonical=1.0),
    Coefficient("beta", zero=1.0, canonical=1.0),
    Coefficient("gamma", zero=0.0, canonical=0.0),
)
_RBF = (
    Coefficient("alpha", zero=0.0, canonical=1.0),
    Coefficient("beta", zero=1.0, canonical=1.0, positive=True),
    Coefficient("gamma", zero=0.0, canonical=0.0),
)
_MIX_K = (
    _ALPHA_P,
    Coefficient("alpha", zero=0.0, canonical=1.0),
    Coefficient("beta", zero=0.0, canonical=0.0),
)

KINDS = {
    row.kind: row
    for row in (
        KindRow(KernelKind.LINEAR, 0, (), (), _linear),
        KindRow(KernelKind.P_LINEAR, 1, ("plinear", "p_linear"), (_ALPHA_P,), _p_linear),
        KindRow(KernelKind.SIGMOID, 2, (), _SIGMOID, _sigmoid),
        KindRow(KernelKind.RBF, 3, (), _RBF, _rbf),
        KindRow(KernelKind.MIX_K, 5, ("mixk", "mix_k"), _MIX_K, _mix_k),
    )
}

def kernel_coefficient_count(kind, pieces: int = 2) -> int:
    return KINDS[KernelKind(kind)].count(pieces)


@dataclass
class KernelSpec:
    """A kernel kind, its piece count, and its learnable coefficient tensors.

    `coeffs` holds one tensor per entry of `KINDS[kind].coefficients`, in
    that order; `pieces` matters only to kinds with a per-piece coefficient.
    """

    kind: KernelKind
    pieces: int = 2
    coeffs: tuple = ()

    def __post_init__(self):
        self.kind = KernelKind(self.kind)
        self.coeffs = tuple(self.coeffs)
        row = KINDS[self.kind]
        self.pieces = check("pieces", self.pieces, Count)
        if len(self.coeffs) != len(row.coefficients):
            raise ValueError(
                f"{self.kind.value} kernel takes {len(row.coefficients)} coefficient tensors, "
                f"got {len(self.coeffs)}"
            )
        for coeff, tensor in zip(row.coefficients, self.coeffs):
            if coeff.positive and np.any(tensor.data <= 0.0):
                raise ValueError(f"{self.kind.value} coefficient {coeff.name} must be positive")

    @classmethod
    def _filled(cls, kind, pieces: int, trainable: bool, value) -> "KernelSpec":
        kind = KernelKind(kind)
        pieces = check("pieces", pieces, Count)  # before np.full sees it
        coeffs = [
            Tensor(np.full(pieces if c.per_piece else (), value(c), dtype=np.float64),
                   requires_grad=trainable)
            for c in KINDS[kind].coefficients
        ]
        return cls(kind=kind, pieces=pieces, coeffs=coeffs)

    @classmethod
    def zero_init(cls, kind, pieces: int = 2, trainable: bool = True) -> "KernelSpec":
        return cls._filled(kind, pieces, trainable, lambda c: c.zero)

    @classmethod
    def canonical(cls, kind, pieces: int = 2, trainable: bool = False) -> "KernelSpec":
        return cls._filled(kind, pieces, trainable, lambda c: c.canonical)

    def coefficients(self) -> list:
        """Learnable coefficient tensors in checkpoint order."""
        return list(self.coeffs)

    def coefficient_values(self) -> np.ndarray:
        vals = [np.atleast_1d(c.data).ravel() for c in self.coeffs]
        return np.concatenate(vals) if vals else np.zeros(0)

    @classmethod
    def from_coefficient_values(cls, kind, values, trainable: bool = True) -> "KernelSpec":
        row = KINDS[KernelKind(kind)]
        vals = np.array(values, dtype=np.float64).ravel()  # a copy: the tensors may train
        pieces = row.pieces_for(vals.size)
        sizes = [pieces if c.per_piece else 1 for c in row.coefficients]
        chunks = np.split(vals, np.cumsum(sizes)[:-1])
        coeffs = [Tensor(chunk if c.per_piece else chunk[0], requires_grad=trainable)
                  for c, chunk in zip(row.coefficients, chunks)]
        return cls(kind=row.kind, pieces=pieces, coeffs=coeffs)

    def with_coefficients(self, tensors) -> "KernelSpec":
        """Copy of this spec with coefficient tensors replaced (same order)."""
        return replace(self, coeffs=tuple(tensors))

    def stacked(self, count: int) -> "KernelSpec":
        """This spec's coefficients repeated for `count` factor pairs, laid out by `stacked_leaf`."""
        return self.with_coefficients(stacked_leaf([c] * count) for c in self.coeffs)


def stacked_leaf(tensors) -> Tensor:
    """A leaf holding the tensors' values on a new leading axis; scalars become (1, 1).

    A per-piece coefficient stacks to (S, P) and a scalar to (S, 1, 1), so
    that each broadcasts against its own slice of an (S, m, n) merge.
    """
    first = tensors[0]
    part = first.data.shape if first.data.ndim else (1, 1)
    data = np.array([t.data for t in tensors]).reshape((len(tensors), *part))
    return Tensor(data, requires_grad=first.requires_grad)


def stacked_block(tensors) -> Tensor:
    """`stacked_leaf(tensors)`, with each tensor's data made a view of its slice
    of the block in its own shape: an optimizer steps the block in place, and
    every tensor reads the new values."""
    block = stacked_leaf(tensors)
    data = block.data.reshape((len(tensors), *tensors[0].data.shape))
    for k, t in enumerate(tensors):
        t.data = data[k, ...]  # a view even where slice k is 0-d
    return block


@dataclass
class LowRankPair:
    """The factor matrices A (n x r) and B (m x r) for one adapted weight.

    A stacked pair holds S independent pairs as A (S, n, r) and B (S, m, r);
    its merge is the (S, m, n) stack of their merges. The distance kinds also
    take more stack axes, as in the fits' (kinds, seeds) block.
    """

    A: Tensor
    B: Tensor

    def __post_init__(self):
        a, b = self.A.data.shape, self.B.data.shape
        if len(a) < 2 or len(b) != len(a) or a[:-2] != b[:-2]:
            raise ValueError(f"factors must be matrices or equal stacks of them, got {a} and {b}")
        if a[-1] != b[-1]:
            raise ValueError(f"factor ranks differ: A has {a[-1]}, B has {b[-1]}")
        if self.r > min(self.m, self.n):
            raise ValueError(f"rank {self.r} exceeds min(m, n) = {min(self.m, self.n)}")

    @property
    def n(self) -> int:
        return self.A.data.shape[-2]

    @property
    def m(self) -> int:
        return self.B.data.shape[-2]

    @property
    def r(self) -> int:
        return self.A.data.shape[-1]

    @classmethod
    def random(cls, m: int, n: int, r: int, rng: np.random.Generator, std: float = 0.02,
               trainable: bool = True) -> "LowRankPair":
        a = rng.normal(0.0, std, size=(n, r))
        b = rng.normal(0.0, std, size=(m, r))
        return cls(A=Tensor(a, requires_grad=trainable), B=Tensor(b, requires_grad=trainable))


def merge(spec: KernelSpec, pair: LowRankPair) -> Tensor:
    """Merge a factor pair into the m x n update matrix (a stacked pair, slice by slice).

    Entry (i, j) is the kernel between A's row j and B's row i. The mixed
    kind adds alpha * (softmax down each column of the piecewise-linear
    matrix) + beta. The result participates in gradient recording. Distances
    come from the fused ops in `klora.tensor`, so a merge holds O(mn * P)
    floats for P pieces and never an (m, n, r) array; the mix-k merge is one
    op that keeps (P + 2) * mn floats for its backward: the piece distances,
    the column softmax and its output.
    """
    return KINDS[spec.kind].merge(spec, pair.B, pair.A)


def numerical_rank(matrix, eps_rel: float):
    """Count singular values >= eps_rel * sigma_max; a zero matrix has rank 0.

    A stack (..., m, n) gives an int array of per-matrix counts from one SVD
    call, which runs the same LAPACK routine on each matrix, so each count
    equals that of the matrix on its own; a matrix gives an int.
    """
    a = matrix.data if isinstance(matrix, Tensor) else np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    check("eps_rel", eps_rel, OpenUnit)
    s = np.linalg.svd(a, compute_uv=False)
    top = s[..., :1]  # sigma_max, empty for an empty matrix
    counts = np.count_nonzero((s >= eps_rel * top) & (top > 0.0), axis=-1)
    return int(counts) if a.ndim == 2 else counts


def psd_check(spec: KernelSpec, points) -> float:
    """Minimum eigenvalue of the kernel Gram matrix (the merge of the points with themselves).

    Kinds that normalize columns give a non-symmetric matrix and are rejected.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be a (k, r) array with k >= 1, got shape {pts.shape}")
    gram = KINDS[spec.kind].merge(spec, Tensor(pts), Tensor(pts)).data
    if not np.allclose(gram, gram.T):
        raise ValueError(f"{spec.kind.value} Gram matrix is not symmetric")
    return float(np.linalg.eigvalsh(gram)[0])


def mean_abs_factor_gradient(spec: KernelSpec, pair: LowRankPair) -> float:
    """Mean |gradient| over both factors for a sum-of-entries loss on the merge.

    The probe behind the gradient-vanishing contrast: at large factor
    scales a bare RBF merge returns nearly zero everywhere here, while the
    mixed kind keeps gradients at unit order.
    """
    grads = record_and_backward(lambda: reduce_sum(merge(spec, pair)), [pair.A, pair.B])
    ga = np.abs(grads[pair.A].data)
    gb = np.abs(grads[pair.B].data)
    return float((ga.sum() + gb.sum()) / (ga.size + gb.size))
