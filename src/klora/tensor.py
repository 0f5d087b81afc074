"""Dense float64 tensors with recorded operations and reverse-mode gradients.

The engine is define-by-run: every operation returns a new tensor holding
the result plus a backward closure, so the recording is just the graph
hanging off the output. Recordings are per-run and single-use; `backward`
walks the graph once and writes gradients onto the leaf tensors it finds.

Everything is float64 and row-major. Subgradients at the kinks of
`rectify` and `absolute` are fixed to zero, and `sign` / `stop_gradient`
carry no gradient at all (their outputs are detached constants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

_node_ids = itertools.count()


class Tensor:
    """A float64 array participating in the active recording."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else scalar_add(self, other)

    def __radd__(self, other):
        return scalar_add(self, other)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else scalar_add(self, -other)

    def __rsub__(self, other):
        return scalar_add(scalar_mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scalar_mul(self, other)

    def __rmul__(self, other):
        return scalar_mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, reciprocal(other))
        return scalar_mul(self, 1.0 / other)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def transpose(self):
        return transpose(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Build an op output; constant subgraphs drop their recording."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.node_id = next(_node_ids)
    rq = False
    for p in parents:
        if p.requires_grad:
            rq = True
            break
    out.requires_grad = rq
    if rq:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(data, (a, b), bwd)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _make(a.data * c, (a,), bwd)


def scalar_add(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g,)

    return _make(a.data + c, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        e = np.exp(a.data)

    def bwd(g):
        return (g * e,)

    return _make(e, (a,), bwd)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return _make(data, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    def bwd(g):
        return (g * np.sign(a.data),)

    return _make(np.abs(a.data), (a,), bwd)


def square(a: Tensor) -> Tensor:
    def bwd(g):
        return (g * (2.0 * a.data),)

    return _make(a.data * a.data, (a,), bwd)


def reciprocal(a: Tensor) -> Tensor:
    r = 1.0 / a.data

    def bwd(g):
        return (-g * r * r,)

    return _make(r, (a,), bwd)


def rectify(a: Tensor) -> Tensor:
    """max(x, 0); subgradient at 0 is 0."""

    def bwd(g):
        return (g * (a.data > 0.0),)

    return _make(np.maximum(a.data, 0.0), (a,), bwd)


def sign(a: Tensor) -> Tensor:
    """Elementwise sign with zero gradient (the output is detached)."""
    return Tensor(np.sign(a.data))


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; no gradient flows back through the result."""
    return Tensor(a.data)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3):
        raise ValueError(f"matmul needs two 2-d or two 3-d tensors, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        at = np.swapaxes(a.data, -1, -2)
        bt = np.swapaxes(b.data, -1, -2)
        return g @ bt, at @ g

    return _make(data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim < 2:
        raise ValueError("transpose needs at least 2 dimensions")
    data = np.swapaxes(a.data, -1, -2)

    def bwd(g):
        return (np.swapaxes(g, -1, -2),)

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _make(data, (a,), bwd)


# -- reductions ---------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        data = np.asarray(a.data.sum())

        def bwd(g):
            return (np.broadcast_to(g, a.data.shape),)

        return _make(data, (a,), bwd)
    ax = axis % a.data.ndim
    data = a.data.sum(axis=ax)

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a.data.shape),)

    return _make(data, (a,), bwd_axis)


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    """Mean over all entries, or over `axis` (an int or a tuple of ints)."""
    if axis is None:
        n = a.data.size
        data = np.asarray(a.data.mean())

        def bwd(g):
            return (np.broadcast_to(g / n, a.data.shape),)

        return _make(data, (a,), bwd)
    axes = tuple(ax % a.data.ndim for ax in (axis if isinstance(axis, tuple) else (axis,)))
    n = math.prod(a.data.shape[ax] for ax in axes)
    data = a.data.mean(axis=axes)

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g / n, axes), a.data.shape),)

    return _make(data, (a,), bwd_axis)


# -- pairwise row distances -----------------------------------------------------

# Entries with d² <= _GUARD * (|b_s|² + |a_s|²) are recomputed from explicit
# row differences: there the Gram identity cancels away most of d²'s digits.
# An unguarded distance keeps a relative error of about eps / (2 * _GUARD),
# near 1e-10.
_GUARD = 1e-6


def _segment_sq_distances(b: np.ndarray, a: np.ndarray, s: int, e: int):
    """Squared distances between the rows of b[..., s:e] (m x k) and a[..., s:e] (n x k).

    Built from the Gram identity d² = |b_i|² + |a_j|² - 2 b_i . a_j, so no
    (m, n, k) array is formed. Leading axes are a batch of independent
    slices. Returns (d2, guarded): the (..., m, n) array of d², and None or
    the guarded entries as (index, diff), where index is the tuple of index
    arrays of those entries in d2 (batch axes, then i, then j) and diff[k]
    the row difference b_i[s:e] - a_j[s:e] that gave entry k. Every
    unguarded entry exceeds a nonnegative bound, so d² needs no clamp at zero.
    """
    bs, as_ = b[..., s:e], a[..., s:e]
    nb = np.einsum("...ik,...ik->...i", bs, bs)[..., :, None]
    na = np.einsum("...jk,...jk->...j", as_, as_)[..., None, :]
    d2 = bs @ np.swapaxes(as_, -1, -2)
    d2 *= -2.0
    d2 += nb
    d2 += na
    if np.min(d2, initial=np.inf) > _GUARD * (nb.max(initial=0.0) + na.max(initial=0.0)):
        return d2, None  # no entry is near cancellation
    index = np.nonzero(d2 <= _GUARD * (nb + na))
    *lead, i, j = index
    diff = bs[(*lead, i)] - as_[(*lead, j)]
    d2[index] = np.einsum("kr,kr->k", diff, diff)
    return d2, (index, diff)


def _check_factors(b: Tensor, a: Tensor) -> None:
    bs, as_ = b.data.shape, a.data.shape
    if len(bs) < 2 or len(as_) != len(bs) or bs[:-2] != as_[:-2] or bs[-1] != as_[-1]:
        raise ValueError(f"need (m, r) and (n, r) matrices or equal stacks of them, "
                         f"got {bs} and {as_}")


def _slice_dot(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum(g * d) over the last two axes, per slice, as one BLAS dot product each."""
    lead = d.shape[:-2]
    g = np.ascontiguousarray(g).reshape(*lead, 1, -1)
    return (g @ d.reshape(*lead, -1, 1))[..., 0, 0]


def weighted_segment_distances(b: Tensor, a: Tensor, alpha_p: Tensor, bounds) -> Tensor:
    """The m x n matrix sum_p alpha_p[p] * |b_i[s_p] - a_j[s_p]|.

    Row i of B (m x r) against row j of A (n x r), with segment p the
    columns [start, end) of bounds[p]. B and A may carry the same leading
    batch axes, with alpha_p shaped (..., P): every slice is computed on its
    own, with its own weights. One recorded op with a closed-form backward;
    it holds P arrays of m x n per slice, never an (m, n, r) array. The
    subgradient at a zero distance is 0.
    """
    _check_factors(b, a)
    lead, r = b.data.shape[:-2], b.data.shape[-1]
    for s, e in bounds:
        if not (0 <= s < e <= r):
            raise ValueError(f"segment ({s}, {e}) out of range for axis length {r}")
    if alpha_p.data.shape != (*lead, len(bounds)):
        raise ValueError(f"need {len(bounds)} segment weights per slice, "
                         f"got shape {alpha_p.data.shape}")
    pieces = []
    out = np.zeros((*lead, b.data.shape[-2], a.data.shape[-2]))
    for p, (s, e) in enumerate(bounds):
        d, guarded = _segment_sq_distances(b.data, a.data, s, e)
        np.sqrt(d, out=d)
        out += alpha_p.data[..., p, None, None] * d
        pieces.append((s, e, d, guarded))

    def bwd(g):
        gb = np.zeros_like(b.data)
        ga = np.zeros_like(a.data)
        galpha = np.empty(alpha_p.data.shape)
        for p, (s, e, d, guarded) in enumerate(pieces):
            galpha[..., p] = _slice_dot(g, d)
            w = alpha_p.data[..., p]
            bs, as_ = b.data[..., s:e], a.data[..., s:e]
            # sum_j W_ij (b_i - a_j) with W = w g / d, in Gram form; that form
            # cancels badly at the guarded entries, so they use their differences
            with np.errstate(divide="ignore", invalid="ignore"):
                weight = g / d
            if guarded is not None:
                index, diff = guarded
                *lead_i, i, j = index
                weight[index] = 0.0
                dg = d[index]
                wg = w[tuple(lead_i)] * g[index]
                scale = np.where(dg > 0.0, wg / np.where(dg > 0.0, dg, 1.0), 0.0)
                np.add.at(gb[..., s:e], (*lead_i, i), scale[:, None] * diff)
                np.add.at(ga[..., s:e], (*lead_i, j), -scale[:, None] * diff)
            weight *= w[..., None, None]
            gb[..., s:e] += weight.sum(axis=-1)[..., None] * bs - weight @ as_
            ga[..., s:e] += weight.sum(axis=-2)[..., None] * as_ - np.swapaxes(weight, -1, -2) @ bs
        return gb, ga, galpha

    return _make(out, (b, a, alpha_p), bwd)


def squared_distances(b: Tensor, a: Tensor) -> Tensor:
    """The m x n matrix |b_i - a_j|² between rows of B (m x r) and A (n x r).

    B and A may carry the same leading batch axes, one matrix per slice.
    One recorded op with a closed-form backward and no (m, n, r) array.
    """
    _check_factors(b, a)
    d2, _ = _segment_sq_distances(b.data, a.data, 0, b.data.shape[-1])

    def bwd(g):
        # d(d²)/db_i = 2 (b_i - a_j) is bounded, so the Gram form is accurate here
        gb = 2.0 * (g.sum(axis=-1)[..., None] * b.data - g @ a.data)
        ga = 2.0 * (g.sum(axis=-2)[..., None] * a.data - np.swapaxes(g, -1, -2) @ b.data)
        return gb, ga

    return _make(d2, (b, a), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    ax = axis % a.data.ndim
    if a.data.shape[ax] == 0:
        raise ValueError("softmax over an empty axis")
    z = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=ax, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=ax, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (a,), bwd)


def column_softmax(a: Tensor) -> Tensor:
    """Softmax down each column (over the row index) of a matrix or a stack of them."""
    return softmax(a, axis=-2)


# -- backward pass ------------------------------------------------------------


def _toposort(root: Tensor):
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node.node_id in visited:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p.node_id not in visited:
                stack.append((p, False))
    return topo


def _backprop(out: Tensor, seed: np.ndarray) -> None:
    if not out.requires_grad:
        return
    topo = _toposort(out)
    grads = {out.node_id: np.asarray(seed, dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            prev = grads.get(parent.node_id)
            grads[parent.node_id] = pg if prev is None else prev + pg


def backward(loss: Tensor) -> None:
    """Run one reverse pass from a scalar; overwrites leaf `.grad`s."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {loss.data.shape}")
    _backprop(loss, np.ones_like(loss.data))


def record_and_backward(program, params):
    """Evaluate `program()` (a scalar) and return {param: gradient Tensor}.

    Parameters the output does not depend on get zero gradients.
    Deterministic for fixed inputs.
    """
    for p in params:
        p.grad = None
    out = program()
    if out.data.size != 1:
        raise ValueError(f"program output must be a scalar, got shape {out.data.shape}")
    backward(out)
    return {
        p: Tensor(p.grad if p.grad is not None else np.zeros_like(p.data))
        for p in params
    }


def checkpoint(fn, *inputs: Tensor) -> Tensor:
    """Evaluate fn(*inputs) without retaining its recording.

    The forward pass runs on detached copies, so intermediates are freed;
    the backward pass re-runs fn on fresh leaves and backpropagates the
    incoming gradient through the rebuilt recording.
    """
    out_data = fn(*[Tensor(t.data) for t in inputs]).data

    def bwd(g):
        leaves = [Tensor(t.data, requires_grad=t.requires_grad) for t in inputs]
        out2 = fn(*leaves)
        _backprop(out2, g)
        return tuple(leaf.grad for leaf in leaves)

    return _make(out_data, tuple(inputs), bwd)


# -- gradient verification -----------------------------------------------------


@dataclass
class GradientReport:
    """Outcome of a central finite-difference check."""

    per_param: list
    max_rel_err: float
    h: float
    passed: bool


def finite_diff_check(program, params, h: float, tol: float) -> GradientReport:
    """Compare recorded gradients against central differences.

    Relative error per coordinate, with an absolute fallback when both the
    analytic and numeric values are below 1e-8. Raises FloatingPointError
    when an evaluation produces non-finite values (an unstable
    configuration, e.g. an unnormalized RBF overflow).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = record_and_backward(program, params)
    per_param = []
    for p in params:
        aflat = analytic[p].data.ravel()
        if not p.data.flags["C_CONTIGUOUS"]:
            p.data = np.ascontiguousarray(p.data)
        flat = p.data.reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(program().data.reshape(()))
            flat[i] = orig - h
            f_minus = float(program().data.reshape(()))
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("non-finite value during finite-difference evaluation")
            fd = (f_plus - f_minus) / (2.0 * h)
            ad = float(aflat[i])
            if abs(fd) < 1e-8 and abs(ad) < 1e-8:
                continue
            err = max(err, abs(fd - ad) / max(abs(fd), abs(ad)))
        per_param.append(err)
    max_err = max(per_param) if per_param else 0.0
    return GradientReport(per_param=per_param, max_rel_err=max_err, h=h, passed=max_err < tol)
