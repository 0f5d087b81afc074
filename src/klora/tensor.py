"""Dense float64 tensors with recorded operations and reverse-mode gradients.

The engine is define-by-run: every operation returns a new tensor holding
the result plus a backward closure, so the recording is just the graph
hanging off the output. Recordings are per-run and single-use; `backward`
walks the graph once and writes gradients onto the leaf tensors it finds.

Everything is float64 and row-major. Subgradients at the kinks of
`rectify`, `absolute` and `soft_threshold` are fixed to zero, and `sign`
carries no gradient at all (its output is a detached constant).
"""

from __future__ import annotations

import functools
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else scalar_add(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scalar_mul(self, other)

    def __rmul__(self, other):
        return scalar_mul(self, other)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def sum(self, axis=None):
        return reduce_sum(self, axis)


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


def _constant(c):
    """A float, or an array of per-slice constants as given."""
    return c if isinstance(c, np.ndarray) else float(c)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
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


def scalar_add(a: Tensor, c) -> Tensor:
    """a + c for a constant c: a float, or an array that broadcasts to a's shape."""
    c = _constant(c)

    def bwd(g):
        return (g,)

    return _make(a.data + c, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    """e^a; an overflow gives inf, and its gradient inf or nan, unwarned: a fit
    that gets there has diverged, which its caller sees in the loss."""
    with np.errstate(over="ignore"):
        e = np.exp(a.data)

    def bwd(g):
        with np.errstate(over="ignore", invalid="ignore"):
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


def soft_threshold(x: Tensor, tau) -> Tensor:
    """sign(x) * max(|x| - tau, 0) as one recorded op; tau carries no gradient.

    tau is a nonnegative float, or an array of them that broadcasts to x's
    shape (one threshold per slice of a stack, shaped (S, 1, 1)). The
    subgradient is 0 where |x| <= tau, kinks and x = 0 included. The forward
    repeats, in order, the floating-point operations of
    mul(sign(x), rectify(scalar_add(absolute(x), -tau))) and keeps its
    mask |x| - tau > 0, so the backward is the one multiply g * mask. On
    finite inputs that equals the chain's ((g * sign) * mask) * sign bit for
    bit, signed zeros and memory layout included: sign is ±1 wherever the
    mask holds, and the product takes g's sign where it does not.
    """
    sgn = np.sign(x.data)
    shifted = np.abs(x.data) - _constant(tau)
    keep = shifted > 0.0

    def bwd(g):
        return (g * keep,)

    return _make(sgn * np.maximum(shifted, 0.0), (x,), bwd)


def sign(a: Tensor) -> Tensor:
    """Elementwise sign with zero gradient (the output is detached)."""
    return Tensor(np.sign(a.data))


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3):
        raise ValueError(f"matmul needs two 2-d or two 3-d tensors, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return _make(data, (a, b), bwd)


def affine(x: Tensor, w0: np.ndarray, delta: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """x (w0 + delta)^T (+ bias) for a batch of rows x, as one recorded op.

    w0 and bias are constants; gradients go to x and delta. Forward and
    backward repeat, in order, the floating-point operations of
    add(matmul(x, transpose(add(Tensor(w0), delta))), Tensor(bias)).
    """
    if x.data.ndim != 2 or delta.data.shape != w0.shape or x.data.shape[1] != w0.shape[1]:
        raise ValueError(f"affine needs x (k, n) and weights (m, n), got x {x.data.shape}, "
                         f"w0 {w0.shape} and delta {delta.data.shape}")
    w = w0 + delta.data
    y = x.data @ w.T
    if bias is not None:
        y += bias

    def bwd(g):
        gx = g @ w if x.requires_grad else None
        # the transpose of x^T g, a view: the chain's weight gradient has that layout
        return gx, (x.data.T @ g).T

    return _make(y, (x, delta), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim < 2:
        raise ValueError("transpose needs at least 2 dimensions")
    data = a.data.swapaxes(-1, -2)

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _make(data, (a,), bwd)


# -- stacks -------------------------------------------------------------------


def stack(parts) -> Tensor:
    """The parts on a new leading axis, as one recorded op.

    A stack of one part is a view of that part's array. The backward hands
    each part a view of its slice of the incoming gradient.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("stack needs at least one part")
    if len(parts) == 1:
        data = parts[0].data[None]
    else:
        data = np.array([p.data for p in parts])  # several times faster than np.stack here

    def bwd(g):
        return tuple(g[k].reshape(p.data.shape) for k, p in enumerate(parts))

    return _make(data, parts, bwd)


class _SliceGrad:
    """The gradient of slice k of a stack; `_backprop` writes it into the stack's gradient."""

    __slots__ = ("k", "g")

    def __init__(self, k: int, g: np.ndarray):
        self.k = k
        self.g = g


def take(x: Tensor, k: int) -> Tensor:
    """Slice k of a stack along its leading axis, as one recorded op.

    The backward fills slice k of the stack's gradient alone; see `_assemble`.
    """

    data = x.data[k]
    k %= x.data.shape[0]  # so take(x, -1) and take(x, S - 1) name one slice

    def bwd(g):
        return (_SliceGrad(k, g),)

    return _make(data, (x,), bwd)


def _assemble(shape: tuple, parts: list, rest) -> np.ndarray:
    """A stack's gradient from its slices' gradients, plus `rest` (a whole-stack one or None).

    The slices take the memory layout of the first slice gradient: when it
    is transposed (an `affine` weight gradient is), each slice is stored
    transposed, so every later reduction over a slice adds in the order it
    would on that slice's own gradient. Slices nobody took are zero, and
    when every slice was taken nothing is zero-filled; a slice's first
    gradient is copied, not added to zero, so signed zeros survive.
    """
    first = parts[0].g
    new = np.empty if len({part.k for part in parts}) == shape[0] else np.zeros
    if first.ndim >= 2 and not first.flags.c_contiguous and first.T.flags.c_contiguous:
        axes = (0, *range(len(shape) - 1, 0, -1))
        out = new(tuple(shape[ax] for ax in axes)).transpose(axes)
    else:
        out = new(shape)
    written = set()
    for part in parts:
        if part.k in written:
            out[part.k] += part.g
        else:
            out[part.k] = part.g
            written.add(part.k)
    return out if rest is None else out + rest


# -- reductions ---------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        data = np.asarray(np.add.reduce(a.data, axis=None))

        def bwd(g):
            return (np.broadcast_to(g, a.data.shape),)

        return _make(data, (a,), bwd)
    ax = axis % a.data.ndim
    data = np.add.reduce(a.data, axis=ax)

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


def mean_squared_error(x: Tensor, target: np.ndarray) -> Tensor:
    """mean((x - target)²) over the last two axes of x, as one recorded op.

    target is a constant array that broadcasts to x's shape; the result has
    x's leading axes, 0-d for a matrix. Forward and backward repeat, in
    order, the floating-point operations of
    reduce_mean(square(sub(x, Tensor(target))), axis=(-2, -1)), less the
    gradient that chain forms for the target. The backward recomputes
    x - target rather than hold it from the forward pass, and scales it in
    place.
    """
    shape, tshape = x.data.shape, np.shape(target)
    lead = len(shape) - len(tshape)
    if len(shape) < 2 or lead < 0 or tshape != shape[lead:] and any(
            t != 1 and t != s for t, s in zip(tshape, shape[lead:])):
        raise ValueError(f"need a matrix or a stack of them and a target that broadcasts "
                         f"to it, got {shape} and {tshape}")
    n = shape[-2] * shape[-1]
    diff = x.data - target
    diff *= diff
    # the sum and the division of `ndarray.mean`, without its Python wrapper
    data = np.asarray(np.add.reduce(diff, axis=(-2, -1)) / n)

    def bwd(g):
        gx = x.data - target
        gx *= 2.0
        gx *= (g / n)[..., None, None]
        return (gx,)

    return _make(data, (x,), bwd)


# -- pairwise row distances -----------------------------------------------------

# Entries with d² <= _GUARD * (|b_s|² + |a_s|²) are recomputed from explicit
# row differences: there the Gram identity cancels away most of d²'s digits.
# An unguarded distance keeps a relative error of about eps / (2 * _GUARD),
# near 1e-10. The scalar bound _GUARD * (max |b|² + max |a|²) is at least every
# entry's, so only entries under it are candidates, and only the candidates are
# held to their own bound: a full (..., m, n) array of per-entry bounds took
# most of a guarded call's time.
_GUARD = 1e-6

def _gram_sq_distances(bs: np.ndarray, as_: np.ndarray, grad: bool = True):
    """Squared distances between the rows of bs (..., m, k) and as_ (..., n, k),
    with the operands of their GEMM and the guarded entries.

    Returns (d2, bt, at, guarded). bt (..., k + 2, m) holds the rows -2 bs^T,
    |bs|² and ones, and at (..., k + 2, n) the rows as_^T, ones and |as_|²,
    so bt^T @ at is -2 b_i . a_j + |b_i|² + |a_j|²; the scaling by -2 is
    exact. Each operand row is a whole column of a factor, so every copy
    runs along m or n, not along k. With grad, bt also holds bs^T in k more
    rows, and the backward reads [1 | bs]^T from bt's last k + 1 rows and
    [as_ | 1]^T from at's first k + 1. guarded is None or the guarded
    entries as (index, diff): index is the tuple of index arrays of those
    entries in d2 (batch axes, then i, then j), and diff[e] = b_i - a_j of
    entry e, from which entry e's d² is recomputed. Every unguarded entry
    exceeds a nonnegative bound, so d² needs no clamp at zero.
    """
    k, m, n = bs.shape[-1], bs.shape[-2], as_.shape[-2]
    nb = np.einsum("...ik,...ik->...i", bs, bs)
    na = np.einsum("...jk,...jk->...j", as_, as_)
    bt = np.empty((*bs.shape[:-2], 2 * k + 2 if grad else k + 2, m))
    np.multiply(bs.swapaxes(-1, -2), -2.0, out=bt[..., :k, :])
    bt[..., k, :] = nb
    bt[..., k + 1, :] = 1.0
    if grad:
        bt[..., k + 2:, :] = bs.swapaxes(-1, -2)
    at = np.empty((*as_.shape[:-2], k + 2, n))
    at[..., :k, :] = as_.swapaxes(-1, -2)
    at[..., k, :] = 1.0
    at[..., k + 1, :] = na
    d2 = bt[..., :k + 2, :].swapaxes(-1, -2) @ at
    # fmax skips a NaN norm, whose row of d2 is NaN and never guarded
    bound = _GUARD * (np.fmax.reduce(nb, axis=None, initial=0.0)
                      + np.fmax.reduce(na, axis=None, initial=0.0))
    if np.minimum.reduce(d2, axis=None, initial=np.inf) > bound:
        return d2, bt, at, None  # no entry is near cancellation
    flat = np.flatnonzero(d2 <= bound)
    *lead, i, j = np.unravel_index(flat, d2.shape)
    near = d2.reshape(-1)[flat] <= _GUARD * (nb[(*lead, i)] + na[(*lead, j)])
    if not near.any():
        return d2, bt, at, None
    index = tuple(axis[near] for axis in (*lead, i, j))
    *lead, i, j = index
    diff = bs[(*lead, i)] - as_[(*lead, j)]
    d2[index] = np.einsum("ek,ek->e", diff, diff)
    return d2, bt, at, (index, diff)


def _check_factors(b: Tensor, a: Tensor) -> None:
    bs, as_ = b.data.shape, a.data.shape
    if len(bs) < 2 or len(as_) != len(bs) or bs[:-2] != as_[:-2] or bs[-1] != as_[-1]:
        raise ValueError(f"need (m, r) and (n, r) matrices or equal stacks of them, "
                         f"got {bs} and {as_}")


def _piece_columns(bounds, r: int):
    """The widest piece's width w, and None when every piece is w wide, else the
    (P, w) column index of each piece's k-th column, r where a narrower piece is padded."""
    w = max(e - s for s, e in bounds)
    if all(e - s == w for s, e in bounds):
        return w, None
    cols = np.full((len(bounds), w), r)
    for p, (s, e) in enumerate(bounds):
        cols[p, :e - s] = np.arange(s, e)
    return w, cols


@functools.cache
def _piece_layout(bounds: tuple, r: int):
    """The checked segments `bounds` of [0, r) as (P, w, cols, keep): the piece
    count, `_piece_columns`' w and cols, and None or the columns of the joined
    pieces that are not padding. Cached per (bounds, r), so the index arrays
    are shared and read-only; bad segments raise on every call."""
    for s, e in bounds:
        if not (0 <= s < e <= r):
            raise ValueError(f"segment ({s}, {e}) out of range for axis length {r}")
    starts = [s for s, _ in bounds]
    if not bounds or starts != [0, *(e for _, e in bounds[:-1])] or bounds[-1][1] != r:
        raise ValueError(f"segments must tile [0, {r}) in order, got {list(bounds)}")
    w, cols = _piece_columns(bounds, r)
    if cols is None:
        return len(bounds), w, None, None
    keep = np.flatnonzero(cols.ravel() < r)
    cols.flags.writeable = keep.flags.writeable = False
    return len(bounds), w, cols, keep


def _split_pieces(x: np.ndarray, w: int, cols) -> np.ndarray:
    """(..., k, r) -> (..., P, k, w): the pieces of x's columns, narrower ones zero-padded."""
    if cols is None:
        y = x.reshape(*x.shape[:-1], -1, w)
    else:
        y = np.concatenate((x, np.zeros((*x.shape[:-1], 1))), axis=-1).take(cols, axis=-1)
    return y.swapaxes(-3, -2)


def _join_pieces(yt: np.ndarray, scale: np.ndarray, keep) -> np.ndarray:
    """scale * y for pieces given as yt = y^T (..., P, w, k), as (..., k, r): the
    inverse of `_split_pieces`, padding dropped (keep from `_piece_layout`)."""
    *lead, pieces, w, k = yt.shape
    if keep is None:
        out = np.empty((*lead, k, pieces * w))
        np.multiply(yt, scale, out=out.swapaxes(-1, -2).reshape(yt.shape))
        return out
    y = np.multiply(yt, scale).reshape(*lead, pieces * w, k).take(keep, axis=-2)
    return np.ascontiguousarray(y.swapaxes(-1, -2))


def _slice_dot(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum(g * d[..., p, :, :]) for each piece p of d (..., P, m, n), g (..., m, n),
    as one BLAS dot product each."""
    g = np.ascontiguousarray(g).reshape(*g.shape[:-2], 1, 1, -1)
    return (g @ d.reshape(*d.shape[:-2], -1, 1))[..., 0, 0]


def _segment_distances_backward(g: np.ndarray, saved):
    """The gradients of B, A and alpha_p from the gradient g of the distance matrix."""
    bt, at, alpha_p, d, guarded, keep = saved
    w = at.shape[-2] - 2
    galpha = _slice_dot(g, d)
    # sum_j W_ij (b_i - a_j) per piece, with W = g / d, in Gram form: one GEMM
    # gives W A and the row sums, another the column sums and W^T B, and
    # alpha_p scales the results. That form cancels badly at the guarded
    # entries, so they use their differences and W is zero there; only a
    # guarded entry can be a zero distance.
    if guarded is None:
        weight = np.divide(g[..., None, :, :], d, out=np.empty(d.shape))
    else:
        index, diff = guarded
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.divide(g[..., None, :, :], d, out=np.empty(d.shape))
        scale = np.where(d[index] > 0.0, weight[index], 0.0)
        weight[index] = 0.0
    # W is each GEMM's left operand: as the right one, OpenBLAS packed it into
    # more of its buffer, and a 768 x 768 fit's peak RSS rose by 4.5 MiB. Both
    # results are read as rows: (W A)^T and the row sums; the column sums and
    # (W^T B)^T.
    wa = (weight @ at[..., :w + 1, :].swapaxes(-1, -2)).swapaxes(-1, -2)
    wb = (weight.swapaxes(-1, -2) @ bt[..., w + 1:, :].swapaxes(-1, -2)).swapaxes(-1, -2)
    gb = np.multiply(bt[..., w + 2:, :], wa[..., w:, :], out=np.empty(wa[..., :w, :].shape))
    gb -= wa[..., :w, :]
    ga = np.multiply(at[..., :w, :], wb[..., :1, :], out=np.empty(wb[..., 1:, :].shape))
    ga -= wb[..., 1:, :]
    if guarded is not None:
        *lead, i, j = index
        step = scale[:, None] * diff
        np.add.at(gb, (*lead, slice(None), i), step)
        np.subtract.at(ga, (*lead, slice(None), j), step)
    alpha_p = alpha_p[..., None, None]
    return _join_pieces(gb, alpha_p, keep), _join_pieces(ga, alpha_p, keep), galpha


def squared_distances(b: Tensor, a: Tensor) -> Tensor:
    """The m x n matrix |b_i - a_j|² between rows of B (m x r) and A (n x r).

    B and A may carry the same leading batch axes, one matrix per slice.
    One recorded op with a closed-form backward and no (m, n, r) array.
    """
    _check_factors(b, a)
    d2, _, _, _ = _gram_sq_distances(b.data, a.data, grad=False)

    def bwd(g):
        # d(d²)/db_i = 2 (b_i - a_j) is bounded, so the Gram form is accurate here
        gb = 2.0 * (np.add.reduce(g, axis=-1)[..., None] * b.data - g @ a.data)
        ga = 2.0 * (np.add.reduce(g, axis=-2)[..., None] * a.data - g.swapaxes(-1, -2) @ b.data)
        return gb, ga

    return _make(d2, (b, a), bwd)


def _softmax_data(x: np.ndarray, ax: int) -> np.ndarray:
    if x.shape[ax] == 0:
        raise ValueError("softmax over an empty axis")
    e = x - np.maximum.reduce(x, axis=ax, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=ax, keepdims=True)
    return e


def softmax(a: Tensor, axis: int) -> Tensor:
    ax = axis % a.data.ndim
    s = _softmax_data(a.data, ax)

    def bwd(g):
        dot = np.add.reduce(g * s, axis=ax, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (a,), bwd)


def _column_mix(k: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Add alpha * (softmax down each column of k) + beta to k; return the softmax."""
    s = _softmax_data(k, k.ndim - 2)
    k += alpha * s
    k += beta
    return s


def _column_mix_backward(g: np.ndarray, s: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """The gradients of k, alpha and beta from the gradient g of `_column_mix`'s output.

    Two temporaries, each of k's size; the gradient of k is the second, in
    the memory layout a fresh g + s * (gs - dot) would have.
    """
    gs = g * alpha
    t = gs * s
    dot = np.add.reduce(t, axis=-2, keepdims=True)
    galpha = _unbroadcast(np.multiply(g, s, out=t), alpha.shape)
    if galpha is t:  # a stack of 1 x 1 matrices; t is overwritten below
        galpha = t.copy()
    gs -= dot
    np.multiply(s, gs, out=t)
    t += g
    return t, galpha, _unbroadcast(g, beta.shape)


def weighted_segment_distances(b: Tensor, a: Tensor, alpha_p: Tensor, bounds,
                               alpha: Tensor | None = None, beta: Tensor | None = None) -> Tensor:
    """The piecewise merge: k = sum_p alpha_p[p] * |b_i[s_p] - a_j[s_p]|, and with
    alpha and beta the mix-k merge k + alpha * (softmax down each column of k) + beta.

    Row i of B (m x r) against row j of A (n x r), with segment p the
    columns [start, end) of bounds[p]; the segments tile [0, r) in order.
    B and A may carry the same leading batch axes, with alpha_p shaped
    (..., P): every slice is computed on its own, with its own weights.
    alpha and beta come together or not at all; they are 0-d, or one value
    per slice of a stack. For a stack (S, ..., m, n) they are (M, ..., 1, 1)
    with M <= S: the column mix covers the first M slices along the first
    stack axis, and the other S - M slices are the plain k, so one op serves
    a block of mix-k and p-linear fits.

    One recorded op with a closed-form backward. The pieces lie on one
    axis, (..., P, m, w) for the widest piece's width w, narrower pieces
    padded with zero columns; the op holds a (..., P, m, n) array of
    distances, never an (m, n, r) array. Each piece's d² is one GEMM of
    operands augmented by their row norms and a column of ones, and the
    backward two more (`_gram_sq_distances`). The subgradient at a zero
    distance is 0. The mix is written over k's own array, so a mixed slice
    holds (P + 2) matrices: the distances, the column softmax and the
    output. Forward and backward repeat, in order, the floating-point
    operations of add(add(k, mul(alpha, softmax(k, axis=-2))), beta) on the
    op without alpha and beta, on the mixed slices; a partial mix's chain
    takes those slices apart and stacks them (`take`, `stack`), so their
    gradient is laid out as `_assemble` lays out a stack's slices.
    """
    if (alpha is None) != (beta is None):
        raise ValueError(f"need alpha and beta together or neither, got "
                         f"{'no alpha' if alpha is None else 'no beta'}")
    lead = b.data.shape[:-2]
    if alpha is not None:
        mixes = alpha.data.shape[0] if lead and alpha.data.ndim else None
        scalar = (mixes, *lead[1:], 1, 1) if lead else ()
        if alpha.data.shape != scalar or beta.data.shape != scalar or lead and mixes > lead[0]:
            fewer = ", or with fewer slices on the first axis" if lead else ""
            raise ValueError(f"need alpha and beta of shape {(*lead, 1, 1) if lead else ()}"
                             f"{fewer}, got {alpha.data.shape} and {beta.data.shape}")
    _check_factors(b, a)
    pieces, w, cols, keep = _piece_layout(tuple(map(tuple, bounds)), b.data.shape[-1])
    if alpha_p.data.shape != (*lead, pieces):
        raise ValueError(f"need {pieces} segment weights per slice, "
                         f"got shape {alpha_p.data.shape}")
    d, bt, at, guarded = _gram_sq_distances(_split_pieces(b.data, w, cols),
                                            _split_pieces(a.data, w, cols))
    np.sqrt(d, out=d)
    k = np.einsum("...p,...pij->...ij", alpha_p.data, d)
    saved = (bt, at, alpha_p.data, d, guarded, keep)
    if alpha is None:
        return _make(k, (b, a, alpha_p), lambda g: _segment_distances_backward(g, saved))
    whole = not lead or mixes == lead[0]
    s = _column_mix(k if whole else k[:mixes], alpha.data, beta.data)

    def bwd(g):
        if whole:
            gk, galpha, gbeta = _column_mix_backward(g, s, alpha.data, beta.data)
        else:
            head = g[:mixes]
            if not head.flags.c_contiguous:
                head = _assemble(head.shape, [_SliceGrad(i, x) for i, x in enumerate(head)], None)
            gk, galpha, gbeta = _column_mix_backward(head, s, alpha.data, beta.data)
            gk = np.concatenate((gk, g[mixes:]))
        return (*_segment_distances_backward(gk, saved), galpha, gbeta)

    return _make(k, (b, a, alpha_p, alpha, beta), bwd)


# -- backward pass ------------------------------------------------------------


def _toposort(root: Tensor):
    topo, visited, stack = [], set(), [(root, False)]
    emit, seen, push, pop = topo.append, visited.add, stack.append, stack.pop
    while stack:
        node, done = pop()
        if done:
            emit(node)
            continue
        if node.node_id in visited:
            continue
        seen(node.node_id)
        push((node, True))
        for p in node._parents:
            if p.requires_grad and p.node_id not in visited:
                push((p, False))
    return topo


def _backprop(out: Tensor, seed: np.ndarray) -> None:
    if not out.requires_grad:
        return
    topo = _toposort(out)
    grads = {out.node_id: np.asarray(seed, dtype=np.float64)}
    slices = {}  # node id -> the _SliceGrads of a stack's slices
    for node in reversed(topo):
        g = grads.pop(node.node_id, None)
        if slices and node.node_id in slices:
            g = _assemble(node.data.shape, slices.pop(node.node_id), g)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if type(pg) is _SliceGrad:
                slices.setdefault(parent.node_id, []).append(pg)
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


# Each evaluation of a checked program is taken to be exact to within
# _EVAL_ROUNDING * eps * |value|: sums, exponentials and softmaxes lose a few
# bits to rounding, and 16 covers every merge kind at h from 1e-6 to 1e-4.
_EVAL_ROUNDING = 16.0


def finite_diff_check(program, params, h: float, tol: float) -> GradientReport:
    """Compare recorded gradients against central differences.

    The error of a coordinate is the part of |fd - analytic| beyond the
    central difference's own rounding bound,
    _EVAL_ROUNDING * eps * (|f(x + h)| + |f(x - h)|) / (2h), relative to
    max(|fd|, |analytic|). Without that allowance a tiny but correct
    gradient entry fails on rounding alone, and more so the smaller h is.
    Coordinates where both values are below 1e-8 are skipped. Raises
    FloatingPointError when an evaluation produces non-finite values (an
    unstable configuration, e.g. an unnormalized RBF overflow).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rounding = _EVAL_ROUNDING * np.finfo(np.float64).eps / (2.0 * h)
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
            excess = abs(fd - ad) - rounding * (abs(f_plus) + abs(f_minus))
            err = max(err, excess / max(abs(fd), abs(ad)))
        per_param.append(err)
    max_err = max(per_param) if per_param else 0.0
    return GradientReport(per_param=per_param, max_rel_err=max_err, h=h, passed=max_err < tol)
