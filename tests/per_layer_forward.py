"""The per-layer forward pass behind the grouped one: the test oracle.

`klora.model.TinyModel.forward` merges and sparsifies every group of
same-shaped adapted layers as one stack. Before that, each layer merged its
own factor pair (inside `tensor.checkpoint` under `recompute_merge`),
sparsified its own merge with its own budget, and fed the result straight to
its affine map, interleaved with the rest of the forward pass. `forward` is
that pass, built from the package's own merge, sparsify and affine ops, and
`patched_in()` swaps it in for `TinyModel.forward`, so a whole training run
can be replayed on it and compared bit for bit.
"""

from __future__ import annotations

import contextlib
import math

from klora import model
from klora.allocation import sparsify
from klora.kernels import LowRankPair, merge
from klora.tensor import (
    Tensor,
    affine,
    checkpoint,
    matmul,
    rectify,
    reshape,
    scalar_mul,
    softmax,
    transpose,
)


def delta_w(layer) -> Tensor:
    if layer.recompute_merge:
        def rebuild(a, b, *coeffs):
            return merge(layer.spec.with_coefficients(coeffs), LowRankPair(A=a, B=b))

        dw = checkpoint(rebuild, layer.pair.A, layer.pair.B, *layer.spec.coefficients())
    else:
        dw = merge(layer.spec, layer.pair)
    if layer.budget is None:
        return dw
    return sparsify(dw, min(int(layer.budget), layer.cap), layer.sparsify_mode)


def linear(layer, x: Tensor) -> Tensor:
    return affine(x, layer.w0, delta_w(layer), layer.bias)


def attention(block, x: Tensor) -> Tensor:
    batch = x.data.shape[0]
    t, dh = block.tokens, block.head_dim
    flat = reshape(x, (batch * t, dh))
    q = reshape(linear(block.wq, flat), (batch, t, dh))
    k = reshape(linear(block.wk, flat), (batch, t, dh))
    v = reshape(linear(block.wv, flat), (batch, t, dh))
    scores = scalar_mul(matmul(q, transpose(k)), 1.0 / math.sqrt(dh))
    ctx = reshape(matmul(softmax(scores, axis=2), v), (batch * t, dh))
    return reshape(linear(block.wo, ctx), (batch, t * dh))


def forward(net, x) -> Tensor:
    h = x if isinstance(x, Tensor) else Tensor(x)
    for kind, block in net.blocks:
        if kind == "linear":
            h = linear(block, h)
        elif kind == "attention":
            h = attention(block, h)
        else:
            h = rectify(h)
    return h


@contextlib.contextmanager
def patched_in():
    """Run the package with the per-layer forward pass in place of the grouped one."""
    grouped = model.TinyModel.forward
    model.TinyModel.forward = forward
    try:
        yield
    finally:
        model.TinyModel.forward = grouped
