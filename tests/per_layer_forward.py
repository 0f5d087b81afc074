"""The per-layer forward pass behind the grouped one: the test oracle.

`klora.model.TinyModel.forward` merges and sparsifies every group of
same-shaped adapted layers as one stack. Before that, each layer merged its
own factor pair (inside `tensor.checkpoint` under `recompute_merge`),
sparsified its own merge with its own budget, and fed the result straight to
its affine map, interleaved with the rest of the forward pass. `forward` is
that pass, built from the package's own merge, sparsify and affine ops, and
`patched_in()` swaps it in for `TinyModel.forward`, so a whole training run
can be replayed on it and compared bit for bit.

A grouped layer's own tensors only view its group's parameter blocks, and
gradients reach the blocks alone. `per_layer_model` gives every layer its
own 2-D leaves instead, as each layer had before layers were grouped, and
`patched_in()` builds every model that way.
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

        dw = checkpoint(rebuild, layer.pair.A, layer.pair.B, *layer.spec.coeffs)
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


def per_layer_model(net) -> model.TinyModel:
    """A model over `net`'s blocks in which every adapted layer is a group of one.

    Each layer gets its own 2-D leaves, copies of its current values, so
    the new model's `trainables()` lists them layer by layer and a backward
    pass leaves each layer's gradients on its own tensors. `net` itself no
    longer trains its layers afterwards.
    """
    def leaf(t):
        return Tensor(t.data.copy(), requires_grad=True)

    for layer in net.adapted_layers():
        layer.pair = LowRankPair(A=leaf(layer.pair.A), B=leaf(layer.pair.B))
        layer.spec = layer.spec.with_coefficients(leaf(c) for c in layer.spec.coeffs)
    grouped_key = model.AdaptedLinear.group_key
    model.AdaptedLinear.group_key = lambda layer: id(layer)  # no two layers share a key
    try:
        return model.TinyModel(net.blocks)
    finally:
        model.AdaptedLinear.group_key = grouped_key


@contextlib.contextmanager
def patched_in():
    """Run the package with per-layer models and the per-layer forward pass."""
    grouped_forward, grouped_build = model.TinyModel.forward, model.build_model
    model.TinyModel.forward = forward
    model.build_model = lambda dataset, config: per_layer_model(grouped_build(dataset, config))
    try:
        yield
    finally:
        model.TinyModel.forward = grouped_forward
        model.build_model = grouped_build
