"""The composed chains behind the fused per-layer ops: the test oracle.

`klora.tensor.weighted_segment_distances` with alpha and beta (the column
mix), `soft_threshold` and `affine` each replace a chain of recorded ops
and promise to repeat its floating-point operations in order. The column
mix's chain is `column_mix` below on the same op without alpha and beta,
over the mixed slices of a stack. The chains below are those
compositions, built from the elementary ops alone. The op without the mix
promises, on a stack, the bits of each slice's op on its own; its chain
takes the stack apart slice by slice. `mean_squared_error` is the loss
chain that the fused loss of the same name replaces. `patched_in()` swaps
the first three in at the package's call sites (the piecewise merge, the
soft sparsify and the adapted layer's forward pass), so a whole training
run can be replayed on them.
"""

from __future__ import annotations

import contextlib

from klora import allocation, kernels, model, tensor
from klora.tensor import (
    Tensor,
    absolute,
    add,
    matmul,
    mul,
    rectify,
    reduce_mean,
    scalar_add,
    sign,
    softmax,
    square,
    stack,
    sub,
    take,
    transpose,
)


def column_mix(k, alpha, beta) -> Tensor:
    return add(add(k, mul(alpha, softmax(k, axis=-2))), beta)


def weighted_segment_distances(b, a, alpha_p, bounds, alpha=None, beta=None) -> Tensor:
    """The column mix on the first M slices of the op's plain distances,
    M = len(alpha) (all for 0-d); without alpha and beta, those distances."""
    k = tensor.weighted_segment_distances(b, a, alpha_p, bounds)
    if alpha is None:
        return k
    mixes = alpha.data.shape[0] if alpha.data.ndim else None
    if mixes is None or mixes == k.data.shape[0]:
        return column_mix(k, alpha, beta)
    slices = [take(k, s) for s in range(k.data.shape[0])]
    if mixes:
        mixed = column_mix(stack(slices[:mixes]), alpha, beta)
        slices[:mixes] = [take(mixed, s) for s in range(mixes)]
    return stack(slices)


def weighted_segment_distances_by_slice(b, a, alpha_p, bounds) -> Tensor:
    """The distance op on each matrix of a stack on its own, stacked again."""
    if b.data.ndim == 2:
        return tensor.weighted_segment_distances(b, a, alpha_p, bounds)
    return stack([weighted_segment_distances_by_slice(take(b, s), take(a, s), take(alpha_p, s),
                                                      bounds) for s in range(b.data.shape[0])])


def mean_squared_error(x, target) -> Tensor:
    return reduce_mean(square(sub(x, Tensor(target))), axis=(-2, -1))


def soft_threshold(x, tau) -> Tensor:
    return mul(sign(x), rectify(scalar_add(absolute(x), -tau)))


def affine(x, w0, delta, bias=None) -> Tensor:
    y = matmul(x, transpose(add(Tensor(w0), delta)))
    return y if bias is None else add(y, Tensor(bias))


@contextlib.contextmanager
def patched_in():
    """Run the package with the three fused ops replaced by their chains."""
    sites = [(kernels, "weighted_segment_distances", weighted_segment_distances),
             (allocation, "soft_threshold", soft_threshold), (model, "affine", affine)]
    saved = [(module, name, getattr(module, name)) for module, name, _ in sites]
    for module, name, chain in sites:
        setattr(module, name, chain)
    try:
        yield
    finally:
        for module, name, fused in saved:
            setattr(module, name, fused)
