"""The composed kernel merge: the test oracle for the fused distance ops.

It builds the (m, n, r) tensor of row differences and reduces it with
elementary recorded ops, so its values and gradients come from code that
shares nothing with `klora.tensor.weighted_segment_distances` and
`klora.tensor.squared_distances`. `composed_merge` runs a kind's registry
merge with those two ops swapped for the composed ones, and the fused mix-k
op for its chain of elementary ops on the composed distances; everything
the merge builds on top of the distances is the package's own code.
"""

from __future__ import annotations

import numpy as np

import composed_chains
from klora import kernels
from klora.tensor import Tensor, _make, mul, reduce_sum, reshape, square, sub


def segment_l2_norm(a: Tensor, bounds) -> Tensor:
    """Per-segment l2 norms along the last axis.

    `bounds` is a list of half-open (start, end) index ranges; the output
    gains a trailing axis of length len(bounds). The subgradient of a
    zero-norm segment is 0.
    """
    x = a.data
    r = x.shape[-1]
    for s, e in bounds:
        if not (0 <= s < e <= r):
            raise ValueError(f"segment ({s}, {e}) out of range for axis length {r}")
    out = np.empty(x.shape[:-1] + (len(bounds),))
    for p, (s, e) in enumerate(bounds):
        seg = x[..., s:e]
        out[..., p] = np.sqrt((seg * seg).sum(axis=-1))

    def bwd(g):
        gx = np.zeros_like(x)
        for p, (s, e) in enumerate(bounds):
            norm = out[..., p]
            safe = np.where(norm > 0.0, norm, 1.0)
            scale = np.where(norm > 0.0, g[..., p] / safe, 0.0)
            gx[..., s:e] += x[..., s:e] * scale[..., None]
        return (gx,)

    return _make(out, (a,), bwd)


def row_differences(b: Tensor, a: Tensor) -> Tensor:
    """The (m, n, r) tensor b_i - a_j."""
    (m, r), n = b.data.shape, a.data.shape[0]
    return sub(reshape(b, (m, 1, r)), reshape(a, (1, n, r)))


def weighted_segment_distances(b, a, alpha_p, bounds) -> Tensor:
    return reduce_sum(mul(segment_l2_norm(row_differences(b, a), bounds), alpha_p), axis=2)


def squared_distances(b, a) -> Tensor:
    return reduce_sum(square(row_differences(b, a)), axis=2)


def mixed_segment_distances(b, a, alpha_p, alpha, beta, bounds) -> Tensor:
    return composed_chains.column_mix(weighted_segment_distances(b, a, alpha_p, bounds),
                                      alpha, beta)


def composed_merge(spec, pair) -> Tensor:
    """`kernels.merge` with its distance ops swapped for the composed ones."""
    composed = {"weighted_segment_distances": weighted_segment_distances,
                "squared_distances": squared_distances,
                "mixed_segment_distances": mixed_segment_distances}
    saved = {name: getattr(kernels, name) for name in composed}
    for name, op in composed.items():
        setattr(kernels, name, op)
    try:
        return kernels.merge(spec, pair)
    finally:
        for name, op in saved.items():
            setattr(kernels, name, op)
