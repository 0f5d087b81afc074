"""Plain numpy evaluation of the kernel merges, written from their definitions.

Entry (i, j) of a merge compares row i of B (m x r) with row j of A (n x r):

- linear:   b_i . a_j
- p-linear: sum_p alpha_p * ||b_i[s_p] - a_j[s_p]||, where segment p spans
            columns floor(r (p-1) / P) .. floor(r p / P) - 1
- mix-k:    K + alpha * softmax_down_columns(K) + beta, with K the p-linear
            matrix

It shares no code with `klora.kernels` and serves only as the benchmark's
output check.
"""

from __future__ import annotations

import numpy as np

ROW_CHUNK = 64


def piecewise_distances(a: np.ndarray, b: np.ndarray, alpha_p: np.ndarray) -> np.ndarray:
    m, r = b.shape
    pieces = len(alpha_p)
    cuts = [r * p // pieces for p in range(pieces + 1)]
    out = np.zeros((m, a.shape[0]))
    for i0 in range(0, m, ROW_CHUNK):
        diff = b[i0:i0 + ROW_CHUNK, None, :] - a[None, :, :]
        for p in range(pieces):
            seg = diff[..., cuts[p]:cuts[p + 1]]
            out[i0:i0 + ROW_CHUNK] += alpha_p[p] * np.sqrt((seg * seg).sum(axis=-1))
    return out


def reference_merge(kind: str, coefficients: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return b @ a.T
    if kind == "p-linear":
        return piecewise_distances(a, b, coefficients)
    if kind == "mix-k":
        alpha_p, alpha, beta = coefficients[:-2], coefficients[-2], coefficients[-1]
        k = piecewise_distances(a, b, alpha_p)
        e = np.exp(k - k.max(axis=0, keepdims=True))
        return k + alpha * e / e.sum(axis=0, keepdims=True) + beta
    raise ValueError(f"no reference for kernel kind {kind!r}")
