"""The per-kind fit behind the joint one: the test oracle.

`klora.experiments._fit` fits every kernel kind of an experiment at once:
the K kinds' merges are stacked into one (K, S, m, n) array, one fused op
gives all K x S mean squared errors, and one backward pass and one Adam step
serve every kind. Before that, each kind ran a fit of its own, with its own
loss chain (subtract, square, mean), its own backward pass and its own
optimizer. `fit` is that fit, built from the package's own merge, tensor
ops and optimizer, and `patched_in()` swaps it in for `_fit`, so a whole
driver can be replayed on it and compared bit for bit.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from klora import experiments
from klora.experiments import _fresh_factors
from klora.kernels import KINDS, KernelSpec, LowRankPair, merge
from klora.model import Adam
from klora.tensor import Tensor, backward, reduce_mean, reduce_sum, square, sub


def fit(kind, targets, seeds, r, steps, lr, pieces, factor_std, record_points=40,
        init_scale=None, canonical_coeffs=False, piece_init_eps=0.0) -> list:
    """Fit one kernel to every seed's target (S, m, n) at once; one run dict per seed."""
    _, m, n = targets.shape
    factors = [_fresh_factors(kind, np.random.default_rng([seed, 0xF1]), m, n, r, factor_std,
                              scale=init_scale) for seed in seeds]
    pair = LowRankPair(A=Tensor(np.stack([a for a, _ in factors]), requires_grad=True),
                       B=Tensor(np.stack([b for _, b in factors]), requires_grad=True))
    if canonical_coeffs:
        spec = KernelSpec.canonical(kind, pieces=pieces, trainable=True)
    else:
        spec = KernelSpec.zero_init(kind, pieces=pieces)
        if piece_init_eps and KINDS[kind].piecewise:
            alpha_p = spec.coeffs[0]
            signs = np.where(np.arange(alpha_p.data.size) % 2 == 0, 1.0, -1.0)
            alpha_p.data[:] = piece_init_eps * signs
    spec = spec.stacked(len(seeds))
    params = [pair.A, pair.B, *spec.coefficients()]
    opt = Adam(params, lr=lr)
    target_t = Tensor(targets)
    record_every = max(1, steps // record_points) if steps else 1
    traces = [[] for _ in seeds]
    grad_traces = [[] for _ in seeds]
    live = np.ones(len(seeds), dtype=bool)
    held = None  # parameters of the diverged seeds, as of their divergence
    for step in range(steps):
        opt.zero_grad()
        losses = reduce_mean(square(sub(merge(spec, pair), target_t)), axis=(-2, -1))
        values = losses.data
        diverging = live & ~np.isfinite(values)
        if diverging.any():
            live &= ~diverging
            if not live.any():
                break
            held = [p.data[~live] for p in params]
        backward(reduce_sum(losses))
        if step % record_every == 0:
            mag = np.abs(pair.A.grad).sum(axis=(-2, -1)) + np.abs(pair.B.grad).sum(axis=(-2, -1))
            for s in np.flatnonzero(live):
                traces[s].append([step, float(values[s])])
                grad_traces[s].append([step, float(mag[s]) / ((m + n) * r)])
        opt.step()
        if held is not None:
            for p, kept in zip(params, held):
                p.data[~live] = kept
    finals = reduce_mean(square(sub(merge(spec, pair), target_t)), axis=(-2, -1)).data
    return [{"final_mse": float(final), "diverged": not (ok and math.isfinite(final)),
             "trace": trace, "grad_trace": grad_trace}
            for final, ok, trace, grad_trace in zip(finals, live, traces, grad_traces)]


def fit_each(kinds, targets, seeds, *args, **kwargs) -> list:
    """`_fit`'s signature and result, one `fit` per kind; targets (S, m, n) or (K, S, m, n)."""
    targets = np.broadcast_to(targets, (len(kinds), *targets.shape[-3:]))
    return [fit(kind, target, seeds, *args, **kwargs) for kind, target in zip(kinds, targets)]


@contextlib.contextmanager
def patched_in():
    """Run the drivers with one fit per kind in place of the joint fit."""
    joint = experiments._fit
    experiments._fit = fit_each
    try:
        yield
    finally:
        experiments._fit = joint
