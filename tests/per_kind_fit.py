"""The per-kind fit behind the joint one: the test oracle.

`klora.experiments._fit` fits every kernel kind of an experiment at once:
the K kinds' merges are stacked into one (K, S, m, n) array, one fused op
gives all K x S mean squared errors, and one backward pass and one Adam step
serve every kind. Before that, each kind ran a fit of its own, with its own
loss chain (subtract, square, mean), its own backward pass and its own
optimizer. `fit` is that fit, built from the package's own merge, tensor
ops and optimizer, with its own stacking of the seeds' adapters, and
`patched_in()` swaps it in for `_fit`, so a whole driver can be replayed on
it and compared bit for bit. `adapters` draws the fits' adapters as the two
fit drivers do.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from klora import experiments
from klora.kernels import KINDS, KernelSpec, LowRankPair, merge
from klora.model import Adam
from klora.tensor import Tensor, backward, reduce_mean, reduce_sum, square, sub


def draw(kind, seed, m, n, r, pieces, factor_std=1.0, init_scale=None,
         canonical_coeffs=False, piece_init_eps=0.0) -> tuple:
    """One seed's 2-D adapter (spec, pair) for a fit: Gaussian factors (B at zero
    for a kind without coefficients) or, given `init_scale`, uniform ones in
    [-init_scale, init_scale]; zero-init coefficients, the piece ones at
    (+eps, -eps, ...) for `piece_init_eps`, or canonical ones."""
    rng = np.random.default_rng([seed, 0xF1])
    if init_scale is not None:
        a = rng.uniform(-init_scale, init_scale, size=(n, r))
        b = rng.uniform(-init_scale, init_scale, size=(m, r))
    else:
        a = factor_std * rng.normal(size=(n, r))
        b = factor_std * rng.normal(size=(m, r))
        if not KINDS[kind].coefficients:
            b = np.zeros((m, r))
    if canonical_coeffs:
        spec = KernelSpec.canonical(kind, pieces=pieces, trainable=True)
    else:
        spec = KernelSpec.zero_init(kind, pieces=pieces)
        if piece_init_eps and KINDS[kind].piecewise:
            alpha_p = spec.coeffs[0]
            signs = np.where(np.arange(alpha_p.data.size) % 2 == 0, 1.0, -1.0)
            alpha_p.data[:] = piece_init_eps * signs
    return spec, LowRankPair(A=Tensor(a, requires_grad=True), B=Tensor(b, requires_grad=True))


def adapters(kinds, seeds, m, n, **init) -> list:
    """`_fit`'s `fits`: one list of fresh `draw`s per kind, one per seed."""
    return [[draw(kind, seed, m, n, **init) for seed in seeds] for kind in kinds]


def fit(kind_fits, targets, steps, lr, record_points=40) -> list:
    """Fit one kernel's 2-D adapters, one per seed, to every seed's target (S, m, n)
    at once; one run dict per seed. The adapters' values are copied, not stepped."""
    _, m, n = targets.shape
    seeds = range(len(kind_fits))
    specs, pairs = zip(*kind_fits)
    pair = LowRankPair(A=Tensor(np.stack([p.A.data for p in pairs]), requires_grad=True),
                       B=Tensor(np.stack([p.B.data for p in pairs]), requires_grad=True))
    r = pair.r
    # a per-piece coefficient stacks to (S, P) and a scalar one to (S, 1, 1)
    spec = specs[0].with_coefficients(
        Tensor(np.stack([c.data for c in column]).reshape(
            len(column), *(column[0].data.shape or (1, 1))), requires_grad=True)
        for column in zip(*(spec.coeffs for spec in specs)))
    params = [pair.A, pair.B, *spec.coeffs]
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


def fit_each(fits, targets, *args, **kwargs) -> list:
    """`_fit`'s signature and result, one `fit` per kind; targets (S, m, n) or (K, S, m, n)."""
    targets = np.broadcast_to(targets, (len(fits), *targets.shape[-3:]))
    return [fit(kind_fits, target, *args, **kwargs) for kind_fits, target in zip(fits, targets)]


@contextlib.contextmanager
def patched_in():
    """Run the drivers with one fit per kind in place of the joint fit."""
    joint = experiments._fit
    experiments._fit = fit_each
    try:
        yield
    finally:
        experiments._fit = joint
