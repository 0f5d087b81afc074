"""`stack_adapters`, the one rule that puts adapters on a leading axis.

A stack's slice must merge, and take gradients, bit for bit as its member
does on its own; a step of the stack in place must be seen through every
member's own tensors; and only piecewise kinds share a stack, those with
more coefficients first. `adapter_leaves` is the one leaf order, and
`adapter_on` its inverse.
"""

import numpy as np
import pytest

from klora.kernels import (KINDS, KernelKind, KernelSpec, LowRankPair, adapter_leaves,
                           adapter_on, merge, stack_adapters)
from klora.tensor import Tensor, backward, mul, reduce_sum

M, N, R, PIECES = 6, 5, 4, 2


def adapter(kind, seed, lead=()):
    """An adapter with drawn factors and coefficients away from their initial values."""
    rng = np.random.default_rng([seed, KINDS[KernelKind(kind)].kind_id])
    values = KernelSpec.canonical(kind, pieces=PIECES).coefficient_values()
    values = values + 0.5 + 0.1 * rng.uniform(size=values.size)
    spec = KernelSpec.from_coefficient_values(kind, values)
    pair = LowRankPair(A=Tensor(rng.normal(size=(*lead, N, R)), requires_grad=True),
                       B=Tensor(rng.normal(size=(*lead, M, R)), requires_grad=True))
    if lead:  # one spec for the stack: its coefficients (lead..., P) and (lead..., 1, 1)
        spec = spec.with_coefficients(
            Tensor(np.broadcast_to(c.data.reshape(c.data.shape or (1, 1)),
                                   (*lead, *(c.data.shape or (1, 1)))).copy(), requires_grad=True)
            for c in spec.coeffs)
    return spec, pair


def merged_and_gradients(spec, pair, weights):
    """The merge and each leaf's gradient of sum(weights * merge), in `adapter_leaves` order."""
    out = merge(spec, pair)
    backward(reduce_sum(mul(out, Tensor(weights))))
    return out.data, [leaf.grad for leaf in adapter_leaves(spec, pair)]


def assert_same_bits(got, want):
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# kinds in stack order: one kind, or piecewise kinds with more coefficients first
MEMBERS = [[kind.value] * 3 for kind in KernelKind] + [
    ["mix-k", "mix-k", "p-linear"], ["mix-k", "p-linear", "p-linear"]]


@pytest.mark.parametrize("kinds", MEMBERS, ids=["-".join(kinds) for kinds in MEMBERS])
def test_each_slice_merges_and_takes_gradients_as_its_member_alone(kinds):
    weights = np.random.default_rng(1).normal(size=(len(kinds), M, N))
    spec, pair = stack_adapters([adapter(kind, k) for k, kind in enumerate(kinds)])
    stacked, grads = merged_and_gradients(spec, pair, weights)
    for k, kind in enumerate(kinds):
        alone, want = merged_and_gradients(*adapter(kind, k), weights[k])
        assert_same_bits(stacked[k], alone)
        # coefficient c's slice k belongs to member k: the members that have it come first
        for got, member_grad in zip(grads, want):
            assert_same_bits(got[k].reshape(member_grad.shape), member_grad)


def test_a_stack_of_stacks_merges_as_its_stacks():
    # the fits' block: seed stacks of mix-k and p-linear stacked once more
    weights = np.random.default_rng(2).normal(size=(2, 3, M, N))
    spec, pair = stack_adapters([adapter(kind, 0, lead=(3,)) for kind in ("mix-k", "p-linear")])
    stacked, _ = merged_and_gradients(spec, pair, weights)
    for k, kind in enumerate(("mix-k", "p-linear")):
        assert_same_bits(stacked[k], merged_and_gradients(*adapter(kind, 0, lead=(3,)),
                                                          weights[k])[0])


def test_an_in_place_step_of_the_stack_is_seen_through_every_member():
    members = [adapter("mix-k", 0), adapter("mix-k", 1), adapter("p-linear", 2)]
    spec, pair = stack_adapters(members)
    shapes = [[leaf.data.shape for leaf in adapter_leaves(*member)] for member in members]
    for leaf in adapter_leaves(spec, pair):
        leaf.data -= 0.25 * np.arange(leaf.data.size).reshape(leaf.data.shape)
    for k, member in enumerate(members):
        leaves = adapter_leaves(*member)
        assert [leaf.data.shape for leaf in leaves] == shapes[k]
        for leaf, block in zip(leaves, adapter_leaves(spec, pair)):
            assert np.shares_memory(leaf.data, block.data)
            np.testing.assert_array_equal(leaf.data, block.data[k].reshape(leaf.data.shape))


def test_a_stack_keeps_its_members_values_and_trainability():
    members = [adapter("rbf", 0), adapter("rbf", 1)]
    values = [[leaf.data.copy() for leaf in adapter_leaves(*member)] for member in members]
    spec, pair = stack_adapters(members)
    assert (spec.kind, spec.pieces, pair.A.data.shape, pair.B.data.shape) == (
        KernelKind.RBF, PIECES, (2, N, R), (2, M, R))
    assert [c.data.shape for c in spec.coeffs] == [(2, 1, 1)] * 3
    assert all(leaf.requires_grad for leaf in adapter_leaves(spec, pair))
    for k, member in enumerate(values):
        for want, block in zip(member, adapter_leaves(spec, pair)):
            np.testing.assert_array_equal(block.data[k].reshape(want.shape), want)


@pytest.mark.parametrize("kinds", [
    ["sigmoid", "rbf"],  # kinds of equal coefficient counts, neither piecewise
    ["p-linear", "mix-k"],  # the kind with fewer coefficients first
    ["mix-k", "linear"],  # a kind that is not piecewise
], ids=["sigmoid-rbf", "p-linear-ahead-of-mix-k", "mix-k-linear"])
def test_other_mixes_of_kinds_are_rejected(kinds):
    with pytest.raises(ValueError, match="only piecewise kinds share a stack"):
        stack_adapters([adapter(kind, k) for k, kind in enumerate(kinds)])


def test_unequal_pieces_or_shapes_are_rejected():
    spec, pair = adapter("p-linear", 0)
    other = KernelSpec.zero_init("p-linear", pieces=3)
    with pytest.raises(ValueError, match="equal piece counts and factor shapes"):
        stack_adapters([(spec, pair), (other, adapter("p-linear", 1)[1])])
    small = LowRankPair(A=Tensor(np.zeros((N, R - 1))), B=Tensor(np.zeros((M, R - 1))))
    with pytest.raises(ValueError, match="equal piece counts and factor shapes"):
        stack_adapters([(spec, pair), (KernelSpec.zero_init("p-linear", pieces=PIECES), small)])


@pytest.mark.parametrize("kind", list(KernelKind))
def test_adapter_on_inverts_adapter_leaves(kind):
    spec, pair = adapter(kind, 0)
    leaves = adapter_leaves(spec, pair)
    assert list(map(id, leaves)) == list(map(id, [pair.A, pair.B, *spec.coeffs]))
    rebuilt = adapter_on(spec, leaves)
    assert all(a is b for a, b in zip(adapter_leaves(*rebuilt), leaves))
    assert (rebuilt[0].kind, rebuilt[0].pieces) == (spec.kind, spec.pieces)
