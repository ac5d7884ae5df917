"""Stacked frozen-prefix passes and the uncopied key view keep every chunk's bits.

``compute_boundary_activation`` on stacked [G, B, S] tokens builds G chunks in
one pass, as ``PrefixStore.prefetch`` runs it; every GEMM still runs per
chunk, so each chunk must have the bits of its own pass. Recording no graph,
``bmm`` multiplies attention's transposed keys as a strided view unless the
query has one row, which must give the bits of the keys' contiguous copy;
recording, it still copies them. The backbone's
layer-norm gains and shifts and its biases are drawn off 1 and 0, so a slip
in how they are applied cannot keep the bits. ``test_trace_kernels.py``
re-runs these equalities in child processes under other OpenBLAS kernels.
"""

import numpy as np
import pytest

from fedtune import tensor_nn as tn
from fedtune.model import PASS_SAMPLES, ModelSpec, compute_boundary_activation
from fedtune.tensor_nn import Tensor

from conftest import blas_core_name, drawn_backbone

MID = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128, vocab=200, seqlen=32, num_labels=4)
# the pooled top layer at the mid shape: [B, h, S, d] heads
BATCH, HEADS, SEQLEN, HEAD_DIM = 8, 4, 32, 16


@pytest.fixture(scope="module")
def backbone():
    return drawn_backbone(MID, 4)


# the batch sizes autofed worlds hold, each stacked as prefetch stacks it
@pytest.mark.parametrize("batch", [8, 7, 1])
def test_stacked_pass_equals_one_pass_per_chunk(backbone, batch):
    stack = PASS_SAMPLES // batch
    tokens = tn.SeededRng(batch).integers(0, MID.vocab, size=(stack, batch, MID.seqlen))
    for resume in range(MID.num_layers + 1):
        stacked = compute_boundary_activation(backbone, tokens, resume)
        assert stacked.shape[:2] == (stack, batch)
        for g in range(stack):
            alone = compute_boundary_activation(backbone, tokens[g], resume)
            assert stacked[g].tobytes() == alone.tobytes(), \
                f"resume {resume}, chunk {g}, BLAS kernel {blas_core_name()}"


def _heads(rng, rows):
    """A [B, rows, h, d] projection; ``multi_head_attention`` splits it as its [B, h, rows, d] view."""
    return rng.normal(0.0, 1.0, (BATCH, rows, HEADS, HEAD_DIM)).astype(np.float32)


@pytest.fixture
def copies(monkeypatch):
    """The shapes of the strided operands ``bmm`` copied to contiguous memory."""
    copied = []

    def spy(a, _inner=tn._unit_stride_rows):
        out = _inner(a)
        if out is not a:
            copied.append(a.shape)
        return out

    monkeypatch.setattr(tn, "_unit_stride_rows", spy)
    return copied


def _key_product(q, k, *, record, contiguous_keys=False):
    """bmm(q, k^T) of split heads; recorded, backward from a fixed upstream gradient.

    Returns the product and, recorded, both leaves' gradients, each C-ordered,
    the key gradient as [B, S, h, d]. With ``contiguous_keys`` the key operand
    holds k^T's contiguous copy, as the product's reference.
    """
    q_leaf = Tensor(q, requires_grad=record)
    if contiguous_keys:
        k_leaf = Tensor(np.ascontiguousarray(k.transpose(0, 2, 3, 1)), requires_grad=record)
        keys = k_leaf
    else:
        k_leaf = Tensor(k, requires_grad=record)
        keys = tn.transpose(tn.transpose(k_leaf, (0, 2, 1, 3)), (0, 1, 3, 2))
    out = tn.bmm(tn.transpose(q_leaf, (0, 2, 1, 3)), keys)
    if not record:
        return [out.data]
    dout = np.random.default_rng(6).normal(0.0, 1.0, out.shape).astype(np.float32)
    root = Tensor(np.zeros((), np.float32))
    root.node = tn.Node((out.node,), lambda _: setattr(out, "grad", dout))
    root.backward()
    k_grad = k_leaf.grad.transpose(0, 3, 1, 2) if contiguous_keys else k_leaf.grad
    return [np.ascontiguousarray(a) for a in (out.data, q_leaf.grad, k_grad)]


def _assert_same_bits(got, want):
    for name, a, b in zip(("product", "query gradient", "key gradient"), got, want):
        assert a.tobytes() == b.tobytes(), f"{name}, BLAS kernel {blas_core_name()}"


@pytest.mark.parametrize("rows", [SEQLEN, 2])
def test_graph_free_multi_row_query_against_the_key_view_equals_the_copy(copies, rows):
    rng = np.random.default_rng(rows)
    q, k = _heads(rng, rows), _heads(rng, SEQLEN)
    got = _key_product(q, k, record=False)
    assert not copies  # k^T is multiplied as the strided view it is
    _assert_same_bits(got, _key_product(q, k, record=False, contiguous_keys=True))


def test_graph_free_one_row_query_still_copies_the_keys(copies):
    rng = np.random.default_rng(1)
    q, k = _heads(rng, 1), _heads(rng, SEQLEN)
    got = _key_product(q, k, record=False)
    assert copies == [(BATCH, HEADS, HEAD_DIM, SEQLEN)]
    _assert_same_bits(got, _key_product(q, k, record=False, contiguous_keys=True))


# against the view, the query gradient differs from the copy's in the last bits on SkylakeX
@pytest.mark.parametrize("rows", [SEQLEN, 1])
def test_recording_product_copies_the_keys(copies, rows):
    rng = np.random.default_rng(10 + rows)
    q, k = _heads(rng, rows), _heads(rng, SEQLEN)
    got = _key_product(q, k, record=True)
    assert copies == [(BATCH, HEADS, HEAD_DIM, SEQLEN)]
    _assert_same_bits(got, _key_product(q, k, record=True, contiguous_keys=True))
