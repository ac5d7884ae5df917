"""The top layer runs only for the pooled token the classifier reads."""

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import model as model_mod
from fedtune import tensor_nn as tn
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import ContractViolation
from fedtune.model import ModelSpec, PrefixStore, build_model, forward
from fedtune.tensor_nn import SeededRng

from conftest import F32_EPS, assert_equal_on_skylakex

MID = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128,
                vocab=200, seqlen=32, num_labels=4)


def unpooled_forward(model, tokens):
    """Every layer on every position, then first-token pooling: the forward before pooling."""
    h = tn.add(tn.embedding(model.tok_embed, tokens),
               tn.embedding(model.pos_embed, np.arange(tokens.shape[1])))
    for block in model.blocks:
        attn_out = tn.multi_head_attention(h, block.attn, model.spec.heads)
        h = tn.layer_norm(tn.add(h, attn_out), block.ln1_gain, block.ln1_shift,
                          model_mod.LN_EPS)
        ffn_out = tn.linear_forward(
            tn.relu(tn.linear_forward(h, block.ffn_w1, block.ffn_b1)),
            block.ffn_w2, block.ffn_b2)
        h = tn.layer_norm(tn.add(h, ffn_out), block.ln2_gain, block.ln2_shift,
                          model_mod.LN_EPS)
        for meta in block.adapters:
            bottleneck = tn.relu(tn.linear_forward(h, meta.w_down, meta.b_down))
            h = tn.add(h, tn.linear_forward(bottleneck, meta.w_up, meta.b_up))
    return tn.linear_forward(tn.first_token(h), model.cls_w, model.cls_b)


@pytest.fixture(scope="module")
def mid_adapted():
    return adapter_mod.materialize(
        build_model(MID, 1), TuningScheme("adapter", AdapterConfig(2, 16, 8)), rng=SeededRng(3))


@pytest.mark.parametrize("batch", [2, 7, 8, 32])
def test_mid_shape_logits_bit_identical_to_unpooled(mid_adapted, batch):
    """Bit-identical on SkylakeX; under other kernels the GEMMs' row counts may round apart."""
    tokens = SeededRng(batch).integers(0, MID.vocab, size=(batch, MID.seqlen))
    assert_equal_on_skylakex(forward(mid_adapted, tokens).data,
                             unpooled_forward(mid_adapted, tokens).data, atol=4 * F32_EPS)


@pytest.mark.parametrize("shape,batch", [("mid", 1), ("tiny", 1), ("tiny", 2), ("tiny", 3)])
def test_single_sample_and_tiny_logits_within_4_eps(mid_adapted, tiny_model, shape, batch):
    # one sample turns the top layer's GEMMs into matrix-vector products,
    # which may round differently
    model = mid_adapted if shape == "mid" else tiny_model
    spec = model.spec
    tokens = SeededRng(40 + batch).integers(0, spec.vocab, size=(batch, spec.seqlen))
    pooled, reference = forward(model, tokens).data, unpooled_forward(model, tokens).data
    assert np.allclose(pooled, reference, rtol=0, atol=4 * F32_EPS)
    assert np.array_equal(pooled.argmax(axis=1), reference.argmax(axis=1))


def _as_float64(model):
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


@pytest.mark.parametrize("scheme", [TuningScheme("full"), TuningScheme("freeze", frozen_layers=1)],
                         ids=["full_ft", "layer_freeze"])
def test_grad_check_through_trainable_pooled_top_layer(tiny_model, tiny_tokens, scheme):
    model = _as_float64(adapter_mod.materialize(tiny_model, scheme))
    top = model.blocks[-1]
    assert all(p.trainable for p in top.backbone_params())
    labels = np.array([0, 1, 2])

    def loss():
        return tn.cross_entropy_loss(forward(model, tiny_tokens), labels)

    params = model.trainable_parameters()
    assert tn.grad_check(loss, params, step=1e-6, max_coords_per_param=6,
                         rng=SeededRng(2)) < 1e-5


def test_store_keeps_one_position_at_the_top_layer(tiny_spec):
    backbone = build_model(tiny_spec, 3)
    tokens = SeededRng(6).integers(0, tiny_spec.vocab, size=(4, tiny_spec.seqlen))
    store = PrefixStore(backbone)
    depth = tiny_spec.num_layers
    top = store.activation(depth, ("test", 0), tokens)
    below = store.activation(depth - 1, ("test", 0), tokens)
    assert top.shape == (4, 1, tiny_spec.hidden)
    assert below.shape == (4, tiny_spec.seqlen, tiny_spec.hidden)
    model = adapter_mod.materialize(backbone, TuningScheme("adapter", AdapterConfig(1, 8, 8)),
                                    rng=SeededRng(1))
    assert np.array_equal(model_mod.forward_from_boundary(model, depth, top).data,
                          forward(model, tokens).data)
    with pytest.raises(ContractViolation, match="shape"):
        model_mod.forward_from_boundary(model, depth, below)
