"""Backward rebuilds what the graph does not keep, and gives the same bits.

A linear map that reads a recording layer norm's output keeps the norm's
``recompute`` instead of the output, and a ReLU reads its mask off its
output (see the ``tensor_nn`` module docstring). The reference here runs
the same step with every layer-norm output kept and every ReLU mask saved.
The backbone's biases, layer-norm gains and shifts are moved off 0 and 1,
where ``build_model`` starts them, so a slip in rebuilding the output shows.
"""

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import tensor_nn as tn
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.model import ModelSpec, build_model, forward

MID_SPEC = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128, vocab=200, seqlen=32,
                     num_labels=4)

SCHEMES = {
    "full_ft": TuningScheme("full"),
    "adapter_2_16": TuningScheme("adapter", AdapterConfig(2, 16)),
}


def _moved_model(scheme):
    model = adapter_mod.materialize(build_model(MID_SPEC, 4), scheme, tn.SeededRng(3))
    rng = np.random.default_rng(4)
    for p in model.parameters():
        if p.data.ndim == 1:
            p.data[:] = p.data + rng.normal(0.0, 0.2, p.data.shape)
    return model


def _relu_keeping_its_mask(x, _relu=tn.relu):
    nx = x.node
    if nx is None:
        return _relu(x)
    mask = x.data > 0.0

    def bwd(dout):
        tn._accumulate(nx, dout * mask)
    return tn._recorded(x.data * mask, (nx,), bwd)


def _layer_norm_keeping_its_output(*args, _layer_norm=tn.layer_norm):
    out = _layer_norm(*args)
    if out.node is not None:
        out.node.recompute = None
    return out


def _step_gradients(model):
    tokens = tn.SeededRng(5).integers(0, MID_SPEC.vocab, size=(8, MID_SPEC.seqlen))
    trainable = model.trainable_parameters()
    tn.cross_entropy_loss(forward(model, tokens), np.arange(8) % MID_SPEC.num_labels).backward()
    grads = {p.name: p.grad.tobytes() for p in trainable}
    tn.clear_grads(trainable)
    return grads


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_step_gradients_equal_those_of_a_graph_keeping_every_activation(monkeypatch, scheme):
    model = _moved_model(SCHEMES[scheme])
    rebuilt = [0]

    def counting_layer_norm(*args, _layer_norm=tn.layer_norm):
        out = _layer_norm(*args)
        if out.node is not None:
            inner = out.node.recompute

            def recompute():
                rebuilt[0] += 1
                return inner()
            out.node.recompute = recompute
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tn, "layer_norm", counting_layer_norm)
        grads = _step_gradients(model)
    assert rebuilt[0] > 0  # a linear map rebuilt a layer norm's output
    with monkeypatch.context() as patch:
        patch.setattr(tn, "layer_norm", _layer_norm_keeping_its_output)
        patch.setattr(tn, "relu", _relu_keeping_its_mask)
        reference = _step_gradients(model)
    assert list(grads) == list(reference) and len(grads) > 0
    for name, expected in reference.items():
        assert grads[name] == expected, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_gradient_reads_the_forward_mask_off_its_output(dtype):
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45,
                np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.0, -1.0]
    x = np.array(specials + list(np.random.default_rng(9).normal(0.0, 1.0, 20)), dtype)
    dout = np.random.default_rng(10).normal(0.0, 1.0, x.shape).astype(dtype)
    xt = tn.Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
        out = tn.relu(xt)
        expected = x * (x > 0.0)
    out.node.bwd(dout)
    assert out.data.tobytes() == expected.tobytes()
    assert xt.grad.tobytes() == (dout * (x > 0.0)).tobytes()
