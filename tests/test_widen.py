"""Widening grows each adapted layer's one bottleneck beside its trained units.

``adapter.widen`` turns D [n, w], b [w] and U [w, n] into D' [n, w + s],
b' [w + s] and U' [w + s, n], and keeps c. Their first w columns, entries
and rows are the trained bytes, so with the new rows of U' set to zero the
widened adapter computes the trained one's function. Its logits then differ
from the parent's by GEMM rounding alone: the kernels block the wider
products otherwise, which is why ``test_trace_kernels.py`` runs this file
under each OpenBLAS kernel.
"""

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import fed as fed_mod
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.model import forward
from fedtune.tensor_nn import SeededRng

from conftest import F32_EPS

STEP = 8
CONFIGS = pytest.mark.parametrize("depth, width", [(1, 8), (2, 16)])


def _train(world, model, depth: int, width: int) -> None:
    """One local epoch of client 0 on ``model``, without the activation cache."""
    fed_mod.local_train(world.server.registry[0], model,
                        TuningScheme("adapter", AdapterConfig(depth, width)),
                        epochs=1, lr=0.1, depth_watermark=0, store=None)


def _parent(world, depth: int, width: int):
    """A trained (depth, width) model on the world's backbone; training moves c off zero."""
    model = adapter_mod.materialize(
        world.backbone, TuningScheme("adapter", AdapterConfig(depth, width)), rng=SeededRng(1))
    _train(world, model, depth, width)
    return model


def _bytes(model) -> dict[str, bytes]:
    return {p.name: p.data.tobytes() for p in model.parameters()}


@CONFIGS
def test_widen_keeps_every_trained_byte(small_world, depth, width):
    parent = _parent(small_world, depth, width)
    before = _bytes(parent)
    wider = adapter_mod.widen(parent, STEP, SeededRng(6))
    assert wider.adapted_layers() == parent.adapted_layers()
    for layer in parent.adapted_layers():
        old, new = parent.blocks[layer - 1].adapter, wider.blocks[layer - 1].adapter
        assert new.w_down.data.shape == (parent.spec.hidden, width + STEP)
        assert new.w_down.data[:, :width].tobytes() == old.w_down.data.tobytes()
        assert new.b_down.data[:width].tobytes() == old.b_down.data.tobytes()
        assert new.w_up.data[:width].tobytes() == old.w_up.data.tobytes()
        assert new.b_up.data.tobytes() == old.b_up.data.tobytes()
        assert not new.b_down.data[width:].any()

    _train(small_world, wider, depth, width + STEP)
    assert _bytes(wider) != _bytes(adapter_mod.widen(parent, STEP, SeededRng(6)))
    assert _bytes(parent) == before  # the widened model trains arrays of its own


@CONFIGS
def test_widening_adds_a_zero_unit_to_the_parents_function(small_world, depth, width):
    parent = _parent(small_world, depth, width)
    wider = adapter_mod.widen(parent, STEP, SeededRng(6))
    for layer in wider.adapted_layers():
        wider.blocks[layer - 1].adapter.w_up.data[width:] = 0.0
    tokens = small_world.test_tokens
    got, want = forward(wider, tokens).data, forward(parent, tokens).data
    assert np.abs(got - want).max() <= 4 * F32_EPS
