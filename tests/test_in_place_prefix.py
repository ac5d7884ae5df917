"""Graph-free passes write into the arrays they own, and compute the same bits.

A ``tensor_nn`` op that records no graph may write its result into an owned
input it consumes (see the ``tensor_nn`` module docstring). The reference
here runs the same ops with the embedding tables made leaves that require a
gradient, so that every op records a graph and none writes in place. Both
sides run the same GEMM shapes, so the equalities hold on any BLAS kernel.
"""

import hashlib
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from fedtune import model as model_mod
from fedtune import session as session_mod
from fedtune import tensor_nn as tn
from fedtune.model import ModelSpec, build_model, compute_boundary_activation, forward

from conftest import blas_core_name, small_session_doc

SPECS = {
    "tiny": ModelSpec(num_layers=2, hidden=8, heads=2, ffn_dim=16,
                      vocab=12, seqlen=5, num_labels=3),
    "mid": ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128,
                     vocab=200, seqlen=32, num_labels=4),
}


@contextmanager
def recording(model, monkeypatch):
    """Every op records a graph: the embedding tables require a gradient, nothing is owned."""
    def never_owned(data):
        raise AssertionError("an op ran without recording a graph")

    tables = (model.tok_embed, model.pos_embed)
    with monkeypatch.context() as patch:
        patch.setattr(tn, "_owned", never_owned)
        for t in tables:
            t.requires_grad = True
        try:
            yield
        finally:
            for t in tables:
                t.requires_grad = False


@pytest.fixture
def consumed(monkeypatch):
    """How many times a graph-free op wrote into an input it consumed."""
    count = [0]

    def counting(t, other=None, _inner=tn._consume):
        data = _inner(t, other)
        count[0] += data is not None
        return data

    monkeypatch.setattr(tn, "_consume", counting)
    return count


@pytest.fixture(scope="module", params=sorted(SPECS))
def backbone(request):
    """A frozen backbone whose biases, layer-norm gains and shifts are not 0 and 1.

    ``build_model`` starts them at 0 and 1, under which a slip in how they
    are applied could keep the bits.
    """
    model = build_model(SPECS[request.param], 4)
    rng = np.random.default_rng(4)
    for p in model.parameters():
        if p.data.ndim == 1:
            p.data[:] = p.data + rng.normal(0.0, 0.2, p.data.shape)
    return model


@pytest.mark.parametrize("batch", [1, 7, 8, 32])
def test_boundary_activation_equals_the_recorded_pass(backbone, monkeypatch, consumed, batch):
    spec = backbone.spec
    tokens = tn.SeededRng(batch).integers(0, spec.vocab, size=(batch, spec.seqlen))
    for resume in range(spec.num_layers + 1):
        before = consumed[0]
        in_place = compute_boundary_activation(backbone, tokens, resume)
        assert consumed[0] > before, resume
        with recording(backbone, monkeypatch):
            reference = compute_boundary_activation(backbone, tokens, resume)
        assert in_place.dtype == reference.dtype == np.float32
        assert in_place.tobytes() == reference.tobytes(), \
            f"resume {resume}, BLAS kernel {blas_core_name()}"


@pytest.mark.parametrize("batch", [1, 7, 8, 32])
def test_graph_free_logits_equal_the_recorded_pass(backbone, monkeypatch, consumed, batch):
    spec = backbone.spec
    tokens = tn.SeededRng(50 + batch).integers(0, spec.vocab, size=(batch, spec.seqlen))
    with model_mod._graph_free(backbone):
        logits = forward(backbone, tokens)
    assert logits.node is None and consumed[0] > 0
    with recording(backbone, monkeypatch):
        reference = forward(backbone, tokens)
    assert reference.node is not None
    assert logits.data.tobytes() == reference.data.tobytes(), f"BLAS kernel {blas_core_name()}"


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# climbs (0, 8) -> (1, 8) -> (2, 8) -> (3, 8) -> (3, 16) on a 3-layer model
@pytest.mark.parametrize("doc", [
    small_session_doc(mode="autofed", max_rounds=12, configurator={"trial_intvl_s": 1.0}),
    small_session_doc(mode="full_ft", max_rounds=3),
], ids=["autofed_climb", "full_ft"])
def test_session_leaves_backbone_and_store_chunks_unchanged(monkeypatch, tmp_path, doc):
    worlds, chunks = [], []

    def keeping_world(cfg, _inner=session_mod.build_world):
        world = _inner(cfg)
        worlds.append((world, [_sha(p.data) for p in world.backbone.parameters()]))
        return world

    def hashing_activation(self, resume, key, tokens, _inner=model_mod.PrefixStore.activation):
        act = _inner(self, resume, key, tokens)
        if not any(a is act for a, _ in chunks):
            chunks.append((act, _sha(act)))
        return act

    monkeypatch.setattr(session_mod, "build_world", keeping_world)
    monkeypatch.setattr(model_mod.PrefixStore, "activation", hashing_activation)
    result = session_mod.run_session_config(session_mod.config_from_dict(doc),
                                            str(tmp_path / "t.jsonl"))
    [(world, backbone_before)] = worlds
    assert [_sha(p.data) for p in world.backbone.parameters()] == backbone_before
    assert all(_sha(act) == sha for act, sha in chunks)
    if doc["mode"] == "autofed":
        assert result.summary["depth_increases"] >= 2 and len(chunks) > 50
    else:
        assert not chunks


def test_mid_shape_build_peak():
    # one graph-free B = 32 frozen-prefix build through every layer, as the store makes
    backbone = build_model(SPECS["mid"], 2)
    spec = backbone.spec
    tokens = tn.SeededRng(5).integers(0, spec.vocab, size=(32, spec.seqlen))
    compute_boundary_activation(backbone, tokens, spec.num_layers)  # warm-up
    tracemalloc.start()
    try:
        act = compute_boundary_activation(backbone, tokens, spec.num_layers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.83-2.90 MB when every graph-free op allocated a fresh output, 1.57 MB consuming
    # (1,574,952 bytes), 1.33 MB with the transposed keys multiplied as a view (1,329,240)
    assert peak <= 1.45e6, peak
    assert act.shape == (32, 1, spec.hidden)


def test_mid_shape_stacked_build_peak():
    # one prefetch pass that builds two B = 8 chunks through every layer, as a round's does
    backbone = build_model(SPECS["mid"], 2)
    spec = backbone.spec
    tokens = tn.SeededRng(5).integers(0, spec.vocab, size=(2, 8, spec.seqlen))
    items = [(0, tokens[0]), (1, tokens[1])]
    model_mod.PrefixStore(backbone).prefetch(spec.num_layers, items)  # warm-up
    store = model_mod.PrefixStore(backbone)
    tracemalloc.start()
    try:
        store.prefetch(spec.num_layers, items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 671,360 bytes: one B = 8 build alone peaks at 334,360, one B = 32 build at 1,329,240
    assert peak <= 0.75e6, peak
    assert store.resume_points() == [spec.num_layers]
