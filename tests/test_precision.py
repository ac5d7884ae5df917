"""The model computes in float32; the kernel follows its inputs' dtype."""

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import configurator as conf_mod
from fedtune import fed as fed_mod
from fedtune import model as model_mod
from fedtune import tensor_nn as tn
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import ContractViolation, ProtocolError
from fedtune.model import PASS_SAMPLES, ModelSpec, PrefixStore, build_model, forward
from fedtune.tensor_nn import SeededRng

F32 = np.dtype(np.float32)


def _as_float64(model):
    """Cast every parameter of ``model`` to float64 in place."""
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


def _track(world, scheme):
    model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
    return conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, scheme, model)


class TestSessionDtypes:
    @pytest.fixture
    def recorded(self, monkeypatch, small_world):
        """One round of a fixed adapter track, one of a full fine-tuning track, one evaluation."""
        world = small_world
        models, grads, updates, means = [], [], [], []

        def recording_materialize(*args, _inner=adapter_mod.materialize, **kwargs):
            models.append(_inner(*args, **kwargs))
            return models[-1]

        def recording_sgd_step(params, lr, _inner=tn.sgd_step):
            params = list(params)
            grads.extend(p.grad for p in params if p.trainable)
            _inner(params, lr)

        def recording_fedavg(mean, update, _inner=fed_mod.fedavg):
            updates.append(update)
            _inner(mean, update)
            if not any(m is mean for m in means):
                means.append(mean)

        monkeypatch.setattr(adapter_mod, "materialize", recording_materialize)
        monkeypatch.setattr(tn, "sgd_step", recording_sgd_step)
        monkeypatch.setattr(fed_mod, "fedavg", recording_fedavg)
        cfg = world.config
        tracks = []
        store = PrefixStore(world.backbone)
        # full fine-tuning first: its round (watermark D) would expire the adapter ledgers
        for scheme in (TuningScheme("full"), TuningScheme("adapter", AdapterConfig(2, 8, 8))):
            track = _track(world, scheme)
            fed_mod.run_round(world.server, [track], cfg.participants_per_group,
                              epochs=1, lr=cfg.learning_rate, cache_enabled=True, store=store)
            tracks.append(track)
        conf_mod.evaluate_tracks(tracks, store, world.test_tokens, world.test_labels)
        merged = [mean.payload() for mean in means]
        # the folded means are the values the tracks' models carry on
        assert len(merged) == len(tracks)
        for mean, track in zip(merged, tracks):
            for p in track.model.trainable_parameters():
                assert p.data.tobytes() == mean[p.name].tobytes(), p.name
        return world, models, grads, updates, merged, store

    def test_parameters_and_gradients_are_float32(self, recorded):
        world, models, grads, *_ = recorded
        assert {len(m.adapted_layers()) for m in models} == {0, 2} and grads
        for model in [world.backbone, *models]:
            for p in model.parameters():
                assert p.data.dtype == F32, p.name
        assert all(g.dtype == F32 for g in grads)

    def test_payloads_and_fedavg_are_float32(self, recorded):
        _, _, _, updates, merged, _ = recorded
        assert len(merged) == 2 and len(updates) == 2 * 2
        for payload in [u.payload for u in updates] + merged:
            for name, buf in payload.items():
                assert buf.dtype == F32, name

    def test_cache_entries_and_store_chunks_are_float32(self, recorded):
        world, *_, store = recorded
        entries = [e for c in world.server.registry.values() for e in c.cache.entries.values()]
        assert entries
        assert all(e.activations.dtype == F32 for e in entries)
        assert store.resume_points() == [2]
        tokens = world.test_tokens
        chunks = [store.activation(2, ("test", s), tokens[s:s + PASS_SAMPLES])
                  for s in range(0, tokens.shape[0], PASS_SAMPLES)]
        assert all(chunk.dtype == F32 for chunk in chunks)

    def test_float64_graph_stays_float64_through_backward(self, tiny_model, tiny_tokens):
        model = _as_float64(adapter_mod.materialize(
            tiny_model, TuningScheme("adapter", AdapterConfig(1, 8, 8)), rng=SeededRng(7)))
        logits = forward(model, tiny_tokens)
        loss = tn.cross_entropy_loss(logits, np.array([0, 1, 2]))
        assert logits.data.dtype == loss.data.dtype == np.float64
        loss.backward()
        grads = [p.grad for p in model.trainable_parameters()]
        assert grads and all(g.dtype == np.float64 for g in grads)

    def test_non_floating_input_becomes_float64(self):
        assert tn.Tensor(np.arange(3)).data.dtype == np.float64
        assert tn.Tensor(np.arange(3, dtype=np.float32)).data.dtype == F32


class TestNoSilentCast:
    def test_float64_cached_activation_rejected(self, tiny_model, tiny_tokens):
        act = model_mod.compute_boundary_activation(tiny_model, tiny_tokens, 1)
        assert act.dtype == F32
        model_mod.forward_from_boundary(tiny_model, 1, act)
        with pytest.raises(ContractViolation, match="dtype"):
            model_mod.forward_from_boundary(tiny_model, 1, act.astype(np.float64))

    def test_float64_payload_buffer_rejected(self, tiny_model):
        scheme = TuningScheme("adapter", AdapterConfig(1, 8, 8))
        model = adapter_mod.materialize(tiny_model, scheme, rng=SeededRng(1))
        payload = adapter_mod.extract_payload(model)
        adapter_mod.load_payload(model, payload)
        name = "block02.adapter00.w_up"
        payload[name] = payload[name].astype(np.float64)
        with pytest.raises(ProtocolError, match=f"'{name}' dtype float64"):
            adapter_mod.load_payload(model, payload)


class TestPrecision:
    def test_float64_copy_agrees_to_float32_precision(self):
        # the 165-sample set of test_model.TestEvaluate
        spec = ModelSpec(num_layers=3, hidden=16, heads=2, ffn_dim=32,
                         vocab=24, seqlen=8, num_labels=3)
        model = build_model(spec, 2)
        tokens = SeededRng(8).integers(0, 24, size=(165, 8))
        logits32 = forward(model, tokens).data
        logits64 = forward(_as_float64(model), tokens).data
        assert logits32.dtype == F32 and logits64.dtype == np.float64
        # logits are O(0.1) here; the largest gap seen was 1e-7, about one eps
        assert np.abs(logits32 - logits64).max() <= 16 * np.finfo(np.float32).eps
        assert np.array_equal(logits32.argmax(axis=1), logits64.argmax(axis=1))
