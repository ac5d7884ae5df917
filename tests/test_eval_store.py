"""Server-side evaluation store and graph-free evaluation."""

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import model as model_mod
from fedtune import session as session_mod
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import ContractViolation, DataError, EvaluationError
from fedtune.model import EvalStore, ModelSpec, build_model, evaluate
from fedtune.tensor_nn import SeededRng

from conftest import small_session_doc

# climbs (0, 8) -> (1, 8) -> (2, 8) -> (3, 8) -> (3, 16) on a 3-layer model
CLIMBING_DOC = small_session_doc(mode="autofed", max_rounds=12,
                                 configurator={"trial_intvl_s": 1.0})


class RecordingStore(EvalStore):
    """Store that remembers the most resume points it ever held at once."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_held = 0
        RecordingStore.instances.append(self)

    def activations(self, resume):
        acts = super().activations(resume)
        self.max_held = max(self.max_held, len(self.resume_points()))
        return acts


@pytest.fixture
def climbing_run(monkeypatch, tmp_path):
    """Run the climbing session; evaluate every track a second time without the store."""
    RecordingStore.instances = []
    monkeypatch.setattr(model_mod, "EvalStore", RecordingStore)
    logits = []
    for name in ("forward", "forward_from_boundary"):
        def recording(*args, _inner=getattr(model_mod, name)):
            out = _inner(*args)
            logits.append(out.data)
            return out
        monkeypatch.setattr(model_mod, name, recording)
    plain_evaluate = model_mod.evaluate
    checked = []

    def checking_evaluate(model, tokens, labels, **kwargs):
        logits.clear()
        acc = plain_evaluate(model, tokens, labels, **kwargs)
        from_store = list(logits)
        logits.clear()
        checked.append((kwargs["resume"], acc, from_store,
                        plain_evaluate(model, tokens, labels), list(logits)))
        return acc

    monkeypatch.setattr(model_mod, "evaluate", checking_evaluate)
    cfg = session_mod.config_from_dict(CLIMBING_DOC)
    result = session_mod.run_session_config(cfg, str(tmp_path / "climb.trace.jsonl"))
    return cfg, result, checked


class TestSessionStore:
    def test_store_logits_equal_plain_forward(self, climbing_run):
        cfg, result, checked = climbing_run
        assert result.summary["configs_visited"][-1][0] == cfg.model.num_layers
        # depth 0 and depth 1 both resume at layer D, depth d >= 1 at D - d + 1
        assert {c[0] for c in checked} == set(range(1, cfg.model.num_layers + 1))
        for resume, acc, store_logits, plain_acc, plain_logits in checked:
            assert acc == plain_acc, resume
            assert len(store_logits) == len(plain_logits) == 1
            assert np.array_equal(store_logits[0], plain_logits[0]), resume

    def test_embedding_builds_bounded_by_depth(self, climbing_run):
        cfg, _, _ = climbing_run
        [store] = RecordingStore.instances
        assert 1 <= store.embedding_builds <= cfg.model.num_layers

    def test_at_most_two_boundaries_held(self, climbing_run):
        """At most two resume points are held at once."""
        [store] = RecordingStore.instances
        assert store.max_held == 2

    def test_full_ft_keeps_plain_forward(self, monkeypatch, tmp_path):
        RecordingStore.instances = []
        monkeypatch.setattr(model_mod, "EvalStore", RecordingStore)
        cfg = session_mod.config_from_dict(small_session_doc(mode="full_ft", max_rounds=1))
        session_mod.run_session_config(cfg, str(tmp_path / "ft.trace.jsonl"))
        [store] = RecordingStore.instances
        assert store.resume_points() == [] and store.embedding_builds == 0


class TestStoreUnit:
    @pytest.fixture
    def spec(self):
        return ModelSpec(num_layers=4, hidden=8, heads=2, ffn_dim=16,
                         vocab=12, seqlen=5, num_labels=3)

    @pytest.fixture
    def data(self):
        rng = SeededRng(3)
        return rng.integers(0, 12, size=(7, 5)), rng.integers(0, 3, size=7)

    def test_chunks_and_derived_boundaries_match_plain(self, spec, data):
        tokens, labels = data
        backbone = build_model(spec, 1)
        store = EvalStore(backbone, tokens, chunk=3)
        store.retain({2})
        store.retain({2, 4})
        assert store.resume_points() == [2, 4] and store.embedding_builds == 1
        for depth in (1, 3):
            scheme = TuningScheme("adapter", AdapterConfig(depth, 8, 8))
            model = adapter_mod.materialize(backbone, scheme, rng=SeededRng(depth))
            resume = model_mod.resume_layer(model, scheme.boundary_layer(spec.num_layers))
            assert resume == spec.num_layers - depth + 1
            assert evaluate(model, tokens, labels, 3, store=store, resume=resume) == \
                evaluate(model, tokens, labels, 3)
            logits = [model_mod.forward(model, tokens[s:s + 3]).data for s in (0, 3, 6)]
            resumed = [model_mod.forward_from_boundary(model, resume, act).data
                       for act in store.activations(resume)]
            for a, b in zip(logits, resumed):
                assert np.array_equal(a, b)
        store.retain({4})
        assert store.resume_points() == [4]

    def test_stored_activations_are_read_only(self, spec, data):
        store = EvalStore(build_model(spec, 1), data[0])
        with pytest.raises(ValueError):
            store.activations(2)[0][0, 0, 0] = 1.0

    def test_mismatched_tokens_rejected(self, spec, data):
        tokens, labels = data
        backbone = build_model(spec, 1)
        store = EvalStore(backbone, tokens)
        with pytest.raises(ContractViolation):
            evaluate(backbone, tokens[::-1], labels, store=store, resume=4)
        with pytest.raises(ContractViolation):
            evaluate(backbone, tokens, labels, 2, store=store, resume=4)

    def test_adapted_model_rejected_as_backbone(self, spec, data):
        adapted = adapter_mod.insert_adapters(build_model(spec, 1), AdapterConfig(1, 8, 8),
                                              SeededRng(0))
        with pytest.raises(ContractViolation):
            EvalStore(adapted, data[0])


class TestGraphFree:
    def test_flags_and_grads_untouched_and_no_graph(self, monkeypatch, tiny_model, tiny_tokens):
        model = adapter_mod.insert_adapters(tiny_model, AdapterConfig(1, 8, 8), SeededRng(2))
        sentinel = np.full(model.cls_w.data.shape, 7.0)
        model.cls_w.tensor.grad = sentinel
        before = [(p.tensor.requires_grad, p.trainable, p.tensor.grad)
                  for p in model.parameters()]
        assert any(flag for flag, _, _ in before)
        outputs = []
        plain_forward = model_mod.forward

        def spy(*args, **kwargs):
            out = plain_forward(*args, **kwargs)
            outputs.append(out)
            return out

        monkeypatch.setattr(model_mod, "forward", spy)
        evaluate(model, tiny_tokens, np.array([0, 1, 2]))
        after = [(p.tensor.requires_grad, p.trainable, p.tensor.grad)
                 for p in model.parameters()]
        assert [(f, t) for f, t, _ in after] == [(f, t) for f, t, _ in before]
        assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))
        assert model.cls_w.tensor.grad is sentinel
        assert outputs and all(o._parents == () and not o.requires_grad for o in outputs)

    def test_flags_restored_when_forward_raises(self, tiny_model):
        with pytest.raises(DataError):
            evaluate(tiny_model, np.array([[0, 1, 99, 2, 3]]), np.array([0]))
        assert tiny_model.cls_w.tensor.requires_grad

    def test_empty_set_raises_with_store(self, tiny_model):
        empty = np.zeros((0, 5), dtype=np.int64)
        store = EvalStore(tiny_model, empty)
        with pytest.raises(EvaluationError):
            evaluate(tiny_model, empty, np.zeros(0, dtype=np.int64), store=store, resume=2)
