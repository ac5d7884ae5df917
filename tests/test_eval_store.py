"""The session's frozen-prefix store, the client ledger, and graph-free evaluation."""

import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import cache as cache_mod
from fedtune import configurator as conf_mod
from fedtune import fed as fed_mod
from fedtune import model as model_mod
from fedtune import session as session_mod
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import ContractViolation, DataError, EvaluationError
from fedtune.model import ModelSpec, PrefixStore, build_model, evaluate
from fedtune.tensor_nn import SeededRng

from conftest import small_session_doc

# climbs (0, 8) -> (1, 8) -> (2, 8) -> (3, 8) -> (3, 16) on a 3-layer model
CLIMBING_DOC = small_session_doc(mode="autofed", max_rounds=12,
                                 configurator={"trial_intvl_s": 1.0})


class RecordingStore(PrefixStore):
    """Store that records every key asked for and the resume points held after each ask."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []  # (resume, key, resume points held afterwards)
        RecordingStore.instances.append(self)

    def activation(self, resume, key, tokens):
        act = super().activation(resume, key, tokens)
        self.asked.append((resume, key, self.resume_points()))
        return act


def chunks_built(builds) -> int:
    """Chunks the recorded calls built: a call on stacked [G, B, S] tokens builds G."""
    return sum(tokens.shape[0] if tokens.ndim == 3 else 1 for tokens, _ in builds)


@pytest.fixture
def builds(monkeypatch):
    """Calls of ``compute_boundary_activation``, as (tokens, resume)."""
    calls = []

    def spy(backbone, tokens, resume, _inner=model_mod.compute_boundary_activation):
        calls.append((tokens, resume))
        return _inner(backbone, tokens, resume)

    monkeypatch.setattr(model_mod, "compute_boundary_activation", spy)
    return calls


@pytest.fixture
def climbing_run(monkeypatch, tmp_path, builds):
    """Run the climbing session; evaluate every track a second time without the store.

    Also records, per store key, how often its chunk was built, and the
    resume points held after each ``evaluate_tracks``.
    """
    RecordingStore.instances = []
    monkeypatch.setattr(model_mod, "PrefixStore", RecordingStore)
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
    per_key = Counter()
    store_activation = RecordingStore.activation

    def counting_activation(self, resume, key, tokens):
        before = chunks_built(builds)
        act = store_activation(self, resume, key, tokens)
        per_key[key] += chunks_built(builds) - before
        return act

    store_prefetch = RecordingStore.prefetch

    def counting_prefetch(self, resume, items):
        held = set(self._acts.get(resume, {}))
        store_prefetch(self, resume, items)
        for key in set(self._acts.get(resume, {})) - held:
            per_key[key] += 1

    monkeypatch.setattr(RecordingStore, "activation", counting_activation)
    monkeypatch.setattr(RecordingStore, "prefetch", counting_prefetch)
    after_eval = []

    def recording_evaluate_tracks(tracks, store, *args, _inner=conf_mod.evaluate_tracks):
        accs = _inner(tracks, store, *args)
        after_eval.append(store.resume_points())
        return accs

    monkeypatch.setattr(conf_mod, "evaluate_tracks", recording_evaluate_tracks)
    cfg = session_mod.config_from_dict(CLIMBING_DOC)
    result = session_mod.run_session_config(cfg, str(tmp_path / "climb.trace.jsonl"))
    return cfg, result, checked, per_key, after_eval


class TestSessionStore:
    def test_store_logits_equal_plain_forward(self, climbing_run):
        cfg, result, checked, _, _ = climbing_run
        assert result.summary["configs_visited"][-1][0] == cfg.model.num_layers
        # depth 0 and depth 1 both resume at layer D, depth d >= 1 at D - d + 1
        assert {c[0] for c in checked} == set(range(1, cfg.model.num_layers + 1))
        for resume, acc, store_logits, plain_acc, plain_logits in checked:
            assert acc == plain_acc, resume
            # the test set is several chunks, each one pass of at most PASS_SAMPLES samples
            assert len(store_logits) == len(plain_logits) > 1
            assert {len(s) for s in store_logits[:-1]} == {model_mod.PASS_SAMPLES}
            for i, (stored, plain) in enumerate(zip(store_logits, plain_logits)):
                assert stored.tobytes() == plain.tobytes(), (resume, i)

    def test_embedding_builds_bounded_by_depth(self, climbing_run, builds):
        """Every chunk, training batch or test chunk, is built at most D times."""
        cfg, _, _, per_key, _ = climbing_run
        assert sum(per_key.values()) == chunks_built(builds)
        assert {k[0] for k in per_key} > {"test"}  # client keys are (client id, batch id)
        assert 1 <= max(per_key.values()) <= cfg.model.num_layers
        assert per_key[("test", 0)] == cfg.model.num_layers

    def test_at_most_two_boundaries_held(self, climbing_run):
        """At most two resume points are held after each evaluation."""
        *_, after_eval = climbing_run
        held = [len(points) for points in after_eval]
        assert max(held) == 2 and min(held) >= 1

    def test_at_most_three_points_held_within_a_round(self, climbing_run):
        """A third point is only the watermark's new one, before its first evaluation."""
        [store] = RecordingStore.instances
        assert max(len(points) for _, _, points in store.asked) == 3
        evaluated = set()
        for resume, key, points in store.asked:
            if len(points) == 3:
                assert key[0] != "test" and resume == min(points), (resume, key)
                assert resume not in evaluated
            if key[0] == "test":
                evaluated.add(resume)

    def test_full_ft_keeps_plain_forward(self, monkeypatch, tmp_path, builds):
        RecordingStore.instances = []
        monkeypatch.setattr(model_mod, "PrefixStore", RecordingStore)
        cfg = session_mod.config_from_dict(small_session_doc(mode="full_ft", max_rounds=1))
        session_mod.run_session_config(cfg, str(tmp_path / "ft.trace.jsonl"))
        [store] = RecordingStore.instances
        assert store.resume_points() == [] and store.asked == [] and builds == []


class TestLedger:
    def test_entries_are_the_store_arrays(self, small_world, builds):
        world, cfg = small_world, small_world.config
        scheme = TuningScheme("adapter", AdapterConfig(2, 8, 8))
        model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
        track = conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, scheme, model)
        store = PrefixStore(world.backbone)
        [event] = fed_mod.run_round(world.server, [track], cfg.participants_per_group,
                                    epochs=1, lr=cfg.learning_rate, cache_enabled=True,
                                    store=store)
        built = len(builds)
        clients = [world.server.registry[cid] for cid in event["participants"]]
        assert chunks_built(builds) == sum(len(c.train_batches) for c in clients)
        for client in clients:
            assert sorted(client.cache.entries) == sorted(
                (client.id, b.batch_id) for b in client.train_batches)
            for batch in client.train_batches:
                entry = client.cache.entries[(client.id, batch.batch_id)]
                assert entry.resume == 2
                assert entry.activations is store.activation(
                    2, (client.id, batch.batch_id), batch.tokens)
        assert len(builds) == built and store.resume_points() == [2]

    def test_ledgers_hold_nothing_below_the_watermark(self, monkeypatch, tmp_path):
        """After each round a ledger is empty or at the watermark; ledgers = training chunks."""
        checked = []

        def checking_run_round(server, tracks, *args, _inner=fed_mod.run_round, **kwargs):
            num_layers = tracks[0].model.spec.num_layers
            depth = max(t.scheme.tuning_depth(num_layers) for t in tracks)
            stale = [c.id for c in server.registry.values()
                     if c.cache.entries and c.cache.depth_at_store < depth]
            rounds = _inner(server, tracks, *args, **kwargs)
            store = kwargs["store"]
            entries = {(key, id(e.activations)): e for c in server.registry.values()
                       for key, e in c.cache.entries.items()}
            for client in server.registry.values():
                assert not client.cache.entries or \
                    client.cache.depth_at_store == rounds[0]["max_depth"]
            chunks = {(key, id(act)): act for acts in store._acts.values()
                      for key, act in acts.items() if key[0] != "test"}
            assert entries.keys() == chunks.keys()
            assert sum(e.activations.nbytes for e in entries.values()) == \
                sum(act.nbytes for act in chunks.values())
            for e in entries.values():
                if e.resume == num_layers:  # the pooled top layer keeps one position
                    assert e.activations.shape[1] == 1
            checked.append(stale)
            return rounds

        monkeypatch.setattr(fed_mod, "run_round", checking_run_round)
        cfg = session_mod.config_from_dict(CLIMBING_DOC)
        session_mod.run_session_config(cfg, str(tmp_path / "climb.trace.jsonl"))
        assert len(checked) == cfg.max_rounds
        assert any(checked)  # some round began with stale ledgers to expire

    def test_release_frees_old_point_on_move(self, small_world):
        backbone = small_world.backbone
        tokens = SeededRng(5).integers(0, 24, size=(4, 8))
        scheme = TuningScheme("adapter", AdapterConfig(1, 8, 8))
        model = adapter_mod.materialize(backbone, scheme, rng=SeededRng(1))
        store, cache = PrefixStore(backbone), cache_mod.ActivationCache()
        store.activation(3, ("test", 0), tokens)  # the resume point stays live
        _, act, _ = cache_mod.fetch_or_recompute(cache, store, model, (7, 0), tokens, 1, 3)
        cache.depth_at_store = 1
        old = weakref.ref(act)
        del act
        boundary, fresh, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, (7, 0), tokens, 2, 2)
        gc.collect()
        assert (boundary, recomputed, cache.entries[(7, 0)].resume) == (1, True, 2)
        assert old() is None and fresh is cache.entries[(7, 0)].activations
        assert store.resume_points() == [2, 3]
        store.release(3, ("test", 0))
        assert store.resume_points() == [2]

    def test_cache_disabled_session_keeps_only_test_chunks(self, monkeypatch, tmp_path):
        RecordingStore.instances = []
        monkeypatch.setattr(model_mod, "PrefixStore", RecordingStore)
        # the autofed_no_cache golden config
        cfg = session_mod.config_from_dict({**CLIMBING_DOC, "cache_enabled": False})
        session_mod.run_session_config(cfg, str(tmp_path / "nc.trace.jsonl"))
        [store] = RecordingStore.instances
        assert store.asked and {key[0] for _, key, _ in store.asked} == {"test"}

    def test_other_tokens_raise(self, small_world):
        backbone = small_world.backbone
        tokens = SeededRng(5).integers(0, 24, size=(4, 8))
        scheme = TuningScheme("adapter", AdapterConfig(1, 8, 8))
        model = adapter_mod.materialize(backbone, scheme, rng=SeededRng(1))
        store, cache = PrefixStore(backbone), cache_mod.ActivationCache()
        cache_mod.fetch_or_recompute(cache, store, model, (7, 0), tokens, 1, 3)
        with pytest.raises(ContractViolation, match="other tokens"):
            store.activation(3, (7, 0), tokens[::-1])
        with pytest.raises(ContractViolation, match="other tokens"):
            store.activation(2, (7, 0), tokens[:3])
        # a second client's cache asking for the first client's key
        with pytest.raises(ContractViolation, match="other tokens"):
            cache_mod.fetch_or_recompute(cache_mod.ActivationCache(), store, model, (7, 0),
                                         tokens + 1, 1, 3)
        assert store.activation(3, (7, 0), tokens.copy()) is cache.entries[(7, 0)].activations


class TestStoreUnit:
    @pytest.fixture
    def spec(self):
        return ModelSpec(num_layers=4, hidden=8, heads=2, ffn_dim=16,
                         vocab=12, seqlen=5, num_labels=3)

    @pytest.fixture
    def data(self):
        rng = SeededRng(3)
        return rng.integers(0, 12, size=(7, 5)), rng.integers(0, 3, size=7)

    def test_chunks_at_two_resume_points_match_plain(self, spec, data, builds):
        tokens, labels = data
        backbone = build_model(spec, 1)
        store = PrefixStore(backbone)
        for depth in (1, 3):
            scheme = TuningScheme("adapter", AdapterConfig(depth, 8, 8))
            model = adapter_mod.materialize(backbone, scheme, rng=SeededRng(depth))
            resume = scheme.resume_layer(spec.num_layers, depth)
            assert resume == spec.num_layers - depth + 1
            assert evaluate(model, tokens, labels, 3, store=store, resume=resume) == \
                evaluate(model, tokens, labels, 3)
            logits = [model_mod.forward(model, tokens[s:s + 3]).data for s in (0, 3, 6)]
            resumed = [model_mod.forward_from_boundary(
                model, resume, store.activation(resume, ("test", s), tokens[s:s + 3])).data
                for s in (0, 3, 6)]
            for a, b in zip(logits, resumed):
                assert np.array_equal(a, b)
        assert store.resume_points() == [2, 4]
        # three chunks at each point, every one built from the embedding, once
        assert [(t.shape[0], r) for t, r in builds] == [(3, 4), (3, 4), (1, 4),
                                                        (3, 2), (3, 2), (1, 2)]
        store.retain({2})
        assert store.resume_points() == [2] and len(builds) == 6

    def test_stored_activations_are_read_only(self, spec, data):
        store = PrefixStore(build_model(spec, 1))
        with pytest.raises(ValueError):
            store.activation(2, ("test", 0), data[0])[0, 0, 0] = 1.0

    def test_every_chunk_owns_its_memory(self, spec, data):
        # a view would pin the larger temporary it came from, unseen by ``nbytes``
        store = PrefixStore(build_model(spec, 1))
        for resume in range(spec.num_layers + 1):
            for start in (0, 3, 6):
                act = store.activation(resume, ("test", start), data[0][start:start + 3])
                assert act.base is None and act.flags.owndata, (resume, start)

    def test_mismatched_tokens_rejected(self, spec, data):
        tokens, labels = data
        backbone = build_model(spec, 1)
        store = PrefixStore(backbone)
        evaluate(backbone, tokens, labels, store=store, resume=4)
        with pytest.raises(ContractViolation):
            evaluate(backbone, tokens[::-1], labels, store=store, resume=4)
        with pytest.raises(ContractViolation):
            evaluate(backbone, tokens, labels, 2, store=store, resume=4)

    def test_adapted_model_rejected_as_backbone(self, spec):
        adapted = adapter_mod.materialize(
            build_model(spec, 1), TuningScheme("adapter", AdapterConfig(1, 8, 8)), rng=SeededRng(0))
        with pytest.raises(ContractViolation):
            PrefixStore(adapted)


class TestPrefetch:
    @pytest.fixture
    def backbone(self):
        return build_model(ModelSpec(num_layers=4, hidden=8, heads=2, ffn_dim=16,
                                     vocab=12, seqlen=5, num_labels=3), 1)

    @staticmethod
    def chunks(sizes):
        rng = SeededRng(3)
        return [((9, i), rng.integers(0, 12, size=(n, 5))) for i, n in enumerate(sizes)]

    def test_builds_only_the_missing_chunks_each_once(self, backbone, builds):
        store = PrefixStore(backbone)
        items = self.chunks([4] * 5)
        first = store.activation(2, *items[0])
        store.prefetch(2, items + items[1:2])  # one chunk held, one asked for twice
        assert chunks_built(builds) == 5 and len(builds) == 2  # first use, then one pass of 4
        store.prefetch(2, items)
        assert store.activation(2, *items[0]) is first
        assert chunks_built(builds) == 5 and store.resume_points() == [2]
        for key, tokens in items:
            act = store.activation(2, key, tokens)
            assert act.base is None and act.flags.owndata and not act.flags.writeable
            assert act.tobytes() == model_mod.compute_boundary_activation(
                backbone, tokens, 2).tobytes()

    def test_other_tokens_raise_before_anything_is_built(self, backbone, builds):
        store = PrefixStore(backbone)
        items = self.chunks([4, 4])
        (key, tokens), other = items
        store.activation(2, key, tokens)
        with pytest.raises(ContractViolation, match="other tokens"):
            store.prefetch(2, [other, (key, tokens[::-1])])
        with pytest.raises(ContractViolation, match="other tokens"):
            store.prefetch(3, [other, (key, tokens[:3])])
        assert len(builds) == 1 and list(store._acts[2]) == [key]

    def test_no_pass_stacks_more_than_16_samples(self, backbone, builds):
        assert model_mod.PASS_SAMPLES == 16
        sizes = [1] * 20 + [7] * 5 + [8] * 3 + [32]
        store = PrefixStore(backbone)
        store.prefetch(0, self.chunks(sizes))
        # same-shape chunks share passes as full as 16 samples allow; a larger one is alone
        assert sorted(tokens.shape for tokens, _ in builds) == [
            (1, 7, 5), (1, 8, 5), (1, 32, 5), (2, 7, 5), (2, 7, 5), (2, 8, 5),
            (4, 1, 5), (16, 1, 5)]
        assert chunks_built(builds) == len(store._acts[0]) == len(sizes)

    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_a_round_builds_its_chunks_in_one_prefetch(self, small_world, builds, monkeypatch,
                                                       cache_enabled):
        world, cfg = small_world, small_world.config
        scheme = TuningScheme("adapter", AdapterConfig(2, 8, 8))
        model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
        track = conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, scheme, model)
        store = PrefixStore(world.backbone)
        in_prefetch = []

        def counting_prefetch(resume, items, _inner=store.prefetch):
            before = chunks_built(builds)
            _inner(resume, items)
            in_prefetch.append(chunks_built(builds) - before)

        monkeypatch.setattr(store, "prefetch", counting_prefetch)
        [event] = fed_mod.run_round(world.server, [track], cfg.participants_per_group,
                                    epochs=2, lr=cfg.learning_rate,
                                    cache_enabled=cache_enabled, store=store)
        if cache_enabled:
            # the ledgers count a recompute per batch in the first epoch, as before
            assert in_prefetch == [chunks_built(builds)] and len(builds) < chunks_built(builds)
            assert event["cache_recomputes"] == event["cache_hits"] == chunks_built(builds)
        else:
            assert in_prefetch == [] and builds == [] and store.resume_points() == []
            assert event["cache_recomputes"] == event["cache_hits"] == 0


class TestGraphFree:
    def test_flags_and_grads_untouched_and_no_graph(self, monkeypatch, tiny_model, tiny_tokens):
        model = adapter_mod.materialize(
            tiny_model, TuningScheme("adapter", AdapterConfig(1, 8, 8)), rng=SeededRng(2))
        sentinel = np.full(model.cls_w.data.shape, 7.0)
        model.cls_w.grad = sentinel
        before = [(p.requires_grad, p.trainable, p.grad)
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
        after = [(p.requires_grad, p.trainable, p.grad)
                 for p in model.parameters()]
        assert [(f, t) for f, t, _ in after] == [(f, t) for f, t, _ in before]
        assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))
        assert model.cls_w.grad is sentinel
        assert outputs and all(o.node is None for o in outputs)

    def test_flags_restored_when_forward_raises(self, tiny_model):
        with pytest.raises(DataError):
            evaluate(tiny_model, np.array([[0, 1, 99, 2, 3]]), np.array([0]))
        assert tiny_model.cls_w.requires_grad

    def test_empty_set_raises_with_store(self, tiny_model):
        empty = np.zeros((0, 5), dtype=np.int64)
        store = PrefixStore(tiny_model)
        with pytest.raises(EvaluationError):
            evaluate(tiny_model, empty, np.zeros(0, dtype=np.int64), store=store, resume=2)


def test_first_store_resumed_evaluate_peaks_at_one_pass():
    """A first store-resumed ``evaluate`` holds one ``PASS_SAMPLES``-sample pass at a time.

    At the mid shape, the 164 test samples of the benchmark worlds, resumed
    at the top layer as ``autofed``'s depth-0 and depth-1 tracks are, peaked
    at 715,390-715,441 traced bytes, store included, on OpenBLAS's SkylakeX,
    Haswell and Katmai kernels; with 32-sample chunks, at 1,372,905.
    """
    spec = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128, vocab=200, seqlen=32,
                     num_labels=4)
    backbone = build_model(spec, 4)
    model = adapter_mod.materialize(
        backbone, TuningScheme("adapter", AdapterConfig(1, 8, 8)), rng=SeededRng(1))
    rng = SeededRng(5)
    tokens = rng.integers(0, spec.vocab, size=(164, spec.seqlen))
    labels = rng.integers(0, spec.num_labels, size=164)
    store = PrefixStore(backbone)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(model, tokens, labels, store=store, resume=spec.num_layers)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert store.resume_points() == [spec.num_layers]
    assert peak < 760_000, peak
