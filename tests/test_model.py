import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import cache as cache_mod
from fedtune import model as model_mod
from fedtune import tensor_nn as tn
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import (
    ConfigurationError,
    ContractViolation,
    DataError,
    EvaluationError,
)
from fedtune.model import ModelSpec, build_model, evaluate, forward, forward_from_boundary
from fedtune.tensor_nn import SeededRng

from conftest import F32_EPS, assert_equal_on_skylakex

KEY = (0, 0)  # (client id, batch id): a ledger entry's key in the cache and the store


def model_bytes(model):
    return b"".join(p.data.tobytes() for p in model.parameters())


def closed_form_backbone_count(spec):
    """Scalars of the frozen encoder without adapters.

    Per block: attention 4n^2+4n, two layer norms 4n, ffn 2nf+f+n; plus the
    token and position embeddings.
    """
    n, f = spec.hidden, spec.ffn_dim
    per_block = 4 * n * n + 4 * n + 4 * n + 2 * n * f + f + n
    return spec.vocab * n + spec.seqlen * n + spec.num_layers * per_block


class TestBuildModel:
    def test_same_seed_bit_identical(self, tiny_spec):
        assert model_bytes(build_model(tiny_spec, 5)) == model_bytes(build_model(tiny_spec, 5))
        assert model_bytes(build_model(tiny_spec, 5)) != model_bytes(build_model(tiny_spec, 6))

    def test_backbone_count_matches_closed_form(self, tiny_spec):
        model = build_model(tiny_spec, 1)
        frozen = sum(p.data.size for p in model.parameters() if not p.trainable)
        assert frozen == closed_form_backbone_count(tiny_spec)

    def test_backbone_count_at_reference_shape(self, monkeypatch):
        spec = ModelSpec(num_layers=12, hidden=768, heads=12, ffn_dim=3072,
                         vocab=100, seqlen=16, num_labels=20)
        # zero-stride draws: the 85M-scalar backbone is laid out without its 340 MB
        monkeypatch.setattr(model_mod, "_draw",
                            lambda rng, std, shape: np.broadcast_to(model_mod.DTYPE(0), shape))
        model = build_model(spec, 1)
        frozen = sum(p.data.size for p in model.parameters() if not p.trainable)
        assert frozen == closed_form_backbone_count(spec) == 85_143_552

    def test_depth_zero_trainable_is_classifier_only(self, tiny_spec, tiny_model):
        count = sum(p.data.size for p in tiny_model.trainable_parameters())
        assert count == tiny_spec.hidden * tiny_spec.num_labels + tiny_spec.num_labels

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(num_layers=0, hidden=8, heads=2, ffn_dim=16,
                      vocab=10, seqlen=4, num_labels=2)
        with pytest.raises(ConfigurationError):
            ModelSpec(num_layers=1, hidden=9, heads=2, ffn_dim=16,
                      vocab=10, seqlen=4, num_labels=2)


class TestForward:
    def test_depth_zero_ignores_adapter_rng(self, tiny_spec, tiny_tokens):
        a = build_model(tiny_spec, 5)
        b = build_model(tiny_spec, 5)
        # inserting a depth-0 config consumes no randomness and adds nothing
        b = adapter_mod.materialize(b, TuningScheme("adapter", AdapterConfig(0, 8, 8)),
                                    rng=SeededRng(99))
        assert np.array_equal(forward(a, tiny_tokens).data, forward(b, tiny_tokens).data)

    def test_zero_up_projection_is_residual_noop(self, tiny_model, tiny_tokens):
        base = forward(tiny_model, tiny_tokens).data
        adapted = adapter_mod.materialize(
            tiny_model, TuningScheme("adapter", AdapterConfig(2, 8, 8)), rng=SeededRng(11))
        for block in adapted.blocks:
            for meta in block.adapters:
                meta.w_up.data[:] = 0.0
        assert np.array_equal(base, forward(adapted, tiny_tokens).data)

    def test_out_of_range_token(self, tiny_model):
        with pytest.raises(DataError):
            forward(tiny_model, np.array([[0, 1, 99, 2, 3]]))

    def test_golden_logits_reproduced(self, tiny_tokens):
        spec = ModelSpec(num_layers=2, hidden=8, heads=2, ffn_dim=16,
                         vocab=12, seqlen=5, num_labels=3)
        model = build_model(spec, seed=2024)
        logits = forward(model, tiny_tokens[:2]).data
        # frozen golden values of the float32 model, compared bit for bit
        golden = np.array([
            [0.0714217, -0.034653295, -0.022805281],
            [0.0822984, -0.009517075, -0.07798218],
        ], dtype=np.float32)
        assert logits.dtype == np.float32
        assert_equal_on_skylakex(logits, golden, atol=4 * F32_EPS)
        # the values before the top layer ran only for the pooled token: its
        # GEMMs took 2 rows instead of 10, which moved the first row's last bits
        golden_all_positions = np.array([
            [0.07142171, -0.0346533, -0.022805283],
            [0.0822984, -0.009517075, -0.07798218],
        ], dtype=np.float32)
        assert np.allclose(logits, golden_all_positions, rtol=0, atol=1e-7)
        # the same configuration's logits when the model was float64
        golden_float64 = np.array([
            [0.0714217120065039, -0.03465329193142037, -0.022805332312550903],
            [0.08229840649731744, -0.009517061480671302, -0.07798217541428816],
        ])
        assert np.allclose(logits, golden_float64, rtol=0, atol=1e-6)


class TestBoundary:
    @pytest.fixture
    def adapted(self, tiny_model):
        return adapter_mod.materialize(
            tiny_model, TuningScheme("adapter", AdapterConfig(1, 8, 8)), rng=SeededRng(7))

    def test_boundary_zero_equals_full_forward(self, adapted, tiny_tokens):
        act = model_mod.compute_boundary_activation(adapted, tiny_tokens, 0)
        full = forward(adapted, tiny_tokens).data
        resumed = forward_from_boundary(adapted, 0, act).data
        assert np.array_equal(full, resumed)

    def test_mid_boundary_bit_identical(self, tiny_tokens):
        spec = ModelSpec(num_layers=6, hidden=8, heads=2, ffn_dim=16,
                         vocab=12, seqlen=5, num_labels=3)
        model = adapter_mod.materialize(
            build_model(spec, 3), TuningScheme("adapter", AdapterConfig(2, 8, 8)), rng=SeededRng(1))
        act = model_mod.compute_boundary_activation(model, tiny_tokens, 4)
        assert np.array_equal(forward(model, tiny_tokens).data,
                              forward_from_boundary(model, 4, act).data)

    def test_boundary_backward_grads_match_full_path(self, adapted, tiny_tokens):
        labels = np.array([0, 1, 2])
        params = adapted.trainable_parameters()

        loss_full = tn.cross_entropy_loss(forward(adapted, tiny_tokens), labels)
        loss_full.backward()
        grads_full = {p.name: p.grad.copy() for p in params}
        tn.clear_grads(params)

        act = model_mod.compute_boundary_activation(adapted, tiny_tokens, 1)
        loss_boundary = tn.cross_entropy_loss(
            forward_from_boundary(adapted, 1, act), labels)
        loss_boundary.backward()
        for p in params:
            assert np.array_equal(grads_full[p.name], p.grad), p.name

    def test_boundary_above_lowest_adapter_rejected(self, tiny_model, tiny_tokens):
        # adapters on both layers: resuming at layer 2 would skip layer 1's
        adapted = adapter_mod.materialize(
            tiny_model, TuningScheme("adapter", AdapterConfig(2, 8, 8)), rng=SeededRng(7))
        act = model_mod.compute_boundary_activation(adapted, tiny_tokens, 1)
        with pytest.raises(ContractViolation):
            forward_from_boundary(adapted, 2, act)
        with pytest.raises(ContractViolation):
            model_mod.compute_boundary_activation(adapted, tiny_tokens, 2)


class TestResumePoint:
    """The host resumes at the lowest adapter's input, one layer above the boundary."""

    @pytest.fixture
    def small_spec(self):
        return ModelSpec(num_layers=3, hidden=16, heads=2, ffn_dim=32,
                         vocab=24, seqlen=8, num_labels=3)

    @pytest.fixture
    def tokens(self):
        return SeededRng(5).integers(0, 24, size=(6, 8))

    @staticmethod
    def check_resume_rule(scheme, spec, tokens, expected):
        """The scheme's resume point is ``expected``; its model takes it and refuses one higher.

        Taking it means resumed logits with ``forward``'s bits. One layer
        higher would skip a trainable layer (or leave the model), which the
        model's trainable flags refuse; a rule one layer too low passes the
        bit check but not the refusal.
        """
        model = adapter_mod.materialize(build_model(spec, 2), scheme, rng=SeededRng(1))
        depth = scheme.tuning_depth(spec.num_layers)
        resume = scheme.resume_layer(spec.num_layers, depth)
        assert resume == expected
        act = model_mod.compute_boundary_activation(model, tokens, resume)
        assert np.array_equal(forward_from_boundary(model, resume, act).data,
                              forward(model, tokens).data)
        with pytest.raises(ContractViolation):
            model_mod.compute_boundary_activation(model, tokens, resume + 1)
        with pytest.raises(ContractViolation):
            forward_from_boundary(model, resume + 1, act)

    @pytest.mark.parametrize("depth", range(4))
    def test_adapter_resume_bit_identical_at_every_depth(self, small_spec, tokens, depth):
        # the lowest adapter's input, one above the boundary b = D - depth; b itself at depth 0
        scheme = TuningScheme("adapter", AdapterConfig(depth, 8, 8))
        num_layers = small_spec.num_layers
        self.check_resume_rule(scheme, small_spec, tokens, min(num_layers - depth + 1, num_layers))

    def test_layer_freeze_resumes_at_boundary(self, small_spec, tokens):
        for frozen in range(small_spec.num_layers):
            scheme = TuningScheme("freeze", frozen_layers=frozen)
            self.check_resume_rule(scheme, small_spec, tokens, frozen)

    def test_full_fine_tuning_has_no_resume_point(self, small_spec):
        scheme = TuningScheme("full")
        assert {scheme.resume_layer(small_spec.num_layers, d) for d in range(4)} == {None}

    def test_trainable_backbone_at_resume_point_rejected(self, small_spec, tokens):
        model = adapter_mod.materialize(build_model(small_spec, 2),
                                        TuningScheme("freeze", frozen_layers=1))
        act = model_mod.compute_boundary_activation(model, tokens, 1)
        for resume in (2, 3):
            with pytest.raises(ContractViolation, match="trainable"):
                forward_from_boundary(model, resume, act)
            with pytest.raises(ContractViolation, match="trainable"):
                model_mod.compute_boundary_activation(model, tokens, resume)

    def test_trainable_embedding_rejected(self, small_spec, tokens):
        model = adapter_mod.materialize(build_model(small_spec, 2), TuningScheme("full"))
        with pytest.raises(ContractViolation, match="embedding"):
            model_mod.compute_boundary_activation(model, tokens, 0)

    @pytest.fixture
    def depth1(self, small_spec):
        """A depth-1 adapter model on the backbone, and an empty ledger and store."""
        backbone = build_model(small_spec, 2)
        scheme = TuningScheme("adapter", AdapterConfig(1, 8, 8))
        model = adapter_mod.materialize(backbone, scheme, rng=SeededRng(1))
        return model, cache_mod.ActivationCache(), model_mod.PrefixStore(backbone)

    def test_cache_entry_for_other_resume_point_recomputed(self, depth1, tokens):
        model, cache, store = depth1
        boundary, act, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, KEY, tokens, 1, 3)
        assert (boundary, recomputed, cache.entries[KEY].resume) == (2, True, 3)
        cache.depth_at_store = 1
        _, hit, recomputed = cache_mod.fetch_or_recompute(cache, store, model, KEY, tokens, 1, 3)
        assert hit is act and not recomputed
        stale = model_mod.compute_boundary_activation(model, tokens, 2)
        cache.entries[KEY] = cache_mod.CacheEntry(2, stale)
        boundary, again, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, KEY, tokens, 1, 3)
        assert (boundary, recomputed, cache.integrity_failures) == (2, True, 1)
        assert cache.entries[KEY].resume == 3 and np.array_equal(again, act)

    @pytest.fixture
    def stored(self, depth1, tokens):
        """The depth-1 model with a ledger stored at watermark 1 (boundary 2, resume 3)."""
        model, cache, store = depth1
        _, act, _ = cache_mod.fetch_or_recompute(cache, store, model, KEY, tokens, 1, 3)
        cache.depth_at_store = 1
        return model, cache, store, act

    def test_equal_watermark_hits(self, stored, tokens):
        model, cache, store, act = stored
        boundary, served, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, KEY, tokens, 1, 3)
        assert (boundary, recomputed, served is act) == (2, False, True)

    def test_higher_watermark_recomputes_at_new_resume_point(self, stored, tokens):
        model, cache, store, act = stored
        boundary, fresh, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, KEY, tokens, 2, 2)
        assert (boundary, recomputed, cache.entries[KEY].resume) == (1, True, 2)
        assert cache.entries[KEY].activations is fresh and cache.integrity_failures == 0
        assert np.array_equal(fresh, model_mod.compute_boundary_activation(model, tokens, 2))
        assert np.array_equal(forward_from_boundary(model, 2, fresh).data,
                              forward(model, tokens).data)

    def test_falling_watermark_raises_and_keeps_entries(self, stored, tokens):
        model, cache, store, act = stored
        cache.depth_at_store = 2
        entry = cache.entries[KEY]
        with pytest.raises(ContractViolation, match="watermark"):
            cache_mod.fetch_or_recompute(cache, store, model, KEY, tokens, 1, 3)
        with pytest.raises(ContractViolation, match="watermark"):
            cache_mod.fetch_or_recompute(cache, store, model, (0, 1), tokens, 1, 3)
        assert list(cache.entries) == [KEY] and cache.entries[KEY] is entry
        assert entry.resume == 3 and entry.activations is act
        assert (cache.depth_at_store, cache.integrity_failures) == (2, 0)
        assert store.resume_points() == [3]

    def test_cached_activation_is_read_only(self, stored, tokens):
        model, cache, store, act = stored
        _, served, recomputed = cache_mod.fetch_or_recompute(
            cache, store, model, KEY, tokens, 1, 3)
        assert served is act and not recomputed
        with pytest.raises(ValueError, match="read-only"):
            served[0, 0, 0] = 0.0
        stored = served.copy()
        # a training step from the served activation writes only parameters
        trainable = model.trainable_parameters()
        before = [p.data.copy() for p in trainable]
        logits = forward_from_boundary(model, 3, served)
        tn.cross_entropy_loss(logits, np.arange(tokens.shape[0]) % 3).backward()
        tn.sgd_step(trainable, 0.1)
        assert any(not np.array_equal(p.data, b) for p, b in zip(trainable, before))
        assert np.array_equal(served, stored)


class TestEvaluate:
    @pytest.fixture
    def small(self):
        spec = ModelSpec(num_layers=3, hidden=16, heads=2, ffn_dim=32,
                         vocab=24, seqlen=8, num_labels=3)
        rng = SeededRng(8)
        return build_model(spec, 2), rng.integers(0, 24, size=(165, 8)), rng.integers(0, 3, 165)

    @pytest.mark.parametrize("count", [64, 70, 165])
    def test_eval_chunks_give_whole_set_logits(self, small, count):
        model, tokens, _ = small
        tokens = tokens[:count]
        chunk = model_mod.PASS_SAMPLES
        assert chunk == 16 and count % chunk != 1
        chunked = np.concatenate([forward(model, tokens[s:s + chunk]).data
                                  for s in range(0, count, chunk)])
        assert_equal_on_skylakex(chunked, forward(model, tokens).data, atol=4 * F32_EPS)

    def test_accuracy_independent_of_chunk(self, small):
        model, tokens, labels = small
        accs = {evaluate(model, tokens, labels, chunk=c) for c in (2, 3, 32, 256)}
        assert len(accs) == 1

    def test_biased_classifier_scores_one(self, tiny_model, tiny_tokens):
        tiny_model.cls_w.data[:] = 0.0
        tiny_model.cls_b.data[:] = np.array([0.0, 10.0, 0.0])
        labels = np.array([1, 1, 1])
        assert evaluate(tiny_model, tiny_tokens, labels) == 1.0

    def test_random_model_near_chance(self):
        spec = ModelSpec(num_layers=1, hidden=8, heads=2, ffn_dim=16,
                         vocab=30, seqlen=6, num_labels=4)
        model = build_model(spec, 9)
        rng = SeededRng(17)
        tokens = np.concatenate(
            [np.zeros((600, 1), dtype=np.int64),
             rng.integers(1, 30, size=(600, 5))], axis=1)
        labels = rng.integers(0, 4, size=600)
        acc = evaluate(model, tokens, labels)
        # binomial 3-sigma band around chance level 1/4
        sigma = np.sqrt(0.25 * 0.75 / 600)
        assert abs(acc - 0.25) < 3 * sigma + 1e-9

    def test_deterministic(self, tiny_model, tiny_tokens):
        labels = np.array([0, 1, 2])
        assert evaluate(tiny_model, tiny_tokens, labels) == evaluate(
            tiny_model, tiny_tokens, labels)

    def test_empty_shard(self, tiny_model):
        with pytest.raises(EvaluationError):
            evaluate(tiny_model, np.zeros((0, 5), dtype=np.int64), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_refused_before_any_forward(self, monkeypatch, tiny_model,
                                                        tiny_tokens, chunk):
        # -1 gave an empty range and accuracy 0.0; 0 a bare ValueError from range()
        def no_forward(*args):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(model_mod, "forward", no_forward)
        with pytest.raises(EvaluationError, match="at least 1"):
            evaluate(tiny_model, tiny_tokens, np.array([0, 1, 2]), chunk)

    @pytest.mark.parametrize("shape", [(20, 1), (1,), (19,), (50,)])
    def test_labels_of_another_shape_refused_before_any_forward(self, monkeypatch, shape):
        # (20, 1) broadcast to 20 x 20 and scored above 1.0, (1,) scored every
        # sample against one label, 19 and 50 labels raised a bare numpy
        # broadcast ValueError
        spec = ModelSpec(num_layers=2, hidden=8, heads=2, ffn_dim=16,
                         vocab=12, seqlen=5, num_labels=3)
        model = build_model(spec, 1)
        tokens = SeededRng(3).integers(0, spec.vocab, size=(20, spec.seqlen))

        def no_forward(*args):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(model_mod, "forward", no_forward)
        with pytest.raises(EvaluationError, match="labels shape"):
            evaluate(model, tokens, np.zeros(shape, dtype=np.int64))

