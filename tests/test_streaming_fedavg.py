"""FedAvg folded one client at a time: exact, checked, and flat in memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedtune import adapter as adapter_mod
from fedtune import configurator as conf_mod
from fedtune import fed as fed_mod
from fedtune import session as session_mod
from fedtune.adapter import AdapterConfig, AdapterPayload, TuningScheme
from fedtune.errors import AggregationError
from fedtune.model import PrefixStore

from conftest import small_session_doc

SCHEME = TuningScheme("adapter", AdapterConfig(1, 8, 8))
SHAPES = {"a.w": (3, 4), "a.b": (5,)}


def list_fedavg(updates: list[fed_mod.ClientUpdate]) -> dict[str, np.ndarray]:
    """The reference: the whole group's updates averaged at once, in client-id order."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.num_samples for u in ordered)
    base = ordered[0].payload
    merged = {}
    for key in base.buffers:
        anchor = base.buffers[key]
        acc = anchor.copy()
        for u in ordered:
            weight = u.num_samples / total
            delta = u.payload.buffers[key] - anchor
            if delta.any():
                acc += weight * delta
        merged[key] = acc
    return merged


def fold(updates) -> fed_mod.RunningMean:
    mean = fed_mod.RunningMean(sum(u.num_samples for u in updates))
    for update in updates:
        fed_mod.fedavg(mean, update)
    return mean


def _update(cid: int, n: int = 4, scheme=SCHEME, shapes=SHAPES):
    buffers = {k: np.zeros(shape, np.float32) for k, shape in shapes.items()}
    return fed_mod.ClientUpdate(cid, AdapterPayload(scheme, buffers), n)


_values = st.floats(-1e3, 1e3, width=32, allow_nan=False, allow_infinity=False)


@st.composite
def groups(draw):
    """Updates of one round, in a selection order; some equal the anchor's payload."""
    size = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size, unique=True))
    counts = draw(st.lists(st.integers(1, 50), min_size=size, max_size=size))
    payloads = [{k: draw(hnp.arrays(np.float32, shape, elements=_values))
                 for k, shape in SHAPES.items()} for _ in range(size)]
    anchor = payloads[ids.index(min(ids))]
    for i in range(size):
        if draw(st.booleans()):
            payloads[i] = {k: b.copy() for k, b in anchor.items()}
    updates = [fed_mod.ClientUpdate(cid, AdapterPayload(SCHEME, p), n)
               for cid, n, p in zip(ids, counts, payloads)]
    return draw(st.permutations(updates))


class TestFoldEqualsListFormula:
    @settings(max_examples=150, deadline=None)
    @given(groups())
    def test_bit_for_bit(self, selection):
        expected = list_fedavg(selection)
        # the round trains in ascending client id, and every client's trained
        # values sit in the same model arrays, overwritten by the next load
        model_arrays = {k: np.empty(shape, np.float32) for k, shape in SHAPES.items()}
        mean = fed_mod.RunningMean(sum(u.num_samples for u in selection))
        for update in sorted(selection, key=lambda u: u.client_id):
            for key, buf in update.payload.buffers.items():
                np.copyto(model_arrays[key], buf)
            fed_mod.fedavg(mean, fed_mod.ClientUpdate(
                update.client_id, AdapterPayload(SCHEME, model_arrays), update.num_samples))
            for buf in model_arrays.values():
                buf.fill(np.nan)  # what the next client's load would do
        merged = mean.payload()
        assert merged.scheme == SCHEME and list(merged.buffers) == list(expected)
        for key, buf in expected.items():
            assert merged.buffers[key].tobytes() == buf.tobytes(), key


class TestAggregationErrors:
    def test_scheme_mismatch(self):
        other = TuningScheme("adapter", AdapterConfig(1, 16, 8))
        with pytest.raises(AggregationError, match="client 2 payload does not match"):
            fold([_update(1), _update(2, scheme=other)])

    def test_buffer_name_mismatch(self):
        with pytest.raises(AggregationError, match="client 2 payload does not match"):
            fold([_update(1), _update(2, shapes={"a.b": (5,), "a.w": (3, 4)})])
        with pytest.raises(AggregationError, match="client 2 payload does not match"):
            fold([_update(1), _update(2, shapes={"a.w": (3, 4)})])

    def test_empty_group(self):
        with pytest.raises(AggregationError, match="empty group"):
            fed_mod.RunningMean(0).payload()

    def test_empty_group_in_a_track_round(self, small_world):
        track = _track(small_world, TuningScheme("full"))
        with pytest.raises(AggregationError, match="empty group"):
            _track_round(small_world, track, [])

    @pytest.mark.parametrize("ids", [(3, 3), (5, 2), (1, 4, 4), (1, 7, 6)])
    def test_ids_must_ascend(self, ids):
        with pytest.raises(AggregationError, match="ids must ascend"):
            fold([_update(cid) for cid in ids])

    def test_nonpositive_total(self):
        with pytest.raises(AggregationError, match="must be > 0"):
            fed_mod.fedavg(fed_mod.RunningMean(0), _update(1, n=0))

    def test_folded_count_must_match_the_group(self):
        mean = fed_mod.RunningMean(10)
        fed_mod.fedavg(mean, _update(1, n=4))
        with pytest.raises(AggregationError, match="folded 4 samples, the group has 10"):
            mean.payload()


def _track(world, scheme):
    model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
    return conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, adapter_mod.extract_payload(model, scheme))


def _track_round(world, track, group, store=None):
    return fed_mod.run_track_round(
        track, group, world.server.registry, backbone=world.backbone, epochs=1,
        lr=world.config.learning_rate, cache_enabled=True,
        depth_watermark=track.payload.scheme.tuning_depth(world.config.model.num_layers),
        store=store or PrefixStore(world.backbone))


class TestTrackRound:
    def test_group_order_changes_only_the_listing(self, small_world):
        scheme = TuningScheme("adapter", AdapterConfig(2, 8, 8))
        payload = _track(small_world, scheme).payload
        results = []
        for group in ([5, 1, 7], [1, 7, 5]):
            world = session_mod.build_world(small_world.config)  # fresh client ledgers
            track = conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, payload)
            stats = _track_round(world, track, group)
            assert stats.participants == group and list(stats.client_energy) == group
            results.append((track, stats))
        (a, sa), (b, sb) = results
        for key, buf in a.payload.buffers.items():
            assert buf.tobytes() == b.payload.buffers[key].tobytes(), key
        assert sa.client_energy == sb.client_energy
        assert sa.round_seconds == sb.round_seconds and sa.train_samples == sb.train_samples

    def test_model_is_kept_and_holds_the_payload(self, small_world, monkeypatch):
        calls = []

        def counting_materialize(*args, _inner=adapter_mod.materialize, **kwargs):
            calls.append(args[1])
            return _inner(*args, **kwargs)

        track = _track(small_world, TuningScheme("adapter", AdapterConfig(2, 8, 8)))
        monkeypatch.setattr(adapter_mod, "materialize", counting_materialize)
        store = PrefixStore(small_world.backbone)
        _track_round(small_world, track, [0, 3], store)
        model = track.model
        _track_round(small_world, track, [2, 4, 8], store)
        assert track.model is model and len(calls) == 1
        for p in model.trainable_parameters():
            assert p.tensor.data is not track.payload.buffers[p.name]
            assert p.tensor.data.tobytes() == track.payload.buffers[p.name].tobytes(), p.name

    def test_duplicate_participant_raises(self, small_world):
        track = _track(small_world, TuningScheme("full"))
        with pytest.raises(AggregationError, match="ids must ascend"):
            _track_round(small_world, track, [2, 2])


def _round_peak(participants: int) -> tuple[int, int]:
    """tracemalloc peak of one full fine-tuning round, and the track's payload bytes."""
    cfg = session_mod.config_from_dict(small_session_doc(mode="full_ft", num_clients=12))
    world = session_mod.build_world(cfg)
    track = _track(world, TuningScheme("full"))
    store = PrefixStore(world.backbone)
    tracemalloc.start()
    try:
        fed_mod.run_round(world.server, [track], participants, backbone=world.backbone,
                          epochs=1, lr=cfg.learning_rate, cache_enabled=True, store=store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(b.nbytes for b in track.payload.buffers.values())


def test_round_memory_does_not_grow_with_participants():
    """The fold holds two payloads, not one per participant."""
    small, payload_bytes = _round_peak(3)
    large, _ = _round_peak(12)
    assert large - small < payload_bytes, (small, large, payload_bytes)
