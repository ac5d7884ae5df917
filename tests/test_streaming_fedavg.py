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
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.errors import AggregationError
from fedtune.model import PrefixStore
from fedtune.tensor_nn import SeededRng

from conftest import drawn_group, small_session_doc

SHAPES = {"a.w": (3, 4), "a.b": (5,)}


def list_fedavg(updates: list[fed_mod.ClientUpdate]) -> dict[str, np.ndarray]:
    """The reference: the whole group's updates averaged at once, in client-id order."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.num_samples for u in ordered)
    base = ordered[0].payload
    merged = {}
    for key, anchor in base.items():
        acc = anchor.copy()
        for u in ordered:
            weight = u.num_samples / total
            delta = u.payload[key] - anchor
            if delta.any():
                acc += weight * delta
        merged[key] = acc
    return merged


def fold(updates) -> fed_mod.RunningMean:
    mean = fed_mod.RunningMean(sum(u.num_samples for u in updates))
    for update in updates:
        fed_mod.fedavg(mean, update)
    return mean


def _update(cid: int, n: int = 4, shapes=SHAPES):
    buffers = {k: np.zeros(shape, np.float32) for k, shape in shapes.items()}
    return fed_mod.ClientUpdate(cid, buffers, n)


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
    updates = [fed_mod.ClientUpdate(cid, p, n)
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
            for key, buf in update.payload.items():
                np.copyto(model_arrays[key], buf)
            fed_mod.fedavg(mean, fed_mod.ClientUpdate(
                update.client_id, model_arrays, update.num_samples))
            for buf in model_arrays.values():
                buf.fill(np.nan)  # what the next client's load would do
        merged = mean.payload()
        assert list(merged) == list(expected)
        for key, buf in expected.items():
            assert merged[key].tobytes() == buf.tobytes(), key


class TestAggregationErrors:
    @pytest.mark.parametrize("other", [
        TuningScheme("adapter", AdapterConfig(1, 16)),  # same names, wider bottleneck
        TuningScheme("adapter", AdapterConfig(2, 8)),   # one more layer: more names
        TuningScheme("full"),
    ])
    def test_scheme_mismatch(self, tiny_model, other):
        """On one backbone, another scheme's buffers differ in names or shapes."""
        updates = [fed_mod.ClientUpdate(cid, adapter_mod.extract_payload(
            adapter_mod.materialize(tiny_model, scheme, rng=SeededRng(1))), 4)
            for cid, scheme in ((1, TuningScheme("adapter", AdapterConfig(1, 8))),
                                (2, other))]
        with pytest.raises(AggregationError, match="client 2 payload does not match"):
            fold(updates)

    def test_shape_mismatch(self):
        # same names as the anchor: (1,) against (5,) would broadcast into the sum
        with pytest.raises(AggregationError, match="client 2 payload does not match"):
            fold([_update(1), _update(2, shapes={"a.w": (3, 4), "a.b": (1,)})])

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
    return conf_mod.TrialTrack(conf_mod.TRACK_CURRENT, scheme, model)


def _track_round(world, track, group, store=None):
    [event] = fed_mod.run_round(world.server, [(track, group)], epochs=1,
                                lr=world.config.learning_rate,
                                store=store or PrefixStore(world.backbone))
    return event


class TestTrackRound:
    def test_group_order_changes_only_the_listing(self, small_world):
        scheme = TuningScheme("adapter", AdapterConfig(2, 8))
        start = _trained_bytes(_track(small_world, scheme).model)
        results = []
        for group in ([5, 1, 7], [1, 7, 5]):
            world = session_mod.build_world(small_world.config)  # fresh client ledgers
            track = _track(world, scheme)
            # a fresh world draws the same adapters: both tracks start from one payload
            assert _trained_bytes(track.model) == start
            event = _track_round(world, track, group)
            assert event["participants"] == group
            assert list(event["client_energy"]) == [str(cid) for cid in group]
            results.append((track, event))
        (a, ea), (b, eb) = results
        assert _trained_bytes(a.model) == _trained_bytes(b.model)
        assert ea["client_energy"] == eb["client_energy"]
        assert ea["round_seconds"] == eb["round_seconds"]
        assert ea["train_samples"] == eb["train_samples"]

    def test_model_is_kept_and_holds_the_mean(self, small_world, monkeypatch):
        calls, means = [], []

        def counting_materialize(*args, _inner=adapter_mod.materialize, **kwargs):
            calls.append(args[1])
            return _inner(*args, **kwargs)

        def recording_fedavg(mean, update, _inner=fed_mod.fedavg):
            if not means or means[-1] is not mean:
                means.append(mean)
            _inner(mean, update)

        track = _track(small_world, TuningScheme("adapter", AdapterConfig(2, 8)))
        model = track.model
        monkeypatch.setattr(adapter_mod, "materialize", counting_materialize)
        monkeypatch.setattr(fed_mod, "fedavg", recording_fedavg)
        store = PrefixStore(small_world.backbone)
        for group in ([0, 3], [2, 4, 8]):
            _track_round(small_world, track, group, store)
            mean = means[-1].payload()
            assert _trained_bytes(model) == {name: buf.tobytes() for name, buf in mean.items()}
            for p in model.trainable_parameters():
                assert not np.shares_memory(p.data, mean[p.name]), p.name
        assert track.model is model and calls == [] and len(means) == 2

    def test_duplicate_participant_raises(self, small_world):
        track = _track(small_world, TuningScheme("full"))
        with pytest.raises(AggregationError, match="ids must ascend"):
            _track_round(small_world, track, [2, 2])


def _trained_bytes(model) -> dict[str, bytes]:
    """The bytes of every trainable parameter of ``model``, by name."""
    return {p.name: p.data.tobytes() for p in model.trainable_parameters()}


def _round_peak(participants: int) -> tuple[int, int]:
    """tracemalloc peak of one full fine-tuning round, and the track's payload bytes."""
    # 3N = 12: the round can draw the whole population
    cfg = session_mod.config_from_dict(small_session_doc(mode="full_ft", num_clients=12,
                                                         participants_per_group=4))
    world = session_mod.build_world(cfg)
    track = _track(world, TuningScheme("full"))
    store = PrefixStore(world.backbone)
    tracemalloc.start()
    try:
        fed_mod.run_round(world.server, drawn_group(world, track, participants),
                          epochs=1, lr=cfg.learning_rate, store=store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(p.data.nbytes for p in track.model.trainable_parameters())


def test_round_memory_does_not_grow_with_participants():
    """The fold holds two payloads, not one per participant."""
    small, payload_bytes = _round_peak(3)
    large, _ = _round_peak(12)
    assert large - small < payload_bytes, (small, large, payload_bytes)
