"""Each trial track owns its model: a dispatch's tracks share no trainable array.

The current track takes the winner's model; the deeper and wider tracks
take models derived from it. Every model shares the frozen backbone but
owns copies of its trainable parameters, so one track's round never moves
another track's bytes.
"""

import itertools

import numpy as np
import pytest

from fedtune import configurator as conf_mod
from fedtune import fed as fed_mod
from fedtune import session as session_mod
from fedtune.model import PrefixStore

from conftest import small_session_doc


def _arrays(track) -> list[tuple[str, np.ndarray]]:
    """Every trainable array of the track's model."""
    return [(p.name, p.data) for p in track.model.trainable_parameters()]


def _snapshot(track) -> dict[str, bytes]:
    return {name: buf.tobytes() for name, buf in _arrays(track)}


@pytest.fixture
def redispatched():
    """A round of the first dispatch at depth 1, then a dispatch from its deeper track."""
    cfg = session_mod.config_from_dict(small_session_doc(
        mode="autofed", configurator={"start_depth": 1}))
    world = session_mod.build_world(cfg)
    first = conf_mod.dispatch(cfg.configurator, None, world.backbone, world.adapter_rng)
    store = PrefixStore(world.backbone)
    fed_mod.run_round(world.server, first, cfg.participants_total(),
                      epochs=1, lr=cfg.learning_rate, cache_enabled=True, store=store)
    winner = first[1]
    assert winner.name == conf_mod.TRACK_DEEPER
    tracks = conf_mod.dispatch(cfg.configurator, winner, world.backbone, world.adapter_rng)
    return world, winner, tracks, store


def test_current_track_keeps_the_winners_model(redispatched):
    _, winner, tracks, _ = redispatched
    assert [t.name for t in tracks] == ["current", "deeper", "wider"]
    current = tracks[0]
    assert current.model is winner.model and current.scheme == winner.scheme


def test_no_trainable_array_is_shared_between_tracks(redispatched):
    _, _, tracks, _ = redispatched
    for a, b in itertools.combinations(tracks, 2):
        for (name_a, buf_a), (name_b, buf_b) in itertools.product(_arrays(a), _arrays(b)):
            assert not np.shares_memory(buf_a, buf_b), (a.name, name_a, b.name, name_b)
    for track in tracks:
        for (name_a, buf_a), (name_b, buf_b) in itertools.combinations(_arrays(track), 2):
            assert not np.shares_memory(buf_a, buf_b), (track.name, name_a, name_b)


def test_a_deeper_round_leaves_the_current_track_alone(redispatched):
    world, _, tracks, store = redispatched
    current, deeper, wider = tracks
    before = {t.name: _snapshot(t) for t in (current, wider)}
    trained_from = _snapshot(deeper)
    depth = deeper.scheme.tuning_depth(world.config.model.num_layers)
    fed_mod.run_track_round(deeper, [0, 1], world.server.registry, epochs=1,
                            lr=world.config.learning_rate, cache_enabled=True,
                            round_index=1, depth_watermark=depth, store=store)
    assert _snapshot(deeper) != trained_from  # the round did train
    for track in (current, wider):
        assert _snapshot(track) == before[track.name], track.name
