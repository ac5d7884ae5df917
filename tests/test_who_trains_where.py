"""Who trains where: ``session.assign_groups`` draws and splits, ``fed.run_round`` trains.

A round's selection is one draw of the session's selection stream, cut into
consecutive groups with the remainder in the first. ``run_round`` draws
nothing itself: it trains the (track, group) pairs it is given, and only
those clients.
"""

import copy

import pytest

from fedtune import adapter as adapter_mod
from fedtune import configurator as conf_mod
from fedtune import fed as fed_mod
from fedtune import session as session_mod
from fedtune import trace as trace_mod
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.model import PrefixStore

from conftest import small_session_doc

# 3N = 9 of 12 clients: the draw is a cut of the permutation, and two tracks split it unevenly
NINE_OF_TWELVE = {"num_clients": 12, "participants_per_group": 3}
SIZES = {1: [9], 2: [5, 4], 3: [3, 3, 3]}  # group sizes by the number of tracks


def _track(world, name: str, depth: int) -> conf_mod.TrialTrack:
    scheme = TuningScheme("adapter", AdapterConfig(depth, 8))
    model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
    return conf_mod.TrialTrack(name, scheme, model)


def _draws(rng, ids: list[int], total: int, count: int) -> list[list[int]]:
    """The next ``count`` selections of ``total`` clients from a copy of the stream ``rng``."""
    probe = copy.deepcopy(rng)
    return [[ids[int(i)] for i in probe.permutation(len(ids))[:total]] for _ in range(count)]


def test_a_hand_built_assignment_trains_exactly_what_it_names(small_world):
    world = small_world
    server = world.server
    assert not any(c.cache.entries for c in server.registry.values())
    before = (server.round_index, server.rng_select._gen.bit_generator.state)
    events = fed_mod.run_round(
        server, [(_track(world, "current", 1), [7, 2, 5]), (_track(world, "deeper", 2), [4])],
        epochs=1, lr=world.config.learning_rate, store=PrefixStore(world.backbone))
    assert [(e["track"], e["participants"]) for e in events] == \
        [("current", [7, 2, 5]), ("deeper", [4])]
    for event in events:
        assert event["train_samples"] == sum(
            server.registry[cid].num_train_samples() for cid in event["participants"])
    for cid, client in server.registry.items():
        want = sorted((cid, b.batch_id) for b in client.train_batches) if cid in (2, 4, 5, 7) else []
        assert sorted(client.cache.entries) == want, cid
    # run_round draws no selection: the stream is where it was
    assert (server.round_index, server.rng_select._gen.bit_generator.state) == \
        (before[0] + 1, before[1])


@pytest.mark.parametrize("sizes", SIZES.values())
def test_one_draw_is_split_with_the_remainder_first(sizes):
    world = session_mod.build_world(session_mod.config_from_dict(small_session_doc(
        **NINE_OF_TWELVE)))
    tracks = [_track(world, name, 1) for name in ("current", "deeper", "wider")[:len(sizes)]]
    draws = _draws(world.server.rng_select, sorted(world.server.registry), 9, 2)
    for draw in draws:  # each call is the stream's next draw
        assignments = session_mod.assign_groups(world, tracks)
        assert [track for track, _ in assignments] == tracks
        groups = [group for _, group in assignments]
        assert [len(group) for group in groups] == sizes
        assert sum(groups, []) == draw and len(set(draw)) == 9


def test_a_sessions_rounds_train_one_draw_split_with_the_remainder_first(tmp_path):
    cfg = session_mod.config_from_dict(small_session_doc(
        mode="autofed", max_rounds=6, configurator={"trial_intvl_s": 0.2}, **NINE_OF_TWELVE))
    world = session_mod.build_world(cfg)
    draws = _draws(world.server.rng_select, sorted(world.server.registry), 9, cfg.max_rounds)
    result = session_mod.run_session_config(cfg, str(tmp_path / "nine.trace.jsonl"))
    rounds = trace_mod.events_of_kind(result.events, "round")
    seen = set()
    for index, draw in enumerate(draws, start=1):
        groups = [e["participants"] for e in rounds if e["round"] == index]
        assert [len(group) for group in groups] == SIZES[len(groups)]
        assert sum(groups, []) == draw and len(set(draw)) == 9
        seen.add(len(groups))
    assert seen == {2, 3}  # rounds of two tracks split 9 clients unevenly, [5, 4]
