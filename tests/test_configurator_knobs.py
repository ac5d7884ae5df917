"""What each configurator knob does to the dispatched configurations and the decision clock.

Every test runs on the small config (3 layers, hidden 16). A track's widths
are read both from its scheme, as the trace reports them, and from its
model's trainable parameters, the adapters the clients actually train.
"""

import pytest

from fedtune import configurator as conf_mod
from fedtune import costmodel
from fedtune import session as session_mod
from fedtune import trace as trace_mod

from conftest import small_session_doc


def _units(model) -> dict[int, list[int]]:
    """Adapted layer -> the width of each unit in its stack, from the trainable parameters."""
    units: dict[int, list[int]] = {}
    for name, buf in sorted((p.name, p.data) for p in model.trainable_parameters()):
        if name.endswith(".w_down"):
            units.setdefault(int(name[len("block"):name.index(".")]), []).append(buf.shape[1])
    return units


def _first_dispatch(**configurator) -> list[tuple]:
    cfg = session_mod.config_from_dict(small_session_doc(mode="autofed",
                                                         configurator=configurator))
    world = session_mod.build_world(cfg)
    tracks = conf_mod.dispatch(cfg.configurator, None, world.backbone, world.adapter_rng)
    return [(t.name, t.scheme.tuning_depth(cfg.model.num_layers), t.scheme.adapter.width,
             _units(t.model)) for t in tracks]


def _events(tmp_path, **overrides) -> list[dict]:
    doc = small_session_doc(**overrides)
    result = session_mod.run_session_config(session_mod.config_from_dict(doc),
                                            str(tmp_path / "t.jsonl"))
    return result.events


def test_defaults():
    assert _first_dispatch() == [("current", 0, 8, {}), ("deeper", 1, 8, {3: [8]})]


def test_depth_step_sets_how_far_the_deeper_track_reaches():
    assert _first_dispatch(depth_step=2) == [
        ("current", 0, 8, {}), ("deeper", 2, 8, {2: [8], 3: [8]})]


def test_width_step_sets_the_unit_and_the_wider_track():
    assert _first_dispatch(start_depth=1, width_step=4) == [
        ("current", 1, 8, {3: [4, 4]}),
        ("deeper", 2, 8, {2: [4, 4], 3: [4, 4]}),
        ("wider", 1, 12, {3: [4, 4, 4]}),
    ]


@pytest.mark.parametrize("width_step, unit", [(8, [8, 8]), (16, [16])])
def test_start_width_sets_every_first_track(width_step, unit):
    # a deeper track from depth 0 takes its stack from the configuration,
    # not one unit of the minimum width
    assert _first_dispatch(start_width=16, width_step=width_step) == [
        ("current", 0, 16, {}), ("deeper", 1, 16, {3: unit})]


def test_start_width_climb_ships_the_reported_widths(tmp_path):
    events = _events(tmp_path, mode="autofed", max_rounds=12,
                     configurator={"start_width": 16, "width_step": 16, "trial_intvl_s": 1.0})
    visited = trace_mod.events_of_kind(events, "summary")[0]["configs_visited"]
    assert visited[:3] == [[0, 16], [1, 16], [1, 32]]
    shapes = {}
    for e in events:
        if e["evt"] == "dispatch":
            shapes = {t["track"]: (t["depth"], t["width"]) for t in e["tracks"]}
        elif e["evt"] == "round":
            depth, width = shapes[e["track"]]
            # per unit of width 16 at hidden 16: w_down, b_down, w_up, b_up
            unit_scalars = 16 * 16 + 16 + 16 * 16 + 16
            classifier = 16 * 3 + 3
            assert e["payload_bytes"] == costmodel.payload_bytes(
                depth * (width // 16) * unit_scalars + classifier)


@pytest.mark.parametrize("growth, rounds", [
    (1.0, [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
    (2.0, [2, 4, 8, 12]),
])
def test_intvl_growth_stretches_each_next_interval(growth, rounds, tmp_path):
    events = _events(tmp_path, mode="autofed", max_rounds=12,
                     configurator={"trial_intvl_s": 1.0, "intvl_growth": growth})
    decisions = trace_mod.events_of_kind(events, "decision")
    assert [e["round"] for e in decisions] == rounds
    clocks = [0.0] + [e["clock"] for e in decisions]
    for k, (before, after) in enumerate(zip(clocks, clocks[1:])):
        assert after - before > 1.0 * growth ** k


@pytest.mark.parametrize("monolithic, units, scalars", [
    (True, [16], 2 * (16 * 16 + 16 + 16 * 16 + 16) + 16 * 3 + 3),
    (False, [8, 8], 2 * 2 * (16 * 8 + 8 + 8 * 16 + 16) + 16 * 3 + 3),
])
def test_monolithic_adapters_choose_one_unit_or_a_stack(monolithic, units, scalars, tmp_path):
    doc = dict(fixed_depth=2, fixed_width=16, monolithic_adapters=monolithic,
               configurator={"width_step": 8}, max_rounds=1)
    cfg = session_mod.config_from_dict(small_session_doc(**doc))
    [track] = session_mod.start_session(session_mod.build_world(cfg)).tracks
    assert _units(track.model) == {2: units, 3: units}
    [round_event] = trace_mod.events_of_kind(_events(tmp_path, **doc), "round")
    assert round_event["payload_bytes"] == costmodel.payload_bytes(scalars)
