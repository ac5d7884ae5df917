"""Invariants of the one session loop, its traces and their report."""

import copy
import json
import math
import re

import numpy as np
import pytest

from fedtune import session as session_mod
from fedtune import trace as trace_mod
from fedtune.errors import TraceParseError

from conftest import small_session_doc

CLIMBING = small_session_doc(mode="autofed", max_rounds=12, configurator={"trial_intvl_s": 1.0})

MODE_DOCS = {
    "autofed": CLIMBING,
    "fixed_adapter": small_session_doc(max_rounds=3),
    "full_ft": small_session_doc(mode="full_ft", max_rounds=3),
    "layer_freeze": small_session_doc(mode="layer_freeze", freeze_layers=1, max_rounds=3),
}


def _run(doc: dict, path) -> session_mod.SessionResult:
    return session_mod.run_session_config(session_mod.config_from_dict(doc), str(path))


FORKED = {
    # 8 rounds, a decision after each
    "climbing": small_session_doc(mode="autofed", max_rounds=8,
                                  configurator={"start_depth": 1, "trial_intvl_s": 0.5}),
    "fixed_adapter": MODE_DOCS["fixed_adapter"],
}
FORKED["climbing_uncached"] = {**FORKED["climbing"], "cache_enabled": False}


@pytest.mark.parametrize("name", sorted(FORKED))
def test_a_deep_copy_forks_a_session(name, tmp_path):
    """A ``Session`` forked after any round writes the rest of its trace, byte for byte.

    The session runs to its end before any fork continues, and every fork
    writes to a writer of its own: state kept in the writer or anywhere
    outside the ``Session`` (a dispatch count, say) makes a fork's trace differ.
    """
    cfg = session_mod.config_from_dict(FORKED[name])
    session = session_mod.start_session(session_mod.build_world(cfg))
    forks = []
    with trace_mod.TraceWriter(str(tmp_path / "whole.jsonl")) as writer:
        for _ in range(cfg.max_rounds):
            assert not session_mod.step(session, writer)
            forks.append((len(writer.events), copy.deepcopy(session)))
    whole = (tmp_path / "whole.jsonl").read_bytes().splitlines(keepends=True)
    if name.startswith("climbing"):
        assert sum(b'"evt":"decision"' in line for line in whole) == cfg.max_rounds
    for done, (emitted, fork) in enumerate(forks, start=1):
        path = tmp_path / f"fork{done}.jsonl"
        with trace_mod.TraceWriter(str(path)) as writer:
            for _ in range(done, cfg.max_rounds):
                assert not session_mod.step(fork, writer)
        assert path.read_bytes() == b"".join(whole[emitted:]), f"forked after round {done}"


def test_cache_does_not_change_accuracies(tmp_path):
    cached = _run(CLIMBING, tmp_path / "cached.jsonl")
    uncached = _run({**CLIMBING, "cache_enabled": False}, tmp_path / "uncached.jsonl")
    assert cached.summary["depth_increases"] >= 1
    assert cached.summary["cache_hits"] > 0 and uncached.summary["cache_hits"] == 0
    evals = [[(e["round"], e["track"], e["accuracy"])
              for e in trace_mod.events_of_kind(r.events, "eval")]
             for r in (cached, uncached)]
    assert evals[0] == evals[1]


@pytest.mark.parametrize("epochs, hits, recomputes, round_seconds", [
    (1, 0, 18, 2.0733493333333337),
    (2, 18, 18, 3.848349333333334),
    (3, 36, 18, 5.6233493333333335),
])
def test_later_local_epochs_hit_the_cache(epochs, hits, recomputes, round_seconds, tmp_path):
    """A new watermark recomputes each batch once per round, not once per epoch."""
    result = _run(small_session_doc(local_epochs=epochs, max_rounds=1), tmp_path / "t.jsonl")
    [round_event] = trace_mod.events_of_kind(result.events, "round")
    assert (round_event["cache_hits"], round_event["cache_recomputes"]) == (hits, recomputes)
    assert round_event["round_seconds"] == round_seconds


@pytest.mark.parametrize("mode", ["fixed_adapter", "full_ft", "layer_freeze"])
def test_fixed_modes_dispatch_once_and_never_decide(mode, tmp_path):
    result = _run(MODE_DOCS[mode], tmp_path / "t.jsonl")
    [dispatch] = trace_mod.events_of_kind(result.events, "dispatch")
    assert [t["track"] for t in dispatch["tracks"]] == ["current"]
    assert trace_mod.events_of_kind(result.events, "decision") == []
    assert len(trace_mod.events_of_kind(result.events, "round")) == result.summary["rounds"]


@pytest.mark.parametrize("mode", sorted(MODE_DOCS))
def test_report_reconciles_with_summary(mode, tmp_path):
    path = tmp_path / "t.jsonl"
    result = _run(MODE_DOCS[mode], path)
    [session] = session_mod.report([str(path)])["sessions"]
    assert session["traffic_bytes"] == result.summary["traffic_bytes"] > 0
    assert session["energy_j"] == result.summary["energy_j"]

    lines = path.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["traffic_bytes"] += 1
    path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    with pytest.raises(TraceParseError, match="summary field 'traffic_bytes' disagrees"):
        session_mod.report([str(path)])


@pytest.mark.parametrize("mode", sorted(MODE_DOCS))
def test_report_per_client_adds_up_to_the_session(mode, tmp_path):
    path = tmp_path / "t.jsonl"
    result = _run(MODE_DOCS[mode], path)
    [session] = session_mod.report([str(path)])["sessions"]
    clients = session["per_client"].values()
    rounds = trace_mod.events_of_kind(result.events, "round")
    assert len(clients) > 1
    assert sum(c["traffic_bytes"] for c in clients) == result.summary["traffic_bytes"]
    assert sum(c["rounds"] for c in clients) == sum(len(e["participants"]) for e in rounds)
    assert sum(c["energy_j"] for c in clients) == pytest.approx(result.summary["energy_j"],
                                                                 rel=1e-12)


# In round 1 the deeper track meets the target at clock 2.0733 and is emitted
# first; the wider track meets it at clock 1.4866.
TARGETED = small_session_doc(seed=1, mode="autofed", max_rounds=20, target_accuracy=0.4,
                             configurator={"start_depth": 1, "trial_intvl_s": 0.5})


@pytest.fixture(scope="module")
def targeted(tmp_path_factory):
    path = tmp_path_factory.mktemp("targeted") / "t.jsonl"
    return _run(TARGETED, path), path


def test_time_to_target_is_the_earliest_eval_clock(targeted):
    result, _ = targeted
    evals = [(e["track"], e["clock"]) for e in trace_mod.events_of_kind(result.events, "eval")
             if e["accuracy"] >= 0.4]
    assert evals == [("deeper", 2.0733493333333337), ("wider", 1.4865546666666667)]
    assert result.summary["reached"] and result.exit_code == session_mod.EXIT_OK
    assert result.summary["time_to_target"] == 1.4865546666666667
    assert session_mod.time_to_accuracy(result.events, 1.0, 0.4) == 1.4865546666666667


FORGERIES = {
    "energy_j": lambda v: 2 * v,
    "rounds": lambda v: v + 1,
    "cache_hits": lambda v: v + 7,
    "cache_recomputes": lambda v: v - 1,
    "best_accuracy": lambda v: 0.99,
    "depth_increases": lambda v: v + 1,
    "reached": lambda v: not v,
    "time_to_target": lambda v: 2.0733493333333337,
    "configs_visited": lambda v: v + [[2, 8]],
}


@pytest.mark.parametrize("field", sorted(FORGERIES))
def test_report_refuses_a_forged_summary_field(field, targeted, tmp_path):
    _, source = targeted
    lines = source.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary[field] = FORGERIES[field](summary[field])
    path = tmp_path / "forged.jsonl"
    path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    with pytest.raises(TraceParseError, match=f"summary field '{field}' disagrees"):
        session_mod.report([str(path)])


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[1:], "expected a leading session event"),
    (lambda lines: lines[:-1], "expected exactly one summary event, at the end"),
    (lambda lines: lines + lines[-1:], "expected exactly one summary event, at the end"),
    (lambda lines: lines[:-1] + [lines[-1][:-1] + ',"extra":1}'], "summary field 'extra'"),
], ids=["no_session_event", "no_summary", "two_summaries", "extra_field"])
def test_report_refuses_a_misshapen_trace(edit, message, targeted, tmp_path):
    _, source = targeted
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(edit(source.read_text().splitlines())) + "\n")
    with pytest.raises(TraceParseError, match=message):
        session_mod.report([str(path)])


def _edited(source, tmp_path, kind: str, edit) -> str:
    """A copy of the trace at ``source`` whose first event of ``kind`` went through ``edit``."""
    lines = source.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if f'"evt":"{kind}"' in line)
    event = json.loads(lines[index])
    edit(event)
    lines[index] = json.dumps(event)
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_report_refuses_another_trace_version(version, targeted, tmp_path):
    def edit(event):
        event["version"] = version
        if version is None:
            del event["version"]
    path = _edited(targeted[1], tmp_path, "session", edit)
    with pytest.raises(TraceParseError, match=re.escape(
            f"{path}: trace version {version!r}, expected {trace_mod.TRACE_VERSION}")):
        session_mod.report([path])


def _first_client(event) -> str:
    return str(event["participants"][0])


def _nudge_first_client(event):
    """Its energy one ulp higher."""
    energies = event["client_energy"]
    energies[_first_client(event)] = math.nextafter(energies[_first_client(event)], math.inf)


def _rename_first_client(event):
    event["client_energy"]["99"] = event["client_energy"].pop(_first_client(event))


def _drop_first_client(event):
    del event["client_energy"][_first_client(event)]


def _repeat_first_participant(event):
    event["participants"].append(event["participants"][0])


ROUND_TAMPERS = {
    "nudge_a_client": (_nudge_first_client, "energy_j .* is not the sum of its client energies"),
    "rename_a_client": (_rename_first_client, "client_energy keys .* are not its participants"),
    "drop_a_client": (_drop_first_client, "client_energy keys .* are not its participants"),
    "repeat_a_participant": (_repeat_first_participant,
                             "client_energy keys .* are not its participants"),
}


@pytest.mark.parametrize("tamper", sorted(ROUND_TAMPERS))
def test_report_refuses_a_round_whose_energies_do_not_add_up(tamper, targeted, tmp_path):
    edit, message = ROUND_TAMPERS[tamper]
    path = _edited(targeted[1], tmp_path, "round", edit)
    with pytest.raises(TraceParseError, match=re.escape(f"{path}: round 1 of track 'current': ")
                       + message):
        session_mod.report([path])


def test_report_names_a_malformed_event(targeted, tmp_path):
    path = _edited(targeted[1], tmp_path, "round", lambda event: event.pop("energy_j"))
    with pytest.raises(TraceParseError, match=re.escape(
            f"{path}: malformed trace at line 3: round field 'energy_j': missing")):
        session_mod.report([path])


def test_report_refuses_a_round_without_client_energy(targeted, tmp_path):
    path = _edited(targeted[1], tmp_path, "round", lambda event: event.pop("client_energy"))
    with pytest.raises(TraceParseError, match="line 3: round field 'client_energy': missing"):
        session_mod.report([path])


def test_truncated_trace_names_the_line(tmp_path):
    path = tmp_path / "t.jsonl"
    _run(MODE_DOCS["fixed_adapter"], path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 3"):
        trace_mod.read_trace(str(path))


@pytest.mark.parametrize("line", ["123", "[1, 2]", '"round"', "null"])
def test_non_object_trace_line_names_the_line(line, tmp_path):
    path = tmp_path / "t.jsonl"
    _run(MODE_DOCS["fixed_adapter"], path)
    lines = path.read_text().splitlines()
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 2: expected a JSON object"):
        trace_mod.read_trace(str(path))
    with pytest.raises(TraceParseError, match="line 2"):
        session_mod.report([str(path)])


def test_emitted_events_are_the_trace_read_back(tmp_path):
    """Emitters hand over JSON-native values: what a writer holds is what a reader reads."""
    path = tmp_path / "t.jsonl"
    result = _run(CLIMBING, path)
    assert result.events == trace_mod.read_trace(str(path))
    assert {type(cid) for e in trace_mod.events_of_kind(result.events, "round")
            for cid in e["client_energy"]} == {str}


def test_client_ids_sort_as_strings(tmp_path):
    """``client_energy`` is keyed by ``str(cid)`` before ``sort_keys``, so "10" precedes "2"."""
    path = tmp_path / "t.jsonl"
    _run(small_session_doc(num_clients=12, participants_per_group=4, max_rounds=2), path)
    rounds = trace_mod.events_of_kind(trace_mod.read_trace(str(path)), "round")
    for event in rounds:  # a JSON object reads back in the file's key order
        assert list(event["client_energy"]) == sorted(map(str, event["participants"]))
    assert any(max(e["participants"]) >= 10 > min(e["participants"]) for e in rounds)


@pytest.mark.parametrize("field, value, shown", [
    ("round", np.int64(3), "round field 'round': expected int, got np.int64(3)"),
    ("client_energy", {"1": np.float32(0.5)},
     "round field 'client_energy.1': expected float, got np.float32(0.5)"),
    ("participants", [np.arange(2)],
     "round field 'participants[0]': expected int, got array([0, 1])"),
])
def test_a_numpy_value_in_an_event_fails_loudly(field, value, shown, targeted, tmp_path):
    """Emitters hand over plain Python values; a numpy one is refused, not converted."""
    event = trace_mod.events_of_kind(targeted[0].events, "round")[0]
    path = tmp_path / "t.jsonl"
    with trace_mod.TraceWriter(str(path)) as writer:
        with pytest.raises(TraceParseError, match=re.escape(shown)):
            writer.emit({**event, field: value})
        assert writer.events == []
    assert path.read_bytes() == b""
