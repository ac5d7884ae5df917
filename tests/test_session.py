"""Invariants of the one session loop, its traces and their report."""

import json

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
    with pytest.raises(TraceParseError, match="traffic accounting mismatch"):
        session_mod.report([str(path)])


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
