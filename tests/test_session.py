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
