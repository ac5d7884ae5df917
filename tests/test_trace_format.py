"""``emit``, ``report`` and ``fedtune report`` refuse an event unless it matches ``trace.EVENTS``.

Each refusal names the kind and the field: an unknown kind, a missing
field, an undeclared one, and a value of the wrong JSON type (``true`` for
an int, ``"1"`` for a float), at the top level and inside nested objects.
"""

import json
import re

import pytest

from fedtune import cli
from fedtune import session as session_mod
from fedtune import trace as trace_mod
from fedtune.errors import TraceParseError
from fedtune.session import EXIT_CONFIG_ERROR

from conftest import small_session_doc

# decides and deepens, so all six kinds appear
CLIMBING = small_session_doc(mode="autofed", max_rounds=6, configurator={"trial_intvl_s": 1.0})


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("climb") / "t.jsonl"
    session_mod.run_session_config(session_mod.config_from_dict(CLIMBING), str(path))
    lines = path.read_text().splitlines()
    assert {json.loads(line)["evt"] for line in lines} == set(trace_mod.EVENTS)
    return lines


def _wrong_value(spec):
    return True if spec is int else 1 if spec is str else "1"


def _refused_everywhere(lines, kind, edit, message, tmp_path, capsys, read_message=None):
    """``edit`` applied to the first event of ``kind`` is refused by all three, naming it.

    ``read_message`` is what reading the edited trace names, where it differs.
    """
    index = next(i for i, line in enumerate(lines) if json.loads(line)["evt"] == kind)
    event = json.loads(lines[index])
    edit(event)

    emitted = tmp_path / "emitted.jsonl"
    with trace_mod.TraceWriter(str(emitted)) as writer:
        with pytest.raises(TraceParseError, match=re.escape(message)):
            writer.emit(event)
        assert writer.events == []
    assert emitted.read_bytes() == b""

    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join([*lines[:index], json.dumps(event), *lines[index + 1:]]) + "\n")
    shown = read_message or f"malformed trace at line {index + 1}: {message}"
    with pytest.raises(TraceParseError, match=re.escape(f"{path}: {shown}")):
        session_mod.report([str(path)])
    capsys.readouterr()
    assert cli.main(["report", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: {shown}")


@pytest.mark.parametrize("kind", sorted(trace_mod.EVENTS))
def test_an_unknown_kind_is_refused(kind, trace_lines, tmp_path, capsys):
    def edit(event):
        event["evt"] = kind + "s"
    _refused_everywhere(trace_lines, kind, edit, f"unknown event kind '{kind}s'", tmp_path, capsys)


@pytest.mark.parametrize("kind", sorted(trace_mod.EVENTS))
def test_a_missing_field_is_refused(kind, trace_lines, tmp_path, capsys):
    for field in trace_mod.EVENTS[kind]:
        # a session event's version is read before its fields
        read_message = ("trace version None, expected 1"
                        if (kind, field) == ("session", "version") else None)
        _refused_everywhere(trace_lines, kind, lambda event: event.pop(field),
                            f"{kind} field '{field}': missing", tmp_path, capsys, read_message)


@pytest.mark.parametrize("kind", sorted(trace_mod.EVENTS))
def test_an_undeclared_field_is_refused(kind, trace_lines, tmp_path, capsys):
    def edit(event):
        event["extra"] = 1
    _refused_everywhere(trace_lines, kind, edit, f"{kind} field 'extra': undeclared",
                        tmp_path, capsys)


@pytest.mark.parametrize("kind", sorted(trace_mod.EVENTS))
def test_a_wrong_typed_value_is_refused(kind, trace_lines, tmp_path, capsys):
    for field, spec in trace_mod.EVENTS[kind].items():
        wrong = _wrong_value(spec)

        def edit(event, field=field, wrong=wrong):
            event[field] = wrong
        # ``float | None`` has no name; the refusal names its first alternative
        expected = getattr(spec, "__name__", "float")
        _refused_everywhere(trace_lines, kind, edit,
                            f"{kind} field '{field}': expected {expected}, got {wrong!r}",
                            tmp_path, capsys)


def _first_track(event):
    return event["tracks"][0]


NESTED = {
    "dispatch_track_depth": ("dispatch", lambda e: _first_track(e).update(depth=True),
                             "dispatch field 'tracks[0].depth': expected int, got True"),
    "dispatch_track_missing": ("dispatch", lambda e: _first_track(e).pop("width"),
                               "dispatch field 'tracks[0].width': missing"),
    "dispatch_track_extra": ("dispatch", lambda e: _first_track(e).update(extra=1),
                             "dispatch field 'tracks[0].extra': undeclared"),
    "round_participant": ("round", lambda e: e["participants"].__setitem__(1, "1"),
                          "round field 'participants[1]': expected int, got '1'"),
    "round_client_energy": ("round", lambda e: e["client_energy"].update({"99": "1"}),
                            "round field 'client_energy.99': expected float, got '1'"),
    "decision_accuracy": ("decision", lambda e: e["accuracies"].update(current="1"),
                          "decision field 'accuracies.current': expected float, got '1'"),
    "summary_config_shape": ("summary", lambda e: e["configs_visited"][0].__setitem__(0, True),
                             "summary field 'configs_visited[0][0]': expected int, got True"),
}


@pytest.mark.parametrize("name", sorted(NESTED))
def test_a_wrong_nested_value_is_refused(name, trace_lines, tmp_path, capsys):
    kind, edit, message = NESTED[name]
    _refused_everywhere(trace_lines, kind, edit, message, tmp_path, capsys)


def test_emit_refuses_an_int_client_id(trace_lines, tmp_path):
    """JSON keys are strings, so a client id keys by ``str(cid)`` before it is emitted."""
    event = next(json.loads(line) for line in trace_lines if '"evt":"round"' in line)
    energies = {int(cid): joules for cid, joules in event["client_energy"].items()}
    with trace_mod.TraceWriter(str(tmp_path / "t.jsonl")) as writer:
        with pytest.raises(TraceParseError, match=re.escape(
                f"round field 'client_energy.{next(iter(energies))}': expected str")):
            writer.emit({**event, "client_energy": energies})


def test_an_event_without_a_kind_is_refused(trace_lines, tmp_path):
    event = json.loads(trace_lines[1])
    del event["evt"]
    with trace_mod.TraceWriter(str(tmp_path / "t.jsonl")) as writer:
        with pytest.raises(TraceParseError, match="unknown event kind None"):
            writer.emit(event)


def test_a_second_session_event_is_refused(trace_lines, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([*trace_lines[:2], trace_lines[0], *trace_lines[2:]]) + "\n")
    with pytest.raises(TraceParseError, match="expected a leading session event"):
        trace_mod.read_trace(str(path))


def test_a_config_the_session_cannot_read_is_refused(trace_lines, tmp_path, capsys):
    """``report`` reads the config back through ``config_from_dict``, naming the path."""
    session = json.loads(trace_lines[0])
    session["config"]["mode"] = "bogus"
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(session), *trace_lines[1:]]) + "\n")
    message = f"{path}: session field 'config': field 'mode': must be one of"
    with pytest.raises(TraceParseError, match=re.escape(message)):
        session_mod.report([str(path)])
    assert cli.main(["report", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_a_trace_that_is_not_utf8_exits_2(trace_lines, tmp_path, capsys):
    """A UTF-16 byte order mark, say, is a TraceParseError naming the path, not a traceback."""
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"\xff\xfe" + "\n".join(trace_lines).encode("utf-16-le"))
    with pytest.raises(TraceParseError, match=re.escape(f"{path}: not a UTF-8 trace")):
        trace_mod.read_trace(str(path))
    assert cli.main(["report", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: not a UTF-8 trace")

