"""Line-delimited JSON session traces, and the one statement of their format.

One event per line, keys sorted, compact separators: a trace's bytes are a
pure function of (config, seed). ``EVENTS`` declares each event kind's fields
and their JSON types (``int`` excludes bool; a dict literal is an object of
exactly those fields). A trace is one ``session`` event of ``TRACE_VERSION``,
the others, then one ``summary``, which ``session.report`` derives again.
``emit`` and ``read_trace`` refuse a mismatch, naming its kind and field.
Emitters hand over JSON-native values: client ids key by ``str(cid)``.
"""

from __future__ import annotations

import json
import types
import typing

from .errors import TraceParseError

TRACE_VERSION = 1

EVENTS = {
    "session": {"version": int, "config": dict},
    "dispatch": {"iteration": int, "clock": float, "base_depth": int, "base_width": int,
                 "tracks": list[{"track": str, "depth": int, "width": int}]},
    "round": {"round": int, "track": str, "max_depth": int, "clock": float,
              "participants": list[int], "payload_bytes": int, "round_seconds": float,
              "energy_j": float, "cache_hits": int, "cache_recomputes": int,
              "train_samples": int, "client_energy": dict[str, float]},
    "eval": {"round": int, "track": str, "clock": float, "accuracy": float},
    "decision": {"round": int, "clock": float, "winner": str, "accuracies": dict[str, float],
                 "new_depth": int, "new_width": int},
    "summary": {"mode": str, "seed": int, "reached": bool, "target_accuracy": float | None,
                "time_to_target": float | None, "best_accuracy": float, "energy_j": float,
                "rounds": int, "traffic_bytes": int, "cache_hits": int, "cache_recomputes": int,
                "depth_increases": int, "configs_visited": list[list[int]]},
}


def _problem(spec, value, name: str) -> str | None:
    """What keeps ``value`` from the declared type ``spec`` of field ``name``; None if nothing."""
    origin, args = typing.get_origin(spec), typing.get_args(spec)
    if origin is types.UnionType:
        problems = [_problem(s, value, name) for s in args]
        return None if None in problems else problems[0]
    if type(value) is not (dict if isinstance(spec, dict) else origin or spec):
        return f"field '{name}': expected {getattr(spec, '__name__', 'an object')}, got {value!r}"
    items = []
    if isinstance(spec, dict):
        prefix = f"{name}." if name else ""
        if stray := [k for k in spec if k not in value] + [k for k in value if k not in spec]:
            return f"field '{prefix}{stray[0]}': {'missing' if stray[0] in spec else 'undeclared'}"
        items = [(spec[k], value[k], prefix + k) for k in spec]
    elif origin is list:
        items = [(args[0], item, f"{name}[{i}]") for i, item in enumerate(value)]
    elif origin is dict:  # each key, then its value
        items = [(a, x, f"{name}.{k}") for k, v in value.items() for a, x in zip(args, (k, v))]
    return next(filter(None, (_problem(*item) for item in items)), None)


def check_event(event: dict, where: str) -> None:
    """Refuse ``event`` unless it matches its kind's declaration; ``where`` leads the message."""
    kind = event.get("evt")
    if not isinstance(kind, str) or kind not in EVENTS:
        raise TraceParseError(f"{where}unknown event kind {kind!r}")
    if problem := _problem({"evt": str, **EVENTS[kind]}, event, ""):
        raise TraceParseError(f"{where}{kind} {problem}")


class TraceWriter:
    """Streams events to a file as they happen, each checked as it is emitted."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        check_event(event, f"{self.path}: cannot emit event {len(self.events) + 1}: ")
        self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self.events.append(event)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def read_trace(path: str) -> list[dict]:
    """The events of the trace at ``path``, each checked against this version's declaration."""
    events = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}: malformed trace at line {lineno}: "
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as err:
                    raise TraceParseError(f"{where}{err}") from err
                if not isinstance(event, dict):
                    raise TraceParseError(
                        f"{where}expected a JSON object, got {type(event).__name__}")
                if event.get("evt") == "session" and event.get("version") != TRACE_VERSION:
                    raise TraceParseError(f"{path}: trace version {event.get('version')!r}, "
                                          f"expected {TRACE_VERSION}")
                check_event(event, where)
                if (event["evt"] == "session") != (not events):
                    raise TraceParseError(f"{path}: expected a leading session event, no other")
                events.append(event)
    except UnicodeDecodeError as err:
        raise TraceParseError(f"{path}: not a UTF-8 trace: {err}") from None
    if not events or events_of_kind(events, "summary") != events[-1:]:
        raise TraceParseError(f"{path}: expected exactly one summary event, at the end")
    return events


def events_of_kind(events: typing.Iterable[dict], kind: str) -> list[dict]:
    return [e for e in events if e.get("evt") == kind]
