"""Line-delimited JSON session traces.

One event per line, keys sorted, compact separators: the byte content of a
trace file is a pure function of (config, seed). Event kinds: session,
dispatch, round, eval, decision, summary. The one summary closes the trace
and is a function of the events before it; ``session.report`` derives it
again and checks every field.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import TraceParseError

TRACE_VERSION = 1


def _jsonable(value):
    """``value`` as JSON reads it back: keys become strings, tuples lists.

    Events hold plain Python values. A numpy value is not converted, so
    ``json.dumps`` refuses it and names its type.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class TraceWriter:
    """Streams events to a file as they happen."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        event = _jsonable(event)
        self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self.events.append(event)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> list[dict]:
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                raise TraceParseError(f"{path}: malformed trace at line {lineno}: {err}") from err
            if not isinstance(event, dict):
                raise TraceParseError(
                    f"{path}: malformed trace at line {lineno}: "
                    f"expected a JSON object, got {type(event).__name__}")
            events.append(event)
    return events


def events_of_kind(events: Iterable[dict], kind: str) -> list[dict]:
    return [e for e in events if e.get("evt") == kind]
