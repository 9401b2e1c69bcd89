"""Append-only structured-event log (JSONL).

Where the tracer answers "how long did it take" and the metrics registry
answers "how many", the event log answers "what happened, in order":
stage lifecycle, VP quarantines, salvages and trust verdicts, service
epochs — the operational narrative of an epoch.  Events are buffered in
a bounded in-memory ring (overflow increments a ``dropped`` counter
rather than growing without bound) and can be flushed to a path as JSON
Lines, one complete ``{...}\\n`` record per line, with an fsync so a
crash never leaves a torn line *in a flushed file*.

The longitudinal service does not flush incrementally at all: it stages
the whole log inside the archive's atomic commit, so a committed run
either has the complete ``events.jsonl`` or none — the crash tests
assert exactly this.

Mirrors the tracer/metrics null-object pattern: a free
:data:`NULL_EVENTS` no-op log is the process-wide default, swapped via
:func:`set_events` / :func:`use_events`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

#: Default in-memory buffer capacity (events, not bytes).  Generous for a
#: service epoch (a few hundred events) while bounding pathological runs.
DEFAULT_CAPACITY = 10_000

#: Keys every event record carries, in canonical order.
EVENT_KEYS = ("seq", "ts", "kind", "name", "attrs")


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to plain JSON types (numpy scalars etc.)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class EventLog:
    """Bounded append-only event buffer with optional path-backed flush.

    Parameters
    ----------
    path:
        When set, :meth:`flush` appends buffered events to this file as
        JSONL and fsyncs.  When ``None`` the log is memory-only (the
        service mode: lines are handed to the archive commit instead).
    capacity:
        Maximum buffered events; further emits are counted in
        :attr:`dropped` instead of stored.
    clock:
        Wall-clock source for the ``ts`` field (seconds).  Injectable for
        deterministic tests; telemetry is the sanctioned wall-clock
        exception and never feeds back into census bytes.
    """

    def __init__(
        self,
        path: Optional[Union[str, os.PathLike]] = None,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.path = os.fspath(path) if path is not None else None
        self.capacity = capacity
        self._clock = clock
        self._events: List[Dict[str, Any]] = []
        self._seq = 0
        self._flushed = 0
        self.dropped = 0

    enabled = True

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, name: str, **attrs: Any) -> None:
        """Record one event.  ``kind`` is a coarse category (``stage``,
        ``quarantine``, ``lifecycle``, ``trust``, ``service``...),
        ``name`` the specific occurrence, ``attrs`` free-form context."""
        self._seq += 1
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(
            {
                "seq": self._seq,
                "ts": round(float(self._clock()), 6),
                "kind": str(kind),
                "name": str(name),
                "attrs": _jsonable(attrs),
            }
        )

    def to_lines(self) -> List[str]:
        """All buffered events as canonical JSONL lines (sorted keys,
        trailing newline each) — the exact bytes a flush would append."""
        return [
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in self._events
        ]

    def flush(self) -> int:
        """Append not-yet-flushed events to :attr:`path`, fsync, and
        return how many lines were written.  No-op without a path."""
        if self.path is None:
            return 0
        pending = self._events[self._flushed :]
        if not pending:
            return 0
        payload = "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in pending
        )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        self._flushed = len(self._events)
        return len(pending)

    def snapshot(self) -> Dict[str, Any]:
        """Summary stats for embedding in telemetry documents."""
        kinds: Dict[str, int] = {}
        for event in self._events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {
            "n_events": len(self._events),
            "dropped": self.dropped,
            "kinds": {k: kinds[k] for k in sorted(kinds)},
        }


class NullEventLog:
    """Disabled log: every emit is a free no-op."""

    enabled = False
    dropped = 0
    path = None

    def __len__(self) -> int:
        return 0

    def emit(self, kind: str, name: str, **attrs: Any) -> None:
        pass

    def to_lines(self) -> List[str]:
        return []

    def flush(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, Any]:
        return {"n_events": 0, "dropped": 0, "kinds": {}}


#: Process-wide disabled log (the default).
NULL_EVENTS = NullEventLog()

_current: Union[EventLog, NullEventLog] = NULL_EVENTS


def current_events() -> Union[EventLog, NullEventLog]:
    """The process-wide event log instrumented code reports to."""
    return _current


def set_events(log: Union[EventLog, NullEventLog]) -> Union[EventLog, NullEventLog]:
    """Install ``log`` process-wide; returns the previous one."""
    global _current
    previous = _current
    _current = log
    return previous


class use_events:
    """Scoped installation: ``with use_events(log): ...`` restores on exit."""

    def __init__(self, log: Union[EventLog, NullEventLog]) -> None:
        self._log = log
        self._previous: Union[EventLog, NullEventLog] = NULL_EVENTS

    def __enter__(self) -> Union[EventLog, NullEventLog]:
        self._previous = set_events(self._log)
        return self._log

    def __exit__(self, *exc: object) -> bool:
        set_events(self._previous)
        return False


def event_problems(event: Any) -> List[str]:
    """Schema problems with one decoded event record ([] when valid)."""
    problems: List[str] = []
    if not isinstance(event, dict):
        return ["event is not an object"]
    for key in EVENT_KEYS:
        if key not in event:
            problems.append(f"missing key {key!r}")
    if not isinstance(event.get("seq"), int) or (
        isinstance(event.get("seq"), bool)
    ):
        problems.append("seq is not an integer")
    if not isinstance(event.get("ts"), (int, float)):
        problems.append("ts is not a number")
    for key in ("kind", "name"):
        if not isinstance(event.get(key), str):
            problems.append(f"{key} is not a string")
    if not isinstance(event.get("attrs"), dict):
        problems.append("attrs is not an object")
    return problems


def parse_events(
    text: str, strict: bool = True
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Decode a JSONL events payload.

    Returns ``(events, problems)``.  In strict mode every line must be a
    complete, schema-valid JSON object; any defect is reported.  With
    ``strict=False`` (the fsck/catch-up reader) a torn *final* line —
    the signature of a crash mid-append — is tolerated and dropped,
    while torn or invalid lines anywhere else still count as problems.
    """
    events: List[Dict[str, Any]] = []
    problems: List[str] = []
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        torn = not line.endswith("\n")
        try:
            event = json.loads(stripped)
        except ValueError:
            if torn and not strict and i == len(lines) - 1:
                continue  # crash tore the final append — salvageable
            problems.append(f"line {i + 1}: invalid JSON")
            continue
        if torn and strict:
            problems.append(f"line {i + 1}: missing trailing newline")
        line_problems = event_problems(event)
        if line_problems:
            problems.append(f"line {i + 1}: " + "; ".join(line_problems))
            continue
        events.append(event)
    return events, problems


def read_events(
    path: Union[str, os.PathLike], strict: bool = True
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read and decode an ``events.jsonl`` file (see :func:`parse_events`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_events(fh.read(), strict=strict)
