"""Canonical data types for file-system events, process windows, threat levels and alerts.

All timestamps are trace-relative microseconds (integers), never wall clock,
so replays are deterministic. Types are immutable after construction and safe
to share across threads.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Callable, Iterable, Iterator, Optional, Union

try:
    from orjson import loads as _fast_loads
except ImportError:  # optional extra "fast": results are the same without it
    _fast_loads = None

_new = object.__new__  # bound once: the parser makes an instance per line


class Operation(str, Enum):
    """File operation kinds carried by an event record."""

    CREATE = "Create"
    DELETE = "Delete"
    RENAME = "Rename"
    WRITE = "Write"
    READ = "Read"
    OVERWRITE = "Overwrite"
    SMASH = "Smash"


# Operations that modify or destroy a file; a Read never qualifies.
MUTATING_OPS = frozenset(
    (Operation.WRITE, Operation.DELETE, Operation.RENAME, Operation.OVERWRITE, Operation.SMASH)
)


class TriggerKind(str, Enum):
    """Which monitoring point opened a process window."""

    DECOY_TOUCH = "DecoyTouch"
    RANSOM_NOTE = "RansomNote"


class Level(str, Enum):
    NONE = "None"
    LOW = "Low"
    HIGH = "High"


class Response(str, Enum):
    TRACK_ONLY = "TrackOnly"
    TERMINATE_SIMULATED = "TerminateSimulated"


def extension_of(path: str) -> str:
    """Lowercase extension of ``path`` without the dot, '' if none.

    A leading dot does not start an extension (".profile" has none).
    """
    base = basename_of(path)
    dot = base.rfind(".")
    if dot <= 0:
        return ""
    return base[dot + 1 :].lower()


def basename_of(path: str) -> str:
    cut = max(path.rfind("/"), path.rfind("\\"))
    return path[cut + 1 :]


@dataclass(frozen=True, slots=True)
class FileEvent:
    """One file-system operation record.

    ``file_name`` holds the new path for renames; the old path travels in
    ``old_file_name``. ``file_type`` is the lowercase extension without dot.
    """

    time: int
    pid: int
    pid_name: str
    operation: Operation
    file_name: str
    file_type: str
    old_file_name: Optional[str] = None


class _OpenFileEvent(FileEvent):  # FileEvent without the frozen guard, for _event_or_issue only
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


@dataclass(frozen=True, slots=True)
class ProcessWindow:
    """All events of one process inside one monitoring interval."""

    pid: int
    pid_name: str
    window_start: int
    window_end: int
    events: tuple[FileEvent, ...]

    def __post_init__(self) -> None:
        if self.window_end <= self.window_start:
            raise ValueError("window_end must be greater than window_start")
        for ev in self.events:
            if ev.pid != self.pid:
                raise ValueError(f"event pid {ev.pid} does not match window pid {self.pid}")
            if not (self.window_start <= ev.time < self.window_end):
                raise ValueError(f"event time {ev.time} outside window bounds")


@dataclass(frozen=True, slots=True)
class ThreatLevel:
    level: Level
    source: Optional[TriggerKind]
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0,1], got {self.score}")


@dataclass(frozen=True, slots=True)
class Alert:
    """One detection record; evidence must be non-empty unless threat is None."""

    created_at: int
    pid: int
    pid_name: str
    threat: ThreatLevel
    evidence: tuple[str, ...]
    response_taken: Response

    def __post_init__(self) -> None:
        if self.threat.level is not Level.NONE and not self.evidence:
            raise ValueError("evidence required for non-None threat level")

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "created_at": self.created_at,
                "pid": self.pid,
                "pid_name": self.pid_name,
                "level": self.threat.level.value,
                "source": self.threat.source.value if self.threat.source else None,
                "score": round(self.threat.score, 6),
                "evidence": list(self.evidence),
                "response": self.response_taken.value,
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True, slots=True)
class Trigger:
    """A monitoring-point firing that marks a process as suspicious."""

    kind: TriggerKind
    pid: int
    path: str
    time: int
    detail: str = ""
    score: float = 0.0  # note similarity for RansomNote triggers


class ParseIssueKind(str, Enum):
    MALFORMED_LINE = "MalformedLine"
    UNKNOWN_OPERATION = "UnknownOperation"
    NON_MONOTONIC_TIME = "NonMonotonicTime"


@dataclass(frozen=True, slots=True)
class ParseIssue:
    kind: ParseIssueKind
    line_no: int
    detail: str = ""


@dataclass(slots=True)
class ParseResult:
    events: list[FileEvent]
    issues: list[ParseIssue] = field(default_factory=list)


_OP_BY_TOKEN = {op.value: op for op in Operation}

# The hot path decodes with orjson when it is installed, and keeps only the
# lines it turns into a valid event. Every other line is decoded again by json,
# whose reading alone decides the issue, so events and issues do not depend on
# the decoder: orjson rejects NaN, Infinity, 1e400 and lone surrogates, and
# reads integers wider than 64 bits as floats. It also nests up to 1024 levels,
# while json stops at the recursion limit less the caller's stack depth; a line
# of at most _FAST_MAX_CHARS characters nests at most half that deep, and longer
# lines go to json directly.
_FAST_MAX_CHARS = 1024
if _fast_loads is not None:
    # The first decode of a non-trivial document allocates a buffer of about
    # 8 MB that orjson keeps. Made at import, it does not land mid-run in the
    # heap and fragment it. '{}' takes a shortcut and allocates nothing.
    _fast_loads('{"time":0}')


def _event_or_issue(obj: object, line_no: int) -> Union[FileEvent, ParseIssue]:
    """Validate one decoded line: the event, or the first rule it breaks."""
    if type(obj) is not dict:
        return ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, "event must be a JSON object")
    try:  # fetched in the order a missing field is reported
        time, pid, pid_name, op_token, file_name, file_type = (
            obj["time"], obj["pid"], obj["pid_name"], obj["operation"], obj["file_name"], obj["file_type"]
        )
    except KeyError as exc:
        return ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, f"missing field {exc.args[0]!r}")
    if type(time) is not int or type(pid) is not int:
        return ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, "time and pid must be integers")
    op = _OP_BY_TOKEN.get(op_token) if type(op_token) is str else None
    if op is None:
        return ParseIssue(ParseIssueKind.UNKNOWN_OPERATION, line_no, str(op_token))
    if type(pid_name) is not str or type(file_name) is not str or type(file_type) is not str:
        return ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, "name fields must be strings")
    old = obj.get("old_file_name")
    if old is not None and type(old) is not str:
        return ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, "old_file_name must be a string")
    # Every parsed line builds one: plain slot stores on the layout twin, retyped before anyone sees it.
    ev = _new(_OpenFileEvent)
    ev.time = time
    ev.pid = pid
    ev.pid_name = pid_name
    ev.operation = op
    ev.file_name = file_name
    ev.file_type = file_type
    ev.old_file_name = old
    ev.__class__ = FileEvent
    return ev


def parse_event_line(line: str, line_no: int, issues: list[ParseIssue]) -> Optional[FileEvent]:
    """Parse one JSON event line; append issues instead of raising.

    Whitespace around the value, as str.strip() counts it, is ignored.
    Returns None for malformed lines. Unknown extra fields are ignored.
    """
    if _fast_loads is not None and len(line) <= _FAST_MAX_CHARS:
        try:
            parsed = _event_or_issue(_fast_loads(line), line_no)
        except (ValueError, RecursionError):  # orjson.JSONDecodeError is a ValueError
            pass
        else:
            if type(parsed) is FileEvent:
                return parsed
    line = line.strip()
    try:
        if not line.isascii():
            line.encode("utf-8")  # a lone surrogate: a byte that was not UTF-8, or bad input text
        parsed = _event_or_issue(json.loads(line), line_no)
    except UnicodeEncodeError:
        parsed = ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, "invalid UTF-8")
    except json.JSONDecodeError as exc:
        parsed = ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, f"invalid JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep
        parsed = ParseIssue(ParseIssueKind.MALFORMED_LINE, line_no, f"invalid JSON: {exc}")
    if type(parsed) is FileEvent:
        return parsed
    issues.append(parsed)
    return None


def iter_events(
    lines: Iterable[str],
    issues: list[ParseIssue],
    parse: Callable[[str, int, list[ParseIssue]], Optional[FileEvent]] = parse_event_line,
) -> Iterator[FileEvent]:
    """Yield the events of JSON-Lines text in order, appending issues to ``issues``.

    Blank lines are skipped. Malformed lines and unknown operations are
    reported with their 1-based line numbers and skipped; a timestamp below
    the pid's previous one is reported as NonMonotonicTime and the event is
    kept. ``parse`` parses one non-blank line as read.
    """
    last_time_by_pid: dict[int, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        if not raw or raw.isspace():
            continue
        ev = parse(raw, line_no, issues)
        if ev is None:
            continue
        prev = last_time_by_pid.get(ev.pid)
        if prev is not None and ev.time < prev:
            issues.append(
                ParseIssue(ParseIssueKind.NON_MONOTONIC_TIME, line_no, f"pid={ev.pid} {ev.time} < {prev}")
            )
        last_time_by_pid[ev.pid] = ev.time
        yield ev


def parse_event_log(stream: Union[str, bytes, IO]) -> ParseResult:
    """Parse a JSON-Lines event log into events plus a list of issues.

    Accepts a text/bytes blob or a file-like object; see iter_events for
    what is reported. Bytes are decoded as UTF-8 with "surrogateescape", as
    run_replay reads a log, so a line that is not UTF-8 is a MalformedLine.

    A blob is split into the lines that open() reads from the same text, at
    "\n", "\r\n" or "\r". str.splitlines() would also break inside a JSON
    string at U+0085, U+2028 or U+2029, which serialize_event writes raw.
    """
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8", "surrogateescape")
    lines: Iterable[str] = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
    issues: list[ParseIssue] = []
    return ParseResult(list(iter_events(lines, issues)), issues)


def serialize_event(ev: FileEvent) -> str:
    """Canonical single-line JSON form of an event (field order fixed)."""
    obj = {
        "time": ev.time,
        "pid": ev.pid,
        "pid_name": ev.pid_name,
        "operation": ev.operation.value,
        "file_name": ev.file_name,
        "file_type": ev.file_type,
    }
    if ev.old_file_name is not None:
        obj["old_file_name"] = ev.old_file_name
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def serialize_events(events: Iterable[FileEvent]) -> str:
    return "".join(serialize_event(ev) + "\n" for ev in events)


def window_events(
    events: Iterable[FileEvent],
    pid: int,
    trigger_time: int,
    delta_us: int,
) -> ProcessWindow:
    """Collect the pid's events inside [trigger_time, trigger_time + delta_us)
    under the image name (``pid_name``) of its first one, as the engine's
    window keeps only the image that opened it.

    An empty window is valid, and named ""; delta_us must be positive.
    """
    if delta_us <= 0:
        raise ValueError("delta_us must be positive")
    end = trigger_time + delta_us
    selected = []
    pid_name = None
    for ev in events:
        if ev.pid == pid and trigger_time <= ev.time < end:
            if pid_name is None:
                pid_name = ev.pid_name
            if ev.pid_name == pid_name:
                selected.append(ev)
    return ProcessWindow(pid, pid_name or "", trigger_time, end, tuple(selected))
