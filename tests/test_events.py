"""Event model: parsing, serialization round-trips, windowing."""
from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pickle
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomwatch import events as events_mod
from ransomwatch.events import (
    FileEvent,
    Operation,
    ParseIssueKind,
    ProcessWindow,
    extension_of,
    parse_event_log,
    serialize_events,
    window_events,
)
from ransomwatch.features import Mode
from ransomwatch.pipeline import DirectoryWatcher
from ransomwatch.simulator import RansomwareSpec, ScenarioSpec, TreeSpec, generate

GOOD_LINE = (
    '{"time":0,"pid":4,"pid_name":"a.exe","operation":"Create",'
    '"file_name":"C:/u/x.txt","file_type":"txt"}'
)


def test_parse_single_line():
    result = parse_event_log(GOOD_LINE)
    assert len(result.events) == 1 and not result.issues
    ev = result.events[0]
    assert ev == FileEvent(0, 4, "a.exe", Operation.CREATE, "C:/u/x.txt", "txt")


def test_parse_empty_stream():
    result = parse_event_log("")
    assert result.events == [] and result.issues == []


def test_malformed_middle_line_reported_with_line_number():
    lines = [
        GOOD_LINE,
        '{"time":1,"pid":4,"pid_name":"a.exe","file_name":"C:/u/y.txt","file_type":"txt"}',
        GOOD_LINE.replace('"time":0', '"time":2'),
    ]
    result = parse_event_log("\n".join(lines))
    assert len(result.events) == 2
    assert [i.kind for i in result.issues] == [ParseIssueKind.MALFORMED_LINE]
    assert result.issues[0].line_no == 2


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"])
def test_blob_and_file_object_split_lines_alike(tmp_path, char):
    # str.splitlines() breaks at each of these characters; a file object does not.
    named = FileEvent(0, 4, "a.exe", Operation.WRITE, f"C:/u/a{char}b.txt", "txt")
    serialized = serialize_events([named])  # escapes the control characters, keeps the rest raw
    raw = GOOD_LINE.replace("x.txt", f"x{char}y.txt")  # raw in a JSON string: invalid for \x1c-\x1e
    text = "\n".join([GOOD_LINE, serialized.rstrip("\n"), raw, GOOD_LINE]) + "\n"
    path = tmp_path / "log.jsonl"
    path.write_text(text, encoding="utf-8")
    with open(path, "r", encoding="utf-8") as fp:
        from_file = parse_event_log(fp)
    assert named in from_file.events
    expected = (from_file.events, [(i.kind, i.line_no, i.detail) for i in from_file.issues])
    for blob in (text, text.encode("utf-8")):
        parsed = parse_event_log(blob)
        assert (parsed.events, [(i.kind, i.line_no, i.detail) for i in parsed.issues]) == expected
    malformed = [(ParseIssueKind.MALFORMED_LINE, 3)] if char < " " else []
    assert [(i.kind, i.line_no) for i in from_file.issues] == malformed
    assert len(from_file.events) == 4 - len(malformed)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_blob_line_numbers_with_any_line_ending(tmp_path, end):
    text = end.join([GOOD_LINE, "not json", GOOD_LINE.replace('"time":0', '"time":2')]) + end
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="utf-8") as fp:
        from_file = parse_event_log(fp)
    for parsed in (parse_event_log(text), parse_event_log(text.encode("utf-8")), from_file):
        assert len(parsed.events) == 2
        assert [i.line_no for i in parsed.issues] == [2]


def test_unknown_operation_reported():
    bad = GOOD_LINE.replace("Create", "Defragment")
    result = parse_event_log(bad)
    assert not result.events
    issue = result.issues[0]
    assert issue.kind is ParseIssueKind.UNKNOWN_OPERATION and "Defragment" in issue.detail


def test_non_monotonic_time_is_warning_not_fatal():
    lines = [GOOD_LINE.replace('"time":0', '"time":5'), GOOD_LINE.replace('"time":0', '"time":3')]
    result = parse_event_log("\n".join(lines))
    assert len(result.events) == 2
    assert [i.kind for i in result.issues] == [ParseIssueKind.NON_MONOTONIC_TIME]


def test_extra_fields_ignored_and_rename_old_path():
    line = (
        '{"time":9,"pid":1,"pid_name":"m.exe","operation":"Rename",'
        '"file_name":"C:/d/b.locked","file_type":"locked",'
        '"old_file_name":"C:/d/b.docx","comment":"ignored"}'
    )
    result = parse_event_log(line)
    assert not result.issues
    assert result.events[0].old_file_name == "C:/d/b.docx"


def test_invalid_json_and_bad_types():
    result = parse_event_log('{"time": "zero"}\nnot json at all\n')
    assert not result.events
    assert [i.line_no for i in result.issues] == [1, 2]
    assert all(i.kind is ParseIssueKind.MALFORMED_LINE for i in result.issues)


@pytest.mark.parametrize("token", [["Write"], {"op": "Write"}])
def test_non_string_operation_reported_as_unknown(token):
    line = GOOD_LINE.replace('"Create"', json.dumps(token))
    result = parse_event_log(line)
    assert not result.events
    assert [(i.kind, i.detail) for i in result.issues] == [(ParseIssueKind.UNKNOWN_OPERATION, str(token))]


@pytest.mark.parametrize("bad", ["[" * 100_000, '{"time":1' + "0" * 5000 + "}"])
def test_deep_nesting_and_huge_integers_reported_as_malformed(bad):
    result = parse_event_log(GOOD_LINE + "\n" + bad + "\n" + GOOD_LINE)
    assert len(result.events) == 2
    assert [(i.kind, i.line_no) for i in result.issues] == [(ParseIssueKind.MALFORMED_LINE, 2)]


def _field_line(**overrides) -> str:
    """GOOD_LINE with fields replaced by raw JSON text, or dropped when None."""
    fields = {
        "time": "0", "pid": "4", "pid_name": '"a.exe"', "operation": '"Create"',
        "file_name": '"C:/u/x.txt"', "file_type": '"txt"',
    }
    fields.update(overrides)
    return "{" + ",".join(f'"{k}":{v}' for k, v in fields.items() if v is not None) + "}"


WIDE = "123456789012345678901234567890"  # wider than 64 bits
EDGE_CORPUS = [
    GOOD_LINE,
    _field_line(extra="NaN"),
    _field_line(extra="Infinity"),
    _field_line(extra="-Infinity"),
    _field_line(extra="1e400"),
    _field_line(time="NaN"),
    _field_line(pid="1e400"),
    _field_line(time=WIDE),
    _field_line(pid="-" + WIDE),
    _field_line(time="18446744073709551615", pid="-9223372036854775809"),
    _field_line(operation=WIDE),
    _field_line(file_name='"C:/u/\\ud800.txt"'),  # lone surrogate, escaped
    _field_line(file_name='"C:/u/\ud800.txt"'),  # lone surrogate, raw
    _field_line(file_name='"C:/u/\udcff.txt"'),  # a raw 0xff byte, decoded with surrogateescape
    _field_line(pid_name='"\\ud83d\\ude00"'),  # surrogate pair, escaped
    _field_line(file_name='"C:/u/caf\u00e9.txt"'),
    "\ufeff" + GOOD_LINE,
    GOOD_LINE[:-1] + ',"time":7,"pid":9}',
    "[1, 2]",
    "5",
    '"text"',
    "null",
    "{}",
    *(_field_line(**{name: None}) for name in ("time", "pid", "pid_name", "operation", "file_name", "file_type")),
    _field_line(pid_name=None, file_type=None),
    _field_line(time="true"),
    _field_line(pid="false"),
    _field_line(time="1.0"),
    _field_line(time="-0"),
    _field_line(time='"0"'),
    _field_line(pid_name="5"),
    _field_line(file_name="null"),
    _field_line(file_type="[]"),
    _field_line(operation="null"),
    _field_line(operation='"Defragment"'),
    _field_line(operation='["Write"]'),
    _field_line(operation='{"op":"Write"}'),
    _field_line(operation="[[[[[[[[[[]]]]]]]]]]"),
    _field_line(operation='"Rename"', old_file_name='"C:/u/y.txt"'),
    _field_line(old_file_name="null"),
    _field_line(old_file_name="5"),
    _field_line(old_file_name="1e400"),
    _field_line(file_name='"a\tb"'),
    GOOD_LINE + " x",
    GOOD_LINE + GOOD_LINE,
    GOOD_LINE[:-1],
    "not json at all",
    _field_line(extra="[" * 200 + "]" * 200),
    _field_line(extra="[" * 1000 + "]" * 1000),
    "[" * 100_000,
    _field_line(time="1" + "0" * 5000),
]


def test_fast_decoder_matches_json_fallback(monkeypatch):
    pytest.importorskip("orjson")
    assert events_mod._fast_loads is not None
    text = "\n".join(EDGE_CORPUS)
    fast = parse_event_log(text)
    monkeypatch.setattr(events_mod, "_fast_loads", None)
    exact = parse_event_log(text)
    assert fast.events == exact.events
    assert [(i.kind, i.line_no, i.detail) for i in fast.issues] == [
        (i.kind, i.line_no, i.detail) for i in exact.issues
    ]
    assert len(exact.events) >= 10 and len(exact.issues) >= 30  # the corpus exercises both outcomes


# Whitespace to str.strip() but not to JSON, which allows only space, tab, LF and CR around a value.
_NON_JSON_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


@pytest.mark.parametrize("decoder", [
    pytest.param("orjson", marks=pytest.mark.skipif(events_mod._fast_loads is None, reason="orjson not installed")),
    "json",
])
def test_padding_a_line_with_whitespace_json_does_not_take_changes_no_event_or_issue(monkeypatch, decoder):
    if decoder == "json":
        monkeypatch.setattr(events_mod, "_fast_loads", None)
    lines = [*EDGE_CORPUS, "", _field_line(time="9"), "  ", _field_line(time="3"), _field_line(time="5", pid="7")]
    plain = parse_event_log("\n".join(lines))
    assert len(plain.events) >= 10 and {i.kind for i in plain.issues} == set(ParseIssueKind)
    for pad in _NON_JSON_SPACE:
        assert pad.isspace()
        with pytest.raises(json.JSONDecodeError):
            json.loads(pad + "1")
        for padded in ([pad + line for line in lines], [line + pad for line in lines], [pad + line + pad for line in lines]):
            result = parse_event_log("\n".join(padded))
            assert result.events == plain.events, repr(pad)
            assert [(i.kind, i.line_no, i.detail) for i in result.issues] == [
                (i.kind, i.line_no, i.detail) for i in plain.issues
            ], repr(pad)


def test_fast_decoder_handles_valid_lines_alone(monkeypatch):
    pytest.importorskip("orjson")

    class NoJson:
        JSONDecodeError = json.JSONDecodeError

        @staticmethod
        def loads(line):
            raise AssertionError(f"valid line fell back to json: {line}")

    monkeypatch.setattr(events_mod, "json", NoJson)
    result = parse_event_log(GOOD_LINE + "\n" + _field_line(operation='"Rename"', old_file_name='"C:/u/y.txt"'))
    assert len(result.events) == 2 and not result.issues


def test_parse_without_orjson_installed():
    code = (
        "import sys; sys.modules['orjson'] = None\n"
        "from ransomwatch import events\n"
        "assert events._fast_loads is None\n"
        f"r = events.parse_event_log({GOOD_LINE!r} + '\\n[1]')\n"
        "print(len(r.events), [i.detail for i in r.issues])\n"
    )
    src_dir = str(Path(events_mod.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src_dir!r})\n" + code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "1 ['event must be a JSON object']"


@pytest.mark.parametrize(
    "path,ext",
    [
        ("C:/u/x.txt", "txt"),
        ("C:/u/archive.tar.gz", "gz"),
        ("C:\\u\\REPORT.DOCX", "docx"),
        ("C:/u/noext", ""),
        ("C:/u/.profile", ""),
    ],
)
def test_extension_of(path, ext):
    assert extension_of(path) == ext


_paths = st.sampled_from(["C:/u/a.txt", "C:/u/b.docx", "C:/u/sub/c.pdf", "D:/x/d.jpg"])
_ops = st.sampled_from(list(Operation))


@st.composite
def _events(draw):
    op = draw(_ops)
    path = draw(_paths)
    old = draw(_paths) if op is Operation.RENAME and draw(st.booleans()) else None
    return FileEvent(
        time=draw(st.integers(min_value=0, max_value=10_000_000)),
        pid=draw(st.integers(min_value=1, max_value=5)),
        pid_name=draw(st.sampled_from(["a.exe", "b.exe"])),
        operation=op,
        file_name=path,
        file_type=extension_of(path),
        old_file_name=old,
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(_events(), max_size=30))
def test_serialize_parse_round_trip(events):
    text = serialize_events(events)
    parsed = parse_event_log(text)
    assert parsed.events == list(events)
    assert serialize_events(parsed.events) == text


def test_parse_then_serialize_normalizes():
    noisy = (
        '  {"pid": 4, "time": 0, "pid_name": "a.exe", "operation": "Create", '
        '"file_name": "C:/u/x.txt", "file_type": "txt", "zz": 1}  \n\n'
    )
    parsed = parse_event_log(noisy)
    assert serialize_events(parsed.events) == GOOD_LINE + "\n"


def _mk(time, pid=4):
    return FileEvent(time, pid, "a.exe", Operation.WRITE, "C:/u/x.txt", "txt")


def test_window_boundary_arithmetic():
    events = [_mk(0), _mk(500_000), _mk(1_500_000)]
    window = window_events(events, 4, 0, 1_000_000)
    assert [ev.time for ev in window.events] == [0, 500_000]
    assert (window.window_start, window.window_end) == (0, 1_000_000)


def test_window_other_pid_empty():
    events = [_mk(0, pid=9), _mk(100, pid=9)]
    window = window_events(events, 4, 0, 1_000_000)
    assert window.events == ()


def test_window_requires_positive_delta():
    with pytest.raises(ValueError):
        window_events([], 4, 0, 0)


def test_window_matches_brute_force_filter_bulk():
    rng = random.Random(5)
    events = [
        FileEvent(rng.randrange(0, 5_000_000), rng.randrange(1, 6), "p", Operation.READ, "C:/f", "")
        for _ in range(10_000)
    ]
    pid, t0, dt = 3, 1_000_000, 3_000_000
    window = window_events(events, pid, t0, dt)
    brute = [ev for ev in events if ev.pid == pid and t0 <= ev.time < t0 + dt]
    assert list(window.events) == brute


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_events(), max_size=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=9_000_000),
    st.integers(min_value=1, max_value=4_000_000),
    st.sampled_from([None, "a.exe", "b.exe"]),
)
def test_window_equals_brute_force_property(events, pid, t0, dt, pid_name):
    window = window_events(events, pid, t0, dt, pid_name)
    inside = [ev for ev in events if ev.pid == pid and t0 <= ev.time < t0 + dt]
    if pid_name is None:  # the image of the first one
        pid_name = inside[0].pid_name if inside else ""
    assert list(window.events) == [ev for ev in inside if ev.pid_name == pid_name]
    assert window.pid_name == pid_name


def test_process_window_validates_members():
    with pytest.raises(ValueError):
        ProcessWindow(4, "a.exe", 0, 1_000, (_mk(5_000),))
    with pytest.raises(ValueError):
        ProcessWindow(4, "a.exe", 0, 1_000, (_mk(10, pid=9),))
    with pytest.raises(ValueError):
        ProcessWindow(4, "a.exe", 1_000, 1_000, ())


@dataclasses.dataclass(frozen=True, slots=True)
class _GeneratedInitEvent:
    """FileEvent as declared with the dataclass-generated __init__: the reference."""

    time: int
    pid: int
    pid_name: str
    operation: Operation
    file_name: str
    file_type: str
    old_file_name: Optional[str] = None


_FIELD_NAMES = ("time", "pid", "pid_name", "operation", "file_name", "file_type", "old_file_name")
_CONTRACT_ARGS = [
    (0, 4, "a.exe", Operation.CREATE, "C:/u/x.txt", "txt"),
    (7, 1, "b.exe", Operation.RENAME, "C:/u/y.locked", "locked", "C:/u/y.docx"),
    (-3, 2**70, "", Operation.READ, "", "", None),
]


def test_file_event_is_a_frozen_slotted_dataclass():
    ev = FileEvent(*_CONTRACT_ARGS[0])
    assert dataclasses.is_dataclass(ev) and not hasattr(ev, "__dict__")
    assert FileEvent.__slots__ == _FIELD_NAMES
    assert tuple(f.name for f in dataclasses.fields(FileEvent)) == _FIELD_NAMES
    for name in _FIELD_NAMES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ev, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ev, name)


def test_file_event_signature_lists_the_fields_in_order():
    params = inspect.signature(FileEvent).parameters
    assert tuple(params) == _FIELD_NAMES
    assert [p.name for p in params.values() if p.default is not inspect.Parameter.empty] == ["old_file_name"]
    assert params["old_file_name"].default is None


@pytest.mark.parametrize("args", _CONTRACT_ARGS)
def test_file_event_matches_the_generated_init(args):
    ev, ref = FileEvent(*args), _GeneratedInitEvent(*args)
    for name in _FIELD_NAMES:  # every slot is set, to the value given
        assert getattr(ev, name) is getattr(ref, name)
    assert hash(ev) == hash(ref) == hash(tuple(getattr(ref, name) for name in _FIELD_NAMES))
    assert repr(ev) == repr(ref).replace(_GeneratedInitEvent.__qualname__, FileEvent.__qualname__, 1)
    assert ev == FileEvent(*args) and hash(ev) == hash(FileEvent(*args))
    assert ev != ref and ev != dataclasses.astuple(ev)
    assert FileEvent(**dict(zip(_FIELD_NAMES, args))) == ev


def test_file_event_repr_default_replace_and_round_trips():
    ev = FileEvent(5, 4, "a.exe", Operation.WRITE, "C:/u/x.txt", "txt")
    assert ev.old_file_name is None
    assert repr(ev) == (
        "FileEvent(time=5, pid=4, pid_name='a.exe', operation=<Operation.WRITE: 'Write'>, "
        "file_name='C:/u/x.txt', file_type='txt', old_file_name=None)"
    )
    assert ev != FileEvent(5, 4, "a.exe", Operation.WRITE, "C:/u/x.txt", "txt", "C:/u/x.txt")
    moved = dataclasses.replace(ev, pid=9, old_file_name="C:/u/w.txt")
    assert type(moved) is FileEvent
    assert (moved.pid, moved.old_file_name, moved.time, moved.file_name) == (9, "C:/u/w.txt", 5, "C:/u/x.txt")
    assert dataclasses.replace(moved, pid=4, old_file_name=None) == ev
    for clone in (pickle.loads(pickle.dumps(moved)), copy.copy(moved), copy.deepcopy(moved)):
        assert type(clone) is FileEvent and clone == moved and hash(clone) == hash(moved)


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)  # valid UTF-8, mostly not ASCII
_wide = st.integers(min_value=-(2**80), max_value=2**80)  # orjson reads integers wider than 64 bits as floats


@pytest.mark.parametrize("decoder", [
    pytest.param("orjson", marks=pytest.mark.skipif(events_mod._fast_loads is None, reason="orjson not installed")),
    "json",
])
@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {"time": _wide, "pid": _wide, "pid_name": _text, "operation": st.sampled_from(list(Operation)),
         "file_name": _text, "file_type": _text},
        optional={"old_file_name": st.none() | _text},
    ),
    st.booleans(),
)
def test_parsed_lines_are_the_file_events_their_fields_build(decoder, fields, ascii_only):
    line = json.dumps({**fields, "operation": fields["operation"].value}, ensure_ascii=ascii_only)
    issues = []
    with mock.patch.object(events_mod, "_fast_loads", None if decoder == "json" else events_mod._fast_loads):
        ev = events_mod.parse_event_line(line, 1, issues)
    assert issues == [] and type(ev) is FileEvent
    for name in _FIELD_NAMES:  # every slot holds the line's own value, of its own type
        value = fields.get(name)
        assert getattr(ev, name) == value and type(getattr(ev, name)) is type(value)
    built = FileEvent(**fields)
    assert ev == built and hash(ev) == hash(built) and repr(ev) == repr(built)
    for name in _FIELD_NAMES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ev, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ev, name)


def _library_events(monkeypatch, tmp_path):
    """Yield (source, event) for every path by which the library hands out events."""
    lines = GOOD_LINE + "\n" + _field_line(operation='"Rename"', old_file_name='"C:/u/y.txt"')
    if events_mod._fast_loads is not None:
        yield from (("orjson", ev) for ev in parse_event_log(lines).events)
    with monkeypatch.context() as patch:
        patch.setattr(events_mod, "_fast_loads", None)
        yield from (("json", ev) for ev in parse_event_log(lines).events)
    spec = ScenarioSpec(RansomwareSpec(mode=Mode.M1, files_per_second=80.0), seed=3, tree=TreeSpec(2, 2, 20))
    yield from (("simulator", ev) for ev in generate(spec).events)
    watcher = DirectoryWatcher([tmp_path])
    path = tmp_path / "a.txt"
    for change in (lambda: path.write_text("1"), lambda: path.write_text("22"), path.unlink):  # Create, Write, Delete
        change()
        yield from (("watcher", ev) for ev in watcher.poll())
    ev = FileEvent(5, 4, "a.exe", Operation.WRITE, "C:/u/x.txt", "txt")
    yield "replace", dataclasses.replace(ev, old_file_name="C:/u/w.txt")
    for clone in (pickle.loads(pickle.dumps(ev)), copy.copy(ev), copy.deepcopy(ev)):
        yield "clone", clone


def test_no_event_handed_out_is_of_the_open_class(monkeypatch, tmp_path):
    seen = {}
    for source, ev in _library_events(monkeypatch, tmp_path):
        assert type(ev) is FileEvent, source
        seen[source] = seen.get(source, 0) + 1
    sources = {"json", "simulator", "watcher", "replace", "clone"}
    assert set(seen) == sources | ({"orjson"} if events_mod._fast_loads is not None else set())
    assert seen["simulator"] > 20 and seen["json"] == 2 and seen["watcher"] == 3


@pytest.mark.parametrize("decoder", ["orjson", "json"])
@pytest.mark.parametrize("overrides,fields", [
    ({}, {}),
    ({"old_file_name": "null"}, {}),
    ({"operation": '"Rename"', "old_file_name": '"C:/u/y.txt"'},
     {"operation": Operation.RENAME, "old_file_name": "C:/u/y.txt"}),
    ({"time": WIDE}, {"time": int(WIDE)}),  # orjson reads it as a float, so json parses it on both
], ids=["no-old", "old-null", "old-string", "wide-time"])
def test_parsed_events_are_plain_frozen_file_events(monkeypatch, decoder, overrides, fields):
    if decoder == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setattr(events_mod, "_fast_loads", None)
    (ev,) = parse_event_log(_field_line(**overrides)).events
    expected = FileEvent(**{**dict(zip(_FIELD_NAMES, _CONTRACT_ARGS[0])), **fields})
    assert type(ev) is FileEvent
    assert ev == expected and hash(ev) == hash(expected) and repr(ev) == repr(expected)
    for name in _FIELD_NAMES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ev, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ev, name)
    moved = dataclasses.replace(ev, pid=9)
    assert type(moved) is FileEvent and moved.pid == 9 and dataclasses.replace(moved, pid=ev.pid) == ev
    for clone in (pickle.loads(pickle.dumps(ev)), copy.copy(ev), copy.deepcopy(ev)):
        assert type(clone) is FileEvent and clone == ev and hash(clone) == hash(ev) and repr(clone) == repr(ev)


def test_open_twin_is_layout_compatible_and_subclasses_keep_their_class():
    open_cls = events_mod._OpenFileEvent
    assert open_cls.__slots__ == () and open_cls.__bases__ == (FileEvent,)
    assert open_cls.__basicsize__ == FileEvent.__basicsize__
    assert open_cls.__itemsize__ == FileEvent.__itemsize__ == 0

    class Tagged(FileEvent):
        __slots__ = ()

    class Loose(FileEvent):  # gains a __dict__; only the parser uses the twin, so it constructs too
        pass

    for cls in (Tagged, Loose):
        ev = cls(*_CONTRACT_ARGS[1])
        assert type(ev) is cls and ev == cls(*_CONTRACT_ARGS[1])
        assert tuple(getattr(ev, name) for name in _FIELD_NAMES) == _CONTRACT_ARGS[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.pid = 0
