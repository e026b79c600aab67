"""MDR funnel: triggers, windows, escalation, metrics, live watching."""
from __future__ import annotations

import ast
import hashlib
import inspect
import json
import textwrap
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from ransomwatch import pipeline
from ransomwatch.decoys import DecoyKind, DecoyRegistry, DecoySpec, WatchUnavailable, deploy
from ransomwatch.events import (
    FileEvent, Level, Operation, ParseIssueKind, ProcessWindow, Response, TriggerKind, parse_event_log,
    serialize_events,
)
from ransomwatch.features import Mode, WindowFold
from ransomwatch.notes import similarity, tokenize
from ransomwatch.pipeline import (
    DirectoryWatcher,
    MappingContentProvider,
    metrics_report,
    run_live,
    run_replay,
)
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, first_dir_decoy, make_note_corpus, mix,
)

TREE = TreeSpec(depth=2, fanout=2, files=60)


def _write_trace(tmp_path, events, name="trace.jsonl"):
    path = tmp_path / name
    path.write_text(serialize_events(events), encoding="utf-8")
    return path


def _registry_for(paths):
    """A registry of the decoys of a hand-built trace; ``mix`` registers a generated trace's own."""
    registry = DecoyRegistry()
    for p in paths:
        registry.register(p, "digest", DecoyKind.DOCUMENT)
    return registry


def test_pure_benign_replay_has_empty_funnel(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=BenignSpec(profile=p), seed=50 + i, tree=TREE)
             for i, p in enumerate((BenignProfile.OFFICE, BenignProfile.BACKUP, BenignProfile.INDEXER))])
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest)
    assert result.metrics.windows_opened == 0
    assert result.metrics.classifier_calls == 0
    assert result.metrics.triggers == 0
    assert result.alerts == []
    report = metrics_report(result.metrics)
    assert report["alerts_by_level"] == {"low": 0, "high": 0}
    assert report["decision_latency_p50_us"] is None


def test_ransomware_with_decoys_high_alert(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=80),
                          seed=60, tree=TREE, decoy_paths=(first_dir_decoy(TREE, 60),))])
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest,
                        content_provider=MappingContentProvider(m.notes))
    assert result.metrics.windows_opened == 1
    assert result.metrics.alerts_high == 1
    (alert,) = [a for a in result.alerts if a.threat.level is Level.HIGH]
    assert alert.response_taken is Response.TERMINATE_SIMULATED
    assert [alert.pid] == list(m.truth)
    assert alert.threat.score >= 0.5
    assert any("trigger_time_us=" in e for e in alert.evidence)
    (latency,) = result.metrics.decision_latencies_us
    assert latency <= 3_000_000


def test_decoy_touch_then_benign_gets_low_trackonly(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=BenignSpec(profile=BenignProfile.OFFICE, touch_decoy=True),
                          seed=61, tree=TREE, decoy_paths=("C:/Users/alice/Documents/family_budget.docx",))])
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest)
    assert result.metrics.windows_opened == 1
    assert result.metrics.classifier_calls >= 1
    assert result.metrics.alerts_high == 0
    (alert,) = result.alerts
    assert alert.threat.level is Level.LOW
    assert alert.threat.source is TriggerKind.DECOY_TOUCH
    assert alert.response_taken is Response.TRACK_ONLY


def test_note_trigger_path_without_decoys(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M4, files_per_second=80, avoid_decoys=True,
                                              note_every_k_dirs=1), seed=62, tree=TREE)])
    # ensure at least one dropped note clears the similarity threshold
    best = max(similarity(tokenize(t), gene_pool).score for t in m.notes.values())
    assert best >= 0.21
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest,
                        content_provider=MappingContentProvider(m.notes))
    assert result.metrics.triggers >= 1
    assert result.metrics.alerts_high == 1
    (alert,) = [a for a in result.alerts if a.threat.level is Level.HIGH]
    assert alert.threat.source is TriggerKind.RANSOM_NOTE


def test_note_only_pid_low_alert_carries_note_score(tmp_path, trained_forest, gene_pool):
    note_path = "C:/Users/bob/Documents/HOW_TO_RECOVER_FILES.txt"
    text = make_note_corpus(1, seed=31)[0]
    events = [FileEvent(1_000, 7, "notepad.exe", Operation.WRITE, note_path, "txt")]
    trace = _write_trace(tmp_path, events, "note.jsonl")
    result = run_replay(
        trace, DecoyRegistry(), gene_pool, trained_forest,
        content_provider=MappingContentProvider({note_path: text}),
    )
    (alert,) = result.alerts
    assert alert.threat.level is Level.LOW
    assert alert.threat.source is TriggerKind.RANSOM_NOTE
    assert alert.response_taken is Response.TRACK_ONLY
    expected = round(similarity(tokenize(text), gene_pool).score, 3)
    assert expected >= 0.21
    assert alert.threat.score == expected


def test_empty_note_at_create_is_scored_when_written(tmp_path, trained_forest, gene_pool):
    note_path = "C:/Users/bob/Documents/HOW_TO_RECOVER_FILES.txt"
    text = make_note_corpus(1, seed=31)[0]

    class FilledLater:  # the file is empty when created, then written
        def __init__(self):
            self.blobs = [b"", text.encode("utf-8")]

        def get(self, path):
            return self.blobs.pop(0) if self.blobs else None

    events = [
        FileEvent(1_000, 7, "notepad.exe", Operation.CREATE, note_path, "txt"),
        FileEvent(2_000, 7, "notepad.exe", Operation.WRITE, note_path, "txt"),
    ]
    trace = _write_trace(tmp_path, events, "note.jsonl")
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest, content_provider=FilledLater())
    assert result.metrics.triggers == 1
    (alert,) = result.alerts
    assert alert.threat.source is TriggerKind.RANSOM_NOTE


class _CountingContent:
    """A ContentProvider that counts its get calls; every path holds benign text."""

    def __init__(self):
        self.gets = []

    def get(self, path):
        self.gets.append(path)
        return b"meeting notes for thursday"


def test_only_creates_and_writes_ask_for_note_content(trained_forest, gene_pool):
    content = _CountingContent()
    engine = pipeline.Engine(DecoyRegistry(), gene_pool, trained_forest, content_provider=content)
    path = "C:/Users/bob/Documents/minutes.txt"
    for t, op in enumerate((Operation.READ, Operation.DELETE, Operation.RENAME, Operation.OVERWRITE, Operation.SMASH)):
        engine.process(FileEvent(t, 7, "editor.exe", op, path, "txt", path if op is Operation.RENAME else None))
    assert content.gets == []
    engine.process(FileEvent(10, 7, "editor.exe", Operation.CREATE, path, "txt"))
    engine.process(FileEvent(11, 7, "editor.exe", Operation.WRITE, path, "txt"))
    assert content.gets == [path]  # scored once, at the first non-empty Create
    assert engine.metrics.triggers == 0 and engine.metrics.events == 7


def test_event_that_closes_its_window_low_can_open_the_next(trained_forest, gene_pool):
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    config = pipeline.PipelineConfig(decision_threshold=1.01)  # every slide decides Low
    engine = pipeline.Engine(_registry_for([decoy]), gene_pool, trained_forest, config)
    engine.process(FileEvent(0, 7, "x.exe", Operation.WRITE, decoy, "docx"))
    # past the last slide: this event closes the first window, then touches the decoy again
    engine.process(FileEvent(3_500_000, 7, "x.exe", Operation.WRITE, decoy, "docx"))
    assert engine.metrics.windows_opened == 2 and engine.metrics.triggers == 2
    # classified at its first slide; its later slides gained no event, so they are not classified again
    assert engine.metrics.classifier_calls == 1
    (alert,) = engine.alerts
    assert alert.threat.level is Level.LOW and alert.created_at == config.window_total_us
    engine.finish()
    assert engine.metrics.classifier_calls == 2
    assert [a.threat.level for a in engine.alerts] == [Level.LOW, Level.LOW]
    assert engine.alerts[1].created_at == 3_500_000 + config.window_total_us


def test_event_before_trigger_time_stays_out_of_window(tmp_path, trained_forest, gene_pool):
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    events = [
        FileEvent(5_000_000, 7, "x.exe", Operation.WRITE, decoy, "docx"),
        FileEvent(4_000_000, 7, "x.exe", Operation.WRITE, "C:/Users/alice/Documents/a.txt", "txt"),
        FileEvent(7_500_000, 7, "x.exe", Operation.READ, "C:/Users/alice/Documents/b.txt", "txt"),
    ]
    trace = _write_trace(tmp_path, events, "disorder.jsonl")
    result = run_replay(trace, _registry_for([decoy]), gene_pool, trained_forest)
    assert [(i.kind, i.line_no) for i in result.issues] == [(ParseIssueKind.NON_MONOTONIC_TIME, 2)]
    assert result.metrics.windows_opened == 1
    assert result.metrics.classifier_calls >= 2
    assert len(result.alerts) == 1


def test_a_reused_pid_stays_out_of_the_open_window_of_its_old_image(trained_forest, gene_pool):
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    engine = pipeline.Engine(_registry_for([decoy]), gene_pool, trained_forest)
    first = FileEvent(0, 7, "a.exe", Operation.WRITE, decoy, "docx")
    engine.process(first)
    engine.process(FileEvent(500_000, 7, "b.exe", Operation.WRITE, "C:/Users/alice/Documents/a.txt", "txt"))
    assert engine._processes[(7, "a.exe")].window.events == [first]
    engine.finish()
    assert [alert.pid_name for alert in engine.alerts] == ["a.exe"]
    assert engine.metrics.windows_opened == 1


def test_a_high_never_terminates_pid_0(trained_forest):
    # pid 0 is no process to stop, and live mode gives it to every event
    decoys = ["C:/Users/alice/Documents/family_budget.docx", "C:/Users/alice/Documents/taxes.xlsx"]
    config = pipeline.PipelineConfig(decision_threshold=0.0)  # the first decision is High
    engine = pipeline.Engine(_registry_for(decoys), None, trained_forest, config)
    engine.process(FileEvent(0, 0, "live", Operation.WRITE, decoys[0], "docx"))
    # decides the first window High at 1 s, then touches the second decoy
    engine.process(FileEvent(1_200_000, 0, "live", Operation.WRITE, decoys[1], "xlsx"))
    engine.finish()
    assert engine.metrics.triggers == engine.metrics.windows_opened == 2
    assert [(a.threat.level, a.created_at) for a in engine.alerts] == [(Level.HIGH, 1_000_000), (Level.HIGH, 2_200_000)]


def _noisy_trace(tmp_path):
    """Blank lines, CRLF endings, bad JSON, an unknown operation, a pid going back in time."""
    def line(time, pid, op="Write"):
        return (f'{{"time":{time},"pid":{pid},"pid_name":"x.exe","operation":"{op}",'
                f'"file_name":"C:/u/f{time}.txt","file_type":"txt"}}')
    text = "\r\n".join([
        line(8, 1), "", "   ", line(10, 2), "{not json", line(20, 1, "Explode"),
        line(5, 1), "\t", line(30, 2), '["a list"]', line(25, 2), "",
    ]) + "\r\n"
    trace = tmp_path / "noisy.jsonl"
    trace.write_bytes(text.encode("utf-8"))
    return trace


def test_replay_and_parse_event_log_agree_on_noisy_trace(tmp_path, trained_forest, gene_pool):
    trace = _noisy_trace(tmp_path)
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest)
    parsed = parse_event_log(trace.read_bytes())
    issues = [(i.kind, i.line_no, i.detail) for i in parsed.issues]
    assert [(i.kind, i.line_no, i.detail) for i in result.issues] == issues
    assert result.metrics.events == len(parsed.events) == 5
    assert [(kind, line_no) for kind, line_no, _ in issues] == [
        (ParseIssueKind.MALFORMED_LINE, 5),
        (ParseIssueKind.UNKNOWN_OPERATION, 6),
        (ParseIssueKind.NON_MONOTONIC_TIME, 7),
        (ParseIssueKind.MALFORMED_LINE, 10),
        (ParseIssueKind.NON_MONOTONIC_TIME, 11),
    ]


def test_replay_reports_a_line_that_is_not_utf8_and_goes_on(tmp_path, trained_forest, gene_pool):
    line = '{{"time":{0},"pid":1,"pid_name":"x.exe","operation":"Write","file_name":"C:/u/f{0}.txt","file_type":"txt"}}\n'
    trace = tmp_path / "bad_byte.jsonl"
    trace.write_bytes(b"".join(line.format(t).encode() for t in (1, 2, 3)).replace(b"/f2", b"/f\xff2"))
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest)
    parsed = parse_event_log(trace.read_bytes())
    assert result.metrics.events == len(parsed.events) == 2
    assert [(i.kind, i.line_no, i.detail) for i in result.issues] == [
        (i.kind, i.line_no, i.detail) for i in parsed.issues
    ] == [(ParseIssueKind.MALFORMED_LINE, 2, "invalid UTF-8")]


def test_replay_parses_through_the_module_global(tmp_path, trained_forest, gene_pool, monkeypatch):
    trace = _noisy_trace(tmp_path)
    calls = []
    original = pipeline.parse_event_line

    def counting(line, line_no, issues):
        calls.append(line_no)
        return original(line, line_no, issues)

    monkeypatch.setattr(pipeline, "parse_event_line", counting)
    run_replay(trace, DecoyRegistry(), gene_pool, trained_forest)
    non_empty = [n for n, raw in enumerate(trace.read_text(encoding="utf-8").splitlines(), 1) if raw.strip()]
    assert calls == non_empty == [1, 4, 5, 6, 7, 9, 10, 11]


@pytest.mark.parametrize("mapping", [{"C:/x.txt": 5}, ["a"]], ids=["number-value", "list"])
def test_notes_map_must_map_paths_to_text(tmp_path, mapping):
    path = tmp_path / "notes.json"
    path.write_text(json.dumps({"C:/x.txt": "text"}), encoding="utf-8")
    assert MappingContentProvider.from_json_file(path).get("C:/x.txt") == b"text"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    with pytest.raises(ValueError, match="notes map"):
        MappingContentProvider.from_json_file(path)


def test_note_scoring_skips_binary_content(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=BenignSpec(profile=BenignProfile.OFFICE), seed=63, tree=TREE)])
    txt_event_paths = {ev.file_name for ev in m.events if ev.file_type == "txt"}
    provider = MappingContentProvider({p: b"\xff\xfe\x00binary" for p in txt_event_paths})
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest,
                        content_provider=provider)
    assert result.metrics.triggers == 0


@pytest.mark.parametrize("tail", ["\u00e9", "\u20ac", "\U0001f512"], ids=["2-byte", "3-byte", "4-byte"])
def test_note_cut_inside_a_character_is_scored(tmp_path, trained_forest, gene_pool, tail):
    note_path = "C:/Users/bob/Documents/HOW_TO_RECOVER_FILES.txt"
    note = make_note_corpus(1, seed=31)[0]
    events = [FileEvent(1_000, 7, "notepad.exe", Operation.WRITE, note_path, "txt")]
    trace = _write_trace(tmp_path, events, "note.jsonl")
    config = pipeline.PipelineConfig(max_note_bytes=len(note.encode("utf-8")) + 1)
    provider = MappingContentProvider({note_path: note + tail})
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest, config, provider)
    assert result.metrics.triggers == 1
    # an invalid byte before the cut still makes the content unscorable
    provider = MappingContentProvider({note_path: b"\xff" + note.encode("utf-8")})
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest, config, provider)
    assert result.metrics.triggers == 0
    # content under the limit that ends in a partial character was not cut
    provider = MappingContentProvider({note_path: (note + tail).encode("utf-8")[:-1]})
    config = pipeline.PipelineConfig(max_note_bytes=len(note.encode("utf-8")) + 8)
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest, config, provider)
    assert result.metrics.triggers == 0


def test_notes_map_text_that_is_not_unicode_is_not_scored(tmp_path, trained_forest, gene_pool):
    # json.loads keeps a lone surrogate escape; such text has no UTF-8 bytes
    readme, note_path = "C:/u/README.txt", "C:/u/HOW_TO_RECOVER_FILES.txt"
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({readme: "hello \ud800 world", note_path: make_note_corpus(1, seed=31)[0]}),
                     encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(serialize_events([
        FileEvent(1_000, 1, "notepad.exe", Operation.CREATE, readme, "txt"),
        FileEvent(2_000, 2, "x.exe", Operation.CREATE, note_path, "txt"),
    ]), encoding="utf-8")
    result = run_replay(trace, DecoyRegistry(), gene_pool, trained_forest,
                        content_provider=MappingContentProvider.from_json_file(notes))
    assert result.metrics.triggers == 1
    assert {a.pid for a in result.alerts} == {2}


@pytest.mark.parametrize("field,value", [
    ("window_total_us", 0), ("slide_us", 0), ("slide_us", -5), ("max_note_bytes", 0),
    ("window_total_us", 3_500_000), ("window_total_us", 500_000),  # not a whole number of 1 s slides
    ("tau_sim", float("nan")), ("tau_sim", float("inf")), ("decision_threshold", float("nan")),
    ("decision_threshold", float("-inf")),
])
def test_pipeline_config_refuses_values_the_engine_cannot_run(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        pipeline.PipelineConfig(**{field: value})


def test_funnel_and_metrics_consistency_on_mixed_trace(tmp_path, trained_forest, gene_pool):
    decoys = (first_dir_decoy(TREE, 70),)  # the attack's and the office toucher's
    mixed = mix([
        ScenarioSpec(kind=RansomwareSpec(mode=Mode.M5, files_per_second=60), seed=70, tree=TREE, decoy_paths=decoys),
        ScenarioSpec(kind=BenignSpec(profile=BenignProfile.BACKUP), seed=71, tree=TREE),
        ScenarioSpec(kind=BenignSpec(profile=BenignProfile.OFFICE, touch_decoy=True),
                     seed=72, tree=TREE, decoy_paths=decoys),
    ])
    result = run_replay(_write_trace(tmp_path, mixed.events), mixed.registry, gene_pool, trained_forest,
                        content_provider=MappingContentProvider(mixed.notes))
    m = result.metrics
    assert len(result.alerts) <= m.windows_opened <= m.triggers
    assert m.alerts_low + m.alerts_high == len(result.alerts)
    ransom_pid, _, benign_toucher_pid = mixed.truth
    assert result.threat_by_pid[ransom_pid] is Level.HIGH
    assert result.threat_by_pid[benign_toucher_pid] is Level.LOW
    # response idempotence: one simulated termination per pid at most
    terminated = [a.pid for a in result.alerts if a.response_taken is Response.TERMINATE_SIMULATED]
    assert len(terminated) == len(set(terminated))


def test_latency_percentiles_match_recomputation(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M1, files_per_second=40 + 20 * i),
                          seed=80 + i, tree=TREE, decoy_paths=(first_dir_decoy(TREE, 80 + i),)) for i in range(4)])
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest)
    highs = [a for a in result.alerts if a.threat.level is Level.HIGH]
    assert highs
    recomputed = []
    for alert in highs:
        trigger_time = int(next(e for e in alert.evidence if e.startswith("trigger_time_us=")).split("=")[1])
        recomputed.append(alert.created_at - trigger_time)
    assert Counter(recomputed) == result.metrics.decision_latencies_us
    report = metrics_report(result.metrics)
    ordered = sorted(recomputed)
    assert report["decision_latency_p50_us"] == ordered[max(1, -(-len(ordered) // 2)) - 1]
    assert report["decision_latency_p99_us"] == ordered[-1]


def test_replay_deterministic_alert_bytes(tmp_path, trained_forest, gene_pool):
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M2, files_per_second=70),
                          seed=90, tree=TREE, decoy_paths=(first_dir_decoy(TREE, 90),))])
    trace = _write_trace(tmp_path, m.events)
    runs = [
        run_replay(trace, m.registry, gene_pool, trained_forest,
                   content_provider=MappingContentProvider(m.notes)).alerts_jsonl()
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[0]


def test_window_reopens_after_trackonly_close(tmp_path, trained_forest, gene_pool):
    # two touches far apart: first window closes TrackOnly, second reopens
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    m = mix([ScenarioSpec(kind=BenignSpec(profile=BenignProfile.EDITOR, touch_decoy=True),
                          seed=91, tree=TREE, decoy_paths=(decoy,))])
    last = m.events[-1]
    late_touch = FileEvent(last.time + 10_000_000, last.pid, last.pid_name, Operation.WRITE, decoy, "docx")
    trace = _write_trace(tmp_path, m.events + (late_touch,), "reopen.jsonl")
    result = run_replay(trace, m.registry, gene_pool, trained_forest)
    assert result.metrics.windows_opened == 2
    assert result.metrics.alerts_high == 0
    assert all(a.threat.level is Level.LOW for a in result.alerts)
    assert result.threat_by_pid[last.pid] is Level.LOW  # never decreased


class _ScriptedClock:
    """Stands in for the pipeline's time module: sleep advances the clock, then
    runs each scripted (time in seconds, action) pair, given in time order,
    whose time it has reached."""

    def __init__(self, actions=()):
        self.now = 0.0
        self._actions = list(actions)

    def perf_counter(self):
        return self.now

    monotonic = perf_counter

    def sleep(self, seconds):
        self.now += seconds
        while self._actions and self._actions[0][0] <= self.now:
            self._actions.pop(0)[1]()


def test_run_live_detects_scripted_encryptor(tmp_path, trained_forest, gene_pool, monkeypatch):
    workdir = tmp_path / "user_docs"
    workdir.mkdir()
    for i in range(40):
        (workdir / f"report_{i:03d}.docx").write_bytes(b"content" * 30)
    registry = DecoyRegistry()
    decoy_paths = deploy(DecoySpec(str(workdir), count=2), registry, seed=4)
    touch_time = 0.5

    def encrypt():  # after the watcher's first snapshot: a write before it is never seen as a change
        with open(decoy_paths[0], "ab") as fp:  # the tripwire
            fp.write(b"ENCRYPTED!")
        for path in sorted(workdir.iterdir()):
            if path.suffix == ".docx":
                path.with_name(path.name + ".locked").write_bytes(b"garbage")
                path.unlink()
        note = workdir / "HOW_TO_RECOVER_FILES.txt"
        note.write_text(make_note_corpus(1, seed=31)[0], encoding="utf-8")

    clock = _ScriptedClock([(touch_time, encrypt)])
    monkeypatch.setattr(pipeline, "time_mod", clock)
    alerts = []
    run_live([str(workdir)], registry, gene_pool, trained_forest, duration_s=5.0,
             on_alert=lambda alert: alerts.append((clock.now, alert)), poll_interval=0.02)
    when, alert = next(x for x in alerts if x[1].threat.level is Level.HIGH)
    assert when - touch_time <= 3.0
    assert alert.response_taken is Response.TERMINATE_SIMULATED


def test_run_live_keeps_detecting_after_a_high(tmp_path, trained_forest, monkeypatch):
    # every live event is pid 0, so a terminate that stops nothing must not
    # leave the engine blind to the next attack
    clock = _ScriptedClock()
    decoy = str(tmp_path / "family_budget.docx")
    write_times = (0.5, 2.5)  # two decoy writes, two slides apart

    class ScriptedWatcher(DirectoryWatcher):
        def _scan(self):
            return {decoy: (sum(clock.now >= t for t in write_times), 100)}

    monkeypatch.setattr(pipeline, "time_mod", clock)
    monkeypatch.setattr(pipeline, "DirectoryWatcher", ScriptedWatcher)
    config = pipeline.PipelineConfig(decision_threshold=0.0)  # the first decision is High
    result = run_live([str(tmp_path)], _registry_for([decoy]), None, trained_forest, config,
                      duration_s=5.0, poll_interval=0.25)
    highs = [a for a in result.alerts if a.threat.level is Level.HIGH]
    assert [(a.pid, a.created_at) for a in highs] == [(0, 1_500_000), (0, 3_500_000)]
    assert all(a.threat.source is TriggerKind.DECOY_TOUCH for a in highs)
    assert result.metrics.triggers == 2


def test_run_live_opens_a_window_for_a_decoy_write_in_the_scan_that_decides_a_high(tmp_path, trained_forest,
                                                                                    monkeypatch):
    clock = _ScriptedClock()
    decoys = [str(tmp_path / "family_budget.docx"), str(tmp_path / "taxes.xlsx")]
    write_times = (0.5, 1.5)  # the second write is seen by the scan that decides the first window

    class ScriptedWatcher(DirectoryWatcher):
        def _scan(self):
            return {decoy: (int(clock.now >= t), 100) for decoy, t in zip(decoys, write_times)}

    monkeypatch.setattr(pipeline, "time_mod", clock)
    monkeypatch.setattr(pipeline, "DirectoryWatcher", ScriptedWatcher)
    config = pipeline.PipelineConfig(decision_threshold=0.0)  # the first decision is High
    result = run_live([str(tmp_path)], _registry_for(decoys), None, trained_forest, config,
                      duration_s=5.0, poll_interval=0.25)
    assert [(a.threat.level, a.created_at) for a in result.alerts] == [(Level.HIGH, 1_500_000), (Level.HIGH, 2_500_000)]
    assert result.metrics.triggers == 2


def test_run_live_opens_a_window_that_holds_the_whole_poll_of_its_decoy_touch(tmp_path, trained_forest, monkeypatch):
    # 40 documents and the decoy become .locked files between two polls; the
    # scan lists the decoy's delete after every create, yet its window holds them
    clock = _ScriptedClock()
    decoy = str(tmp_path / "family_budget.docx")
    docs = [str(tmp_path / f"report_{i:03d}.docx") for i in range(40)] + [decoy]

    class ScriptedWatcher(DirectoryWatcher):
        def _scan(self):
            return {path + ".locked" if clock.now >= 0.5 else path: (1, 100) for path in docs}

    monkeypatch.setattr(pipeline, "time_mod", clock)
    monkeypatch.setattr(pipeline, "DirectoryWatcher", ScriptedWatcher)
    result = run_live([str(tmp_path)], _registry_for([decoy]), None, trained_forest,
                      duration_s=5.0, poll_interval=0.25)
    assert [(a.threat.level, a.created_at) for a in result.alerts] == [(Level.HIGH, 1_500_000)]


@pytest.mark.parametrize("quiet_pids", [1, 200])
def test_window_is_decided_when_other_pids_pass_its_boundaries(trained_forest, gene_pool, quiet_pids):
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    engine = pipeline.Engine(_registry_for([decoy]), gene_pool, trained_forest)
    for pid in range(1, quiet_pids + 1):  # each writes the decoy within the first 10 ms, then goes quiet
        engine.process(FileEvent((pid - 1) * 10_000 // quiet_pids, pid, "x.exe", Operation.WRITE, decoy, "docx"))
    editor = quiet_pids + 1
    for t in range(100_000, 5_000_001, 100_000):
        engine.process(FileEvent(t, editor, "editor.exe", Operation.WRITE, f"C:/Users/bob/Documents/r{t}.docx", "docx"))
    # by t = 5 s every slide boundary of each quiet pid's 3 s window has passed, and so has its quiet gap
    assert sorted(a.pid for a in engine.alerts) == list(range(1, quiet_pids + 1))
    assert list(engine._processes) == [(editor, "editor.exe")]


class _OneText:
    """Content provider: one benign document at every path."""

    def get(self, path):
        return b"Minutes of the weekly planning meeting, with the actions agreed."


def test_state_stays_bounded_over_many_short_lived_processes(trained_forest, gene_pool):
    # one process every millisecond under a pid of its own, each with one event: an even pid touches a decoy and
    # opens a window, an odd one writes a document that is scored for notes; each is quiet after its event
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    config, spacing_us, n = pipeline.PipelineConfig(), 1_000, 20_000
    engine = pipeline.Engine(_registry_for([decoy]), gene_pool, trained_forest, config, _OneText())
    events = (FileEvent(pid * spacing_us, pid, "p.exe", Operation.WRITE, *(
        (decoy, "docx") if pid % 2 == 0 else (f"C:/Users/bob/Documents/d{pid}.txt", "txt"))) for pid in range(1, n + 1))
    peak_processes = peak_due = 0
    for ev in events:
        engine.process(ev)
        peak_processes = max(peak_processes, len(engine._processes))
        peak_due = max(peak_due, len(engine._due))
    # a process is forgotten window_total_us after its event, so the processes of one quiet gap are kept, and
    # the heap holds one entry for each and one stale expiry for each that opened a window
    bound = config.window_total_us // spacing_us + 1
    assert bound // 2 < peak_processes <= bound and peak_due <= 2 * bound
    assert engine.metrics.windows_opened == n // 2 and engine.metrics.triggers == n // 2
    engine.finish()
    assert not engine._processes and not engine._due
    assert len(engine.alerts) == n // 2


def test_a_late_event_joins_its_open_window_from_the_next_slide_on(tmp_path, trained_forest, gene_pool, monkeypatch):
    # pid 1's event at 0.9 s comes after pid 2's at 1.2 s has decided pid 1's
    # window at 1 s: it is in time order for its own pid, so no issue
    decoy = "C:/Users/alice/Documents/family_budget.docx"
    events = [
        FileEvent(0, 1, "x.exe", Operation.WRITE, decoy, "docx"),
        FileEvent(1_200_000, 2, "editor.exe", Operation.WRITE, "C:/Users/bob/Documents/r.docx", "docx"),
        FileEvent(900_000, 1, "x.exe", Operation.WRITE, "C:/Users/alice/Documents/a.docx", "docx"),
    ]
    trace = _write_trace(tmp_path, events, "late.jsonl")
    real_decide = pipeline.Engine._decide
    decided = []

    def decide(self, record, boundary):
        decided.append((boundary, len(record.window.events)))
        return real_decide(self, record, boundary)

    monkeypatch.setattr(pipeline.Engine, "_decide", decide)
    config = pipeline.PipelineConfig(decision_threshold=1.01)  # every slide decides Low
    result = run_replay(trace, _registry_for([decoy]), gene_pool, trained_forest, config)
    assert result.issues == []
    # at the end of the stream the clock runs on to the window's last slide
    assert decided == [(1_000_000, 1), (2_000_000, 2), (3_000_000, 2)]
    assert result.metrics.classifier_calls == 2  # the last slide gained no event
    assert [(a.pid, a.threat.level, a.created_at) for a in result.alerts] == [(1, Level.LOW, 3_000_000)]


def test_run_live_watches_decoys_outside_dirs(tmp_path, trained_forest, gene_pool, monkeypatch):
    workdir = tmp_path / "user_docs"
    hidden = tmp_path / "app_config"
    workdir.mkdir()
    hidden.mkdir()
    registry = DecoyRegistry()
    (decoy,) = deploy(DecoySpec(str(hidden), count=1), registry, seed=6)

    def tamper():
        with open(decoy, "ab") as fp:
            fp.write(b"ENCRYPTED!")

    monkeypatch.setattr(pipeline, "time_mod", _ScriptedClock([(0.3, tamper)]))
    result = run_live([str(workdir)], registry, gene_pool, trained_forest, duration_s=1.5, poll_interval=0.02)
    decoy_alerts = [a for a in result.alerts if a.threat.source is TriggerKind.DECOY_TOUCH]
    assert decoy_alerts, "write to a decoy outside --dirs raised no alert"
    assert decoy_alerts[0].evidence[0] == f"decoy write {decoy}"


def test_run_live_idle_quiet(tmp_path, trained_forest, gene_pool, monkeypatch):
    workdir = tmp_path / "quiet"
    workdir.mkdir()
    (workdir / "untouched.docx").write_text("still")
    registry = DecoyRegistry()
    deploy(DecoySpec(str(workdir), count=1), registry, seed=5)
    monkeypatch.setattr(pipeline, "time_mod", _ScriptedClock())
    cpu_before = time.process_time()
    result = run_live([str(workdir)], registry, gene_pool, trained_forest,
                      duration_s=2.0, poll_interval=0.05)
    cpu_spent = time.process_time() - cpu_before
    assert result.alerts == []
    assert result.metrics.classifier_calls == 0
    assert cpu_spent < 1.0  # polling an idle dir must stay cheap


def test_run_live_unavailable_dir(trained_forest, gene_pool):
    with pytest.raises(WatchUnavailable):
        run_live(["/does/not/exist"], DecoyRegistry(), gene_pool, trained_forest, duration_s=0.1)


def test_run_live_reads_notes_up_to_max_note_bytes(tmp_path, trained_forest, gene_pool, monkeypatch):
    sizes = []

    class RecordingProvider(pipeline.FilesystemContentProvider):
        def __init__(self, max_bytes=65536):
            sizes.append(max_bytes)
            super().__init__(max_bytes)

    monkeypatch.setattr(pipeline, "FilesystemContentProvider", RecordingProvider)
    config = pipeline.PipelineConfig(max_note_bytes=1234)
    run_live([str(tmp_path)], DecoyRegistry(), gene_pool, trained_forest, config, duration_s=0.1)
    assert sizes == [1234]


def test_run_live_runs_in_the_callers_thread(tmp_path, trained_forest, gene_pool, monkeypatch):
    registry = DecoyRegistry()
    (decoy,) = deploy(DecoySpec(str(tmp_path), count=1), registry, seed=7)
    seen = []  # (where, thread, live thread count)
    poll = DirectoryWatcher.poll

    def recording_poll(self):
        if not seen:
            with open(decoy, "ab") as fp:  # trips the decoy on the first poll
                fp.write(b"ENCRYPTED!")
        seen.append(("poll", threading.current_thread(), threading.active_count()))
        return poll(self)

    def on_alert(alert):
        seen.append(("alert", threading.current_thread(), threading.active_count()))

    monkeypatch.setattr(DirectoryWatcher, "poll", recording_poll)
    threads_before = threading.active_count()
    run_live([str(tmp_path)], registry, gene_pool, trained_forest, duration_s=0.1,
             on_alert=on_alert, poll_interval=0.02)
    assert {where for where, _, _ in seen} == {"poll", "alert"}
    assert {thread for _, thread, _ in seen} == {threading.current_thread()}
    assert {count for _, _, count in seen} == {threads_before} == {threading.active_count()}


def test_directory_watcher_event_kinds(tmp_path):
    (tmp_path / "a.txt").write_text("1")
    watcher = DirectoryWatcher([str(tmp_path)])
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    changes = [
        (lambda: (tmp_path / "b.txt").write_text("new"), [(Operation.CREATE, b)]),
        (lambda: (tmp_path / "a.txt").write_text("changed-content!"), [(Operation.WRITE, a)]),
        ((tmp_path / "b.txt").unlink, [(Operation.DELETE, b)]),
        (lambda: None, []),
    ]
    for change, expected in changes:
        change()
        events = watcher.poll()
        assert [(ev.operation, ev.file_name) for ev in events] == expected
        assert all((ev.pid, ev.pid_name, ev.file_type) == (0, "live", "txt") for ev in events)


def test_directory_watcher_poll_order_and_time(tmp_path):
    # creates and writes in scan order, then deletes in the previous scan's
    # order, all stamped with the one time of the scan that saw them
    names = [f"f{i:02d}.txt" for i in range(12)]
    for name in names:
        (tmp_path / name).write_text("old")
    watcher = DirectoryWatcher([str(tmp_path)])
    before = list(watcher._snapshot)
    for name in names[:4]:
        (tmp_path / name).unlink()
    for name in names[4:8]:
        (tmp_path / name).write_text("rewritten")
    for i in range(4):
        (tmp_path / f"new{i}.txt").write_text("x")
    after = watcher.now_us()
    events = watcher.poll()
    current = list(watcher._snapshot)  # the scan order
    created = {str(tmp_path / f"new{i}.txt") for i in range(4)}
    written = {str(tmp_path / name) for name in names[4:8]}
    gone = [path for path in before if path not in watcher._snapshot]
    assert sorted(gone) == [str(tmp_path / name) for name in names[:4]]
    expected = [(Operation.CREATE if path in created else Operation.WRITE, path)
                for path in current if path in created | written]
    expected += [(Operation.DELETE, path) for path in gone]
    assert [(ev.operation, ev.file_name) for ev in events] == expected
    assert len({ev.time for ev in events}) == 1 and events[0].time >= after


def test_featurize_layers_called_once_per_classification(tmp_path, trained_forest, gene_pool, monkeypatch):
    # perfbench traces these layers by swapping the pipeline module globals;
    # a row built without them would leave the layers untraced.
    names = ("extract_features", "build_graph", "encode")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name != "encode":  # the tracer sizes a window from the one positional argument
                assert len(args) == 1 and "fold" in kwargs
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=80),
                          seed=60, tree=TREE, decoy_paths=(first_dir_decoy(TREE, 60),))])
    result = run_replay(_write_trace(tmp_path, m.events), m.registry, gene_pool, trained_forest,
                        content_provider=MappingContentProvider(m.notes))
    assert result.metrics.classifier_calls >= 1
    assert calls == dict.fromkeys(names, result.metrics.classifier_calls)


@pytest.mark.parametrize("fn", [WindowFold.add, pipeline.Engine.process],
                         ids=lambda fn: fn.__qualname__)
def test_hot_loops_read_no_operation_member(fn):
    # These bodies run once per event or per window event.
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = [
        f"Operation.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Operation"
    ]
    assert not reads, (
        f"{fn.__qualname__} reads {', '.join(reads)}; an Operation.X read costs about 136 ns "
        "against 15 ns for a local (timeit, CPython 3.11.7), so bind the member to a local "
        "or a module alias"
    )


def test_kept_fold_gives_the_row_from_scratch_at_every_slide(trained_forest, gene_pool, monkeypatch, mode_mix):
    m = mode_mix
    real = pipeline.featurize
    real_decide = pipeline.Engine._decide
    boundaries = []
    slides_by_window = {}

    folded_by_window = {}

    def decide(self, record, boundary):
        boundaries.append(boundary)
        return real_decide(self, record, boundary)

    def checked(window, dims, hash_seed, fold=None):
        # the engine scores the window it keeps, so its events are checked here
        trigger = window.trigger
        key = (trigger.pid, trigger.time)
        assert window is engine._processes[(trigger.pid, window.pid_name)].window and fold is window.fold
        events = tuple(window.events)
        assert all(ev.pid == trigger.pid and trigger.time <= ev.time < boundaries[-1] for ev in events)
        assert fold.n == folded_by_window.get(key, 0)  # folded at the window's earlier slides
        row = real(window, dims, hash_seed, fold)
        assert fold.n == len(events)
        fresh = ProcessWindow(trigger.pid, window.pid_name, trigger.time, boundaries[-1], events)
        assert row.tobytes() == real(fresh, dims, hash_seed).tobytes()
        folded_by_window[key] = fold.n
        slides_by_window[key] = slides_by_window.get(key, 0) + 1
        return row

    monkeypatch.setattr(pipeline.Engine, "_decide", decide)
    monkeypatch.setattr(pipeline, "featurize", checked)
    engine = pipeline.Engine(m.registry, gene_pool, trained_forest, content_provider=MappingContentProvider(m.notes))
    stale = 0
    for ev in m.events:
        opened = engine.metrics.windows_opened
        engine.process(ev)
        if engine.metrics.windows_opened > opened:
            # a line out of time order, from before the trigger, stays out of the open window
            state = engine._processes[(ev.pid, ev.pid_name)].window
            engine.process(replace(ev, time=state.trigger.time - 1, operation=Operation.WRITE,
                                   file_name="C:/stale/a.bin", file_type="bin", old_file_name=None))
            assert len(state.events) == 1
            stale += 1
        for record in engine._processes.values():
            assert record.window is None or record.window.fold.n <= len(record.window.events)
    engine.finish()
    assert not engine._processes and not engine._due
    assert stale == engine.metrics.windows_opened == len(m.truth)
    assert len(slides_by_window) == len(m.truth)
    # a slide whose window gained no event is decided without a classification
    assert sum(slides_by_window.values()) == engine.metrics.classifier_calls <= len(boundaries)
    assert max(slides_by_window.values()) >= 2  # a kept fold was extended, not only filled


# sha256 over the replay of the mode_mix trace plus three noisy lines:
# alert bytes, parse issues and the metrics report without its timings. The
# out-of-order line is a decoy touch at the end of the stream, so the window
# it opens is classified once, at its first slide, and finish() runs the
# clock on to close it Low at its last slide. The M4 and M5 runs share three
# note paths under one root; each pid's notes are scored for that pid, so the
# M5 run's window opens at its first note, not at its decoy smash 8.3 ms later.
_REPLAY_GOLDEN = "a5497bc6587b1dfa47a4233d1c987257a5cc8ea2e0aa37f456cb1898998f89f9"


def test_replay_matches_golden_digest(tmp_path, trained_forest, gene_pool, mode_mix):
    m = mode_mix
    last = m.events[-1]
    assert last.pid == list(m.truth)[-1]  # the office decoy-toucher
    (decoy,) = m.truth[last.pid]["decoys_touched"]
    text = serialize_events(m.events) + "{not json\n" + serialize_events([
        replace(last, operation=Operation.WRITE),
        replace(last, time=last.time - 1, operation=Operation.WRITE, file_name=decoy, file_type="docx"),
    ]).replace('"Write"', '"Explode"', 1)
    trace = tmp_path / "golden.jsonl"
    trace.write_text(text, encoding="utf-8")
    result = run_replay(trace, m.registry, gene_pool, trained_forest, content_provider=MappingContentProvider(m.notes))
    report = metrics_report(result.metrics)
    del report["wall_seconds"], report["events_per_second"]
    issues = [(i.kind.value, i.line_no, i.detail) for i in result.issues]
    assert [kind for kind, _, _ in issues] == [
        ParseIssueKind.MALFORMED_LINE.value, ParseIssueKind.UNKNOWN_OPERATION.value,
        ParseIssueKind.NON_MONOTONIC_TIME.value,
    ]
    blob = json.dumps([result.alerts_jsonl(), issues, report], sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == _REPLAY_GOLDEN
