"""The engine against a batch reference: the same decisions across processes, checked on generated traces.

A process is a (pid, pid_name) pair. The reference decides every open window
at each of its slide boundaries as soon as the stream's time reaches it,
whichever process's event moves the time; at the end of the stream the time
runs on until every window has closed. It scores each window from scratch at
every boundary, so it also checks the engine's skip of a window that gained
no event. It is the event-time contract, written for plainness rather than
speed (QuickCheck-style differential testing, Claessen and Hughes, ICFP 2000).

Metamorphic relations check the engine against itself on two related traces,
with the note monitor on (Chen et al., ACM Computing Surveys 2018): a
process's alerts do not depend on other processes' events, shifting every
time shifts only the alerts' times, renaming pids renames only the alerts'
pids, and reordering different processes' events at one time changes nothing.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ransomwatch import pipeline
from ransomwatch.decoys import DecoyKind, DecoyRegistry, check_event
from ransomwatch.events import (
    Alert, FileEvent, Level, Operation, ProcessWindow, Response, ThreatLevel, Trigger, TriggerKind, window_events,
)
from ransomwatch.features import Mode, name_pattern_class
from ransomwatch.notes import decode_note, similarity, tokenize
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, Mix, RansomwareSpec, ScenarioSpec, TreeSpec, first_dir_decoy, generate, mix,
)


def reference_replay(events, decoys, forest, config=pipeline.PipelineConfig(), pool=None, notes=None):
    """Alerts and threat levels of a trace replayed in event time.

    A decoy touch triggers; with a pool, so does a Create or Write that the
    decoy rule did not trigger, of a note candidate whose content scores as
    a note. A candidate is a text-extension path, or an extensionless one
    whose name class is "note", not yet scored for the process, with
    content; it is marked scored even while the process has a window open.
    """
    stream = sorted(events, key=lambda ev: ev.time)
    content = pipeline.MappingContentProvider(notes or {})
    alerts, threat, terminated = [], {}, {}  # terminated: (pid, pid_name) -> the time of its last event
    windows = {}  # (pid, pid_name) -> [trigger, index of the trigger event, next slide boundary]
    scored = {}  # (pid, pid_name) -> the note paths scored for that process

    def note_trigger(ev, process):
        if pool is None or ev.operation not in (Operation.CREATE, Operation.WRITE):
            return None
        if ev.file_type not in pipeline.TEXT_EXTENSIONS and (ev.file_type or name_pattern_class(ev.file_name) != "note"):
            return None
        if ev.file_name in scored.get(process, ()):
            return None
        blob = content.get(ev.file_name)
        if not blob:
            return None
        scored.setdefault(process, set()).add(ev.file_name)
        text = decode_note(blob, config.max_note_bytes)
        verdict = None if text is None else similarity(tokenize(text), pool, tau=config.tau_sim)
        if verdict is None or not verdict.is_note:
            return None
        detail = f"ransom note {ev.file_name} sim={verdict.score:.3f} matched={len(verdict.matched)}"
        return Trigger(TriggerKind.RANSOM_NOTE, ev.pid, ev.file_name, ev.time, detail, verdict.score)

    def decide(process):
        pid, pid_name = process
        trigger, start, boundary = windows[process]
        evs = tuple(ev for ev in stream[start:] if (ev.pid, ev.pid_name) == process and ev.time < boundary)
        row = pipeline.featurize(ProcessWindow(pid, pid_name, trigger.time, boundary, evs),
                                 forest.dims, forest.hash_seed)
        prob = forest.predict_row(row)
        evidence = (trigger.detail, f"trigger_time_us={trigger.time}")
        if prob >= config.decision_threshold:
            threat[pid] = Level.HIGH
            if pid:  # pid 0 is never terminated
                terminated[process] = evs[-1].time
            digest = hashlib.sha256(row.tobytes()).hexdigest()[:12]
            alerts.append(Alert(boundary, pid, pid_name, ThreatLevel(Level.HIGH, trigger.kind, prob),
                                evidence + (f"classifier_p={prob:.4f}", f"feature_digest={digest}"),
                                Response.TERMINATE_SIMULATED))
        elif boundary - trigger.time == config.window_total_us:
            score = min(1.0, round(trigger.score, 3))
            alerts.append(Alert(boundary, pid, pid_name,
                                ThreatLevel(Level.LOW, trigger.kind, score), evidence, Response.TRACK_ONLY))
        else:
            windows[process][2] += config.slide_us
            return
        del windows[process]

    def advance(now):
        while windows:
            boundary, process = min((window[2], process) for process, window in windows.items())
            if boundary > now:
                return
            decide(process)

    for i, ev in enumerate(stream):
        advance(ev.time)
        process = (ev.pid, ev.pid_name)
        if process in terminated:
            # an event window_total_us or more after the last one is a new process under the same name
            if ev.time - terminated[process] < config.window_total_us:
                terminated[process] = ev.time
                continue
            del terminated[process]
            scored.pop(process, None)
        trigger = check_event(ev, decoys) or note_trigger(ev, process)
        if trigger is not None and process not in windows:
            windows[process] = [trigger, i, trigger.time + config.slide_us]
            threat.setdefault(ev.pid, Level.LOW)
    advance(math.inf)
    return alerts, threat


def _engine_replay(events, registry, forest, config=pipeline.PipelineConfig(), pool=None, notes=None):
    engine = pipeline.Engine(registry, pool, forest, config, pipeline.MappingContentProvider(notes or {}))
    for ev in sorted(events, key=lambda ev: ev.time):
        engine.process(ev)
    engine.finish()
    return engine


def _assert_engine_matches_reference(events, registry, forest, config=pipeline.PipelineConfig(), pool=None, notes=None):
    engine = _engine_replay(events, registry, forest, config, pool, notes)
    alerts, threat = reference_replay(events, registry, forest, config, pool, notes)
    assert engine.alerts == alerts  # in the order they are raised
    assert engine.threat_by_pid == threat
    return engine


_MODES = list(Mode)


@st.composite
def _mixes(draw, max_scenarios=6):
    """2 to ``max_scenarios`` simulator scenarios mixed under pids 1, 2, ..., each with a decoy and a start offset.

    A scenario gets its own root, or by a drawn flag reuses an earlier one's
    root and seed, so that the two share their tree, their decoy and, for
    two attacks, their note paths. By another drawn flag it reuses an
    earlier one's pid; its events keep their own pid_name, so under the same
    name the two are one process. The truth keeps the pids ``mix`` gave.
    """
    specs, pids = [], []
    for i in range(draw(st.integers(min_value=2, max_value=max_scenarios))):
        pids.append(draw(st.sampled_from(pids)) if pids and draw(st.booleans()) else i + 1)
        if specs and draw(st.booleans()):
            tree, seed = draw(st.sampled_from([(spec.tree, spec.seed) for spec in specs]))
        else:
            tree = TreeSpec(depth=2, fanout=2, files=60, root=f"C:/Users/u{i}")
            seed = draw(st.integers(min_value=0, max_value=10_000))
        if draw(st.booleans()):
            kind = RansomwareSpec(mode=draw(st.sampled_from(_MODES)),
                                  files_per_second=draw(st.integers(min_value=20, max_value=800)))
        else:
            kind = BenignSpec(profile=draw(st.sampled_from(list(BenignProfile))), touch_decoy=True)
        start_us = draw(st.integers(min_value=0, max_value=6_000_000))
        specs.append(ScenarioSpec(kind=kind, seed=seed, tree=tree, decoy_paths=(first_dir_decoy(tree, seed),),
                                  start_us=start_us))
    m = mix(specs, pids=range(1, len(specs) + 1))  # mix refuses a pid twice, so reuse is relabelled after it
    return replace(m, events=tuple(replace(ev, pid=pids[ev.pid - 1]) for ev in m.events))


@st.composite
def _cut_mixes(draw):
    """Mixes whose trace ends at a drawn time up to 3 s after a decoy touch, so windows are open at its end."""
    m = draw(_mixes())
    touches = sorted({ev.time for ev in m.events if ev.file_name in m.registry})
    cut = draw(st.sampled_from(touches)) + draw(st.integers(min_value=0, max_value=3_000_000))
    return replace(m, events=tuple(ev for ev in m.events if ev.time <= cut))


# The default config, and others whose windows have more or fewer slides and
# whose threshold a later slide may be the first to reach.
_CONFIGS = st.builds(
    lambda slide_us, n_slides, threshold: pipeline.PipelineConfig(n_slides * slide_us, slide_us, threshold),
    st.sampled_from((1_000_000, 500_000)), st.integers(min_value=1, max_value=4),
    st.sampled_from((0.5, 0.9, 0.99)),
) | st.just(pipeline.PipelineConfig())


@settings(max_examples=50, deadline=None)
@given(_mixes() | _cut_mixes(), _CONFIGS)
def test_engine_decides_as_the_reference(trained_forest, gene_pool, m, config):
    _assert_engine_matches_reference(m.events, m.registry, trained_forest, config, gene_pool, m.notes)


@settings(max_examples=200, deadline=None)
@given(_cut_mixes(), _CONFIGS)
def test_alerts_are_raised_in_date_order(trained_forest, m, config):
    dates = [alert.created_at for alert in _engine_replay(m.events, m.registry, trained_forest, config).alerts]
    assert dates == sorted(dates)


def test_engine_decides_as_the_reference_on_the_mode_mix(trained_forest, mode_mix):
    engine = _assert_engine_matches_reference(mode_mix.events, mode_mix.registry, trained_forest)
    levels = {a.threat.level for a in engine.alerts}
    assert {Level.HIGH, Level.LOW} <= levels  # not a vacuous match


def _two_attack_trace(names, gap_us, pid, write_every_us=None):
    """A mix of an M3 attack under ``pid`` and each name in turn, gap_us apart, without notes or truth.

    With write_every_us, the first attack goes on writing one file that often until the second starts.
    Built by hand, because ``mix`` gives each scenario a pid of its own.
    """
    events, registry = [], DecoyRegistry()
    for i, name in enumerate(names):
        tree = TreeSpec(depth=2, fanout=2, files=60, root=f"C:/Users/u{i}")
        decoy = first_dir_decoy(tree, 70 + i)
        registry.register(decoy, "digest", DecoyKind.DOCUMENT)
        result = generate(ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=80), seed=70 + i,
                                       tree=tree, decoy_paths=(decoy,), start_us=gap_us * i))
        if i and write_every_us:
            last = events[-1].time
            events.extend(FileEvent(t, pid, names[0], Operation.WRITE, "C:/Users/u0/log.txt", "txt")
                          for t in range(last + write_every_us, gap_us * i, write_every_us))
        events.extend(replace(ev, pid=pid, pid_name=name) for ev in result.events)
    return Mix(tuple(sorted(events, key=lambda ev: ev.time)), registry, {}, {})


def _two_attacks_under_one_pid(forest, names, gap_us=12_000_000, pid=7, write_every_us=None):
    """The High alerts' (pid, pid_name) and the trigger count of ``_two_attack_trace``, replayed as the reference does."""
    m = _two_attack_trace(names, gap_us, pid, write_every_us)
    engine = _assert_engine_matches_reference(m.events, m.registry, forest)
    return [(a.pid, a.pid_name) for a in engine.alerts if a.threat.level is Level.HIGH], engine.metrics.triggers


def test_a_reused_pid_is_detected_again(trained_forest):
    highs, triggers = _two_attacks_under_one_pid(trained_forest, ("first.exe", "second.exe"))
    assert highs == [(7, "first.exe"), (7, "second.exe")]
    assert triggers == 2


def test_a_reused_pid_under_a_new_name_stays_out_of_the_open_window(trained_forest):
    # the second attack starts while the first one's window is open, so its events stay out of that window
    highs, triggers = _two_attacks_under_one_pid(trained_forest, ("first.exe", "second.exe"), gap_us=1_000_000)
    assert highs == [(7, "first.exe"), (7, "second.exe")]
    assert triggers == 2


def test_pid_0_touching_a_second_decoy_after_its_high_opens_a_second_window(trained_forest):
    # pid 0 is never terminated (every live event carries it), so each High leaves its later decoy touches live
    highs, triggers = _two_attacks_under_one_pid(trained_forest, ("live", "live"), pid=0)
    assert highs == [(0, "live"), (0, "live")]
    assert triggers == 2


def test_a_reused_pid_with_the_same_name_is_detected_again(trained_forest):
    # the first attack's last event is over window_total_us before the second's first, so that one is a new process
    highs, triggers = _two_attacks_under_one_pid(trained_forest, ("same.exe", "same.exe"))
    assert highs == [(7, "same.exe"), (7, "same.exe")]
    assert triggers == 2


def test_a_terminated_pid_that_keeps_writing_stays_skipped(trained_forest):
    # writes 2 s apart never leave window_total_us quiet, so the second attack's decoy touch is skipped too
    highs, triggers = _two_attacks_under_one_pid(trained_forest, ("same.exe", "same.exe"), write_every_us=2_000_000)
    assert highs == [(7, "same.exe")]
    assert triggers == 1


def test_window_events_rebuilds_a_high_row_under_a_reused_pid(trained_forest):
    # the second image starts inside the first one's window: it opens its own,
    # and the first one's row holds only the first image's events
    m = _two_attack_trace(("first.exe", "second.exe"), 500_000, 7)
    engine = _assert_engine_matches_reference(m.events, m.registry, trained_forest)
    highs = [(a.pid, a.pid_name) for a in engine.alerts if a.threat.level is Level.HIGH]
    assert highs == [(7, "first.exe"), (7, "second.exe")]
    assert engine.metrics.triggers == engine.metrics.windows_opened == 2
    (alert,) = [a for a in engine.alerts if a.pid_name == "first.exe"]
    fields = dict(e.split("=", 1) for e in alert.evidence[1:])  # after the trigger detail
    trigger_time = int(fields["trigger_time_us"])
    window = window_events(m.events, 7, trigger_time, alert.created_at - trigger_time)
    assert {ev.pid_name for ev in m.events if trigger_time <= ev.time < alert.created_at} == {"first.exe", "second.exe"}
    row = pipeline.featurize(window, trained_forest.dims, trained_forest.hash_seed)
    assert hashlib.sha256(row.tobytes()).hexdigest()[:12] == fields["feature_digest"]


def test_a_process_that_is_new_after_its_quiet_gap_is_scored_for_notes_again(trained_forest, gene_pool):
    # two M3 attacks with one seed on one 200-file tree and no decoy, as one process 12 s apart; at 400
    # files/s the first writes every note path before its High, and they are the second's note paths too
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=400), seed=5,
                          tree=TreeSpec(depth=2, fanout=3, files=200), start_us=start_us)
             for start_us in (0, 12_000_000)], pids=(1, 2))
    events = [replace(ev, pid=7, pid_name="same.exe") for ev in m.events]
    engine = _assert_engine_matches_reference(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)
    highs = [(a.created_at, a.pid, a.pid_name) for a in engine.alerts if a.threat.level is Level.HIGH]
    assert highs == [(1_000_000, 7, "same.exe"), (13_000_000, 7, "same.exe")]


# Two M3 attacks with one seed on one 200-file tree and no decoy, the second
# 30 s after the first: at 400 files/s the first has written every note path
# before its High, and they are the second's note paths too (ROADMAP 3.5).
_REINFECTION = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=400), seed=5,
                                 tree=TreeSpec(depth=2, fanout=3, files=200), start_us=start_us)
                    for start_us in (0, 30_000_000)], pids=(101, 202))


@settings(max_examples=25, deadline=None)
@given(_mixes(max_scenarios=4))
@example(_REINFECTION)
@example(_two_attack_trace(("first.exe", "second.exe"), 500_000, 7))
def test_a_process_alerts_depend_on_its_own_events_alone(trained_forest, gene_pool, m):
    alerts = _engine_replay(m.events, m.registry, trained_forest, pool=gene_pool, notes=m.notes).alerts
    for process in dict.fromkeys((ev.pid, ev.pid_name) for ev in m.events):
        events = [ev for ev in m.events if (ev.pid, ev.pid_name) == process]
        alone = _engine_replay(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes).alerts
        assert [a.to_json_line() for a in alone] == [a.to_json_line() for a in alerts if (a.pid, a.pid_name) == process]


@settings(max_examples=25, deadline=None)
@given(_mixes(max_scenarios=4), st.integers(min_value=1, max_value=10 ** 12))
def test_shifting_every_time_shifts_only_the_alert_times(trained_forest, gene_pool, m, shift):
    engine = _engine_replay(m.events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)
    events = [replace(ev, time=ev.time + shift) for ev in m.events]
    shifted = _engine_replay(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)

    def moved(alert):
        evidence = tuple(f"trigger_time_us={int(e.split('=')[1]) + shift}" if e.startswith("trigger_time_us=") else e
                         for e in alert.evidence)
        return replace(alert, created_at=alert.created_at + shift, evidence=evidence)

    assert shifted.alerts == [moved(alert) for alert in engine.alerts]
    assert shifted.threat_by_pid == engine.threat_by_pid


@settings(max_examples=25, deadline=None)
@given(_mixes(max_scenarios=4), st.lists(st.integers(1, 2 ** 31), min_size=4, max_size=4, unique=True))
def test_renaming_pids_renames_only_the_alerts_pids(trained_forest, gene_pool, m, new_pids):
    rename = dict(zip(range(1, 5), new_pids))  # pid 0, which is never terminated, is left out
    engine = _engine_replay(m.events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)
    events = [replace(ev, pid=rename[ev.pid]) for ev in m.events]
    renamed = _engine_replay(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)

    def by_date(alerts):  # windows decided at one slide boundary are decided in pid order
        return sorted(alerts, key=lambda alert: (alert.created_at, alert.to_json_line()))

    assert by_date(renamed.alerts) == by_date([replace(alert, pid=rename[alert.pid]) for alert in engine.alerts])
    assert renamed.threat_by_pid == {rename[pid]: level for pid, level in engine.threat_by_pid.items()}


def _shuffle_ties(events, rnd):
    """``events`` with the events of different processes at one time in an order ``rnd`` draws; each process's own
    events keep theirs."""
    shuffled = []
    for _, tied in itertools.groupby(events, key=lambda ev: ev.time):
        tied = list(tied)
        slots = [(ev.pid, ev.pid_name) for ev in tied]
        rnd.shuffle(slots)
        own = {process: iter([ev for ev in tied if (ev.pid, ev.pid_name) == process]) for process in set(slots)}
        shuffled.extend(next(own[process]) for process in slots)
    return shuffled


@settings(max_examples=25, deadline=None)
@given(_mixes(max_scenarios=4), st.sampled_from((1, 1_000, 100_000)), st.randoms(use_true_random=False))
def test_reordering_processes_events_at_one_time_changes_no_alert(trained_forest, gene_pool, m, tick, rnd):
    events = [replace(ev, time=ev.time - ev.time % tick) for ev in m.events]  # a coarser clock, for more ties
    engine = _engine_replay(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes)
    shuffled = _engine_replay(_shuffle_ties(events, rnd), m.registry, trained_forest, pool=gene_pool, notes=m.notes)
    assert shuffled.alerts == engine.alerts
    assert shuffled.threat_by_pid == engine.threat_by_pid
