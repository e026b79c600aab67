"""The engine against a batch reference: the same decisions across pids, checked on generated traces.

The reference decides every open window at each of its slide boundaries as
soon as the stream's time reaches it, whichever pid's event moves the time;
at the end of the stream the time runs on until every window has closed. It
scores each window from scratch at every boundary, so it also checks the
engine's skip of a window that gained no event. It is the event-time
contract, written for plainness rather than speed (QuickCheck-style
differential testing, Claessen and Hughes, ICFP 2000).

Metamorphic relations check the engine against itself on two related traces,
with the note monitor on (Chen et al., ACM Computing Surveys 2018): a pid's
alerts do not depend on other pids' events, and shifting every time shifts
only the alerts' times.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ransomwatch import pipeline
from ransomwatch.decoys import DecoyKind, DecoyRegistry, check_event
from ransomwatch.events import Alert, FileEvent, Level, Operation, ProcessWindow, Response, ThreatLevel, window_events
from ransomwatch.features import Mode
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, first_dir_decoy, generate, mix,
)


def reference_replay(events, decoys, forest, config=pipeline.PipelineConfig()):
    """Alerts and threat levels of a trace replayed in event time, with decoy triggers only."""
    stream = sorted(events, key=lambda ev: ev.time)
    alerts, threat, terminated = [], {}, {}  # terminated: pid -> [its pid_name then, the time of its last event]
    windows = {}  # pid -> [trigger, pid_name, index of the trigger event, next slide boundary]

    def decide(pid):
        trigger, pid_name, start, boundary = windows[pid]
        evs = tuple(ev for ev in stream[start:] if ev.pid == pid and ev.pid_name == pid_name and ev.time < boundary)
        row = pipeline.featurize(ProcessWindow(pid, pid_name, trigger.time, boundary, evs),
                                 forest.dims, forest.hash_seed)
        prob = forest.predict_row(row)
        evidence = (trigger.detail, f"trigger_time_us={trigger.time}")
        if prob >= config.decision_threshold:
            threat[pid] = Level.HIGH
            if pid:  # pid 0 is never terminated
                terminated[pid] = [pid_name, evs[-1].time]
            digest = hashlib.sha256(row.tobytes()).hexdigest()[:12]
            alerts.append(Alert(boundary, pid, pid_name, ThreatLevel(Level.HIGH, trigger.kind, prob),
                                evidence + (f"classifier_p={prob:.4f}", f"feature_digest={digest}"),
                                Response.TERMINATE_SIMULATED))
        elif boundary - trigger.time == config.window_total_us:
            score = min(1.0, round(trigger.score, 3))
            alerts.append(Alert(boundary, pid, pid_name,
                                ThreatLevel(Level.LOW, trigger.kind, score), evidence, Response.TRACK_ONLY))
        else:
            windows[pid][3] += config.slide_us
            return
        del windows[pid]

    def advance(now):
        while windows:
            boundary, pid = min((window[3], pid) for pid, window in windows.items())
            if boundary > now:
                return
            decide(pid)

    for i, ev in enumerate(stream):
        advance(ev.time)
        if ev.pid in terminated and terminated[ev.pid][0] == ev.pid_name:
            # an event window_total_us or more after the last one is a new process under the same name
            if ev.time - terminated[ev.pid][1] < config.window_total_us:
                terminated[ev.pid][1] = ev.time
                continue
            del terminated[ev.pid]
        if ev.pid in windows:
            continue
        trigger = check_event(ev, decoys)
        if trigger is not None:
            windows[ev.pid] = [trigger, ev.pid_name, i, trigger.time + config.slide_us]
            threat.setdefault(ev.pid, Level.LOW)
    advance(math.inf)
    return alerts, threat


def _engine_replay(events, registry, forest, config=pipeline.PipelineConfig(), pool=None, notes=None):
    engine = pipeline.Engine(registry, pool, forest, config, pipeline.MappingContentProvider(notes or {}))
    for ev in sorted(events, key=lambda ev: ev.time):
        engine.process(ev)
    engine.finish()
    return engine


def _assert_engine_matches_reference(events, registry, forest, config=pipeline.PipelineConfig()):
    engine = _engine_replay(events, registry, forest, config)
    alerts, threat = reference_replay(events, registry, forest, config)
    assert engine.alerts == alerts  # in the order they are raised
    assert engine.threat_by_pid == threat
    return engine


_MODES = list(Mode)


@st.composite
def _mixes(draw, max_scenarios=6):
    """2 to ``max_scenarios`` simulator scenarios mixed under pids 1, 2, ..., each with a decoy and a start offset.

    A scenario gets its own root, or by a drawn flag reuses an earlier one's
    root and seed, so that the two share their tree, their decoy and, for
    two attacks, their note paths.
    """
    specs = []
    for i in range(draw(st.integers(min_value=2, max_value=max_scenarios))):
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
    return mix(specs, pids=range(1, len(specs) + 1))


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
def test_engine_decides_as_the_reference(trained_forest, m, config):
    _assert_engine_matches_reference(m.events, m.registry, trained_forest, config)


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
    """Events and decoy registry of an M3 attack under ``pid`` and each name in turn, gap_us apart.

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
    return events, registry


def _two_attacks_under_one_pid(forest, names, gap_us=12_000_000, pid=7, write_every_us=None):
    """The High alerts' (pid, pid_name) and the trigger count of ``_two_attack_trace``, replayed as the reference does."""
    engine = _assert_engine_matches_reference(*_two_attack_trace(names, gap_us, pid, write_every_us), forest)
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
    # the second image writes inside the first one's window; the engine's row holds only the first image's events
    events, registry = _two_attack_trace(("first.exe", "second.exe"), 500_000, 7)
    engine = _assert_engine_matches_reference(events, registry, trained_forest)
    (alert,) = [a for a in engine.alerts if a.pid_name == "first.exe"]
    assert alert.threat.level is Level.HIGH
    fields = dict(e.split("=", 1) for e in alert.evidence[1:])  # after the trigger detail
    trigger_time = int(fields["trigger_time_us"])
    window = window_events(sorted(events, key=lambda ev: ev.time), 7, trigger_time, alert.created_at - trigger_time)
    assert {ev.pid_name for ev in events if trigger_time <= ev.time < alert.created_at} == {"first.exe", "second.exe"}
    row = pipeline.featurize(window, trained_forest.dims, trained_forest.hash_seed)
    assert hashlib.sha256(row.tobytes()).hexdigest()[:12] == fields["feature_digest"]


# Two M3 attacks with one seed on one 200-file tree and no decoy, the second
# 30 s after the first: at 400 files/s the first has written every note path
# before its High, and they are the second's note paths too (ROADMAP 3.5).
_REINFECTION = mix([ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=400), seed=5,
                                 tree=TreeSpec(depth=2, fanout=3, files=200), start_us=start_us)
                    for start_us in (0, 30_000_000)], pids=(101, 202))


@settings(max_examples=25, deadline=None)
@given(_mixes(max_scenarios=4))
@example(_REINFECTION)
def test_a_pids_alerts_depend_on_its_own_events_alone(trained_forest, gene_pool, m):
    alerts = _engine_replay(m.events, m.registry, trained_forest, pool=gene_pool, notes=m.notes).alerts
    for pid in m.truth:
        events = [ev for ev in m.events if ev.pid == pid]
        alone = _engine_replay(events, m.registry, trained_forest, pool=gene_pool, notes=m.notes).alerts
        assert [a.to_json_line() for a in alone] == [a.to_json_line() for a in alerts if a.pid == pid]


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
