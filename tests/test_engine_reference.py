"""The engine against a batch reference: the same decisions across pids, checked on generated traces.

The reference decides every open window at each of its slide boundaries as
soon as the stream's time reaches it, whichever pid's event moves the time,
and scores each window from scratch. It is the event-time contract, written
for plainness rather than speed (QuickCheck-style differential testing,
Claessen and Hughes, ICFP 2000).
"""
from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomwatch import pipeline
from ransomwatch.decoys import check_event
from ransomwatch.events import Alert, Level, ProcessWindow, Response, ThreatLevel
from ransomwatch.features import Mode
from ransomwatch.simulator import BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, generate

from test_pipeline import _decoy_in_first_dir, _mode_mix, _registry_for


def reference_replay(events, decoys, forest, config=pipeline.PipelineConfig()):
    """Alerts and threat levels of a trace replayed in event time, with decoy triggers only."""
    stream = sorted(events, key=lambda ev: ev.time)
    alerts, threat, terminated = [], {}, set()
    windows = {}  # pid -> [trigger, pid_name, index of the trigger event, slides done]

    def next_boundary(pid):
        trigger, _, _, slides = windows[pid]
        return trigger.time + (slides + 1) * config.slide_us

    def decide(pid, boundary, final):
        trigger, pid_name, start, slides = windows[pid]
        evs = tuple(ev for ev in stream[start:] if ev.pid == pid and ev.time < boundary)
        row = pipeline.featurize(ProcessWindow(pid, pid_name, trigger.time, boundary, evs),
                                 forest.dims, forest.hash_seed)
        prob = forest.predict_row(row)
        evidence = (trigger.detail, f"trigger_time_us={trigger.time}")
        if prob >= config.decision_threshold:
            threat[pid] = Level.HIGH
            terminated.add(pid)
            digest = hashlib.sha256(row.tobytes()).hexdigest()[:12]
            alerts.append(Alert(boundary, pid, pid_name, ThreatLevel(Level.HIGH, trigger.kind, prob),
                                evidence + (f"classifier_p={prob:.4f}", f"feature_digest={digest}"),
                                Response.TERMINATE_SIMULATED))
        elif final or slides + 1 == config.n_slides:
            score = min(1.0, round(trigger.score, 3))
            alerts.append(Alert(trigger.time + config.window_total_us, pid, pid_name,
                                ThreatLevel(Level.LOW, trigger.kind, score), evidence, Response.TRACK_ONLY))
        else:
            windows[pid][3] += 1
            return
        del windows[pid]

    for i, ev in enumerate(stream):
        while windows:
            boundary, pid = min((next_boundary(pid), pid) for pid in windows)
            if boundary > ev.time:
                break
            decide(pid, boundary, False)
        if ev.pid in terminated or ev.pid in windows:
            continue
        trigger = check_event(ev, decoys)
        if trigger is not None:
            windows[ev.pid] = [trigger, ev.pid_name, i, 0]
            threat.setdefault(ev.pid, Level.LOW)
    for pid in sorted(windows, key=lambda pid: (next_boundary(pid), pid)):
        decide(pid, next_boundary(pid), True)
    return alerts, threat


def _engine_replay(events, decoys, forest, config=pipeline.PipelineConfig()):
    engine = pipeline.Engine(_registry_for(decoys), None, forest, config)
    for ev in sorted(events, key=lambda ev: ev.time):
        engine.process(ev)
    engine.finish()
    return engine


def _assert_engine_matches_reference(events, decoys, forest, config=pipeline.PipelineConfig()):
    engine = _engine_replay(events, decoys, forest, config)
    alerts, threat = reference_replay(events, decoys, forest, config)
    assert engine.alerts == alerts  # in the order they are raised
    assert engine.threat_by_pid == threat
    return alerts


_MODES = [m for m in Mode if m is not Mode.NONE]


@st.composite
def _scenarios(draw):
    """2-6 simulator scenarios, each with its own root, decoy, pid and start offset."""
    events, decoys = [], []
    for i in range(draw(st.integers(min_value=2, max_value=6))):
        seed = draw(st.integers(min_value=0, max_value=10_000))
        tree = TreeSpec(depth=2, fanout=2, files=60, root=f"C:/Users/u{i}")
        decoy = _decoy_in_first_dir(seed, tree)
        if draw(st.booleans()):
            kind = RansomwareSpec(mode=draw(st.sampled_from(_MODES)),
                                  files_per_second=draw(st.integers(min_value=20, max_value=800)))
        else:
            kind = BenignSpec(profile=draw(st.sampled_from(list(BenignProfile))), touch_decoy=True)
        start_us = draw(st.integers(min_value=0, max_value=6_000_000))
        result = generate(ScenarioSpec(kind=kind, seed=seed, tree=tree, decoy_paths=decoy, start_us=start_us))
        events.extend(replace(ev, pid=i + 1) for ev in result.events)
        decoys.extend(decoy)
    return events, decoys


# The default config, and others whose windows have more or fewer slides and
# whose threshold a later slide may be the first to reach.
_CONFIGS = st.builds(
    lambda slide_us, n_slides, threshold: pipeline.PipelineConfig(n_slides * slide_us, slide_us, threshold),
    st.sampled_from((1_000_000, 500_000)), st.integers(min_value=1, max_value=4),
    st.sampled_from((0.5, 0.9, 0.99)),
) | st.just(pipeline.PipelineConfig())


@settings(max_examples=50, deadline=None)
@given(_scenarios(), _CONFIGS)
def test_engine_decides_as_the_reference(trained_forest, trace, config):
    events, decoys = trace
    _assert_engine_matches_reference(events, decoys, trained_forest, config)


def test_engine_decides_as_the_reference_on_the_mode_mix(trained_forest):
    results, decoys = _mode_mix()
    events = [ev for result in results for ev in result.events]
    alerts = _assert_engine_matches_reference(events, decoys, trained_forest)
    levels = {a.threat.level for a in alerts}
    assert {Level.HIGH, Level.LOW} <= levels  # not a vacuous match


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: termination is permanent and keyed by bare pid")
def test_a_reused_pid_is_detected_again(trained_forest):
    events, decoys = [], []
    for i, name in enumerate(("first.exe", "second.exe")):
        tree = TreeSpec(depth=2, fanout=2, files=60, root=f"C:/Users/u{i}")
        decoy = _decoy_in_first_dir(70 + i, tree)
        result = generate(ScenarioSpec(kind=RansomwareSpec(mode=Mode.M3, files_per_second=80), seed=70 + i,
                                       tree=tree, decoy_paths=decoy, start_us=12_000_000 * i))
        events.extend(replace(ev, pid=7, pid_name=name) for ev in result.events)
        decoys.extend(decoy)
    engine = _engine_replay(events, decoys, trained_forest)
    highs = [(a.pid, a.pid_name) for a in engine.alerts if a.threat.level is Level.HIGH]
    assert highs == [(7, "first.exe"), (7, "second.exe")]
    assert engine.metrics.triggers == 2
