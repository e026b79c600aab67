"""Expert features: recount oracle, identities, sentinels and worked examples."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomwatch import pipeline
from ransomwatch.events import FileEvent, Operation, ProcessWindow, basename_of, dirname_of, extension_of
from ransomwatch.features import FEATURE_NAMES, Mode, WindowFold, build_graph, extract_features
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, first_dir_decoy, mix,
)

from oracles import event_params


def _ev(op, path, time=0, pid=4, old=None):
    return FileEvent(time, pid, "p.exe", op, path, extension_of(path), old)


def _window(events, pid=4):
    if not events:
        return ProcessWindow(pid, "p.exe", 0, 1, ())
    end = max(ev.time for ev in events) + 1
    start = min(ev.time for ev in events)
    return ProcessWindow(pid, "p.exe", min(0, start), end, tuple(events))


# --- independent recount oracle (naive loops, no shared helpers) -------------

def _oracle_ext(path):
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    if "." not in name[1:]:
        return ""
    return name[name.rindex(".") + 1 :].lower()


def _oracle_features(events):
    """Naive recount of every exported dimension, straight from the definitions."""
    n_create = sum(1 for e in events if e.operation is Operation.CREATE)
    n_delete = sum(1 for e in events if e.operation in (Operation.DELETE, Operation.SMASH))
    n_renamed = sum(1 for e in events if e.operation is Operation.RENAME)

    # before set: types read/modified before the first Create/Delete event
    before = set()
    for e in events:
        if e.operation in (Operation.CREATE, Operation.DELETE):
            break
        if e.operation is Operation.RENAME:
            before.add(_oracle_ext(e.old_file_name) if e.old_file_name else "")
        else:
            before.add(e.file_type)

    # after set: shadow-replay existence of touched paths
    exists = {}
    removed = set()
    for e in events:
        op = e.operation
        if op is Operation.CREATE:
            exists[e.file_name] = e.file_type
            removed.discard(e.file_name)
        elif op in (Operation.DELETE, Operation.SMASH):
            exists.pop(e.file_name, None)
            removed.add(e.file_name)
        elif op is Operation.RENAME:
            if e.old_file_name:
                exists.pop(e.old_file_name, None)
                removed.add(e.old_file_name)
            exists[e.file_name] = e.file_type
            removed.discard(e.file_name)
        elif op in (Operation.WRITE, Operation.OVERWRITE):
            exists[e.file_name] = e.file_type
            removed.discard(e.file_name)
        elif op is Operation.READ:
            if e.file_name not in exists and e.file_name not in removed:
                exists[e.file_name] = e.file_type
    after = set(exists.values())

    # one-hot index in FEATURE_NAMES order: unchanged, grown, shrunk, churn
    ntype_change = len(after) - len(before)
    if ntype_change > 0:
        shape = 1
    elif ntype_change < 0:
        shape = 2
    elif before != after:
        shape = 3
    else:
        shape = 0

    rtype = len(after) / len(before) if before else 0.0
    del_types = {e.file_type for e in events if e.operation in (Operation.DELETE, Operation.SMASH)}
    create_types = {e.file_type for e in events if e.operation is Operation.CREATE}
    rtype_change = len(del_types) / len(create_types) if create_types else float(len(del_types))

    names = {}
    dirs = {}
    for e in events:
        if e.operation is Operation.CREATE:
            base = e.file_name.replace("\\", "/").rsplit("/", 1)[-1]
            folder = e.file_name.replace("\\", "/").rsplit("/", 1)[0] if "/" in e.file_name.replace("\\", "/") else ""
            names[base] = names.get(base, 0) + 1
            dirs.setdefault(base, set()).add(folder)
    max_n_file = max(names.values()) if names else 0
    n_folder = max((len(dirs[b]) for b, c in names.items() if c == max_n_file), default=0)
    r_file = max_n_file / n_folder if n_folder else 0.0

    onehot = [0.0] * 4
    onehot[shape] = 1.0
    return [
        float(n_create), float(n_delete), float(n_renamed), *onehot,
        rtype, rtype_change, float(max_n_file), float(n_folder), r_file,
    ]


_PATH_POOL = [
    "C:/u/docs/report.docx", "C:/u/docs/budget.xlsx", "C:/u/pics/cat.jpg",
    "C:/u/docs/report.docx.locked", "C:/u/docs/NOTE.txt", "C:/u/pics/dog.png",
    "C:/u/tmp/scratch", "D:/arch/old.pdf", "C:/u/docs/sub/deep.txt",
]


def _random_events(rng, size):
    events = []
    for i in range(size):
        op = rng.choice(list(Operation))
        path = rng.choice(_PATH_POOL)
        old = rng.choice(_PATH_POOL) if op is Operation.RENAME else None
        events.append(_ev(op, path, time=i, old=old))
    return events


def test_extract_features_matches_recount_oracle():
    rng = random.Random(77)
    for _ in range(1000):
        events = _random_events(rng, rng.randint(0, 60))
        got = extract_features(_window(events)).tolist()
        assert got == _oracle_features(events)


def _named(window):
    return dict(zip(FEATURE_NAMES, extract_features(window).tolist()))


def test_empty_window():
    row = extract_features(_window([]))
    assert row.dtype == np.float64 and row.shape == (12,) == (len(FEATURE_NAMES),)
    vec = _named(_window([]))
    assert vec["n_create"] == vec["n_delete"] == vec["n_renamed"] == 0
    assert vec["rtype"] == vec["rtype_change"] == vec["r_file"] == 0.0
    assert (vec["type_unchanged"], vec["type_grown"], vec["type_shrunk"], vec["type_churn"]) == (1.0, 0.0, 0.0, 0.0)


def test_ransom_note_spread_example():
    events = [
        _ev(Operation.CREATE, f"C:/u/folder{i}/HOW_TO_DECRYPT.txt", time=i) for i in range(5)
    ]
    vec = _named(_window(events))
    assert vec["max_n_file"] == 5 and vec["n_folder"] == 5 and vec["r_file"] == 1.0


def test_benign_installer_same_folder_example():
    events = [_ev(Operation.CREATE, "C:/Program Files/app/setup.log", time=i) for i in range(5)]
    vec = _named(_window(events))
    assert vec["max_n_file"] == 5 and vec["n_folder"] == 1 and vec["r_file"] == 5.0


def test_duplication_invariance_of_type_features():
    rng = random.Random(5)
    for _ in range(200):
        events = _random_events(rng, rng.randint(1, 30))
        doubled = [e for ev in events for e in (ev, ev)]
        # keep times non-decreasing after duplication
        doubled = [
            FileEvent(i, e.pid, e.pid_name, e.operation, e.file_name, e.file_type, e.old_file_name)
            for i, e in enumerate(doubled)
        ]
        a = _named(_window(events))
        b = _named(_window(doubled))
        for name in ("type_unchanged", "type_grown", "type_shrunk", "type_churn", "rtype"):
            assert a[name] == b[name]


def test_rtype_sentinels():
    # no before-set: first event is a Create
    assert _named(_window([_ev(Operation.CREATE, "C:/u/a.txt")]))["rtype"] == 0.0
    # deletes but no creates: rtype_change falls back to deleted-type count
    events = [_ev(Operation.DELETE, "C:/u/a.txt"), _ev(Operation.DELETE, "C:/u/b.pdf", time=1)]
    assert _named(_window(events))["rtype_change"] == 2.0


# --- exactness oracle: the same loop, with no local aliases and no shared split

def _extract_features_before(window):
    """extract_features written with Operation.X reads and basename_of/dirname_of calls."""
    n_create = n_delete = n_renamed = 0
    before_types = set()
    past_first_create_delete = False
    exists = {}
    removed = set()
    del_types = set()
    create_types = set()
    created_name_counts = {}
    created_name_dirs = {}

    for ev in window.events:
        op = ev.operation
        if op is Operation.CREATE or op is Operation.DELETE:
            past_first_create_delete = True
        elif not past_first_create_delete:
            before_types.add(
                (extension_of(ev.old_file_name) if ev.old_file_name else "")
                if op is Operation.RENAME else ev.file_type
            )

        if op is Operation.CREATE:
            n_create += 1
            create_types.add(ev.file_type)
            exists[ev.file_name] = ev.file_type
            removed.discard(ev.file_name)
            name = basename_of(ev.file_name)
            created_name_counts[name] = created_name_counts.get(name, 0) + 1
            created_name_dirs.setdefault(name, set()).add(dirname_of(ev.file_name))
        elif op is Operation.DELETE or op is Operation.SMASH:
            n_delete += 1
            del_types.add(ev.file_type)
            exists.pop(ev.file_name, None)
            removed.add(ev.file_name)
        elif op is Operation.RENAME:
            n_renamed += 1
            if ev.old_file_name:
                exists.pop(ev.old_file_name, None)
                removed.add(ev.old_file_name)
            exists[ev.file_name] = ev.file_type
            removed.discard(ev.file_name)
        elif op is Operation.WRITE or op is Operation.OVERWRITE:
            exists[ev.file_name] = ev.file_type
            removed.discard(ev.file_name)
        else:
            if ev.file_name not in removed and ev.file_name not in exists:
                exists[ev.file_name] = ev.file_type

    after_types = set(exists.values())
    ntype_before = len(before_types)
    ntype_after = len(after_types)
    ntype_change = ntype_after - ntype_before
    onehot = [0.0] * 4  # unchanged, grown, shrunk, churn
    if ntype_change > 0:
        onehot[1] = 1.0
    elif ntype_change < 0:
        onehot[2] = 1.0
    elif before_types != after_types:
        onehot[3] = 1.0
    else:
        onehot[0] = 1.0
    rtype = ntype_after / ntype_before if ntype_before > 0 else 0.0
    n_del_types = len(del_types)
    n_create_types = len(create_types)
    rtype_change = n_del_types / n_create_types if n_create_types > 0 else float(n_del_types)
    if created_name_counts:
        max_n_file = max(created_name_counts.values())
        n_folder = max(
            len(created_name_dirs[name])
            for name, count in created_name_counts.items()
            if count == max_n_file
        )
    else:
        max_n_file = 0
        n_folder = 0
    r_file = max_n_file / n_folder if n_folder > 0 else 0.0
    return [
        float(n_create), float(n_delete), float(n_renamed), *onehot,
        rtype, rtype_change, float(max_n_file), float(n_folder), r_file,
    ]


def test_every_window_of_a_mixed_replay_matches_the_reference(trained_forest, gene_pool, monkeypatch):
    tree = TreeSpec(depth=2, fanout=2, files=60)
    m = mix([ScenarioSpec(kind=RansomwareSpec(mode=mode, files_per_second=50 + 40 * i), seed=120 + i, tree=tree,
                          decoy_paths=(first_dir_decoy(tree, 120 + i),), start_us=100_000 * i)
             for i, mode in enumerate(Mode)]
            + [ScenarioSpec(kind=BenignSpec(profile=BenignProfile.OFFICE, touch_decoy=True), seed=129, tree=tree,
                            decoy_paths=(first_dir_decoy(tree, 129),), start_us=250_000)])
    windows = []

    def checked(window, fold=None):
        vec = extract_features(window, fold=fold)
        assert vec.tolist() == _extract_features_before(window)
        windows.append(_window(window.events, window.trigger.pid))  # the engine's window grows after the call
        return vec

    monkeypatch.setattr(pipeline, "extract_features", checked)
    engine = pipeline.Engine(m.registry, gene_pool, trained_forest,
                             content_provider=pipeline.MappingContentProvider(m.notes))
    for ev in m.events:
        engine.process(ev)
    engine.finish()
    assert len(windows) == engine.metrics.classifier_calls
    assert engine.metrics.windows_opened == len(m.truth)
    assert {window.pid for window in windows} == set(m.truth)
    vectors = [_named(window) for window in windows]
    # creates, renames and a note spread across folders all reached the check
    assert any(v["n_create"] for v in vectors) and any(v["n_renamed"] for v in vectors)
    assert any(v["max_n_file"] > 1 for v in vectors)


# Paths on which the one split must agree with basename_of and dirname_of:
# no separator (cut == -1), a separator first (cut == 0), mixed separators,
# an empty basename and a bare drive. "x.txt" and "/x.txt" share a folder.
_SPLIT_PATHS = ["x.txt", "/x.txt", "/x", "\\x", "a/b\\c.docx", "dir/", "C:", "C:/u/x.txt", "D:\\v\\x.txt", "a/b/x"]


@st.composite
def _feature_events(draw):
    ops = draw(st.lists(st.sampled_from(list(Operation)), max_size=40))
    events = []
    for time, op in enumerate(ops):
        path = draw(st.sampled_from(_SPLIT_PATHS))
        old = draw(st.one_of(st.none(), st.sampled_from(_SPLIT_PATHS))) if op is Operation.RENAME else None
        events.append(_ev(op, path, time=time, old=old))
    return events


@settings(max_examples=300, deadline=None)
@given(_feature_events())
def test_extract_features_matches_the_reference_on_split_edge_paths(events):
    window = _window(events)
    assert extract_features(window).tolist() == _extract_features_before(window)


def test_extract_features_matches_the_reference_on_every_pair_of_split_edge_events():
    singles = [
        (op, path, old)
        for op in Operation
        for path in _SPLIT_PATHS
        for old in ((None, *_SPLIT_PATHS) if op is Operation.RENAME else (None,))
    ]
    for first in singles:
        for second in singles:
            window = _window([_ev(first[0], first[1], 0, old=first[2]), _ev(second[0], second[1], 1, old=second[2])])
            assert extract_features(window).tolist() == _extract_features_before(window), (first, second)


# Paths for the graph half: a note, hash and word stem, a rare extension,
# a deep directory, a drive root and split edge cases of both separators.
_FOLD_PATHS = _SPLIT_PATHS + [
    "C:/u/a.txt", "C:/u/deep/dir/b.docx", "D:\\x\\HOW_TO_PAY.txt", "C:/u/8f2c9a1db4.bin", "x.k3xq7",
    "C:/a/b/c/d/e/f/g/h/x.txt", "/readme.md", "\\8f2c9a1db4e7",
]


def _edges_event_by_event(events):
    edges = {}
    for ev in events:
        for param in event_params(ev.file_name, ev.file_type):
            key = (ev.operation.value, param)
            edges[key] = edges.get(key, 0) + 1
    return edges


@st.composite
def _split_fold_events(draw):
    """Events over _FOLD_PATHS, and sorted points at which to fold them in steps."""
    events = []
    for time, op in enumerate(draw(st.lists(st.sampled_from(list(Operation)), max_size=60))):
        path = draw(st.sampled_from(_FOLD_PATHS))
        old = draw(st.one_of(st.none(), st.sampled_from(_FOLD_PATHS))) if op is Operation.RENAME else None
        events.append(_ev(op, path, time=time, old=old))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(events)), max_size=6)))
    return events, cuts


@settings(max_examples=300, deadline=None)
@given(_split_fold_events())
def test_folding_in_steps_gives_the_row_and_edges_of_one_fold_and_the_oracles(split):
    events, cuts = split
    once = WindowFold()
    once.add(events)
    steps = WindowFold()
    for cut in cuts + [len(events)]:  # a window that grows, read at each step as the engine reads it
        window = _window(events[:cut])
        assert extract_features(window, steps).tobytes() == extract_features(window).tobytes()
        assert list(build_graph(window, steps).items()) == list(build_graph(window).items())
        assert steps.n == cut
    assert steps.row().tobytes() == once.row().tobytes()
    assert once.row().tolist() == _oracle_features(events)
    assert list(steps.edges().items()) == list(once.edges().items())
    assert list(once.edges().items()) == list(_edges_event_by_event(events).items())
    # each (op, label triple) is counted in first-event order, with the labels event_params gives
    pairs = {}
    for ev in events:
        key = (ev.operation.value, *event_params(ev.file_name, ev.file_type))
        pairs[key] = pairs.get(key, 0) + 1
    assert list(steps.pairs.items()) == list(once.pairs.items()) == list(pairs.items())


def test_a_fold_of_more_events_than_its_window_is_refused():
    events = [_ev(Operation.WRITE, "C:/a/x.txt", time=i) for i in range(3)]
    fold = WindowFold()
    row = pipeline.featurize(_window(events), 64, 7, fold)
    with pytest.raises(ValueError, match="^a fold of 3 events for a window of 2 events$"):
        extract_features(_window(events[:2]), fold)
    with pytest.raises(ValueError, match="^a fold of 3 events for a window of 2 events$"):
        build_graph(_window(events[:2]), fold)
    assert fold.n == 3 and pipeline.featurize(_window(events), 64, 7, fold).tobytes() == row.tobytes()
