"""The classifier row: the expert features and the behavior graph against the recount and edge oracles,
identities, sentinels, worked examples and the hashed embedding."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomwatch import features, pipeline
from ransomwatch.events import FileEvent, Operation
from ransomwatch.features import FEATURE_NAMES, BadDim, Mode, WindowFold, build_graph, encode, extract_features
from ransomwatch.simulator import (
    BenignProfile, BenignSpec, RansomwareSpec, ScenarioSpec, TreeSpec, first_dir_decoy, generate, mix,
    scenario_windows,
)

from oracles import file_event, random_events, ref_edges, ref_encode, ref_features, ref_pairs, window_of


def test_extract_features_matches_recount_oracle():
    rng = random.Random(77)
    for _ in range(1000):
        events = random_events(rng, rng.randint(0, 60))
        got = extract_features(window_of(events)).tolist()
        assert got == ref_features(events)


def _named(window):
    return dict(zip(FEATURE_NAMES, extract_features(window).tolist()))


def test_empty_window():
    row = extract_features(window_of([]))
    assert row.dtype == np.float64 and row.shape == (12,) == (len(FEATURE_NAMES),)
    vec = _named(window_of([]))
    assert vec["n_create"] == vec["n_delete"] == vec["n_renamed"] == 0
    assert vec["rtype"] == vec["rtype_change"] == vec["r_file"] == 0.0
    assert (vec["type_unchanged"], vec["type_grown"], vec["type_shrunk"], vec["type_churn"]) == (1.0, 0.0, 0.0, 0.0)


def test_ransom_note_spread_example():
    events = [
        file_event(Operation.CREATE, f"C:/u/folder{i}/HOW_TO_DECRYPT.txt", time=i) for i in range(5)
    ]
    vec = _named(window_of(events))
    assert vec["max_n_file"] == 5 and vec["n_folder"] == 5 and vec["r_file"] == 1.0


def test_benign_installer_same_folder_example():
    events = [file_event(Operation.CREATE, "C:/Program Files/app/setup.log", time=i) for i in range(5)]
    vec = _named(window_of(events))
    assert vec["max_n_file"] == 5 and vec["n_folder"] == 1 and vec["r_file"] == 5.0


def test_duplication_invariance_of_type_features():
    rng = random.Random(5)
    for _ in range(200):
        events = random_events(rng, rng.randint(1, 30))
        doubled = [e for ev in events for e in (ev, ev)]
        # keep times non-decreasing after duplication
        doubled = [
            FileEvent(i, e.pid, e.pid_name, e.operation, e.file_name, e.file_type, e.old_file_name)
            for i, e in enumerate(doubled)
        ]
        a = _named(window_of(events))
        b = _named(window_of(doubled))
        for name in ("type_unchanged", "type_grown", "type_shrunk", "type_churn", "rtype"):
            assert a[name] == b[name]


def test_one_folder_written_with_both_separators_is_two_folders():
    events = [file_event(Operation.CREATE, "C:/u/x.txt"), file_event(Operation.CREATE, "C:\\u\\x.txt", time=1)]
    vec = _named(window_of(events))
    assert vec["max_n_file"] == 2 and vec["n_folder"] == 2 and vec["r_file"] == 1.0


def test_rtype_sentinels():
    # no before-set: first event is a Create
    assert _named(window_of([file_event(Operation.CREATE, "C:/u/a.txt")]))["rtype"] == 0.0
    # deletes but no creates: rtype_change falls back to deleted-type count
    events = [file_event(Operation.DELETE, "C:/u/a.txt"), file_event(Operation.DELETE, "C:/u/b.pdf", time=1)]
    assert _named(window_of(events))["rtype_change"] == 2.0


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
        assert vec.tolist() == ref_features(window.events)
        windows.append(window_of(window.events, window.trigger.pid))  # the engine's window grows after the call
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


# Paths on which the fold's one split must agree with the recount's: no
# separator, a separator first, mixed separators, an empty name and a bare
# drive. "x.txt" and "/x.txt" share a folder; "C:/u/x.txt" and "C:\u\x.txt"
# do not, because a folder is its directory string as written.
_SPLIT_PATHS = [
    "x.txt", "/x.txt", "/x", "\\x", "a/b\\c.docx", "dir/", "C:", "C:/u/x.txt", "C:\\u\\x.txt", "D:\\v\\x.txt", "a/b/x",
]


@st.composite
def _feature_events(draw):
    ops = draw(st.lists(st.sampled_from(list(Operation)), max_size=40))
    events = []
    for time, op in enumerate(ops):
        path = draw(st.sampled_from(_SPLIT_PATHS))
        old = draw(st.one_of(st.none(), st.sampled_from(_SPLIT_PATHS))) if op is Operation.RENAME else None
        events.append(file_event(op, path, time=time, old=old))
    return events


@settings(max_examples=300, deadline=None)
@given(_feature_events())
def test_extract_features_matches_the_reference_on_split_edge_paths(events):
    window = window_of(events)
    assert extract_features(window).tolist() == ref_features(events)


def test_extract_features_matches_the_reference_on_every_pair_of_split_edge_events():
    singles = [
        (op, path, old)
        for op in Operation
        for path in _SPLIT_PATHS
        for old in ((None, *_SPLIT_PATHS) if op is Operation.RENAME else (None,))
    ]
    for first in singles:
        for second in singles:
            window = window_of([file_event(first[0], first[1], 0, old=first[2]),
                                file_event(second[0], second[1], 1, old=second[2])])
            assert extract_features(window).tolist() == ref_features(window.events), (first, second)


# Paths for the graph half: a note, hash and word stem, a rare extension,
# a deep directory, a drive root and split edge cases of both separators.
_FOLD_PATHS = _SPLIT_PATHS + [
    "C:/u/a.txt", "C:/u/deep/dir/b.docx", "D:\\x\\HOW_TO_PAY.txt", "C:/u/8f2c9a1db4.bin", "x.k3xq7",
    "C:/a/b/c/d/e/f/g/h/x.txt", "/readme.md", "\\8f2c9a1db4e7",
]


@st.composite
def _split_fold_events(draw):
    """Events over _FOLD_PATHS, and sorted points at which to fold them in steps."""
    events = []
    for time, op in enumerate(draw(st.lists(st.sampled_from(list(Operation)), max_size=60))):
        path = draw(st.sampled_from(_FOLD_PATHS))
        old = draw(st.one_of(st.none(), st.sampled_from(_FOLD_PATHS))) if op is Operation.RENAME else None
        events.append(file_event(op, path, time=time, old=old))
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
        window = window_of(events[:cut])
        assert extract_features(window, steps).tobytes() == extract_features(window).tobytes()
        assert list(build_graph(window, steps).items()) == list(build_graph(window).items())
        assert steps.n == cut
    assert steps.row().tobytes() == once.row().tobytes()
    assert once.row().tolist() == ref_features(events)
    assert list(steps.edges().items()) == list(once.edges().items())
    assert list(once.edges().items()) == list(ref_edges(events).items())
    # each (op, label triple) is counted in first-event order, with the labels event_params gives
    assert list(steps.pairs.items()) == list(once.pairs.items()) == list(ref_pairs(events).items())


def test_a_fold_of_more_events_than_its_window_is_refused():
    events = [file_event(Operation.WRITE, "C:/a/x.txt", time=i) for i in range(3)]
    fold = WindowFold()
    row = pipeline.featurize(window_of(events), 64, 7, fold)
    with pytest.raises(ValueError, match="^a fold of 3 events for a window of 2 events$"):
        extract_features(window_of(events[:2]), fold)
    with pytest.raises(ValueError, match="^a fold of 3 events for a window of 2 events$"):
        build_graph(window_of(events[:2]), fold)
    assert fold.n == 3 and pipeline.featurize(window_of(events), 64, 7, fold).tobytes() == row.tobytes()


# --- the behavior graph and its hashed embedding ---------------------------

def test_single_event_graph_shape():
    edges = build_graph(window_of([file_event(Operation.CREATE, "C:/a/b/c/x.txt")]))
    assert edges == {("Create", "ext:txt"): 1, ("Create", "depth:3"): 1, ("Create", "name:word"): 1}


def test_empty_window_graph_and_embedding():
    edges = build_graph(window_of([]))
    assert edges == {}
    emb = encode(edges, 16)
    assert emb.dtype == np.float64 and emb.tolist() == [0.0] * 16


def test_edges_match_brute_force_enumeration():
    rng = random.Random(9)
    paths = ["C:/u/a.txt", "C:/u/deep/dir/b.docx", "D:/x/HOW_TO_PAY.txt", "C:/u/8f2c9a1db4.bin"]
    ops = list(Operation)
    events = [file_event(rng.choice(ops), rng.choice(paths), time=i) for i in range(300)]
    edges = build_graph(window_of(events))
    assert list(edges.items()) == list(ref_edges(events).items())
    assert {op for op, _ in edges} == {ev.operation.value for ev in events}


def test_bipartite_by_construction():
    events = [file_event(op, "C:/a/x.txt", time=i) for i, op in enumerate(Operation)]
    edges = build_graph(window_of(events))
    ops = {op for op, _ in edges}
    params = {param for _, param in edges}
    assert ops == {op.value for op in Operation}
    assert all(param.startswith(("ext:", "depth:", "name:")) for param in params)
    assert ops.isdisjoint(params)


def test_encode_deterministic_and_order_invariant():
    edges = {("Create", "ext:txt"): 3, ("Write", "depth:2"): 1, ("Delete", "name:word"): 7}
    reordered = dict(reversed(list(edges.items())))
    e1, e2 = encode(edges, 64), encode(reordered, 64)
    assert np.array_equal(e1, e2)
    assert np.array_equal(e1, encode(edges, 64))


def test_one_edge_difference_touches_at_most_two_buckets():
    edges = {("Create", "ext:txt"): 2, ("Write", "depth:1"): 5}
    bigger = dict(edges)
    bigger[("Smash", "ext:#rare")] = 1
    a, b = encode(edges, 64), encode(bigger, 64)
    assert int((a != b).sum()) <= 2


def test_memoized_edge_hash_gives_bit_identical_embeddings():
    rng = random.Random(17)
    ops = [op.value for op in Operation]
    params = list(features._EXT_LABELS.values()) + list(features._DEPTH_LABELS)
    params += list(features._NAME_LABELS.values()) + ["ext:#rare", "ext:", "name:\u00e9t\u00e9", "x|y", "\u6587"]
    widths_and_seeds = [(rng.choice((8, 64, 256, 4096)), rng.randrange(2**64)) for _ in range(12)]
    widths_and_seeds += [(64, features.DEFAULT_HASH_SEED), (64, 0), (8, 2**64 - 1)]
    graphs = []
    for dims, seed in widths_and_seeds:  # a run of graphs per (dims, seed), so that later ones read the memo
        for _ in range(15):
            edges = {(rng.choice(ops), rng.choice(params) if rng.random() < 0.8 else f"ext:q{rng.randrange(10**6)}"):
                     rng.randrange(1, 1000) for _ in range(rng.randrange(0, 60))}
            graphs.append((edges, dims, seed))
    expected = [ref_encode(*args).tobytes() for args in graphs]
    cold = []
    for args in graphs:
        features._BUCKETS_BY_WIDTH_AND_SEED.clear()
        cold.append(encode(*args).tobytes())
    assert cold == expected
    assert [encode(*args).tobytes() for args in graphs + graphs] == expected + expected
    shuffled = rng.sample(range(len(graphs)), len(graphs))  # the memo changes (dims, seed) at nearly every call
    assert [encode(*graphs[i]).tobytes() for i in shuffled] == [expected[i] for i in shuffled]
    (held,) = features._BUCKETS_BY_WIDTH_AND_SEED
    assert held == graphs[shuffled[-1]][1:]


def test_the_edge_bucket_memo_stays_within_its_bound():
    edges = [("Write", f"ext:q{i}") for i in range(10_000)]
    features._BUCKETS_BY_WIDTH_AND_SEED.clear()
    largest = 0
    for start in range(0, len(edges), 512):  # eight graphs fill the memo, the ninth's first miss clears it
        graph = dict.fromkeys(edges[start : start + 512], 3)
        assert encode(graph, 64, 5).tobytes() == ref_encode(graph, 64, 5).tobytes()
        largest = max(largest, len(features._BUCKETS_BY_WIDTH_AND_SEED[(64, 5)]))
    whole = dict.fromkeys(edges, 1)
    assert encode(whole, 64, 5).tobytes() == ref_encode(whole, 64, 5).tobytes()
    largest = max(largest, len(features._BUCKETS_BY_WIDTH_AND_SEED[(64, 5)]))
    assert largest == features._BUCKET_MEMO_SIZE == 4096


def test_encode_rejects_bad_dims():
    for dims in (0, 4, 7, 12, 100):
        with pytest.raises(BadDim):
            encode({}, dims)
    encode({}, 8)  # smallest legal width


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
def test_encode_refuses_a_seed_outside_64_bits_in_one_line(seed):
    for edges in ({}, {("Create", "ext:txt"): 1}):
        with pytest.raises(ValueError, match=rf"^hash_seed must be in \[0, 2\*\*64\), got {seed}$"):
            encode(edges, 64, seed)
    encode({("Create", "ext:txt"): 1}, 64, 2**64 - 1)  # the largest seed


def test_norm_capped_at_sqrt_dims():
    edges = {("Create", f"ext:{i}"): 10_000 for i in range(500)}
    emb = encode(edges, 16)
    assert np.linalg.norm(emb) <= math.sqrt(16) + 1e-9


def test_embedding_nearest_neighbor_beats_chance():
    windows = []
    labels = []
    for i in range(12):
        r_spec = ScenarioSpec(
            kind=RansomwareSpec(mode=list(Mode)[i % 6], files_per_second=60),
            seed=300 + i, tree=TreeSpec(depth=2, fanout=2, files=50),
        )
        b_spec = ScenarioSpec(
            kind=BenignSpec(profile=list(BenignProfile)[i % 5]),
            seed=400 + i, tree=TreeSpec(depth=2, fanout=2, files=50),
        )
        for spec, label in ((r_spec, 1), (b_spec, 0)):
            for window in scenario_windows(generate(spec))[:1]:
                windows.append(window)
                labels.append(label)
    vectors = np.stack([encode(build_graph(w), 64) for w in windows])
    correct = 0
    for i in range(len(windows)):
        dists = np.linalg.norm(vectors - vectors[i], axis=1)
        dists[i] = np.inf
        correct += labels[int(np.argmin(dists))] == labels[i]
    assert correct / len(windows) > 0.5
