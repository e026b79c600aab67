"""Behavior graph construction and hashed embedding."""
from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from ransomwatch import features
from ransomwatch.events import FileEvent, Operation, ProcessWindow, extension_of
from ransomwatch.features import (
    BadDim,
    build_graph,
    encode,
    name_pattern_class,
)
from ransomwatch.simulator import (
    BenignProfile,
    BenignSpec,
    Mode,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    generate,
    scenario_windows,
)

from oracles import event_params
from test_labels import fold_labels


def _window(events, pid=4):
    if not events:
        return ProcessWindow(pid, "p.exe", 0, 1, ())
    end = max(ev.time for ev in events) + 1
    return ProcessWindow(pid, "p.exe", 0, end, tuple(events))


def _ev(op, path, time=0, pid=4, old=None):
    return FileEvent(time, pid, "p.exe", op, path, extension_of(path), old)


def test_single_event_graph_shape():
    edges = build_graph(_window([_ev(Operation.CREATE, "C:/a/b/c/x.txt")]))
    assert edges == {("Create", "ext:txt"): 1, ("Create", "depth:3"): 1, ("Create", "name:word"): 1}


def test_empty_window_graph_and_embedding():
    edges = build_graph(_window([]))
    assert edges == {}
    emb = encode(edges, 16)
    assert emb.dtype == np.float64 and emb.tolist() == [0.0] * 16


def test_edges_match_brute_force_enumeration():
    rng = random.Random(9)
    paths = ["C:/u/a.txt", "C:/u/deep/dir/b.docx", "D:/x/HOW_TO_PAY.txt", "C:/u/8f2c9a1db4.bin"]
    ops = list(Operation)
    events = [_ev(rng.choice(ops), rng.choice(paths), time=i) for i in range(300)]
    edges = build_graph(_window(events))
    brute = Counter()
    for ev in events:
        for param in event_params(ev.file_name, ev.file_type):
            brute[(ev.operation.value, param)] += 1
    assert edges == dict(brute)
    assert {op for op, _ in edges} == {ev.operation.value for ev in events}


def test_bipartite_by_construction():
    events = [_ev(op, "C:/a/x.txt", time=i) for i, op in enumerate(Operation)]
    edges = build_graph(_window(events))
    ops = {op for op, _ in edges}
    params = {param for _, param in edges}
    assert ops == {op.value for op in Operation}
    assert all(param.startswith(("ext:", "depth:", "name:")) for param in params)
    assert ops.isdisjoint(params)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("C:/a/HOW_TO_DECRYPT.txt", "note"),
        ("C:/a/readme.md", "note"),
        ("C:/a/8f2c9a1d4b7e.dat", "hash"),
        ("C:/a/x7k2q9w8e1r4.pdf", "hash"),
        ("C:/a/budget_report.docx", "word"),
        ("C:/a/report-final.txt", "word"),
        ("C:/a/a1!b.txt", "other"),
    ],
)
def test_name_pattern_classes(name, expected):
    assert name_pattern_class(name) == expected


@pytest.mark.parametrize(
    "path,bucket",
    [
        ("x.txt", 0),
        ("C:/x.txt", 0),
        ("C:/a/x.txt", 1),
        ("C:/a/b/c/d/e/f/g/h/x.txt", 7),
        ("C:\\a\\b\\x.txt", 2),
    ],
)
def test_depth_buckets(path, bucket):
    assert fold_labels(path, extension_of(path))[1] == f"depth:{bucket}"


def test_rare_extension_collapses():
    ext_a = fold_labels("C:/a/x.docx.k3xq7", "k3xq7")[0]
    ext_b = fold_labels("C:/a/y.pdf.zz91m", "zz91m")[0]
    assert ext_a == ext_b == "ext:#rare"
    assert fold_labels("C:/a/x.txt", "txt")[0] == "ext:txt"


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


def test_memoized_edge_hash_gives_bit_identical_embeddings(monkeypatch):
    rng = random.Random(17)
    ops = [op.value for op in Operation]
    params = list(features._EXT_LABELS.values()) + list(features._DEPTH_LABELS)
    params += list(features._NAME_LABELS.values()) + ["ext:#rare", "ext:", "name:\u00e9t\u00e9", "x|y", "\u6587"]
    graphs = []
    for _ in range(200):
        edges = {(rng.choice(ops), rng.choice(params) if rng.random() < 0.8 else f"ext:q{rng.randrange(10**6)}"):
                 rng.randrange(1, 1000) for _ in range(rng.randrange(0, 60))}
        graphs.append((edges, rng.choice((8, 64, 256)), rng.randrange(2**64)))
    cached = [encode(*args).tobytes() for args in graphs + graphs]  # the second pass hits the memo
    assert features._edge_hash.cache_info().currsize <= features._edge_hash.cache_info().maxsize == 4096
    monkeypatch.setattr(features, "_edge_hash", features._edge_hash.__wrapped__)
    assert cached == [encode(*args).tobytes() for args in graphs + graphs]


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
