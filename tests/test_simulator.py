"""Simulator: determinism, mode fidelity, corpora, ground truth."""
from __future__ import annotations

import gc
import hashlib
import json
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ransomwatch.events import MUTATING_OPS, Operation
from ransomwatch.features import FEATURE_NAMES, Mode, extract_features
from ransomwatch.notes import build_pool, similarity, tokenize
from ransomwatch.simulator import (
    MAX_TREE_DIRS,
    BadSpec,
    BenignProfile,
    BenignSpec,
    Corpus,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    build_corpus,
    first_dir_decoy,
    generate,
    make_benign_text,
    make_note_corpus,
    mix,
    scenario_windows,
    spec_from_json,
    spec_from_kind,
    tree_layout,
    write_scenario,
)

ALL_MODES = (Mode.M1, Mode.M2, Mode.M3, Mode.M4, Mode.M5, Mode.M6)


def _ransom_spec(mode, seed, files=40, fps=80.0, **kw):
    return ScenarioSpec(
        kind=RansomwareSpec(mode=mode, files_per_second=fps, **kw),
        seed=seed,
        tree=TreeSpec(depth=2, fanout=2, files=files),
    )


def test_same_seed_identical_bytes(tmp_path):
    spec = _ransom_spec(Mode.M3, seed=77)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_scenario(generate(spec), d1)
    write_scenario(generate(spec), d2)
    for name in ("trace.jsonl", "ground_truth.json", "notes.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _golden_specs():
    """One spec per mode and per benign profile, over the spec fields corpora leave at their defaults."""
    tree = TreeSpec(depth=2, fanout=3, files=36)
    ransom = [
        (Mode.M1, 61, dict(note_every_k_dirs=2), 0),
        (Mode.M2, 62, dict(files_per_second=25.0, avoid_decoys=True), 1),
        (Mode.M3, 63, dict(files_per_second=333.0, note_every_k_dirs=3), 0),
        (Mode.M4, 64, dict(avoid_decoys=True, note_every_k_dirs=2), 2),
        (Mode.M5, 65, dict(files_per_second=37.5), 1),
        (Mode.M6, 66, dict(note_every_k_dirs=3), 0),
    ]
    specs = []
    for i, (mode, seed, kw, n_decoys) in enumerate(ransom):
        dirs = tree_layout(tree, seed).dirs
        decoys = tuple(f"{dirs[2 * k + i % 3]}/~decoy_{k}.docx" for k in range(n_decoys))
        specs.append(ScenarioSpec(RansomwareSpec(mode=mode, **kw), seed, tree, decoys, start_us=i * 1_500_000))
    decoys = ("C:/Users/alice/~$budget.docx", "C:/Users/alice/Documents/~report.xlsx")
    for i, profile in enumerate(BenignProfile):
        touch = profile is not BenignProfile.BACKUP
        specs.append(ScenarioSpec(BenignSpec(profile, touch), 70 + i, tree, decoys[: 1 + i % 2], start_us=i * 700_001))
    return specs


def test_generated_files_match_the_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for i, spec in enumerate(_golden_specs()):
        paths = write_scenario(generate(spec), tmp_path / str(i))
        for name in ("trace", "ground_truth", "notes"):
            digest.update(paths[name].read_bytes())
    assert digest.hexdigest() == "ac6a7c720a1a97d5feaa65c3be1cdb5db69b07c7a8b2e9917b798b163680895d"


def test_different_seeds_differ():
    a = generate(_ransom_spec(Mode.M3, seed=1))
    b = generate(_ransom_spec(Mode.M3, seed=2))
    assert a.events != b.events


# The operation pair each mode's I/O family performs on every file it encrypts.
_FAMILY_OPS = {
    Mode.M1: {Operation.OVERWRITE, Operation.RENAME},
    Mode.M2: {Operation.OVERWRITE, Operation.RENAME},
    Mode.M3: {Operation.CREATE, Operation.DELETE},
    Mode.M4: {Operation.CREATE, Operation.DELETE},
    Mode.M5: {Operation.CREATE, Operation.SMASH},
    Mode.M6: {Operation.CREATE, Operation.SMASH},
}


@pytest.mark.parametrize("mode", ALL_MODES)
def test_mode_ground_truth_agreement(mode):
    for seed in range(5):
        result = generate(_ransom_spec(mode, seed=1000 + seed, files=20))
        truth = result.ground_truth
        assert truth["mode"] == mode.value
        notes = set(truth["note_paths"])
        own = [ev for ev in result.events if ev.pid == truth["pid"] and ev.file_name not in notes]
        assert {ev.operation for ev in own} == _FAMILY_OPS[mode]
        # the encrypted copy is named by a Rename (M1, M2) or a Create (M3-M6)
        suffixes = [
            ev.file_type for ev in own if ev.operation in (Operation.RENAME, Operation.CREATE)
        ]
        assert len(suffixes) == len(truth["files"]) == 20
        uniform = mode in (Mode.M1, Mode.M3, Mode.M5)
        assert len(set(suffixes)) == (1 if uniform else len(suffixes))


def test_trace_realizes_operation_pattern():
    result = generate(_ransom_spec(Mode.M5, seed=3, files=20))
    ops = {ev.operation for ev in result.events}
    assert Operation.SMASH in ops and Operation.CREATE in ops
    assert Operation.DELETE not in ops and Operation.OVERWRITE not in ops


def test_note_drops_and_texts():
    result = generate(_ransom_spec(Mode.M1, seed=5, files=20, note_every_k_dirs=1))
    assert result.notes
    for path, text in result.notes.items():
        assert path in result.ground_truth["note_paths"]
        assert "encrypted" in text.lower() or "locked" in text.lower()
    created = {ev.file_name for ev in result.events if ev.operation is Operation.CREATE}
    assert set(result.notes) <= created


def test_generated_notes_score_against_pool():
    pool = build_pool([tokenize(t) for t in make_note_corpus(100, seed=1)], n=3, top_k=300)
    result = generate(_ransom_spec(Mode.M3, seed=31))
    scores = [similarity(tokenize(text), pool).score for text in result.notes.values()]
    assert max(scores) >= 0.21


def test_benign_indexer_only_reads():
    spec = ScenarioSpec(
        kind=BenignSpec(profile=BenignProfile.INDEXER),
        seed=8,
        tree=TreeSpec(depth=2, fanout=2, files=50),
        decoy_paths=("C:/Users/alice/Documents/budget_99.docx",),
    )
    result = generate(spec)
    assert all(ev.operation is Operation.READ for ev in result.events)
    assert not [ev for ev in result.events if ev.operation in MUTATING_OPS]


def test_avoid_decoys_never_touches_them():
    layout = tree_layout(TreeSpec(depth=2, fanout=2, files=40), seed=55)
    decoys = (f"{layout.dirs[0]}/quarterly_report.docx",)
    spec = ScenarioSpec(
        kind=RansomwareSpec(mode=Mode.M4, files_per_second=50, avoid_decoys=True),
        seed=55,
        tree=TreeSpec(depth=2, fanout=2, files=40),
        decoy_paths=decoys,
    )
    result = generate(spec)
    touched = {ev.file_name for ev in result.events} | {
        ev.old_file_name for ev in result.events if ev.old_file_name
    }
    assert not (set(decoys) & touched)
    assert result.ground_truth["decoys_touched"] == []


def test_decoys_encrypted_when_not_avoiding():
    layout = tree_layout(TreeSpec(depth=2, fanout=2, files=40), seed=55)
    decoys = (f"{layout.dirs[0]}/quarterly_report.docx",)
    spec = ScenarioSpec(
        kind=RansomwareSpec(mode=Mode.M4, files_per_second=50),
        seed=55,
        tree=TreeSpec(depth=2, fanout=2, files=40),
        decoy_paths=decoys,
    )
    result = generate(spec)
    assert result.ground_truth["decoys_touched"] == list(decoys)


def test_ground_truth_consistency():
    result = generate(_ransom_spec(Mode.M2, seed=13, files=25))
    truth = result.ground_truth
    assert truth["event_count"] == len(result.events)
    times = [f["encrypted_at"] for f in truth["files"]]
    assert times == sorted(times)
    assert len(truth["files"]) == 25
    event_times = [ev.time for ev in result.events]
    assert event_times == sorted(event_times)


def test_mix_merges_scenarios_in_time_order_under_their_pids():
    tree = TreeSpec(depth=2, fanout=2, files=40)
    ransom = ScenarioSpec(RansomwareSpec(Mode.M1, 80.0), seed=1, tree=tree, decoy_paths=(first_dir_decoy(tree, 1),))
    benign = ScenarioSpec(BenignSpec(touch_decoy=True), seed=2, tree=TreeSpec(files=30),
                          decoy_paths=("C:/Users/alice/Documents/family_budget.docx",))
    other = _ransom_spec(Mode.M3, seed=3)
    # the first spec twice: its events tie in time, and its decoy and notes are shared
    specs, pids = [ransom, benign, ransom, other], (7, 8, 9, 10)
    results = [generate(spec) for spec in specs]
    m = mix(specs, pids)
    keyed = [(ev.time, k, replace(ev, pid=pid)) for k, (pid, r) in enumerate(zip(pids, results)) for ev in r.events]
    assert m.events == tuple(ev for _, _, ev in sorted(keyed, key=lambda item: item[:2]))
    assert any(a.time == b.time and a.pid != b.pid for a, b in zip(m.events, m.events[1:]))
    assert m.registry.paths() == sorted(ransom.decoy_paths + benign.decoy_paths)
    assert results[0].notes and results[3].notes
    assert m.notes == {**results[0].notes, **results[3].notes}
    assert m.truth == {pid: {**r.ground_truth, "pid": pid} for pid, r in zip(pids, results)}
    assert list(m.truth) == list(pids)

    drawn = mix([ransom, other])  # the simulator's pids
    assert list(drawn.truth) == [results[0].ground_truth["pid"], results[3].ground_truth["pid"]]
    assert {ev.pid for ev in drawn.events} == set(drawn.truth)
    for bad in (dict(specs=[ransom, ransom]), dict(specs=[ransom, other], pids=(7, 7)),
                dict(specs=[ransom, other], pids=(7,))):
        with pytest.raises(BadSpec):
            mix(**bad)


def test_scenario_windows_prefix_growth():
    result = generate(_ransom_spec(Mode.M3, seed=4, files=60, fps=30))
    windows = scenario_windows(result)
    assert windows
    by_anchor: dict[int, list[int]] = {}
    for w in windows:
        by_anchor.setdefault(w.window_start, []).append(len(w.events))
    assert 1 <= len(by_anchor) <= 2  # first-event anchor plus optional mid-trace one
    for sizes in by_anchor.values():
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_build_corpus_shape_and_balance():
    corpus = build_corpus(30, 36, seed=5)
    assert corpus.X.shape == (66, 12 + corpus.dims)
    assert int(corpus.y.sum()) == 30
    modes = {m["mode"] for m in corpus.meta if m["label"] == 1}
    assert modes == {m.value for m in ALL_MODES}
    profiles = {m["profile"] for m in corpus.meta if m["label"] == 0}
    assert "zipper" not in profiles


def test_build_corpus_zipper_flag():
    corpus = build_corpus(6, 30, seed=5, include_zipper=True)
    assert "zipper" in {m["profile"] for m in corpus.meta if m["label"] == 0}


def test_corpus_save_load_round_trip(tmp_path):
    corpus = build_corpus(8, 8, seed=2)
    corpus.save(tmp_path)
    loaded = Corpus.load(tmp_path)
    assert (loaded.X == corpus.X).all() and (loaded.y == corpus.y).all()
    assert loaded.dims == corpus.dims and loaded.hash_seed == corpus.hash_seed


@pytest.mark.parametrize("change,expected", [
    ({"dims": 65536}, "dims must be at most 32768, got 65536"),
    ({"hash_seed": -1}, "hash_seed must be in [0, 2**64), got -1"),
    ({"hash_seed": 2**64}, f"hash_seed must be in [0, 2**64), got {2**64}"),
    ({"meta": ({},) * 3}, '"windows" must hold one object for each of the 4 rows, got 3'),
], ids=["dims-65536", "hash_seed-negative", "hash_seed-2**64", "windows-one-short"])
def test_corpus_load_refuses_a_contract_a_model_file_cannot_hold_or_a_window_list_that_misses_a_row(
    tmp_path, change, expected
):
    corpus = Corpus(np.zeros((4, 12 + 8)), np.array([0, 1, 0, 1]), ({},) * 4, 8, 0)
    replace(corpus, **change).save(tmp_path)
    with pytest.raises(ValueError) as refused:
        Corpus.load(tmp_path)
    assert expected in str(refused.value)


def test_corpus_load_closes_its_archive_when_meta_is_missing(tmp_path):
    np.savez(tmp_path / "corpus.npz", X=np.zeros((2, 3)), y=np.zeros(2))

    def load_keeping_the_error():
        # The frame holds the error and the error's traceback holds the frame,
        # so the failed load's locals are freed by the cycle collector, which
        # may finalize an open file before the archive that would close it.
        try:
            Corpus.load(tmp_path)
        except FileNotFoundError as exc:
            error = exc
            return str(error)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert "meta.json" in load_keeping_the_error()
        gc.collect()  # or the warning lands on whichever later test collects
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_corpus_features_independent_of_row_order():
    a = build_corpus(10, 10, seed=3)
    b = build_corpus(10, 10, seed=3)
    assert (a.X == b.X).all()


def test_corpus_feature_distributions_separate_classes():
    rows, labels = [], []
    for i in range(40):
        if i % 2:
            spec = ScenarioSpec(
                kind=RansomwareSpec(mode=ALL_MODES[i % 6], files_per_second=60),
                seed=700 + i, tree=TreeSpec(depth=2, fanout=2, files=80),
            )
        else:
            spec = ScenarioSpec(
                kind=BenignSpec(profile=list(BenignProfile)[i % 5]),
                seed=800 + i, tree=TreeSpec(depth=2, fanout=2, files=80),
            )
        for window in scenario_windows(generate(spec))[:2]:
            rows.append(extract_features(window))
            labels.append(i % 2)
    matrix, y = np.stack(rows), np.array(labels)

    def separation(name):
        """1 - overlap of the two classes' histograms over 16 shared bins."""
        col = matrix[:, FEATURE_NAMES.index(name)]
        edges = np.linspace(col.min(), col.max(), 17)
        benign, ransom = np.histogram(col[y == 0], edges)[0], np.histogram(col[y == 1], edges)[0]
        return 1.0 - np.minimum(benign / benign.sum(), ransom / ransom.sum()).sum()

    # the same-named-note spread features and the type-ratio split classes hard
    assert separation("n_folder") >= 0.9
    assert separation("max_n_file") >= 0.9
    assert separation("rtype_change") >= 0.5
    assert separation("n_create") >= 0.5


def test_note_and_doc_corpora_deterministic():
    assert make_note_corpus(10, seed=4) == make_note_corpus(10, seed=4)
    first, second = random.Random(4), random.Random(4)
    assert [make_benign_text(first) for _ in range(10)] == [make_benign_text(second) for _ in range(10)]
    assert make_note_corpus(10, seed=4) != make_note_corpus(10, seed=5)


def test_benign_texts_follow_the_rng_they_are_given():
    # make_benign_text draws from its rng alone, so a seed fixes a corpus and another seed changes it
    first, second = random.Random(4), random.Random(5)
    assert [make_benign_text(first) for _ in range(10)] != [make_benign_text(second) for _ in range(10)]
    state = random.getstate()
    try:
        texts = []
        for global_seed in (0, 1):  # the module-level generator plays no part
            random.seed(global_seed)
            rng = random.Random(4)
            texts.append([make_benign_text(rng) for _ in range(10)])
    finally:
        random.setstate(state)
    assert texts[0] == texts[1]


def test_bad_specs_rejected():
    with pytest.raises(BadSpec):
        generate(ScenarioSpec(kind=RansomwareSpec(mode=Mode.M1, files_per_second=0), seed=1))
    with pytest.raises(BadSpec):
        spec_from_kind("m9")
    with pytest.raises(BadSpec):
        build_corpus(0, 5, seed=1)


@pytest.mark.parametrize("make,expected", [
    (lambda: RansomwareSpec(Mode.M1, files_per_second=float("nan")), "files_per_second must be positive"),
    (lambda: RansomwareSpec(Mode.M1, files_per_second=float("inf")), "files_per_second must be positive"),
    (lambda: RansomwareSpec(Mode.M1, files_per_second=-3.0), "files_per_second must be positive"),
    (lambda: RansomwareSpec(Mode.M1, note_every_k_dirs=0), "note_every_k_dirs must be at least 1"),
    (lambda: TreeSpec(files=0), "one branch and one file"),
    (lambda: TreeSpec(depth=0), "one branch and one file"),
    (lambda: TreeSpec(fanout=-1), "one branch and one file"),
    (lambda: TreeSpec(extensions=()), "at least one file extension"),
    (lambda: TreeSpec(depth=4, fanout=20), "tree lays out 168420 directories, more than 10000"),
    (lambda: TreeSpec(depth=14, fanout=2), "tree lays out 32766 directories"),
    (lambda: TreeSpec(depth=10_001, fanout=1), "tree lays out 10001 directories"),
    (lambda: TreeSpec(depth=10**30, fanout=3), "tree lays out at least "),
], ids=["fps-nan", "fps-inf", "fps-negative", "note-every-0", "files-0", "depth-0", "fanout-negative", "no-extensions",
        "dirs-168420", "dirs-32766", "dirs-10001-fanout-1", "dirs-past-64-levels"])
def test_spec_types_refuse_bad_values_when_built(make, expected):
    with pytest.raises(BadSpec, match=expected):
        make()


@pytest.mark.parametrize("fields,name", [
    ({"avoid_decoys": "false"}, "avoid_decoys"),
    ({"touch_decoy": 1}, "touch_decoy"),
    ({"files": 2.9}, "files"),
    ({"tree": {"depth": 2.0}}, "depth"),
    ({"seed": "7"}, "seed"),
    ({"note_every_k_dirs": True}, "note_every_k_dirs"),
    ({"fps": "nan"}, "fps"),
    ({"fps": False}, "fps"),
    ({"tree": {"extensions": "docx"}}, "extensions"),
    ({"tree": {"extensions": ["docx", 5]}}, "extensions"),
    ({"tree": {"root": ["C:/"]}}, "root"),
    ({"decoy_paths": "C:/Users/alice/a.docx"}, "decoy_paths"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_spec_from_json_refuses_values_of_the_wrong_json_type(fields, name):
    with pytest.raises(BadSpec, match=f'"{name}" has the wrong type'):
        spec_from_json(json.dumps({"kind": "m1", **fields}))


def test_tree_directory_bound_counts_the_directories_tree_layout_lays_out():
    for depth in range(1, 5):
        for fanout in range(1, 23):
            count = sum(min(fanout, 20) ** level for level in range(1, depth + 1))
            if count > MAX_TREE_DIRS:
                with pytest.raises(BadSpec, match=f"tree lays out {count} directories, more than {MAX_TREE_DIRS}"):
                    TreeSpec(depth=depth, fanout=fanout, files=1)
            else:
                assert len(tree_layout(TreeSpec(depth=depth, fanout=fanout, files=1), seed=1).dirs) == count


@pytest.mark.parametrize("fields,name", [
    ({"kind": "office", "fps": 60}, "fps"),
    ({"kind": "indexer", "note_every_k_dirs": 1}, "note_every_k_dirs"),
    ({"kind": "zipper", "avoid_decoys": False}, "avoid_decoys"),
    ({"kind": "M3", "touch_decoy": False}, "touch_decoy"),
])
def test_spec_from_json_refuses_a_field_of_the_other_class_of_kind(fields, name):
    with pytest.raises(BadSpec, match=f'kind "{fields["kind"]}" takes no "{name}"'):
        spec_from_json(json.dumps(fields))


def test_spec_from_json_refuses_a_rate_that_is_not_finite():
    for fps in ("NaN", "Infinity", "-Infinity"):  # JSON extensions that json.loads reads as floats
        with pytest.raises(BadSpec, match="files_per_second must be positive"):
            spec_from_json('{"kind": "m1", "fps": %s}' % fps)


def test_spec_from_json_defaults_are_the_spec_types_defaults():
    spec = spec_from_json('{"kind": "m2"}')
    assert spec == ScenarioSpec(RansomwareSpec(Mode.M2))
    spec = spec_from_json('{"kind": "office", "files": 7, "tree": {"depth": 1}}')
    assert spec == ScenarioSpec(BenignSpec(BenignProfile.OFFICE), tree=TreeSpec(depth=1, files=7))
    assert spec_from_json('{"kind": "office", "files": 7, "tree": {"files": 9}}').tree.files == 9


def test_spec_from_kind_keeps_the_given_tree():
    tree = TreeSpec(depth=2, fanout=2, files=300)
    assert spec_from_kind("m3", tree=tree).tree == tree
    assert spec_from_kind("office", tree=tree).tree == tree
    assert spec_from_kind("m3").tree == TreeSpec()


def test_spec_from_json_round():
    text = json.dumps(
        {
            "kind": "m4",
            "seed": 9,
            "fps": 120,
            "note_every_k_dirs": 2,
            "tree": {"depth": 2, "fanout": 2, "files": 44},
        }
    )
    spec = spec_from_json(text)
    assert isinstance(spec.kind, RansomwareSpec)
    assert spec.kind.mode is Mode.M4 and spec.kind.files_per_second == 120
    assert spec.tree.files == 44
    result = generate(spec)
    assert result.ground_truth["mode"] == "M4"


def test_decoy_outside_tree_rejected():
    spec = ScenarioSpec(
        kind=RansomwareSpec(mode=Mode.M1),
        seed=1,
        tree=TreeSpec(depth=1, fanout=1, files=5),
        decoy_paths=("Z:/elsewhere/decoy.docx",),
    )
    with pytest.raises(BadSpec):
        generate(spec)
