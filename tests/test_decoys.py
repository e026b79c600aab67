"""Decoy generation, deployment, event checking and live decoy triggers."""
from __future__ import annotations

import os
import re
import time

import pytest

from ransomwatch.decoys import (
    DecoyKind,
    DecoyRegistry,
    DecoySpec,
    IoFailure,
    NameStyle,
    UnsupportedKind,
    check_event,
    deploy,
    generate_decoy,
)
from ransomwatch.events import MUTATING_OPS, Operation, TriggerKind
from ransomwatch.pipeline import DirectoryWatcher
from ransomwatch.simulator import BenignProfile, BenignSpec, ScenarioSpec, TreeSpec, generate

from oracles import file_event


def test_mimic_neighbors_name_pattern():
    neighbors = ["budget_2023.docx", "budget_2024.docx"]
    pattern = re.compile(r"budget_.*\.docx$")
    for seed in range(100):
        decoy = generate_decoy(DecoyKind.DOCUMENT, NameStyle.MIMIC_NEIGHBORS, neighbors, seed=seed)
        assert pattern.match(decoy.file_name), decoy.file_name
        assert decoy.file_name not in neighbors


def test_dictionary_fallback_deterministic():
    a = generate_decoy(DecoyKind.DOCUMENT, NameStyle.MIMIC_NEIGHBORS, [], seed=3)
    b = generate_decoy(DecoyKind.DOCUMENT, NameStyle.MIMIC_NEIGHBORS, [], seed=3)
    assert a == b
    assert "." in a.file_name


def test_same_seed_identical_bytes():
    a = generate_decoy(DecoyKind.SPREADSHEET, NameStyle.DICTIONARY, seed=9)
    b = generate_decoy(DecoyKind.SPREADSHEET, NameStyle.DICTIONARY, seed=9)
    assert a.content == b.content
    assert generate_decoy(DecoyKind.SPREADSHEET, NameStyle.DICTIONARY, seed=10).content != a.content


def test_image_magic_bytes():
    decoy = generate_decoy(DecoyKind.IMAGE, NameStyle.DICTIONARY, seed=1)
    assert decoy.content.startswith((b"\xff\xd8\xff", b"\x89PNG"))


def test_unsupported_kind():
    with pytest.raises(UnsupportedKind):
        generate_decoy("Audio", NameStyle.DICTIONARY)  # type: ignore[arg-type]


def test_deploy_writes_and_registers(tmp_path):
    registry = DecoyRegistry()
    paths = deploy(DecoySpec(str(tmp_path), count=2), registry, seed=5)
    assert len(paths) == 2 and len(registry) == 2
    for path in paths:
        assert (tmp_path / path.split("/")[-1]).exists()
        assert path in registry


def test_deploy_idempotent_by_path(tmp_path):
    registry = DecoyRegistry()
    spec = DecoySpec(str(tmp_path), count=3)
    first = deploy(spec, registry, seed=5)
    second = deploy(spec, registry, seed=5)
    assert first == second
    assert len(registry) == 3


def test_deploy_failure_rolls_back(tmp_path):
    target = tmp_path / "not_a_dir"
    target.write_text("plain file")
    registry = DecoyRegistry()
    with pytest.raises(IoFailure):
        deploy(DecoySpec(str(target), count=2), registry)
    assert len(registry) == 0


def test_deploy_partial_failure_removes_written_files(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    bad = tmp_path / "missing" / "nested"
    registry = DecoyRegistry()
    with pytest.raises(IoFailure):
        deploy(DecoySpec(str(bad), count=2), registry, early_dirs=[str(good)])
    assert list(good.iterdir()) == []
    assert len(registry) == 0


def test_deploy_auto_prepends_early_dirs(tmp_path):
    early = tmp_path / "appdata"
    user = tmp_path / "docs"
    early.mkdir()
    user.mkdir()
    registry = DecoyRegistry()
    paths = deploy(DecoySpec(str(user), count=2), registry, early_dirs=[str(early)])
    assert paths[0].startswith(str(early))
    assert paths[1].startswith(str(user))


def test_mimic_uses_directory_neighbors(tmp_path):
    for name in ("invoice_2021.pdf", "invoice_2022.pdf"):
        (tmp_path / name).write_text("x")
    registry = DecoyRegistry()
    (path,) = deploy(DecoySpec(str(tmp_path), count=1, kinds=(DecoyKind.DOCUMENT,)), registry)
    assert re.search(r"invoice_.*\.pdf$", path)


def test_check_event_rules():
    registry = DecoyRegistry()
    registry.register("C:/u/decoy.docx", "d", DecoyKind.DOCUMENT)
    hit = check_event(file_event(Operation.WRITE, "C:/u/decoy.docx", time=5), registry)
    assert hit is not None and hit.kind is TriggerKind.DECOY_TOUCH and hit.time == 5
    assert check_event(file_event(Operation.WRITE, "C:/u/other.docx"), registry) is None
    assert check_event(file_event(Operation.READ, "C:/u/decoy.docx"), registry) is None
    renamed = file_event(Operation.RENAME, "C:/u/decoy.docx.locked", old="C:/u/decoy.docx")
    assert check_event(renamed, registry) is not None
    for op in (Operation.DELETE, Operation.OVERWRITE, Operation.SMASH):
        assert check_event(file_event(op, "C:/u/decoy.docx"), registry) is not None


def test_trigger_completeness_one_per_qualifying_event():
    registry = DecoyRegistry()
    registry.register("C:/u/decoy.docx", "d", DecoyKind.DOCUMENT)
    events = [
        file_event(Operation.READ, "C:/u/decoy.docx", 0),
        file_event(Operation.WRITE, "C:/u/decoy.docx", 1),
        file_event(Operation.WRITE, "C:/u/other.docx", 2),
        file_event(Operation.RENAME, "C:/u/decoy.docx.crypt", 3, old="C:/u/decoy.docx"),
        file_event(Operation.DELETE, "C:/u/decoy.docx", 4),
        file_event(Operation.CREATE, "C:/u/decoy.docx", 5),
    ]
    qualifying = [
        ev for ev in events
        if ev.operation in MUTATING_OPS
        and ("C:/u/decoy.docx" in (ev.file_name, ev.old_file_name))
    ]
    triggers = [t for t in (check_event(ev, registry) for ev in events) if t is not None]
    assert len(triggers) == len(qualifying) == 3
    assert [t.time for t in triggers] == [ev.time for ev in qualifying]


def test_benign_indexer_corpus_zero_triggers():
    layout_spec = TreeSpec(depth=2, fanout=2, files=60)
    registry = DecoyRegistry()
    registry.register("C:/Users/alice/Documents/budget_99.docx", "d", DecoyKind.DOCUMENT)
    spec = ScenarioSpec(
        kind=BenignSpec(profile=BenignProfile.INDEXER),
        seed=8,
        tree=layout_spec,
        decoy_paths=tuple(registry.paths()),
    )
    result = generate(spec)
    triggers = [t for t in map(lambda e: check_event(e, registry), result.events) if t]
    assert triggers == []


def test_registry_persistence_and_verify(tmp_path):
    registry = DecoyRegistry()
    paths = deploy(DecoySpec(str(tmp_path), count=2), registry, seed=1)
    reg_file = tmp_path / "registry.json"
    registry.save(reg_file)
    loaded = DecoyRegistry.load(reg_file)
    assert loaded.entries().keys() == registry.entries().keys()
    assert loaded.verify() == {}
    # tamper with one decoy
    with open(paths[0], "ab") as fp:
        fp.write(b"corruption")
    problems = loaded.verify()
    assert list(problems) == [paths[0]] and problems[paths[0]] == "digest mismatch"


_NOT_A_REGISTRY = "decoy registry must map each path to an object with content_digest, deployed_at and kind"


@pytest.mark.parametrize("text, message", [
    ("not json", "Expecting value"),
    ("[]", _NOT_A_REGISTRY),
    ('{"C:/d.docx": "Document"}', _NOT_A_REGISTRY),
    ('{"C:/d.docx": {"kind": "Document"}}', _NOT_A_REGISTRY),
    ('{"C:/d.docx": {"content_digest": "d", "deployed_at": "", "kind": "Folder"}}',
     "'Folder' is not a valid DecoyKind"),
    ('{"C:/d.docx": {"content_digest": "d", "deployed_at": "", "kind": ["Document"]}}',
     r"\['Document'\] is not a valid DecoyKind"),
    ('{"C:/d.docx": {"content_digest": 5, "deployed_at": "", "kind": "Document"}}',
     '"content_digest" has the wrong type: expected a string, got 5'),
    ('{"C:/d.docx": {"content_digest": ["x"], "deployed_at": "", "kind": "Document"}}',
     '"content_digest" has the wrong type'),
    ('{"C:/d.docx": {"content_digest": "d", "deployed_at": null, "kind": "Document"}}',
     '"deployed_at" has the wrong type: expected a string, got null'),
    ('{"C:/d.docx": {"content_digest": "d", "deployed_at": {}, "kind": "Document"}}', '"deployed_at" has the wrong type'),
    ('{"": {"content_digest": "d", "deployed_at": "", "kind": "Document"}}', f"{_NOT_A_REGISTRY}: a path is empty"),
], ids=["not-json", "not-an-object", "entry-not-an-object", "missing-key", "unknown-kind", "unhashable-kind",
        "digest-number", "digest-list", "date-null", "date-object", "empty-path"])
def test_registry_load_rejects_malformed_file(tmp_path, text, message):
    reg_file = tmp_path / "decoys.json"
    reg_file.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        DecoyRegistry.load(reg_file)


def test_registry_load_reads_every_entry_with_its_kind(tmp_path):
    saved = DecoyRegistry()
    for i, kind in enumerate(DecoyKind):
        saved.register(f"/d/{i}.bin", f"digest{i}", kind, f"2024-01-0{i + 1}T00:00:00Z")
    saved.save(tmp_path / "decoys.json")
    loaded = DecoyRegistry.load(tmp_path / "decoys.json")
    assert loaded.entries() == saved.entries()
    assert all(type(entry.kind) is DecoyKind for entry in loaded.entries().values())
    loaded.register("/d/new.bin", "digest", DecoyKind.IMAGE)
    assert "/d/new.bin" in loaded and len(loaded) == len(DecoyKind) + 1


def _first_trigger(watcher, registry, polls):
    """Poll the watcher up to ``polls`` times, checking each event against the
    registry, until one triggers.

    Returns the trigger (or None) and every event seen on the way.
    """
    seen = []
    for _ in range(polls):
        for ev in watcher.poll():
            seen.append(ev)
            trigger = check_event(ev, registry)
            if trigger is not None:
                return trigger, seen
    return None, seen


def test_watch_live_write_trigger_within_budget(tmp_path):
    registry = DecoyRegistry()
    paths = deploy(DecoySpec(str(tmp_path), count=2), registry, seed=2)
    watcher = DirectoryWatcher([tmp_path])
    started = time.monotonic()
    with open(paths[0], "ab") as fp:
        fp.write(b"ENCRYPTED")
    trigger, _ = _first_trigger(watcher, registry, polls=1)  # live mode polls every 50 ms
    elapsed = time.monotonic() - started
    assert trigger is not None
    assert trigger.kind is TriggerKind.DECOY_TOUCH and trigger.path == paths[0]
    assert elapsed < 0.2


def test_watch_live_sibling_create_no_trigger_and_delete_triggers(tmp_path):
    registry = DecoyRegistry()
    paths = deploy(DecoySpec(str(tmp_path), count=1), registry, seed=3)
    watcher = DirectoryWatcher([tmp_path])
    sibling = tmp_path / "innocent_new_file.txt"
    sibling.write_text("hello")
    trigger, seen = _first_trigger(watcher, registry, polls=3)
    assert trigger is None
    assert (Operation.CREATE, str(sibling)) in {(ev.operation, ev.file_name) for ev in seen}

    os.unlink(paths[0])
    trigger, _ = _first_trigger(watcher, registry, polls=1)
    assert trigger is not None and trigger.path == paths[0]
    assert "delete" in trigger.detail


def test_decoy_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        DecoySpec(str(tmp_path), count=0)
    with pytest.raises(ValueError):
        DecoySpec(str(tmp_path), kinds=())
