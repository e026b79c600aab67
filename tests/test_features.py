"""Expert features: recount oracle, identities, sentinels and worked examples."""
from __future__ import annotations

import random

from ransomwatch.events import FileEvent, Operation, ProcessWindow, extension_of
from ransomwatch.features import FEATURE_NAMES, TypeChange, extract_features


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

    ntype_change = len(after) - len(before)
    if ntype_change > 0:
        shape = TypeChange.GROWN
    elif ntype_change < 0:
        shape = TypeChange.SHRUNK
    elif before != after:
        shape = TypeChange.CHURN
    else:
        shape = TypeChange.UNCHANGED

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
    onehot[shape.value] = 1.0
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
        got = extract_features(_window(events)).as_array().tolist()
        assert got == _oracle_features(events)


def test_empty_window():
    vec = extract_features(_window([]))
    assert vec.n_create == vec.n_delete == vec.n_renamed == 0
    assert vec.rtype == vec.rtype_change == vec.r_file == 0.0
    assert vec.type_change is TypeChange.UNCHANGED
    assert len(vec.as_array()) == 12 == len(FEATURE_NAMES)


def test_ransom_note_spread_example():
    events = [
        _ev(Operation.CREATE, f"C:/u/folder{i}/HOW_TO_DECRYPT.txt", time=i) for i in range(5)
    ]
    vec = extract_features(_window(events))
    assert vec.max_n_file == 5 and vec.n_folder == 5 and vec.r_file == 1.0


def test_benign_installer_same_folder_example():
    events = [_ev(Operation.CREATE, "C:/Program Files/app/setup.log", time=i) for i in range(5)]
    vec = extract_features(_window(events))
    assert vec.max_n_file == 5 and vec.n_folder == 1 and vec.r_file == 5.0


def test_ntype_change_identity_on_fuzzed_windows():
    rng = random.Random(123)
    for _ in range(500):
        events = _random_events(rng, rng.randint(0, 40))
        vec = extract_features(_window(events))
        assert vec.ntype_change == vec.ntype_after - vec.ntype_before


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
        a = extract_features(_window(events))
        b = extract_features(_window(doubled))
        assert a.ntype_change == b.ntype_change
        assert a.rtype == b.rtype
        assert a.type_change == b.type_change


def test_rtype_sentinels():
    # no before-set: first event is a Create
    vec = extract_features(_window([_ev(Operation.CREATE, "C:/u/a.txt")]))
    assert vec.rtype == 0.0
    # deletes but no creates: rtype_change falls back to deleted-type count
    events = [_ev(Operation.DELETE, "C:/u/a.txt"), _ev(Operation.DELETE, "C:/u/b.pdf", time=1)]
    assert extract_features(_window(events)).rtype_change == 2.0
