"""Expert behavioral features of a process window.

The exported vector has exactly 12 dimensions in a fixed order (the order is
part of the model contract): three operation counts, a four-way one-hot over
the shape of the extension-set change, and five fusion/ratio features.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .events import Operation, ProcessWindow, extension_of

FEATURE_NAMES = (
    "n_create",
    "n_delete",
    "n_renamed",
    "type_unchanged",
    "type_grown",
    "type_shrunk",
    "type_churn",
    "rtype",
    "rtype_change",
    "max_n_file",
    "n_folder",
    "r_file",
)

N_EXPERT_FEATURES = len(FEATURE_NAMES)


def _old_extension(ev) -> str:
    return extension_of(ev.old_file_name) if ev.old_file_name else ""


# Unpacked into locals by extract_features: a class attribute read such as
# Operation.CREATE costs several times a local read, once per window event.
_OPS = (
    Operation.CREATE, Operation.DELETE, Operation.SMASH,
    Operation.RENAME, Operation.WRITE, Operation.OVERWRITE,
)


def extract_features(window: ProcessWindow) -> np.ndarray:
    """The 12 expert features of a window's events, as a float64 row in FEATURE_NAMES order.

    Only ``window.events`` is read, and only during the call, so the engine
    can pass the open window it keeps.

    Extension-set tracking uses only window-touched files, replayed through
    an in-window shadow of the operations:

    * the "before" set holds extensions of files read or modified before the
      first Create/Delete event (renames contribute the old path's type);
    * the "after" set holds extensions existing among touched files at the
      end (creates/writes add, deletes/smashes remove, renames swap paths).

    The type-change one-hot is grown or shrunk when the set's size changes,
    churn when the size holds but the set does not, and unchanged otherwise.

    Zero denominators use bounded sentinels: rtype = 0 when the before set is
    empty, rtype_change falls back to the deleted-type count when nothing was
    created, r_file = 0 when no file was created.
    """
    n_create = n_delete = n_renamed = 0
    before_types: set[str] = set()
    past_first_create_delete = False
    exists: dict[str, str] = {}
    removed: set[str] = set()
    del_types: set[str] = set()
    create_types: set[str] = set()
    created_name_counts: dict[str, int] = {}
    created_name_dirs: dict[str, set[str]] = {}
    CREATE, DELETE, SMASH, RENAME, WRITE, OVERWRITE = _OPS

    for ev in window.events:
        op = ev.operation
        if op is CREATE or op is DELETE:
            past_first_create_delete = True
        elif not past_first_create_delete:
            before_types.add(_old_extension(ev) if op is RENAME else ev.file_type)

        if op is CREATE:
            n_create += 1
            path = ev.file_name
            create_types.add(ev.file_type)
            exists[path] = ev.file_type
            removed.discard(path)
            # basename_of and dirname_of from one split
            cut = max(path.rfind("/"), path.rfind("\\"))
            name = path[cut + 1 :]
            created_name_counts[name] = created_name_counts.get(name, 0) + 1
            created_name_dirs.setdefault(name, set()).add(path[:cut] if cut > 0 else "")
        elif op is DELETE or op is SMASH:
            n_delete += 1
            del_types.add(ev.file_type)
            exists.pop(ev.file_name, None)
            removed.add(ev.file_name)
        elif op is RENAME:
            n_renamed += 1
            if ev.old_file_name:
                exists.pop(ev.old_file_name, None)
                removed.add(ev.old_file_name)
            exists[ev.file_name] = ev.file_type
            removed.discard(ev.file_name)
        elif op is WRITE or op is OVERWRITE:
            # a write implies the path exists afterwards, even post-removal
            exists[ev.file_name] = ev.file_type
            removed.discard(ev.file_name)
        else:  # READ cannot resurrect a removed path
            if ev.file_name not in removed and ev.file_name not in exists:
                exists[ev.file_name] = ev.file_type

    after_types = set(exists.values())
    ntype_before = len(before_types)
    ntype_after = len(after_types)
    ntype_change = ntype_after - ntype_before
    churn = ntype_change == 0 and before_types != after_types

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

    return np.array(
        [
            n_create, n_delete, n_renamed,
            ntype_change == 0 and not churn, ntype_change > 0, ntype_change < 0, churn,
            rtype, rtype_change, max_n_file, n_folder, r_file,
        ],
        dtype=np.float64,
    )


class Mode(str, Enum):
    """The six encryption modes a simulated ransomware run can follow."""

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
