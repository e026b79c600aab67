"""Expert behavioral features of a process window.

The exported vector has exactly 12 dimensions in a fixed order (the order is
part of the model contract): three operation counts, a four-way one-hot over
the shape of the extension-set change, and five fusion/ratio features.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional

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
    paths: dict[str, Optional[str]] = {}  # path -> its type, or None once removed
    del_types: set[str] = set()
    create_types: set[str] = set()
    created_dirs: dict[str, list[str]] = {}  # name -> the directory of each of its creates
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
            paths[path] = ev.file_type
            # basename_of and dirname_of from one split
            cut = max(path.rfind("/"), path.rfind("\\"))
            created_dirs.setdefault(path[cut + 1 :], []).append(path[:cut] if cut > 0 else "")
        elif op is DELETE or op is SMASH:
            n_delete += 1
            del_types.add(ev.file_type)
            paths[ev.file_name] = None
        elif op is RENAME:
            n_renamed += 1
            if ev.old_file_name:
                paths[ev.old_file_name] = None
            paths[ev.file_name] = ev.file_type
        elif op is WRITE or op is OVERWRITE:
            # a write implies the path exists afterwards, even post-removal
            paths[ev.file_name] = ev.file_type
        else:  # READ cannot resurrect a removed path
            paths.setdefault(ev.file_name, ev.file_type)

    after_types = set(paths.values())
    after_types.discard(None)
    ntype_before = len(before_types)
    ntype_after = len(after_types)
    ntype_change = ntype_after - ntype_before
    churn = ntype_change == 0 and before_types != after_types

    rtype = ntype_after / ntype_before if ntype_before > 0 else 0.0
    n_del_types = len(del_types)
    n_create_types = len(create_types)
    rtype_change = n_del_types / n_create_types if n_create_types > 0 else float(n_del_types)

    max_n_file = max(map(len, created_dirs.values()), default=0)
    n_folder = max((len(set(dirs)) for dirs in created_dirs.values() if len(dirs) == max_n_file), default=0)
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
