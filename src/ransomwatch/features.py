"""Expert behavioral features and graph edge counts of a process window, folded in one pass.

The exported vector has exactly 12 dimensions in a fixed order (the order is
part of the model contract): three operation counts, a four-way one-hot over
the shape of the extension-set change, and five fusion/ratio features.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .events import FileEvent, Operation, ProcessWindow, extension_of
from .graph import _DEPTH_LABELS, _EXT_LABELS, _NAME_LABELS, RARE_EXTENSION_LABEL, _base_class, _directory_depth

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

# Unpacked into locals by WindowFold.add: a class attribute read such as
# Operation.CREATE costs several times a local read, once per window event.
_OPS = (
    Operation.CREATE, Operation.DELETE, Operation.SMASH,
    Operation.RENAME, Operation.WRITE, Operation.OVERWRITE,
)


class WindowFold:
    """The row state of a window's first ``n`` events. ``add`` folds the events
    past them, so a caller that keeps one fold for a growing window reads each
    event once; ``row`` and ``edges`` read the state without changing it."""

    def __init__(self) -> None:
        self.n = 0
        self.past_first_create_delete = False
        self.before_types: set[str] = set()
        self.paths: dict[str, Optional[str]] = {}  # path -> its type, or None once removed
        self.del_types: set[str] = set()
        self.create_types: set[str] = set()
        self.created_dirs: dict[str, list[str]] = {}  # name -> the directory of each of its creates
        # (op, extension, depth and name-pattern labels) -> events, in first-event order
        self.pairs: dict[tuple[str, str, str, str], int] = {}

    def add(self, events: Sequence[FileEvent]) -> None:
        """Fold ``events[n:]``; raise ValueError if there are fewer than ``n`` events."""
        n = self.n
        if len(events) < n:
            raise ValueError(f"a fold of {n} events for a window of {len(events)} events")
        past_first_create_delete = self.past_first_create_delete
        before_types, paths, created_dirs = self.before_types, self.paths, self.created_dirs
        del_types, create_types = self.del_types, self.create_types
        pairs, depth_by_dir = self.pairs, {}
        CREATE, DELETE, SMASH, RENAME, WRITE, OVERWRITE = _OPS

        for ev in events[n:]:
            op = ev.operation
            path = ev.file_name
            file_type = ev.file_type
            # basename_of and dirname_of from one split
            cut = max(path.rfind("/"), path.rfind("\\"))
            directory = path[:cut] if cut > 0 else ""
            name = path[cut + 1 :]
            depth = depth_by_dir.get(directory)
            if depth is None:
                depth = depth_by_dir[directory] = _DEPTH_LABELS[_directory_depth(directory)]
            # graph.event_params, keyed with ev.operation.value without the enum property
            key = (op._value_, _EXT_LABELS.get(file_type, RARE_EXTENSION_LABEL), depth, _NAME_LABELS[_base_class(name)])
            pairs[key] = pairs.get(key, 0) + 1

            if op is CREATE or op is DELETE:
                past_first_create_delete = True
            elif not past_first_create_delete:
                before_types.add(extension_of(ev.old_file_name or "") if op is RENAME else file_type)

            if op is CREATE:
                create_types.add(file_type)
                paths[path] = file_type
                created_dirs.setdefault(name, []).append(directory)
            elif op is DELETE or op is SMASH:
                del_types.add(file_type)
                paths[path] = None
            elif op is RENAME:
                if ev.old_file_name:
                    paths[ev.old_file_name] = None
                paths[path] = file_type
            elif op is WRITE or op is OVERWRITE:
                # a write implies the path exists afterwards, even post-removal
                paths[path] = file_type
            else:  # READ cannot resurrect a removed path
                paths.setdefault(path, file_type)

        self.n = len(events)
        self.past_first_create_delete = past_first_create_delete

    def row(self) -> np.ndarray:
        """The 12 expert features, as a float64 row in FEATURE_NAMES order.

        Extension-set tracking uses only window-touched files, replayed
        through an in-window shadow of the operations:

        * the "before" set holds extensions of files read or modified before
          the first Create/Delete event (renames contribute the old path's type);
        * the "after" set holds extensions existing among touched files at
          the end (creates/writes add, deletes/smashes remove, renames swap paths).

        The type-change one-hot is grown or shrunk when the extension set's
        size changes, churn when the size holds but the set does not, and
        unchanged otherwise.

        Zero denominators use bounded sentinels: rtype = 0 when the before
        set is empty, rtype_change falls back to the deleted-type count when
        nothing was created, r_file = 0 when no file was created.
        """
        n_op: dict[str, int] = {}  # events by operation
        for (op, *_labels), count in self.pairs.items():
            n_op[op] = n_op.get(op, 0) + count
        before_types = self.before_types
        after_types = set(self.paths.values()) - {None}
        ntype_before = len(before_types)
        ntype_after = len(after_types)
        ntype_change = ntype_after - ntype_before
        churn = ntype_change == 0 and before_types != after_types

        rtype = ntype_after / ntype_before if ntype_before > 0 else 0.0
        n_del_types = len(self.del_types)
        n_create_types = len(self.create_types)
        rtype_change = n_del_types / n_create_types if n_create_types > 0 else float(n_del_types)

        created_dirs = self.created_dirs
        max_n_file = max(map(len, created_dirs.values()), default=0)
        n_folder = max((len(set(dirs)) for dirs in created_dirs.values() if len(dirs) == max_n_file), default=0)
        r_file = max_n_file / n_folder if n_folder > 0 else 0.0

        return np.array(
            [
                n_op.get("Create", 0), n_op.get("Delete", 0) + n_op.get("Smash", 0), n_op.get("Rename", 0),
                ntype_change == 0 and not churn, ntype_change > 0, ntype_change < 0, churn,
                rtype, rtype_change, max_n_file, n_folder, r_file,
            ],
            dtype=np.float64,
        )

    def edges(self) -> dict[tuple[str, str], int]:
        """The behavior graph as its edge counts, ``{(op, param): count}``.

        The graph is bipartite: every event joins its operation label to
        three parameter labels. Each edge is inserted when its first event
        is reached, so the edges keep the order that encode sums them in.
        """
        edges: dict[tuple[str, str], int] = {}
        for (op, *params), count in self.pairs.items():
            for param in params:
                key = (op, param)
                edges[key] = edges.get(key, 0) + count
        return edges


def extract_features(window: ProcessWindow, fold: Optional[WindowFold] = None) -> np.ndarray:
    """``fold.row()`` once the fold, a new one if none is given, has folded the
    rest of ``window.events``: the engine passes the open window it keeps, and
    the fold it keeps for it."""
    if fold is None:
        fold = WindowFold()
    fold.add(window.events)
    return fold.row()


def build_graph(window: ProcessWindow, fold: Optional[WindowFold] = None) -> dict[tuple[str, str], int]:
    """``fold.edges()`` once the fold has folded the rest of ``window.events``, as in ``extract_features``."""
    if fold is None:
        fold = WindowFold()
    fold.add(window.events)
    return fold.edges()


class Mode(str, Enum):
    """The six encryption modes a simulated ransomware run can follow."""

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
