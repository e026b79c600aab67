"""The classifier row of a process window: expert features and the behavior graph, folded in one pass.

The expert vector has exactly 12 dimensions in a fixed order (the order is
part of the model contract): three operation counts, a four-way one-hot over
the shape of the extension-set change, and five fusion/ratio features.

The behavior graph is bipartite: every event connects its operation node to
three parameter nodes, the file extension, a path-depth bucket, and a
filename-pattern class. The graph is kept as its edge counts (``WindowFold``
counts them) and folded into a fixed-width vector with signed feature
hashing; the hash seed and width are part of the model contract and travel
inside model files.
"""
from __future__ import annotations

import hashlib
import math
import re
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .events import FileEvent, Operation, ProcessWindow, basename_of, extension_of

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

DEFAULT_EMBEDDING_DIMS = 64
DEFAULT_HASH_SEED = 0x9E3779B97F4A7C15
MAX_DEPTH_BUCKET = 7


_NOTE_NAME_RE = re.compile(
    r"how[\s_-]*to|read[\s_-]*me|readme|decrypt|encrypt|recover|restore|unlock"
    r"|ransom|instruction|important|attention|warning|help",
    re.IGNORECASE,
)
_WORDS_RE = re.compile(r"[a-z]+(?:[ _\-][a-z]+)*")
_HEX_RE = re.compile(r"[0-9a-f]{8,}")

# Known-extension vocabulary for parameter labels. Anything else collapses to
# one rare-extension node: per-file random suffixes would otherwise spray
# one-off hash buckets that never generalize across windows.
EXTENSION_VOCABULARY = frozenset(
    (
        "", "7z", "avi", "bak", "bat", "bmp", "cfg", "cpp", "css", "csv",
        "dat", "db", "dll", "doc", "docx", "eml", "exe", "gif", "gz", "hta",
        "htm", "html", "ini", "iso", "jpeg", "jpg", "js", "json", "lock",
        "log", "md", "mov", "mp3", "mp4", "msg", "odt", "pdf", "png", "ppt",
        "pptx", "ps1", "py", "rar", "rtf", "sql", "svg", "sys", "tar", "tif",
        "tmp", "txt", "wav", "xls", "xlsx", "xml", "zip",
    )
)
RARE_EXTENSION_LABEL = "ext:#rare"


def name_pattern_class(file_name: str) -> str:
    """Classify a filename by its lowered stem: "note" if the note pattern occurs
    in it, ignoring case; else "hash" if it is 8+ hex digits, or 10+ letters and
    digits with 3+ digits once "-" and "_" are dropped; else "word" if it is
    runs of a-z joined by single spaces, "_" or "-"; else "other"."""
    return _base_class(basename_of(file_name))


# The four rules below never tell one ASCII digit from another: the note and
# words patterns hold no digit, [0-9a-f] takes every digit, and the compact
# hash rule reads only the length, isalnum and the digit count. No non-ASCII
# character's UTF-8 bytes fall in 0x30-0x39. So the lowered stem's UTF-8
# bytes with every digit folded to "0" key its class exactly; real stems
# differ mostly in their counters, and fold to a few hundred keys.
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
_CLASS_BY_FOLDED_STEM: dict[bytes, str] = {}
_CLASS_MEMO_SIZE = 4096


def _base_class(base: str) -> str:
    """name_pattern_class of a path whose basename is ``base``."""
    dot = base.rfind(".")
    stem = base[:dot] if dot > 0 else base
    low = stem.lower()
    # surrogatepass: a path decoded with surrogateescape may hold lone surrogates
    key = low.encode("utf-8", "surrogatepass").translate(_DIGITS_TO_ZERO)
    cls = _CLASS_BY_FOLDED_STEM.get(key)
    if cls is not None:
        return cls
    if _NOTE_NAME_RE.search(low):
        cls = "note"
    elif _HEX_RE.fullmatch(low):
        cls = "hash"
    else:
        compact = low.replace("-", "").replace("_", "")
        if len(compact) >= 10 and compact.isalnum() and sum(map(str.isdigit, compact)) >= 3:
            cls = "hash"
        elif _WORDS_RE.fullmatch(low):
            cls = "word"
        else:
            cls = "other"
    if len(_CLASS_BY_FOLDED_STEM) >= _CLASS_MEMO_SIZE:
        _CLASS_BY_FOLDED_STEM.clear()
    _CLASS_BY_FOLDED_STEM[key] = cls
    return cls


def _directory_depth(directory: str) -> int:
    """Non-empty components of a directory path that do not end in ":" (drive roots), clamped."""
    depth = 0
    for part in directory.replace("\\", "/").split("/"):
        if part and part[-1] != ":":
            depth += 1
    return min(depth, MAX_DEPTH_BUCKET)


_EXT_LABELS = {ext: f"ext:{ext}" for ext in EXTENSION_VOCABULARY}
_DEPTH_LABELS = tuple(f"depth:{depth}" for depth in range(MAX_DEPTH_BUCKET + 1))
_NAME_LABELS = {name: f"name:{name}" for name in ("note", "hash", "word", "other")}


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
        # bound once: a method read costs more than a local read, once per window event
        ext_label, class_of = _EXT_LABELS.get, _CLASS_BY_FOLDED_STEM.get
        count_of, depth_of = pairs.get, depth_by_dir.get

        for ev in events[n:]:
            op = ev.operation
            path = ev.file_name
            file_type = ev.file_type
            # the directory as written and the basename, from one split
            cut = path.rfind("/")
            back = path.rfind("\\")
            if back > cut:
                cut = back
            directory = path[:cut] if cut > 0 else ""
            name = path[cut + 1 :]
            depth = depth_of(directory)
            if depth is None:
                depth = depth_by_dir[directory] = _DEPTH_LABELS[_directory_depth(directory)]
            # _base_class's memo read under its key; _base_class itself runs only on a miss
            dot = name.rfind(".")
            stem = name[:dot] if dot > 0 else name
            cls = class_of(stem.lower().encode("utf-8", "surrogatepass").translate(_DIGITS_TO_ZERO)) or _base_class(name)
            # op and its three labels; op._value_ is ev.operation.value without the enum property
            key = (op._value_, ext_label(file_type, RARE_EXTENSION_LABEL), depth, _NAME_LABELS[cls])
            pairs[key] = count_of(key, 0) + 1

            if op is CREATE:
                past_first_create_delete = True
                create_types.add(file_type)
                paths[path] = file_type
                created_dirs.setdefault(name, []).append(directory)
                continue
            if op is DELETE:
                past_first_create_delete = True
                del_types.add(file_type)
                paths[path] = None
                continue
            if not past_first_create_delete:
                before_types.add(extension_of(ev.old_file_name or "") if op is RENAME else file_type)
            if op is SMASH:
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
        for (op, _ext, _depth, _name), count in self.pairs.items():
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
        count_of = edges.get
        for (op, ext, depth, name), count in self.pairs.items():
            for key in ((op, ext), (op, depth), (op, name)):
                edges[key] = count_of(key, 0) + count
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


class BadDim(ValueError):
    """Embedding width must be a power of two from 8 to 32 768."""


def check_dims(dims: int) -> None:
    """Raise BadDim unless ``dims`` is a valid embedding width."""
    if dims < 8 or dims & (dims - 1) != 0:
        raise BadDim(f"dims must be a power of two >= 8, got {dims}")
    if dims > 32768:  # a model file stores the row width, 12 + dims, in 16 bits
        raise BadDim(f"dims must be at most 32768, got {dims}")


def check_hash_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an unsigned 64-bit integer, as encode and model files take it."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"hash_seed must be in [0, 2**64), got {seed}")


def _edge_hash(op: str, param: str, seed: int) -> int:
    key = seed.to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(f"{op}|{param}".encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


# (dims, seed) -> {(op, param): (bucket, sign)}, for the last (dims, seed) only.
# The label vocabulary bounds the edges of real windows to 7 ops times 70
# parameter labels, 490 per seed; the cap bounds arbitrary graphs.
_BUCKETS_BY_WIDTH_AND_SEED: dict[tuple[int, int], dict[tuple[str, str], tuple[int, float]]] = {}
_BUCKET_MEMO_SIZE = 4096


def encode(
    edges: dict[tuple[str, str], int], dims: int = DEFAULT_EMBEDDING_DIMS, seed: int = DEFAULT_HASH_SEED
) -> np.ndarray:
    """Fold edge counts, as ``build_graph`` returns them, into a float64 array
    of ``dims`` buckets with signed hashing. Raises BadDim for a width, and
    ValueError for a seed, that ``check_dims`` or ``check_hash_seed`` refuses.

    Each edge lands in one bucket with sign taken from an independent hash
    bit and magnitude log1p(count); the result is scaled down if its L2 norm
    exceeds sqrt(dims). Deterministic across runs and platforms.
    """
    check_dims(dims)
    check_hash_seed(seed)
    buckets = _BUCKETS_BY_WIDTH_AND_SEED.get((dims, seed))
    if buckets is None:
        _BUCKETS_BY_WIDTH_AND_SEED.clear()
        buckets = _BUCKETS_BY_WIDTH_AND_SEED[(dims, seed)] = {}
    bucket_of, log1p = buckets.get, math.log1p
    # float adds in edge order, as a float64 array would make them
    values = [0.0] * dims
    for edge, count in edges.items():
        hit = bucket_of(edge)
        if hit is None:
            h = _edge_hash(*edge, seed)
            if len(buckets) >= _BUCKET_MEMO_SIZE:
                buckets.clear()
            hit = buckets[edge] = (h & (dims - 1), 1.0 if (h >> 63) & 1 else -1.0)
        bucket, sign = hit
        values[bucket] += sign * log1p(count)
    embedding = np.array(values, dtype=np.float64)
    limit = math.sqrt(dims)
    norm = float(np.linalg.norm(embedding))
    if norm > limit:
        embedding *= limit / norm
    return embedding


class Mode(str, Enum):
    """The six encryption modes a simulated ransomware run can follow."""

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
