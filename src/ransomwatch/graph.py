"""Labels of the bipartite operation-parameter behavior graph, and its hashed embedding.

Every event connects its operation node to three parameter nodes: the file
extension, a path-depth bucket, and a filename-pattern class. The graph is
kept as its edge counts (``features.WindowFold`` counts them) and folded
into a fixed-width vector with signed feature hashing; the hash seed and
width are part of the model contract and travel inside model files.
"""
from __future__ import annotations

import functools
import hashlib
import math
import re

import numpy as np

from .events import basename_of, dirname_of

DEFAULT_EMBEDDING_DIMS = 64
DEFAULT_HASH_SEED = 0x9E3779B97F4A7C15
MAX_DEPTH_BUCKET = 7


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


def path_depth_bucket(file_name: str) -> int:
    """Directory depth of a path, clamped to MAX_DEPTH_BUCKET."""
    return _directory_depth(dirname_of(file_name))


_EXT_LABELS = {ext: f"ext:{ext}" for ext in EXTENSION_VOCABULARY}
_DEPTH_LABELS = tuple(f"depth:{depth}" for depth in range(MAX_DEPTH_BUCKET + 1))
_NAME_LABELS = {name: f"name:{name}" for name in ("note", "hash", "word", "other")}


def event_params(file_name: str, file_type: str) -> tuple[str, str, str]:
    """The (extension, depth, name-pattern) parameter labels of one event."""
    return (
        _EXT_LABELS.get(file_type, RARE_EXTENSION_LABEL),
        _DEPTH_LABELS[path_depth_bucket(file_name)],
        _NAME_LABELS[name_pattern_class(file_name)],
    )


# The label vocabulary bounds the edges of real windows to 7 ops times 70
# parameter labels, 490 per seed; the cap bounds arbitrary graphs.
@functools.lru_cache(maxsize=4096)
def _edge_hash(op: str, param: str, seed: int) -> int:
    key = seed.to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(f"{op}|{param}".encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


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
    values = np.zeros(dims, dtype=np.float64)
    for (op, param), count in edges.items():
        h = _edge_hash(op, param, seed)
        bucket = h & (dims - 1)
        sign = 1.0 if (h >> 63) & 1 else -1.0
        values[bucket] += sign * math.log1p(count)
    limit = math.sqrt(dims)
    norm = float(np.linalg.norm(values))
    if norm > limit:
        values *= limit / norm
    return values
