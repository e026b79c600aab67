"""Reference implementations that the tests compare the package against, one per contract.

Each is written from the contract's definition with naive loops, and shares
no code with what it checks: this module imports only classes and constants
from the package, never a function, and reads no single-underscore name
(``test_modules.py`` asserts both). So a change to a helper of the fold, the
tokenizer or the scorer cannot change its oracle along with it. Test
modules import from here and from no other test module.
"""
from __future__ import annotations

import hashlib
import math
import re
import unicodedata

import numpy as np

from ransomwatch.events import FileEvent, Operation, ProcessWindow
from ransomwatch.features import EXTENSION_VOCABULARY, MAX_DEPTH_BUCKET, RARE_EXTENSION_LABEL
from ransomwatch.notes import DEFAULT_TAU_SIM, GenePool, SimilarityVerdict


# -- events and windows ------------------------------------------------------------

def ref_split(path: str) -> tuple[str, str]:
    """(folder, name): the path before and after its last "/" or "\\", as written; ("", path) without one."""
    for i in range(len(path) - 1, -1, -1):
        if path[i] in "/\\":
            return path[:i], path[i + 1 :]
    return "", path


def ref_extension(path: str) -> str:
    """The lowered text after the name's last dot, '' if the name has no dot past its first character."""
    name = ref_split(path)[1]
    if "." not in name[1:]:
        return ""
    return name[name.rindex(".") + 1 :].lower()


def file_event(op: Operation, path: str, time: int = 0, pid: int = 4, old: str | None = None) -> FileEvent:
    return FileEvent(time, pid, "p.exe", op, path, ref_extension(path), old)


def window_of(events, pid: int = 4) -> ProcessWindow:
    """A window of ``p.exe`` under ``pid`` that holds exactly ``events``."""
    if not events:
        return ProcessWindow(pid, "p.exe", 0, 1, ())
    end = max(ev.time for ev in events) + 1
    start = min(ev.time for ev in events)
    return ProcessWindow(pid, "p.exe", min(0, start), end, tuple(events))


PATH_POOL = [
    "C:/u/docs/report.docx", "C:/u/docs/budget.xlsx", "C:/u/pics/cat.jpg",
    "C:/u/docs/report.docx.locked", "C:/u/docs/NOTE.txt", "C:/u/pics/dog.png",
    "C:/u/tmp/scratch", "D:/arch/old.pdf", "C:/u/docs/sub/deep.txt",
]


def random_events(rng, size: int) -> list[FileEvent]:
    """``size`` events at times 0, 1, ... with operations and paths drawn from PATH_POOL."""
    events = []
    for i in range(size):
        op = rng.choice(list(Operation))
        path = rng.choice(PATH_POOL)
        old = rng.choice(PATH_POOL) if op is Operation.RENAME else None
        events.append(file_event(op, path, time=i, old=old))
    return events


# -- the split objective ---------------------------------------------------------

def split_sse_direct(values: np.ndarray, response: np.ndarray, threshold: float) -> float:
    """Squared error of a split evaluated literally: both sides' deviation sums."""
    mask = values <= threshold
    left, right = response[mask], response[~mask]
    if len(left) == 0 or len(right) == 0:
        return math.inf
    return float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())


def split_sse_decomposed(values: np.ndarray, response: np.ndarray, threshold: float) -> float:
    """The same objective via sum(y^2) - (sum_L y)^2/m_L - (sum_R y)^2/m_R."""
    mask = values <= threshold
    m_left = int(mask.sum())
    m_right = len(values) - m_left
    if m_left == 0 or m_right == 0:
        return math.inf
    s_left = float(response[mask].sum())
    s_right = float(response.sum()) - s_left
    return float((response**2).sum()) - s_left * s_left / m_left - s_right * s_right / m_right


# -- the expert features -----------------------------------------------------------

def ref_features(events) -> list[float]:
    """Naive recount of the 12 expert features, straight from the definitions."""
    n_create = sum(1 for e in events if e.operation is Operation.CREATE)
    n_delete = sum(1 for e in events if e.operation in (Operation.DELETE, Operation.SMASH))
    n_renamed = sum(1 for e in events if e.operation is Operation.RENAME)

    # before set: types read/modified before the first Create/Delete event
    before = set()
    for e in events:
        if e.operation in (Operation.CREATE, Operation.DELETE):
            break
        if e.operation is Operation.RENAME:
            before.add(ref_extension(e.old_file_name) if e.old_file_name else "")
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

    # one-hot index in FEATURE_NAMES order: unchanged, grown, shrunk, churn
    ntype_change = len(after) - len(before)
    if ntype_change > 0:
        shape = 1
    elif ntype_change < 0:
        shape = 2
    elif before != after:
        shape = 3
    else:
        shape = 0

    rtype = len(after) / len(before) if before else 0.0
    del_types = {e.file_type for e in events if e.operation in (Operation.DELETE, Operation.SMASH)}
    create_types = {e.file_type for e in events if e.operation is Operation.CREATE}
    rtype_change = len(del_types) / len(create_types) if create_types else float(len(del_types))

    # a created name's folders are its directory strings as written: "C:/u" and "C:\u" are two
    names = {}
    dirs = {}
    for e in events:
        if e.operation is Operation.CREATE:
            folder, base = ref_split(e.file_name)
            names[base] = names.get(base, 0) + 1
            dirs.setdefault(base, set()).add(folder)
    max_n_file = max(names.values()) if names else 0
    n_folder = max((len(dirs[b]) for b, c in names.items() if c == max_n_file), default=0)
    r_file = max_n_file / n_folder if n_folder else 0.0

    onehot = [0.0] * 4
    onehot[shape] = 1.0
    return [
        float(n_create), float(n_delete), float(n_renamed), *onehot,
        rtype, rtype_change, float(max_n_file), float(n_folder), r_file,
    ]


# -- the behavior-graph labels and edges -------------------------------------------

# The labels' first formulation: an IGNORECASE note search and a regex split.
_REF_NOTE_RE = re.compile(
    r"how[\s_-]*to|read[\s_-]*me|readme|decrypt|encrypt|recover|restore|unlock"
    r"|ransom|instruction|important|attention|warning|help",
    re.IGNORECASE,
)
_REF_WORDS_RE = re.compile(r"[a-z]+(?:[ _\-][a-z]+)*")
_REF_HEX_RE = re.compile(r"[0-9a-f]{8,}")


def ref_name_pattern_class(file_name: str) -> str:
    stem = ref_split(file_name)[1]
    dot = stem.rfind(".")
    if dot > 0:
        stem = stem[:dot]
    low = stem.lower()
    if _REF_NOTE_RE.search(low):
        return "note"
    if _REF_HEX_RE.fullmatch(low):
        return "hash"
    compact = low.replace("-", "").replace("_", "")
    if len(compact) >= 10 and compact.isalnum() and sum(c.isdigit() for c in compact) >= 3:
        return "hash"
    if _REF_WORDS_RE.fullmatch(low):
        return "word"
    return "other"


def ref_path_depth_bucket(file_name: str) -> int:
    directory = ref_split(file_name)[0]
    if not directory:
        return 0
    parts = [p for p in re.split(r"[/\\]+", directory) if p and not p.endswith(":")]
    return min(len(parts), MAX_DEPTH_BUCKET)


def event_params(file_name: str, file_type: str) -> tuple[str, str, str]:
    """The (extension, depth, name-pattern) labels of one event, as the fold should write them."""
    extension = f"ext:{file_type}" if file_type in EXTENSION_VOCABULARY else RARE_EXTENSION_LABEL
    return extension, f"depth:{ref_path_depth_bucket(file_name)}", f"name:{ref_name_pattern_class(file_name)}"


def ref_pairs(events) -> dict[tuple[str, str, str, str], int]:
    """Events by (op, extension, depth, name-pattern labels), enumerated event by event in first-event order."""
    pairs = {}
    for e in events:
        key = (e.operation.value, *event_params(e.file_name, e.file_type))
        pairs[key] = pairs.get(key, 0) + 1
    return pairs


def ref_edges(events) -> dict[tuple[str, str], int]:
    """The behavior graph's edge counts, ``{(op, param): count}``, enumerated event by event in first-event order."""
    edges = {}
    for e in events:
        for param in event_params(e.file_name, e.file_type):
            key = (e.operation.value, param)
            edges[key] = edges.get(key, 0) + 1
    return edges


def ref_encode(edges, dims: int, seed: int) -> np.ndarray:
    """The hashed embedding from its definition. An edge's hash h is the 64-bit BLAKE2b of "op|param", keyed
    with the seed's 8 little-endian bytes, read little-endian. It adds log1p(count) to bucket h mod dims, with
    the sign of h's top bit set, in edge order; a result longer than sqrt(dims) is scaled down to it."""
    values = np.zeros(dims)
    for (op, param), count in edges.items():
        digest = hashlib.blake2b(f"{op}|{param}".encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little"))
        h = int.from_bytes(digest.digest(), "little")
        values[h % dims] += math.log1p(count) if h >> 63 else -math.log1p(count)
    norm = np.linalg.norm(values)
    if norm > math.sqrt(dims):
        values *= math.sqrt(dims) / norm
    return values


# -- the note tokenizer and similarity ---------------------------------------------

def ref_strip_punct(token: str) -> str:
    """``token`` without its leading and trailing Unicode punctuation (category P*)."""
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def ref_tokenize(text: str) -> tuple[str, ...]:
    words = []
    for raw in text.split():
        tok = ref_strip_punct(raw).lower()
        if tok:
            words.append(tok)
    return tuple(words)


def ref_similarity(doc: tuple[str, ...], pool: GenePool, tau: float = DEFAULT_TAU_SIM) -> SimilarityVerdict:
    """The pool fragments found among the document's n-grams, in pool order, and the sum of their scores."""
    if not pool.fragments:
        raise ValueError("gene pool is empty")
    n = pool.n
    doc_fragments = {tuple(doc[i : i + n]) for i in range(len(doc) - n + 1)}
    matched = tuple((frag, score) for frag, score in pool.fragments.items() if frag in doc_fragments)
    score = sum(s for _, s in matched)
    return SimilarityVerdict(score, matched, score >= tau)
