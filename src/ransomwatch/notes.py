"""Ransom-note detection by word-level n-gram fragment matching.

A pool of scored fragments is distilled from known notes; a document is
flagged when the summed scores of its matching fragments cross a threshold.
"""
from __future__ import annotations

import codecs
import json
import sys
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .jsontypes import POOL, POOL_FRAGMENT, columns

DEFAULT_NGRAM_SIZE = 3
DEFAULT_POOL_CAPACITY = 300
DEFAULT_TAU_SIM = 0.21

Fragment = tuple[str, ...]


class EmptyCorpus(ValueError):
    """No note contributed a single fragment."""


# The category-P characters among the 128 ASCII code points (23 of them);
# $+<=>^`|~ are symbols and stay.
_ASCII_PUNCT = "".join(c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P"))

# For GenePool.score_bound: lowers A-Z and maps to a space the ASCII
# punctuation and \x1c-\x1f, which str.split() splits at but bytes.split()
# does not.
_PIECE_TABLE = bytes.maketrans(
    bytes(range(65, 91)) + (_ASCII_PUNCT + "\x1c\x1d\x1e\x1f").encode(),
    bytes(range(97, 123)) + b" " * (len(_ASCII_PUNCT) + 4),
)


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> tuple[str, ...]:
    """The words of a text: split on whitespace, strip leading/trailing punctuation, lowercase.

    Punctuation is any Unicode category-P character; interior punctuation is
    kept ("don't" survives, "ENCRYPTED!" becomes "encrypted"). Empty tokens
    are dropped.
    """
    if text.isascii():
        # On ASCII, lower() changes only A-Z, so lowering the whole text
        # first changes neither the whitespace split nor what is punctuation.
        return tuple(filter(None, [raw.strip(_ASCII_PUNCT) for raw in text.lower().split()]))
    words = []
    for raw in text.split():
        tok = _strip_punct(raw).lower()
        if tok:
            words.append(tok)
    return tuple(words)


def decode_note(blob: bytes, limit: int) -> Optional[str]:
    """The text of a note's first ``limit`` bytes; None unless they are UTF-8.

    A blob of ``limit`` bytes or more may have been cut there, so a partial
    last character is dropped; an invalid byte anywhere else, or a partial
    character ending a shorter blob, makes the note unscorable.
    """
    try:
        return codecs.getincrementaldecoder("utf-8")().decode(blob[:limit], final=len(blob) < limit)
    except UnicodeDecodeError:
        return None


def ngrams(words: tuple[str, ...], n: int) -> list[Fragment]:
    """All sliding n-word sequences, max(0, len(words) - n + 1) of them, in order."""
    return list(_fragments(words, n))


def _fragments(words: tuple[str, ...], n: int) -> Iterator[Fragment]:
    """The sliding n-grams of words, in order, zipped from shifted slices.

    Intersected with ``pool.fragments.keys()``, each one is hashed once and
    only the hits are stored.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return zip(*[words[i:] for i in range(n)])


@dataclass(frozen=True)
class GenePool:
    """Ranked, normalized n-gram fragments of known ransom notes.

    Scores are normalized over the full fragment count set *before* the pool
    is truncated to its capacity, so a retained score keeps its global
    meaning across rebuilds. ``fragments`` preserves descending-score order
    (ties broken lexicographically).
    """

    n: int
    top_k: Optional[int]
    fragments: dict[Fragment, float]
    source_count: int

    def __len__(self) -> int:
        return len(self.fragments)

    def score_bound(self, blob: bytes) -> Optional[float]:
        """An upper bound on the score of ASCII ``blob``, found without tokenizing.

        The bound is ``>= similarity(tokenize(blob.decode()), self, tau=0.0).score``.
        It is None for a blob that is not ASCII, and for a pool that is empty,
        has n < 1 or a negative score. The blob is lowered, its punctuation and
        separators become spaces, and it is split into pieces. A token that
        equals a clean word w (ASCII, no punctuation or whitespace) is a
        whitespace run of punctuation, w, punctuation, so it becomes the piece
        w, and a run that strips to nothing becomes no piece. So every clean
        fragment that ``similarity`` matches is an n-gram of the pieces. A loose
        fragment, one with any other word ("don't", "café"), always counts. The
        counted scores are summed in the pool's order, as ``similarity`` sums a
        subset of them, so the float sum is no smaller.
        """
        index = self._bound_index
        if index is None or not blob.isascii():
            return None
        clean, ranked, loose_sum = index
        pieces = blob.translate(_PIECE_TABLE).split()
        hits = clean.intersection(zip(*[pieces[i:] for i in range(self.n)]))
        if not hits:
            return loose_sum
        return sum(score for frag, score in ranked if frag is None or frag in hits)

    @cached_property
    def _bound_index(self):
        """(clean fragments as bytes, pool-ordered (bytes fragment or None if
        loose, score) pairs, sum of the loose scores), or None when no bound holds."""
        scores = self.fragments.values()
        if not scores or self.n < 1 or not all(score >= 0 for score in scores):
            return None
        ranked = []
        for frag, score in self.fragments.items():
            words = tuple(word.encode() for word in frag if word.isascii())
            clean = len(words) == len(frag) and all(w.translate(_PIECE_TABLE).split() == [w.lower()] for w in words)
            ranked.append((words if clean else None, score))
        loose_sum = sum(score for frag, score in ranked if frag is None)
        return frozenset(frag for frag, _ in ranked if frag is not None), ranked, loose_sum

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "top_k": self.top_k,
            "source_count": self.source_count,
            "fragments": [{"words": list(frag), "f": score} for frag, score in self.fragments.items()],
        }
        return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "GenePool":
        """Load a pool. Raises ValueError unless its fields have the JSON types of
        ``jsontypes.POOL`` and ``jsontypes.POOL_FRAGMENT``, n >= 1, source_count >= 0,
        top_k is null or no smaller than the fragment count, and the pool holds at
        least one fragment, each of exactly n words with a finite score >= 0, in
        descending score order and no two alike. The order of tied scores is not checked."""
        (n,), (top_k,), (source_count,), (items,) = columns([json.loads(text)], POOL, "gene pool")
        word_lists, scores = columns(items, POOL_FRAGMENT, "gene pool")
        if n < 1:
            raise ValueError(f"gene pool n must be at least 1, got {n}")
        if source_count < 0:
            raise ValueError(f"gene pool source_count must be at least 0, got {source_count}")
        if not word_lists:
            raise ValueError("gene pool has no fragments")
        if top_k is not None and top_k < len(word_lists):
            raise ValueError(f"gene pool holds {len(word_lists)} fragments, more than its top_k of {top_k}")
        if set(map(len, word_lists)) != {n}:
            raise ValueError(f"gene pool fragments must be lists of exactly {n} strings")
        # NaN fails; an integer score too large for a float is refused before float() would overflow
        if not all(0.0 <= score <= sys.float_info.max for score in scores):
            raise ValueError("gene pool fragment scores must be finite and at least 0")
        if scores != sorted(scores, reverse=True):
            raise ValueError("gene pool fragments must be sorted by descending score")
        fragments = dict(zip(map(tuple, word_lists), map(float, scores)))
        if len(fragments) != len(word_lists):
            raise ValueError("gene pool holds the same fragment twice")
        return cls(n, top_k, fragments, source_count)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "GenePool":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def build_pool(
    notes: Sequence[tuple[str, ...]],
    n: int = DEFAULT_NGRAM_SIZE,
    top_k: Optional[int] = DEFAULT_POOL_CAPACITY,
) -> GenePool:
    """Count fragments over all notes, normalize, keep the top_k highest.

    Raises EmptyCorpus when no note is at least n words long, and ValueError
    when top_k is below 1. top_k=None keeps every fragment (then the retained
    scores sum to 1 exactly).
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    counts: dict[Fragment, int] = {}
    for note in notes:
        for frag in ngrams(note, n):
            counts[frag] = counts.get(frag, 0) + 1
    if not counts:
        raise EmptyCorpus(f"no fragments of size {n} in {len(notes)} notes")
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    fragments = {frag: count / total for frag, count in ranked}
    return GenePool(n, top_k, fragments, len(notes))


@dataclass(frozen=True, slots=True)
class SimilarityVerdict:
    score: float
    matched: tuple[tuple[Fragment, float], ...]
    is_note: bool


def similarity(doc: tuple[str, ...], pool: GenePool, tau: float = DEFAULT_TAU_SIM) -> SimilarityVerdict:
    """Sum the scores of pool fragments present in the document.

    Set semantics: each distinct pool fragment counts at most once no matter
    how often it repeats in the document.
    """
    fragments = pool.fragments
    if not fragments:
        raise ValueError("gene pool is empty")
    hits = fragments.keys() & _fragments(doc, pool.n)
    matched = tuple((frag, score) for frag, score in fragments.items() if frag in hits) if hits else ()
    score = sum(s for _, s in matched)
    return SimilarityVerdict(score, matched, score >= tau)
