"""Reference implementations that the tests compare the package against.

They share no code with what they check: this module reads no
single-underscore name of the package (``test_modules.py`` asserts that),
so a change to a helper of the fold cannot change its oracle along with it.
"""
from __future__ import annotations

import math
import re

import numpy as np

from ransomwatch.events import basename_of, dirname_of
from ransomwatch.features import EXTENSION_VOCABULARY, MAX_DEPTH_BUCKET, RARE_EXTENSION_LABEL


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


# -- the behavior-graph labels ---------------------------------------------------

# The labels' first formulation: an IGNORECASE note search and a regex split.
_REF_NOTE_RE = re.compile(
    r"how[\s_-]*to|read[\s_-]*me|readme|decrypt|encrypt|recover|restore|unlock"
    r"|ransom|instruction|important|attention|warning|help",
    re.IGNORECASE,
)
_REF_WORDS_RE = re.compile(r"[a-z]+(?:[ _\-][a-z]+)*")
_REF_HEX_RE = re.compile(r"[0-9a-f]{8,}")


def ref_name_pattern_class(file_name: str) -> str:
    stem = basename_of(file_name)
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
    directory = dirname_of(file_name)
    if not directory:
        return 0
    parts = [p for p in re.split(r"[/\\]+", directory) if p and not p.endswith(":")]
    return min(len(parts), MAX_DEPTH_BUCKET)


def event_params(file_name: str, file_type: str) -> tuple[str, str, str]:
    """The (extension, depth, name-pattern) labels of one event, as the fold should write them."""
    extension = f"ext:{file_type}" if file_type in EXTENSION_VOCABULARY else RARE_EXTENSION_LABEL
    return extension, f"depth:{ref_path_depth_bucket(file_name)}", f"name:{ref_name_pattern_class(file_name)}"
