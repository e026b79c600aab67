"""Decoy file generation, deployment, registry and the decoy trigger rule.

Decoys are ordinary files whose paths are registered as tripwires: any
mutating operation on a registered path is a DecoyTouch trigger
(``check_event``, the one rule replay and live runs share). Reads never
trigger, since search indexers and backup agents read everything. ``run_live``
watches every registered decoy's directory besides the directories it is
given, so live runs see decoy files wherever they were planted.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time as time_mod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Container, Optional, Sequence, Union

from .events import FileEvent, MUTATING_OPS, Trigger, TriggerKind
from .jsontypes import DECOY_ENTRY, OBJECT, check, columns


class UnsupportedKind(ValueError):
    pass


class IoFailure(OSError):
    def __init__(self, path: str, cause: Optional[BaseException] = None):
        super().__init__(f"decoy deployment failed at {path}: {cause}")
        self.path = path


class WatchUnavailable(RuntimeError):
    """Live watching cannot run; callers degrade to replay-only mode."""


class DecoyKind(str, Enum):
    DOCUMENT = "Document"
    IMAGE = "Image"
    SPREADSHEET = "Spreadsheet"


class NameStyle(str, Enum):
    MIMIC_NEIGHBORS = "MimicNeighbors"
    DICTIONARY = "Dictionary"


@dataclass(frozen=True, slots=True)
class DecoySpec:
    directory: str
    count: int = 2
    kinds: tuple[DecoyKind, ...] = (DecoyKind.DOCUMENT,)
    name_style: NameStyle = NameStyle.MIMIC_NEIGHBORS

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not self.kinds:
            raise ValueError("at least one decoy kind required")


# Plausible stems for dictionary-style names; deliberately boring.
_NAME_DICTIONARY = [
    "quarterly_report", "meeting_notes", "family_budget", "passwords_old",
    "invoice_march", "travel_plan", "tax_return_draft", "project_overview",
    "contact_list", "insurance_scan", "recipe_collection", "vacation_photos",
    "salary_summary", "household_inventory", "school_schedule", "warranty_info",
]

_KIND_EXTENSIONS = {
    DecoyKind.DOCUMENT: ("docx", "doc", "pdf", "txt"),
    DecoyKind.IMAGE: ("jpg", "png"),
    DecoyKind.SPREADSHEET: ("xlsx", "csv"),
}

_CONTENT_WORDS = (
    "the project timeline was reviewed and the budget remains on track for the "
    "current quarter with minor adjustments to travel and equipment spending "
    "please see the attached summary for departmental figures customer feedback "
    "was broadly positive although delivery times in the northern region need "
    "attention we agreed to revisit supplier contracts before renewal deadline "
    "action items were assigned during the meeting and follow up is expected "
    "next week insurance documents should be filed with the usual references"
).split()

_FIRST_NAMES = ["maria", "john", "wei", "sofia", "ahmed", "elena", "raj", "lucas"]


@dataclass(frozen=True, slots=True)
class GeneratedDecoy:
    file_name: str
    content: bytes


def _document_text(rng: random.Random) -> str:
    sentences = []
    for _ in range(rng.randint(12, 30)):
        words = [rng.choice(_CONTENT_WORDS) for _ in range(rng.randint(6, 14))]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return "\n".join(sentences) + "\n"


def _image_bytes(rng: random.Random, ext: str) -> bytes:
    body = bytes(rng.getrandbits(8) for _ in range(rng.randint(2048, 6144)))
    if ext == "png":
        return b"\x89PNG\r\n\x1a\n" + body
    return b"\xff\xd8\xff\xe0" + body + b"\xff\xd9"


def _spreadsheet_text(rng: random.Random) -> str:
    rows = ["item,owner,amount,approved"]
    for i in range(rng.randint(15, 40)):
        rows.append(
            f"entry_{i:03d},{rng.choice(_FIRST_NAMES)},{rng.randint(10, 9000)},{rng.choice(['yes', 'no'])}"
        )
    return "\n".join(rows) + "\n"


def _split_stem_ext(name: str) -> tuple[str, str]:
    dot = name.rfind(".")
    if dot <= 0:
        return name, ""
    return name[:dot], name[dot + 1 :]


def _common_prefix(stems: Sequence[str]) -> str:
    prefix = os.path.commonprefix(list(stems))
    # trim back to a token boundary so "budget_202" becomes "budget_"
    while prefix and prefix[-1] not in "_- " and not prefix[-1].isalpha():
        prefix = prefix[:-1]
    while prefix and prefix[-1].isdigit():
        prefix = prefix[:-1]
    return prefix


def _mimic_name(neighbor_names: Sequence[str], kind: DecoyKind, rng: random.Random, taken: set[str]) -> str:
    stems_exts = [_split_stem_ext(n) for n in neighbor_names]
    exts = [ext for _, ext in stems_exts if ext]
    ext = rng.choice(exts) if exts else rng.choice(_KIND_EXTENSIONS[kind])
    stems = [stem for stem, _ in stems_exts]
    prefix = _common_prefix(stems) if len(stems) > 1 else stems[0] + "_"
    if len(prefix) < 3:
        prefix = stems[0] + "_"
    for attempt in range(1000):
        candidate = f"{prefix}{rng.randint(1990, 2035) if attempt % 2 == 0 else rng.randint(1, 99)}.{ext}"
        if candidate not in taken:
            return candidate
    raise IoFailure(prefix, None)  # pragma: no cover - 1000 collisions is unreachable


def _dictionary_name(kind: DecoyKind, rng: random.Random, taken: set[str]) -> str:
    for _ in range(200):
        candidate = f"{rng.choice(_NAME_DICTIONARY)}.{rng.choice(_KIND_EXTENSIONS[kind])}"
        if candidate not in taken:
            return candidate
    return f"{rng.choice(_NAME_DICTIONARY)}_{rng.randint(100, 9999)}.{rng.choice(_KIND_EXTENSIONS[kind])}"


def generate_decoy(
    kind: DecoyKind,
    name_style: NameStyle = NameStyle.DICTIONARY,
    neighbor_names: Sequence[str] = (),
    seed: int = 0,
    avoid: Sequence[str] = (),
) -> GeneratedDecoy:
    """Produce a decoy file name and content, deterministic for a given seed.

    MimicNeighbors derives the name from shared neighbor tokens plus numeric
    variation and never collides with a neighbor (nor with ``avoid`` names);
    without neighbors it falls back to the built-in dictionary.
    """
    if kind not in _KIND_EXTENSIONS:
        raise UnsupportedKind(str(kind))
    rng = random.Random(seed)
    taken = set(neighbor_names) | set(avoid)
    if name_style is NameStyle.MIMIC_NEIGHBORS and neighbor_names:
        file_name = _mimic_name(neighbor_names, kind, rng, taken)
    else:
        file_name = _dictionary_name(kind, rng, taken)
    ext = _split_stem_ext(file_name)[1]
    if kind is DecoyKind.IMAGE:
        content = _image_bytes(rng, ext)
    elif kind is DecoyKind.SPREADSHEET:
        content = _spreadsheet_text(rng).encode("utf-8")
    else:
        content = _document_text(rng).encode("utf-8")
    return GeneratedDecoy(file_name, content)


def _digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


@dataclass(frozen=True, slots=True)
class DecoyEntry:
    content_digest: str
    deployed_at: str
    kind: DecoyKind


_KINDS = {kind.value: kind for kind in DecoyKind}
_REGISTRY_FORMAT = "decoy registry must map each path to an object with content_digest, deployed_at and kind"


def _kind(value) -> DecoyKind:
    """The kind a registry file names; DecoyKind's own ValueError unless it names one."""
    try:
        return _KINDS[value]
    except (KeyError, TypeError):
        return DecoyKind(value)


class DecoyRegistry:
    """Single source of truth for "is this path a decoy"."""

    def __init__(self) -> None:
        self._entries: dict[str, DecoyEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def entries(self) -> dict[str, DecoyEntry]:
        return dict(self._entries)

    def paths(self) -> list[str]:
        return sorted(self._entries)

    def register(self, path: str, digest: str, kind: DecoyKind, deployed_at: str = "") -> None:
        self._entries[path] = DecoyEntry(digest, deployed_at, kind)

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            p: {"content_digest": e.content_digest, "deployed_at": e.deployed_at, "kind": e.kind.value}
            for p, e in sorted(self._entries.items())
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DecoyRegistry":
        """Load a saved registry. Raises ValueError unless the file holds a JSON
        object mapping each non-empty path to an object with the fields of
        ``jsontypes.DECOY_ENTRY``, whose kind names a DecoyKind."""
        (payload,) = check([json.loads(Path(path).read_text(encoding="utf-8"))], OBJECT, _REGISTRY_FORMAT)
        digests, dates, kinds = columns(payload, DECOY_ENTRY, _REGISTRY_FORMAT)
        if "" in payload:
            raise ValueError(f"{_REGISTRY_FORMAT}: a path is empty")
        registry = cls()
        registry._entries = dict(zip(payload, map(DecoyEntry, digests, dates, map(_kind, kinds))))
        return registry

    def verify(self) -> dict[str, str]:
        """Check every registered decoy on disk; returns path -> problem."""
        problems = {}
        for path, entry in self.entries().items():
            try:
                blob = Path(path).read_bytes()
            except OSError as exc:
                problems[path] = f"unreadable: {exc.strerror or exc}"
                continue
            if _digest(blob) != entry.content_digest:
                problems[path] = "digest mismatch"
        return problems


def default_early_dirs() -> list[str]:
    """Platform analog of the first directories ransomware tends to traverse."""
    if os.name == "nt":  # pragma: no cover - POSIX test environment
        base = os.environ.get("APPDATA")
        return [base] if base else []
    home = os.path.expanduser("~")
    return [os.path.join(home, ".config"), os.path.join(home, ".local", "share")]


def deploy(
    spec: DecoySpec,
    registry: DecoyRegistry,
    seed: int = 0,
    early_dirs: Sequence[str] = (),
) -> list[str]:
    """Write ``spec.count`` decoys and register them; idempotent by path.

    Automatic placement passes the early-traversal directories, which take
    decoys before the user directory. On any write failure the files already
    written by this call are removed and the registry is left unchanged.
    """
    targets = [str(d) for d in early_dirs] + [spec.directory]
    written: list[tuple[str, GeneratedDecoy, DecoyKind]] = []
    try:
        for i in range(spec.count):
            directory = Path(targets[i % len(targets)])
            kind = spec.kinds[i % len(spec.kinds)]
            known = registry.entries()
            own = {Path(w[0]).name for w in written if Path(w[0]).parent == directory}
            neighbors = sorted(
                p.name
                for p in directory.iterdir()
                if p.is_file() and str(p) not in known and p.name not in own
            ) if directory.is_dir() else []
            decoy = generate_decoy(kind, spec.name_style, neighbors, seed=seed * 1009 + i, avoid=own)
            path = directory / decoy.file_name
            try:
                path.write_bytes(decoy.content)
            except OSError as exc:
                raise IoFailure(str(path), exc) from exc
            written.append((str(path), decoy, kind))
    except IoFailure:
        for path_str, _, _ in written:
            try:
                os.unlink(path_str)
            except OSError:  # pragma: no cover - best-effort rollback
                pass
        raise
    deployed_at = time_mod.strftime("%Y-%m-%dT%H:%M:%SZ", time_mod.gmtime())
    for path_str, decoy, kind in written:
        registry.register(path_str, _digest(decoy.content), kind, deployed_at)
    return [w[0] for w in written]


def check_event(event: FileEvent, decoys: Container[str]) -> Optional[Trigger]:
    """DecoyTouch when a mutating operation hits a registered path.

    ``decoys`` is a DecoyRegistry or any set of decoy paths. Renames match on
    either side; reads never trigger.
    """
    if event.operation not in MUTATING_OPS:
        return None
    path = None
    if event.file_name in decoys:
        path = event.file_name
    elif event.old_file_name is not None and event.old_file_name in decoys:
        path = event.old_file_name
    if path is None:
        return None
    return Trigger(
        TriggerKind.DECOY_TOUCH,
        event.pid,
        path,
        event.time,
        f"decoy {event.operation.value.lower()} {path}",
    )
