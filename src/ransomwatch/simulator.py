"""Synthetic labeled traces: ransomware in six encryption modes plus benign workloads.

Everything is driven by seeded RNGs, so a spec generates byte-identical
artifacts on every run. Content never gets encrypted for real; "encrypted"
files exist only as events plus ground-truth timing records.
"""
from __future__ import annotations

import heapq
import json
import math
import random
import zipfile
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .decoys import DecoyKind, DecoyRegistry
from .events import FileEvent, Operation, ProcessWindow, extension_of, serialize_events, window_events
from .features import DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED, N_EXPERT_FEATURES, Mode, check_dims, check_hash_seed
from .jsontypes import BENIGN_SPEC, CORPUS_META, OBJECT, RANSOMWARE_SPEC, TREE, check, columns
from .pipeline import US, PipelineConfig, featurize


class BadSpec(ValueError):
    """Scenario specification is internally inconsistent."""


# --------------------------------------------------------------------------
# Synthetic text: ransom notes assembled from section templates, and benign
# documents that share vocabulary with notes but not phrasing.
# --------------------------------------------------------------------------

_FILES_WORDS = ["files", "documents", "data", "photos", "databases"]
_RECOVER_WORDS = ["restore", "recover", "decrypt", "repair"]
_ALGO_WORDS = ["AES-256", "RSA-2048", "ChaCha20"]

_HEADLINES = [
    "ALL YOUR FILES HAVE BEEN ENCRYPTED!",
    "YOUR FILES ARE ENCRYPTED!",
    "ATTENTION! ALL YOUR FILES HAVE BEEN ENCRYPTED",
    "YOUR COMPUTER IS LOCKED",
    "ALL YOUR IMPORTANT FILES HAVE BEEN ENCRYPTED",
    "YOUR NETWORK HAS BEEN PENETRATED AND ALL FILES ENCRYPTED",
]

_THREATS = [
    "All of your {files} have been encrypted with a military grade {algo} algorithm.",
    "Your {files} are no longer accessible because they have been encrypted.",
    "Do not try to {recover} your {files} yourself or they will be permanently lost.",
    "Any attempt to {recover} the {files} with third party software will corrupt them forever.",
    "If you do not pay within {days} days your {files} will be published and then deleted.",
    "Nobody can {recover} your {files} without our private decryption key.",
    "Shutting down the computer will damage your {files} beyond repair.",
]

_PAYMENTS = [
    "To get the decryption key you must pay {amount} in bitcoin to the wallet address {btc}.",
    "Send {amount} worth of bitcoin to {btc} and email us the transfer id.",
    "The price for the decryption software is {amount} payable in bitcoin to {btc}.",
]

_OFFERS = [
    "As a guarantee you can send us {n} small files and we will decrypt them for free.",
    "We offer free decryption of {n} files as proof that our decryptor works.",
]

_CONTACTS = [
    "Contact us at {email} with your personal id {uid}.",
    "Write to {email} to receive further instructions.",
    "Our support email is {email} and the reserve address is {email2}.",
]

_MAIL_DOMAINS = ["onionmail.org", "tutanota.com", "protonmail.ch", "cock.li"]


def _btc_address(rng: random.Random) -> str:
    alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
    return "1" + "".join(rng.choice(alphabet) for _ in range(30))


def make_note_text(rng: random.Random) -> str:
    """One synthetic ransom note: headline, threats, payment, offer, contact."""
    fill = {
        "files": rng.choice(_FILES_WORDS),
        "algo": rng.choice(_ALGO_WORDS),
        "recover": rng.choice(_RECOVER_WORDS),
        "days": rng.choice(["3", "5", "7"]),
        "amount": rng.choice(["$500", "$980", "$1500", "0.05 BTC"]),
        "btc": _btc_address(rng),
        "n": rng.choice(["2", "3", "5"]),
        "email": f"helpdesk{rng.randrange(100, 999)}@{rng.choice(_MAIL_DOMAINS)}",
        "uid": f"{rng.randrange(10**9):09d}",
    }
    fill["email2"] = f"restore{rng.randrange(100, 999)}@{rng.choice(_MAIL_DOMAINS)}"
    lines = [rng.choice(_HEADLINES), ""]
    for tpl in rng.sample(_THREATS, rng.randint(2, 4)):
        lines.append(tpl.format(**fill))
    lines.append(rng.choice(_PAYMENTS).format(**fill))
    if rng.random() < 0.7:
        lines.append(rng.choice(_OFFERS).format(**fill))
    lines.append(rng.choice(_CONTACTS).format(**fill))
    return "\n".join(lines)


_BENIGN_SENTENCES = [
    "The weekly sync covered the roadmap for the billing service and the migration plan.",
    "Please archive old project files once the quarterly review wraps up.",
    "Remember that offline backups of important files must be tested every quarter.",
    "The finance team published the updated travel policy on the intranet portal.",
    "Our support desk answers most tickets about email and calendar within one business day.",
    "Invoice templates now live in the shared documents folder next to the contracts.",
    "The cafeteria menu rotates on Wednesdays and the recipes are posted near the entrance.",
    "Access to the payment gateway dashboard requires a hardware security token.",
    "Data retention rules say customer records are kept for seven years at most.",
    "The photo club uploads edited photos to the shared drive after each outing.",
    "New laptops ship with disk encryption enabled and a recovery key stored by IT.",
    "If a password reset fails, contact the administrator listed in the onboarding notes.",
    "Quarterly numbers were restated after the audit and the summary was recirculated.",
    "The printer on the third floor jams when the humidity is high, so use the lobby one.",
    "Training sessions on the new expense tool are recorded and available on demand.",
    "Never wire money or buy gift cards in response to an unexpected email request.",
    "The building locks automatically at eight, and the key card desk closes at six.",
    "Release notes document every schema change to the customer database.",
    "A gentle reminder to unlock your screen saver policy exceptions with the helpdesk.",
    "The marketing newsletter goes out on the first Monday of every month.",
]


# Security-awareness sentences: dense in ransom-note vocabulary (including the
# stopword patterns) but with no three-word run copied from a note template.
_AWARENESS_SENTENCES = [
    "If your computer will not start, write a ticket and contact the support desk so we can help.",
    "Files that you no longer need can be deleted at any time, because we keep a private copy for seven days.",
    "Do not send bitcoin or pay any invoice that arrives by email without checking the address with us first.",
    "All of the training data and photos are published to the portal, and the documents get encrypted backups nightly.",
    "For the most value from the new laptops, restore your settings from an archive and send us feedback within three days.",
    "Attention new hires: your personal workspace id and key card must be collected at the front desk.",
    "The price of the upgrade is payable by invoice, and the transfer usually takes a few hours to arrive.",
    "The canteen offers free lunches as a small thank you, plus proof of attendance forms for the training sessions.",
    "Nobody can enter the server room without a guarantee from the facilities team and a written permit.",
    "Any attempt at humor in the quarterly report will be deleted by the editor, forever, or so they say.",
    "Receive the newsletter by email to stay in the loop, and reserve meeting rooms through the portal instead.",
    "Photos and databases from the old wiki were lost permanently when the decommissioned server was shut down.",
    "If you cannot decrypt the archived tax documents, the help desk holds a master key for older software.",
    "Military time is used on the wall clocks, which is less confusing than the grade school format, honestly.",
    "Your files sync to the cloud accessible from any device, and corrupt uploads repair themselves automatically.",
    "Third party contractors must wear badges; their network access is restored after the id check each morning.",
]

_FILTER_TERMS = [
    "accessible", "algorithm", "attention", "bitcoin", "corrupt", "decrypt",
    "decryption", "decryptor", "deleted", "encrypted", "forever", "guarantee",
    "instructions", "key", "locked", "military", "penetrated", "permanently",
    "proof", "published", "transfer", "wallet", "worth",
]


def _awareness_text(rng: random.Random) -> str:
    body = rng.sample(_AWARENESS_SENTENCES, rng.randint(11, len(_AWARENESS_SENTENCES)))
    terms = sorted(rng.sample(_FILTER_TERMS, rng.randint(16, len(_FILTER_TERMS))))
    body.append("The mail filter currently flags these terms: " + ", ".join(terms) + ".")
    return " ".join(body)


def make_benign_text(rng: random.Random) -> str:
    """A benign office document: overlaps notes on vocabulary, not phrasing.

    A slice of the corpus are long security-awareness newsletters that reuse
    much of the ransom-note word stock, which is what makes unigram matching
    hard while leaving trigram matching clean.
    """
    if rng.random() < 0.08:
        return _awareness_text(rng)
    n = rng.randint(4, 12)
    return " ".join(rng.choice(_BENIGN_SENTENCES) for _ in range(n))


def make_note_corpus(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [make_note_text(rng) for _ in range(count)]


# --------------------------------------------------------------------------
# Directory tree layout
# --------------------------------------------------------------------------

_DIR_NAMES = [
    "Documents", "Pictures", "Projects", "Archive", "Reports", "Invoices",
    "Clients", "Research", "Backups", "Personal", "Photos", "Work",
    "Finance", "Legal", "Designs", "Exports", "Drafts", "Meetings",
    "Templates", "Scans",
]

_FILE_STEMS = [
    "report", "budget", "invoice", "summary", "presentation", "photo",
    "notes", "contract", "draft", "analysis", "plan", "roster", "minutes",
    "statement", "proposal", "memo", "ledger", "survey", "timeline", "brief",
]

DEFAULT_EXTENSIONS = ("docx", "xlsx", "pdf", "jpg", "txt", "pptx")
DEFAULT_ROOT = "C:/Users/alice"
MAX_TREE_DIRS = 10_000


@dataclass(frozen=True, slots=True)
class TreeSpec:
    depth: int = 3
    fanout: int = 3
    files: int = 120
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS
    root: str = DEFAULT_ROOT

    def __post_init__(self) -> None:
        if self.files < 1 or self.depth < 1 or self.fanout < 1:
            raise BadSpec("tree must have at least one level, one branch and one file")
        if not self.extensions:
            raise BadSpec("tree must have at least one file extension")
        # fanout + fanout ** 2 + ... + fanout ** depth directories; 64 levels of two or more are far past the bound
        fanout = min(self.fanout, len(_DIR_NAMES))
        levels = self.depth if fanout == 1 else min(self.depth, 64)
        dirs = levels if fanout == 1 else (fanout ** (levels + 1) - fanout) // (fanout - 1)
        if dirs > MAX_TREE_DIRS:
            at_least = "at least " if levels < self.depth else ""
            raise BadSpec(f"tree lays out {at_least}{dirs} directories, more than {MAX_TREE_DIRS}")


@dataclass(frozen=True)
class TreeLayout:
    dirs: tuple[str, ...]
    files: tuple[str, ...]
    files_by_dir: dict[str, tuple[str, ...]]


def tree_layout(spec: TreeSpec, seed: int) -> TreeLayout:
    """Deterministic directory tree: dirs in traversal order, files round-robin."""
    rng = random.Random(seed ^ 0x7EE5)
    dirs: list[str] = []
    level = [spec.root]
    for _ in range(spec.depth):
        nxt = []
        for parent in level:
            names = rng.sample(_DIR_NAMES, min(spec.fanout, len(_DIR_NAMES)))
            for name in names:
                path = f"{parent}/{name}"
                dirs.append(path)
                nxt.append(path)
        level = nxt
    files_by_dir: dict[str, list[str]] = {d: [] for d in dirs}
    files: list[str] = []
    for i in range(spec.files):
        directory = dirs[i % len(dirs)]
        stem = rng.choice(_FILE_STEMS)
        ext = rng.choice(spec.extensions)
        path = f"{directory}/{stem}_{i:04d}.{ext}"
        files_by_dir[directory].append(path)
        files.append(path)
    ordered_files = tuple(f for d in dirs for f in files_by_dir[d])
    return TreeLayout(tuple(dirs), ordered_files, {d: tuple(v) for d, v in files_by_dir.items()})


def first_dir_decoy(spec: TreeSpec, seed: int) -> str:
    """A decoy in the first directory of the tree that ``seed`` lays out, the one an attack reaches first."""
    return f"{tree_layout(spec, seed).dirs[0]}/family_budget.docx"


# --------------------------------------------------------------------------
# Scenario specs
# --------------------------------------------------------------------------

class BenignProfile(str, Enum):
    OFFICE = "office"
    INSTALLER = "installer"
    BACKUP = "backup"
    INDEXER = "indexer"
    EDITOR = "editor"
    ZIPPER = "zipper"


_RANSOM_PID_NAMES = ["svchlpr.exe", "update_agent.exe", "invoice_viewer.exe", "fax_util.exe"]
_BENIGN_PID_NAMES = {
    BenignProfile.OFFICE: "winword.exe",
    BenignProfile.INSTALLER: "setup.exe",
    BenignProfile.BACKUP: "backupd.exe",
    BenignProfile.INDEXER: "searchindexer.exe",
    BenignProfile.EDITOR: "notepad.exe",
    BenignProfile.ZIPPER: "ziptool.exe",
}

NOTE_BASENAMES = [
    "HOW_TO_RECOVER_FILES.txt",
    "READ_ME_FOR_DECRYPT.txt",
    "RESTORE_YOUR_DATA.txt",
    "DECRYPT_INSTRUCTIONS.txt",
]

_UNIFORM_EXTS = ["crypt", "locked", "xyz666", "payus", "dctr"]


@dataclass(frozen=True, slots=True)
class RansomwareSpec:
    mode: Mode
    files_per_second: float = 60.0
    note_every_k_dirs: int = 1
    avoid_decoys: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.files_per_second < math.inf:
            raise BadSpec(f"files_per_second must be positive and finite, got {self.files_per_second}")
        if self.note_every_k_dirs < 1:
            raise BadSpec("note_every_k_dirs must be at least 1")


@dataclass(frozen=True, slots=True)
class BenignSpec:
    profile: BenignProfile = BenignProfile.OFFICE
    touch_decoy: bool = False


@dataclass(frozen=True)
class ScenarioSpec:
    kind: Union[RansomwareSpec, BenignSpec]
    seed: int = 0
    tree: TreeSpec = TreeSpec()
    decoy_paths: tuple[str, ...] = ()
    start_us: int = 0


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    events: tuple[FileEvent, ...]
    ground_truth: dict
    notes: dict[str, str]


def _rand_ext(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(rng.randint(4, 7)))


def _ransomware_body(
    spec: ScenarioSpec, layout: TreeLayout, rng: random.Random, emit: Callable[..., None]
) -> tuple[list[dict], dict[str, str], list[str]]:
    """Encrypt the tree directory by directory: the files' truth records, the notes and the decoys touched."""
    kind: RansomwareSpec = spec.kind
    uniform_ext = rng.choice(_UNIFORM_EXTS)
    note_name = rng.choice(NOTE_BASENAMES)
    gap = max(1, round(US / kind.files_per_second))
    sub = max(1, gap // 3)

    decoys = set(spec.decoy_paths)
    files_by_dir = {d: list(v) for d, v in layout.files_by_dir.items()}
    for decoy in spec.decoy_paths:
        d = decoy[: decoy.rfind("/")]
        if d not in files_by_dir:
            raise BadSpec(f"decoy {decoy} sits outside the scenario tree")
        # decoys are crafted for access priority, so they get hit first
        files_by_dir[d].insert(0, decoy)

    notes: dict[str, str] = {}
    truth_files: list[dict] = []
    decoys_touched: list[str] = []
    t = spec.start_us
    mode = kind.mode
    for d_index, directory in enumerate(layout.dirs):
        if d_index % kind.note_every_k_dirs == 0:
            note_path = f"{directory}/{note_name}"
            emit(Operation.CREATE, note_path, t)
            emit(Operation.WRITE, note_path, t + sub)
            notes[note_path] = make_note_text(rng)
            t += gap
        for path in files_by_dir[directory]:
            if path in decoys and kind.avoid_decoys:
                continue
            new_ext = uniform_ext if mode in (Mode.M1, Mode.M3, Mode.M5) else _rand_ext(rng)
            enc_path = f"{path}.{new_ext}"
            if mode in (Mode.M1, Mode.M2):
                emit(Operation.OVERWRITE, path, t)
                emit(Operation.RENAME, enc_path, t + sub, old=path)
            elif mode in (Mode.M3, Mode.M4):
                emit(Operation.CREATE, enc_path, t)
                emit(Operation.DELETE, path, t + sub)
            else:
                emit(Operation.CREATE, enc_path, t)
                emit(Operation.SMASH, path, t + sub)
            truth_files.append({"path": path, "encrypted_at": t + sub})
            if path in decoys:
                decoys_touched.append(path)
            t += gap
    return truth_files, notes, decoys_touched


def _benign_body(
    spec: ScenarioSpec, layout: TreeLayout, rng: random.Random, emit: Callable[..., None], events: list[FileEvent]
) -> list[str]:
    """Emit the profile's file activity into ``events``; returns the decoys touched."""
    kind: BenignSpec = spec.kind
    t = spec.start_us
    profile = kind.profile
    if profile is BenignProfile.OFFICE:
        # lock-file dance plus safe-save: create lock, edit, write tmp,
        # rename it over the original, drop the lock
        for path in rng.sample(layout.files, min(rng.randint(6, 12), len(layout.files))):
            lock = f"{path}.lock"
            emit(Operation.CREATE, lock, t)
            emit(Operation.READ, path, t + 10_000)
            t += rng.randint(200_000, 600_000)
            for _ in range(rng.randint(1, 3)):
                emit(Operation.WRITE, path, t)
                t += rng.randint(200_000, 700_000)
            tmp = f"{path}.tmp"
            emit(Operation.CREATE, tmp, t)
            emit(Operation.WRITE, tmp, t + 20_000)
            emit(Operation.RENAME, path, t + 40_000, old=tmp)
            emit(Operation.DELETE, lock, t + 60_000)
            t += rng.randint(300_000, 900_000)
    elif profile is BenignProfile.INSTALLER:
        target = "C:/Program Files/AcmeSuite"
        log = f"{target}/setup.log"
        emit(Operation.CREATE, log, t)
        for i in range(rng.randint(30, 60)):
            ext = rng.choice(["dll", "exe", "dat", "xml"])
            final = f"{target}/component_{i:03d}.{ext}"
            if i % 4 == 0:
                # download-then-commit: partial file renamed into place
                part = f"{final}.part"
                emit(Operation.CREATE, part, t)
                emit(Operation.WRITE, part, t + 5_000)
                emit(Operation.RENAME, final, t + 10_000, old=part)
            else:
                emit(Operation.CREATE, final, t)
            t += rng.randint(30_000, 150_000)
            if i % 5 == 0:
                emit(Operation.WRITE, log, t)
                t += 10_000
    elif profile is BenignProfile.BACKUP:
        hi = min(200, len(layout.files))
        for path in layout.files[: rng.randint(min(80, hi), hi)]:
            emit(Operation.READ, path, t)
            rel = path.split("/", 3)[-1]
            emit(Operation.CREATE, f"D:/backup/{rel}", t + 5_000)
            t += rng.randint(10_000, 50_000)
    elif profile is BenignProfile.INDEXER:
        targets = list(layout.files) + list(spec.decoy_paths)
        for path in targets:
            emit(Operation.READ, path, t)
            t += rng.randint(5_000, 20_000)
    elif profile is BenignProfile.EDITOR:
        path = layout.files[rng.randrange(len(layout.files))]
        emit(Operation.READ, path, t)
        for _ in range(rng.randint(8, 20)):
            t += rng.randint(400_000, 1_500_000)
            emit(Operation.WRITE, path, t)
    elif profile is BenignProfile.ZIPPER:
        archive = f"{spec.tree.root}/archive_{spec.seed % 100:02d}.zip"
        emit(Operation.CREATE, archive, t)
        hi = min(120, len(layout.files))
        for path in layout.files[: rng.randint(min(40, hi), hi)]:
            emit(Operation.READ, path, t)
            emit(Operation.WRITE, archive, t + 3_000)
            emit(Operation.DELETE, path, t + 6_000)
            t += rng.randint(15_000, 40_000)
    else:  # pragma: no cover
        raise BadSpec(f"unknown profile {profile}")

    if not (kind.touch_decoy and spec.decoy_paths):
        return []
    decoy = spec.decoy_paths[0]
    slot = max(1, len(events) // 6)
    emit(Operation.WRITE, decoy, events[slot - 1].time if events else spec.start_us)
    events.insert(slot, events.pop())  # the write lands a sixth of the way into the run
    return [decoy]


def generate(spec: ScenarioSpec) -> ScenarioResult:
    """Realize a scenario spec into events, ground truth and note texts."""
    kind = spec.kind
    ransomware = isinstance(kind, RansomwareSpec)
    rng = random.Random(spec.seed)
    layout = tree_layout(spec.tree, spec.seed)
    pid = rng.randint(2000, 60000)
    pid_name = rng.choice(_RANSOM_PID_NAMES) if ransomware else _BENIGN_PID_NAMES[kind.profile]
    events: list[FileEvent] = []

    def emit(op: Operation, path: str, when: int, old: Optional[str] = None) -> None:
        events.append(FileEvent(when, pid, pid_name, op, path, extension_of(path), old))

    if ransomware:
        files, notes, decoys_touched = _ransomware_body(spec, layout, rng, emit)
    else:
        files, notes = [], {}
        decoys_touched = _benign_body(spec, layout, rng, emit, events)
    events.sort(key=lambda ev: ev.time)  # mix needs time order; stable, so ties keep emission order
    truth = {
        "pid": pid,
        "pid_name": pid_name,
        "label": "ransomware" if ransomware else "benign",
        "mode": kind.mode.value if ransomware else None,
        "profile": None if ransomware else kind.profile.value,
        "seed": spec.seed,
        "files": files,
        "note_paths": sorted(notes),
        "decoys_touched": decoys_touched,
        "event_count": len(events),
    }
    return ScenarioResult(spec, tuple(events), truth, notes)


@dataclass(frozen=True)
class Mix:
    """Several scenarios merged into one replay: the events in time order, a
    registry of every scenario's decoys, their notes and each pid's ground truth."""

    events: tuple[FileEvent, ...]
    registry: DecoyRegistry
    notes: dict[str, str]
    truth: dict[int, dict]


def mix(specs: Sequence[ScenarioSpec], pids: Optional[Sequence[int]] = None) -> Mix:
    """Generate each spec and merge them into one stream, equal times in spec order.

    Without ``pids`` each scenario keeps the pid the simulator drew; with
    them, each scenario's events and truth take its pid. Raises BadSpec
    unless there is one pid per spec and no two are alike.
    """
    if pids is not None and len(pids) != len(specs):
        raise BadSpec(f"mix takes one pid per spec: {len(pids)} pids for {len(specs)} specs")
    results = [generate(spec) for spec in specs]
    pids = [result.ground_truth["pid"] for result in results] if pids is None else list(pids)
    if len(set(pids)) != len(pids):
        raise BadSpec(f"mixed scenarios must have distinct pids, got {pids}")
    streams, registry, notes, truth = [], DecoyRegistry(), {}, {}
    for pid, result in zip(pids, results):
        streams.append([replace(ev, pid=pid) for ev in result.events])
        for path in result.spec.decoy_paths:
            registry.register(path, "digest", DecoyKind.DOCUMENT)
        notes.update(result.notes)
        truth[pid] = {**result.ground_truth, "pid": pid}
    return Mix(tuple(heapq.merge(*streams, key=lambda ev: ev.time)), registry, notes, truth)


def write_scenario(result: ScenarioResult, out_dir: Union[str, Path]) -> dict[str, Path]:
    """Write trace.jsonl, ground_truth.json and notes.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out / "trace.jsonl",
        "ground_truth": out / "ground_truth.json",
        "notes": out / "notes.json",
    }
    paths["trace"].write_text(serialize_events(result.events), encoding="utf-8")
    paths["ground_truth"].write_text(
        json.dumps(result.ground_truth, indent=2, sort_keys=True), encoding="utf-8"
    )
    paths["notes"].write_text(json.dumps(result.notes, indent=2, sort_keys=True), encoding="utf-8")
    return paths


# --------------------------------------------------------------------------
# Labeled window corpus for training
# --------------------------------------------------------------------------

_CORPUS_MODES = tuple(Mode)
_CORPUS_PROFILES = (
    BenignProfile.OFFICE,
    BenignProfile.INSTALLER,
    BenignProfile.BACKUP,
    BenignProfile.INDEXER,
    BenignProfile.EDITOR,
)


@dataclass(frozen=True)
class Corpus:
    """Feature matrix (expert + embedding columns), labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    meta: tuple[dict, ...]
    dims: int
    hash_seed: int

    def save(self, out_dir: Union[str, Path]) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(out / "corpus.npz", X=self.X, y=self.y)
        (out / "meta.json").write_text(
            json.dumps({"dims": self.dims, "hash_seed": self.hash_seed, "windows": list(self.meta)}, indent=2),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, in_dir: Union[str, Path]) -> "Corpus":
        """Read a directory that ``save`` wrote. Raises ValueError in one line unless
        corpus.npz is an undamaged npz archive of ``X`` and ``y``, meta.json is well typed with a
        ``dims`` and ``hash_seed`` that a model file holds, ``X`` holds rows of
        N_EXPERT_FEATURES + dims features, and ``y`` and meta.json's ``windows`` one item per row."""
        path = Path(in_dir)
        with open(path / "corpus.npz", "rb") as fp:  # a missing file stops here, with its OSError
            if not zipfile.is_zipfile(fp):
                raise ValueError("corpus.npz is not an npz archive")
        try:
            with np.load(path / "corpus.npz") as data:
                for name in ("X", "y"):
                    if name not in data.files:
                        raise ValueError(f'corpus.npz: "{name}" is missing')
                X, y = data["X"], data["y"]
        except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError) as exc:  # what a damaged archive raises
            raise ValueError(f"corpus.npz is damaged: {exc}") from None
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        (dims,), (hash_seed,), (windows,) = columns([meta], CORPUS_META, "corpus meta.json")
        check_dims(dims)
        check_hash_seed(hash_seed)
        width = N_EXPERT_FEATURES + dims
        if X.shape[1:] != (width,):  # and so X is 2-D
            raise ValueError(f"corpus.npz: X must hold rows of {width} features, as meta.json's dims {dims} give, "
                             f"got shape {X.shape}")
        if y.shape != X.shape[:1]:
            raise ValueError(f"corpus.npz: y must hold one label for each of the {len(X)} rows, got shape {y.shape}")
        if len(windows) != len(X):
            raise ValueError(f'corpus meta.json: "windows" must hold one object for each of the {len(X)} rows, '
                             f"got {len(windows)}")
        return cls(X, y, tuple(windows), dims, hash_seed)


def scenario_windows(result: ScenarioResult, min_events: int = 3) -> list[ProcessWindow]:
    """The funnel's slide-aligned prefix windows (1 s, 2 s, 3 s) per anchor point.

    Anchors mirror how the funnel opens windows: one at the first event and,
    for longer traces, one mid-trace (a monitoring point can fire anywhere in
    a run, e.g. on a decoy planted deep in the tree, so the classifier must
    also see windows that start amid ongoing activity).
    """
    if not result.events:
        return []
    pid = result.ground_truth["pid"]
    anchors = [result.events[0].time]
    if len(result.events) > 12:
        mid = result.events[int(len(result.events) * 0.45)].time
        if mid > anchors[0]:
            anchors.append(mid)
    cfg = PipelineConfig()
    windows = []
    for t0 in anchors:
        last_count = -1
        for k in range(1, cfg.n_slides + 1):
            window = window_events(result.events, pid, t0, k * cfg.slide_us)
            if len(window.events) < min_events or len(window.events) == last_count:
                continue
            last_count = len(window.events)
            windows.append(window)
    return windows


def build_corpus(
    n_ransom: int,
    n_benign: int,
    seed: int,
    include_zipper: bool = False,
) -> Corpus:
    """Labeled window corpus ready for training.

    Scenarios cycle through all six encryption modes and the benign profiles;
    each scenario contributes up to three trigger-anchored prefix windows.
    The zip-like profile (mass create+delete stress case) joins the benign
    mix only when include_zipper is set. Rows are built with the default
    embedding width and hash seed.
    """
    if n_ransom < 1 or n_benign < 1:
        raise BadSpec("corpus needs both classes")
    rng = random.Random(seed)
    profiles = _CORPUS_PROFILES + ((BenignProfile.ZIPPER,) if include_zipper else ())
    rows: list[np.ndarray] = []
    labels: list[int] = []
    meta: list[dict] = []
    # tree shapes range from many small directories to a few big ones and from
    # shallow to deep nesting, so the classifier sees note-dense and
    # note-sparse windows across the whole path-depth bucket range
    shapes = [(2, 3), (1, 2), (2, 2), (1, 4), (3, 3), (3, 4), (4, 2)]
    sizes = [60, 90, 140, 240, 400]

    for label, want, seed_base in ((1, n_ransom, 0), (0, n_benign, 500_000)):
        i = 0
        while want > 0:
            depth, fanout = rng.choice(shapes)
            if label:
                kind = RansomwareSpec(
                    mode=_CORPUS_MODES[i % len(_CORPUS_MODES)],
                    files_per_second=rng.choice([25, 40, 60, 90, 130, 200, 320]),
                    note_every_k_dirs=rng.choice([1, 2, 3]),
                )
            else:
                kind = BenignSpec(profile=profiles[i % len(profiles)])
            tree = TreeSpec(depth=depth, fanout=fanout, files=rng.choice(sizes))
            result = generate(ScenarioSpec(kind, seed=seed * 1000 + seed_base + i, tree=tree))
            for window in scenario_windows(result)[:want]:
                rows.append(featurize(window, DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED))
                labels.append(label)
                meta.append(
                    {
                        "label": label,
                        "mode": result.ground_truth["mode"],
                        "profile": result.ground_truth["profile"],
                        "seed": result.spec.seed,
                        "events": len(window.events),
                        "window_end": window.window_end,
                    }
                )
                want -= 1
            i += 1

    X = np.stack(rows)
    y = np.asarray(labels, dtype=np.int8)
    return Corpus(X, y, tuple(meta), DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED)


# --------------------------------------------------------------------------
# CLI spec parsing
# --------------------------------------------------------------------------

_MODE_BY_NAME = {m.value.lower(): m for m in Mode}
_PROFILE_BY_NAME = {p.value: p for p in BenignProfile}


def spec_from_kind(
    kind: str,
    seed: int = 0,
    fps: float = 60.0,
    note_every_k_dirs: int = 1,
    avoid_decoys: bool = False,
    touch_decoy: bool = False,
    tree: TreeSpec = TreeSpec(),
    decoy_paths: Sequence[str] = (),
) -> ScenarioSpec:
    """Build a ScenarioSpec over ``tree`` from a CLI-style kind name ("m3", "office", ...)."""
    kind_l = kind.lower()
    if kind_l in _MODE_BY_NAME:
        scenario = RansomwareSpec(_MODE_BY_NAME[kind_l], fps, note_every_k_dirs, avoid_decoys)
    elif kind_l in _PROFILE_BY_NAME:
        scenario = BenignSpec(_PROFILE_BY_NAME[kind_l], touch_decoy)
    else:
        raise BadSpec(f"unknown scenario kind {kind!r}")
    return ScenarioSpec(scenario, seed, tree, tuple(decoy_paths))


def _given(obj, table: dict, what: str) -> dict:
    """The fields of JSON object ``obj`` that ``table`` names, each of its JSON type; lists as tuples."""
    (obj,) = check([obj], OBJECT, what, error=BadSpec)
    table = {name: jtype for name, jtype in table.items() if name in obj}
    values = columns([obj], table, what, BadSpec)
    return {name: tuple(value) if table[name].items else value for name, (value,) in zip(table, values)}


def spec_from_json(text: str) -> ScenarioSpec:
    """Parse a scenario spec from its JSON form (see README for the schema).

    Fields the JSON leaves out take the defaults of ``spec_from_kind`` and
    ``TreeSpec``; a top-level ``files`` applies when ``tree`` gives none.
    Raises ValueError (BadSpec or JSONDecodeError) for text that is not a JSON
    object with a string ``kind``, for a field of the wrong JSON type (see
    ``jsontypes.RANSOMWARE_SPEC``, ``BENIGN_SPEC`` and ``TREE``), for a field
    of the other class of kind, or for a value the spec types refuse.
    """
    obj = json.loads(text)
    what = 'a spec must be a JSON object with a string "kind"'
    given = _given(obj, {**RANSOMWARE_SPEC, **BENIGN_SPEC}, what)
    if "kind" not in given:
        raise BadSpec(f'{what}: "kind" is missing')
    tree = _given(obj.get("tree", {}), TREE, '"tree" must be an object of depth, fanout, files, extensions and root')
    spec = spec_from_kind(tree=TreeSpec(**{"files": given.pop("files", TreeSpec().files), **tree}), **given)
    own = RANSOMWARE_SPEC if isinstance(spec.kind, RansomwareSpec) else BENIGN_SPEC
    stray = [name for name in given if name not in own]
    if stray:
        raise BadSpec(f'kind "{given["kind"]}" takes no "{stray[0]}"')
    return spec
