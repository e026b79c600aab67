"""The behavior-graph labels are exact: reference formulation, digit folding, golden digest.

The labels are part of the model contract: a model is trained on rows built
from them, so any change to a label changes what a saved model reads.
"""
from __future__ import annotations

import hashlib
import random
import string

import pytest

from ransomwatch.events import FileEvent, Operation, extension_of
from ransomwatch import features
from ransomwatch.features import WindowFold, name_pattern_class
from ransomwatch.simulator import (
    BenignProfile,
    BenignSpec,
    Mode,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    generate,
)

from oracles import event_params, file_event, ref_edges, ref_features, ref_name_pattern_class, ref_pairs


def fold_labels(file_name: str, file_type: str) -> tuple[str, str, str]:
    """The (extension, depth, name-pattern) labels that a fold of one event on the path writes."""
    fold = WindowFold()
    fold.add([FileEvent(0, 4, "p.exe", Operation.WRITE, file_name, file_type)])
    ((_op, *labels),) = fold.pairs
    return tuple(labels)


def _label_corpus() -> list[tuple[str, str]]:
    """(file_name, file_type) of every path in a fixed set of seeded scenarios."""
    trees = (
        TreeSpec(depth=1, fanout=3, files=30, root="D:\\share\\Data"),
        TreeSpec(depth=3, fanout=3, files=90),
        TreeSpec(depth=6, fanout=2, files=60, root="//server/share"),
    )
    specs = []
    for seed, tree in enumerate(trees, start=1):
        for i, mode in enumerate(Mode):
            specs.append(ScenarioSpec(RansomwareSpec(mode=mode, files_per_second=200), 100 * seed + i, tree))
        for i, profile in enumerate(BenignProfile):
            specs.append(ScenarioSpec(BenignSpec(profile=profile), 100 * seed + 50 + i, tree))
    pairs = []
    for spec in specs:
        for ev in generate(spec).events:
            pairs.append((ev.file_name, ev.file_type))
            if ev.old_file_name is not None:
                pairs.append((ev.old_file_name, extension_of(ev.old_file_name)))
    return pairs


ADVERSARIAL_NAMES = [
    "",
    "/",
    "\\",
    "C:",
    "C:/",
    "D:\\",
    "dir/",
    "C:/Users/alice/",
    "x.txt",
    ".profile",
    "C:/u/.hidden",
    "C:\\Users\\alice\\Documents\\report_0001.docx",
    "C:\\\\Users\\\\alice\\\\x.txt",
    "C://Users//alice//x.txt",
    "C:/Users\\alice/Documents\\x.txt",
    "\\\\server\\share\\dir\\x.txt",
    "//server/share/dir/x.txt",
    "C:/a:b/c:/x.txt",
    "C:/a/b/c/d/e/f/g/h/i/j/k.txt",
    "C:/u/HOW_TO_DECRYPT.TXT",
    "C:/u/ReadMe.md",
    "C:/u/READ ME NOW",
    "C:/u/how - to.txt",
    "C:/u/\u0131nstruct\u0131ons.txt",  # dotless i
    "C:/u/\u0131mportant",
    "C:/u/ran\u017fom.html",  # long s
    "C:/u/re\u017ftore_files.txt",
    "C:/u/unloc\u212a.txt",  # Kelvin sign
    "C:/u/\u0130MPORTANT.txt",  # capital I with dot above
    "C:/u/\u0130nstruction.txt",
    "C:/u/R\u0130NSOM.txt",
    "C:/u/\u017f\u017f\u017f\u017f\u017f\u017f\u017f\u017f\u017f\u017f.txt",
    "C:/u/\u0131\u0131\u0131-\u0131\u0131\u0131.txt",
    "C:/u/DEADBEEF00.bin",
    "C:/u/deadbeef",
    "C:/u/a1b2c3d4e5f6.docx",
    "C:/u/report_0012.docx.xyz666",
    "C:/u/report_0012.docx.a8f3kq",
    "C:/u/abc-def_123-456.txt",
    "C:/u/\u0663\u0663\u0663abcdefgh.txt",  # Arabic-Indic digits
    "C:/u/\uff11\uff12\uff13abcdefgh.txt",  # full-width digits
    "C:/u/report\u00b2\u00b3\u2074abcdef.txt",  # digits that are not decimal
    "C:/u/family budget",
    "C:/u/\u01c5ungla.txt",  # title-case letter
    "C:/u/stra\u00dfe.txt",
    "C:/u/\ufb05tore.txt",  # ligature long s t
    # a stem cut once more would read hash for the second name too; its stem is timeline_0000.docx
    "C:/u/timeline_0000.docx",
    "C:/u/timeline_0000.docx.fgxs",
    "C:/u/report_\udcff12.txt",  # lone surrogates, as surrogateescape decodes undecodable bytes
    "C:/u/\udcff\udcfe12345678.txt",
    "C:/u/\ud800abc1234567",
    "C:/u/1\u06632\u06643\u0665abcd.txt",  # ASCII and Arabic-Indic digits mixed
    "C:/u/\u0663\u0664deadbeef12.txt",
    "C:/u/ab\u06601.txt",
]


def _random_names(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    alphabet = (
        string.ascii_letters + string.digits + "/\\:._- "
        + "\u0131\u017f\u212a\u0130\u00df\ufb05\u0663\uff11\u00b2\u01c5\u0307\u2028"
    )
    words = ["how", "to", "read", "me", "decrypt", "ransom", "help", "restore", "instruction", "C:", "\\\\", "//"]
    names = []
    for _ in range(count):
        parts = [rng.choice(words) if rng.random() < 0.3 else rng.choice(alphabet) for _ in range(rng.randint(0, 24))]
        names.append("".join(parts))
    return names


@pytest.mark.parametrize(
    "name,expected",
    [
        ("C:/a/HOW_TO_DECRYPT.txt", "note"),
        ("C:/a/readme.md", "note"),
        ("C:/a/8f2c9a1d4b7e.dat", "hash"),
        ("C:/a/x7k2q9w8e1r4.pdf", "hash"),
        ("C:/a/budget_report.docx", "word"),
        ("C:/a/report-final.txt", "word"),
        ("C:/a/a1!b.txt", "other"),
    ],
)
def test_name_pattern_classes(name, expected):
    assert name_pattern_class(name) == expected


@pytest.mark.parametrize(
    "path,bucket",
    [
        ("x.txt", 0),
        ("C:/x.txt", 0),
        ("C:/a/x.txt", 1),
        ("C:/a/b/c/d/e/f/g/h/x.txt", 7),
        ("C:\\a\\b\\x.txt", 2),
    ],
)
def test_depth_buckets(path, bucket):
    assert fold_labels(path, extension_of(path))[1] == f"depth:{bucket}"


def test_rare_extension_collapses():
    ext_a = fold_labels("C:/a/x.docx.k3xq7", "k3xq7")[0]
    ext_b = fold_labels("C:/a/y.pdf.zz91m", "zz91m")[0]
    assert ext_a == ext_b == "ext:#rare"
    assert fold_labels("C:/a/x.txt", "txt")[0] == "ext:txt"


def test_labels_equal_reference_formulation():
    names = [name for name, _ in _label_corpus()] + ADVERSARIAL_NAMES + _random_names(3000, seed=8)
    classes = set()
    for name in names:
        pattern = ref_name_pattern_class(name)
        assert name_pattern_class(name) == pattern, name
        assert fold_labels(name, extension_of(name)) == event_params(name, extension_of(name)), name
        classes.add(pattern)
    assert classes == {"note", "hash", "word", "other"}
    assert name_pattern_class("C:/u/ran\u017fom.html") == "note"
    assert name_pattern_class("C:/u/\u0131mportant") == "note"


# Digests of the corpus and of its label triples, computed with the first
# formulation of the labels. The triples are plain strings, so the digest is
# the same on every platform.
CORPUS_SIZE = 6069
CORPUS_DIGEST = "752dce8ab3b809f596d03cec4e92f2c679982a3516edfcdcf578e1f3eaae9366"
LABELS_DIGEST = "5018279bd3dfc3d9898bce57268879e651b6ea93e28de37c6438c7606677f3c1"


def test_label_triples_match_golden_digest():
    pairs = _label_corpus()
    corpus = hashlib.sha256("".join(f"{n}\t{t}\n" for n, t in pairs).encode("utf-8")).hexdigest()
    assert (len(pairs), corpus) == (CORPUS_SIZE, CORPUS_DIGEST), "the simulator's paths changed, not the labels"
    labels = "".join("\t".join(fold_labels(n, t)) + "\n" for n, t in pairs)
    assert labels == "".join("\t".join(event_params(n, t)) + "\n" for n, t in pairs)
    assert hashlib.sha256(labels.encode("utf-8")).hexdigest() == LABELS_DIGEST, (
        "graph labels changed: every saved model reads different rows"
    )


def _memo_names() -> list[str]:
    return [name for name, _ in _label_corpus()] + ADVERSARIAL_NAMES + _random_names(3000, seed=8)


def test_classes_do_not_tell_ascii_digits_apart():
    # The premise of the memo key, checked on the reference alone.
    rng = random.Random(14)
    checked = 0
    for name in _memo_names():
        if not any(c in string.digits for c in name):
            continue
        expected = ref_name_pattern_class(name)
        for _ in range(4):
            other = "".join(rng.choice(string.digits) if c in string.digits else c for c in name)
            assert ref_name_pattern_class(other) == expected, (name, other)
        checked += 1
    assert checked > 1000


def test_memoized_classes_equal_reference_cold_and_warm():
    names = _memo_names()
    expected = [ref_name_pattern_class(name) for name in names]
    features._CLASS_BY_FOLDED_STEM.clear()
    assert [name_pattern_class(name) for name in names] == expected
    assert [name_pattern_class(name) for name in reversed(names)] == expected[::-1]


def test_class_memo_is_bounded():
    rng = random.Random(15)
    stems = list(dict.fromkeys(f"{rng.getrandbits(64):016x}" for _ in range(3 * features._CLASS_MEMO_SIZE)))
    assert len(stems) == 3 * features._CLASS_MEMO_SIZE
    features._CLASS_BY_FOLDED_STEM.clear()
    largest = 0
    for stem in stems:
        assert name_pattern_class(f"C:/u/{stem}.bin") == ref_name_pattern_class(f"C:/u/{stem}.bin")
        largest = max(largest, len(features._CLASS_BY_FOLDED_STEM))
    assert largest == features._CLASS_MEMO_SIZE == 4096
    # the fold reads the memo itself and fills it only through a miss
    events = [file_event(Operation.WRITE, f"C:/u/{stem}.bin", time=i) for i, stem in enumerate(stems)]
    features._CLASS_BY_FOLDED_STEM.clear()
    fold, largest = WindowFold(), 0
    for end in range(256, len(events) + 256, 256):
        fold.add(events[:end])
        largest = max(largest, len(features._CLASS_BY_FOLDED_STEM))
    assert features._CLASS_MEMO_SIZE - 256 < largest <= features._CLASS_MEMO_SIZE  # read once per 256 events
    assert list(fold.pairs.items()) == list(ref_pairs(events).items())


# Names whose class turns on case, ASCII digits, script or where the stem ends,
# each in folders written with either separator.
_CASE_AND_SCRIPT_NAMES = [
    "README.TXT", "ReadMe.Txt", "rEaDmE", "HOW_TO_DECRYPT.HTML", "How-To-Restore.txt",
    "DEADBEEF01.bin", "DeadBeef01.BIN", "deadbeef01.bin", "deadbeef92.bin",
    "Report2023Q4Final.docx", "report2023q4final.docx", "REPORT1999Q1FINAL.DOCX",
    "Budget_Report.xlsx", "BUDGET-REPORT.xlsx", "budget_report2.xlsx", "ABC123DEF456", "abc999def000",
    "\u00c9t\u00e9.txt", "\u00e9T\u00c9.TXT", "\u6587\u4ef6.doc", "Stra\u00dfe.txt", "STRASSE.txt",
    "\u0130MPORTANT.txt", "RAN\u017fOM.html", "\u03a9mega0123456789", "\u03c9MEGA9876543210",
    b"caf\xe9.txt".decode("utf-8", "surrogateescape"), b"\xff\xfe12345678".decode("utf-8", "surrogateescape"),
    "Makefile", "LICENSE", "1234567890", "x",
    ".profile", ".PROFILE", ".bashrc", ".hidden.txt", "..", ".", "a.", "...txt", "archive.tar.gz",
]
_FOLDERS = ["", "/", "C:/u/docs/", "C:\\u\\docs\\", "D:/x\\y/", "\\\\server\\share\\"]


def test_the_fold_equals_the_oracles_on_case_script_and_dot_names_cold_and_warm():
    ops = list(Operation)
    paths = [folder + name for name in _CASE_AND_SCRIPT_NAMES for folder in _FOLDERS]
    events = []
    for i, path in enumerate(paths):
        op = ops[i % len(ops)]
        events.append(file_event(op, path, time=i, old=paths[i - 1] if op is Operation.RENAME else None))
    features._CLASS_BY_FOLDED_STEM.clear()
    for _memo in ("cold", "warm"):
        fold = WindowFold()
        fold.add(events)
        assert fold.row().tolist() == ref_features(events)
        assert list(fold.edges().items()) == list(ref_edges(events).items())
        assert list(fold.pairs.items()) == list(ref_pairs(events).items())
    classes = {key[3] for key in fold.pairs}
    assert classes == {"name:note", "name:hash", "name:word", "name:other"}
