"""Seeded workload generators for the funnel benchmark.

Each workload writes the files the program reads (trace, a prefix of it to
warm up on, decoy registry, note contents, gene pool, model) plus a
ground-truth file that only the benchmark reads. The same seed always writes the same files.

Run as a script to prepare one workload:

    python3 perfbench/workloads.py --workload triggered_mix --seed 7 --out perfbench/out/triggered_mix

The benchmark does this in a child process, so that the generator's memory
never counts towards the replay's peak resident memory.
"""
from __future__ import annotations

import argparse
import heapq
import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_package() -> None:
    """Put the checkout's own sources first on the import path, or exit."""
    if not (SRC / "ransomwatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ransomwatch sources under {SRC}")
    sys.path.insert(0, str(SRC))


require_package()

from ransomwatch.decoys import DecoyKind, DecoyRegistry  # noqa: E402
from ransomwatch.events import FileEvent, Operation, extension_of, serialize_events  # noqa: E402
from ransomwatch.features import Mode  # noqa: E402
from ransomwatch.gbdt import BoostParams, fit  # noqa: E402
from ransomwatch.notes import build_pool, tokenize  # noqa: E402
from ransomwatch.simulator import (  # noqa: E402
    BenignProfile,
    BenignSpec,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    build_corpus,
    generate,
    make_benign_text,
    make_note_corpus,
    tree_layout,
)

US = 1_000_000

# The model and pool are the acceptance suite's: the same corpus sizes and
# seeds, so the benchmark replays against the classifier those gates accept.
# They do not vary with the workload seed; only the traces do.
CORPUS_SEED = 11
POOL_SEED = 31

BENIGN_MIX_EVENTS = 250_000
TEXT_DOCS_PIDS = 8
TEXT_DOCS_FILES_PER_PID = 1_500
TRIGGERED_BENIGN = 420
TRIGGERED_RANSOM = 96
WARM_SHARE = 10  # the warm-up trace is the first 1/WARM_SHARE of the events


def benign_mix(seed: int) -> tuple[list[FileEvent], DecoyRegistry, dict[str, str], dict]:
    """Criterion 7's stream: 8 pids, half Reads, no decoys, no note content."""
    rng = random.Random(seed)
    base = rng.randrange(100, 50_000)
    pids = [base + p for p in range(8)]
    paths = [
        f"C:/Users/u{p}/Documents/file_{i:03d}.{ext}"
        for p in range(8) for i in range(40) for ext in ("docx", "xlsx", "log", "txt")
    ]
    ops = (Operation.READ,) * 3 + (Operation.WRITE,) * 2 + (Operation.CREATE,)
    events = []
    t = 0
    for _ in range(BENIGN_MIX_EVENTS):
        pid = rng.choice(pids)
        path = rng.choice(paths)
        t += rng.randint(1, 13)
        events.append(FileEvent(t, pid, f"app{pid}.exe", rng.choice(ops), path, extension_of(path)))
    truth = {pid: {"label": "benign", "max_level": "None"} for pid in pids}
    return events, DecoyRegistry(), {}, truth


def text_docs(seed: int) -> tuple[list[FileEvent], DecoyRegistry, dict[str, str], dict]:
    """Editors that Create, Write x3 and Read thousands of distinct documents."""
    rng = random.Random(seed)
    base = rng.randrange(100, 50_000)
    streams = []
    contents: dict[str, str] = {}
    truth = {}
    for k in range(TEXT_DOCS_PIDS):
        pid = base + k
        name = f"editor{k}.exe"
        events = []
        t = rng.randrange(0, 1_000)
        for j in range(TEXT_DOCS_FILES_PER_PID):
            ext = rng.choice(("txt", "md", "html", "docx"))
            path = f"C:/Users/e{k}/Documents/draft_{j:05d}.{ext}"
            if ext != "docx":
                contents[path] = make_benign_text(rng)
            for op in (Operation.CREATE, Operation.WRITE, Operation.WRITE, Operation.WRITE, Operation.READ):
                events.append(FileEvent(t, pid, name, op, path, ext))
                t += rng.randint(100, 2_000)
        streams.append(events)
        truth[pid] = {"label": "benign", "max_level": "None"}
    merged = list(heapq.merge(*streams, key=lambda ev: ev.time))
    return merged, DecoyRegistry(), contents, truth


_TOUCHER_PROFILES = (
    BenignProfile.OFFICE,
    BenignProfile.BACKUP,
    BenignProfile.EDITOR,
    BenignProfile.INSTALLER,
    BenignProfile.ZIPPER,
)
_MODES = (Mode.M1, Mode.M2, Mode.M3, Mode.M4, Mode.M5, Mode.M6)
# 16 rates from 60 to 1000 files/s, each run in all six modes.
_RATES = tuple(60 + (1000 - 60) * k / 15 for k in range(16))
_START_SPREAD_US = 60 * US


def triggered_mix(seed: int) -> tuple[list[FileEvent], DecoyRegistry, dict[str, str], dict]:
    """Benign decoy-touchers and ransomware runs, every one of them triggered.

    Each scenario gets its own tree root, so no two scenarios share a path,
    and its own pid. The mix of profiles, modes and rates is the same for
    every seed; the seed moves layouts, names and start times.
    """
    rng = random.Random(seed)
    registry = DecoyRegistry()
    results = []
    labels = []
    for i in range(TRIGGERED_BENIGN):
        root = f"C:/Users/b{i:03d}"
        decoy = f"{root}/Documents/family_budget_{i:03d}.docx"
        registry.register(decoy, "digest", DecoyKind.DOCUMENT)
        spec = ScenarioSpec(
            kind=BenignSpec(profile=_TOUCHER_PROFILES[i % len(_TOUCHER_PROFILES)], touch_decoy=True),
            seed=rng.randrange(1 << 30),
            tree=TreeSpec(depth=2, fanout=3, files=120, root=root),
            decoy_paths=(decoy,),
            start_us=rng.randrange(_START_SPREAD_US),
        )
        results.append(generate(spec))
        labels.append("benign")
    for i in range(TRIGGERED_RANSOM):
        fps = _RATES[i // len(_MODES)]
        tree = TreeSpec(depth=2, fanout=3, files=max(120, round(fps * 1.6)), root=f"C:/Users/r{i:03d}")
        scenario_seed = rng.randrange(1 << 30)
        decoy = f"{tree_layout(tree, scenario_seed).dirs[0]}/family_budget_r{i:03d}.docx"
        registry.register(decoy, "digest", DecoyKind.DOCUMENT)
        spec = ScenarioSpec(
            kind=RansomwareSpec(mode=_MODES[i % len(_MODES)], files_per_second=fps, note_every_k_dirs=3),
            seed=scenario_seed,
            tree=tree,
            decoy_paths=(decoy,),
            start_us=rng.randrange(_START_SPREAD_US),
        )
        results.append(generate(spec))
        labels.append("ransomware")

    # the simulator draws pids at random; give every scenario its own
    pids = rng.sample(range(2_000, 60_000), len(results))
    streams = []
    notes: dict[str, str] = {}
    truth = {}
    for pid, label, result in zip(pids, labels, results):
        streams.append([replace(ev, pid=pid) for ev in result.events])
        notes.update(result.notes)
        if label == "ransomware":
            truth[pid] = {
                "label": label,
                "encrypted_at": [f["encrypted_at"] for f in result.ground_truth["files"]],
            }
        else:
            truth[pid] = {"label": label, "max_level": "Low"}
    merged = list(heapq.merge(*streams, key=lambda ev: ev.time))
    return merged, registry, notes, truth


WORKLOADS = {
    "benign_mix": benign_mix,
    "text_docs": text_docs,
    "triggered_mix": triggered_mix,
}


def prepare(workload: str, seed: int, out: Path) -> None:
    """Write the program's inputs and the benchmark's ground truth under out.

    out is emptied first, so no file of an earlier run is left to be read.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    events, registry, contents, truth = WORKLOADS[workload](seed)
    (out / "trace.jsonl").write_text(serialize_events(events), encoding="utf-8")
    # a prefix of the trace, replayed once to warm up before timing
    (out / "warm.jsonl").write_text(serialize_events(events[: len(events) // WARM_SHARE]), encoding="utf-8")
    registry.save(out / "decoys.json")
    if contents:
        (out / "notes.json").write_text(json.dumps(contents), encoding="utf-8")
    ground_truth = {"lines": len(events), "pids": {str(pid): info for pid, info in truth.items()}}
    (out / "truth.json").write_text(json.dumps(ground_truth), encoding="utf-8")

    corpus = build_corpus(240, 260, seed=CORPUS_SEED)
    forest = fit(corpus.X, corpus.y, BoostParams(), dims=corpus.dims, hash_seed=corpus.hash_seed)
    forest.save(out / "model.bin")
    pool = build_pool([tokenize(t) for t in make_note_corpus(100, seed=POOL_SEED)], n=3, top_k=300)
    pool.save(out / "pool.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
