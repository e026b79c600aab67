"""Input files: every field of every JSON format is type-checked by its table, and what each writer saves loads back."""
from __future__ import annotations

import copy
import json
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ransomwatch import cli, jsontypes
from ransomwatch.decoys import DecoyKind, DecoyRegistry
from ransomwatch.events import window_events
from ransomwatch.features import DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED, N_EXPERT_FEATURES, Mode
from ransomwatch.notes import GenePool, build_pool, tokenize
from ransomwatch.pipeline import MappingContentProvider, featurize
from ransomwatch.simulator import (
    BenignProfile,
    Corpus,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    build_corpus,
    generate,
    make_note_corpus,
    spec_from_json,
    write_scenario,
)

# One value of each JSON kind, and the kinds each JSON type takes; written out
# here rather than read from the tables, so the tables are checked against it.
_SAMPLES = {
    "null": None, "boolean": True, "integer": 7, "fraction": 2.5, "string": "7", "object": {"a": 1},
    "list of integers": [7], "list of fractions": [2.5], "list of strings": ["7"], "list of objects": [{"a": 1}],
    "list of booleans": [True], "list of nulls": [None], "list of lists": [[]],
}
_TAKES = {
    jsontypes.INTEGER: {"integer"},
    jsontypes.INTEGER_OR_NULL: {"integer", "null"},
    jsontypes.NUMBER: {"integer", "fraction"},
    jsontypes.BOOLEAN: {"boolean"},
    jsontypes.STRING: {"string"},
    jsontypes.OBJECT: {"object"},
    jsontypes.STRINGS: {"list of strings"},
    jsontypes.NUMBERS: {"list of integers", "list of fractions"},
    jsontypes.OBJECTS: {"list of objects"},
    jsontypes.ANY: set(_SAMPLES),
}
# a spec's "tree" is checked by the spec loader, as an object of TREE's fields
_SPEC_FIELDS = {**jsontypes.RANSOMWARE_SPEC, **jsontypes.BENIGN_SPEC, "tree": jsontypes.OBJECT}


def _write_corpus_meta(path: Path, payload) -> None:
    path.mkdir(exist_ok=True)
    dims = payload.get("dims")  # rows as wide as an integer dims asks, so only the meta.json change is refused
    width = N_EXPERT_FEATURES + dims if type(dims) is int else 3
    np.savez(path / "corpus.npz", X=np.zeros((2, width)), y=np.array([0, 1]))
    (path / "meta.json").write_text(json.dumps(payload), encoding="utf-8")


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


_text = st.text(max_size=6)
_integers = st.integers(-(2**70), 2**70)
_numbers = _integers | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _pools(draw):
    n = draw(st.integers(1, 3))
    word_lists = draw(st.lists(st.lists(_text, min_size=n, max_size=n), min_size=1, max_size=4, unique_by=tuple))
    scores = draw(st.lists(st.integers(0, 9) | st.floats(0, 1e300), min_size=len(word_lists), max_size=len(word_lists)))
    return {
        "n": n,
        "top_k": draw(st.none() | st.integers(len(word_lists), 400)),
        "source_count": draw(st.integers(0, 2**70)),
        "fragments": [{"words": w, "f": f} for w, f in zip(word_lists, sorted(scores, reverse=True))],
    }


@st.composite
def _specs(draw):
    ransomware = draw(st.booleans())
    kinds = [m.value.lower() for m in Mode] if ransomware else [p.value for p in BenignProfile]
    fields = {"seed": _integers, "files": st.integers(1, 50), "decoy_paths": st.lists(_text, max_size=2)}
    if ransomware:
        fields.update(fps=st.floats(1, 1e6), note_every_k_dirs=st.integers(1, 5), avoid_decoys=st.booleans())
    else:
        fields.update(touch_decoy=st.booleans())
    tree = {"depth": st.integers(1, 3), "fanout": st.integers(1, 3), "files": st.integers(1, 50),
            "extensions": st.lists(_text, min_size=1, max_size=3), "root": _text}
    spec = {"kind": draw(st.sampled_from(kinds)), **draw(st.fixed_dictionaries({}, optional=fields))}
    if draw(st.booleans()):
        spec["tree"] = draw(st.fixed_dictionaries({}, optional=tree))
    return spec


_decoy_entries = st.fixed_dictionaries(
    {"content_digest": _text, "deployed_at": _text, "kind": st.sampled_from([k.value for k in DecoyKind])}
)

# name: (valid payloads, how to write one, the loader `cli._load` calls, and
# the (object, table, required fields) of each object a payload holds)
_FORMATS = {
    "pool": (_pools(), _write, GenePool.load,
             lambda p: [(p, jsontypes.POOL, set(p)), (p["fragments"][0], jsontypes.POOL_FRAGMENT, {"words", "f"})]),
    "registry": (st.dictionaries(st.text(min_size=1, max_size=6), _decoy_entries, min_size=1, max_size=3),
                 _write, DecoyRegistry.load,
                 lambda p: [(entry, jsontypes.DECOY_ENTRY, set(entry)) for entry in p.values()]),
    "notes map": (st.dictionaries(_text, st.text(max_size=20), min_size=1, max_size=3),
                  _write, MappingContentProvider.from_json_file,
                  lambda p: [(p, dict.fromkeys(p, jsontypes.STRING), set())]),
    "spec": (_specs(), _write, lambda path: spec_from_json(Path(path).read_text(encoding="utf-8")),
             lambda p: [(p, _SPEC_FIELDS, {"kind"}), (p.setdefault("tree", {}), jsontypes.TREE, set())]),
    "corpus meta": (st.fixed_dictionaries({"dims": st.sampled_from([8, 16, 64, 1024]),
                                            "hash_seed": st.integers(0, 2**64 - 1),
                                            "windows": st.lists(st.dictionaries(_text, _numbers),
                                                                min_size=2, max_size=2)}),  # one per row
                    _write_corpus_meta, Corpus.load, lambda p: [(p, jsontypes.CORPUS_META, set(p))]),
    "features": (st.fixed_dictionaries({"vector": st.lists(_numbers, max_size=4)}), _write, cli._read_vector,
                 lambda p: [(p, jsontypes.FEATURES, {"vector"})]),
}


@pytest.mark.parametrize("name", _FORMATS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_field_of_another_json_type_or_left_out_is_refused_in_one_line_that_names_it(tmp_path, name, data):
    payloads, write, load, objects = _FORMATS[name]
    payload = data.draw(payloads)
    path = tmp_path / name
    write(path, payload)
    load(path)  # the drawn payload is valid
    index, (_, table, required) = data.draw(st.sampled_from(list(enumerate(objects(copy.deepcopy(payload))))))
    field = data.draw(st.sampled_from(sorted(table)))
    changes = [value for kind, value in _SAMPLES.items() if kind not in _TAKES[table[field]]]
    for value in changes + ([...] if field in required else []):
        changed = copy.deepcopy(payload)
        obj = objects(changed)[index][0]
        if value is ...:
            del obj[field]
        else:
            obj[field] = value
        write(path, changed)
        with pytest.raises(ValueError) as refused:
            load(path)
        with pytest.raises(click.ClickException) as stopped:
            cli._load(load, path)
        for message in (str(refused.value), stopped.value.message):
            assert "\n" not in message and json.dumps(field) in message, (field, value, message)
        assert stopped.value.message.startswith(str(path))


def _registry_round_trip(tmp_path):
    saved = DecoyRegistry()
    for i, kind in enumerate(DecoyKind):
        saved.register(f"/d/{i}.bin", f"digest{i}", kind, f"2024-01-0{i + 1}T00:00:00Z")
    saved.register("/d/undated.bin", "digest", DecoyKind.IMAGE)
    saved.save(tmp_path / "decoys.json")
    return saved.entries(), DecoyRegistry.load(tmp_path / "decoys.json").entries()


def _pool_round_trip(tmp_path):
    pool = build_pool([tokenize(t) for t in make_note_corpus(20, seed=5)], n=3, top_k=None)
    return pool, GenePool.from_json(pool.to_json())


def _corpus_round_trip(tmp_path):
    built = build_corpus(3, 3, seed=2)
    built.save(tmp_path / "corpus")
    loaded = Corpus.load(tmp_path / "corpus")
    return (
        (built.X.tolist(), built.y.tolist(), built.meta, built.dims, built.hash_seed),
        (loaded.X.tolist(), loaded.y.tolist(), loaded.meta, loaded.dims, loaded.hash_seed),
    )


def _notes_round_trip(tmp_path):
    result = generate(ScenarioSpec(RansomwareSpec(Mode.M2), seed=4, tree=TreeSpec(depth=2, fanout=2, files=20)))
    paths = write_scenario(result, tmp_path / "scenario")
    loaded = MappingContentProvider.from_json_file(paths["notes"])
    return {path: text.encode() for path, text in result.notes.items()}, {path: loaded.get(path) for path in result.notes}


def _features_round_trip(tmp_path):
    result = generate(ScenarioSpec(RansomwareSpec(Mode.M5), seed=6, tree=TreeSpec(depth=2, fanout=2, files=20)))
    paths = write_scenario(result, tmp_path / "scenario")
    pid = result.ground_truth["pid"]
    out = tmp_path / "fv.json"
    invoked = CliRunner().invoke(cli.main, ["features", "extract", "--log", str(paths["trace"]), "--pid", str(pid),
                                            "--out", str(out)])
    assert invoked.exit_code == 0, invoked.output
    window = window_events(result.events, pid, result.events[0].time, result.events[-1].time - result.events[0].time + 1)
    row = featurize(window, DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED)
    return row.tolist(), cli._read_vector(out).tolist()


@pytest.mark.parametrize("round_trip", [
    _registry_round_trip, _pool_round_trip, _corpus_round_trip, _notes_round_trip, _features_round_trip,
], ids=["registry", "pool", "corpus", "notes-map", "features"])
def test_what_each_writer_saves_loads_back_equal(tmp_path, round_trip):
    written, loaded = round_trip(tmp_path)
    assert loaded == written
