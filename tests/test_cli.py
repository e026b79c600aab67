"""CLI surfaces: every documented command drives the real machinery."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from ransomwatch import cli
from ransomwatch.cli import main
from ransomwatch.simulator import build_corpus, make_note_corpus


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_full_cli_workflow(tmp_path, runner):
    scenario_dir = tmp_path / "scenario"
    _invoke(runner, ["simulate", "--kind", "m3", "--files", "80", "--fps", "90",
                     "--seed", "7", "--out", str(scenario_dir)])
    assert (scenario_dir / "trace.jsonl").exists()
    truth = json.loads((scenario_dir / "ground_truth.json").read_text())
    assert truth["mode"] == "M3"

    notes_dir = tmp_path / "notes"
    notes_dir.mkdir()
    for i, text in enumerate(make_note_corpus(40, seed=31)):
        (notes_dir / f"note_{i:03d}.txt").write_text(text, encoding="utf-8")
    pool_path = tmp_path / "pool.json"
    _invoke(runner, ["genepool", "build", "--notes", str(notes_dir), "--n", "3",
                     "--top-k", "300", "--out", str(pool_path)])
    assert pool_path.exists()

    score = _invoke(runner, ["note", "score", "--pool", str(pool_path),
                             "--file", str(notes_dir / "note_000.txt")])
    payload = json.loads(score.output)
    assert payload["is_note"] is True and payload["score"] > 0.21

    corpus_dir = tmp_path / "corpus"
    _invoke(runner, ["corpus", "--ransom", "24", "--benign", "26", "--seed", "5",
                     "--out", str(corpus_dir)])
    model_path = tmp_path / "model.bin"
    _invoke(runner, ["train", "--corpus", str(corpus_dir), "--out", str(model_path),
                     "--trees", "30"])
    assert model_path.stat().st_size <= 64 * 1024

    fv_path = tmp_path / "fv.json"
    _invoke(runner, ["features", "extract", "--log", str(scenario_dir / "trace.jsonl"),
                     "--pid", str(truth["pid"]), "--out", str(fv_path)])
    fv = json.loads(fv_path.read_text())
    assert len(fv["vector"]) == 12 + fv["dims"]
    assert list(fv["expert"]) == [
        "n_create", "n_delete", "n_renamed", "type_unchanged", "type_grown",
        "type_shrunk", "type_churn", "rtype", "rtype_change", "max_n_file",
        "n_folder", "r_file",
    ]

    verdict = _invoke(runner, ["predict", "--model", str(model_path), "--features", str(fv_path)])
    assert json.loads(verdict.output)["ransomware"] is True

    # decoy deploy/list/verify against a real directory
    decoy_dir = tmp_path / "docs"
    decoy_dir.mkdir()
    (decoy_dir / "budget_2023.docx").write_text("real")
    registry_path = tmp_path / "decoys.json"
    _invoke(runner, ["decoy", "deploy", "--dir", str(decoy_dir), "--count", "2",
                     "--registry", str(registry_path), "--seed", "3"])
    listing = _invoke(runner, ["decoy", "list", "--registry", str(registry_path)])
    assert len(listing.output.strip().splitlines()) == 2
    _invoke(runner, ["decoy", "verify", "--registry", str(registry_path)])

    # registry whose paths live inside the simulated tree -> replay raises alerts
    sim_registry = tmp_path / "sim_decoys.json"
    from ransomwatch.decoys import DecoyKind, DecoyRegistry
    from ransomwatch.simulator import TreeSpec, tree_layout

    layout = tree_layout(TreeSpec(files=80), seed=7)
    registry = DecoyRegistry()
    registry.register(layout.files[0], "digest", DecoyKind.DOCUMENT)
    registry.save(sim_registry)

    alerts_path = tmp_path / "alerts.jsonl"
    metrics_path = tmp_path / "metrics.json"
    _invoke(runner, [
        "run", "--log", str(scenario_dir / "trace.jsonl"), "--pool", str(pool_path),
        "--model", str(model_path), "--decoys", str(sim_registry),
        "--notes", str(scenario_dir / "notes.json"),
        "--out", str(alerts_path), "--metrics", str(metrics_path),
    ])
    metrics = json.loads(metrics_path.read_text())
    assert metrics["windows_opened"] >= 1
    assert alerts_path.read_text().strip()
    first_alert = json.loads(alerts_path.read_text().splitlines()[0])
    assert {"created_at", "pid", "level", "evidence", "response"} <= first_alert.keys()


def test_simulate_requires_kind_or_spec(tmp_path, runner):
    result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "x")])
    assert result.exit_code != 0


def test_simulate_from_json_spec(tmp_path, runner):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "office", "seed": 3, "files": 40}))
    _invoke(runner, ["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    truth = json.loads((tmp_path / "out" / "ground_truth.json").read_text())
    assert truth["profile"] == "office"


@pytest.mark.parametrize("text,expected", [
    ("not json", "Expecting value"),
    ('["office"]', 'string "kind"'),
    ('{"seed": 3, "files": 40}', 'string "kind"'),
    ('{"kind": "office", "tree": 5}', '"tree" must be'),
    ('{"kind": "office", "files": [40]}', "wrong type"),
    ('{"kind": "office", "decoy_paths": 5}', "wrong type"),
    ('{"kind": "m1", "avoid_decoys": "false"}', '"avoid_decoys" has the wrong type'),
    ('{"kind": "m1", "files": 2.9}', '"files" has the wrong type'),
    ('{"kind": "m1", "seed": "7"}', '"seed" has the wrong type'),
    ('{"kind": "m1", "note_every_k_dirs": true}', '"note_every_k_dirs" has the wrong type'),
    ('{"kind": "m1", "tree": {"extensions": "docx"}}', '"extensions" has the wrong type'),
    ('{"kind": "m1", "tree": {"root": 5}}', '"root" has the wrong type'),
    ('{"kind": "m1", "fps": "nan"}', '"fps" has the wrong type'),
    ('{"kind": "m1", "fps": NaN}', "files_per_second must be positive"),
    ('{"kind": "m1", "tree": {"files": 0}}', "one branch and one file"),
    ('{"kind": "m1", "tree": {"extensions": []}}', "at least one file extension"),
    ('{"kind": "m1", "files": 5, "tree": {"depth": 4, "fanout": 20}}', "tree lays out 168420 directories, more than 10000"),
    ('{"kind": "office", "fps": 5}', 'kind "office" takes no "fps"'),
    ('{"kind": "m1", "touch_decoy": true}', 'kind "m1" takes no "touch_decoy"'),
])
def test_simulate_reports_malformed_spec_in_one_line(tmp_path, runner, text, expected):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    _one_line_error(runner, ["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "out")], expected)


@pytest.mark.parametrize("meta,expected", [
    ({}, '"dims" is missing'),
    ({"dims": 64, "hash_seed": 0}, '"windows" is missing'),
    ({"dims": True, "hash_seed": 0, "windows": []}, '"dims" has the wrong type: expected an integer, got true'),
    ({"dims": 64, "hash_seed": "7", "windows": []}, '"hash_seed" has the wrong type'),
    ({"dims": 64.0, "hash_seed": 0, "windows": []}, '"dims" has the wrong type'),
    ({"dims": 64, "hash_seed": 0, "windows": {}}, '"windows" has the wrong type'),
    ([], "expected an object, got []"),
], ids=["empty", "no-windows", "dims-bool", "hash_seed-string", "dims-fraction", "windows-object", "not-an-object"])
def test_train_reports_malformed_corpus_meta_in_one_line(tmp_path, runner, meta, expected):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    np.savez(corpus_dir / "corpus.npz", X=np.zeros((2, 3)), y=np.zeros(2))
    (corpus_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    _one_line_error(runner, ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin")],
                    f"{corpus_dir}: corpus meta.json: {expected}")


def test_simulate_takes_the_ransomware_flags_for_a_ransomware_kind_only(tmp_path, runner):
    out = tmp_path / "out"
    _invoke(runner, ["simulate", "--kind", "m2", "--fps", "90", "--note-every", "2", "--avoid-decoys", "--out", str(out)])
    assert json.loads((out / "ground_truth.json").read_text())["mode"] == "M2"
    _invoke(runner, ["simulate", "--kind", "office", "--seed", "3", "--files", "40", "--out", str(out)])
    assert json.loads((out / "ground_truth.json").read_text())["profile"] == "office"


@pytest.mark.parametrize("present", [(), ("corpus.npz",)])
def test_train_reports_missing_corpus_files_in_one_line(tmp_path, runner, present):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    if present:
        np.savez(corpus_dir / "corpus.npz", X=np.zeros((2, 3)), y=np.zeros(2))
    missing = "meta.json" if present else "corpus.npz"
    _one_line_error(runner, ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin")],
                    f"{missing}: No such file")


def _npz(**arrays):
    return lambda path: np.savez(path, **arrays)


_ROWS = np.zeros((2, 76))  # two rows as wide as dims 64 asks
_EIGHT_ROWS = np.arange(8.0).repeat(76).reshape(8, 76)


def _npy(path):  # one array, not an archive, under the archive's name
    with open(path, "wb") as fp:
        np.save(fp, _ROWS)


def _damaged(path):  # one byte of X's data flipped
    np.savez(path, X=_ROWS, y=np.array([0, 1]))
    blob = bytearray(path.read_bytes())
    blob[300] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("write,expected", [
    (_npz(X=_ROWS), 'corpus.npz: "y" is missing'),
    (_npz(y=np.array([0, 1])), 'corpus.npz: "X" is missing'),
    (lambda path: path.write_text("X,y\n", encoding="utf-8"), "corpus.npz is not an npz archive"),
    (lambda path: path.write_bytes(b""), "corpus.npz is not an npz archive"),
    (_npy, "corpus.npz is not an npz archive"),
    (_damaged, "corpus.npz is damaged: Bad CRC-32 for file 'X.npy'"),
    (_npz(X=np.zeros((2, 50)), y=np.array([0, 1])),
     "corpus.npz: X must hold rows of 76 features, as meta.json's dims 64 give, got shape (2, 50)"),
    (_npz(X=np.zeros(76), y=np.array([0])), "corpus.npz: X must hold rows of 76 features"),
    (_npz(X=_ROWS, y=np.array([0, 1, 1])), "corpus.npz: y must hold one label for each of the 2 rows, got shape (3,)"),
    (_npz(X=_ROWS, y=np.array([[0], [1]])), "corpus.npz: y must hold one label for each of the 2 rows, got shape (2, 1)"),
    (_npz(X=_EIGHT_ROWS, y=np.array([0, 3] * 4)), "training labels must be 0 or 1, got 3"),
    (_npz(X=_EIGHT_ROWS, y=np.array([0, 0.5] * 4)), "training labels must be 0 or 1, got 0.5"),
], ids=["no-y", "no-X", "text", "empty", "npy", "damaged", "rows-50-wide", "X-1-D", "labels-too-many", "labels-2-D",
        "labels-0-3", "labels-0-half"])
def test_train_refuses_a_corpus_it_cannot_train_on_in_one_line(tmp_path, runner, write, expected):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write(corpus_dir / "corpus.npz")
    # one window per row of the corpora that get as far as fit
    meta = {"dims": 64, "hash_seed": 0, "windows": [{}] * len(_EIGHT_ROWS)}
    (corpus_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    _one_line_error(runner, ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin")],
                    f"{corpus_dir}: {expected}")
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("meta,expected", [
    ({"dims": 65536, "hash_seed": 0}, "dims must be at most 32768, got 65536"),
    ({"dims": 64, "hash_seed": -1}, "hash_seed must be in [0, 2**64), got -1"),
    ({"dims": 64, "hash_seed": 2**64}, f"hash_seed must be in [0, 2**64), got {2**64}"),
    ({"dims": 64, "hash_seed": 0, "windows": [{}] * 7},
     'corpus meta.json: "windows" must hold one object for each of the 8 rows, got 7'),
], ids=["dims-65536", "hash_seed-negative", "hash_seed-2**64", "windows-one-short"])
def test_train_refuses_a_corpus_whose_meta_json_a_model_or_its_rows_cannot_match_in_one_line(
    tmp_path, runner, meta, expected
):
    # rows as wide as dims asks and one window per row, so only the named field is wrong
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    X = np.arange(8.0).repeat(12 + meta["dims"]).reshape(8, -1)
    np.savez(corpus_dir / "corpus.npz", X=X, y=np.array([0, 1] * 4))
    (corpus_dir / "meta.json").write_text(json.dumps({"windows": [{}] * 8, **meta}), encoding="utf-8")
    _one_line_error(runner, ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.bin"), "--trees", "1"],
                    f"{corpus_dir}: {expected}")
    assert not (tmp_path / "m.bin").exists()


def test_decoy_deploy_places_decoys_in_the_given_early_dirs(tmp_path, runner, monkeypatch):
    user, early, platform = (tmp_path / name for name in ("docs", "early", "platform"))
    for directory in (user, early, platform):
        directory.mkdir()
    monkeypatch.setattr(cli, "default_early_dirs", lambda: [str(platform)])

    def deploy(*flags):
        """Deploy two decoys with a fresh registry; the file counts of the early, user and platform dirs."""
        registry = tmp_path / f"decoys{len(flags)}.json"
        _invoke(runner, ["decoy", "deploy", "--dir", str(user), "--count", "2", "--registry", str(registry), *flags])
        return tuple(len(list(directory.iterdir())) for directory in (early, user, platform))

    assert deploy("--early-dir", str(early)) == (1, 1, 0)  # without --auto
    assert deploy("--auto", "--early-dir", str(early), "--seed", "1") == (2, 2, 0)
    assert deploy("--auto") == (2, 3, 1)


def test_decoy_verify_fails_on_tamper(tmp_path, runner):
    decoy_dir = tmp_path / "d"
    decoy_dir.mkdir()
    registry_path = tmp_path / "decoys.json"
    out = _invoke(runner, ["decoy", "deploy", "--dir", str(decoy_dir), "--count", "1",
                           "--registry", str(registry_path)])
    deployed = out.output.strip().splitlines()[0]
    with open(deployed, "ab") as fp:
        fp.write(b"tamper")
    result = runner.invoke(main, ["decoy", "verify", "--registry", str(registry_path)])
    assert result.exit_code == 1
    assert "TAMPERED" in result.output


def test_watch_unavailable_message(tmp_path, runner, trained_forest, gene_pool):
    model_path = tmp_path / "m.bin"
    trained_forest.save(model_path)
    pool_path = tmp_path / "p.json"
    gene_pool.save(pool_path)
    registry_path = tmp_path / "r.json"
    from ransomwatch.decoys import DecoyRegistry

    DecoyRegistry().save(registry_path)
    gone = tmp_path / "gone"
    gone.mkdir()
    result = runner.invoke(main, [
        "watch", "--dirs", str(gone), "--pool", str(pool_path),
        "--model", str(model_path), "--decoys", str(registry_path),
        "--duration", "0.2",
    ])
    assert result.exit_code == 0  # watchable dir, idle run


@pytest.fixture()
def artifacts(tmp_path, trained_forest, gene_pool):
    """A valid model, pool, registry, trace and feature vector, plus malformed copies."""
    from ransomwatch.decoys import DecoyRegistry

    paths = {name: tmp_path / name for name in ("model.bin", "pool.json", "decoys.json", "trace.jsonl", "fv.json")}
    trained_forest.save(paths["model.bin"])
    gene_pool.save(paths["pool.json"])
    DecoyRegistry().save(paths["decoys.json"])
    paths["trace.jsonl"].write_text("", encoding="utf-8")
    paths["fv.json"].write_text(json.dumps({"vector": [0.0] * trained_forest.n_features}), encoding="utf-8")
    blob = bytearray(paths["model.bin"].read_bytes())
    blob[60] ^= 0xFF
    paths["corrupt.bin"] = tmp_path / "corrupt.bin"
    paths["corrupt.bin"].write_bytes(bytes(blob))
    # well-formed files whose header says dims=12, or one feature more than the rows have
    for name, changes in (("dims12.bin", {"dims": 12}), ("wide.bin", {"n_features": trained_forest.n_features + 1})):
        paths[name] = tmp_path / name
        replace(trained_forest, **changes).save(paths[name])
    pool = json.loads(paths["pool.json"].read_text(encoding="utf-8"))
    for name, text in (
        ("n0.json", json.dumps({**pool, "n": 0})),
        ("empty.json", json.dumps({**pool, "fragments": []})),
        ("text.json", "not json"),
        ("words.json", json.dumps({**pool, "fragments": [f["words"] for f in pool["fragments"]]})),
        ("nofrags.json", json.dumps({k: v for k, v in pool.items() if k != "fragments"})),
        ("nan_score.json", json.dumps({**pool, "fragments": [{**pool["fragments"][0], "f": float("nan")}]})),
        ("list_decoys.json", "[]"),
        ("number_notes.json", json.dumps({"C:/x.txt": 5})),
        ("list_notes.json", json.dumps(["a"])),
    ):
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _one_line_error(runner, args, expected):
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    (line,) = result.output.strip().splitlines()
    assert line.startswith("Error: ") and expected in line


def _run_args(artifacts, pool="pool.json", decoys="decoys.json", model="model.bin"):
    out = artifacts["trace.jsonl"].parent
    return [
        "run", "--log", str(artifacts["trace.jsonl"]), "--pool", str(artifacts[pool]),
        "--model", str(artifacts[model]), "--decoys", str(artifacts[decoys]),
        "--out", str(out / "alerts.jsonl"), "--metrics", str(out / "metrics.json"),
    ]


def _watch_args(artifacts, model="model.bin"):
    return [
        "watch", "--dirs", str(artifacts["trace.jsonl"].parent), "--pool", str(artifacts["pool.json"]),
        "--model", str(artifacts[model]), "--decoys", str(artifacts["decoys.json"]), "--duration", "0.1",
    ]


@pytest.mark.parametrize("bad_pool", ["n0.json", "empty.json", "text.json", "words.json", "nofrags.json", "nan_score.json"])
def test_run_reports_malformed_pool_in_one_line(runner, artifacts, bad_pool):
    _one_line_error(runner, _run_args(artifacts, pool=bad_pool), bad_pool)


@pytest.mark.parametrize("bad_notes", ["number_notes.json", "list_notes.json"])
def test_run_reports_malformed_notes_map_in_one_line(runner, artifacts, bad_notes):
    _one_line_error(runner, _run_args(artifacts) + ["--notes", str(artifacts[bad_notes])], bad_notes)


@pytest.mark.parametrize("command", ["run", "watch", "list", "verify", "deploy", "list-missing", "verify-missing"])
def test_commands_report_malformed_registry_in_one_line(runner, artifacts, command, tmp_path, monkeypatch):
    bad = str(artifacts["list_decoys.json"])
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)  # where the default decoys.json does not exist
    args = {
        "run": _run_args(artifacts, decoys="list_decoys.json"),
        "watch": ["watch", "--dirs", str(artifacts["trace.jsonl"].parent), "--pool", str(artifacts["pool.json"]),
                  "--model", str(artifacts["model.bin"]), "--decoys", bad, "--duration", "0.1"],
        "list": ["decoy", "list", "--registry", bad],
        "verify": ["decoy", "verify", "--registry", bad],
        "deploy": ["decoy", "deploy", "--dir", str(artifacts["trace.jsonl"].parent), "--registry", bad],
        "list-missing": ["decoy", "list"],
        "verify-missing": ["decoy", "verify", "--registry", "nope.json"],
    }[command]
    expected = {"list-missing": "decoys.json: No such file", "verify-missing": "nope.json: No such file"}
    _one_line_error(runner, args, expected.get(command, "list_decoys.json"))


def test_watch_reports_corrupt_model_in_one_line(runner, artifacts):
    _one_line_error(runner, _watch_args(artifacts, "corrupt.bin"), "checksum mismatch")


@pytest.mark.parametrize("command", ["run", "watch", "predict"])
def test_commands_reject_a_model_with_an_invalid_embedding_width_in_one_line(runner, artifacts, command):
    args = {
        "run": _run_args(artifacts, model="dims12.bin"),
        "watch": _watch_args(artifacts, "dims12.bin"),
        "predict": ["predict", "--model", str(artifacts["dims12.bin"]), "--features", str(artifacts["fv.json"])],
    }[command]
    _one_line_error(runner, args, "dims12.bin: dims must be a power of two >= 8, got 12")


@pytest.mark.parametrize("command", ["run", "watch"])
def test_run_and_watch_refuse_a_model_wider_than_its_rows_in_one_line(runner, artifacts, command):
    # the trace is empty: the engine refuses the model before it reads an event
    args = _run_args(artifacts, model="wide.bin") if command == "run" else _watch_args(artifacts, "wide.bin")
    _one_line_error(runner, args, "wide.bin: model scores 77 features, not the 76 of its 64-bucket rows")


def test_predict_reports_corrupt_model_in_one_line(runner, artifacts):
    _one_line_error(runner, [
        "predict", "--model", str(artifacts["corrupt.bin"]), "--features", str(artifacts["fv.json"]),
    ], "corrupt.bin")


@pytest.mark.parametrize("text,expected", [
    ("not json", "bad_fv.json: Expecting value"),
    (json.dumps({"v": 1}), 'bad_fv.json: expected an object whose "vector" is a list of numbers'),
    (json.dumps({"vector": [1, "2"]}), 'bad_fv.json: expected an object whose "vector" is a list of numbers'),
    (json.dumps({"vector": [1, 2]}), "features, got 2"),
    ('{"vector": [0.5, 2, NaN]}', 'bad_fv.json: "vector" item 2 is nan, not a finite number'),
    ('{"vector": [Infinity, 2]}', 'bad_fv.json: "vector" item 0 is inf, not a finite number'),
    ('{"vector": [0.5, -Infinity]}', 'bad_fv.json: "vector" item 1 is -inf, not a finite number'),
    ('{"vector": [0.5, 1%s]}' % ("0" * 400), 'bad_fv.json: "vector" item 1 is inf, not a finite number'),
], ids=["not-json", "no-vector", "not-numbers", "wrong-width", "nan", "infinity", "minus-infinity", "wide-integer"])
def test_predict_reports_malformed_features_in_one_line(runner, artifacts, tmp_path, text, expected):
    features = tmp_path / "bad_fv.json"
    features.write_text(text, encoding="utf-8")
    _one_line_error(runner, [
        "predict", "--model", str(artifacts["model.bin"]), "--features", str(features),
    ], expected)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_predict_and_train_decide_at_the_engine_threshold(runner, artifacts, tmp_path, monkeypatch, threshold):
    config = cli.PipelineConfig
    monkeypatch.setattr(cli, "PipelineConfig", lambda **kwargs: config(**{"decision_threshold": threshold, **kwargs}))
    verdict = json.loads(_invoke(runner, ["predict", "--model", str(artifacts["model.bin"]),
                                          "--features", str(artifacts["fv.json"])]).output)
    assert verdict["ransomware"] is (threshold == 0.0)  # every probability is at least 0 and below 1
    corpus = build_corpus(4, 4, seed=2)
    corpus.save(tmp_path / "corpus")
    trained = _invoke(runner, ["train", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.bin"),
                               "--trees", "3"])
    assert f"train acc {float((corpus.y == (threshold == 0.0)).mean()):.4f}" in trained.output


def test_features_extract_warns_on_a_line_that_is_not_utf8(runner, tmp_path):
    line = '{{"time":{0},"pid":1,"pid_name":"x.exe","operation":"Write","file_name":"C:/u/f{0}.txt","file_type":"txt"}}\n'
    trace = tmp_path / "bad_byte.jsonl"
    trace.write_bytes(b"".join(line.format(t).encode() for t in (1, 2, 3)).replace(b"/f2", b"/f\xff2"))
    out = tmp_path / "fv.json"
    result = _invoke(runner, ["features", "extract", "--log", str(trace), "--pid", "1", "--out", str(out)])
    assert "warning: line 2: MalformedLine invalid UTF-8" in result.output
    assert json.loads(out.read_text())["events"] == 2


def test_features_extract_takes_the_image_that_pid_name_names(runner, tmp_path):
    line = '{{"time":{0},"pid":1,"pid_name":"{1}","operation":"Write","file_name":"C:/u/f{0}.txt","file_type":"txt"}}\n'
    trace = tmp_path / "two_images.jsonl"
    trace.write_text("".join(line.format(t, name) for t, name in ((1, "x.exe"), (2, "y.exe"), (3, "y.exe"))))
    out = tmp_path / "fv.json"
    for args, events in (([], 1), (["--pid-name", "x.exe"], 1), (["--pid-name", "y.exe"], 2)):
        _invoke(runner, ["features", "extract", "--log", str(trace), "--pid", "1", *args, "--out", str(out)])
        assert json.loads(out.read_text())["events"] == events
    _one_line_error(runner, ["features", "extract", "--log", str(trace), "--pid", "1", "--pid-name", "z.exe",
                             "--out", str(out)], "no events for pid 1 named z.exe")


def test_note_score_reports_malformed_pool_and_content_in_one_line(runner, artifacts, tmp_path):
    note = tmp_path / "note.txt"
    note.write_text(make_note_corpus(1, seed=31)[0], encoding="utf-8")
    _one_line_error(runner, ["note", "score", "--pool", str(artifacts["text.json"]), "--file", str(note)], "text.json")
    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe" + "your files are encrypted".encode("utf-16-le"))
    _one_line_error(runner, ["note", "score", "--pool", str(artifacts["pool.json"]), "--file", str(utf16)], "not scored")


def test_note_score_reads_only_max_note_bytes(runner, artifacts, tmp_path):
    from ransomwatch.pipeline import PipelineConfig

    note = make_note_corpus(1, seed=31)[0]
    args = ["note", "score", "--pool", str(artifacts["pool.json"]), "--file"]
    path = tmp_path / "note.txt"
    path.write_text(note, encoding="utf-8")
    assert json.loads(_invoke(runner, args + [str(path)]).output)["is_note"] is True
    # the same note past the limit is not read, as replay would not read it
    path.write_text(" " * PipelineConfig().max_note_bytes + note, encoding="utf-8")
    assert json.loads(_invoke(runner, args + [str(path)]).output)["score"] == 0.0


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["run", "watch", "note score"])
def test_commands_refuse_a_tau_that_is_not_finite_in_one_line(runner, artifacts, command, tau):
    args = {
        "run": _run_args(artifacts),
        "watch": _watch_args(artifacts),
        "note score": ["note", "score", "--pool", str(artifacts["pool.json"]), "--file", str(artifacts["fv.json"])],
    }[command]
    _one_line_error(runner, args + ["--tau", tau], f"tau_sim must be finite, got {float(tau)}")


# Each command hands its arguments to one library call that validates them;
# its ValueError becomes the command's one-line error.
@pytest.mark.parametrize("args,expected", [
    (["decoy", "deploy", "--dir", "{out}", "--count", "0", "--registry", "{out}.json"], "count must be at least 1"),
    (["genepool", "build", "--notes", "{notes}", "--out", "{out}"], "no fragments of size 3 in 1 notes"),
    (["genepool", "build", "--notes", "{notes}", "--n", "0", "--out", "{out}"], "n must be at least 1"),
    (["genepool", "build", "--notes", "{notes}", "--top-k", "0", "--out", "{out}"], "top_k must be at least 1"),
    (["features", "extract", "--log", "{trace}", "--pid", "1", "--dt", "0", "--out", "{out}"], "delta_us must be"),
    (["features", "extract", "--log", "{trace}", "--pid", "1", "--dt", "-5", "--out", "{out}"], "delta_us must be"),
    (["simulate", "--kind", "m1", "--files", "0", "--out", "{out}"], "one branch and one file"),
    (["simulate", "--kind", "m1", "--fps", "0", "--out", "{out}"], "files_per_second must be positive"),
    (["simulate", "--kind", "m1", "--fps", "nan", "--out", "{out}"], "files_per_second must be positive"),
    (["simulate", "--kind", "m1", "--fps", "inf", "--out", "{out}"], "files_per_second must be positive"),
    (["simulate", "--kind", "m9", "--out", "{out}"], "unknown scenario kind 'm9'"),
    (["simulate", "--kind", "office", "--fps", "nan", "--note-every", "0", "--avoid-decoys", "--out", "{out}"],
     'kind "office" takes no --fps, --note-every, --avoid-decoys'),
    (["simulate", "--kind", "backup", "--fps", "60", "--out", "{out}"], 'kind "backup" takes no --fps'),
    (["corpus", "--ransom", "0", "--benign", "0", "--out", "{out}"], "corpus needs both classes"),
    (["train", "--corpus", "{corpus}", "--out", "{out}"], "dims must be a power of two >= 8, got 12"),
    # the parameters are checked before the corpus, whose dims=12 would also stop the command
    (["train", "--corpus", "{corpus}", "--out", "{out}", "--trees", "0"], "n_trees must be at least 1, got 0"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", "--depth", "0"], "max_depth must be at least 1, got 0"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", "--eta", "-1"], "eta must be finite and at least 0, got -1.0"),
    (["train", "--corpus", "{corpus}", "--out", "{out}", "--gamma", "nan"], "gamma must be finite, got nan"),
], ids=["decoy-count0", "genepool-empty", "genepool-n0", "genepool-top-k0", "features-dt0", "features-dt-negative",
        "simulate-files0", "simulate-fps0", "simulate-fps-nan", "simulate-fps-inf", "simulate-kind",
        "simulate-benign-ransomware-flags", "simulate-benign-default-fps", "corpus-empty", "train-dims12", "train-trees0",
        "train-depth0", "train-eta-negative", "train-gamma-nan"])
def test_commands_report_invalid_arguments_in_one_line(runner, tmp_path, args, expected):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "short.txt").write_text("pay now", encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    line = '{"time":1,"pid":1,"pid_name":"x.exe","operation":"Write","file_name":"C:/u/f.txt","file_type":"txt"}\n'
    trace.write_text(line, encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    np.savez(corpus / "corpus.npz", X=np.arange(8.0).reshape(4, 2), y=np.array([0, 1, 0, 1]))
    (corpus / "meta.json").write_text(json.dumps({"windows": [], "dims": 12, "hash_seed": 0}), encoding="utf-8")
    paths = {"notes": notes, "trace": trace, "corpus": corpus, "out": tmp_path / "out"}
    _one_line_error(runner, [arg.format(**paths) for arg in args], expected)
