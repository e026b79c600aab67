"""Command-line interface: simulate, build artifacts, train, replay, watch."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .decoys import (
    DecoyKind,
    DecoyRegistry,
    DecoySpec,
    IoFailure,
    NameStyle,
    WatchUnavailable,
    default_early_dirs,
    deploy,
)
from .events import parse_event_log, window_events
from .features import DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED, FEATURE_NAMES, N_EXPERT_FEATURES
from .gbdt import BoostParams, BoostedForest, WidthMismatch, fit
from .jsontypes import FEATURES, columns
from .notes import DEFAULT_NGRAM_SIZE, DEFAULT_POOL_CAPACITY, DEFAULT_TAU_SIM, GenePool, build_pool, decode_note, similarity, tokenize
from .pipeline import (
    MappingContentProvider,
    PipelineConfig,
    featurize,
    metrics_report,
    run_live,
    run_replay,
)
from .simulator import Corpus, RansomwareSpec, TreeSpec, build_corpus, generate, spec_from_json, spec_from_kind, write_scenario


def _load(loader, path):
    """Load an input file; a malformed one stops the command with a one-line error."""
    try:
        return loader(path)
    except ValueError as exc:  # CorruptModel and JSONDecodeError among them
        raise click.ClickException(f"{path}: {exc}") from exc
    except OSError as exc:  # missing or unreadable; a directory input names the file inside it
        raise click.ClickException(f"{exc.filename or path}: {exc.strerror or exc}") from exc


def _checked(call, *args, **kwargs):
    """Run a library call that validates its arguments; a ValueError stops the command with a one-line error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:  # EmptyCorpus and BadSpec among them
        raise click.ClickException(str(exc)) from exc


@click.group()
@click.version_option(version=__version__, prog_name="ransomwatch")
def main() -> None:
    """Ransomware monitoring-detection-response engine."""


# -- decoy ------------------------------------------------------------------

@main.group()
def decoy() -> None:
    """Deploy, list and verify decoy files."""


@decoy.command("deploy")
@click.option("--dir", "directory", required=True, type=click.Path(file_okay=False))
@click.option("--count", default=2, show_default=True, type=int)
@click.option("--kind", "kinds", multiple=True, type=click.Choice([k.value for k in DecoyKind]),
              default=(DecoyKind.DOCUMENT.value,), show_default=True)
@click.option("--style", type=click.Choice([s.value for s in NameStyle]),
              default=NameStyle.MIMIC_NEIGHBORS.value, show_default=True)
@click.option("--auto", is_flag=True, help="Prepend the platform's early-traversal directories.")
@click.option("--early-dir", "early_dirs", multiple=True,
              help="Early-traversal directory to prepend instead (repeatable).")
@click.option("--registry", "registry_path", default="decoys.json", show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
def decoy_deploy(directory, count, kinds, style, auto, early_dirs, registry_path, seed) -> None:
    """Write decoys into DIRECTORY and record them in the registry."""
    registry = _load(DecoyRegistry.load, registry_path) if Path(registry_path).exists() else DecoyRegistry()
    spec = _checked(DecoySpec, directory, count, tuple(DecoyKind(k) for k in kinds), NameStyle(style))
    early = list(early_dirs) or (default_early_dirs() if auto else [])
    try:
        paths = deploy(spec, registry, seed=seed, early_dirs=early)
    except IoFailure as exc:
        raise click.ClickException(str(exc)) from exc
    registry.save(registry_path)
    for p in paths:
        click.echo(p)
    click.echo(f"deployed {len(paths)} decoys; registry at {registry_path}")


@decoy.command("list")
@click.option("--registry", "registry_path", default="decoys.json", show_default=True)
def decoy_list(registry_path) -> None:
    registry = _load(DecoyRegistry.load, registry_path)
    for path, entry in sorted(registry.entries().items()):
        click.echo(f"{path}\t{entry.kind.value}\t{entry.content_digest[:12]}")


@decoy.command("verify")
@click.option("--registry", "registry_path", default="decoys.json", show_default=True)
def decoy_verify(registry_path) -> None:
    """Check that every registered decoy still matches its digest."""
    registry = _load(DecoyRegistry.load, registry_path)
    problems = registry.verify()
    if not problems:
        click.echo(f"ok: {len(registry)} decoys intact")
        return
    for path, problem in sorted(problems.items()):
        click.echo(f"TAMPERED {path}: {problem}")
    sys.exit(1)


# -- gene pool / notes --------------------------------------------------------

@main.group()
def genepool() -> None:
    """Build and inspect ransom-note gene pools."""


@genepool.command("build")
@click.option("--notes", "notes_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--n", default=DEFAULT_NGRAM_SIZE, show_default=True, type=int)
@click.option("--top-k", default=DEFAULT_POOL_CAPACITY, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def genepool_build(notes_dir, n, top_k, out_path) -> None:
    """Build a pool from every readable text file under NOTES dir."""
    docs = []
    for path in sorted(Path(notes_dir).iterdir()):
        if path.is_file():
            try:
                docs.append(tokenize(path.read_text(encoding="utf-8")))
            except UnicodeDecodeError:
                continue
    pool = _checked(build_pool, docs, n=n, top_k=top_k)
    pool.save(out_path)
    click.echo(f"pool: {len(pool)} fragments from {pool.source_count} notes -> {out_path}")


@main.group()
def note() -> None:
    """Score documents against a gene pool."""


@note.command("score")
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--file", "file_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tau", default=DEFAULT_TAU_SIM, show_default=True, type=float)
def note_score(pool_path, file_path, tau) -> None:
    """Score the first max_note_bytes bytes of FILE, as replay scores note content."""
    config = _checked(PipelineConfig, tau_sim=tau)
    pool = _load(GenePool.load, pool_path)
    limit = config.max_note_bytes
    with open(file_path, "rb") as fp:
        text = decode_note(fp.read(limit), limit)
    if text is None:
        raise click.ClickException(f"{file_path}: not scored, the content is not UTF-8")
    verdict = similarity(tokenize(text), pool, tau=config.tau_sim)
    click.echo(json.dumps({
        "file": file_path,
        "score": round(verdict.score, 6),
        "matched_fragments": len(verdict.matched),
        "is_note": verdict.is_note,
        "tau": config.tau_sim,
    }))


# -- features ----------------------------------------------------------------

@main.group()
def features() -> None:
    """Extract behavioral feature vectors from traces."""


@features.command("extract")
@click.option("--log", "log_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pid", required=True, type=int)
@click.option("--start", default=None, type=int, help="Window start in microseconds (default: pid's first event).")
@click.option("--dt", "delta_us", default=None, type=int, help="Window length in microseconds (default: whole trace).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def features_extract(log_path, pid, start, delta_us, out_path) -> None:
    parsed = parse_event_log(Path(log_path).read_bytes())
    for issue in parsed.issues:
        click.echo(f"warning: line {issue.line_no}: {issue.kind.value} {issue.detail}", err=True)
    pid_events = [ev for ev in parsed.events if ev.pid == pid]
    if not pid_events:
        raise click.ClickException(f"no events for pid {pid}")
    if start is None:
        start = pid_events[0].time
    if delta_us is None:
        delta_us = max(1, pid_events[-1].time - start + 1)
    window = _checked(window_events, parsed.events, pid, start, delta_us)
    row = featurize(window, DEFAULT_EMBEDDING_DIMS, DEFAULT_HASH_SEED)
    payload = {
        "pid": pid,
        "window_start_us": start,
        "window_end_us": start + delta_us,
        "events": len(window.events),
        "dims": DEFAULT_EMBEDDING_DIMS,
        "hash_seed": DEFAULT_HASH_SEED,
        "expert": dict(zip(FEATURE_NAMES, row[:N_EXPERT_FEATURES].tolist())),
        "embedding": row[N_EXPERT_FEATURES:].tolist(),
        "vector": row.tolist(),
    }
    Path(out_path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    click.echo(f"{len(window.events)} events -> {len(payload['vector'])}-dim vector -> {out_path}")


# -- model -------------------------------------------------------------------

@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--trees", default=BoostParams().n_trees, show_default=True, type=int)
@click.option("--eta", default=BoostParams().eta, show_default=True, type=float)
@click.option("--depth", default=BoostParams().max_depth, show_default=True, type=int)
@click.option("--gamma", default=BoostParams().gamma, show_default=True, type=float)
@click.option("--lambda", "lambda_", default=BoostParams().lambda_, show_default=True, type=float)
def train(corpus_dir, out_path, trees, eta, depth, gamma, lambda_) -> None:
    """Train the boosted-forest classifier on a window corpus directory."""
    params = _checked(BoostParams, n_trees=trees, eta=eta, max_depth=depth, gamma=gamma, lambda_=lambda_)
    corpus = _load(Corpus.load, corpus_dir)
    # what fit refuses (labels, a single class, the embedding width) is in the corpus, so the error names it
    forest = _load(lambda _: fit(corpus.X, corpus.y, params, dims=corpus.dims, hash_seed=corpus.hash_seed), corpus_dir)
    forest.save(out_path)
    acc = float(((forest.predict(corpus.X) >= PipelineConfig().decision_threshold).astype(int) == corpus.y).mean())
    size = Path(out_path).stat().st_size
    click.echo(f"trained {trees} trees on {len(corpus.y)} windows; train acc {acc:.4f}; {size} bytes -> {out_path}")


def _read_vector(path) -> np.ndarray:
    """The "vector" of a feature file written by `features extract`."""
    # integers read as floats, so one too wide for a float becomes inf, not an OverflowError
    payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    ((vector,),) = columns([payload], FEATURES, 'expected an object whose "vector" is a list of numbers')
    vector = np.asarray(vector, dtype=np.float64)
    finite = np.isfinite(vector)
    if not finite.all():  # JSON's NaN and Infinity, or an integer too wide for a float
        at = int(finite.argmin())
        raise ValueError(f'"vector" item {at} is {vector[at]}, not a finite number')
    return vector


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
def predict(model_path, features_path) -> None:
    """Score one extracted feature vector."""
    forest = _load(BoostedForest.load, model_path)
    prob = _load(lambda path: forest.predict_row(_read_vector(path)), features_path)
    click.echo(json.dumps({"probability": round(prob, 6), "ransomware": prob >= PipelineConfig().decision_threshold}))


# -- simulator -----------------------------------------------------------------

@main.command()
@click.option("--kind", default=None, help="m1..m6 or office/installer/backup/indexer/editor/zipper.")
@click.option("--files", default=TreeSpec().files, show_default=True, type=int)
@click.option("--fps", default=60.0, show_default=True, type=float, help="Files encrypted per second.")
@click.option("--seed", default=7, show_default=True, type=int)
@click.option("--note-every", default=1, show_default=True, type=int)
@click.option("--avoid-decoys", is_flag=True)
@click.option("--spec", "spec_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Scenario spec as JSON (overrides the other options).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.pass_context
def simulate(ctx, kind, files, fps, seed, note_every, avoid_decoys, spec_path, out_dir) -> None:
    """Generate one labeled scenario: trace.jsonl, ground_truth.json, notes.json."""
    if spec_path is not None:
        spec = _load(lambda path: spec_from_json(Path(path).read_text(encoding="utf-8")), spec_path)
    elif kind is not None:
        spec = _checked(spec_from_kind, kind, seed=seed, fps=fps, note_every_k_dirs=note_every,
                        avoid_decoys=avoid_decoys, tree=_checked(TreeSpec, files=files))
        given = [f"--{name.replace('_', '-')}" for name in ("fps", "note_every", "avoid_decoys")
                 if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
        if given and not isinstance(spec.kind, RansomwareSpec):
            raise click.ClickException(f'kind "{kind}" takes no {", ".join(given)}')
    else:
        raise click.ClickException("pass --kind or --spec")
    result = _checked(generate, spec)
    paths = write_scenario(result, out_dir)
    click.echo(f"{len(result.events)} events -> {paths['trace']}")


@main.command()
@click.option("--ransom", default=240, show_default=True, type=int, help="Ransomware windows.")
@click.option("--benign", default=260, show_default=True, type=int, help="Benign windows.")
@click.option("--seed", default=7, show_default=True, type=int)
@click.option("--include-zipper", is_flag=True, help="Add the zip-like stress profile to the benign mix.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def corpus(ransom, benign, seed, include_zipper, out_dir) -> None:
    """Build a labeled window corpus ready for `train`."""
    built = _checked(build_corpus, ransom, benign, seed, include_zipper=include_zipper)
    built.save(out_dir)
    click.echo(f"corpus: {built.X.shape[0]} windows x {built.X.shape[1]} features -> {out_dir}")


# -- engine --------------------------------------------------------------------

@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--decoys", "registry_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--notes", "notes_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Optional notes.json mapping paths to file text for note scoring.")
@click.option("--tau", default=DEFAULT_TAU_SIM, show_default=True, type=float)
@click.option("--out", "alerts_path", required=True, type=click.Path(dir_okay=False))
@click.option("--metrics", "metrics_path", required=True, type=click.Path(dir_okay=False))
def run(log_path, pool_path, model_path, registry_path, notes_path, tau, alerts_path, metrics_path) -> None:
    """Replay a trace through the funnel, writing alerts and metrics."""
    config = _checked(PipelineConfig, tau_sim=tau)
    registry = _load(DecoyRegistry.load, registry_path)
    pool = _load(GenePool.load, pool_path)
    forest = _load(BoostedForest.load, model_path)
    provider = _load(MappingContentProvider.from_json_file, notes_path) if notes_path else None
    try:
        result = run_replay(log_path, registry, pool, forest, config, provider)
    except WidthMismatch as exc:  # raised before the first event is read
        raise click.ClickException(f"{model_path}: {exc}") from exc
    result.save_alerts(alerts_path)
    result.save_metrics(metrics_path)
    for issue in result.issues:
        click.echo(f"warning: line {issue.line_no}: {issue.kind.value} {issue.detail}", err=True)
    report = metrics_report(result.metrics)
    click.echo(json.dumps(report))


@main.command()
@click.option("--dirs", "watch_dirs", required=True, multiple=True, type=click.Path(exists=True, file_okay=False))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--decoys", "registry_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tau", default=DEFAULT_TAU_SIM, show_default=True, type=float)
@click.option("--duration", default=None, type=float, help="Stop after this many seconds (default: run until interrupted).")
def watch(watch_dirs, pool_path, model_path, registry_path, tau, duration) -> None:
    """Watch directories and the decoys' directories live; print alerts as they fire."""
    config = _checked(PipelineConfig, tau_sim=tau)
    registry = _load(DecoyRegistry.load, registry_path)
    pool = _load(GenePool.load, pool_path)
    forest = _load(BoostedForest.load, model_path)
    try:
        result = run_live(
            watch_dirs, registry, pool, forest, config,
            duration_s=duration,
            on_alert=lambda alert: click.echo(alert.to_json_line()),
        )
    except WatchUnavailable as exc:
        raise click.ClickException(f"{exc}; live watching unavailable, use `run` for trace replay") from exc
    except WidthMismatch as exc:  # raised before the watcher starts
        raise click.ClickException(f"{model_path}: {exc}") from exc
    click.echo(json.dumps(metrics_report(result.metrics)))


if __name__ == "__main__":
    main()
