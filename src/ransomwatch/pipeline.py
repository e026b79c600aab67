"""The monitoring-detection-response funnel.

Events stream past two cheap monitors (decoy registry lookups and ransom-note
scoring). Only a trigger opens a per-process window; the window is classified
at one-second slides up to its three-second span, and the first positive
classification escalates to a High alert with a simulated response. A process
that never trips a monitoring point is never deeply analyzed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time as time_mod
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from .decoys import DecoyRegistry, WatchUnavailable, check_event
from .events import (
    Alert,
    FileEvent,
    Level,
    Operation,
    ParseIssue,
    ProcessWindow,
    Response,
    ThreatLevel,
    Trigger,
    TriggerKind,
    extension_of,
    iter_events,
    parse_event_line,
)
from .features import N_EXPERT_FEATURES, WindowFold, build_graph, encode, extract_features, name_pattern_class
from .gbdt import BoostedForest, WidthMismatch
from .jsontypes import OBJECT, STRING, check
from .notes import DEFAULT_TAU_SIM, GenePool, decode_note, similarity, tokenize

US = 1_000_000

# Extensions whose create/write closes are scored for ransom-note content.
TEXT_EXTENSIONS = frozenset(("txt", "html", "htm", "hta", "md", "rtf"))
# Module globals for Engine.process: cheaper to read than Operation.CREATE.
_CREATE = Operation.CREATE
_WRITE = Operation.WRITE


def featurize(
    window: Union[ProcessWindow, _WindowState], dims: int, hash_seed: int, fold: Optional[WindowFold] = None
) -> np.ndarray:
    """The classifier row: expert features, then the hashed graph embedding.

    Training, serving and the CLI all build rows here, so the model scores
    exactly the row layout it was trained on. Only ``window.events`` is read,
    and only during the call: the engine passes the open window it keeps,
    whose events it has already bounded to the trigger's pid and span, and
    the fold it keeps for it. Both halves of the row read one fold.
    """
    if fold is None:
        fold = WindowFold()
    return np.concatenate([extract_features(window, fold=fold), encode(build_graph(window, fold=fold), dims, hash_seed)])


class ContentProvider(Protocol):
    def get(self, path: str) -> Optional[bytes]: ...


class MappingContentProvider:
    """Content from an in-memory path -> text/bytes mapping (trace replay)."""

    def __init__(self, mapping: dict[str, Union[str, bytes]]):
        self._mapping = mapping

    def get(self, path: str) -> Optional[bytes]:
        value = self._mapping.get(path)
        if value is None:
            return None
        # a lone surrogate becomes bytes that are not UTF-8, which are not scored
        return value.encode("utf-8", "surrogatepass") if isinstance(value, str) else value

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "MappingContentProvider":
        """Load a notes map. Raises ValueError unless the file holds a JSON
        object whose values are all strings."""
        (mapping,) = check([json.loads(Path(path).read_text(encoding="utf-8"))], OBJECT, "notes map")
        check(mapping, STRING, "notes map")
        return cls(mapping)


class FilesystemContentProvider:
    """Content read from the real file system (live mode)."""

    def __init__(self, max_bytes: int = 65536):
        self.max_bytes = max_bytes

    def get(self, path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as fp:
                return fp.read(self.max_bytes)
        except OSError:
            return None


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    window_total_us: int = 3 * US
    slide_us: int = 1 * US
    decision_threshold: float = 0.5
    tau_sim: float = DEFAULT_TAU_SIM
    max_note_bytes: int = 65536

    def __post_init__(self) -> None:
        for name in ("window_total_us", "slide_us", "max_note_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.window_total_us % self.slide_us:
            raise ValueError(
                f"window_total_us must be a whole number of {self.slide_us} us slides, got {self.window_total_us}"
            )
        for name in ("tau_sim", "decision_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def n_slides(self) -> int:
        return self.window_total_us // self.slide_us


@dataclass
class RunMetrics:
    events: int = 0
    triggers: int = 0
    windows_opened: int = 0
    classifier_calls: int = 0
    alerts_low: int = 0
    alerts_high: int = 0
    # High decisions by latency from trigger; every latency is k * slide_us, 1 <= k <= n_slides
    decision_latencies_us: dict[int, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def alerts_by_level(self) -> dict[str, int]:
        return {"low": self.alerts_low, "high": self.alerts_high}


def _percentile(counts: dict[int, int], q: float) -> Optional[int]:
    """The nearest-rank q-quantile of values given as value -> count."""
    rank = max(1, math.ceil(q * sum(counts.values())))
    for value in sorted(counts):
        rank -= counts[value]
        if rank <= 0:
            return value
    return None


def metrics_report(metrics: RunMetrics) -> dict:
    """The report fields promised by the engine interface."""
    return {
        "events": metrics.events,
        "triggers": metrics.triggers,
        "windows_opened": metrics.windows_opened,
        "classifier_calls": metrics.classifier_calls,
        "alerts_by_level": metrics.alerts_by_level,
        "decision_latency_p50_us": _percentile(metrics.decision_latencies_us, 0.50),
        "decision_latency_p99_us": _percentile(metrics.decision_latencies_us, 0.99),
        "events_per_second": round(metrics.events_per_second, 1),
        "wall_seconds": round(metrics.wall_seconds, 4),
    }


@dataclass
class _WindowState:
    trigger: Trigger
    pid_name: str
    events: list[FileEvent] = field(default_factory=list)
    fold: WindowFold = field(default_factory=WindowFold)  # the row state of a prefix of events


@dataclass(slots=True)
class _Process:
    """All the engine keeps of one (pid, pid_name), until it is forgotten."""
    last: int  # the time of its last event
    due: int  # the time of its one live entry in the engine's due heap
    window: Optional[_WindowState] = None
    terminated: bool = False
    scored: set[str] = field(default_factory=set)  # its note paths, each scored once


@dataclass
class ReplayResult:
    alerts: list[Alert]
    metrics: RunMetrics
    issues: list[ParseIssue] = field(default_factory=list)
    threat_by_pid: dict[int, Level] = field(default_factory=dict)

    def alerts_jsonl(self) -> str:
        return "".join(a.to_json_line() + "\n" for a in self.alerts)

    def save_alerts(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.alerts_jsonl(), encoding="utf-8")

    def save_metrics(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(metrics_report(self.metrics), indent=2), encoding="utf-8")


class Engine:
    """Streaming MDR core shared by trace replay and live watching.

    Single ingestion sequence, with one writer (this engine). A process has
    one record, keyed by ``(pid, pid_name)``, so a reused pid's new image is
    another process. Alert emission is serialized through the result list.
    Raises WidthMismatch for a forest that does not score the rows
    ``featurize`` builds with its embedding width.
    """

    def __init__(
        self,
        registry: DecoyRegistry,
        pool: Optional[GenePool],
        forest: BoostedForest,
        config: PipelineConfig = PipelineConfig(),
        content_provider: Optional[ContentProvider] = None,
    ) -> None:
        width = N_EXPERT_FEATURES + forest.dims
        if forest.n_features != width:
            raise WidthMismatch(
                f"model scores {forest.n_features} features, not the {width} of its {forest.dims}-bucket rows"
            )
        self.config = config
        self.pool = pool
        self.forest = forest
        self.content = content_provider or MappingContentProvider({})
        self.metrics = RunMetrics()
        self.alerts: list[Alert] = []
        self.threat_by_pid: dict[int, Level] = {}
        self._decoy_paths = frozenset(registry.entries())
        self._processes: dict[tuple[int, str], _Process] = {}
        self._due: list[tuple[int, tuple[int, str]]] = []  # min-heap of (time, process): slide boundaries and expiries

    # -- monitors ------------------------------------------------------------

    def _note_trigger(self, ev: FileEvent, scored: set[str]) -> Optional[Trigger]:
        """Score a Create or Write for ransom-note content, each path once; ``process`` checks the op."""
        if self.pool is None:
            return None
        if ev.file_type not in TEXT_EXTENSIONS:
            if ev.file_type or name_pattern_class(ev.file_name) != "note":
                return None
        if ev.file_name in scored:
            return None
        blob = self.content.get(ev.file_name)
        if not blob:  # an empty note may be filled by a later Write
            return None
        scored.add(ev.file_name)
        bound = self.pool.score_bound(blob[: self.config.max_note_bytes])
        if bound is not None and bound < self.config.tau_sim:  # cannot reach tau: skip the full scorer
            return None
        text = decode_note(blob, self.config.max_note_bytes)
        if text is None:
            return None
        verdict = similarity(tokenize(text), self.pool, tau=self.config.tau_sim)
        if not verdict.is_note:
            return None
        return Trigger(
            TriggerKind.RANSOM_NOTE, ev.pid, ev.file_name, ev.time,
            f"ransom note {ev.file_name} sim={verdict.score:.3f} matched={len(verdict.matched)}",
            verdict.score,
        )

    # -- window lifecycle ------------------------------------------------------

    def _decide(self, record: _Process, boundary: int) -> bool:
        """Decide the process's open window at ``boundary``; return True once it is closed.

        Every window closes and every alert is raised here, dated at ``boundary``.
        The row reads only the window's events, so the window is classified only
        when it has gained events since its last classification. High closes it
        at once and terminates its process, unless the pid is 0; otherwise it
        closes Low at its last slide. A terminated process's events are skipped
        until one comes ``window_total_us`` or more after the last: that one is
        a new process.
        """
        state = record.window
        trigger = state.trigger
        pid = trigger.pid
        metrics = self.metrics
        latency = boundary - trigger.time
        evidence = (trigger.detail, f"trigger_time_us={trigger.time}")
        prob = None
        # featurize folds every event it scores, so the fold holds the events of the last classification
        if len(state.events) > state.fold.n:
            row = featurize(state, self.forest.dims, self.forest.hash_seed, state.fold)
            metrics.classifier_calls += 1
            prob = self.forest.predict_row(row)
        if prob is not None and prob >= self.config.decision_threshold:
            self.threat_by_pid[pid] = Level.HIGH
            if pid:  # pid 0 is no process to stop: the idle task, and every live event's pid
                record.terminated = True
                record.last = state.events[-1].time
            metrics.decision_latencies_us[latency] = metrics.decision_latencies_us.get(latency, 0) + 1
            metrics.alerts_high += 1
            threat = ThreatLevel(Level.HIGH, trigger.kind, prob)
            evidence += (f"classifier_p={prob:.4f}", f"feature_digest={hashlib.sha256(row.tobytes()).hexdigest()[:12]}")
            response = Response.TERMINATE_SIMULATED
        elif latency < self.config.window_total_us:
            return False
        else:
            metrics.alerts_low += 1
            threat = ThreatLevel(Level.LOW, trigger.kind, min(1.0, round(trigger.score, 3)))
            response = Response.TRACK_ONLY
        self.alerts.append(Alert(boundary, pid, state.pid_name, threat, evidence, response))
        record.window = None
        return True

    # -- ingestion -------------------------------------------------------------

    def process(self, ev: FileEvent) -> None:
        self.metrics.events += 1
        due = self._due
        if due and due[0][0] <= ev.time:
            self.advance_time(ev.time)
        key = (ev.pid, ev.pid_name)
        record = self._processes.get(key)
        if record is None or record.terminated and ev.time - record.last >= self.config.window_total_us:
            record = self._processes[key] = _Process(ev.time, ev.time + self.config.window_total_us)  # a new one
            heappush(due, (record.due, key))
        record.last = ev.time
        if record.terminated:  # skipped, and its quiet gap starts again
            return
        state = record.window
        trigger = check_event(ev, self._decoy_paths)
        if trigger is None:
            op = ev.operation
            if op is _CREATE or op is _WRITE:
                trigger = self._note_trigger(ev, record.scored)
        if trigger is not None:
            self.metrics.triggers += 1
            if state is None:  # the one place a window opens
                self.metrics.windows_opened += 1
                self.threat_by_pid.setdefault(ev.pid, Level.LOW)
                state = record.window = _WindowState(trigger, ev.pid_name)
                record.due = trigger.time + self.config.slide_us
                heappush(due, (record.due, key))
        if state is not None and ev.time >= state.trigger.time:
            state.events.append(ev)

    def advance_time(self, now: float) -> None:
        """The engine's one clock: take every due entry at or before ``now``, earliest first. Each one that is its
        process's ``due`` decides its open window, reschedules, or forgets it once quiet for ``window_total_us``."""
        due, processes = self._due, self._processes
        while due and due[0][0] <= now:
            when, key = heappop(due)
            record = processes.get(key)
            if record is None or record.due != when:
                continue
            if record.window is not None and not self._decide(record, when):
                record.due = when + self.config.slide_us
            elif record.last + self.config.window_total_us > when:
                record.due = record.last + self.config.window_total_us
            else:
                del processes[key]
                continue
            heappush(due, (record.due, key))

    def finish(self) -> None:
        """End of stream: the clock runs out, so every window is decided to its close and every process forgotten."""
        self.advance_time(math.inf)

    def result(self, issues: Optional[list[ParseIssue]] = None) -> ReplayResult:
        return ReplayResult(self.alerts, self.metrics, issues or [], dict(self.threat_by_pid))


def run_replay(
    log_path: Union[str, Path],
    registry: DecoyRegistry,
    pool: Optional[GenePool],
    forest: BoostedForest,
    config: PipelineConfig = PipelineConfig(),
    content_provider: Optional[ContentProvider] = None,
) -> ReplayResult:
    """Replay a JSON-Lines trace through the full funnel.

    Deterministic: alert timestamps are simulated (trace-relative), so two
    replays of the same artifacts produce identical alert streams.
    """
    engine = Engine(registry, pool, forest, config, content_provider)
    issues: list[ParseIssue] = []
    process = engine.process
    started = time_mod.perf_counter()
    with open(log_path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        # parse_event_line is looked up here, so a patched module global is used
        for ev in iter_events(fp, issues, parse_event_line):
            process(ev)
    engine.finish()
    engine.metrics.wall_seconds = time_mod.perf_counter() - started
    return engine.result(issues)


class DirectoryWatcher:
    """Polling directory scanner emitting FileEvents for live runs.

    User space cannot attribute file changes to a process, so every live
    event carries pid 0. Each ``poll`` compares a fresh scan with the one
    before it: new paths become Create, metadata changes become Write,
    vanished paths become Delete.
    """

    def __init__(self, dirs: Sequence[Union[str, Path]]):
        self.dirs = [str(d) for d in dirs]
        missing = [d for d in self.dirs if not os.path.isdir(d)]
        if missing:
            raise WatchUnavailable(f"not watchable: {', '.join(missing)}")
        self._origin = time_mod.monotonic()
        self._snapshot = self._scan()

    def _scan(self) -> dict[str, tuple[int, int]]:
        snap: dict[str, tuple[int, int]] = {}
        for root in self.dirs:
            for dirpath, _dirnames, filenames in os.walk(root):
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    snap[path] = (st.st_mtime_ns, st.st_size)
        return snap

    def now_us(self) -> int:
        return int((time_mod.monotonic() - self._origin) * US)

    def poll(self) -> list[FileEvent]:
        """The changes since the previous scan, all stamped with this scan's time.

        Creates and writes come in scan order, then deletes in the previous
        scan's order.
        """
        old, current = self._snapshot, self._scan()
        when = self.now_us()
        events = []
        for path, meta in current.items():
            before = old.get(path)
            if before != meta:
                op = Operation.CREATE if before is None else Operation.WRITE
                events.append(FileEvent(when, 0, "live", op, path, extension_of(path)))
        for path in old:
            if path not in current:
                events.append(FileEvent(when, 0, "live", Operation.DELETE, path, extension_of(path)))
        self._snapshot = current
        return events


def run_live(
    dirs: Sequence[Union[str, Path]],
    registry: DecoyRegistry,
    pool: Optional[GenePool],
    forest: BoostedForest,
    config: PipelineConfig = PipelineConfig(),
    duration_s: Optional[float] = None,
    content_provider: Optional[ContentProvider] = None,
    on_alert: Optional[Callable[[Alert], None]] = None,
    poll_interval: float = 0.05,
) -> ReplayResult:
    """Watch directories live and run the same funnel over observed events.

    Runs in the caller's thread until ``duration_s`` has passed, or until
    interrupted when it is None. Each pass polls the watcher, hands the
    engine its events, decoy touches first, advances open windows to the
    watcher's clock and passes new alerts to ``on_alert``, then sleeps
    ``poll_interval``.
    Besides ``dirs``, the watcher covers the directory of every registered
    decoy that exists, so a decoy planted outside ``dirs`` still trips.
    Raises WatchUnavailable when the directories cannot be watched; the
    caller degrades to replay-only operation.
    """
    watched = [str(d) for d in dirs]
    decoys = frozenset(registry.paths())
    decoy_dirs = {os.path.dirname(path) for path in decoys}
    watched += sorted(d for d in decoy_dirs if d not in watched and os.path.isdir(d))
    engine = Engine(registry, pool, forest, config, content_provider or FilesystemContentProvider(config.max_note_bytes))
    watcher = DirectoryWatcher(watched)
    started = time_mod.perf_counter()
    seen_alerts = 0
    while True:
        # A poll's events share one time stamp: its decoy touches go first,
        # so a window they open holds the whole poll.
        for ev in sorted(watcher.poll(), key=lambda ev: check_event(ev, decoys) is None):
            engine.process(ev)
        engine.advance_time(watcher.now_us())
        done = duration_s is not None and time_mod.perf_counter() - started >= duration_s
        if done:
            engine.finish()
        if on_alert is not None:
            for alert in engine.alerts[seen_alerts:]:
                on_alert(alert)
        seen_alerts = len(engine.alerts)
        if done:
            break
        time_mod.sleep(poll_interval)
    engine.metrics.wall_seconds = time_mod.perf_counter() - started
    return engine.result()
