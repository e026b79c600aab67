"""Spans and per-call histograms recorded around the layers' public functions.

The program is not changed: the tracer swaps the module globals that
`ransomwatch.pipeline` looks up (and the forest's `predict_row`) for timed
wrappers while a traced replay runs, and restores them afterwards.

Per-decision calls become spans with their parent, and so does every call
that has a span below it (the `Engine.process` call that decided). Every
call, span or not, is also folded into a per-name aggregate of count, total
time, self time and a log2-bucket histogram, so a per-event layer costs
constant memory however long the trace is. Self time is a call's duration
minus the time its traced children took.

A wrapper costs time of its own, which lands in its caller's self time.
`wrapper_cost_ns` measures that cost on a no-op, and `net_self_ns` takes it
out again, so layer shares are not skewed towards the callers of many small
calls.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from ransomwatch import pipeline
from ransomwatch.gbdt import BoostedForest

# Each traced function and the layer its self time is charged to. The
# run_replay self time is the residual: line reads and the replay loop.
LAYERS = {
    "pipeline.run_replay": "residual",
    "events.parse_event_line": "events",
    "pipeline.Engine.process": "pipeline",
    "pipeline.Engine.finish": "pipeline",
    "notes.tokenize": "notes",
    "notes.similarity": "notes",
    "features.extract_features": "features",
    "graph.build_graph": "graph",
    "graph.encode": "graph",
    "gbdt.predict_row": "gbdt",
}


class Aggregate:
    """Count, total and self time, and a log2 histogram of call durations."""

    __slots__ = ("calls", "total_ns", "self_ns", "child_calls", "buckets")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.child_calls = 0  # traced calls made directly from these calls
        # bucket b counts durations d with d.bit_length() == b, i.e. [2^(b-1), 2^b) ns
        self.buckets = [0] * 64

    def net_self_ns(self, wrapper_ns: float) -> float:
        """Self time less the cost of wrapping the traced calls made from it."""
        return self.self_ns - wrapper_ns * self.child_calls

    def to_dict(self) -> dict:
        last = max((b for b, n in enumerate(self.buckets) if n), default=-1)
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "child_calls": self.child_calls,
            "log2_ns_buckets": self.buckets[: last + 1],
        }


class Span(NamedTuple):
    span_id: int
    parent_id: int
    name: str
    start_ns: int
    duration_ns: int
    self_ns: int
    window_events: Optional[int]


class _Frame:
    __slots__ = ("child_ns", "span_id", "agg")

    def __init__(self, agg: Optional[Aggregate] = None, span_id: Optional[int] = None) -> None:
        self.child_ns = 0
        self.span_id = span_id
        self.agg = agg


class Tracer:
    """Collects spans and aggregates for one traced replay."""

    def __init__(self) -> None:
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[Span] = []
        self._stack = [_Frame(span_id=0)]
        self._last_id = 0

    def _new_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def wrap(self, name: str, fn: Callable, span: bool = False,
             window_events: Optional[Callable] = None) -> Callable:
        """Time every call of fn under name; span=True records each call as a span."""
        agg = self.aggregates.setdefault(name, Aggregate())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        new_id = self._new_id

        def traced(*args, **kwargs):
            frame = _Frame(agg)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame.child_ns
                parent = stack[-1]
                parent.child_ns += duration
                if parent.agg is not None:
                    parent.agg.child_calls += 1
                agg.calls += 1
                agg.total_ns += duration
                agg.self_ns += own
                agg.buckets[duration.bit_length()] += 1
                if span or frame.span_id is not None:
                    if frame.span_id is None:
                        frame.span_id = new_id()
                    if parent.span_id is None:
                        parent.span_id = new_id()
                    size = window_events(*args) if window_events is not None else None
                    spans.append(Span(frame.span_id, parent.span_id, name, start, duration, own, size))

        return traced

    def calls(self) -> int:
        return sum(agg.calls for agg in self.aggregates.values())

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["aggregates"] = {name: agg.to_dict() for name, agg in self.aggregates.items()}
        payload["spans"] = [s._asdict() for s in self.spans]
        path.write_text(json.dumps(payload), encoding="utf-8")


def wrapper_cost_ns(calls: int = 20_000, rounds: int = 7) -> float:
    """Time one traced call adds to its caller, median over rounds on a no-op."""
    tracer = Tracer()

    def noop(x):
        return x

    traced = tracer.wrap("noop", noop)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(rounds):
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            traced(i)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[rounds // 2]


@contextmanager
def instrumented(tracer: Tracer, forest: BoostedForest, note_hits: list[int]) -> Iterator[Callable]:
    """Patch the pipeline's layer entry points with tracer wrappers.

    Yields the traced run_replay. note_hits[0] counts the similarity calls
    whose verdict was a note, which is exactly the note triggers raised.
    """
    originals = {
        name: getattr(pipeline, name)
        for name in ("Engine", "parse_event_line", "tokenize", "similarity",
                     "extract_features", "build_graph", "encode")
    }

    def similarity(*args, **kwargs):
        verdict = originals["similarity"](*args, **kwargs)
        note_hits[0] += verdict.is_note
        return verdict

    engine_cls = originals["Engine"]
    traced_engine = type("Engine", (engine_cls,), {
        "process": tracer.wrap("pipeline.Engine.process", engine_cls.process),
        "finish": tracer.wrap("pipeline.Engine.finish", engine_cls.finish, span=True),
    })
    patches = {
        "Engine": traced_engine,
        "parse_event_line": tracer.wrap("events.parse_event_line", originals["parse_event_line"]),
        "tokenize": tracer.wrap("notes.tokenize", originals["tokenize"]),
        "similarity": tracer.wrap("notes.similarity", similarity),
        "extract_features": tracer.wrap(
            "features.extract_features", originals["extract_features"], span=True,
            window_events=lambda window: len(window.events),
        ),
        "build_graph": tracer.wrap("graph.build_graph", originals["build_graph"], span=True),
        "encode": tracer.wrap("graph.encode", originals["encode"], span=True),
    }
    for name, fn in patches.items():
        setattr(pipeline, name, fn)
    forest.predict_row = tracer.wrap("gbdt.predict_row", forest.predict_row, span=True)
    try:
        yield tracer.wrap("pipeline.run_replay", pipeline.run_replay, span=True)
    finally:
        del forest.predict_row
        for name, fn in originals.items():
            setattr(pipeline, name, fn)
