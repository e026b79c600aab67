"""Funnel benchmark: seeded trace replays, checked against ground truth.

    python3 perfbench/run.py --workload benign_mix --seed 1 --seconds 10 --trace 0

One run prepares the workload's files in a child process (trace, decoy
registry, note contents, gene pool and model, trained with the package's own
build_corpus, fit and build_pool), then, in this process:

1. times set-up as `ransomwatch run` pays it: load model, pool, registry and
   notes from files and construct the Engine, repeated, median reported;
2. replays a prefix of the trace, untimed, to warm up;
3. with --trace 0, replays the trace through `pipeline.run_replay` for
   --seconds, reloading the inputs (more set-up samples) before each replay,
   and reports the median of the replays' events/s, then peak resident
   memory, which covers set-up and replay only;
4. with --trace 1, feeds pre-parsed events to `Engine.process` one at a time,
   as live mode does, timing each call that decided a slide; then, for
   --seconds, alternates plain replays with replays that have every layer's
   entry point traced (see tracing.py). The spans and aggregates of the last
   traced replay go to perfbench/out/<workload>/trace.json;
5. checks every replay against ground truth, one operation per pid. A run
   that raises fails every pid and still prints its result.

Replay is a closed loop: the next line is read only after the previous event
is processed, so events/s is the sustainable rate of one consumer.

`events_per_s` and `setup_s` are rescaled to a reference processor speed
that a probe measures inside each timed interval (see SpeedProbe); the
measured rates and the slowness factors are printed too.

The last line of stdout is the JSON result; the lines before it print every
metric with its unit.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from workloads import ROOT, WORKLOADS

import numpy as np  # noqa: E402  (after workloads puts the checkout first on the path)

from ransomwatch import pipeline  # noqa: E402
from ransomwatch.decoys import DecoyRegistry  # noqa: E402
from ransomwatch.events import Level, parse_event_log  # noqa: E402
from ransomwatch.gbdt import BoostedForest  # noqa: E402
from ransomwatch.notes import GenePool  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
MIN_REPLAYS = 3
# Set-up takes milliseconds, so it is sampled many times: a block before the
# warm-up, and a few loads before each timed replay, so that the samples
# cover the same stretch of machine time as the replays do.
SETUP_FIRST = (0.5, 10)  # at least this many seconds and loads
SETUP_BETWEEN = (0.1, 3)
PREPARE_TIMEOUT_S = 150
# The speed probe: a loop of PROBE_LOOP steps, timed every PROBE_PERIOD_S.
# PROBE_REF_NS is about its duration on an unloaded 2.1 GHz Xeon core under
# Python 3.11; it only fixes the scale of the rescaled figures.
PROBE_WARM = 50
PROBE_LOOP = 300
PROBE_PERIOD_S = 0.005
PROBE_REF_NS = 13_000
LEVEL_RANK = {Level.NONE: 0, Level.LOW: 1, Level.HIGH: 2}

# Metric names and units come from the benchmark's own definition, so the
# output cannot drift from it. The per-layer stall, delay and loss figures
# apply to triggered_mix only; a time or ratio over no calls reads 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class SpeedProbe:
    """Times a small, cache-resident loop every few milliseconds from a timer signal.

    On a shared virtual machine, other tenants slow this process down by up to
    2x, for stretches of milliseconds to minutes, and no steal time shows: the
    processor itself runs slower. The probe runs inside the measured interval,
    so its mean duration there tracks the speed the measured code saw: over
    replays of one trace, its log correlates with the log of replay wall time
    at 0.88 to 0.98. `slowness` is that mean over PROBE_REF_NS; a time divided by
    it is the time at the reference speed. Each probe costs about 0.3% of the
    measured time, the same share for any program.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []

    def _tick(self, signum, frame) -> None:
        x = 0
        for i in range(PROBE_WARM):  # brings the loop back into the caches
            x += i * i
        t0 = time.perf_counter_ns()
        for i in range(PROBE_LOOP):
            x += i * i
        self.samples.append(time.perf_counter_ns() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def restart(self) -> None:
        self.samples.clear()

    def slowness(self) -> float:
        """Mean probe time since the last restart, over the reference time."""
        if not self.samples:
            raise RuntimeError("speed probe: no sample in the measured interval")
        return statistics.fmean(self.samples) / PROBE_REF_NS


def prepare(workload: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


class Inputs:
    """The program's loaded inputs, as `ransomwatch run` loads them."""

    def __init__(self, work: Path) -> None:
        self.trace = work / "trace.jsonl"
        self.warm = work / "warm.jsonl"
        notes = work / "notes.json"
        t0 = time.perf_counter()
        self.forest = BoostedForest.from_bytes((work / "model.bin").read_bytes())
        t1 = time.perf_counter()
        self.pool = GenePool.from_json((work / "pool.json").read_text(encoding="utf-8"))
        t2 = time.perf_counter()
        self.registry = DecoyRegistry.load(work / "decoys.json")
        self.content = pipeline.MappingContentProvider.from_json_file(notes) if notes.exists() else None
        # constructed for its cost only; run_replay builds its own
        pipeline.Engine(self.registry, self.pool, self.forest, pipeline.PipelineConfig(), self.content)
        t3 = time.perf_counter()
        self.setup_s = t3 - t0
        self.from_bytes_s = t1 - t0
        self.from_json_s = t2 - t1

    def replay(self, run_replay=None, trace: Optional[Path] = None):
        run_replay = run_replay or pipeline.run_replay
        return run_replay(trace or self.trace, self.registry, self.pool, self.forest,
                          pipeline.PipelineConfig(), self.content)


class Checker:
    """Per-pid outcome checks and run-level checks against ground truth."""

    def __init__(self, truth: dict, workload: str) -> None:
        self.lines = truth["lines"]
        # label and highest allowed level only: a ransomware pid must reach High
        self.allowed = {
            int(pid): Level.HIGH if info["label"] == "ransomware" else Level(info["max_level"])
            for pid, info in truth["pids"].items()
        }
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.run_failures: list[str] = []

    def check_result(self, label: str, result) -> None:
        self.attempted += len(self.allowed)
        for pid, allowed in self.allowed.items():
            level = result.threat_by_pid.get(pid, Level.NONE)
            if allowed is Level.HIGH:
                ok = level is Level.HIGH
            else:
                ok = LEVEL_RANK[level] <= LEVEL_RANK[allowed]
            self.failed += not ok
        events, calls = result.metrics.events, result.metrics.classifier_calls
        if events != self.lines:
            self.run_failures.append(f"{label}: counted {events} events, wrote {self.lines} lines")
        if self.workload == "benign_mix" and calls:
            self.run_failures.append(f"{label}: {calls} classifier calls on benign_mix")

    def raised(self, exc: BaseException) -> None:
        """A run that raises fails every pid once more, on top of any checked so far."""
        self.attempted += len(self.allowed)
        self.failed += len(self.allowed)
        self.run_failures.append(f"raised {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_failures


def load_timed(work: Path, seconds: float, count: int, samples: list, probe: SpeedProbe) -> Inputs:
    """Load the inputs at least `count` times and for at least `seconds`.

    Appends (set-up, from_bytes, from_json) seconds of each load, rescaled to
    the reference speed, to samples and returns the last load. Only one load
    is alive at a time.
    """
    loaded, times = None, []
    probe.restart()
    started = time.perf_counter()
    while len(times) < count or time.perf_counter() - started < seconds:
        loaded = None
        gc.collect()
        loaded = Inputs(work)
        times.append((loaded.setup_s, loaded.from_bytes_s, loaded.from_json_s))
    slowness = probe.slowness()
    samples.extend(tuple(t / slowness for t in load) for load in times)
    return loaded


def replay_wall(inputs: Inputs, run_replay=None) -> tuple[float, object]:
    """One replay from trace file to alerts; returns (wall seconds, result)."""
    gc.collect()
    t0 = time.perf_counter()
    result = inputs.replay(run_replay)
    return time.perf_counter() - t0, result


def timed_replays(work: Path, seconds: float, setup: list, checker: Checker,
                  probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Replay for at least `seconds` and MIN_REPLAYS times.

    Returns the measured events/s of each replay and the slowness the probe
    saw during it. Each replay gets freshly loaded inputs, which adds set-up
    samples spread over the same stretch of time as the replays. Each result
    is checked and dropped at once, so memory does not grow with the number
    of replays.
    """
    rates, slowness = [], []
    started = time.perf_counter()
    while len(rates) < MIN_REPLAYS or time.perf_counter() - started < seconds:
        inputs = None  # one copy of the inputs at a time
        inputs = load_timed(work, *SETUP_BETWEEN, setup, probe)
        gc.collect()
        probe.restart()
        t0 = time.perf_counter()
        result = inputs.replay()
        wall = time.perf_counter() - t0
        slowness.append(probe.slowness())
        checker.check_result(f"replay {len(rates)}", result)
        rates.append(result.metrics.events / wall)
        result = None
    return rates, slowness


def ransom_outcomes(result, truth: dict) -> dict:
    """Event-time delay from trigger to High alert and files lost before it."""
    pids = {int(pid): info for pid, info in truth["pids"].items()}
    first_high = {}
    for alert in result.alerts:
        if alert.threat.level is Level.HIGH and alert.pid not in first_high:
            first_high[alert.pid] = alert
    delays, lost = [], 0
    for pid, info in pids.items():
        alert = first_high.get(pid)
        if info["label"] != "ransomware" or alert is None:
            continue
        trigger_us = next(int(e.split("=", 1)[1]) for e in alert.evidence if e.startswith("trigger_time_us="))
        delays.append((alert.created_at - trigger_us) / 1e6)
        lost += sum(1 for t in info["encrypted_at"] if t < alert.created_at)
    return {"detect_delay_s_max": max(delays, default=0.0), "files_lost": lost}


def stall_pass(inputs: Inputs, checker: Checker, truth: dict) -> dict:
    """Feed pre-parsed events to Engine.process, timing each call that decided."""
    with open(inputs.trace, "r", encoding="utf-8") as fp:
        events = parse_event_log(fp).events
    engine = pipeline.Engine(inputs.registry, inputs.pool, inputs.forest, pipeline.PipelineConfig(), inputs.content)
    metrics = engine.metrics
    process = engine.process
    threat = engine.threat_by_pid
    clock = time.perf_counter_ns
    stalls = []
    skipped = 0
    gc.collect()
    for ev in events:
        skipped += threat.get(ev.pid) is Level.HIGH
        before = metrics.classifier_calls
        t0 = clock()
        process(ev)
        elapsed = clock() - t0
        if metrics.classifier_calls != before:
            stalls.append(elapsed)
    before = metrics.classifier_calls
    engine.finish()
    result = engine.result()
    checker.check_result("stall pass", result)
    return {
        **ransom_outcomes(result, truth),
        "stall_ms_p50": percentile(stalls, 0.50) / 1e6,
        "stall_ms_p99": percentile(stalls, 0.99) / 1e6,
        "stall_samples": len(stalls),
        "pipeline.finish_decisions": metrics.classifier_calls - before,
        "pipeline.skipped_after_high": skipped,
    }


def traced_pass(inputs: Inputs, checker: Checker, seconds: float, out: Path) -> dict:
    """Replay with the layers traced; per-layer times from the last traced replay.

    Traced and untraced replays alternate, and the tracing overhead is the
    median over the pairs, so that a drift in machine speed cancels out. The
    cost of the tracer's wrappers is measured in each pair too; self times are
    taken net of its median, and `trace.accounted_pct` compares what remains
    of the traced replay with the untraced one.
    """
    note_hits = [0]
    pairs, wrapper_costs = [], []
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started < seconds:
        plain_wall, plain = replay_wall(inputs)
        checker.check_result(f"paired replay {len(pairs)}", plain)
        plain = None
        wrapper_costs.append(tracing.wrapper_cost_ns())
        tracer = tracing.Tracer()
        note_hits[0] = 0
        with tracing.instrumented(tracer, inputs.forest, note_hits) as run_replay:
            wall, result = replay_wall(inputs, run_replay)
        checker.check_result(f"traced replay {len(pairs)}", result)
        # the wrapper of run_replay itself lies outside the traced interval
        pairs.append((plain_wall, wall, tracer.calls() - 1))
    wrapper_ns = statistics.median(wrapper_costs)
    overhead = statistics.median(traced / plain for plain, traced, _ in pairs)
    accounted = statistics.median((traced * 1e9 - wrapper_ns * calls) / (plain * 1e9)
                                  for plain, traced, calls in pairs)

    agg = tracer.aggregates
    m = result.metrics

    def us_mean(name: str) -> float:
        a = agg[name]
        return a.total_ns / a.calls / 1e3 if a.calls else 0.0

    def self_us_mean(name: str) -> float:
        a = agg[name]
        return a.net_self_ns(wrapper_ns) / a.calls / 1e3 if a.calls else 0.0

    def span_ms(name: str, q: float) -> float:
        return percentile([s.duration_ns for s in tracer.spans_named(name)], q) / 1e6

    layer_ns = {layer: 0.0 for layer in tracing.LAYERS.values()}
    for name, layer in tracing.LAYERS.items():
        layer_ns[layer] += agg[name].net_self_ns(wrapper_ns)
    net_wall_ns = sum(layer_ns.values())
    note_triggers = note_hits[0]
    metrics = {
        "events.parse_event_line.calls": agg["events.parse_event_line"].calls,
        "events.parse_event_line.us_mean": us_mean("events.parse_event_line"),
        "events.issues": len(result.issues),
        "pipeline.run_replay.self_s": agg["pipeline.run_replay"].net_self_ns(wrapper_ns) / 1e9,
        "pipeline.Engine.process.self_us_mean": self_us_mean("pipeline.Engine.process"),
        "pipeline.decide.self_ms_p99": percentile(
            [s.self_ns for s in tracer.spans_named("pipeline.Engine.process")], 0.99) / 1e6,
        "pipeline.triggers.decoy": m.triggers - note_triggers,
        "pipeline.triggers.note": note_triggers,
        "pipeline.windows_opened": m.windows_opened,
        "pipeline.classifier_calls": m.classifier_calls,
        "pipeline.window_events_p99": percentile(
            [s.window_events for s in tracer.spans_named("features.extract_features")], 0.99),
        "pipeline.high_per_trigger": m.alerts_high / m.triggers if m.triggers else 0.0,
        "notes.tokenize.calls": agg["notes.tokenize"].calls,
        "notes.tokenize.us_mean": us_mean("notes.tokenize"),
        "notes.similarity.calls": agg["notes.similarity"].calls,
        "notes.similarity.us_mean": us_mean("notes.similarity"),
        "notes.hit_ratio": note_triggers / agg["notes.similarity"].calls if agg["notes.similarity"].calls else 0.0,
        "features.extract_features.ms_p50": span_ms("features.extract_features", 0.50),
        "features.extract_features.ms_p99": span_ms("features.extract_features", 0.99),
        "graph.build_graph.ms_p50": span_ms("graph.build_graph", 0.50),
        "graph.build_graph.ms_p99": span_ms("graph.build_graph", 0.99),
        "graph.encode.us_p50": span_ms("graph.encode", 0.50) * 1e3,
        "gbdt.predict_row.us_p50": span_ms("gbdt.predict_row", 0.50) * 1e3,
        "gbdt.predict_row.us_p99": span_ms("gbdt.predict_row", 0.99) * 1e3,
        "trace.overhead_pct": (overhead - 1.0) * 100.0,
        "trace.accounted_pct": accounted * 100.0,
    }
    for layer, ns in layer_ns.items():
        metrics[f"layer.{layer}.self_pct"] = ns / net_wall_ns * 100.0
    tracer.write(out / "trace.json", {
        "wall_ns": wall * 1e9,
        "wrapper_ns": wrapper_ns,
        "layer_net_self_ns": layer_ns,
        "machine": machine_facts(),
    })
    return metrics


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": importlib.util.find_spec("orjson") is not None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="ransomwatch funnel benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = OUT_DIR / args.workload
    prepare(args.workload, args.seed, work)
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    checker = Checker(truth, args.workload)
    if not args.trace:
        truth = None  # the checks need only the compact copy
    found = {}
    try:
        probe = SpeedProbe()
        with probe:
            Inputs(work)  # untimed: warms imports and the page cache
            setup = []
            inputs = load_timed(work, *SETUP_FIRST, setup, probe)
            # a replay of the trace's prefix warms the allocator and lazy set-up;
            # its pids are cut short, so it is not checked against ground truth
            inputs.replay(trace=inputs.warm)
            if not args.trace:
                inputs = None
                rates, slowness = timed_replays(work, args.seconds, setup, checker, probe)
                found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                found["events_per_s"] = statistics.median(r * k for r, k in zip(rates, slowness))
                found["setup_s"] = statistics.median(s[0] for s in setup)
                print(f"replays: {args.workload} seed {args.seed}, measured events/s "
                      + " ".join(f"{rate:.0f}" for rate in rates))
                print("slowness: " + " ".join(f"{k:.3f}" for k in slowness))
        if args.trace:
            found["gbdt.BoostedForest.from_bytes.ms"] = statistics.median(s[1] for s in setup) * 1e3
            found["notes.GenePool.from_json.ms"] = statistics.median(s[2] for s in setup) * 1e3
            # the probe is off here: it would land inside the stalls and spans measured
            found.update(stall_pass(inputs, checker, truth))
            found.update(traced_pass(inputs, checker, args.seconds, work))
    except Exception as exc:  # a crash fails every pid of the run
        traceback.print_exc()
        checker.raised(exc)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    # a metric the run did not get to measure before it raised reads 0
    metrics = {name: {"value": found.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    for failure in checker.run_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("machine: " + json.dumps(machine_facts()))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
