"""The four workloads: batch joins, a sliding-window stream, and a daemon.

Each runner takes its spec (see ``inputs.SPECS``), its input files, the
run length and, for the traced run, an installed
:class:`layers.LayerProbe`.  It runs whole rounds of identical
operations until the run length is spent, checks every answer after the
timed work is done, and returns a :class:`Outcome`.

Every timed operation is preceded by ``gc.collect()`` outside the timed
region, so a collection the previous operation left due is not charged
to the next one.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import (
    RecordCollection,
    TopkOptions,
    TopkStats,
    load_collection,
    similarity_by_name,
    topk_join,
    topk_join_iter,
)
from repro.obs.tracer import Tracer
from repro.serve import ServeClient
from repro.stream import StreamingTopkEngine

import oracle
from inputs import read_token_lines
from layers import LayerProbe
from speed import MachineSpeed

Row = Tuple[int, int, float]

#: The fewest timed samples a run keeps, so that the 99th percentile has
#: at least ten samples beyond it.
TAIL_SAMPLES = 1000
#: Progressive emission is timed to the first pair and to the tenth, the
#: paper's interactive reader who asks for the best ten first.
QUERY_DEPTH = 10
#: stream-refill checks the live result every this many timed inserts.
CHECK_EVERY = 16
#: Timed re-loads of the batch input files per run, round-robin: a fixed
#: count, so the insert tail is the same percentile (p90) in every run.
LOAD_SAMPLES = 100
#: serve-mixed: inserts kept in flight on the writing connection (far
#: below the daemon's --queue-limit, so none is refused).
IN_FLIGHT = 2
QUEUE_LIMIT = 64
#: Reference loops timed whenever a daemon has nothing in flight: the
#: load generator must not compete with the daemon mid-phase, and a loop
#: timed beside a busy daemon reads the two processes' contention, not
#: the machine's speed.
SETTLE_SAMPLES = 60


@dataclass
class Outcome:
    """What one pass of a workload measured and found."""

    #: End-to-end metric name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metric name -> (value, unit); empty unless traced.
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Work counts of every round; identical rounds must count the same.
    round_counts: List[Dict[str, float]] = field(default_factory=list)
    #: Reference-loop samples taken between this pass's timed operations.
    speed: MachineSpeed = field(default_factory=MachineSpeed)
    #: Brute-force checks, run once every pass has read its peak RSS.
    deferred: List[Callable[[], List[str]]] = field(default_factory=list)


def mean_of_medians(samples: List[List[float]]) -> float:
    """Mean over inputs of each input's median: one draw moves it less."""
    return sum(median(values) for values in samples) / len(samples)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, MiB."""
    with open("/proc/%d/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def run_rounds(seconds: float, done: Callable[[], bool], one_round: Callable[[], None]) -> int:
    """Run whole rounds while *done()* fails or half a round still fits in *seconds*."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if done() and elapsed + 0.5 * elapsed / rounds >= seconds:
            return rounds


def rows_of(results: Sequence[Any]) -> List[Row]:
    return [(r.x, r.y, r.similarity) for r in results]


def check_round_counts(outcome: Outcome) -> None:
    """Identical rounds must do identical work; a drift means behaviour changed."""
    first = outcome.round_counts[0] if outcome.round_counts else {}
    for index, counts in enumerate(outcome.round_counts[1:], start=2):
        if counts != first:
            drift = sorted(k for k in first if counts.get(k) != first[k])
            outcome.problems.append(
                "work counts of round %d differ from round 1: %s" % (index, drift)
            )


def layer_counts(layers: Dict[str, float]) -> Dict[str, float]:
    """The work counts among a traced round's layer totals."""
    return {name: value for name, value in layers.items()
            if name in ("seed.verifications", "events.count", "events.probes",
                        "kernel.scan_calls", "index.inserted", "index.deleted")}


class LayerRounds:
    """Per-round differences of the probe's totals (traced passes only)."""

    def __init__(self, probe: Optional[LayerProbe]) -> None:
        self.probe = probe
        self.rounds: List[Dict[str, float]] = []
        self._open: Dict[str, float] = {}

    def begin(self) -> None:
        if self.probe is not None:
            self._open = self.probe.snapshot()

    def end(self, into: Dict[str, float]) -> None:
        """Add the totals since :meth:`begin` into *into*."""
        if self.probe is None:
            return
        for name, value in self.probe.snapshot().items():
            into[name] = into.get(name, 0.0) + value - self._open.get(name, 0.0)


def mean_layers(rounds: List[Dict[str, float]], per: float = 1.0) -> Dict[str, float]:
    """Mean of each per-round figure, divided by *per*."""
    names = sorted({name for values in rounds for name in values})
    return {
        name: sum(values.get(name, 0.0) for values in rounds) / len(rounds) / per
        for name in names
    }


# ----------------------------------------------------------------------
# batch-dblp, batch-3gram
# ----------------------------------------------------------------------


def timed_join(collection: RecordCollection, k: int, sim: Any, options: TopkOptions,
               stats: Optional[TopkStats] = None) -> Tuple[List[Row], float, float, float]:
    """One complete join, read progressively: ``topk_join_iter`` to its end.

    Returns the answer and the seconds to its first pair, to its
    ``QUERY_DEPTH``-th pair and to its last.  ``topk_join`` is this loop
    plus zero-similarity padding, which none of these inputs needs (the
    checks reject a short answer).
    """
    rows: List[Row] = []
    begin = time.perf_counter()
    for result in topk_join_iter(collection, k, similarity=sim, options=options, stats=stats):
        rows.append((result.x, result.y, result.similarity))
        if len(rows) == 1:
            first = time.perf_counter() - begin
        if len(rows) == QUERY_DEPTH:
            depth = time.perf_counter() - begin
    return rows, first, depth, time.perf_counter() - begin


def tail_percentile(values: Sequence[float]) -> float:
    """p99, or with fewer than 1000 samples the highest percentile that
    still has ten samples beyond it (the median below 40 samples)."""
    if len(values) < 40:
        return median(values)
    return percentile(values, min(99.0, 100.0 * (1 - 10.0 / len(values))))


def run_batch(spec: Dict[str, Any], files: List[str], seconds: float,
              probe: Optional[LayerProbe]) -> Outcome:
    """Load and join each input collection, in rounds.

    Set-up loads every input file and runs one warm-up ``topk_join`` on
    it.  Then rounds that each run one complete join, read progressively
    (:func:`timed_join`), per collection, and after them ``LOAD_SAMPLES``
    timed re-loads (the batch ingest path; each gives one per-record
    sample).  The loads come last: right after set-up their times moved
    with set-up's from run to run, while the reference loop is sampled
    mostly during the joins.
    """
    outcome = Outcome()
    sim = similarity_by_name(spec["similarity"])
    options = TopkOptions(maxdepth=spec["maxdepth"])
    k = spec["k"]
    collections: List[RecordCollection] = []
    setup: List[float] = []
    for path in files:
        gc.collect()
        begin = time.perf_counter()
        collection = load_collection(path)
        topk_join(collection, k, similarity=sim, options=options)
        setup.append(time.perf_counter() - begin)
        outcome.speed.after(setup[-1])
        collections.append(collection)
    outcome.attempted += 2 * len(files)

    count = len(files)
    layer_rounds = LayerRounds(probe)
    joins: List[List[float]] = [[] for __ in files]
    firsts: List[List[float]] = [[] for __ in files]
    depths: List[List[float]] = [[] for __ in files]
    answers: List[List[Row]] = [[] for __ in files]

    def one_round() -> None:
        counts: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        for index, collection in enumerate(collections):
            gc.collect()
            stats = TopkStats()
            layer_rounds.begin()
            rows, first, depth, total = timed_join(collection, k, sim, options, stats)
            layer_rounds.end(layers)
            outcome.speed.after(total)
            firsts[index].append(first)
            depths[index].append(depth)
            joins[index].append(total)
            for name in ("events", "candidates", "verifications", "bitmap_pruned",
                         "index_inserted", "index_deleted"):
                counts[name] = counts.get(name, 0) + getattr(stats, name)
            if not answers[index]:
                answers[index] = rows
            else:
                outcome.problems += oracle.check_same(rows, answers[index], "a join's answer")
            outcome.attempted += 1
        counts.update(layer_counts(layers))
        outcome.round_counts.append(counts)
        layer_rounds.rounds.append(layers)

    run_rounds(seconds, lambda: True, one_round)

    loads: List[List[float]] = [[] for __ in files]
    loaded = [0, 0.0]  # records, seconds
    load_layers: Dict[str, float] = {}
    for sample in range(LOAD_SAMPLES):
        index = sample % count
        gc.collect()
        layer_rounds.begin()
        begin = time.perf_counter()
        again = load_collection(files[index])
        elapsed = time.perf_counter() - begin
        layer_rounds.end(load_layers)
        loads[index].append(elapsed / len(again))
        loaded[0] += len(again)
        loaded[1] += elapsed
        outcome.speed.after(elapsed)
        del again
    outcome.attempted += LOAD_SAMPLES
    peak = own_peak_rss_mb()


    outcome.metrics = {
        "setup_s": (median(setup), "s"),
        "join_s": (mean_of_medians(joins), "s"),
        "first_result_ms": (1e3 * mean_of_medians(firsts), "ms"),
        "query_ms_p50": (1e3 * mean_of_medians(depths), "ms"),
        "insert_ms_p50": (1e3 * mean_of_medians(loads), "ms"),
        "insert_ms_p99": (1e3 * tail_percentile([v for values in loads for v in values]), "ms"),
        "inserts_per_s": (loaded[0] / loaded[1], "1/s"),
        "peak_rss_mb": (peak, "MiB"),
    }

    # Input line of each record id; the collections themselves are let go.
    sources = [[record.source_id for record in c.records] for c in collections]
    del collections

    def check_answers() -> List[str]:
        problems = []
        for index, lines in enumerate(sources):
            raw = read_token_lines(files[index])
            token_sets = [raw[line] for line in lines]
            matrix = oracle.similarity_matrix(token_sets, spec["similarity"])
            reference = oracle.brute_topk_values(matrix, k)
            problems += oracle.check_topk(answers[index], matrix, k, reference)
            problems += oracle.check_prefix(answers[index], reference)
        return problems

    outcome.deferred.append(check_answers)
    check_round_counts(outcome)

    if probe is not None:
        # Per complete join, and per load for the collection builds.
        layers = mean_layers(layer_rounds.rounds, per=count)
        layers["collection.build.s"] = load_layers["collection.build.s"] / LOAD_SAMPLES
        work = mean_layers(outcome.round_counts, per=count)
        outcome.layers = batch_layer_metrics(layers, work)
    return outcome


def batch_layer_metrics(layers: Dict[str, float], work: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The batch-join layers: seeding, event queue, kernel, index, emit."""
    seed_verifications = layers.get("seed.verifications", 0.0)
    candidates = work.get("candidates", 0.0)
    kernel_verifications = work.get("verifications", 0.0) - seed_verifications
    return {
        "collection.build_s": (layers.get("collection.build.s", 0.0), "s"),
        "seed.s": (layers.get("seed.s", 0.0), "s"),
        "seed.verifications": (seed_verifications, "count"),
        "events.s": (layers.get("events.s", 0.0), "s"),
        "events.count": (layers.get("events.count", 0.0), "count"),
        "events.probes": (layers.get("events.probes", 0.0), "count"),
        "kernel.scan_s": (layers.get("kernel.scan.s", 0.0), "s"),
        "kernel.scan_calls": (layers.get("kernel.scan_calls", 0.0), "count"),
        "kernel.candidates": (candidates, "count"),
        "kernel.bitmap_pruned": (work.get("bitmap_pruned", 0.0), "count"),
        "kernel.verifications": (kernel_verifications, "count"),
        "kernel.verify_ratio": (
            kernel_verifications / candidates if candidates else 0.0, "ratio"),
        "index.add_s": (layers.get("index.add.s", 0.0), "s"),
        "index.inserted": (layers.get("index.inserted", 0.0), "count"),
        "index.deleted": (layers.get("index.deleted", 0.0), "count"),
        "emit.s": (layers.get("emit.s", 0.0), "s"),
    }


# ----------------------------------------------------------------------
# stream-refill
# ----------------------------------------------------------------------


def window_rows(rows: Sequence[Row], offset: int) -> List[Row]:
    """Engine rows by stream id -> rows by position in the window."""
    return [(x - offset, y - offset, value) for x, y, value in rows]


def time_window_joins(outcome: Outcome, replay: "Replay", k: int, sim: Any) -> None:
    """One complete join (:func:`timed_join`) over each of the replay's join windows."""
    for offset in replay.join_offsets():
        collection = RecordCollection.from_integer_sets(
            replay.window_at(offset), dedupe=False)
        source = [record.source_id for record in collection.records]
        gc.collect()
        rows, first, __, total = timed_join(collection, k, sim, TopkOptions())
        outcome.speed.after(total)
        replay.joins.setdefault(offset, []).append(total)
        replay.firsts.setdefault(offset, []).append(first)
        rows = [(min(source[x], source[y]), max(source[x], source[y]), value)
                for x, y, value in rows]
        if offset not in replay.join_answers:
            replay.join_answers[offset] = rows
        else:
            outcome.problems += oracle.check_same(
                rows, replay.join_answers[offset], "a window join's answer")
        outcome.attempted += 1


def window_join_metrics(replays: List["Replay"]) -> Dict[str, Tuple[float, str]]:
    """``join_s`` and ``first_result_ms``: medians over every replay's join
    windows of each window's median (a few costly windows do not move them)."""
    joins = [median(samples) for replay in replays for samples in replay.joins.values()]
    firsts = [median(samples) for replay in replays for samples in replay.firsts.values()]
    return {
        "join_s": (median(joins), "s"),
        "first_result_ms": (1e3 * median(firsts), "ms"),
    }


def stream_layer_metrics(layers: Dict[str, float], work: Dict[str, float],
                         phases: Dict[str, float], insert_total: float) -> Dict[str, Tuple[float, str]]:
    """The stream engine's split of insert time: probe, expiry, refill."""
    refill_s = layers.get("stream.refill.s", 0.0)
    return {
        "stream.probe_s": (phases.get("stream_ingest", 0.0) - phases.get("stream_expire", 0.0), "s"),
        "stream.probe_candidates": (work.get("probe_candidates", 0.0), "count"),
        "stream.expire_s": (phases.get("stream_expire", 0.0) - phases.get("stream_refill", 0.0), "s"),
        "stream.refill_s": (refill_s, "s"),
        "stream.refills": (work.get("refills", 0.0), "count"),
        "stream.insert_total_s": (insert_total, "s"),
        "stream.refill_share": (refill_s / insert_total if insert_total else 0.0, "ratio"),
    }


def engine_counts(engine: StreamingTopkEngine) -> Dict[str, float]:
    """Stream counters plus the refill joins' counters of one engine."""
    counts: Dict[str, float] = {
        name: getattr(engine.stats, name)
        for name in ("inserts", "expirations", "refills", "probe_candidates",
                     "probe_verifications", "pairs_entered", "pairs_left")
    }
    for name in ("events", "candidates", "verifications", "bitmap_pruned"):
        counts[name] = getattr(engine.refill_stats, name)
    return counts


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def phase_seconds(tracer: Optional[Tracer]) -> Dict[str, float]:
    if tracer is None:
        return {}
    return {name: total for name, (total, __) in tracer.phase_times().items()}


@dataclass
class Replay:
    """One input file replayed as a stream; stream id ``i`` is ``tokens[i]``.

    The first ``window + warm`` records are inserted during set-up (the
    last ``warm`` of them already expire records), the next ``timed``
    arrive in the timed phase, and the last ``window`` of those are the
    final window.  A window is named by its *start*, the stream id of
    its oldest record.
    """

    tokens: List[List[int]]
    window: int
    timed: int
    join_windows: int
    warm: int = 0
    #: ``(window start, live result by window position)``, from the
    #: first round.
    checkpoints: List[Tuple[int, List[Row]]] = field(default_factory=list)
    final: List[Row] = field(default_factory=list)
    #: Window start -> first complete join's answer / its join timings.
    join_answers: Dict[int, List[Row]] = field(default_factory=dict)
    joins: Dict[int, List[float]] = field(default_factory=dict)
    firsts: Dict[int, List[float]] = field(default_factory=dict)

    @property
    def fill(self) -> List[List[int]]:
        return self.tokens[:self.window + self.warm]

    @property
    def arrivals(self) -> List[List[int]]:
        begin = self.window + self.warm
        return self.tokens[begin:begin + self.timed]

    def start(self, arrived: int) -> int:
        """Start of the live window after *arrived* timed inserts."""
        return self.warm + arrived

    def window_at(self, start: int) -> List[List[int]]:
        return self.tokens[start:start + self.window]

    def join_offsets(self) -> List[int]:
        """Starts of ``join_windows`` windows spread evenly over the file."""
        last = len(self.tokens) - self.window
        return [last * (2 * i + 1) // (2 * self.join_windows)
                for i in range(self.join_windows)]


def load_replays(spec: Dict[str, Any], files: List[str]) -> List[Replay]:
    replays = []
    for path in files:
        tokens = [[int(token) for token in line] for line in read_token_lines(path)]
        if spec.get("repeat_first"):
            tokens.insert(0, tokens[0])
        replays.append(Replay(tokens, spec["window"], spec["timed_inserts"],
                              spec["join_windows"], spec.get("warm_inserts", 0)))
    return replays


def check_replays(replays: List[Replay], spec: Dict[str, Any]) -> List[str]:
    """Every checkpoint, final result and window join against brute force."""
    k = spec["k"]
    problems: List[str] = []
    for replay in replays:
        answers = replay.checkpoints + [(replay.start(replay.timed), replay.final)]
        answers += list(replay.join_answers.items())
        for start, rows in answers:
            matrix = oracle.similarity_matrix(
                [map(str, tokens) for tokens in replay.window_at(start)],
                spec["similarity"])
            problems += oracle.check_topk(rows, matrix, k)
    return problems


def run_stream(spec: Dict[str, Any], files: List[str], seconds: float,
               probe: Optional[LayerProbe]) -> Outcome:
    """Fill fresh engines' windows, then time the inserts that follow.

    A round replays every input file: build an engine and fill its count
    window (set-up), time ``timed_inserts`` inserts each followed by a
    ``results()`` read, then time complete joins over the final window.
    Every round replays the same records, so every round does the same
    work.
    """
    outcome = Outcome()
    sim = similarity_by_name(spec["similarity"])
    k, window = spec["k"], spec["window"]
    replays = load_replays(spec, files)
    setup: List[float] = []
    latencies: List[float] = []
    queries: List[float] = []
    layer_rounds = LayerRounds(probe)

    def one_round() -> None:
        counts: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        for replay in replays:
            tracer = Tracer() if probe is not None else None
            gc.collect()
            begin = time.perf_counter()
            engine = StreamingTopkEngine(
                k, similarity=sim, options=TopkOptions(window_size=window, trace=tracer))
            engine.open()
            for tokens in replay.fill:
                engine.insert(tokens)
            setup.append(time.perf_counter() - begin)
            outcome.speed.after(setup[-1])
            outcome.attempted += 1

            before, phases_before = engine_counts(engine), phase_seconds(tracer)
            layer_rounds.begin()
            first_round = not replay.final
            inserts = 0.0
            for arrived, tokens in enumerate(replay.arrivals, start=1):
                begin = time.perf_counter()
                engine.insert(tokens)
                elapsed = time.perf_counter() - begin
                begin = time.perf_counter()
                results = engine.results()
                queries.append(time.perf_counter() - begin)
                latencies.append(elapsed)
                inserts += elapsed
                outcome.speed.after(elapsed + queries[-1])
                if arrived % CHECK_EVERY == 0 and arrived < replay.timed:
                    start = replay.start(arrived)
                    rows = window_rows(rows_of(results), start)
                    if first_round:
                        replay.checkpoints.append((start, rows))
                    else:
                        outcome.problems += oracle.check_same(
                            rows, replay.checkpoints[arrived // CHECK_EVERY - 1][1],
                            "a checkpoint's live result")
            layer_rounds.end(layers)
            outcome.attempted += 2 * replay.timed
            rows = window_rows(rows_of(engine.results()), replay.start(replay.timed))
            if first_round:
                replay.final = rows
            else:
                outcome.problems += oracle.check_same(rows, replay.final, "a final live result")
            for name, value in diff(engine_counts(engine), before).items():
                counts[name] = counts.get(name, 0.0) + value
            if probe is not None:
                for name, value in diff(phase_seconds(tracer), phases_before).items():
                    layers["phase." + name] = layers.get("phase." + name, 0.0) + value
                layers["insert_total"] = layers.get("insert_total", 0.0) + inserts
            engine.close()
            time_window_joins(outcome, replay, k, sim)
        counts.update(layer_counts(layers))
        outcome.round_counts.append(counts)
        layer_rounds.rounds.append(layers)

    run_rounds(seconds, lambda: len(latencies) >= TAIL_SAMPLES, one_round)
    peak = own_peak_rss_mb()
    outcome.metrics = {
        "setup_s": (median(setup), "s"),
        "query_ms_p50": (1e3 * median(queries), "ms"),
        "insert_ms_p50": (1e3 * median(latencies), "ms"),
        "insert_ms_p99": (1e3 * tail_percentile(latencies), "ms"),
        "inserts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    outcome.metrics.update(window_join_metrics(replays))

    outcome.deferred.append(lambda: check_replays(replays, spec))
    check_round_counts(outcome)
    if probe is not None:
        layers = mean_layers(layer_rounds.rounds)
        work = mean_layers(outcome.round_counts)
        phases = {name[len("phase."):]: value for name, value in layers.items()
                  if name.startswith("phase.")}
        outcome.layers = batch_layer_metrics(layers, work)
        outcome.layers.update(stream_layer_metrics(layers, work, phases, layers["insert_total"]))
    return outcome


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class InsertPipeline:
    """Pipelined inserts on one subscribed connection, *depth* in flight.

    Replies on one connection come back in request order; the delta
    pushes that arrive between them are kept for the replay check.
    """

    def __init__(self, client: ServeClient, depth: int) -> None:
        self.client = client
        self.depth = depth
        self.pending: Deque[Tuple[str, float]] = deque()
        self.latencies: List[float] = []
        self.deltas: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        self._sent = 0

    def send(self, tokens: List[int]) -> None:
        while len(self.pending) >= self.depth:
            self.read_ack()
        self._sent += 1
        request_id = "i%d" % self._sent
        frame = json.dumps({"verb": "insert", "id": request_id, "tokens": tokens},
                           separators=(",", ":")).encode("utf-8") + b"\n"
        self.pending.append((request_id, time.perf_counter()))
        self.client.send_raw(frame)

    def drain(self) -> None:
        while self.pending:
            self.read_ack()

    def read_ack(self) -> None:
        """Block for the oldest pending insert's reply."""
        while True:
            frame = self.client.read_frame()
            if frame.get("event") == "delta":
                self.deltas.append(frame)
                continue
            request_id, sent = self.pending.popleft()
            self.latencies.append(time.perf_counter() - sent)
            if frame.get("id") != request_id:
                self.failures.append("reply %r out of order, expected %s"
                                     % (frame.get("id"), request_id))
            elif not frame.get("ok") or frame.get("shed"):
                self.failures.append("insert %s not applied: %r" % (request_id, frame))
            return


class Daemon:
    """A ``repro serve`` child process, stopped and reaped on exit."""

    def __init__(self, root: str, spec: Dict[str, Any]) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--k", str(spec["k"]), "--window", str(spec["window"]),
            "--similarity", spec["similarity"], "--port", "0",
            "--queue-limit", str(QUEUE_LIMIT),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        assert self.process.stderr is not None
        line = self.process.stderr.readline().decode("utf-8", "replace")
        if not line.startswith("# serving on "):
            self.stop()
            raise RuntimeError("repro serve did not start: %r" % line)
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def latency_histogram(client: ServeClient) -> Tuple[float, float]:
    """``(sum seconds, count)`` of the daemon's request-latency histogram."""
    text = client.request("metrics")["text"]
    values = {}
    for line in text.splitlines():
        for suffix in ("_sum", "_count"):
            if line.startswith("repro_serve_request_latency_seconds" + suffix + " "):
                values[suffix] = float(line.split()[-1])
    return values["_sum"], values["_count"]


def serve_replay(replay: Replay, spec: Dict[str, Any], outcome: Outcome,
                 probe: Optional[LayerProbe], samples: Dict[str, List[float]]) -> Dict[str, Any]:
    """One daemon's life: spawn, fill, timed mixed traffic, final checks, shutdown.

    Appends to *samples* and returns the daemon's ``stats`` reply plus,
    when traced, its latency-histogram mean and the client's mean round
    trip over the timed inserts.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gc.collect()
    begin = time.perf_counter()
    daemon = Daemon(root, spec)
    try:
        with ServeClient(*daemon.address) as writer, ServeClient(*daemon.address) as reader:
            if not reader.request("ping").get("pong"):
                outcome.problems.append("ping got no pong")
            writer.request("subscribe")
            pipeline = InsertPipeline(writer, IN_FLIGHT)
            for tokens in replay.fill:
                pipeline.send(tokens)
            pipeline.drain()
            samples["setup"].append(time.perf_counter() - begin)
            outcome.speed.sample(SETTLE_SAMPLES)
            pipeline.latencies.clear()
            before = latency_histogram(reader) if probe is not None else (0.0, 0.0)

            begin = time.perf_counter()
            for tokens in replay.arrivals:
                # Every cycle is alike: send an insert behind the one in
                # flight, read the older one's ack, then query while the
                # writer applies the newer one — one read beside one write,
                # with no insert racing it.
                pipeline.send(tokens)
                pipeline.read_ack()
                sent = time.perf_counter()
                reply = reader.request("query")
                samples["queries"].append(time.perf_counter() - sent)
                if not reply.get("ok"):
                    outcome.failed += 1
                    outcome.problems.append("query failed: %r" % reply)
            pipeline.drain()
            samples["phases"].append(time.perf_counter() - begin)
            outcome.speed.sample(SETTLE_SAMPLES)
            samples["latencies"].extend(pipeline.latencies)
            outcome.attempted += 1 + len(replay.fill) + 2 * replay.timed

            final = reader.request("query")
            rows = [(x, y, value) for x, y, value in final["results"]]
            stats: Dict[str, Any] = reader.request("stats")["stats"]
            if probe is not None:
                after = latency_histogram(reader)
                stats["server_ms"] = 1e3 * (after[0] - before[0]) / (after[1] - before[1])
                stats["client_ms"] = 1e3 * sum(pipeline.latencies) / len(pipeline.latencies)
            samples["peaks"].append(process_peak_rss_mb(daemon.process.pid))
            if not reader.request("shutdown").get("ok"):
                outcome.problems.append("shutdown refused")
            writer.drain_until_eof()
        daemon.process.wait(timeout=30)
    finally:
        daemon.stop()
    deltas = pipeline.deltas + [p for p in writer.pushes if p.get("event") == "delta"]
    outcome.failed += len(pipeline.failures)
    outcome.problems += pipeline.failures[:3]
    outcome.problems += oracle.check_delta_replay(deltas, rows)
    rows = window_rows(rows, replay.start(replay.timed))
    if not replay.final:
        replay.final = rows
    else:
        outcome.problems += oracle.check_same(rows, replay.final, "a daemon's final query")
    return stats


def run_serve(spec: Dict[str, Any], files: List[str], seconds: float,
              probe: Optional[LayerProbe]) -> Outcome:
    """Drive real daemons from one thread over two connections, in rounds.

    A round gives every input file its own ``repro serve`` process
    (:func:`serve_replay`): spawn it, wait for a ``ping`` reply, fill
    the window and insert ``warm_inserts`` more (set-up), send
    ``timed_inserts`` pipelined inserts on the subscribed connection and
    one ``query`` per insert on the other connection, then shut it down.
    """
    outcome = Outcome()
    # This process and its daemons (which inherit it) share one CPU: the
    # reference loop then times the CPU the daemon runs on, and no round
    # trip waits for a wake-up on another CPU.  On the 2-core host the
    # bounds were set on, that cut the spread of insert_ms_p99 over five
    # seeds from about 0.2 to 0.07.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sim = similarity_by_name(spec["similarity"])
    replays = load_replays(spec, files)
    samples: Dict[str, List[float]] = {
        name: [] for name in ("setup", "latencies", "queries", "phases", "peaks")}
    layer_rounds: List[Dict[str, float]] = []

    def one_round() -> None:
        counts: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        for replay in replays:
            stats = serve_replay(replay, spec, outcome, probe, samples)
            engine = stats["engine"]
            for name, value in (("deltas_pushed", stats["deltas_pushed"]),
                                ("errors", stats["errors"]),
                                ("refills", engine["refills"]),
                                ("probe_candidates", engine["probe_candidates"]),
                                ("probe_verifications", engine["probe_verifications"])):
                counts[name] = counts.get(name, 0.0) + value
            if probe is not None:
                replayed = replay_in_process(spec, replay, probe)
                replayed.update({
                    "serve.server_ms": stats["server_ms"],
                    "serve.framing_ms": stats["client_ms"] - stats["server_ms"],
                    "serve.overhead_ms": stats["server_ms"] - replayed["serve.engine_ms"],
                    "serve.queue_peak": stats["queue_peak"],
                    "serve.deltas_pushed": stats["deltas_pushed"],
                    "serve.errors": stats["errors"],
                })
                for name, value in replayed.items():
                    layers[name] = layers.get(name, 0.0) + value / len(replays)
            time_window_joins(outcome, replay, spec["k"], sim)
        outcome.round_counts.append(counts)
        layer_rounds.append(layers)

    run_rounds(seconds, lambda: len(samples["latencies"]) >= TAIL_SAMPLES, one_round)
    outcome.metrics = {
        "setup_s": (median(samples["setup"]), "s"),
        "query_ms_p50": (1e3 * median(samples["queries"]), "ms"),
        # Over every daemon's timed round trips pooled together.
        "insert_ms_p50": (1e3 * median(samples["latencies"]), "ms"),
        "insert_ms_p99": (1e3 * percentile(samples["latencies"], 99), "ms"),
        "inserts_per_s": (len(samples["latencies"]) / sum(samples["phases"]), "1/s"),
        "peak_rss_mb": (median(samples["peaks"]), "MiB"),
    }
    outcome.metrics.update(window_join_metrics(replays))

    outcome.deferred.append(lambda: check_replays(replays, spec))
    check_round_counts(outcome)
    if probe is not None:
        layers = mean_layers(layer_rounds)
        outcome.layers = batch_layer_metrics(layers, layers)
        phases = {name[len("phase."):]: value for name, value in layers.items()
                  if name.startswith("phase.")}
        outcome.layers.update(stream_layer_metrics(layers, layers, phases, layers["insert_total"]))
        for name in ("serve.server_ms", "serve.engine_ms", "serve.framing_ms",
                     "serve.overhead_ms"):
            outcome.layers[name] = (layers[name], "ms")
        for name in ("serve.queue_peak", "serve.deltas_pushed", "serve.errors"):
            outcome.layers[name] = (layers[name], "count")
    return outcome


def replay_in_process(spec: Dict[str, Any], replay: Replay, probe: LayerProbe) -> Dict[str, float]:
    """The daemon's insert sequence through a bare in-process engine.

    Gives ``serve.engine_ms`` (mean engine time per timed insert) and the
    engine- and join-layer figures of the same work.
    """
    tracer = Tracer()
    engine = StreamingTopkEngine(
        spec["k"], similarity=similarity_by_name(spec["similarity"]),
        options=TopkOptions(window_size=spec["window"], trace=tracer),
    )
    engine.open()
    for tokens in replay.fill:
        engine.insert(tokens)
    before, phases_before = engine_counts(engine), phase_seconds(tracer)
    layers: Dict[str, float] = {}
    rounds = LayerRounds(probe)
    rounds.begin()
    total = 0.0
    for tokens in replay.arrivals:
        begin = time.perf_counter()
        engine.insert(tokens)
        total += time.perf_counter() - begin
    rounds.end(layers)
    layers.update(diff(engine_counts(engine), before))
    layers.update({"phase." + name: value
                   for name, value in diff(phase_seconds(tracer), phases_before).items()})
    layers["insert_total"] = total
    layers["serve.engine_ms"] = 1e3 * total / replay.timed
    engine.close()
    return layers


RUNNERS: Dict[str, Callable[[Dict[str, Any], List[str], float, Optional[LayerProbe]], Outcome]] = {
    "batch-dblp": run_batch,
    "batch-3gram": run_batch,
    "stream-refill": run_stream,
    "serve-mixed": run_serve,
}
