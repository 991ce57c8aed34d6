"""Per-layer attribution from outside the program.

Each layer is timed by wrapping its public entry points (a method on a class
or a function bound in the module that calls it) with a span recorder that
lives in the benchmark process.  Only entry points are wrapped, never hot
inner helpers, so the recorder costs a few microseconds per call.

Spans nest on the coordinator thread: a span's *self time* is its duration
minus the durations of its direct child spans.  Work that runs in pool
workers is attributed from the ``exec.run``/``exec.batch`` spans the workers
already record and ship back on each outcome when the session is given a
live ``tracer=``: while the coordinator is blocked in ``exec``, the part of
the blocked interval that some worker spends executing is charged to
``db.executor``; the rest stays ``exec`` wait.  Time inside the timed phase
that no span covers is ``other_s``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

#: Layers whose self time the traced run reports, in print order.
LAYERS = (
    "db.optimizer",
    "vae.corpus",
    "vae.train",
    "vae.latent",
    "core.init",
    "core.bayesqo",
    "bo.suggest",
    "bo.fit",
    "bo.observe",
    "db.executor",
    "exec",
    "harness",
    "serve.fast_path",
    "serve.maintenance",
    "serve.store",
)

#: The entry point the interleaved scheduler blocks in on pool futures.
WAIT_ENTRY = "repro.harness.runner.wait"


class SpanLog:
    """In-memory span buffer plus the wrappers that fill it.

    A span is ``[layer, entry, start, end, parent_index]``.  Recording
    happens only while :attr:`active` is set (the timed phase) and only in
    the process that created the log, so a forked pool worker that inherits
    the patched classes records nothing.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.pid = os.getpid()
        self.counts: Counter = Counter()
        #: (query fingerprint, hint set, data signature) of every planner call.
        self.plan_keys: list[tuple] = []
        #: CacheStats of every in-process execution.
        self.cache_stats: list = []
        self.censored = 0
        #: Outcomes that came back from pool workers.
        self.remote_outcomes: list = []
        self._signatures: dict[int, tuple[dict, tuple]] = {}

    # ------------------------------------------------------------------ recording
    def open(self, layer: str, entry: str = "") -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([layer, entry, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def _recording(self, layer: str) -> bool:
        if not self.active or os.getpid() != self.pid:
            return False
        # A wrapped entry point calling another entry point of the same
        # layer (suggest_batch -> suggest) is one span, not two.
        return not (self.stack and self.spans[self.stack[-1]][0] == layer)

    def wrap(self, owner, name: str, layer: str, note=None) -> None:
        """Replace ``owner.name`` (a class or module attribute) with a
        recording wrapper, for the rest of the process."""
        original = owner.__dict__[name]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        log = self
        entry = f"{getattr(owner, '__name__', '')}.{name}"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not log._recording(layer):
                return func(*args, **kwargs)
            index = log.open(layer, entry)
            try:
                result = func(*args, **kwargs)
            finally:
                log.close(index)
            if note is not None:
                note(log, args, kwargs, result)
            return result

        setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)

    def data_signature(self, stats: dict) -> tuple:
        """Row counts per table: which data snapshot a planner call saw."""
        known = self._signatures.get(id(stats))
        if known is None:
            signature = tuple(sorted((name, st.num_rows) for name, st in stats.items()))
            # Holding ``stats`` keeps its id from being reused by another dict.
            known = self._signatures[id(stats)] = (stats, signature)
        return known[1]


# ---------------------------------------------------------------------- notes
def _note_plan(log: SpanLog, args, kwargs, result) -> None:
    from repro.db.optimizer import DEFAULT_HINT_SET
    from repro.db.plan_cache import query_fingerprint

    planner, query = args[0], args[1]
    hint_set = args[2] if len(args) > 2 else kwargs.get("hint_set", DEFAULT_HINT_SET)
    log.plan_keys.append(
        (query_fingerprint(query), hint_set, log.data_signature(planner.stats))
    )


def _note_corpus(log: SpanLog, args, kwargs, result) -> None:
    log.counts["vae.corpus.sequences"] += int(result.num_sequences)


def _note_train(log: SpanLog, args, kwargs, result) -> None:
    log.counts["vae.train.steps"] += int(kwargs["steps"])


def _note_decode_one(log: SpanLog, args, kwargs, result) -> None:
    log.counts["vae.latent.decodes"] += 1


def _note_decode_many(log: SpanLog, args, kwargs, result) -> None:
    log.counts["vae.latent.decodes"] += len(result)


def _note_execution(log: SpanLog, args, kwargs, result) -> None:
    log.counts["db.executor.executions"] += 1
    log.censored += int(result.timed_out)
    if result.cache is not None:
        log.cache_stats.append(result.cache)


def _note_batch(log: SpanLog, args, kwargs, result) -> None:
    log.counts["db.executor.batches"] += 1
    for execution in result:
        _note_execution(log, args, kwargs, execution)


def _note_futures(log: SpanLog, args, kwargs, result) -> None:
    """Collect pool outcomes (worker spans, cache stats, attempts) as they land."""
    futures = result if isinstance(result, list) else [result]

    def landed(future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        log.remote_outcomes.append(future.result())

    for future in futures:
        future.add_done_callback(landed)


def install(log: SpanLog) -> None:
    """Wrap every layer's entry points.  Process-pool submissions also watch
    their futures for the spans and cache stats the workers ship back."""
    from repro.bo.loop import BOEngine
    from repro.core import initialization, optimizer as core_optimizer
    from repro.db.executor import Executor
    from repro.db.optimizer import PlanOptimizer
    from repro.exec.backend import InlineBackend
    from repro.exec.process_pool import ProcessPoolBackend
    from repro.harness import runner
    from repro.serve.server import PlanServer
    from repro.serve.store import PlanStore, StoreEntry
    from repro.vae.latent import LatentSpace

    log.wrap(PlanOptimizer, "plan", "db.optimizer", _note_plan)
    log.wrap(core_optimizer, "build_plan_corpus", "vae.corpus", _note_corpus)
    log.wrap(core_optimizer, "train_vae", "vae.train", _note_train)
    log.wrap(LatentSpace, "from_corpus", "vae.latent")
    log.wrap(LatentSpace, "decode_vector", "vae.latent", _note_decode_one)
    log.wrap(LatentSpace, "decode_vectors", "vae.latent", _note_decode_many)
    log.wrap(initialization, "bao_initialization", "core.init")
    for name in ("start", "suggest", "suggest_batch", "observe"):
        log.wrap(core_optimizer.BayesQO, name, "core.bayesqo")
    log.wrap(BOEngine, "suggest", "bo.suggest")
    log.wrap(BOEngine, "suggest_batch", "bo.suggest")
    log.wrap(BOEngine, "fit", "bo.fit")
    log.wrap(BOEngine, "add_observation", "bo.observe")
    log.wrap(Executor, "execute", "db.executor", _note_execution)
    log.wrap(Executor, "run_batch", "db.executor", _note_batch)
    log.wrap(InlineBackend, "submit", "exec")
    log.wrap(InlineBackend, "submit_batch", "exec")
    log.wrap(ProcessPoolBackend, "submit", "exec", _note_futures)
    log.wrap(ProcessPoolBackend, "submit_batch", "exec", _note_futures)
    # The interleaved scheduler blocks on outstanding executions here.
    log.wrap(runner, "wait", "exec")
    log.wrap(runner.WorkloadSession, "run", "harness")
    log.wrap(PlanServer, "serve", "serve.fast_path")
    log.wrap(PlanServer, "report", "serve.fast_path")
    log.wrap(PlanServer, "run_maintenance", "serve.maintenance")
    log.wrap(PlanStore, "ensure", "serve.store")
    log.wrap(PlanStore, "sync_cache", "serve.store")
    log.wrap(StoreEntry, "record_run", "serve.store")


# ---------------------------------------------------------------------- attribution
def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _overlap(start: float, end: float, union: list[tuple[float, float]]) -> float:
    total = 0.0
    for lo, hi in union:
        if hi <= start:
            continue
        if lo >= end:
            break
        total += min(end, hi) - max(start, lo)
    return total


def worker_intervals(outcomes) -> tuple[list[tuple[float, float]], int, int, int]:
    """Executor intervals shipped back by pool workers.

    Returns the intervals plus the execution, batch and censored counts.  A
    batch carries its wall clock on the ``exec.batch`` span and one
    zero-length ``exec.run`` marker per plan; a single execution is one
    ``exec.run`` span.
    """
    intervals, executions, batches, censored = [], 0, 0, 0
    for outcome in outcomes:
        for span in outcome.spans:
            if span.name == "exec.batch":
                batches += 1
                intervals.append((span.start, span.end))
            elif span.name == "exec.run":
                executions += 1
                censored += int(bool(span.attrs.get("timed_out")))
                if "follows" not in span.attrs:
                    intervals.append((span.start, span.end))
    return intervals, executions, batches, censored


def attribute(log: SpanLog, root: int, workers: int = 0) -> dict:
    """Per-layer metrics for the timed phase whose span is ``root``.

    ``workers`` is the pool size when executions ran in pool workers (0 when
    they ran in process); it is the denominator of ``exec.worker_busy_frac``.
    """
    spans = log.spans
    child_time = [0.0] * len(spans)
    for layer, entry, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: Counter = Counter()
    calls: Counter = Counter()
    max_span: Counter = Counter()
    for index, (layer, entry, start, end, parent) in enumerate(spans):
        self_time[layer] += (end - start) - child_time[index]
        calls[layer] += 1
        max_span[layer] = max(max_span[layer], end - start)

    # Blocked waits on pool futures: the part some worker spent executing is
    # executor time, the rest is dispatch wait.
    intervals, remote_execs, remote_batches, remote_censored = worker_intervals(
        log.remote_outcomes
    )
    union = _union(intervals)
    wait = covered = 0.0
    for layer, entry, start, end, parent in spans:
        if entry == WAIT_ENTRY:
            overlap = _overlap(start, end, union)
            covered += overlap
            wait += (end - start) - overlap
    self_time["db.executor"] += covered
    self_time["exec"] -= covered

    wall = spans[root][3] - spans[root][2]
    other = self_time[spans[root][0]]
    executions = log.counts["db.executor.executions"] + remote_execs
    censored = log.censored + remote_censored
    cache = list(log.cache_stats) + [
        outcome.cache for outcome in log.remote_outcomes if outcome.cache is not None
    ]
    hits = sum(stat.subplan_hits for stat in cache)
    misses = sum(stat.subplan_misses for stat in cache)
    corpus_spans = {i for i, span in enumerate(spans) if span[0] == "vae.corpus"}
    encoded = sum(1 for span in spans if span[0] == "db.optimizer" and span[4] in corpus_spans)
    plan_calls = len(log.plan_keys)
    train_self = self_time["vae.train"]
    busy = sum(end - start for start, end in intervals)

    metrics = {f"{layer}.self_s": float(self_time[layer]) for layer in LAYERS}
    metrics.update(
        {
            "db.optimizer.calls": plan_calls,
            "db.optimizer.repeat_frac": (
                1.0 - len(set(log.plan_keys)) / plan_calls if plan_calls else 0.0
            ),
            "vae.corpus.unique_frac": (
                log.counts["vae.corpus.sequences"] / encoded if encoded else 0.0
            ),
            "vae.train.steps_per_s": (
                log.counts["vae.train.steps"] / train_self if train_self > 0 else 0.0
            ),
            "vae.latent.decodes": log.counts["vae.latent.decodes"],
            "bo.suggest.calls": calls["bo.suggest"],
            "db.executor.executions": executions,
            "db.executor.batches": log.counts["db.executor.batches"] + remote_batches,
            "db.executor.censored_frac": censored / executions if executions else 0.0,
            "db.plan_cache.outcome_hit_rate": (
                sum(stat.outcome_hit for stat in cache) / len(cache) if cache else 0.0
            ),
            "db.plan_cache.subplan_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "db.plan_cache.peak_mb": max((stat.bytes_cached for stat in cache), default=0)
            / 2**20,
            "exec.wait_s": wait,
            "exec.worker_busy_frac": busy / (workers * wall) if workers and wall > 0 else 0.0,
            "exec.retries": sum(outcome.attempts - 1 for outcome in log.remote_outcomes),
            "serve.maintenance.cycles": calls["serve.maintenance"],
            "serve.maintenance.max_s": float(max_span["serve.maintenance"]),
            "serve.maintenance.inclusive_s": float(sum(
                end - start for layer, entry, start, end, parent in spans
                if layer == "serve.maintenance"
            )),
            "serve.store.writes": calls["serve.store"],
            "trace.wall_s": wall,
            "trace.coverage_frac": 1.0 - other / wall if wall > 0 else 0.0,
            "other_s": other,
        }
    )
    return metrics
