"""Per-layer tracing of the stream benchmark, from outside ``src/``.

:class:`Tracer` wraps public functions of each ``repro`` module in
place (class attributes and module globals) and restores them on
:meth:`Tracer.uninstall`. Every wrapped call is a span on its thread's
stack; a span's *self time* is its duration minus the spans it
encloses, so self times of the writer and producer threads add up to
the time they spent inside wrapped calls, and whatever a window's
publish interval holds beyond them is reported as unattributed.

Read calls are *opaque*: they count as one span each, and the library
calls they make (the text pipeline of ``assign("raw text")``) are not
split out, so reader-side text never lands in the ingest-side ``text``
layer.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: The layers whose self times make up a window's publish interval,
#: as (metric, tracer bucket) pairs.
PUBLISH_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("text.self_s", "text"),
    ("service.queue_wait_s", "service.queue_wait"),
    ("core.batch_self_s", "core.process_batch"),
    ("forgetting.clone_s", "forgetting.clone"),
    ("forgetting.observe_s", "forgetting.observe"),
    ("forgetting.expire_s", "forgetting.expire"),
    ("forgetting.freeze_s", "forgetting.freeze"),
    ("vectors.weighted_arrays_s", "vectors.weighted_arrays"),
    ("core.fit_s", "core.fit"),
    ("durability.record_batch_s", "durability.record_batch"),
    ("service.snapshot_build_s", "service.snapshot_build"),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class _ThreadTotals:
    """Per-thread accumulators: no lock on the hot path."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.stack: List[Optional[_Frame]] = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._threads_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: Free-form counters and gauges fed by result hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()
        #: ``StreamSession.add`` entry times, consumed by the writer.
        self._pending_adds: List[float] = []

    # -- accounting -------------------------------------------------------

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._threads_lock:
                self._threads.append(totals)
        return totals

    def add_count(self, name: str, value: float = 1.0) -> None:
        with self._counts_lock:
            self.counts[name] += value

    def max_count(self, name: str, value: float) -> None:
        with self._counts_lock:
            self.counts[name] = max(self.counts[name], value)

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and call counts per bucket, summed over threads."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._threads_lock:
            threads = list(self._threads)
        for totals in threads:
            for bucket, seconds in list(totals.self_s.items()):
                self_s[bucket] += seconds
            for bucket, count in list(totals.calls.items()):
                calls[bucket] += count
        return self_s, calls

    def _span(self, bucket: str, opaque: bool,
              function: Callable[..., Any],
              args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        totals = self._totals()
        stack = totals.stack
        frame = None if opaque else _Frame()
        stack.append(frame)
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            stack.pop()
            own = elapsed - (frame.child if frame is not None else 0.0)
            totals.self_s[bucket] += own
            totals.calls[bucket] += 1
            if stack and stack[-1] is not None:
                stack[-1].child += elapsed

    def _charge(self, bucket: str, seconds: float) -> None:
        """Book ``seconds`` that no call of this thread covers."""
        totals = self._totals()
        totals.self_s[bucket] += seconds
        totals.calls[bucket] += 1

    # -- installation -----------------------------------------------------

    def wrap(self, owner: Any, name: str, bucket: str, *,
             opaque: bool = False,
             after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
             before: Optional[Callable[[Tuple[Any, ...]], None]] = None,
             timed: bool = True) -> None:
        """Replace ``owner.name`` by a traced twin.

        ``owner`` is a class (plain and class methods) or a module
        (functions). ``after(args, result)`` and ``before(args)`` feed
        counters; ``timed=False`` makes a count-only wrapper that opens
        no span, so it changes no self time.
        """
        raw = owner.__dict__[name]
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._totals().stack
            if stack and stack[-1] is None:
                return function(*args, **kwargs)  # inside an opaque span
            if before is not None:
                before(args)
            if timed:
                result = tracer._span(bucket, opaque, function, args, kwargs)
            else:
                result = function(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(owner, name, classmethod(traced) if is_classmethod else traced)
        self._restore.append(lambda: setattr(owner, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def install(self) -> None:
        """Wrap the public calls of every layer on the stream path."""
        import repro.api as api
        import repro.durability.checkpointer as checkpointer_module
        import repro.durability.recovery as recovery_module
        from repro.core.incremental import IncrementalClusterer
        from repro.core.kmeans import NoveltyKMeans
        from repro.durability.checkpointer import Checkpointer
        from repro.durability.journal import BatchJournal
        from repro.forgetting.statistics import CorpusStatistics
        from repro.service.snapshot import ClusterSnapshot
        from repro.text.pipeline import TextPipeline
        from repro.text.vocabulary import Vocabulary
        from repro.vectors.tfidf import NoveltyTfidfWeighter

        # repro.text -- producer side; reads are opaque
        self.wrap(TextPipeline, "term_frequencies", "text",
                  after=lambda args, result: self.add_count("text.docs"))
        self.wrap(Vocabulary, "add_counts", "text")

        # repro.forgetting
        self.wrap(CorpusStatistics, "clone", "forgetting.clone")
        self.wrap(CorpusStatistics, "observe", "forgetting.observe",
                  after=lambda args, result: self.max_count(
                      "forgetting.active_docs_max", args[0].size))
        self.wrap(CorpusStatistics, "expire", "forgetting.expire",
                  after=lambda args, result: self.add_count(
                      "forgetting.expired_docs", len(result)))
        self.wrap(CorpusStatistics, "freeze", "forgetting.freeze")

        # repro.vectors
        self.wrap(NoveltyTfidfWeighter, "weighted_arrays",
                  "vectors.weighted_arrays")

        # repro.core
        self.wrap(IncrementalClusterer, "process_batch",
                  "core.process_batch", before=self._batch_started)
        self.wrap(NoveltyKMeans, "fit", "core.fit",
                  after=lambda args, result: self.add_count(
                      "core.passes", result.iterations))

        # repro.durability
        self.wrap(Checkpointer, "record_batch", "durability.record_batch")
        self.wrap(checkpointer_module, "save_checkpoint", "", timed=False,
                  after=self._checkpoint_written)
        self.wrap(BatchJournal, "append", "", timed=False,
                  before=self._journal_size_before,
                  after=self._journal_size_after)
        self.wrap(recovery_module, "load_checkpoint",
                  "durability.recover_load")
        self.wrap(api, "recover", "", timed=False,
                  after=lambda args, result: self.add_count(
                      "durability.replayed_batches",
                      result.replayed_batches))

        # repro.service
        self.wrap(ClusterSnapshot, "from_clusterer", "service.snapshot_build")
        self.wrap(api.StreamSession, "add", "", timed=False,
                  before=lambda args: self._pending_adds.append(_clock()))
        for read in ("assign", "top_clusters", "members", "stats"):
            self.wrap(api.StreamSession, read, "service.read", opaque=True)

        # repro.api -- wrapped where applications call it
        import repro

        self.wrap(repro, "open_stream", "api.open_stream")

    # -- result hooks -----------------------------------------------------

    def _batch_started(self, args: Tuple[Any, ...]) -> None:
        # the service hands one batch per add() to process_batch, in
        # order; recovery replays call process_batch with no add()
        if self._pending_adds:
            self._charge("service.queue_wait",
                         _clock() - self._pending_adds.pop(0))

    def _checkpoint_written(self, args: Tuple[Any, ...], result: Any) -> None:
        self.add_count("durability.checkpoints")
        with self._counts_lock:
            self.counts["durability.checkpoint_bytes"] = float(
                os.path.getsize(args[2]))

    def _journal_size_before(self, args: Tuple[Any, ...]) -> None:
        self._local.journal_size = os.path.getsize(args[0].path)

    def _journal_size_after(self, args: Tuple[Any, ...], result: Any) -> None:
        self.add_count("durability.journal_bytes",
                       os.path.getsize(args[0].path)
                       - self._local.journal_size)


Totals = Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]


def snapshot_totals(tracer: Tracer) -> Totals:
    self_s, calls = tracer.totals()
    with tracer._counts_lock:
        counts = dict(tracer.counts)
    return dict(self_s), dict(calls), counts


def _diff(after: Dict[str, Any], before: Dict[str, Any], key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


def layer_metrics(tracer: Tracer, setup: Totals, ingested: Totals,
                  resume_base: Totals, resumed: Totals, *,
                  publish_s: float, batches: int, reads: int,
                  reader_late_ms: float, vocabulary_terms: int,
                  snapshot_mb: float) -> Dict[str, float]:
    """Per-layer metrics of the ingest phase (``setup`` to ``ingested``)
    and of the first resume (``resume_base`` to ``resumed``)."""
    self_s = {bucket: _diff(ingested[0], setup[0], bucket)
              for bucket in ingested[0]}
    calls = {bucket: _diff(ingested[1], setup[1], bucket)
             for bucket in ingested[1]}

    def count(name: str) -> float:
        return _diff(ingested[2], setup[2], name)

    metrics: Dict[str, float] = {
        metric: self_s.get(bucket, 0.0) for metric, bucket in PUBLISH_LAYERS
    }
    attributed = sum(metrics.values())
    weighted_calls = calls.get("vectors.weighted_arrays", 0.0)
    spans = sum(calls.values())
    metrics.update({
        "text.docs": count("text.docs"),
        "text.vocabulary_terms": float(vocabulary_terms),
        "forgetting.expired_docs": count("forgetting.expired_docs"),
        "forgetting.active_docs_max":
            ingested[2].get("forgetting.active_docs_max", 0.0),
        "vectors.weighted_arrays_calls": weighted_calls,
        "vectors.calls_per_batch": weighted_calls / max(batches, 1),
        "core.fit_calls": calls.get("core.fit", 0.0),
        "core.passes": count("core.passes"),
        "durability.checkpoints": count("durability.checkpoints"),
        "durability.journal_bytes": count("durability.journal_bytes"),
        "durability.checkpoint_bytes":
            ingested[2].get("durability.checkpoint_bytes", 0.0),
        "durability.recover_load_s": _diff(
            resumed[0], resume_base[0], "durability.recover_load"),
        "durability.replayed_batches": _diff(
            resumed[2], resume_base[2], "durability.replayed_batches"),
        "service.snapshot_mb": snapshot_mb,
        "service.reads": float(reads),
        "service.read_self_s": self_s.get("service.read", 0.0),
        "service.reader_late_ms": reader_late_ms,
        "service.publish_s": publish_s,
        "service.unattributed_s": publish_s - attributed,
        # everything traced before ingest ran inside open_stream
        "api.open_stream_s": sum(setup[0].values()),
        "trace.spans": spans,
    })
    return metrics
