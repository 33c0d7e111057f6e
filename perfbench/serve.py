"""The service process of the stream benchmark.

    python3 perfbench/serve.py --workload W --inputs DIR --state DIR \\
        --seed N --trace 0|1 --out result.json
    python3 perfbench/serve.py --probe INDEX --workload W --inputs DIR

The first form runs one measured stream: a producer thread (this
process's main thread) hands each window's raw texts to the session's
text front end, ``add``\\ s the documents and waits on ``flush`` for the
window's snapshot (a closed loop); a reader thread issues paced reads
on a fixed schedule (an open loop) until the last window is published.
Then the session is killed and resumed from what it left on disk, and
from crash images copied at each eighth of the stream, and the outputs are checked. Session state and crash images go
to ``--state``; the result, metrics and check failures go to ``--out``
as JSON.

The second form measures set-up once: from ``import repro`` in this
fresh interpreter to a session that answers a query. No ``repro`` or
numpy import may precede it, hence the lazy imports below.
"""

from __future__ import annotations

import argparse
from collections import deque
import gc
import json
import math
import resource
import shutil
import sys
from statistics import median
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import (
    CHECKPOINT_EVERY,
    HALF_LIFE,
    LIFE_SPAN,
    REPLAYED_WINDOWS,
    WORKLOADS,
    Workload,
)

clock = time.perf_counter

#: One round of the reader's mix. Most reads are the user query,
#: ``assign(raw text)``: with the four calls in equal shares the median
#: fell between the costs of the cheap calls and of ``assign`` and
#: jumped from run to run.
READ_ROUND = ("assign", "top_clusters", "assign", "members",
              "assign", "stats", "assign", "assign")

#: Crash images besides the kill after the last window: the on-disk
#: state is copied when these fractions of the stream are published.
#: Between windows the closed loop leaves nothing in flight, so the
#: copy holds what a kill would leave. ``recover_s`` is the median
#: resume time over all images. A resume's cost follows the active set
#: at its point of the stream (on one ``endless`` seed it ran from 0.5 s
#: to 1.1 s between images), so a median over few points moved with
#: the seed: from the final image alone by up to 34%.
CRASH_FRACTIONS = tuple(eighth / 8 for eighth in range(1, 8))


def crash_points(n_windows: int) -> List[int]:
    """Distinct window counts before the last, past each fraction of
    the stream, that end ``REPLAYED_WINDOWS`` past a checkpoint, as the
    final one does."""
    points = set()
    for fraction in CRASH_FRACTIONS:
        point = max(1, math.ceil(fraction * n_windows))
        while point % CHECKPOINT_EVERY != REPLAYED_WINDOWS % CHECKPOINT_EVERY:
            point += 1
        if point < n_windows:
            points.add(point)
    return sorted(points)


def open_session(workload: Workload, checkpoint: Path, seed: int) -> Any:
    import repro

    return repro.open_stream(
        k=workload.k, half_life=HALF_LIFE, life_span=LIFE_SPAN, seed=seed,
        checkpoint=checkpoint, checkpoint_every=CHECKPOINT_EVERY,
    )


def probe(workload: Workload, inputs: Path, index: int) -> Dict[str, float]:
    query = json.loads((inputs / "queries.json").read_text())[0]
    start = clock()
    session = open_session(workload, inputs / f"probe{index}" / "s.ckpt", 0)
    session.assign(query)
    elapsed = clock() - start
    session.close()
    return {"setup_s": elapsed}


class Reader(threading.Thread):
    """Open-loop reader: read ``i`` is due at ``start + i / rate``.

    A read's latency runs from when it was due, so a stall also delays
    the reads queued behind it; lateness is how long after its due time
    a read was issued. The mix cycles through :data:`READ_ROUND`;
    ``members`` walks the clusters one round at a time and ``assign``
    walks the queries one assign at a time, so every cluster and every
    query is read.
    """

    def __init__(self, session: Any, queries: List[str], rate: float,
                 k: int) -> None:
        super().__init__(name="bench-reader", daemon=True)
        self.session = session
        self.queries = queries
        self.interval = 1.0 / rate
        self.k = k
        self.start_at = 0.0
        self.halt = threading.Event()
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.versions: List[int] = []
        self.errors: List[str] = []

    def run(self) -> None:
        session = self.session
        index = 0
        assigns = 0
        while True:
            due = self.start_at + index * self.interval
            wait = due - clock()
            if wait > 0.0 and self.halt.wait(wait):
                return
            if self.halt.is_set():
                return
            issued = clock()
            round_, position = divmod(index, len(READ_ROUND))
            op = READ_ROUND[position]
            try:
                if op == "assign":
                    query = self.queries[assigns % len(self.queries)]
                    assigns += 1
                    self.versions.append(session.assign(query).version)
                elif op == "top_clusters":
                    session.top_clusters(10)
                elif op == "members":
                    session.members(round_ % self.k)
                else:
                    self.versions.append(session.stats().version)
            except Exception as exc:  # counted as a failed read
                self.errors.append(f"{type(exc).__name__}: {exc}")
            done = clock()
            self.latencies.append(done - due)
            self.lateness.append(issued - due)
            index += 1


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def snapshot_megabytes(snapshot: Any) -> float:
    arrays = [
        snapshot.term_ids, snapshot.idf, snapshot.representatives,
        snapshot.sizes, snapshot.crpp, snapshot.ss, snapshot.gain_a,
        snapshot.gain_b, snapshot.frozen.term_ids,
        snapshot.frozen.term_masses,
    ]
    return sum(array.nbytes for array in arrays) / 1e6


def run(workload: Workload, inputs: Path, state: Path, seed: int,
        trace: bool) -> Dict[str, Any]:
    windows = json.loads((inputs / "windows.json").read_text())
    queries = json.loads((inputs / "queries.json").read_text())

    import repro
    from repro.corpus.document import Document

    from checks import EXPIRY_BAND

    tracer = None
    if trace:
        from tracing import Tracer, snapshot_totals

        tracer = Tracer()
        tracer.install()

    checkpoint = state / "stream.ckpt"
    session = open_session(workload, checkpoint, seed)
    pipeline = session.snapshot().pipeline
    vocabulary = session.vocabulary
    reader = Reader(session, queries, workload.read_rate, workload.k)

    # Only what the final recomputation needs stays in this process:
    # records are read one window at a time, and a document is dropped
    # once it is past expiry at the current clock (documents arrive in
    # time order). Otherwise the harness would hold every document the
    # service has expired, and peak_rss_mb would hide a service that
    # leaks them.
    documents: deque = deque()
    horizon = LIFE_SPAN + EXPIRY_BAND
    ingested_docs = 0
    publish: List[float] = []
    window_versions: List[int] = []
    rejected = 0
    crash_at = crash_points(len(windows))
    paused = 0.0
    records = open(inputs / "records.jsonl", encoding="utf-8")
    base = snapshot_totals(tracer) if tracer else None
    start = clock()
    reader.start_at = start
    reader.start()
    with records:
        for at_time, count in windows:
            batch = [json.loads(records.readline()) for _ in range(count)]
            handed = clock()
            window = [
                Document(
                    doc_id=record["doc_id"], timestamp=record["timestamp"],
                    term_counts=vocabulary.add_counts(
                        pipeline.term_frequencies(record["text"])),
                )
                for record in batch
            ]
            session.add(window, at_time=at_time)
            snapshot = session.flush()
            publish.append(clock() - handed)
            # flush() returns even when the batch was rejected: the only
            # sign is an entry in session.errors, and no new version
            if session.errors:
                rejected = len(windows) - len(window_versions)
                break
            window_versions.append(snapshot.version)
            ingested_docs += len(window)
            documents.extend(window)
            while documents and at_time - documents[0].timestamp > horizon:
                documents.popleft()
            if len(window_versions) in crash_at:
                began = clock()
                shutil.copytree(state, state.parent
                                / f"{state.name}-image{len(window_versions)}")
                paused += clock() - began
    ingest_s = clock() - start - paused
    reader.halt.set()
    reader.join()
    ingested = snapshot_totals(tracer) if tracer else None
    # before the kill and the resumes, whose sessions live side by side
    # with the killed one in this process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    killed = session.snapshot()
    killed_statistics = session.clusterer.statistics
    session.service.kill()

    images = [(state, killed.version)] + [
        (state.parent / f"{state.name}-image{point}", point)
        for point in crash_at if point <= len(window_versions)
    ]
    recover_s: List[float] = []
    recovered = None
    recovered_version_ok = True
    resume_base = snapshot_totals(tracer) if tracer else None
    resume_first = None
    for image, expected_version in images:
        # the killed and earlier resumed sessions are this harness's
        # garbage, not the resume's: collect it outside the timed span
        gc.collect()
        begin = clock()
        resumed = repro.open_stream(resume=image / checkpoint.name)
        answer = resumed.assign(queries[0])
        version = resumed.stats().version
        recover_s.append(clock() - begin)
        if tracer and resume_first is None:
            resume_first = snapshot_totals(tracer)
        recovered_version_ok &= (
            answer.version == version == expected_version)
        if recovered is None:
            recovered = resumed.snapshot()
        resumed.close()

    from checks import (
        Recomputed,
        Record,
        check_recovered,
        check_snapshot,
        check_versions,
    )

    failures: List[str] = []
    failures += [f"window rejected: {exc!r}" for exc in session.errors]
    failures += [f"read failed: {error}" for error in reader.errors[:5]]
    failures += check_versions(window_versions, killed.version,
                               reader.versions)
    if not recovered_version_ok:
        failures.append("a resumed session did not answer at the version "
                        "of its crash image")
    assert recovered is not None
    failures += check_recovered(killed, recovered)
    if not rejected:
        recomputed = Recomputed(
            [Record(doc.doc_id, doc.timestamp, doc.term_counts)
             for doc in documents],
            tau=float(windows[-1][0]), half_life=HALF_LIFE,
            life_span=LIFE_SPAN,
        )
        failures += check_snapshot(recomputed, killed,
                                   pr_document=killed_statistics.pr_document)

    result: Dict[str, Any] = {
        "attempted": len(windows) + len(reader.latencies) + len(images),
        "failed": rejected + len(reader.errors),
        "failures": failures,
        "clusters": [list(members) for members in killed.clusters
                     if members],
        "samples": {"windows": len(publish), "reads": len(reader.latencies),
                    "recoveries": len(recover_s)},
        "metrics": {
            "ingest_docs_per_s": ingested_docs / ingest_s,
            "publish_p50_ms": 1e3 * percentile(publish, 50),
            "publish_p90_ms": 1e3 * percentile(publish, 90),
            "query_p50_ms": 1e3 * percentile(reader.latencies, 50),
            "query_p99_ms": 1e3 * percentile(reader.latencies, 99),
            "recover_s": median(recover_s),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(
            tracer, base, ingested, resume_base, resume_first,
            publish_s=sum(publish),
            batches=len(window_versions),
            reads=len(reader.latencies),
            reader_late_ms=1e3 * sum(reader.lateness)
            / max(len(reader.lateness), 1),
            vocabulary_terms=len(vocabulary),
            snapshot_mb=snapshot_megabytes(killed),
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--state", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--probe", type=int, metavar="INDEX")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.probe is not None:
        result = probe(workload, args.inputs, args.probe)
    else:
        if args.state is None:
            parser.error("--state is required to run a stream")
        result = run(workload, args.inputs, args.state, args.seed,
                     bool(args.trace))
    text = json.dumps(result)
    if args.out is not None:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
