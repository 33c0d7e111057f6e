"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selftest.py

Streams a tiny TDT2 stream (K=4, 24 days, so documents expire) through
``repro.open_stream``, kills and resumes it, and requires that every
check in ``checks.py`` passes on the real outputs and fails on each
perturbation: one document moved to another cluster, one dropped from
the served set, ``G`` off by one part in a million, a version gap, a
reader going back in time, and shuffled topic labels. Exits 0 when the
checks behave, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, List

from checks import (
    Recomputed,
    Record,
    check_quality,
    check_recovered,
    check_snapshot,
    check_versions,
)
from gen import generate
from workloads import (
    CHECKPOINT_EVERY,
    HALF_LIFE,
    LIFE_SPAN,
    Segment,
    Workload,
)

TINY = Workload(
    name="tiny",
    k=4,
    window_days=1.0,
    segments=(Segment(overrides=(
        ("total_documents", 400), ("window_days", 4.0),
        ("last_window_days", 4.0),
    )),),
    read_rate=1.0,
)
SEED = 5


def stream(directory: Path) -> Any:
    """Ingest the tiny stream; return what the checks look at."""
    import repro
    from repro.corpus.document import Document

    generated = generate(TINY, SEED)
    records = generated["records"]
    checkpoint = directory / "tiny.ckpt"
    session = repro.open_stream(
        k=TINY.k, half_life=HALF_LIFE, life_span=LIFE_SPAN, seed=SEED,
        checkpoint=checkpoint, checkpoint_every=CHECKPOINT_EVERY,
    )
    pipeline = session.snapshot().pipeline
    documents = []
    versions = []
    position = 0
    for at_time, count in generated["windows"]:
        window = [
            Document(doc_id=record["doc_id"], timestamp=record["timestamp"],
                     term_counts=session.vocabulary.add_counts(
                         pipeline.term_frequencies(record["text"])))
            for record in records[position:position + count]
        ]
        position += count
        session.add(window, at_time=at_time)
        versions.append(session.flush().version)
        documents.extend(window)
    if session.errors:
        raise SystemExit(f"tiny stream rejected a window: {session.errors}")
    killed = session.snapshot()
    pr_document = session.clusterer.statistics.pr_document
    session.service.kill()
    resumed = repro.open_stream(resume=checkpoint)
    recovered = resumed.snapshot()
    resumed.close()
    recomputed = Recomputed(
        [Record(doc.doc_id, doc.timestamp, doc.term_counts)
         for doc in documents],
        tau=float(generated["windows"][-1][0]),
        half_life=HALF_LIFE, life_span=LIFE_SPAN,
    )
    labels = {record["doc_id"]: record["topic_id"] for record in records}
    return killed, recovered, recomputed, pr_document, versions, labels


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        (killed, recovered, recomputed, pr_document, versions,
         labels) = stream(Path(scratch))
    outcomes: List[bool] = []

    def expect(passes: bool, name: str, failures: List[str]) -> None:
        ok = (not failures) if passes else bool(failures)
        outcomes.append(ok)
        verdict = "ok  " if ok else "FAIL"
        wanted = "passes" if passes else "fails"
        print(f"{verdict} {name} {wanted}: {failures[:1] or 'no failure'}")

    clusters = [members for members in killed.clusters if members]
    expect(True, "snapshot check",
           check_snapshot(recomputed, killed, pr_document))
    expect(True, "recovery check", check_recovered(killed, recovered))
    expect(True, "version check", check_versions(versions, killed.version,
                                                 [0, 1, 1, 2]))
    expect(True, "quality check", check_quality(clusters, labels, SEED)[0])
    expired = len(recomputed.active) < len(labels)
    outcomes.append(expired)
    print(f"{'ok  ' if expired else 'FAIL'} the tiny stream expires "
          f"documents ({len(recomputed.active)} of {len(labels)} active)")

    donor = max(range(killed.k), key=lambda c: len(killed.clusters[c]))
    taker = (donor + 1) % killed.k
    moved_doc = killed.clusters[donor][0]
    moved = [list(members) for members in killed.clusters]
    moved[donor].remove(moved_doc)
    moved[taker].append(moved_doc)
    perturbed: List[tuple] = [
        ("one assignment moved",
         dataclasses.replace(killed, clusters=tuple(map(tuple, moved)))),
        ("one document dropped",
         dataclasses.replace(killed, clusters=tuple(
             tuple(m for m in members if m != moved_doc)
             for members in killed.clusters))),
        ("G off by 1e-6",
         dataclasses.replace(
             killed, clustering_index=killed.clustering_index * (1 + 1e-6))),
    ]
    for name, snapshot in perturbed:
        expect(False, f"snapshot check, {name},",
               check_snapshot(recomputed, snapshot))
        expect(False, f"recovery check, {name},",
               check_recovered(snapshot, recovered))
    expect(False, "version check with a gap",
           check_versions(versions[:-2] + versions[-1:], killed.version, []))
    expect(False, "version check with a read back in time",
           check_versions(versions, killed.version, [0, 2, 1]))
    shuffled = list(labels.values())
    random.Random(SEED).shuffle(shuffled)
    expect(False, "quality check with shuffled labels",
           check_quality(clusters, dict(zip(labels, shuffled)), SEED)[0])
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
