"""Output checks of the stream benchmark, recomputed from scratch.

Nothing here calls into ``repro``: the expected values come from the
records' term counts and the paper's equations, evaluated with numpy,
and are compared with what the service *served*:

* :func:`check_snapshot` -- at the final clock τ, ``dw``/``Pr(d)``
  (Eq. 1-4), ``Pr(t)`` and the novelty idf (Eq. 8-14), the active set
  (``τ - T <= γ``, which must equal clusters ∪ outliers), and the
  clustering index ``G = Σ_p |C_p|·avg_sim(C_p)`` (Eq. 16-18) summed
  over brute-force pairwise similarities of the served clusters;
* :func:`check_recovered` -- a resumed session serves the killed
  session's partition, outliers and ``G``;
* :func:`check_versions` -- versions are gapless, one per window, and
  monotonic for the reader;
* :func:`micro_f1` / :func:`check_quality` -- the final partition beats
  random partitions of the same cluster sizes against the topic labels.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

#: Relative tolerance for statistics and ``G``: the service keeps its
#: aggregates incrementally (decay multiplies, expiry subtractions), so
#: a from-scratch sum may differ in the last bits, never more.
REL_TOL = 1e-9
#: Documents this close (in days) to the life span may fall either side
#: of the expiry test, which the service evaluates on decayed floats.
EXPIRY_BAND = 1e-9
#: ``G`` of a resumed session must equal the killed session's to this.
RECOVERY_G_TOL = 1e-9
#: Factor by which micro-F1 must beat the best random partition. With
#: K far above the topic count (wide-k), topics split over many clusters
#: and recall, hence F1, is low for any partition; a ratio still tells
#: a clustering from a shuffle.
F1_RATIO = 1.5
#: Random same-size partitions drawn for the quality baseline.
RANDOM_DRAWS = 20


@dataclass(frozen=True)
class Record:
    """What the checks need of one ingested document."""

    doc_id: str
    timestamp: float
    term_counts: Mapping[int, int]


class Recomputed:
    """The paper's statistics at clock ``tau``, from scratch (Eq. 1-14)."""

    def __init__(self, records: Sequence[Record], tau: float,
                 half_life: float, life_span: float) -> None:
        self.tau = tau
        decay = 2.0 ** (-1.0 / half_life)  # λ, Eq. 2
        ages = np.array([tau - record.timestamp for record in records])
        self.ambiguous = {
            record.doc_id for record, age in zip(records, ages)
            if abs(age - life_span) <= EXPIRY_BAND
        }
        keep = ages <= life_span + EXPIRY_BAND
        self.records = [record for record, kept in zip(records, keep) if kept]
        self.active = {record.doc_id for record in self.records}
        self.row = {record.doc_id: row
                    for row, record in enumerate(self.records)}
        dw = decay ** ages[keep]                                # Eq. 1
        self.tdw = float(dw.sum())                              # Eq. 3
        self.pr_document = dw / self.tdw                        # Eq. 4
        self.terms = [
            np.fromiter(record.term_counts.keys(), dtype=np.int64)
            for record in self.records
        ]
        self.counts = [
            np.fromiter(record.term_counts.values(), dtype=np.float64)
            for record in self.records
        ]
        self.lengths = np.array([counts.sum() for counts in self.counts])
        n_terms = 1 + max((int(t.max()) for t in self.terms if t.size),
                          default=0)
        mass = np.zeros(n_terms)
        for row, (terms, counts) in enumerate(zip(self.terms, self.counts)):
            # Σ_i dw_i · Pr(t_k | d_i), Eq. 8-10 before dividing by tdw
            np.add.at(mass, terms, dw[row] * counts / self.lengths[row])
        self.pr_term = np.minimum(1.0, mass / self.tdw)         # Eq. 10
        with np.errstate(divide="ignore"):
            self.idf = np.where(self.pr_term > 0.0,
                                1.0 / np.sqrt(self.pr_term), 0.0)  # Eq. 14

    def weighted_rows(self, doc_ids: Sequence[str]) -> np.ndarray:
        """Dense ``w⃗_i = Pr(d_i)/len_i · tf_i·idf`` rows (Eq. 12-16)
        over the union of the documents' terms."""
        rows = [self.row[doc_id] for doc_id in doc_ids]
        columns = np.unique(np.concatenate([self.terms[r] for r in rows]))
        dense = np.zeros((len(rows), columns.size))
        for out, row in enumerate(rows):
            positions = np.searchsorted(columns, self.terms[row])
            scale = self.pr_document[row] / self.lengths[row]
            dense[out, positions] = (
                self.counts[row] * self.idf[self.terms[row]] * scale
            )
        return dense

    def clustering_index(self, clusters: Sequence[Sequence[str]]) -> float:
        """``G`` by brute force: every ordered pair's similarity."""
        total = 0.0
        for members in clusters:
            if len(members) < 2:
                continue
            rows = self.weighted_rows(members)
            gram = rows @ rows.T                # sim(d_i, d_j), Eq. 16
            pairs = gram.sum() - np.trace(gram)  # i != j, Eq. 18
            total += pairs / (len(members) - 1)  # |C_p| · avg_sim(C_p)
        return total


def _close(actual: float, expected: float, rel: float = REL_TOL) -> bool:
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0)


def check_snapshot(recomputed: Recomputed, snapshot: Any,
                   pr_document: Optional[Callable[[str], float]] = None
                   ) -> List[str]:
    """Compare a served snapshot with the from-scratch recomputation.

    ``pr_document`` (the service's ``Pr(d)`` lookup) is optional: the
    snapshot itself carries ``Pr(d)`` only through ``G``.
    """
    failures: List[str] = []
    if snapshot.at_time != recomputed.tau:
        failures.append(f"clock {snapshot.at_time} != τ {recomputed.tau}")

    served: Set[str] = {doc for members in snapshot.clusters
                        for doc in members}
    served.update(snapshot.outliers)
    missing = recomputed.active - served - recomputed.ambiguous
    extra = served - recomputed.active - recomputed.ambiguous
    if missing or extra:
        failures.append(
            f"active set differs: {len(missing)} active documents not "
            f"served (e.g. {sorted(missing)[:3]}), {len(extra)} served "
            f"documents expired or unknown (e.g. {sorted(extra)[:3]})"
        )
    if recomputed.ambiguous:
        return failures + [
            f"{len(recomputed.ambiguous)} documents sit on the expiry "
            f"boundary; statistics cannot be compared"
        ]
    if missing or extra:
        return failures

    frozen = snapshot.frozen
    if not _close(frozen.tdw, recomputed.tdw):
        failures.append(f"tdw {frozen.tdw!r} != {recomputed.tdw!r}")
    if frozen.size != len(recomputed.active):
        failures.append(f"frozen size {frozen.size} != "
                        f"{len(recomputed.active)} active documents")

    expected_pr = recomputed.pr_term
    frozen_ids = np.asarray(frozen.term_ids)
    frozen_pr = np.minimum(1.0, np.asarray(frozen.term_masses) / frozen.tdw)
    inside = frozen_ids < expected_pr.size
    expected_at_frozen = np.zeros(frozen_ids.size)
    expected_at_frozen[inside] = expected_pr[frozen_ids[inside]]
    live = expected_at_frozen > 0.0
    bad = ~np.isclose(frozen_pr[live], expected_at_frozen[live],
                      rtol=REL_TOL, atol=0.0)
    if bad.any():
        failures.append(f"Pr(t) differs on {int(bad.sum())} of "
                        f"{int(live.sum())} active terms")
    # terms of expired documents may keep a float residue of mass
    residue = frozen_pr[~live]
    if residue.size and residue.max() > 1e-12:
        failures.append(f"{int((residue > 1e-12).sum())} terms of no "
                        f"active document keep Pr(t) up to {residue.max()}")
    active_terms = np.flatnonzero(expected_pr > 0.0)
    unserved = np.setdiff1d(active_terms, frozen_ids)
    if unserved.size:
        failures.append(f"{unserved.size} active terms have no Pr(t)")

    served_ids = np.asarray(snapshot.term_ids)
    if not np.array_equal(served_ids, active_terms):
        failures.append("snapshot term space != terms of active documents")
    else:
        bad = ~np.isclose(np.asarray(snapshot.idf),
                          recomputed.idf[served_ids], rtol=REL_TOL, atol=0.0)
        if bad.any():
            failures.append(f"idf differs on {int(bad.sum())} terms")

    if pr_document is not None:
        wrong = [
            record.doc_id for record, expected in
            zip(recomputed.records, recomputed.pr_document)
            if not _close(pr_document(record.doc_id), float(expected))
        ]
        if wrong:
            failures.append(f"Pr(d) differs on {len(wrong)} documents "
                            f"(e.g. {wrong[:3]})")

    expected_g = recomputed.clustering_index(snapshot.clusters)
    if not _close(snapshot.clustering_index, expected_g):
        failures.append(f"G {snapshot.clustering_index!r} != brute-force "
                        f"{expected_g!r}")
    return failures


def _partition(clusters: Sequence[Sequence[str]]) -> Set[frozenset]:
    return {frozenset(members) for members in clusters if members}


def check_recovered(killed: Any, recovered: Any) -> List[str]:
    """A resumed session must serve the killed session's state."""
    failures: List[str] = []
    if recovered.version != killed.version:
        failures.append(f"resumed at version {recovered.version}, "
                        f"killed at {killed.version}")
    if _partition(recovered.clusters) != _partition(killed.clusters):
        failures.append("resumed clusters differ from the killed ones")
    if set(recovered.outliers) != set(killed.outliers):
        failures.append(
            f"resumed outliers differ: {len(recovered.outliers)} vs "
            f"{len(killed.outliers)} at the kill"
        )
    gap = abs(recovered.clustering_index - killed.clustering_index)
    if not gap <= RECOVERY_G_TOL:
        failures.append(f"resumed G differs by {gap!r}")
    return failures


def check_versions(window_versions: Sequence[int], killed_version: int,
                   reader_versions: Sequence[int]) -> List[str]:
    """Gapless publish versions, one per window; monotonic reads."""
    failures: List[str] = []
    expected = list(range(1, len(window_versions) + 1))
    if list(window_versions) != expected:
        failures.append("window versions are not 1..N in order")
    if killed_version != len(window_versions):
        failures.append(f"final version {killed_version} != "
                        f"{len(window_versions)} windows")
    backwards = sum(1 for earlier, later in
                    zip(reader_versions, reader_versions[1:])
                    if later < earlier)
    if backwards:
        failures.append(f"reader saw versions go backwards {backwards} times")
    return failures


def micro_f1(clusters: Sequence[Sequence[str]],
             labels: Mapping[str, Optional[str]]) -> float:
    """Micro-averaged F1 of clusters marked with their majority topic.

    Per cluster: true positives are members of its majority topic,
    false positives the other members, false negatives the clustered
    documents of that topic outside it. Cells are summed over clusters
    before precision and recall are taken.
    """
    topic_sizes: Dict[Optional[str], int] = {}
    for members in clusters:
        for doc_id in members:
            topic = labels[doc_id]
            topic_sizes[topic] = topic_sizes.get(topic, 0) + 1
    tp = fp = fn = 0
    for members in clusters:
        if not members:
            continue
        counts: Dict[Optional[str], int] = {}
        for doc_id in members:
            counts[labels[doc_id]] = counts.get(labels[doc_id], 0) + 1
        topic, hits = max(counts.items(), key=lambda item: item[1])
        tp += hits
        fp += len(members) - hits
        fn += topic_sizes[topic] - hits
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def random_partition_f1(clusters: Sequence[Sequence[str]],
                        labels: Mapping[str, Optional[str]],
                        seed: int) -> float:
    """Best micro-F1 over random partitions with the same sizes."""
    rng = random.Random(seed)
    members = [doc_id for cluster in clusters for doc_id in cluster]
    best = 0.0
    for _ in range(RANDOM_DRAWS):
        shuffled = members[:]
        rng.shuffle(shuffled)
        start = 0
        partition = []
        for cluster in clusters:
            partition.append(shuffled[start:start + len(cluster)])
            start += len(cluster)
        best = max(best, micro_f1(partition, labels))
    return best


def check_quality(clusters: Sequence[Sequence[str]],
                  labels: Mapping[str, Optional[str]],
                  seed: int) -> Tuple[List[str], float, float]:
    """Micro-F1 must beat every random same-size partition clearly."""
    f1 = micro_f1(clusters, labels)
    baseline = random_partition_f1(clusters, labels, seed)
    failures = []
    if not f1 >= F1_RATIO * baseline:
        failures.append(f"micro-F1 {f1:.3f} is not {F1_RATIO}x the best "
                        f"random partition's {baseline:.3f}")
    return failures, f1, baseline
