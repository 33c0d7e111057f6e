"""Workload definitions of the stream benchmark.

Each workload fixes the input make-up (which synthetic TDT2 segments,
how they are windowed) and the load (clusterer size, read rate); the
checkpoint cadence and the query set are common to all. Everything else is the default
``repro.open_stream`` configuration, so a change of defaults shows up
in every workload.

Kept free of ``repro`` imports: the orchestrator reads these specs
without loading the library under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Forgetting parameters of the paper's Experiment 1 (days).
HALF_LIFE = 7.0
LIFE_SPAN = 14.0
#: Windows past the last checkpoint when the session is killed, so a
#: resume replays this many journal entries on every seed. Kept above
#: 0: a resume exactly at a checkpoint serves no outliers (see
#: README.md, "Known faults").
REPLAYED_WINDOWS = 6
#: A full checkpoint every this many windows (journal in between).
CHECKPOINT_EVERY = 7
#: Raw-text queries the reader cycles through.
N_QUERIES = 64


@dataclass(frozen=True)
class Segment:
    """One synthetic TDT2 stream, in ``SyntheticCorpusConfig`` terms.

    ``overrides`` are passed to ``SyntheticCorpusConfig``; the paper's
    defaults (7,578 documents over 178 days) apply to the rest.
    ``keep_days`` truncates the segment to its first days.
    """

    overrides: Tuple[Tuple[str, float], ...] = ()
    keep_days: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: K of the extended K-means.
    k: int
    #: Width of every window after the first, in days. The first window
    #: is widened to whole multiples of this until it holds >= k
    #: documents, since the cold-start guard rejects a smaller one.
    window_days: float
    #: Segments follow one another in time, each shifted to start where
    #: the previous one ended, each from its own generator seed.
    segments: Tuple[Segment, ...]
    #: Paced reads per second, issued by one reader thread.
    read_rate: float


_PAPER = Segment()

#: A TDT2 stream squeezed into 30 days at ~15% of the paper's volume;
#: the endless workload chains several from different seeds.
_SHORT = Segment(
    overrides=(
        ("total_documents", 1100),
        ("window_days", 5.0),
        ("last_window_days", 5.0),
    ),
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's Experiment 1 job: every write-side layer gets a
        # realistic share.
        Workload(
            name="stream",
            k=32,
            window_days=1.0,
            segments=(_PAPER,),
            read_rate=100.0,
        ),
        # Not listed in BENCHMARK.json: over six sets of 10 seeds on
        # the reference box its spreads (IQR/median) reached 0.35 for
        # publish_p90_ms, 0.32 for query_p99_ms and 0.30 for recover_s,
        # where no bound may exceed 0.25. Run it by name to look at the
        # large-KxV end, where the engine sweep and the KxV snapshot
        # matrix dominate and text and journal barely register; its
        # figures are not gated.
        Workload(
            name="wide-k",
            k=256,
            window_days=0.25,
            segments=(Segment(keep_days=15.0),),
            read_rate=200.0,
        ),
        # An always-on service: segments from different seeds turn the
        # vocabulary over while a fast reader contends with the writer.
        Workload(
            name="endless",
            k=32,
            window_days=1.0,
            segments=(_SHORT,) * 6,
            read_rate=200.0,
        ),
    )
}
