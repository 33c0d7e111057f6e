"""Input generator of the stream benchmark (run as its own process).

    python3 perfbench/gen.py --workload stream --seed 1 --out DIR

Writes, from the workload spec and the seed alone:

* ``records.jsonl`` -- raw-text records ``{"doc_id", "timestamp",
  "text"}`` in time order; the only thing the service process reads
  besides the window plan and the queries;
* ``windows.json`` -- ``[[at_time, n_records], ...]``: consecutive
  runs of records and the clock each is handed over at;
* ``queries.json`` -- raw texts the paced reader cycles through;
* ``labels.json`` -- ground-truth topic per doc id, read only by the
  orchestrator's quality check.

Needs ``src`` on ``PYTHONPATH`` (the orchestrator sets it).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional

from workloads import (
    CHECKPOINT_EVERY,
    N_QUERIES,
    REPLAYED_WINDOWS,
    WORKLOADS,
    Workload,
)


class _RecordSink:
    """Stands in for a ``DocumentRepository``: keeps raw text only."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def add_text(self, doc_id: str, timestamp: float, text: str,
                 topic_id: Optional[str] = None,
                 source: Optional[str] = None,
                 title: Optional[str] = None) -> None:
        self.records.append({
            "doc_id": doc_id, "timestamp": timestamp,
            "text": text, "topic_id": topic_id,
        })


def segment_seed(seed: int, index: int) -> int:
    return seed * 64 + index


def generate(workload: Workload, seed: int) -> Dict[str, object]:
    from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator

    records: List[Dict[str, object]] = []
    offset = 0.0
    for index, segment in enumerate(workload.segments):
        config = SyntheticCorpusConfig(
            seed=segment_seed(seed, index), **dict(segment.overrides)
        )
        sink = _RecordSink()
        TDT2Generator(config).generate(sink)
        span = config.total_days
        if segment.keep_days is not None:
            span = min(span, segment.keep_days)
        for record in sink.records:
            if record["timestamp"] >= span:
                continue
            record["doc_id"] = f"s{index}-{record['doc_id']}"
            record["timestamp"] = offset + float(record["timestamp"])
            records.append(record)
        offset += span
    records.sort(key=lambda record: record["timestamp"])
    return {"records": records, "windows": plan_windows(workload, records)}


def plan_windows(workload: Workload,
                 records: List[Dict[str, object]]) -> List[List[float]]:
    """Half-open ``[start, end)`` windows handed over at ``end``.

    The first window is widened, in whole window widths, until it holds
    at least K documents; empty windows are skipped (there is nothing
    to hand over, and the service publishes nothing for them). Then the
    first window absorbs as many of the next ones as it takes for the
    window count to end ``REPLAYED_WINDOWS`` past a checkpoint, so that
    every seed's resume replays the same number of journal entries.
    """
    width = workload.window_days
    times = [float(record["timestamp"]) for record in records]
    if len(times) < workload.k:
        raise SystemExit(f"only {len(times)} records for k={workload.k}")
    end = width
    while sum(1 for t in times if t < end) < workload.k:
        end += width
    windows: List[List[float]] = []
    position = 0
    while position < len(times):
        count = 0
        while position + count < len(times) and times[position + count] < end:
            count += 1
        if count:
            windows.append([end, count])
            position += count
        end += width
    merge = (len(windows) - REPLAYED_WINDOWS) % CHECKPOINT_EVERY
    if merge:
        absorbed = sum(count for _, count in windows[:merge + 1])
        windows[:merge + 1] = [[windows[merge][0], absorbed]]
    return windows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    generated = generate(workload, args.seed)
    records = generated["records"]
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps({
                key: record[key] for key in ("doc_id", "timestamp", "text")
            }) + "\n")
    (out / "windows.json").write_text(json.dumps(generated["windows"]))
    (out / "labels.json").write_text(json.dumps(
        {record["doc_id"]: record["topic_id"] for record in records}
    ))
    rng = random.Random(args.seed)
    queries = [str(record["text"]) for record in
               rng.sample(records, min(N_QUERIES, len(records)))]
    (out / "queries.json").write_text(json.dumps(queries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
