"""One command for the stream benchmark of ``repro``.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it needs ``src/repro``). One
run:

1. generates the workload's inputs from ``--seed`` in a separate
   process (``gen.py``), so the generator's memory is not the
   service's;
2. measures set-up ``SETUP_PROBES`` times, each in a fresh interpreter;
3. runs the stream in the service process (``serve.py``): raw text →
   statistics → fit → journal → snapshot → paced reads, then a kill
   and resumes, then the output checks. With ``--trace 1`` the stream runs twice in fresh processes, untraced
   and then traced, and the tracing overhead is the traced run's
   ingest time over the untraced run's;
4. checks micro-F1 against the topic labels, which only this process
   reads;
5. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics (after a per-layer table) with ``--trace 1``.

A run always ingests its workload's whole stream, so every run does the
same work; the workloads were sized to measure about ``--seconds``
seconds each on a 2-core box (see README.md). Scratch files live under
``.perfbench-work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``; the median counts.
SETUP_PROBES = 5
#: Wall-clock budget of one run, below the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ingest_docs_per_s": "1/s",
    "publish_p50_ms": "ms",
    "publish_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "text.self_s": "s",
    "text.docs": "count",
    "text.vocabulary_terms": "count",
    "forgetting.observe_s": "s",
    "forgetting.expire_s": "s",
    "forgetting.clone_s": "s",
    "forgetting.freeze_s": "s",
    "forgetting.expired_docs": "count",
    "forgetting.active_docs_max": "count",
    "vectors.weighted_arrays_s": "s",
    "vectors.weighted_arrays_calls": "count",
    "vectors.calls_per_batch": "ratio",
    "core.fit_s": "s",
    "core.fit_calls": "count",
    "core.passes": "count",
    "core.batch_self_s": "s",
    "durability.record_batch_s": "s",
    "durability.checkpoints": "count",
    "durability.journal_bytes": "bytes",
    "durability.checkpoint_bytes": "bytes",
    "durability.recover_load_s": "s",
    "durability.replayed_batches": "count",
    "service.queue_wait_s": "s",
    "service.snapshot_build_s": "s",
    "service.snapshot_mb": "MB",
    "service.reads": "count",
    "service.read_self_s": "s",
    "service.reader_late_ms": "ms",
    "service.publish_s": "s",
    "service.unattributed_s": "s",
    "api.open_stream_s": "s",
    "trace.overhead_pct": "%",
}

#: Rows of the per-layer table: the publish interval, split.
TABLE_ROWS = (
    "text.self_s", "service.queue_wait_s", "core.batch_self_s",
    "forgetting.clone_s", "forgetting.observe_s", "forgetting.expire_s",
    "forgetting.freeze_s", "vectors.weighted_arrays_s", "core.fit_s",
    "durability.record_batch_s", "service.snapshot_build_s",
    "service.unattributed_s",
)


class RunFailed(Exception):
    pass


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # numpy's BLAS must not add threads beyond the service's own: the
    # load is one producer, one reader and the writer on two cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def call(argv: List[str], env: Dict[str, str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before " + " ".join(argv[1:3]))
    try:
        done = subprocess.run(
            [sys.executable] + argv, env=env, capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"timed out: {' '.join(argv)}") from None
    if done.returncode != 0:
        raise RunFailed(f"{' '.join(argv)} exited {done.returncode}:\n"
                        f"{done.stderr[-4000:]}")
    return done.stdout


def print_table(workload: str, layers: Dict[str, float]) -> None:
    publish = layers["service.publish_s"]
    print(f"per-layer self time over the publish intervals of '{workload}'"
          f" (traced run)")
    print(f"  {'layer':<28}{'seconds':>10}{'share':>9}")
    for name in TABLE_ROWS:
        seconds = layers[name]
        label = name.rsplit("_s", 1)[0]
        print(f"  {label:<28}{seconds:>10.3f}{100 * seconds / publish:>8.1f}%")
    print(f"  {'= publish total':<28}{publish:>10.3f}{100.0:>8.1f}%")
    print(f"  reads: {layers['service.reads']:.0f} taking "
          f"{layers['service.read_self_s']:.3f} s on the reader thread")
    print(f"  tracing overhead: {layers['trace.overhead_pct']:+.1f}% ingest "
          f"time against an untraced run of the same seed "
          f"({layers['trace.spans']:.0f} spans)")


def run(args: argparse.Namespace, root: Path, work: Path) -> Dict[str, Any]:
    deadline = time.monotonic() + BUDGET_S
    env = child_env(root)
    inputs = work / "inputs"
    call([str(HERE / "gen.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--out", str(inputs)], env, deadline)

    setup = []
    for index in range(SETUP_PROBES):
        out = call([str(HERE / "serve.py"), "--probe", str(index),
                    "--workload", args.workload, "--inputs", str(inputs)],
                   env, deadline)
        setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

    def serve(trace: int) -> Dict[str, Any]:
        name = f"trace{trace}"
        call([str(HERE / "serve.py"), "--workload", args.workload,
              "--inputs", str(inputs), "--state", str(work / name),
              "--seed", str(args.seed), "--trace", str(trace),
              "--out", str(work / f"{name}.json")], env, deadline)
        return json.loads((work / f"{name}.json").read_text())

    if args.trace:
        untraced = serve(0)
        result = serve(1)
        # same documents in both runs, so the rate ratio is the
        # ingest-time ratio
        result["layers"]["trace.overhead_pct"] = 100.0 * (
            untraced["metrics"]["ingest_docs_per_s"]
            / result["metrics"]["ingest_docs_per_s"] - 1.0)
        result["failures"] = [f"untraced run: {failure}"
                              for failure in untraced["failures"]
                              ] + result["failures"]
    else:
        result = serve(0)

    from checks import check_quality

    labels = json.loads((inputs / "labels.json").read_text())
    failures, f1, baseline = check_quality(result["clusters"], labels,
                                           args.seed)
    failures = result["failures"] + failures
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    samples = result["samples"]
    print(f"{args.workload} seed {args.seed}: {samples['windows']} windows, "
          f"{samples['reads']} reads, {samples['recoveries']} resumes, "
          f"{SETUP_PROBES} set-ups; micro-F1 {f1:.3f} (random "
          f"{baseline:.3f})")

    if args.trace:
        print_table(args.workload, result["layers"])
        values = result["layers"]
        units = PER_LAYER
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup))
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": result["attempted"] + SETUP_PROBES,
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Stream benchmark of repro: raw text to paced reads.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="run length the workloads are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        summary = run(args, root, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
