"""Distributed transport benchmark: remote worker scaling on a sleep fleet.

Measures the coordinator/worker transport's work-stealing throughput with a
batch of sleep-bound items (so the measurement isolates the *transport* —
dispatch, heartbeats, RESULT merge — from training compute), at 1 and N
forked workers, and reports the speedup plus per-job dispatch overhead.
The pull protocol has no placement step: a fast worker simply leases more
often, so the expected speedup on K uniform jobs is ~min(N, K).

Not wired into a CI gate (wall-clock scaling on shared runners is noisy);
``tests/test_distributed.py`` pins the 2-workers-strictly-faster acceptance
with generous slack instead.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_distributed.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List

from repro.core import ParallelConfig, RemoteConfig, RemoteExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _sleep_job(item: float, attempt: int) -> float:
    time.sleep(item)
    return item


def _importable_sleep_job():
    """The sleep job under its importable module name.

    Run as a script this module is ``__main__``, which worker subprocesses
    cannot unpickle by reference; re-importing it as ``bench_distributed``
    (with :data:`BENCH_DIR` on the workers' path) gives a resolvable name.
    """
    import bench_distributed
    return bench_distributed._sleep_job


def run_distributed_benchmark(num_items: int = 8,
                              sleep_s: float = 0.25,
                              worker_counts: List[int] = [1, 2, 4],
                              ) -> Dict[str, Any]:
    items = [sleep_s] * num_items
    config = ParallelConfig(max_workers=max(worker_counts))
    sleep_job = _importable_sleep_job()
    rows = []
    for count in worker_counts:
        executor = RemoteExecutor(RemoteConfig(poll_interval_s=0.01))
        try:
            executor.launch_workers(count, extra_path=BENCH_DIR)
            if not executor.wait_for_workers(count, timeout=60.0):
                raise RuntimeError(f"{count} worker(s) never connected")
            start = time.monotonic()
            outcomes = executor.run(sleep_job, items, config)
            elapsed = time.monotonic() - start
        finally:
            executor.close()
        assert all(outcome.ok for outcome in outcomes)
        ideal = num_items * sleep_s / min(count, num_items)
        rows.append({
            "workers": count,
            "wall_s": round(elapsed, 4),
            "ideal_s": round(ideal, 4),
            # Everything that is not sleeping is transport: dispatch,
            # heartbeat handling, result decode and merge.
            "overhead_per_job_ms": round(
                max(elapsed - ideal, 0.0) / num_items * 1e3, 3),
            "dispatched": executor.last_stats["dispatched"],
        })
    base = rows[0]["wall_s"]
    for row in rows:
        row["speedup"] = round(base / row["wall_s"], 3)
    return {"benchmark": "distributed-transport", "num_items": num_items,
            "sleep_s": sleep_s, "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-items", type=int, default=8)
    parser.add_argument("--sleep-s", type=float, default=0.25)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    args = parser.parse_args()
    report = run_distributed_benchmark(args.num_items, args.sleep_s,
                                       args.workers)
    print(f"{'workers':>8} {'wall_s':>8} {'ideal_s':>8} {'speedup':>8} "
          f"{'overhead/job':>13}")
    for row in report["rows"]:
        print(f"{row['workers']:>8} {row['wall_s']:>8.3f} "
              f"{row['ideal_s']:>8.3f} {row['speedup']:>8.2f} "
              f"{row['overhead_per_job_ms']:>10.2f} ms")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
