"""Bench-regression gate: compare fresh benchmark runs against baselines.

``make smoke`` used to merely *run* the 1-worker benchmark; this script turns
that into a regression check.  It re-runs two cheap benchmark workloads and
compares them against the committed ``benchmarks/BENCH_*.json`` reports:

* **engine** — the seed-vs-optimized A/B behind ``BENCH_baseline.json``;
* **generated** — the compiled-generated-design check behind
  ``BENCH_generated.json`` (autograd-graph fallback vs compiled lockstep on
  non-Pensieve architectures), at a reduced scale so the gate stays fast;
* **serving** — the fleet-serving A/B behind ``BENCH_serving.json``
  (per-session serial emulation vs the batched fleet harness), at a reduced
  session count; the fleet must additionally stay bit-identical to its
  matched serial reference.  The speedup compared with the committed ratio
  is the 1-shard fleet's (like for like on any core count); when this
  process may use two or more CPUs, the fleet sharded over them must also
  reach ``MIN_SHARD_SPEEDUP`` over the 1-shard fleet.  That check is
  skipped with the reason printed on one CPU, and when too few 1-shard /
  sharded pairs had their cores (other load on a shared host) to resolve
  the ratio.

Two properties are enforced per workload:

* **correctness** — the fresh ``max_score_delta`` must stay within
  ``--max-score-delta`` (the fast engines may never change results);
* **performance** — the fresh speedup must reach at least
  ``--min-speedup-fraction`` of the committed report's speedup.  Absolute
  seconds are machine-dependent (committed reports come from a 1-CPU
  container), so the gate compares speedup *ratios*, with generous slack for
  noisy CI neighbours.

A third gate guards the telemetry layer: with telemetry disabled, the
instrumentation's projected cost (events an instrumented run would emit ×
measured per-call cost of the disabled hot path) must stay below
``--max-telemetry-overhead`` of that run's wall time.  Projection instead of
a wall-clock A/B keeps the gate deterministic — the disabled path costs
nanoseconds, so a direct A/B would drown in scheduler noise.

Committed baselines may carry a ``host`` metadata block (machine, python and
numpy versions, git sha — see ``bench_scales.host_metadata``); it is for
humans comparing reports across machines and is ignored here.

Exit code 0 when every gate passes, 1 otherwise.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_regression.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from bench_scales import (DEFAULT_BENCH_SCALE, run_benchmark,
                          run_generated_benchmark, run_serving_benchmark,
                          shard_summary)

BASELINES = {
    "engine": "BENCH_baseline.json",
    "generated": "BENCH_generated.json",
    "serving": "BENCH_serving.json",
}

#: Session count for the smoke-gate serving run (the committed report uses
#: ``bench_scales.SERVING_SESSIONS``; the ratio is stable well below that).
SMOKE_SERVING_SESSIONS = 128

#: Floor on the sharded fleet's speedup over the 1-shard fleet, where it
#: resolves (``bench_scales.shard_summary``).
MIN_SHARD_SPEEDUP = 1.25

#: Reduced scale for the smoke-gate runs (the committed reports use the full
#: DEFAULT_BENCH_SCALE; the gate only needs enough work for a stable ratio).
SMOKE_SCALE = replace(DEFAULT_BENCH_SCALE, train_epochs=16,
                      checkpoint_interval=8, last_k_checkpoints=2,
                      num_seeds=2, dataset_scale=0.03, num_chunks=12)


def _load_baseline(directory: str, name: str) -> Optional[dict]:
    path = os.path.join(directory, BASELINES[name])
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _check(name: str, fresh: dict, baseline: Optional[dict],
           min_fraction: float, max_delta: float,
           failures: List[str]) -> None:
    delta = float(fresh["max_score_delta"])
    speedup = float(fresh["speedup"])
    print(f"{name:9s}: fresh speedup {speedup:.2f}x, "
          f"score delta {delta:.2e}", end="")
    if delta > max_delta:
        failures.append(f"{name}: score delta {delta:.2e} exceeds "
                        f"{max_delta:.2e} — the fast engines changed results")
    if baseline is None:
        print("  (no committed baseline; correctness gate only)")
        return
    committed = float(baseline["speedup"])
    floor = committed * min_fraction
    print(f"  (committed {committed:.2f}x, floor {floor:.2f}x)")
    if speedup < floor:
        failures.append(
            f"{name}: fresh speedup {speedup:.2f}x fell below "
            f"{min_fraction:.0%} of the committed {committed:.2f}x")


def _check_shard_scaling(fresh: dict, failures: List[str]) -> None:
    """The sharded fleet must beat the 1-shard fleet where that resolves."""
    speedup = fresh["shard_speedup"]
    print(f"sharding : {shard_summary(fresh)} (floor "
          f"{MIN_SHARD_SPEEDUP:.2f}x)")
    if speedup is not None and speedup < MIN_SHARD_SPEEDUP:
        failures.append(f"serving: {fresh['shards']}-shard fleet only "
                        f"{speedup:.2f}x the 1-shard fleet (floor "
                        f"{MIN_SHARD_SPEEDUP:.2f}x)")


def _check_telemetry_overhead(max_fraction: float,
                              failures: List[str]) -> None:
    """Gate the disabled-telemetry cost of the instrumented stack.

    Measures (a) the per-call cost of the disabled span path and (b) the
    event count and wall time of a real instrumented workload, then projects
    (a) × events onto the workload: that is the full price the workload pays
    for its instrumentation when telemetry is off.
    """
    from repro.analysis.experiments import build_environment
    from repro.core import telemetry
    from repro.core.evaluation import DesignTrainer, TestScoreProtocol

    assert not telemetry.enabled(), "telemetry must be off for this gate"
    calls = 200_000
    span = telemetry.span
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop"):
            pass
    per_call = (time.perf_counter() - start) / calls

    scale = replace(SMOKE_SCALE, train_epochs=8, checkpoint_interval=4)
    setup = build_environment("fcc", scale)
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces,
                            config=scale.evaluation_config(), qoe=setup.qoe)
    protocol = TestScoreProtocol(trainer, seeds=[0, 1], environment="fcc",
                                 scheduler=scale.scheduler())
    sink = telemetry.Telemetry()
    previous = telemetry.set_telemetry(sink)
    try:
        start = time.perf_counter()
        protocol.run(None, None)
        workload_s = time.perf_counter() - start
    finally:
        telemetry.set_telemetry(previous)

    projected = len(sink.events) * per_call / max(workload_s, 1e-9)
    print(f"telemetry: disabled span {per_call * 1e9:.0f} ns/call, "
          f"{len(sink.events)} events over {workload_s:.2f} s workload "
          f"-> {projected:.4%} projected overhead "
          f"(ceiling {max_fraction:.0%})")
    if projected > max_fraction:
        failures.append(
            f"telemetry: projected disabled-telemetry overhead "
            f"{projected:.2%} exceeds {max_fraction:.0%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regression gate comparing fresh benchmark runs against "
                    "the committed BENCH_*.json baselines")
    parser.add_argument("--baseline-dir",
                        default=os.path.dirname(os.path.abspath(__file__)),
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--min-speedup-fraction", type=float, default=0.35,
                        help="fresh speedup must reach this fraction of the "
                             "committed speedup (ratios, so machine-"
                             "independent; default leaves room for noisy CI)")
    parser.add_argument("--max-score-delta", type=float, default=1e-9,
                        help="maximum tolerated |score(reference) - "
                             "score(fast engine)| in the fresh runs")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.02,
                        help="ceiling on the projected disabled-telemetry "
                             "overhead fraction")
    parser.add_argument("--skip", nargs="*",
                        choices=sorted(BASELINES) + ["telemetry"],
                        default=[], help="workloads to skip")
    args = parser.parse_args(argv)

    failures: List[str] = []
    if "engine" not in args.skip:
        fresh = run_benchmark(scale=SMOKE_SCALE, workers=1, dtype="float32")
        _check("engine", fresh, _load_baseline(args.baseline_dir, "engine"),
               args.min_speedup_fraction, args.max_score_delta, failures)
    if "generated" not in args.skip:
        fresh = run_generated_benchmark(scale=SMOKE_SCALE, dtype="float32",
                                        num_seeds=2)
        _check("generated", fresh,
               _load_baseline(args.baseline_dir, "generated"),
               args.min_speedup_fraction, args.max_score_delta, failures)
    if "serving" not in args.skip:
        fresh = run_serving_benchmark(num_sessions=SMOKE_SERVING_SESSIONS,
                                      dataset_scale=0.03, num_chunks=12,
                                      dtype="float32")
        _check("serving", fresh, _load_baseline(args.baseline_dir, "serving"),
               args.min_speedup_fraction, args.max_score_delta, failures)
        if not fresh["bit_identical"]:
            failures.append("serving: fleet sessions diverged from the "
                            "matched serial reference — the batched harness "
                            "changed results")
        _check_shard_scaling(fresh, failures)
    if "telemetry" not in args.skip:
        _check_telemetry_overhead(args.max_telemetry_overhead, failures)

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
