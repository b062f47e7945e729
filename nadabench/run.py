#!/usr/bin/env python3
"""Benchmark of the NADA loop: ``campaign``, ``search`` and ``serve``.

Run from the repository root::

    python3 nadabench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 nadabench/run.py --all --seed 1        # every workload, fresh processes
    python3 nadabench/run.py --write-spec          # regenerate BENCHMARK.json

A run repeats its workload for ``--seconds`` seconds, checks every
repetition against a serial reference, prints every metric with its unit
and sample count, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of one traced pass).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

# The pin must precede the first numpy import, here and in every worker
# process the program starts (they inherit this environment).
os.environ.update(spec.BLAS_PIN)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".nadabench_work")
WORKLOAD_NAMES = [w["name"] for w in spec.WORKLOADS]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.write_spec):
        parser.error("one of --workload, --all or --write-spec is required")
    return args


def _workload(name: str):
    import workloads
    workers = os.cpu_count() or 1
    if name == "serve":
        return workloads.ServeWorkload(workloads.SERVE)
    shape = workloads.CAMPAIGN if name == "campaign" else workloads.SEARCH
    return workloads.CampaignWorkload(shape, WORKDIR, workers)


def _end_to_end(name: str, reps, peak_mb: float):
    """Every end-to-end metric with its sample count, from the repetitions.

    Timings are each repetition's times multiplied by its ``host_scale``
    (1 for a workload that is not host-scaled).
    """
    import numpy as np
    n = len(reps)

    def scaled(field):
        return [getattr(rep, field) * rep.host_scale for rep in reps]

    wall = scaled("wall_s")
    rates = [rep.decisions / w for rep, w in zip(reps, wall)]
    if name == "serve":
        # Per-decision latency from the fleet's ticks: each repetition's
        # percentile over its ticks, median across repetitions.
        p50 = statistics.median(scaled("latency_p50_s"))
        p99 = statistics.median(scaled("latency_p99_s"))
        latency_n = f"{sum(rep.ticks for rep in reps)} ticks"
    else:
        # Training makes no per-decision measurement outside the program;
        # the sample is each repetition's mean time per decision.
        per_decision = [w / rep.decisions for rep, w in zip(reps, wall)]
        p50 = statistics.median(per_decision)
        p99 = float(np.percentile(per_decision, 99))
        latency_n = f"{n} repetitions"
    reps_n = f"{n} repetitions"
    return {
        "setup_s": (statistics.median(scaled("setup_s")), reps_n),
        "wall_s": (statistics.median(wall), reps_n),
        "cpu_s": (statistics.median(scaled("cpu_s")), reps_n),
        "peak_rss_mb": (peak_mb, "1 run"),
        "decisions_per_s": (statistics.median(rates), reps_n),
        "decision_p50_ms": (p50 * 1e3, latency_n),
        "decision_p99_ms": (p99 * 1e3, latency_n),
    }


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        workload = _workload(args.workload)
        print(f"workload {args.workload}  seed {args.seed}  "
              f"seconds {args.seconds:g}  trace {args.trace}")
        print("host " + json.dumps(measure.host_block(ROOT), sort_keys=True))
        if args.trace:
            metrics, bad, attempted, failed = workload.traced(args.seed)
            print("traced: campaign-level layers on the real backend with "
                  "job.train telemetry for executor metrics; layers inside "
                  "jobs from the same jobs run in-process on one worker"
                  if args.workload != "serve" else
                  "traced: one Fleet.run under the wrappers, between two "
                  "without")
            # A layer the workload never enters reports 0.
            values = {name: (metrics.get(name, 0.0), "1 traced pass")
                      for name, *_ in spec.PER_LAYER}
        else:
            workload.prepare(args.seed)
            reps, bad = [], ()
            scaled = args.workload in spec.HOST_SCALED
            cpus = spec.HOST_SCALED.get(args.workload) or os.cpu_count() or 1
            probes = [measure.host_probe_s(cpus)] if scaled else []
            start = time.perf_counter()
            # Repeat while another repetition of average length still fits
            # in --seconds, so a run's length does not depend on overshoot.
            while (not reps or (time.perf_counter() - start)
                   * (len(reps) + 1) / len(reps) <= args.seconds):
                # Every repetition starts from the same heap: no garbage
                # of the last one, and no outputs kept for the check.
                gc.collect()
                rep = workload.rep(args.seed, len(reps))
                if scaled:
                    probes.append(measure.host_probe_s(cpus))
                    rep.host_scale = (2 * spec.PROBE_REFERENCE_S
                                      / (probes[-2] + probes[-1]))
                bad += workload.verify(args.seed, [rep.output])
                rep.output = None
                reps.append(rep)
            peak = measure.peak_rss_mb()
            attempted = sum(rep.attempted for rep in reps)
            failed = sum(rep.failed for rep in reps)
            values = _end_to_end(args.workload, reps, peak)
            print("repetitions wall_s (as measured): "
                  + " ".join(f"{rep.wall_s:.3f}" for rep in reps))
            if scaled:
                print("repetitions host_scale: "
                      + " ".join(f"{rep.host_scale:.3f}" for rep in reps))
                print(f"host probe on {cpus} CPU(s): median "
                      f"{statistics.median(probes) * 1e3:.2f} ms (reference "
                      f"{spec.PROBE_REFERENCE_S * 1e3:g} ms); timings below "
                      "are at the reference host speed")
            else:
                print("timings below are as measured (not host-scaled)")
            if args.workload == "serve":
                print("serve is a closed simulation on the fleet's virtual "
                      "clock: no real-time generator, so no generator "
                      "lateness applies")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for name, (value, samples) in values.items():
        print(f"  {name:<26} {value:>14.6g} {spec.UNITS[name]:<6} "
              f"(n = {samples})")
    reference = ("the serial reference" if args.workload != "serve"
                 else "Fleet.serial_reference")
    if bad:
        print(f"check FAILED: differs from {reference} at: "
              + ", ".join(sorted(set(bad))))
    else:
        print(f"check ok: every output equals {reference} bit for bit")
    print(f"failed_frac {failed / max(attempted, 1):g} "
          f"({failed} of {attempted} {'sessions' if args.workload == 'serve' else 'jobs'})")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, (value, _) in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one summary line per workload."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
