"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 nadabench/run.py --write-spec`` regenerates it) and of the
metric names every run prints.  It imports nothing from the program.
"""

from __future__ import annotations

import re
from typing import Dict, List

#: The benchmark's own BLAS pin, applied before numpy loads in every workload
#: process and inherited by its pool and remote workers.  Unpinned
#: multi-process runs do not repeat on a multi-core host (see README.md).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_PIN = "BLAS pinned: OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1"

WORKLOADS: List[Dict[str, str]] = [
    {"name": "campaign",
     "why": "paper's evaluation loop: fcc+starlink state designs, Pensieve "
            f"lockstep training, local pool at nproc workers, cold store; "
            f"{_PIN}"},
    {"name": "search",
     "why": "4g network designs: generation, audit, early stopping, "
            "compiled kernels, per-seed A2C, nproc remote TCP workers; "
            f"{_PIN}"},
    {"name": "serve",
     "why": "Fleet.run of the original agent over the fcc+starlink test mix, "
            f"Poisson arrivals: emulation and batched inference only; {_PIN}"},
]

#: (name, unit, better, bound).  Every workload reports every metric.
#: Timing bounds sit at the 0.25 ceiling: on the 2-vCPU host the benchmark
#: was tuned on, a pure-Python loop's speed swings by tens of percent from
#: one second to the next, and the host-speed scale (``HOST_SCALED``) only
#: partly removes it (README.md, "Host speed" and "Steadiness").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("decision_p50_ms", "ms", "lower", 0.25),
    ("decision_p99_ms", "ms", "lower", 0.25),
]

#: (name, unit, better).  Reported by ``--trace 1``; 0 where a layer does
#: not run on the workload.
PER_LAYER = [
    ("generation.s", "s", "lower"),
    ("generation.designs", "count", "higher"),
    ("filters.s", "s", "lower"),
    ("filters.pass_frac", "ratio", "higher"),
    ("filters.audit_rejects", "count", "lower"),
    ("early_stop.s", "s", "lower"),
    ("early_stop.stopped_frac", "ratio", "higher"),
    ("early_stop.epochs_saved", "count", "higher"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.jobs", "count", "lower"),
    ("scheduler.tasks", "count", "lower"),
    ("executor.s", "s", "lower"),
    ("executor.idle_frac", "ratio", "lower"),
    ("executor.imbalance", "ratio", "lower"),
    ("job.cpu_per_wall", "ratio", "lower"),
    ("executor.retries", "count", "lower"),
    ("transport.job_bytes", "B", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.peek_s", "s", "lower"),
    ("store.claim_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("train.seed_epochs", "count", "lower"),
    ("train.epoch_s", "s", "lower"),
    ("eval.checkpoint_s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.step_s", "s", "lower"),
    ("state.rows", "count", "lower"),
    ("state.build_s", "s", "lower"),
    ("infer.pensieve_s", "s", "lower"),
    ("infer.pensieve_calls", "count", "lower"),
    ("update.pensieve_s", "s", "lower"),
    ("infer.compiled_s", "s", "lower"),
    ("update.compiled_s", "s", "lower"),
    ("compile.plan_s", "s", "lower"),
    ("compile.lowered", "count", "higher"),
    ("compile.fallback", "count", "lower"),
    ("optim.step_s", "s", "lower"),
    ("optim.clip_s", "s", "lower"),
    ("fleet.ticks", "count", "lower"),
    ("fleet.mean_batch", "count", "higher"),
    ("fleet.decide_s", "s", "lower"),
    ("player.steps", "count", "lower"),
    ("player.step_s", "s", "lower"),
    ("link.deliver_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
]

RUN_SECONDS = 36

#: ``measure.host_probe_s(cpus)`` at a reference host speed (about the tuning
#: host's, a 2-vCPU Intel Xeon VM).  The timings of the workloads in
#: ``HOST_SCALED`` are reported at this host speed: a repetition's times
#: are multiplied by this over the mean of the probes taken just before and
#: just after it (README.md, "Host speed").
PROBE_REFERENCE_S = 0.016

#: Workloads whose repetitions are short enough (2-3 s) for the probes at
#: their ends to track the host's speed during them, each with the number
#: of CPUs it keeps busy (``None``: all of them), which the probe keeps busy
#: too.  ``search``'s take about 6 s over three processes, busy on all CPUs
#: or on one in turn; scaling them added noise.
HOST_SCALED = {"campaign": None, "serve": 1}

NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RULE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in its canonical key order."""
    return {
        "command": ["python3", "nadabench/run.py"],
        "paths": ["nadabench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
