"""Benchmark scale presets and the end-to-end performance benchmark.

All benchmarks exercise the exact code paths of the paper's experiments, but
at a reduced scale so the whole harness runs on a laptop in minutes rather
than the cluster-months of the original study (3,000 designs x 40,000 epochs
x 5 seeds).  The presets below document the scale used by each benchmark;
raising them toward the published values only changes runtime, not code.

Run this module directly to measure the evaluation engine::

    PYTHONPATH=src python benchmarks/bench_scales.py --json benchmarks/BENCH_baseline.json

Two A/B modes are available.  ``--mode multi-seed`` (committed report:
``benchmarks/BENCH_multiseed.json``) compares one-seed stacks against one
multi-seed stack on the paper's 5-seed protocol — same optimized substrate
and trainer on both sides, only the seed batching differs, and the scores
must agree exactly.  The default ``--mode engine`` scores the
original Pensieve design plus a few generated designs under the §3.1
protocol twice:

* **seed mode** — the seed repository's implementation, installed by
  ``seed_reference_mode()`` from ``tests/reference_engines.py``: the
  per-segment trace walk, one policy forward per chunk through the autograd
  graph, serial checkpoint evaluation, float64, the seed's
  allocation-heavy Conv1D forward and optimizer step, and ``rng.choice``
  action sampling;
* **optimized mode** — the shipped engine: prefix-sum downloads, the folded
  NumPy inference tower, lockstep greedy evaluation, the fused optimizer,
  and the requested dtype/worker count.

Both modes run the same protocol on the same designs, and the report includes
the score agreement so speedups can never silently change results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.analysis import ExperimentScale
from repro.analysis.experiments import build_environment
from repro.core.design import CandidatePool, DesignKind
from repro.core.evaluation import DesignTrainer, TestScoreProtocol
from repro.core.filters import FilterPipeline
from repro.core.generation import DesignGenerator, GenerationConfig
from repro.core.parallel import ParallelConfig
from repro.core.results import ResultStore
from repro.core.scheduler import CampaignScheduler, EvaluationJob, protocol_score
from repro.llm.synthetic import SyntheticLLM

# The reference engines are test oracles; they live with the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from reference_engines import bisect_delivery, seed_reference_mode  # noqa: E402

#: Scale used by the Table 3 benchmark (per environment x profile cell).
TABLE3_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=8,
    max_trained_designs=4,
    seed=0,
)

#: Scale used by the Figure 3 / Figure 4 training-curve benchmarks.
CURVE_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=60,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=10,
    max_trained_designs=5,
    seed=0,
)

#: Scale used by the Table 4 emulation benchmark.
EMULATION_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=1,
    num_designs=6,
    max_trained_designs=3,
    seed=0,
)

#: Scale used by the Table 5 combination benchmark.
COMBINATION_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=10,
    max_trained_designs=5,
    seed=0,
)

#: Scale used to build the Figure 5 early-stopping corpus.
CORPUS_SCALE = ExperimentScale(
    dataset_scale=0.03,
    num_chunks=12,
    train_epochs=24,
    checkpoint_interval=8,
    last_k_checkpoints=2,
    num_seeds=1,
    seed=0,
)

#: Scale used by the ablation benchmarks.
ABLATION_SCALE = ExperimentScale(
    dataset_scale=0.03,
    num_chunks=12,
    train_epochs=30,
    checkpoint_interval=10,
    last_k_checkpoints=2,
    num_seeds=1,
    num_designs=10,
    max_trained_designs=6,
    seed=0,
)

#: Default scale of the evaluation-engine benchmark below.
DEFAULT_BENCH_SCALE = ExperimentScale()

#: Generated designs scored on top of the original in each benchmark mode.
#: Defaults to 0 because generated state functions can spend most of their
#: time inside their own (engine-independent) code — e.g. a Savitzky-Golay
#: filter per observation — which dilutes the engine measurement equally in
#: both modes; the original design isolates the evaluation engine itself.
DEFAULT_BENCH_DESIGNS = 0


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def _bench_designs(scale: ExperimentScale, count: int):
    client = SyntheticLLM("gpt-4", seed=scale.seed)
    generator = DesignGenerator(client, GenerationConfig(base_seed=scale.seed))
    pool = CandidatePool(generator.generate(DesignKind.STATE, max(count * 2, 4)))
    FilterPipeline().apply(pool)
    return pool.surviving_prechecks()[:count]


def run_protocol_workload(scale: ExperimentScale,
                          workers: int = 1,
                          designs: Optional[list] = None,
                          lockstep: bool = False,
                          ) -> Tuple[float, Dict[str, float]]:
    """Score the original design plus the given generated states.

    With ``lockstep`` each design is one job over its whole seed batch
    (trained in lockstep when the design supports it); without it every
    seed is its own singleton job, the per-seed reference.

    Returns (wall-clock seconds, {design label: protocol score}).
    """
    setup = build_environment("fcc", scale)
    config = scale.evaluation_config()
    trainer = DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                            config=config, qoe=setup.qoe)
    protocol = TestScoreProtocol(trainer,
                                 parallel=ParallelConfig(max_workers=workers))
    designs = designs or []
    # Route each design into the slot its kind dictates (state designs pair
    # with the original network and vice versa).
    jobs = [protocol.job(None, None)] + [
        protocol.job(*TestScoreProtocol._design_job(design))
        for design in designs]
    if not lockstep:
        jobs = [replace(job, seeds=(seed,))
                for job in jobs for seed in job.seeds]
    start = time.perf_counter()
    results = protocol.scheduler.run(jobs)
    elapsed = time.perf_counter() - start
    labels = ["original"] + [design.design_id for design in designs]
    width = 1 if lockstep else len(protocol.seeds)
    scores = {label: protocol_score(
                  [run for result in results[index * width:(index + 1) * width]
                   for run in result.runs], config.last_k_checkpoints)
              for index, label in enumerate(labels)}
    return elapsed, scores


def run_benchmark(scale: ExperimentScale = DEFAULT_BENCH_SCALE,
                  workers: int = 1,
                  dtype: str = "float32",
                  num_designs: int = DEFAULT_BENCH_DESIGNS) -> dict:
    """Measure seed mode vs optimized mode; returns the report dict."""
    designs = _bench_designs(scale, num_designs)
    with seed_reference_mode():
        seed_seconds, seed_scores = run_protocol_workload(
            scale, workers=1, designs=designs)

    previous_dtype = nn.set_default_dtype(dtype)
    try:
        optimized_seconds, optimized_scores = run_protocol_workload(
            scale, workers=workers, designs=designs)
    finally:
        nn.set_default_dtype(previous_dtype)

    score_delta = max(abs(seed_scores[k] - optimized_scores[k])
                      for k in seed_scores)
    return {
        "workload": {
            "environment": "fcc",
            "train_epochs": scale.train_epochs,
            "checkpoint_interval": scale.checkpoint_interval,
            "num_seeds": scale.num_seeds,
            "num_chunks": scale.num_chunks,
            "dataset_scale": scale.dataset_scale,
            "designs_scored": num_designs + 1,
        },
        "seed_mode": {"seconds": round(seed_seconds, 3), "scores": seed_scores},
        "optimized_mode": {"seconds": round(optimized_seconds, 3),
                           "scores": optimized_scores,
                           "dtype": dtype, "workers": workers},
        "speedup": round(seed_seconds / optimized_seconds, 2),
        "max_score_delta": score_delta,
        "cpu_count": os.cpu_count(),
    }


def run_multi_seed_benchmark(scale: Optional[ExperimentScale] = None,
                             dtype: str = "float32",
                             num_seeds: int = 5,
                             num_designs: int = DEFAULT_BENCH_DESIGNS) -> dict:
    """A/B one-seed stacks against one multi-seed stack.

    Both modes run the full optimized substrate (prefix-sum downloads, folded
    inference, lockstep checkpoint evaluation) and the same compiled trainer,
    :class:`~repro.rl.a2c.MultiSeedA2CTrainer`; the only difference is the
    batching: per-seed mode trains ``num_seeds`` one-seed stacks (one
    singleton job per seed) one after another, lockstep mode one stack
    advancing every seed through stacked-weight batched updates.  A seed's
    record does not depend on its stack, so the report's
    ``max_score_delta`` is expected to be exactly 0.0.
    """
    scale = replace(scale or DEFAULT_BENCH_SCALE, num_seeds=num_seeds)
    designs = _bench_designs(scale, num_designs)
    previous_dtype = nn.set_default_dtype(dtype)
    try:
        per_seed_seconds, per_seed_scores = run_protocol_workload(
            scale, workers=1, designs=designs, lockstep=False)
        lockstep_seconds, lockstep_scores = run_protocol_workload(
            scale, workers=1, designs=designs, lockstep=True)
    finally:
        nn.set_default_dtype(previous_dtype)

    score_delta = max(abs(per_seed_scores[k] - lockstep_scores[k])
                      for k in per_seed_scores)
    return {
        "workload": {
            "environment": "fcc",
            "train_epochs": scale.train_epochs,
            "checkpoint_interval": scale.checkpoint_interval,
            "num_seeds": scale.num_seeds,
            "num_chunks": scale.num_chunks,
            "dataset_scale": scale.dataset_scale,
            "designs_scored": num_designs + 1,
            "dtype": dtype,
        },
        "per_seed_mode": {"seconds": round(per_seed_seconds, 3),
                          "scores": per_seed_scores},
        "lockstep_mode": {"seconds": round(lockstep_seconds, 3),
                          "scores": lockstep_scores},
        "speedup": round(per_seed_seconds / lockstep_seconds, 2),
        "max_score_delta": score_delta,
        "cpu_count": os.cpu_count(),
    }


#: Generated-architecture specs scored by ``--mode generated``: one per
#: design-space encoder family that previously fell back to per-seed
#: autograd-graph training (everything except ``pensieve_conv``).
GENERATED_BENCH_SPECS = (
    {"encoder": "flatten", "hidden_size": 128, "activation": "relu"},
    {"encoder": "conv", "hidden_size": 64, "activation": "leaky_relu"},
    {"encoder": "gru", "hidden_size": 64, "activation": "relu"},
    {"encoder": "lstm", "hidden_size": 64, "activation": "relu",
     "share_trunk": True},
)


def _generated_designs(count: int):
    """Deterministic generated NETWORK designs across encoder families."""
    from repro.core.design import Design
    from repro.llm.design_space import NetworkDesignSpec, NetworkDesignSpace

    space = NetworkDesignSpace()
    designs = []
    for index, kwargs in enumerate(GENERATED_BENCH_SPECS[:count]):
        spec = NetworkDesignSpec(**kwargs)
        designs.append(Design(design_id=f"gen-{kwargs['encoder']}-{index}",
                              kind=DesignKind.NETWORK,
                              code=space.render(spec)))
    return designs


def run_generated_benchmark(scale: Optional[ExperimentScale] = None,
                            dtype: str = "float32",
                            num_seeds: int = 3,
                            num_designs: int = len(GENERATED_BENCH_SPECS),
                            workers: int = 1) -> dict:
    """A/B the graph fallback against compiled lockstep on generated designs.

    The workload scores LLM-style generated *network* designs (non-Pensieve
    encoders: dense, conv, gru, lstm) under the §3.1 protocol twice:

    * **graph mode** — the pre-compiler path: compilation off, so
      every generated design trains per seed through the autograd graph
      (exactly what the repository executed before the kernel compiler);
    * **compiled mode** — the kernel compiler lowers each design onto the
      fused engines and the whole seed batch trains in lockstep.

    The compiled kernels mirror the graph operation for operation, so trace
    choices and actions are identical and ``max_score_delta`` is expected
    to be exactly 0.0.
    """
    scale = replace(scale or DEFAULT_BENCH_SCALE, num_seeds=num_seeds)
    designs = _generated_designs(num_designs)
    engine = nn.EngineConfig(dtype=dtype)
    with nn.engine.using(replace(engine, compile=False)):
        graph_seconds, graph_scores = run_protocol_workload(
            scale, workers=workers, designs=designs, lockstep=True)
    with nn.engine.using(engine):
        compiled_seconds, compiled_scores = run_protocol_workload(
            scale, workers=workers, designs=designs, lockstep=True)

    score_delta = max(abs(graph_scores[k] - compiled_scores[k])
                      for k in graph_scores)
    return {
        "workload": {
            "environment": "fcc",
            "train_epochs": scale.train_epochs,
            "checkpoint_interval": scale.checkpoint_interval,
            "num_seeds": scale.num_seeds,
            "num_chunks": scale.num_chunks,
            "dataset_scale": scale.dataset_scale,
            "designs_scored": num_designs + 1,
            "encoders": [spec["encoder"]
                         for spec in GENERATED_BENCH_SPECS[:num_designs]],
            "dtype": dtype,
            "workers": workers,
        },
        "graph_mode": {"seconds": round(graph_seconds, 3),
                       "scores": graph_scores},
        "compiled_mode": {"seconds": round(compiled_seconds, 3),
                          "scores": compiled_scores},
        "speedup": round(graph_seconds / compiled_seconds, 2),
        "max_score_delta": score_delta,
        "cpu_count": os.cpu_count(),
    }


def _campaign_workload(scale: ExperimentScale, environments: Sequence[str],
                       designs: Sequence):
    """Build the cross-environment job list for the campaign benchmark.

    Returns ``(jobs, labels)`` where each label identifies one
    (environment, design) cell; ``jobs`` carries one job per cell covering
    the full seed batch.
    """
    config = scale.evaluation_config()
    seeds = tuple(range(scale.num_seeds))
    jobs: List[EvaluationJob] = []
    labels: List[str] = []
    for environment in environments:
        setup = build_environment(environment, scale)
        trainer = DesignTrainer(setup.video, setup.train_traces,
                                setup.test_traces, config=config, qoe=setup.qoe)
        for index, design in enumerate([None] + list(designs)):
            jobs.append(EvaluationJob(
                trainer=trainer, state_design=design, network_design=None,
                seeds=seeds, environment=environment))
            labels.append(f"{environment}/"
                          f"{'original' if design is None else f'design-{index}'}")
    return jobs, labels


def run_campaign_benchmark(scale: Optional[ExperimentScale] = None,
                           dtype: str = "float32",
                           workers: int = 1,
                           environments: Sequence[str] = ("fcc", "starlink"),
                           num_designs: int = 2,
                           num_seeds: int = 3) -> dict:
    """A/B the campaign scheduler against the flat per-seed fan-out shape.

    Three passes over the same multi-environment workload:

    * **flat mode** — the pre-scheduler execution shape: one work item per
      (design, seed), each a singleton seed batch trained per seed, i.e.
      what the old ``run_many``-style flat fan-out executed;
    * **campaign mode** — the scheduler's native shape: one job per design
      covering the whole seed batch, trained in lockstep inside the worker,
      writing a cold result store;
    * **replay mode** — campaign mode again on the warm store, measuring
      the resume/skip path.

    Scores must agree exactly across all three (``max_score_delta`` /
    ``replay_score_delta`` are expected to be 0.0).
    """
    scale = replace(scale or DEFAULT_BENCH_SCALE, num_seeds=num_seeds)
    designs = _bench_designs(scale, num_designs)
    previous_dtype = nn.set_default_dtype(dtype)
    try:
        # Flat per-seed shape: singleton seed batches, per-seed training.
        flat_jobs = []
        base_jobs, labels = _campaign_workload(scale, environments, designs)
        for job in base_jobs:
            flat_jobs.extend(replace(job, seeds=(seed,)) for seed in job.seeds)
        flat_scheduler = CampaignScheduler(ParallelConfig(max_workers=workers))
        start = time.perf_counter()
        flat_results = flat_scheduler.run(flat_jobs)
        flat_seconds = time.perf_counter() - start
        flat_scores = {}
        last_k = scale.last_k_checkpoints
        for index, label in enumerate(labels):
            chunk = flat_results[index * num_seeds:(index + 1) * num_seeds]
            runs = [run for result in chunk for run in result.runs]
            flat_scores[label] = protocol_score(runs, last_k)

        # Campaign shape: one lockstep job per design, cold store.
        campaign_jobs, labels = _campaign_workload(scale, environments,
                                                   designs)
        with tempfile.TemporaryDirectory(prefix="bench-campaign-") as root:
            store = ResultStore(root)
            scheduler = CampaignScheduler(ParallelConfig(max_workers=workers),
                                          store=store)
            start = time.perf_counter()
            campaign_results = scheduler.run(campaign_jobs)
            campaign_seconds = time.perf_counter() - start

            start = time.perf_counter()
            replay_results = scheduler.run(campaign_jobs)
            replay_seconds = time.perf_counter() - start
            store_stats = store.statistics()
    finally:
        nn.set_default_dtype(previous_dtype)

    campaign_scores = {label: result.score
                       for label, result in zip(labels, campaign_results)}
    replay_scores = {label: result.score
                     for label, result in zip(labels, replay_results)}
    score_delta = max(abs(flat_scores[k] - campaign_scores[k])
                      for k in flat_scores)
    replay_delta = max(abs(replay_scores[k] - campaign_scores[k])
                       for k in campaign_scores)
    return {
        "workload": {
            "environments": list(environments),
            "train_epochs": scale.train_epochs,
            "checkpoint_interval": scale.checkpoint_interval,
            "num_seeds": num_seeds,
            "num_chunks": scale.num_chunks,
            "dataset_scale": scale.dataset_scale,
            "designs_scored_per_environment": num_designs + 1,
            "dtype": dtype,
            "workers": workers,
        },
        "flat_mode": {"seconds": round(flat_seconds, 3),
                      "scores": flat_scores},
        "campaign_mode": {"seconds": round(campaign_seconds, 3),
                          "scores": campaign_scores},
        "replay_mode": {"seconds": round(replay_seconds, 3),
                        "cached_jobs": sum(r.cached for r in replay_results)},
        "speedup": round(flat_seconds / campaign_seconds, 2),
        "replay_speedup": round(campaign_seconds / max(replay_seconds, 1e-9), 1),
        "max_score_delta": score_delta,
        "replay_score_delta": replay_delta,
        "store": store_stats,
        "cpu_count": os.cpu_count(),
    }


#: Scale used by the committed serving benchmark (``BENCH_serving.json``).
SERVING_SESSIONS = 256

#: Alternating 1-shard / sharded fleet passes of the serving benchmark.
FLEET_REPEATS = 15

#: A fleet pass had its cores when every shard spent at least this share
#: of its wall time on a CPU (``ServingMetrics.shard_cpu_share``).  A pass
#: below it shared a CPU with other load, so its pair cannot show what
#: sharding gains.
CORES_THERE = 0.75

#: With fewer pairs whose both passes had their cores, ``shard_speedup`` is
#: unresolved (None).
MIN_RESOLVED_PAIRS = 5


def shard_summary(report: dict) -> str:
    """One line on the sharding A/B of a serving report."""
    if report["shards"] < 2:
        return "1 usable CPU; the default fleet runs in one process"
    pairs = (f"{report['shard_pairs_resolved']} of {FLEET_REPEATS} pairs "
             f"had their cores")
    if report["shard_speedup"] is None:
        return f"unresolved ({pairs})"
    return (f"{report['shard_speedup']:.2f}x, 1-shard fleet -> "
            f"{report['shards']} shards ({pairs})")


def _session_signature(result) -> list:
    """Bitwise comparison key of one emulated session."""
    return [(r.chunk_index, r.bitrate_index, r.reward, r.download_time_s,
             r.rebuffer_s, r.buffer_s) for r in result.records]


def run_serving_benchmark(num_sessions: int = SERVING_SESSIONS,
                          dataset_scale: float = 0.04,
                          num_chunks: int = 14,
                          seed: int = 0,
                          dtype: str = "float32",
                          environments: Sequence[str] = ("fcc", "starlink"),
                          batch_window_s: float = 0.25) -> dict:
    """A/B the batched fleet harness against the per-session serial loop.

    Four passes stream the same ``num_sessions`` sessions (a mixed trace
    set, sessions assigned round-robin) with the same fresh original agent:

    * **serial reference** — the pre-fleet serving path exactly as the seed
      shipped it: the bisect round loop (``bisect_delivery()`` from
      ``tests/reference_engines.py``) and one per-observation Python
      forward per decision, sessions back to back;
    * **serial matched** — the same per-observation loop on the shipped
      prefix inversion (isolates the link-inversion win from the batching
      win);
    * **1-shard fleet** — the event-driven fleet in one process
      (``FleetConfig.workers=1``): prefix inversion, every decision tick
      answered by ONE batched policy forward;
    * **fleet** — the same fleet split over one shard process per usable
      CPU (the default ``workers=None``).

    The headline ``speedup`` compares the 1-shard fleet against the serial
    reference and ``batched_only_speedup`` compares it against serial
    matched, so both stay like for like on any core count;
    ``shard_speedup`` is the 1-shard fleet over the sharded one.  The two
    fleet passes alternate ``FLEET_REPEATS`` times; each reports its median
    seconds and, per repeat, its ``shard_cpu_share``.  A pair is
    *resolved* when both passes had their cores (that share >=
    ``CORES_THERE``); ``shard_speedup`` is the median of the resolved
    pairs' ratios, and None ("unresolved") with fewer than
    ``MIN_RESOLVED_PAIRS`` of them or with one shard.  Both fleets must be **bit-identical, session for
    session, to the matched serial pass** (same engine ⇒ same bits; the
    report refuses to claim a speedup otherwise), while the cross-engine
    comparison is held to a score tolerance because prefix/bisect
    inversions agree to ~1e-14 seconds, not bitwise.
    """
    from repro.core.evaluation import instantiate_agent
    from repro.emulation import Fleet, FleetConfig

    scale = replace(DEFAULT_BENCH_SCALE, dataset_scale=dataset_scale,
                    num_chunks=num_chunks, seed=seed)
    setups = [build_environment(env, scale) for env in environments]
    video = setups[0].video
    traces = [trace for setup in setups for trace in setup.test_traces]

    previous_dtype = nn.set_default_dtype(dtype)
    try:
        agent = instantiate_agent(None, None, video, setups[0].train_traces,
                                  seed=seed)

        def fleet_for(workers: Optional[int] = None) -> Fleet:
            return Fleet(video, traces, config=FleetConfig(
                arrival_process="poisson", batch_window_s=batch_window_s,
                workers=workers))

        fast_fleet = fleet_for()
        start = time.perf_counter()
        with bisect_delivery():
            reference = fast_fleet.serial_reference(agent, num_sessions)
        reference_s = time.perf_counter() - start

        start = time.perf_counter()
        matched = fast_fleet.serial_reference(agent, num_sessions)
        matched_s = time.perf_counter() - start

        one_shard_fleet = fleet_for(workers=1)
        one_shard_times, one_shard_busy, fleet_times, fleet_busy = [], [], [], []
        for _ in range(FLEET_REPEATS):
            start = time.perf_counter()
            one_shard_result = one_shard_fleet.run(agent, num_sessions)
            one_shard_times.append(time.perf_counter() - start)
            one_shard_busy.append(one_shard_result.metrics.shard_cpu_share)
            start = time.perf_counter()
            fleet_result = fast_fleet.run(agent, num_sessions)
            fleet_times.append(time.perf_counter() - start)
            fleet_busy.append(fleet_result.metrics.shard_cpu_share)
        one_shard_s = statistics.median(one_shard_times)
        fleet_s = statistics.median(fleet_times)
    finally:
        nn.set_default_dtype(previous_dtype)

    resolved = [one / sharded for one, sharded, *busy
                in zip(one_shard_times, fleet_times, one_shard_busy,
                       fleet_busy)
                if min(busy) >= CORES_THERE]
    shard_speedup = (round(statistics.median(resolved), 2)
                     if fleet_result.metrics.shards > 1
                     and len(resolved) >= MIN_RESOLVED_PAIRS else None)

    bit_identical = all(
        _session_signature(a) == _session_signature(b)
        == _session_signature(c)
        for a, b, c in zip(fleet_result.sessions, one_shard_result.sessions,
                           matched))
    cross_engine_delta = max(
        abs(a.mean_reward - b.mean_reward)
        for a, b in zip(fleet_result.sessions, reference))
    decisions = sum(len(s.records) for s in fleet_result.sessions)
    metrics = fleet_result.metrics
    return {
        "workload": {
            "environments": list(environments),
            "traces": len(traces),
            "num_sessions": num_sessions,
            "num_chunks": num_chunks,
            "dataset_scale": dataset_scale,
            "decisions": decisions,
            "batch_window_s": batch_window_s,
            "dtype": dtype,
        },
        "serial_reference_mode": {
            "seconds": round(reference_s, 3),
            "decisions_per_s": round(decisions / reference_s, 1),
            "delivery_engine": "bisect",
        },
        "serial_matched_mode": {
            "seconds": round(matched_s, 3),
            "decisions_per_s": round(decisions / matched_s, 1),
            "delivery_engine": "prefix",
        },
        "fleet_1shard_mode": {
            "seconds": round(one_shard_s, 3),
            "seconds_per_repeat": [round(t, 3) for t in one_shard_times],
            "shard_cpu_share": [round(b, 2) for b in one_shard_busy],
            "delivery_engine": "prefix",
            "metrics": one_shard_result.metrics.to_dict(),
        },
        "fleet_mode": {
            "seconds": round(fleet_s, 3),
            "seconds_per_repeat": [round(t, 3) for t in fleet_times],
            "shard_cpu_share": [round(b, 2) for b in fleet_busy],
            "delivery_engine": "prefix",
            "metrics": metrics.to_dict(),
        },
        "shards": metrics.shards,
        "speedup": round(reference_s / one_shard_s, 2),
        "batched_only_speedup": round(matched_s / one_shard_s, 2),
        "shard_speedup": shard_speedup,
        "shard_pairs_resolved": len(resolved),
        "bit_identical": bit_identical,
        "max_score_delta": 0.0 if bit_identical else float("inf"),
        "cross_engine_score_delta": cross_engine_delta,
        "mean_qoe_per_chunk": fleet_result.mean_reward,
        "cpu_count": os.cpu_count(),
    }


def _git_sha() -> Optional[str]:
    import subprocess
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def host_metadata() -> dict:
    """Machine context embedded in JSON reports so committed ``BENCH_*.json``
    files are comparable across machines.  ``bench_regression.py`` ignores
    this block — only ratios are gated, never absolute times."""
    import platform
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_dtype": str(nn.get_default_dtype()),
        "git_sha": _git_sha(),
    }


def _write_json(report: dict, path: str) -> None:
    report = dict(report)
    report["host"] = host_metadata()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written: {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the design-evaluation engine")
    parser.add_argument("--mode",
                        choices=["engine", "multi-seed", "campaign",
                                 "generated", "serving"],
                        default="engine",
                        help="engine: seed implementation vs optimized engine "
                             "(default); multi-seed: one-seed stacks vs "
                             "one multi-seed stack; "
                             "campaign: flat per-seed fan-out vs the campaign "
                             "scheduler (lockstep jobs + result-store replay) "
                             "on a multi-environment workload; generated: "
                             "autograd-graph fallback vs compiled lockstep "
                             "on a generated-architecture campaign; serving: "
                             "per-session serial emulation vs the batched "
                             "fleet harness on a concurrent-session workload")
    parser.add_argument("--sessions", type=int, default=SERVING_SESSIONS,
                        help="concurrent sessions in --mode serving")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON (e.g. benchmarks/BENCH_baseline.json)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the optimized mode")
    parser.add_argument("--dtype", choices=["float32", "float64"],
                        default="float32", help="optimized-mode tensor dtype")
    parser.add_argument("--designs", type=int, default=DEFAULT_BENCH_DESIGNS,
                        help="generated designs scored on top of the original")
    parser.add_argument("--num-seeds", type=int, default=5,
                        help="training seeds per design in --mode multi-seed "
                             "and --mode campaign (the paper's protocol "
                             "uses 5)")
    args = parser.parse_args(argv)

    if args.mode == "generated":
        report = run_generated_benchmark(
            dtype=args.dtype, num_seeds=args.num_seeds,
            # --designs defaults to 0 (engine-isolation for the other
            # modes); generated mode defaults to the full spec family.
            num_designs=(args.designs if args.designs > 0
                         else len(GENERATED_BENCH_SPECS)),
            workers=args.workers)
        workload = report["workload"]
        print(f"workload      : original + {workload['designs_scored'] - 1} "
              f"generated designs ({', '.join(workload['encoders'])}), "
              f"{workload['num_seeds']} seeds x "
              f"{workload['train_epochs']} epochs (fcc, {workload['dtype']}, "
              f"workers={workload['workers']})")
        print(f"graph mode    : {report['graph_mode']['seconds']:8.3f} s  "
              "(--no-compile: per-seed autograd-graph training)")
        print(f"compiled mode : {report['compiled_mode']['seconds']:8.3f} s  "
              "(fused kernels, multi-seed lockstep)")
        print(f"speedup       : {report['speedup']:8.2f} x")
        print(f"score delta   : {report['max_score_delta']:8.2e} "
              "(max |graph - compiled|)")
        if args.json:
            _write_json(report, args.json)
        return 0

    if args.mode == "serving":
        report = run_serving_benchmark(num_sessions=args.sessions,
                                       dtype=args.dtype)
        workload = report["workload"]
        metrics = report["fleet_mode"]["metrics"]
        print(f"workload      : {workload['num_sessions']} sessions x "
              f"{workload['num_chunks']} chunks over {workload['traces']} "
              f"traces ({', '.join(workload['environments'])}, "
              f"{workload['dtype']})")
        print(f"serial ref    : {report['serial_reference_mode']['seconds']:8.3f} s  "
              f"({report['serial_reference_mode']['decisions_per_s']:,.0f} "
              "dec/s; bisect inversion, per-observation forwards)")
        print(f"serial matched: {report['serial_matched_mode']['seconds']:8.3f} s  "
              f"({report['serial_matched_mode']['decisions_per_s']:,.0f} "
              "dec/s; prefix inversion, per-observation forwards)")
        one_shard = report["fleet_1shard_mode"]
        print(f"1-shard fleet : {one_shard['seconds']:8.3f} s  "
              f"({one_shard['metrics']['decisions_per_s']:,.0f} dec/s, mean "
              f"batch {one_shard['metrics']['mean_batch_size']:.1f}, p99 "
              f"latency "
              f"{one_shard['metrics']['p99_decision_latency_s'] * 1e3:.2f} ms)")
        print(f"fleet mode    : {report['fleet_mode']['seconds']:8.3f} s  "
              f"({metrics['decisions_per_s']:,.0f} dec/s over "
              f"{report['shards']} shard(s), mean batch "
              f"{metrics['mean_batch_size']:.1f}, p99 latency "
              f"{metrics['p99_decision_latency_s'] * 1e3:.2f} ms)")
        print(f"speedup       : {report['speedup']:8.2f} x  "
              "(serial ref -> 1-shard fleet)")
        print(f"batching only : {report['batched_only_speedup']:8.2f} x  "
              "(serial matched -> 1-shard fleet)")
        print(f"sharding      : {shard_summary(report)}")
        print(f"bit identical : {report['bit_identical']}  "
              "(both fleets vs matched serial, session for session)")
        print(f"score delta   : {report['cross_engine_score_delta']:8.2e} "
              "(max |bisect - prefix| per session)")
        if args.json:
            _write_json(report, args.json)
        return 0 if report["bit_identical"] else 1

    if args.mode == "campaign":
        report = run_campaign_benchmark(dtype=args.dtype,
                                        workers=args.workers,
                                        num_designs=max(args.designs, 2),
                                        num_seeds=args.num_seeds)
        workload = report["workload"]
        cells = (len(workload["environments"])
                 * workload["designs_scored_per_environment"])
        print(f"workload      : {cells} (environment x design) cells over "
              f"{', '.join(workload['environments'])}, "
              f"{workload['num_seeds']} seeds x "
              f"{workload['train_epochs']} epochs ({workload['dtype']}, "
              f"workers={workload['workers']})")
        print(f"flat mode     : {report['flat_mode']['seconds']:8.3f} s  "
              "(one work item per (design, seed), per-seed training)")
        print(f"campaign mode : {report['campaign_mode']['seconds']:8.3f} s  "
              "(one lockstep job per design, cold result store)")
        print(f"replay mode   : {report['replay_mode']['seconds']:8.3f} s  "
              f"({report['replay_mode']['cached_jobs']} jobs served from the "
              "store)")
        print(f"speedup       : {report['speedup']:8.2f} x  (flat -> campaign)")
        print(f"replay speedup: {report['replay_speedup']:8.1f} x  "
              "(campaign -> warm store)")
        print(f"score delta   : {report['max_score_delta']:8.2e} "
              "(max |flat - campaign|)")
        if args.json:
            _write_json(report, args.json)
        return 0

    if args.mode == "multi-seed":
        report = run_multi_seed_benchmark(dtype=args.dtype,
                                          num_seeds=args.num_seeds,
                                          num_designs=args.designs)
        per_seed = report["per_seed_mode"]
        lockstep = report["lockstep_mode"]
        print(f"workload      : original + {args.designs} designs, "
              f"{report['workload']['num_seeds']} seeds x "
              f"{report['workload']['train_epochs']} epochs (fcc, "
              f"{report['workload']['dtype']})")
        print(f"per-seed mode : {per_seed['seconds']:8.3f} s  "
              "(one one-seed stack per seed)")
        print(f"lockstep mode : {lockstep['seconds']:8.3f} s  "
              "(stacked per-seed weights, batched fused updates)")
        print(f"speedup       : {report['speedup']:8.2f} x")
        print(f"score delta   : {report['max_score_delta']:8.2e} "
              "(max |per-seed - lockstep|)")
        if args.json:
            _write_json(report, args.json)
        return 0

    report = run_benchmark(workers=args.workers, dtype=args.dtype,
                           num_designs=args.designs)
    seed_mode = report["seed_mode"]
    optimized = report["optimized_mode"]
    print(f"workload      : original + {args.designs} designs, "
          f"{report['workload']['num_seeds']} seeds x "
          f"{report['workload']['train_epochs']} epochs (fcc)")
    print(f"seed mode     : {seed_mode['seconds']:8.3f} s  (segment walk, serial eval, "
          "graph forward, float64)")
    print(f"optimized mode: {optimized['seconds']:8.3f} s  (prefix sum, batched eval, "
          f"folded forward, {optimized['dtype']}, workers={optimized['workers']})")
    print(f"speedup       : {report['speedup']:8.2f} x")
    print(f"score delta   : {report['max_score_delta']:8.2e} (max |seed - optimized|)")
    if args.json:
        _write_json(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
