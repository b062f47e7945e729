"""The benchmark's workloads: set-up, the timed call and the output checks.

The program is driven only through its public entry points —
``NadaCampaign``/``NadaPipeline``, ``CampaignScheduler``, ``ResultStore``,
``RemoteExecutor`` and ``Fleet`` — with inputs generated from the seed.

One *repetition* builds everything from scratch (that is ``setup_s``) and
then makes the timed call (``wall_s``): ``NadaCampaign.run()`` on a cold,
empty store, or ``Fleet.run``.  Every repetition is checked bit for bit
against a serial reference built once per run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.abr.video import synthetic_video
from repro.core import telemetry
from repro.core.design import DesignStatus
from repro.core.distributed import RemoteConfig, RemoteExecutor
from repro.core.early_stopping import EarlyStoppingConfig
from repro.core.evaluation import EvaluationConfig, instantiate_agent
from repro.core.parallel import ParallelConfig
from repro.core.pipeline import CampaignResult, NadaCampaign, NadaConfig, NadaPipeline
from repro.core.results import ResultStore
from repro.core.scheduler import CampaignScheduler
from repro.emulation import Fleet, FleetConfig
from repro.rl.a2c import A2CConfig
from repro.traces.registry import ENVIRONMENTS, build_dataset

from measure import measured
from tracing import (CAMPAIGN_TARGETS, ENGINE_TARGETS, JOB_TARGETS,
                     SERVE_TARGETS, Tracer)


@dataclass(frozen=True)
class CampaignShape:
    """Sizes of one campaign-style workload."""

    environments: Tuple[str, ...]
    target: str
    num_designs: int
    num_seeds: int
    train_epochs: int
    checkpoint_interval: int
    early_stopping: bool
    remote: bool
    dataset_scale: float = 0.03
    num_chunks: int = 16
    #: Seed of design generation (and of the bootstrap split).  Fixed, so
    #: every benchmark seed trains the same design mix and runs stay
    #: comparable across seeds; the benchmark seed drives traces and video.
    design_seed: int = 0

    def config(self, workers: int) -> NadaConfig:
        epochs, interval = self.train_epochs, self.checkpoint_interval
        return NadaConfig(
            target=self.target,
            num_designs=self.num_designs,
            evaluation=EvaluationConfig(
                train_epochs=epochs,
                checkpoint_interval=interval,
                last_k_checkpoints=max(1, min(10, epochs // interval)),
                num_seeds=self.num_seeds,
                a2c=A2CConfig(entropy_anneal_epochs=max(epochs // 2, 1))),
            use_early_stopping=self.early_stopping,
            seed=self.design_seed,
            workers=workers)


@dataclass(frozen=True)
class ServeShape:
    """Sizes of the serving workload."""

    environments: Tuple[str, ...] = ("fcc", "starlink")
    #: About 2 s a repetition, so a run holds 10-15 of them; each spreads
    #: its 3,072 decisions over about 900 ticks, a run over about 11,000.
    sessions: int = 96
    num_chunks: int = 32
    #: Sessions per second of virtual time.
    arrival_rate_per_s: float = 1.5
    #: 58 fcc + 2 starlink test traces, so no single trace dominates.
    dataset_scale: float = 0.2


CAMPAIGN = CampaignShape(("fcc", "starlink"), "state", num_designs=3,
                         num_seeds=5, train_epochs=4, checkpoint_interval=4,
                         early_stopping=False, remote=False)
SEARCH = CampaignShape(("4g",), "network", num_designs=12, num_seeds=3,
                       train_epochs=16, checkpoint_interval=4,
                       early_stopping=True, remote=True, num_chunks=12)
SERVE = ServeShape()


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    wall_s: float
    cpu_s: float
    decisions: int
    attempted: int
    failed: int
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    ticks: int = 0
    #: Reference host speed over the host speed during this repetition;
    #: its timings times this are the reported ones.
    host_scale: float = 1.0
    #: What the bit-for-bit check compares against the serial reference.
    output: Any = None


# --------------------------------------------------------------------------- #
# Campaign-style workloads (campaign, search).
# --------------------------------------------------------------------------- #
class CampaignRig:
    """A campaign built from scratch on a fresh, empty store."""

    def __init__(self, shape: CampaignShape, seed: int, workers: int,
                 store_dir: str, remote: bool) -> None:
        self.shape = shape
        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        self.store = ResultStore(store_dir)
        self.executor: Optional[RemoteExecutor] = None
        if remote:
            # Fail rather than degrade: a local fallback would measure the
            # wrong executor.
            self.executor = RemoteExecutor(RemoteConfig(fallback="fail"))
            self.executor.launch_workers(workers)
            if not self.executor.wait_for_workers(workers, timeout=60.0):
                self.close()
                raise RuntimeError("remote workers did not connect")
        config = shape.config(workers)
        self.scheduler = CampaignScheduler(
            parallel=ParallelConfig(max_workers=workers,
                                    max_retries=config.max_retries),
            store=self.store, executor=self.executor)
        pipelines = {
            env: NadaPipeline.for_environment(
                env, config=config, dataset_scale=shape.dataset_scale,
                num_chunks=shape.num_chunks, seed=seed,
                scheduler=self.scheduler)
            for env in shape.environments}
        self.campaign = NadaCampaign(pipelines, scheduler=self.scheduler)
        self.num_test = {env: len(p.test_traces)
                         for env, p in pipelines.items()}

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def store_bytes(self) -> int:
        total = 0
        for folder, _, files in os.walk(self.store_dir):
            total += sum(os.path.getsize(os.path.join(folder, name))
                         for name in files if name.endswith(".json"))
        return total


def campaign_signature(result: CampaignResult) -> Dict[str, tuple]:
    """Per-design outcome, bit for bit: status, score and stopped seeds.

    Designs are keyed by pool position and code digest: the numeric part of
    a design id comes from a process-wide counter, so it differs between
    two campaigns in one process.
    """
    signature: Dict[str, tuple] = {}
    for env, res in result.results.items():
        signature[f"{env}/original"] = ("score", float(res.original_score).hex())
        for position, design in enumerate(res.pool):
            digest = hashlib.sha1(design.code.encode("utf-8")).hexdigest()[:8]
            score = design.test_score
            signature[f"{env}/{position}:{design.kind.value}-{digest}"] = (
                design.status.value,
                None if score is None else float(score).hex(),
                design.metadata.get("early_stopped_seeds"))
    return signature


def mismatches(got: Dict[str, tuple], expected: Dict[str, tuple]) -> Tuple[str, ...]:
    keys = sorted(set(got) | set(expected))
    return tuple(key for key in keys if got.get(key) != expected.get(key))


def _trained(res) -> List:
    return [d for d in res.pool
            if d.status in (DesignStatus.EVALUATED, DesignStatus.EARLY_STOPPED,
                            DesignStatus.FAILED)]


def campaign_decisions(shape: CampaignShape, rig: CampaignRig,
                       result: CampaignResult) -> int:
    """ABR decisions the campaign simulated: training episodes + checkpoints.

    A seed trained to the end makes ``epochs`` episodes and
    ``epochs // interval`` checkpoint evaluations over every test trace;
    a seed stopped early stops at the classifier's check epoch, before that
    epoch's checkpoint.  Every episode is ``num_chunks`` decisions.
    """
    epochs, interval = shape.train_epochs, shape.checkpoint_interval
    check = EarlyStoppingConfig().reward_prefix_length
    chunks = shape.num_chunks
    total = 0
    for env, res in result.results.items():
        tests = rig.num_test[env]
        full = epochs * chunks + (epochs // interval) * tests * chunks
        stopped = check * chunks + ((check - 1) // interval) * tests * chunks
        total += shape.num_seeds * full  # the original design's reference
        for design in _trained(res):
            seeds = design.metadata.get("num_seeds", 0)
            early = design.metadata.get("early_stopped_seeds", 0)
            total += (seeds - early) * full + early * stopped
    return total


def campaign_jobs(result: CampaignResult) -> int:
    """Jobs submitted: each environment's reference plus its trained designs."""
    return sum(1 + len(_trained(res)) for res in result.results.values())


class CampaignWorkload:
    def __init__(self, shape: CampaignShape, workdir: str, workers: int) -> None:
        self.shape = shape
        self.workdir = workdir
        self.workers = workers
        self.reference: Optional[Dict[str, tuple]] = None

    def _rig(self, seed: int, name: str, workers: int,
             remote: bool) -> CampaignRig:
        return CampaignRig(self.shape, seed, workers,
                           os.path.join(self.workdir, name), remote)

    def serial_reference(self, seed: int) -> Tuple[Dict[str, tuple], float]:
        """The serial, one-worker, in-process run: signature and wall time."""
        rig = self._rig(seed, "reference", 1, remote=False)
        start = time.perf_counter()
        result = rig.campaign.run()
        wall = time.perf_counter() - start
        return campaign_signature(result), wall

    def rep(self, seed: int, index: int) -> Rep:
        start = time.perf_counter()
        rig = self._rig(seed, f"rep{index}", self.workers, self.shape.remote)
        setup_s = time.perf_counter() - start
        try:
            with measured() as call:
                result = rig.campaign.run()
        finally:
            rig.close()
        return Rep(setup_s=setup_s, wall_s=call.wall_s, cpu_s=call.cpu_s,
                   decisions=campaign_decisions(self.shape, rig, result),
                   attempted=campaign_jobs(result),
                   failed=len(rig.scheduler.failures),
                   output=campaign_signature(result))

    def prepare(self, seed: int) -> None:
        """Build the serial reference; it also warms this process up, so the
        timed repetitions do not pay first-use imports."""
        self.reference, _ = self.serial_reference(seed)

    def verify(self, seed: int, outputs: Sequence[Dict[str, tuple]]) -> Tuple[str, ...]:
        """Where any output differs from the serial reference (empty: none)."""
        if self.reference is None:
            self.prepare(seed)
        return tuple(key for output in outputs
                     for key in mismatches(output, self.reference))

    # ------------------------------------------------------------------ #
    def traced(self, seed: int) -> Tuple[Dict[str, float], Tuple[str, ...], int, int]:
        """Per-layer metrics; returns (metrics, mismatches, attempted, failed).

        The campaign-level layers are traced on the real backend, with the
        program's ``job.train`` telemetry spans giving per-worker busy time.
        Wrappers cannot reach into pool or remote worker processes, so the
        layers inside jobs are traced by running the same campaign
        in-process with one worker, and compared with the same run untraced
        for the tracing overhead.
        """
        shape = self.shape
        # The reference runs first, so every measured part runs warm, like
        # the timed repetitions.
        self.prepare(seed)
        outer = Tracer()
        rig = self._rig(seed, "traced", self.workers, shape.remote)
        sink = telemetry.enable()
        try:
            with outer.patched(CAMPAIGN_TARGETS):
                result = rig.campaign.run()
        finally:
            telemetry.disable()
            rig.close()
        bad = mismatches(campaign_signature(result), self.reference)

        # Untraced runs before and after the traced one, so host speed drift
        # does not pass for tracing overhead.
        before, before_wall = self.serial_reference(seed)
        inner = Tracer()
        serial = self._rig(seed, "traced-serial", 1, remote=False)
        with inner.patched(CAMPAIGN_TARGETS + JOB_TARGETS + ENGINE_TARGETS):
            start = time.perf_counter()
            serial_result = serial.campaign.run()
            traced_wall = time.perf_counter() - start
        after, after_wall = self.serial_reference(seed)
        for output in (before, campaign_signature(serial_result), after):
            bad += mismatches(output, self.reference)
        plain_wall = (before_wall + after_wall) / 2

        metrics = _campaign_layers(outer, sink.events, rig, self.workers)
        metrics.update(_job_layers(inner, shape, serial_result))
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        return (metrics, bad, campaign_jobs(result),
                len(rig.scheduler.failures))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _campaign_layers(tracer: Tracer, events, rig: CampaignRig,
                     workers: int) -> Dict[str, float]:
    """Layers of the coordinating process, plus the executor's workers."""
    spans = [e for e in events if e.kind == "span" and e.name == "job.train"]
    busy_total = slot_s = max_sum = mean_sum = 0.0
    tasks = 0
    job_bytes: List[int] = []
    for start, elapsed, items, outcomes in tracer.executor_calls:
        tasks += len(items)
        busy: Dict[int, float] = {}
        for span in spans:
            if start <= span.ts <= start + elapsed:
                busy[span.pid] = busy.get(span.pid, 0.0) + span.value
        slots = max(workers, len(busy))
        busy_total += sum(busy.values())
        slot_s += slots * elapsed
        if busy:
            max_sum += max(busy.values())
            mean_sum += sum(busy.values()) / slots
        for item, outcome in zip(items, outcomes):
            if outcome.ok:
                runs = outcome.value[0]
                job_bytes.append(len(pickle.dumps(getattr(item, "job", item)))
                                 + len(pickle.dumps(runs)))
    retries = sum(e.value for e in events
                  if e.kind == "counter" and e.name == "job.retry")
    counts = tracer.counts
    return {
        "generation.s": tracer.self_s["generation"],
        "generation.designs": counts["generation.designs"],
        "filters.s": tracer.self_s["filters"],
        "filters.pass_frac": _ratio(counts["filters.passed"],
                                    counts["filters.generated"]),
        "filters.audit_rejects": counts["filters.audit_rejects"],
        "scheduler.self_s": tracer.self_s["scheduler"],
        "scheduler.jobs": counts["scheduler.jobs"],
        "scheduler.tasks": tasks,
        "executor.s": tracer.total_s["executor"],
        "executor.idle_frac": 1.0 - _ratio(busy_total, slot_s),
        "executor.imbalance": _ratio(max_sum, mean_sum),
        "job.cpu_per_wall": _ratio(sum(s.cpu_s for s in spans),
                                   sum(s.value for s in spans)),
        "executor.retries": retries,
        "transport.job_bytes": _ratio(sum(job_bytes), len(job_bytes)),
        "store.put_s": tracer.self_s["store.put"],
        "store.peek_s": tracer.self_s["store.peek"],
        "store.claim_s": tracer.self_s["store.claim"],
        "store.puts": tracer.calls["store.put"],
        "store.bytes_written": rig.store_bytes(),
    }


def _job_layers(tracer: Tracer, shape: CampaignShape,
                result: CampaignResult) -> Dict[str, float]:
    """Layers inside training jobs, from the in-process traced run."""
    counts = tracer.counts
    stopped = sum(len(res.early_stopped_designs)
                  for res in result.results.values())
    metrics = _engine_layers(tracer)
    metrics.update({
        "early_stop.s": tracer.self_s["early_stop"],
        "early_stop.stopped_frac": _ratio(stopped,
                                          counts["early_stop.stage2_designs"]),
        "early_stop.epochs_saved": (counts["early_stop.stopped_seeds"]
                                    * shape.train_epochs
                                    - counts["early_stop.prefix_epochs"]),
        "train.seed_epochs": counts["train.seed_epochs"],
        "train.epoch_s": _ratio(tracer.self_s["train"],
                                counts["train.seed_epochs"]),
        "eval.checkpoint_s": tracer.self_s["eval"],
        "infer.compiled_s": tracer.self_s["infer.compiled"],
        "update.compiled_s": tracer.self_s["update.compiled"],
        "compile.plan_s": tracer.self_s["compile.plan"],
        "compile.lowered": counts["compile.lowered"],
        "compile.fallback": counts["compile.fallback"],
        "optim.step_s": tracer.self_s["optim.step"],
        "optim.clip_s": tracer.self_s["optim.clip"],
    })
    return metrics


def _engine_layers(tracer: Tracer) -> Dict[str, float]:
    """Simulator, state and Pensieve-engine layers, shared with serving."""
    return {
        "sim.steps": tracer.calls["sim.step"],
        "sim.step_s": tracer.self_s["sim.step"],
        "state.rows": tracer.counts["state.rows"],
        "state.build_s": tracer.self_s["state.build"],
        "infer.pensieve_s": tracer.self_s["infer.pensieve"],
        "infer.pensieve_calls": tracer.calls["infer.pensieve"],
        "update.pensieve_s": tracer.self_s["update.pensieve"],
        "trace.unattributed_frac": _ratio(tracer.self_s["root"],
                                          tracer.total_s["root"]),
    }


# --------------------------------------------------------------------------- #
# Serving.
# --------------------------------------------------------------------------- #
class ServeRig:
    """The original agent and a fleet over the fcc+starlink test-trace mix."""

    def __init__(self, shape: ServeShape, seed: int) -> None:
        ladders = {ENVIRONMENTS[env].bitrate_ladder for env in shape.environments}
        if len(ladders) != 1:
            raise ValueError("a fleet streams one video: environments must "
                             "share a bitrate ladder")
        traces = []
        first_train = None
        for env in shape.environments:
            train, test = build_dataset(env, seed=seed,
                                        scale=shape.dataset_scale)
            first_train = first_train or train
            traces.extend(test)
        video = synthetic_video(ladders.pop(), num_chunks=shape.num_chunks,
                                seed=seed)
        self.agent = instantiate_agent(None, None, video, first_train,
                                       seed=seed)
        self.fleet = Fleet(video, traces, config=FleetConfig(
            arrival_process="poisson",
            arrival_rate_per_s=shape.arrival_rate_per_s, arrival_seed=seed))
        self.sessions = shape.sessions
        self.seed = seed

    def run(self):
        """The timed call.  Actions are sampled from the policy with
        per-session generators: a fresh network's argmax often sticks to one
        bitrate, which would make the emulation cost hinge on the weight
        draw."""
        return self.fleet.run(self.agent, self.sessions, greedy=False,
                              sample_seed=self.seed)


class ServeWorkload:
    def __init__(self, shape: ServeShape) -> None:
        self.shape = shape
        self.reference: Optional[list] = None

    def prepare(self, seed: int) -> None:
        """Build the serial reference; it also warms this process up."""
        rig = ServeRig(self.shape, seed)
        self.reference = rig.fleet.serial_reference(
            rig.agent, self.shape.sessions, greedy=False, sample_seed=seed)

    def verify(self, seed: int, outputs: Sequence[list]) -> Tuple[str, ...]:
        """Sessions that differ from ``Fleet.serial_reference`` (empty: none)."""
        if self.reference is None:
            self.prepare(seed)
        return tuple(f"session{index}/{expected.trace_name}"
                     for sessions in outputs
                     for index, (got, expected)
                     in enumerate(zip(sessions, self.reference))
                     if got != expected)

    def rep(self, seed: int, index: int) -> Rep:
        start = time.perf_counter()
        rig = ServeRig(self.shape, seed)
        setup_s = time.perf_counter() - start
        with measured() as call:
            result = rig.run()
        metrics = result.metrics
        return Rep(setup_s=setup_s, wall_s=call.wall_s, cpu_s=call.cpu_s,
                   decisions=metrics.num_decisions,
                   attempted=self.shape.sessions,
                   failed=sum(1 for s in result.sessions if s is None),
                   latency_p50_s=metrics.p50_decision_latency_s,
                   latency_p99_s=metrics.p99_decision_latency_s,
                   ticks=metrics.num_ticks,
                   output=result.sessions)

    def traced(self, seed: int) -> Tuple[Dict[str, float], Tuple[str, ...], int, int]:
        self.prepare(seed)
        rig = ServeRig(self.shape, seed)
        walls = []
        results = []
        tracer = Tracer()
        # Untraced, traced, untraced: host speed drift does not pass for
        # tracing overhead.
        for traced in (False, True, False):
            start = time.perf_counter()
            if traced:
                with tracer.patched(SERVE_TARGETS + ENGINE_TARGETS):
                    results.append(rig.run())
            else:
                results.append(rig.run())
            walls.append(time.perf_counter() - start)
        plain, traced_wall = results[0], walls[1]
        plain_wall = (walls[0] + walls[2]) / 2
        bad = self.verify(seed, [result.sessions for result in results])
        metrics = _engine_layers(tracer)
        serving = plain.metrics
        metrics.update({
            "fleet.ticks": serving.num_ticks,
            "fleet.mean_batch": serving.mean_batch_size,
            "fleet.decide_s": serving.decide_s,
            "player.steps": tracer.counts["player.steps"],
            "player.step_s": tracer.self_s["player"],
            "link.deliver_s": tracer.self_s["link"],
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        })
        failed = sum(1 for s in plain.sessions if s is None)
        return metrics, bad, self.shape.sessions, failed
