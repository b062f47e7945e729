"""The campaign scheduler: one work-graph execution layer for all evaluation.

The paper's headline experiment is a *campaign*: pools of LLM-generated
designs scored across several network environments under the §3.1 protocol.
This module is the single substrate every campaign runs on.  Its unit of
work is a **job** — (state design, network design, environment, seed batch)
— and it composes the repository's two execution engines instead of choosing
one:

* **inside** a job, all seeds train in lockstep through
  :class:`~repro.rl.a2c.MultiSeedA2CTrainer` (stacked per-seed weights, one
  batched fused update per round) whenever the design supports it;
* **across** jobs, work fans out through
  :func:`~repro.core.parallel.run_resilient` (local workers) or an attached
  :class:`~repro.core.distributed.RemoteExecutor`, with an
  order-preserving merge.

Because each job runs exactly the code it would run serially (the worker
only changes *where* the computation happens), campaign scores are
bit-identical for serial, 1-worker and N-worker executions — the
equivalence suite in ``tests/test_scheduler.py`` pins this.

When a :class:`~repro.core.results.ResultStore` is attached, every job's
per-seed :class:`~repro.core.evaluation.TrainingRun` records are looked up
before execution and persisted after it, so repeated campaigns skip
already-scored work and interrupted campaigns resume.  Jobs carrying an
early-stopping classifier bypass the store: their outcome depends on the
fitted classifier state, which is not part of the key schema.

Call sites (:class:`~repro.core.evaluation.TestScoreProtocol`,
:class:`~repro.core.pipeline.NadaPipeline`, the ``analysis.experiments``
sweeps and the CLI) never touch an executor directly — they build jobs and
hand them to a scheduler.
"""

from __future__ import annotations

import signal
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TYPE_CHECKING, TypeVar)

import numpy as np

from .. import nn
from ..log import get_logger
from . import blas, faults, telemetry
from .faults import FaultPlan
from .parallel import ParallelConfig, TaskOutcome, run_resilient
from .results import (Lease, ResultStore, context_fingerprint,
                      design_fingerprint, result_key)

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from .design import Design
    from .early_stopping import RewardTrajectoryClassifier
    from .evaluation import DesignTrainer, TrainingRun

__all__ = [
    "EvaluationJob",
    "JobResult",
    "CampaignScheduler",
    "protocol_score",
]

T = TypeVar("T")
R = TypeVar("R")

logger = get_logger("scheduler")


@dataclass(frozen=True)
class EvaluationJob:
    """One unit of campaign work: a design pair × environment × seed batch.

    The job owns everything needed to train its seed batch to completion in
    an arbitrary worker process: the (picklable)
    :class:`~repro.core.evaluation.DesignTrainer` carries the environment
    (video, trace splits, QoE metric, schedule); the designs carry the code
    under test; ``seeds`` is the batch trained in lockstep inside the worker.
    """

    trainer: "DesignTrainer"
    state_design: Optional["Design"]
    network_design: Optional["Design"]
    seeds: Tuple[int, ...]
    early_stopping: Optional["RewardTrajectoryClassifier"] = None
    #: Human-readable environment label recorded in the result store.
    environment: str = ""

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a job needs at least one seed")


@dataclass
class JobResult:
    """Outcome of one job: per-seed runs plus the protocol aggregate."""

    job: EvaluationJob
    runs: List["TrainingRun"]
    #: Median over seeds of last-k checkpoint means (the §3.1 test score).
    score: float
    #: True when every seed was served from the result store.
    cached: bool = False
    #: True when this job was collapsed onto an identical job in the same
    #: submission and its result fanned back from that single execution.
    deduplicated: bool = False
    #: ``"ok"`` for a complete result, ``"quarantined"`` when the job kept
    #: failing past the retry budget (``runs`` then holds whatever seed
    #: batches did complete; ``score`` is ``-inf``).
    status: str = "ok"
    #: The last failure message for a quarantined job.
    error: Optional[str] = None
    #: Training attempts consumed by the slowest-to-succeed seed batch
    #: (1 for a clean first-try execution, 0 for a store hit).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def protocol_score(runs: Sequence["TrainingRun"], last_k: int) -> float:
    """The §3.1 aggregation: median over seeds of last-``k`` checkpoint means.

    Early-stopped seeds are excluded unless every seed stopped (in which
    case the truncated runs are all the evidence there is).
    """
    completed = [run for run in runs if not run.early_stopped]
    scoring_runs = completed if completed else list(runs)
    per_seed = [run.smoothed_score(last_k) for run in scoring_runs]
    finite = [score for score in per_seed if np.isfinite(score)]
    return float(np.median(finite)) if finite else float("-inf")


def _job_label(job: EvaluationJob) -> str:
    """Human-readable design label for telemetry attributes."""
    parts = []
    if job.state_design is not None:
        parts.append(f"state:{job.state_design.design_id}")
    if job.network_design is not None:
        parts.append(f"net:{job.network_design.design_id}")
    return "+".join(parts) or "original"


def _job_fault_key(job: EvaluationJob) -> str:
    """The key fault rules match against for job-level sites."""
    seeds = ",".join(str(seed) for seed in job.seeds)
    return f"{job.environment}|{_job_label(job)}|seeds={seeds}"


# --------------------------------------------------------------------------- #
# Worker payloads.  Spawned workers start from a fresh interpreter, so the
# engine configuration (:class:`repro.nn.EngineConfig`: tensor dtype and the
# kernel compiler) rides along with every task and is installed before any
# computation.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _JobTask:
    job: EvaluationJob
    engine: nn.EngineConfig
    #: Whether the parent has telemetry enabled.  Worker processes start
    #: from a fresh interpreter with telemetry off; when set, the task runs
    #: inside :func:`telemetry.capture` and ships its events back with the
    #: result for the parent's order-preserving merge.  The serial path runs
    #: the exact same capture so event streams match across worker counts.
    capture_telemetry: bool = False
    #: The active fault plan rides to workers with the task, exactly like
    #: the engine configuration, so injection sites fire identically no
    #: matter where the job lands.
    fault_plan: Optional[FaultPlan] = None

    def fault_key(self) -> str:
        """The key ``rpc.*`` fault rules match for this task (remote path)."""
        return _job_fault_key(self.job)


def _run_job_task(
        task: _JobTask, attempt: int = 0,
) -> Tuple[List["TrainingRun"], Optional[List[telemetry.TelemetryEvent]]]:
    """Worker entry point: train one job's seed batch, in lockstep if possible.

    The job runs on one BLAS thread wherever it lands (in-process, local
    worker or remote worker): a BLAS reduction split over threads rounds
    differently, so pinning every executor keeps serial == workers == remote
    bit for bit whatever ``OPENBLAS_NUM_THREADS`` says.
    """
    nn.engine.install(task.engine)
    if task.fault_plan is not None:
        faults.install_plan(task.fault_plan)
    job = task.job
    faults.perturb_job(_job_fault_key(job), attempt)
    with blas.single_threaded():
        if not task.capture_telemetry:
            runs = job.trainer.run_seeds(job.state_design, job.network_design,
                                         list(job.seeds),
                                         early_stopping=job.early_stopping)
            return runs, None
        with telemetry.capture() as local:
            with local.span("job.train", {
                    "environment": job.environment,
                    "design": _job_label(job),
                    "seeds": ",".join(str(seed) for seed in job.seeds)}):
                runs = job.trainer.run_seeds(
                    job.state_design, job.network_design, list(job.seeds),
                    early_stopping=job.early_stopping)
    return runs, local.events


@dataclass(frozen=True)
class _MapTask:
    fn: Callable[[Any], Any]
    item: Any
    engine: nn.EngineConfig
    capture_telemetry: bool = False


def _run_map_task(
        task: _MapTask, attempt: int = 0,
) -> Tuple[Any, Optional[List[telemetry.TelemetryEvent]]]:
    nn.engine.install(task.engine)
    with blas.single_threaded():
        if not task.capture_telemetry:
            return task.fn(task.item), None
        with telemetry.capture() as local:
            with local.span("job.map"):
                result = task.fn(task.item)
    return result, local.events


class CampaignScheduler:
    """Executes evaluation jobs through an executor and the store.

    The scheduler is deliberately stateless between :meth:`run` calls apart
    from the attached store and memoized context fingerprints — a campaign
    driver expresses its stage structure by calling :meth:`run` once per
    stage with every ready job, and the scheduler takes care of placement,
    caching and the order-preserving merge.
    """

    def __init__(self, parallel: Optional[ParallelConfig] = None,
                 store: Optional[ResultStore] = None,
                 executor: Optional[Any] = None) -> None:
        self.parallel = parallel or ParallelConfig()
        self.store = store
        #: Optional execution transport (e.g.
        #: :class:`~repro.core.distributed.RemoteExecutor`).  Anything with
        #: ``run(fn, items, config, should_stop=None, heartbeat=None) ->
        #: List[TaskOutcome]`` — the :func:`run_resilient` signature — can
        #: stand in for the local workers; results must preserve
        #: submission order so the telemetry/record merge is unchanged.
        self.executor = executor
        #: Context fingerprints are O(dataset) to compute, so they are
        #: memoized per live trainer instance (trainers are reused across
        #: jobs).  Weak keys mean a recycled object address can never serve
        #: another trainer's fingerprint, and the per-trainer entries are
        #: keyed by the inputs that can change between runs (the engine
        #: configuration and the environment label) so changing either
        #: recomputes.
        self._contexts: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: Memoized "does this design train in lockstep?" probes, keyed by
        #: design fingerprint and the engine configuration.
        self._lockstep_probe: Dict[Tuple, bool] = {}
        #: Set by :meth:`request_shutdown` (and the SIGINT/SIGTERM handlers
        #: installed around :meth:`run`): in-flight jobs drain, queued jobs
        #: are abandoned, completed results persist, then :meth:`run`
        #: raises ``KeyboardInterrupt``.
        self._shutdown = threading.Event()
        #: Every quarantined :class:`JobResult` across this scheduler's
        #: lifetime, in completion order — the campaign's failure record.
        self.failures: List[JobResult] = []

    # ------------------------------------------------------------------ #
    # Graceful shutdown.
    # ------------------------------------------------------------------ #
    def request_shutdown(self) -> None:
        """Ask a running campaign to stop: drain in-flight, persist, raise."""
        self._shutdown.set()

    @contextmanager
    def _signal_guard(self) -> Iterator[None]:
        """Route SIGINT/SIGTERM to a graceful drain while :meth:`run` is live.

        The first signal sets the shutdown flag (in-flight jobs finish and
        persist); a second one aborts hard via ``KeyboardInterrupt``.  Only
        the main thread can own signal handlers — elsewhere the guard is a
        no-op and shutdown remains available through
        :meth:`request_shutdown`.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def handler(signum: int, frame: Any) -> None:
            if self._shutdown.is_set():
                raise KeyboardInterrupt
            self._shutdown.set()
            logger.warning(
                "received %s: draining in-flight jobs and persisting "
                "completed results (signal again to abort hard)",
                signal.Signals(signum).name)

        previous: Dict[int, Any] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
        try:
            yield
        finally:
            for signum, old in previous.items():
                try:
                    signal.signal(signum, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def failure_summary(self) -> Optional[str]:
        """A per-job table of quarantined work, or None when all jobs passed."""
        if not self.failures:
            return None
        lines = [f"{len(self.failures)} job(s) quarantined after retries:"]
        for result in self.failures:
            job = result.job
            seeds = ",".join(str(seed) for seed in job.seeds)
            lines.append(
                f"  - {job.environment or '<env>'} | {_job_label(job)} | "
                f"seeds={seeds} | attempts={result.attempts} | "
                f"{result.error or 'unknown failure'}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def _context(self, job: EvaluationJob) -> str:
        variant = (nn.engine.current(), job.environment)
        per_trainer = self._contexts.setdefault(job.trainer, {})
        fingerprint = per_trainer.get(variant)
        if fingerprint is None:
            if per_trainer:
                # A fingerprint existed but for a different engine variant:
                # the memoized context was invalidated by an engine change.
                telemetry.counter("store.context_invalidated")
            fingerprint = context_fingerprint(job.trainer, job.environment)
            per_trainer[variant] = fingerprint
        return fingerprint

    def _job_keys(self, job: EvaluationJob) -> Optional[List[str]]:
        """Per-seed store keys, or None when the job is not cacheable."""
        if self.store is None or job.early_stopping is not None:
            return None
        context = self._context(job)
        designs = design_fingerprint(job.state_design, job.network_design)
        return [result_key(context, designs, seed) for seed in job.seeds]

    def _lookup(self, job: EvaluationJob,
                keys: Optional[List[str]]) -> Optional[List["TrainingRun"]]:
        """All-or-nothing cache read: a job resumes only as a whole batch.

        Counters are committed once the batch outcome is known — records
        probed before a miss aborts the batch are not counted as hits,
        since their contents are discarded and retrained.  Loaded runs are
        re-stamped with the requesting config's ``last_k_checkpoints``
        (excluded from the key because it only shapes aggregation), making
        a cached run indistinguishable from a freshly trained one.
        """
        if keys is None:
            return None
        runs = []
        for key in keys:
            run = self.store.peek_run(key)
            if run is None:
                self.store.misses += 1
                self.store.partial_probes += len(runs)
                telemetry.counter("store.miss")
                if runs:
                    telemetry.counter("store.partial_probe", len(runs))
                return None
            runs.append(run)
        self.store.hits += len(runs)
        telemetry.counter("store.hit", len(runs))
        for run in runs:
            run.last_k_checkpoints = job.trainer.config.last_k_checkpoints
        return runs

    def _persist(self, job: EvaluationJob, keys: Optional[List[str]],
                 runs: Sequence["TrainingRun"],
                 leases_by_key: Optional[Dict[str, Lease]] = None) -> None:
        if keys is None:
            return
        meta = {
            "environment": job.environment,
            "state_design": job.state_design.design_id
            if job.state_design is not None else "original",
            "network_design": job.network_design.design_id
            if job.network_design is not None else "original",
        }
        leases_by_key = leases_by_key or {}
        for key, run in zip(keys, runs):
            self.store.put_run(key, run, meta={**meta, "seed": run.seed},
                               lease=leases_by_key.get(key))

    def _splits_without_cost(self, job: EvaluationJob) -> bool:
        """True when per-seed fan-out cannot lose lockstep batching.

        Jobs that train seed by seed regardless — an early-stopping
        classifier attached (one one-seed stack per seed), or a design the
        kernel compiler cannot lower (the autograd reference per seed; every
        design, the original Pensieve included, under ``--no-compile``) —
        gain worker-level seed parallelism by splitting into singleton seed
        batches; records are identical either way because the singleton
        batch is exactly what runs inside the whole one.  Stackable jobs
        stay whole so the stacked engine applies inside their worker.
        """
        return len(job.seeds) > 1 and (job.early_stopping is not None
                                       or not self._design_locksteps(job))

    def _design_locksteps(self, job: EvaluationJob) -> bool:
        """Memoized probe: would this job's design train in lockstep?

        Instantiating the design's network (cheap — weight init only) is
        the only way to know whether the kernel planner can lower it; the
        answer is cached per design fingerprint and engine configuration so
        a campaign pays for each distinct design once.
        """
        key = (design_fingerprint(job.state_design, job.network_design),
               nn.engine.current())
        cached = self._lockstep_probe.get(key)
        if cached is None:
            # Only fan-out probes, so the probe's own compile counters stay
            # out of the event stream, which must match the serial run's.
            sink = telemetry.set_telemetry(None)
            try:
                cached = bool(job.trainer.supports_lockstep(
                    job.state_design, job.network_design))
            finally:
                telemetry.set_telemetry(sink)
            self._lockstep_probe[key] = cached
        return cached

    @staticmethod
    def _dedupe_key(job: EvaluationJob) -> Optional[Tuple]:
        """Collapse key for identical jobs in one submission, or None.

        Two jobs collapse when they share the trainer instance (hence the
        evaluation context), the environment label, the design pair's
        content fingerprint and the seed batch.  Jobs carrying an
        early-stopping classifier never collapse: their outcome depends on
        fitted classifier state, which the key cannot see.
        """
        if job.early_stopping is not None:
            return None
        return (id(job.trainer), job.environment,
                design_fingerprint(job.state_design, job.network_design),
                tuple(job.seeds))

    def run(self, jobs: Sequence[EvaluationJob]) -> List[JobResult]:
        """Execute a batch of jobs; results come back in submission order.

        Cached jobs are answered from the store without touching an executor.
        Identical (design, context, seed batch) jobs within the submission
        collapse to a single execution whose result fans back to every
        requester (``JobResult.deduplicated`` marks the copies).  The
        remainder fan out across worker processes, each training its seed
        batch in lockstep inside the worker.  Jobs that would train
        per-seed anyway additionally split into per-seed work items under
        fan-out, so seeds of one design can occupy several workers when
        lockstep has nothing to lose.  Scores are bit-identical to running
        every job serially in submission order.

        A job that keeps failing past the retry budget comes back
        ``status="quarantined"`` with ``score=-inf`` instead of raising —
        the batch completes with partial results (graceful degradation).
        SIGINT/SIGTERM (or :meth:`request_shutdown`) drains in-flight jobs,
        persists their records, then raises ``KeyboardInterrupt``.
        """
        tel = telemetry.get_telemetry()
        jobs = list(jobs)
        self._shutdown.clear()
        if tel is not None:
            tel.counter("scheduler.jobs.submitted", len(jobs))
        with self._signal_guard():
            with telemetry.span(
                    "scheduler.run",
                    {"jobs": len(jobs)} if tel is not None else None):
                results = self._run_batch(jobs, tel)
        return results

    def _run_batch(self, jobs: List[EvaluationJob],
                   tel: Optional[telemetry.Telemetry]) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[Tuple[int, EvaluationJob, Optional[List[str]]]] = []
        aliases: Dict[int, int] = {}  # duplicate index -> primary index
        primary_of: Dict[Tuple, int] = {}
        for index, job in enumerate(jobs):
            dedupe = self._dedupe_key(job)
            if dedupe is not None:
                primary = primary_of.get(dedupe)
                if primary is not None:
                    aliases[index] = primary
                    if tel is not None:
                        tel.counter("scheduler.jobs.deduplicated")
                    continue
                primary_of[dedupe] = index
            keys = self._job_keys(job)
            cached_runs = self._lookup(job, keys)
            if cached_runs is not None:
                if tel is not None:
                    tel.counter("scheduler.jobs.store_hit")
                score = protocol_score(cached_runs,
                                       job.trainer.config.last_k_checkpoints)
                results[index] = JobResult(job=job, runs=cached_runs,
                                           score=score, cached=True,
                                           attempts=0)
            else:
                pending.append((index, job, keys))

        logger.debug(
            "scheduler pass: %d job(s) submitted, %d cached, %d deduplicated, "
            "%d to train", len(jobs),
            sum(1 for r in results if r is not None and r.cached),
            len(aliases), len(pending))

        # Claim a lease on every store key before training so a second
        # process sharing the store cannot execute the same (context,
        # design, seed) concurrently.  Jobs whose keys are all held
        # elsewhere are deferred: they wait for the holder to publish (or
        # die) instead of duplicating its work.
        executable: List[Tuple[int, EvaluationJob, Optional[List[str]],
                               List[Lease]]] = []
        deferred: List[Tuple[int, EvaluationJob, List[str]]] = []
        for index, job, keys in pending:
            if keys is None:
                executable.append((index, job, None, []))
                continue
            leases = self._claim_all(keys)
            if leases is None:
                deferred.append((index, job, keys))
                if tel is not None:
                    tel.counter("scheduler.jobs.lease_deferred")
                continue
            # Another process may have published between our lookup miss
            # and the claim; honour its records instead of retraining.
            cached_runs = self._peek_batch(job, keys)
            if cached_runs is not None:
                for lease in leases:
                    self.store.release(lease)
                self._commit_hit(job, cached_runs, results, index, tel)
                continue
            executable.append((index, job, keys, leases))

        interrupted = False
        if executable:
            interrupted = self._execute_pending(executable, results, tel)
        if deferred:
            if interrupted or self._shutdown.is_set():
                interrupted = True
            else:
                interrupted = self._await_deferred(deferred, results, tel)

        for index, primary in aliases.items():
            source = results[primary]
            if source is None:
                continue  # primary interrupted; no result to fan back
            results[index] = JobResult(job=jobs[index], runs=source.runs,
                                       score=source.score,
                                       cached=source.cached,
                                       deduplicated=True,
                                       status=source.status,
                                       error=source.error,
                                       attempts=source.attempts)

        if interrupted or self._shutdown.is_set():
            settled = sum(1 for result in results if result is not None)
            logger.warning(
                "graceful shutdown: %d/%d job result(s) settled; completed "
                "work was persisted to the store", settled, len(jobs))
            if tel is not None:
                tel.counter("scheduler.interrupted")
            raise KeyboardInterrupt(
                "campaign interrupted; completed results were persisted")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Lease coordination.
    # ------------------------------------------------------------------ #
    def _claim_all(self, keys: List[str]) -> Optional[List[Lease]]:
        """Claim every key or none: partial holds are released on failure."""
        leases: List[Lease] = []
        for key in keys:
            lease = self.store.claim(key)
            if lease is None:
                for held in leases:
                    self.store.release(held)
                return None
            leases.append(lease)
        return leases

    def _peek_batch(self, job: EvaluationJob,
                    keys: List[str]) -> Optional[List["TrainingRun"]]:
        """Counter-free all-or-nothing read, for lease polling."""
        runs = []
        for key in keys:
            run = self.store.peek_run(key)
            if run is None:
                return None
            runs.append(run)
        for run in runs:
            run.last_k_checkpoints = job.trainer.config.last_k_checkpoints
        return runs

    def _commit_hit(self, job: EvaluationJob, runs: List["TrainingRun"],
                    results: List[Optional[JobResult]], index: int,
                    tel: Optional[telemetry.Telemetry]) -> None:
        """Account and record a batch served by another process's records."""
        self.store.hits += len(runs)
        telemetry.counter("store.hit", len(runs))
        if tel is not None:
            tel.counter("scheduler.jobs.store_hit")
        score = protocol_score(runs, job.trainer.config.last_k_checkpoints)
        results[index] = JobResult(job=job, runs=runs, score=score,
                                   cached=True, attempts=0)

    def _await_deferred(self, deferred: List[Tuple[int, EvaluationJob,
                                                   List[str]]],
                        results: List[Optional[JobResult]],
                        tel: Optional[telemetry.Telemetry]) -> bool:
        """Wait for lease holders to publish; steal and execute if they die.

        Polls the store for each deferred job: records appearing resolve
        the job as a hit; a lease going stale (holder crashed without
        heartbeating) is taken over via :meth:`ResultStore.claim` and the
        job executes here.  Returns True when shutdown interrupted the
        wait.
        """
        poll = max(0.05, min(1.0, self.store.lease_timeout / 10.0))
        pending = list(deferred)
        while pending:
            if self._shutdown.is_set():
                return True
            remaining: List[Tuple[int, EvaluationJob, List[str]]] = []
            for index, job, keys in pending:
                runs = self._peek_batch(job, keys)
                if runs is not None:
                    self._commit_hit(job, runs, results, index, tel)
                    continue
                leases = self._claim_all(keys)
                if leases is not None:
                    if self._execute_pending([(index, job, keys, leases)],
                                             results, tel):
                        return True
                    continue
                remaining.append((index, job, keys))
            if remaining and len(remaining) == len(pending):
                time.sleep(poll)
            pending = remaining
        return False

    # ------------------------------------------------------------------ #
    # Resilient execution.
    # ------------------------------------------------------------------ #
    def _execute_pending(
            self,
            batch: List[Tuple[int, EvaluationJob, Optional[List[str]],
                              List[Lease]]],
            results: List[Optional[JobResult]],
            tel: Optional[telemetry.Telemetry]) -> bool:
        """Train a batch of uncached jobs; returns True when interrupted.

        Subjob failures are isolated: an attempt that raises, times out or
        dies with its worker is retried with backoff, and a subjob
        exhausting the retry budget quarantines its parent job instead of
        aborting the batch.  Completed seed batches persist to the store
        even when a sibling subjob of the same job failed or a shutdown
        arrived mid-batch, so resumed campaigns skip them.
        """
        engine = nn.engine.current()
        plan = faults.get_plan()
        # Remote workers parallelize like local ones, so jobs that
        # split per-seed under fan-out split the same way for them — record
        # layout stays identical across backends either way.
        split = (self.parallel.resolved_workers() > 1
                 or self.executor is not None)
        parts_per_job: List[List[EvaluationJob]] = []
        subjobs: List[EvaluationJob] = []
        for _, job, _, _ in batch:
            if split and self._splits_without_cost(job):
                parts = [replace(job, seeds=(seed,)) for seed in job.seeds]
                if tel is not None:
                    tel.counter("scheduler.jobs.split_per_seed",
                                attrs={"design": _job_label(job),
                                       "environment": job.environment})
            else:
                parts = [job]
            parts_per_job.append(parts)
            subjobs.extend(parts)
        tasks = [_JobTask(sub, engine, tel is not None, plan)
                 for sub in subjobs]

        heartbeat = self._lease_heartbeat(
            [lease for _, _, _, leases in batch for lease in leases])
        with telemetry.span(
                "scheduler.execute",
                {"tasks": len(tasks)} if tel is not None else None):
            try:
                flat = self._execute(_run_job_task, tasks, heartbeat)
            except BaseException:
                # Transport failure (e.g. NoWorkersError): release every
                # claimed lease so a resuming campaign need not wait out
                # the staleness deadline.
                for _, _, _, leases in batch:
                    for lease in leases:
                        self.store.release(lease)
                raise
        if tel is not None:
            # Order-preserving merge of worker-captured events: the same
            # contract results get, so serial and N-worker executions
            # yield identical event streams modulo timestamps and pids.
            for outcome in flat:
                if outcome.ok and outcome.value is not None:
                    _, events = outcome.value
                    if events:
                        tel.extend(events)

        interrupted = False
        cursor = 0
        for (index, job, keys, leases), parts in zip(batch, parts_per_job):
            outcomes = flat[cursor:cursor + len(parts)]
            cursor += len(parts)
            try:
                job_interrupted = self._settle_job(index, job, keys, parts,
                                                   outcomes, results, tel,
                                                   leases)
            finally:
                for lease in leases:
                    self.store.release(lease)
            interrupted = interrupted or job_interrupted
        return interrupted

    def _execute(self, fn: Callable[[Any, int], Any], tasks: Sequence[Any],
                 heartbeat: Optional[Callable[[], None]] = None,
                 ) -> List[TaskOutcome]:
        """Run ``tasks`` on the attached executor, else :func:`run_resilient`."""
        run = self.executor.run if self.executor is not None \
            else run_resilient
        return run(fn, tasks, self.parallel,
                   should_stop=self._shutdown.is_set, heartbeat=heartbeat)

    def _lease_heartbeat(
            self, leases: List[Lease]) -> Optional[Callable[[], None]]:
        """A rate-limited refresher keeping held leases visibly alive."""
        if not leases or self.store is None:
            return None
        interval = max(0.5, min(self.store.lease_timeout / 4.0, 10.0))
        last = [time.monotonic()]

        def heartbeat() -> None:
            now = time.monotonic()
            if now - last[0] < interval:
                return
            last[0] = now
            for lease in leases:
                self.store.refresh(lease)

        return heartbeat

    def _settle_job(self, index: int, job: EvaluationJob,
                    keys: Optional[List[str]],
                    parts: List[EvaluationJob],
                    outcomes: List[TaskOutcome],
                    results: List[Optional[JobResult]],
                    tel: Optional[telemetry.Telemetry],
                    leases: Optional[List[Lease]] = None) -> bool:
        """Aggregate one job's subjob outcomes into a JobResult; persist.

        Returns True when any subjob was interrupted mid-shutdown — the
        job then stays unsettled (``results[index]`` remains None) and the
        batch raises ``KeyboardInterrupt`` after persisting everything
        that did complete.
        """
        runs: List["TrainingRun"] = []
        ok_keys: List[str] = []
        errors: List[str] = []
        attempts = 1
        job_interrupted = False
        seed_keys = dict(zip(job.seeds, keys)) if keys is not None else {}
        for part, outcome in zip(parts, outcomes):
            attempts = max(attempts, outcome.attempts)
            if outcome.status == "interrupted":
                job_interrupted = True
            elif not outcome.ok:
                errors.append(outcome.error or "unknown failure")
            elif outcome.value is not None:
                part_runs, _ = outcome.value
                runs.extend(part_runs)
                if keys is not None:
                    ok_keys.extend(seed_keys[seed] for seed in part.seeds)
            if tel is not None and outcome.attempts > 1:
                tel.counter("job.retry", outcome.attempts - 1,
                            attrs={"design": _job_label(job),
                                   "environment": job.environment})

        if ok_keys:
            leases_by_key = {lease.key: lease for lease in (leases or [])}
            with telemetry.span(
                    "job.persist",
                    {"design": _job_label(job),
                     "environment": job.environment}
                    if tel is not None else None):
                self._persist(job, ok_keys, runs, leases_by_key)
            if tel is not None:
                tel.counter("scheduler.jobs.persisted")

        if job_interrupted:
            if tel is not None:
                tel.counter("job.interrupted",
                            attrs={"design": _job_label(job),
                                   "environment": job.environment})
            return True
        if errors:
            message = "; ".join(dict.fromkeys(errors))
            logger.warning("job quarantined after %d attempt(s): %s | %s",
                           attempts, _job_fault_key(job), message)
            if tel is not None:
                tel.counter("job.quarantined",
                            attrs={"design": _job_label(job),
                                   "environment": job.environment})
            result = JobResult(job=job, runs=runs, score=float("-inf"),
                               status="quarantined", error=message,
                               attempts=attempts)
            results[index] = result
            self.failures.append(result)
            return False
        if tel is not None:
            tel.counter("scheduler.jobs.trained")
            self._record_training_series(tel, job, runs)
        score = protocol_score(runs, job.trainer.config.last_k_checkpoints)
        results[index] = JobResult(job=job, runs=runs, score=score,
                                   attempts=attempts)
        return False

    @staticmethod
    def _record_training_series(tel: telemetry.Telemetry, job: EvaluationJob,
                                runs: Sequence["TrainingRun"]) -> None:
        """Emit per-checkpoint training-metric series for freshly trained runs."""
        label = _job_label(job)
        for run in runs:
            metrics = run.checkpoint_metrics or {}
            attrs = {"environment": job.environment, "design": label,
                     "seed": run.seed}
            for name, values in metrics.items():
                for epoch, value in zip(run.checkpoint_epochs, values):
                    tel.series(f"train.{name}", epoch, value, attrs=attrs)

    # ------------------------------------------------------------------ #
    def map_items(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Order-preserving fan-out for auxiliary (non-protocol) workloads.

        Used by drivers whose work items do not produce
        :class:`TrainingRun` batches (e.g. the early-stopping corpus
        builder).  Items go through the scheduler's normal dispatch — the
        same executor, retries and engine configuration as evaluation jobs
        — but results bypass the store.  Raises :class:`RuntimeError` with
        the error of the first item that did not end ``ok``.
        """
        tel = telemetry.get_telemetry()
        engine = nn.engine.current()
        tasks = [_MapTask(fn, item, engine, tel is not None)
                 for item in items]
        flat = self._execute(_run_map_task, tasks)
        for index, outcome in enumerate(flat):
            if not outcome.ok:
                raise RuntimeError(f"map item {index} {outcome.status} after "
                                   f"{outcome.attempts} attempt(s): "
                                   f"{outcome.error}")
        if tel is not None:
            for outcome in flat:
                _, events = outcome.value
                if events:
                    tel.extend(events)
        return [outcome.value[0] for outcome in flat]
