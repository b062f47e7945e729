"""The campaign scheduler: one work-graph execution layer for all evaluation.

The paper's headline experiment is a *campaign*: pools of LLM-generated
designs scored across several network environments under the §3.1 protocol.
This module is the single substrate every campaign runs on.  Callers submit
**jobs** — (state design, network design, environment, seeds) — and the
scheduler runs each job's seeds as independent **work items**, one
(design, environment, seed) training run each:

* an item trains through
  :meth:`~repro.core.evaluation.DesignTrainer.run_seeds` with one seed, the
  same one-seed compiled stack (or autograd reference) wherever it runs;
* items fan out through :func:`~repro.core.parallel.run_resilient` (local
  workers) or an attached :class:`~repro.core.distributed.RemoteExecutor`,
  with an order-preserving merge.

The item is also the unit of the store record, the lease, the fault key,
the retry and deduplication, so a job trains exactly the seeds the store
lacks.  Because each item runs exactly the code it would run serially (the
worker only changes *where* the computation happens), campaign scores are
bit-identical for serial, 1-worker and N-worker executions — the
equivalence suite in ``tests/test_scheduler.py`` pins this.

When a :class:`~repro.core.results.ResultStore` is attached, every item's
:class:`~repro.core.evaluation.TrainingRun` record is looked up before
execution and persisted after it, so repeated campaigns skip already-scored
work and interrupted campaigns resume.  Jobs carrying an early-stopping
classifier bypass the store: their outcome depends on the fitted classifier
state, which is not part of the key schema.

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
    """One campaign request: a design pair × environment × seeds.

    The job owns everything needed to train any of its seeds in an
    arbitrary worker process: the (picklable)
    :class:`~repro.core.evaluation.DesignTrainer` carries the environment
    (video, trace splits, QoE metric, schedule); the designs carry the code
    under test.  The scheduler runs each of ``seeds`` as its own work item
    (a copy of the job with that one seed) and reassembles the runs in
    seed order.
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
    #: True when every seed of this job was collapsed onto an identical
    #: (design, context, seed) item of an earlier job in the same
    #: submission, its run fanned back from that single execution.
    deduplicated: bool = False
    #: ``"ok"`` for a complete result, ``"quarantined"`` when a seed kept
    #: failing past the retry budget (``runs`` then holds whatever seeds
    #: did complete; ``score`` is ``-inf``).
    status: str = "ok"
    #: The failure messages of a quarantined job's seeds.
    error: Optional[str] = None
    #: Training attempts consumed by the slowest-to-succeed seed
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


@dataclass(eq=False)
class _Item:
    """One work item: a single seed of a submitted job.

    It is looked up, leased, executed, persisted and retried on its own.
    Identical items of one submission are one object, shared by every job
    that asked for that seed.
    """

    #: The one-seed job this item trains.
    job: EvaluationJob
    #: Submission index of the job that created (and executes) the item.
    owner: int
    #: Store key, or None when the job is not cacheable.
    key: Optional[str]
    lease: Optional[Lease] = None
    run: Optional["TrainingRun"] = None
    cached: bool = False
    attempts: int = 0
    error: Optional[str] = None

    @property
    def settled(self) -> bool:
        return self.run is not None or self.error is not None


def _run_job_task(
        task: _JobTask, attempt: int = 0,
) -> Tuple[List["TrainingRun"], Optional[List[telemetry.TelemetryEvent]]]:
    """Worker entry point: train one work item (a one-seed job).

    The item runs on one BLAS thread wherever it lands (in-process, local
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

    def _item_key(self, job: EvaluationJob) -> Optional[str]:
        """The store key of a one-seed job, or None when it is not cacheable."""
        if self.store is None or job.early_stopping is not None:
            return None
        designs = design_fingerprint(job.state_design, job.network_design)
        return result_key(self._context(job), designs, job.seeds[0])

    def _persist(self, item: _Item) -> None:
        job = item.job
        meta = {
            "environment": job.environment,
            "state_design": job.state_design.design_id
            if job.state_design is not None else "original",
            "network_design": job.network_design.design_id
            if job.network_design is not None else "original",
            "seed": item.run.seed,
        }
        self.store.put_run(item.key, item.run, meta=meta, lease=item.lease)

    @staticmethod
    def _dedupe_key(job: EvaluationJob) -> Optional[Tuple]:
        """Collapse key for identical work in one submission, or None.

        Two one-seed items collapse when they share the trainer instance
        (hence the evaluation context), the environment label, the design
        pair's content fingerprint and the seed.  Jobs carrying an
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

        Every job expands into one work item per seed.  Items the store
        already holds are answered from it without touching an executor;
        identical (design, context, seed) items within the submission
        collapse to a single execution whose run fans back to every job
        that asked for it (``JobResult.deduplicated`` marks a job none of
        whose seeds executed for it).  The remaining items fan out across
        worker processes, and each job's result is reassembled in seed
        order.  Scores are bit-identical to running every job serially in
        submission order.

        A seed that keeps failing past the retry budget quarantines its job
        (``status="quarantined"``, ``score=-inf``) instead of raising — the
        batch completes with partial results (graceful degradation).
        SIGINT/SIGTERM (or :meth:`request_shutdown`) drains in-flight items,
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
        items_of: List[List[_Item]] = []
        todo: List[_Item] = []
        primaries: Dict[Tuple, _Item] = {}
        for index, job in enumerate(jobs):
            items: List[_Item] = []
            for seed in job.seeds:
                one = replace(job, seeds=(seed,))
                dedupe = self._dedupe_key(one)
                item = primaries.get(dedupe) if dedupe is not None else None
                if item is None:
                    item = _Item(one, index, self._item_key(one))
                    todo.append(item)
                    if dedupe is not None:
                        primaries[dedupe] = item
                elif tel is not None:
                    tel.counter("scheduler.jobs.deduplicated")
                items.append(item)
            items_of.append(items)

        # Lease every missing key before training so a second process
        # sharing the store cannot execute the same (context, design, seed)
        # concurrently.  Items whose key is held elsewhere are deferred:
        # they wait for the holder to publish (or die) instead of
        # duplicating its work, while the job's other seeds train here.
        executable: List[_Item] = []
        deferred: List[_Item] = []
        for item in todo:
            run = None if item.key is None else self.store.get_run(item.key)
            if run is not None:
                self._hit(item, run, tel)
            elif item.key is None or self._claim(item, tel):
                executable.append(item)
            elif not item.settled:
                deferred.append(item)
                if tel is not None:
                    tel.counter("scheduler.jobs.lease_deferred")
        logger.debug(
            "scheduler pass: %d job(s) submitted, %d seed item(s), %d to "
            "train, %d deferred", len(jobs), len(todo), len(executable),
            len(deferred))

        interrupted = bool(executable) and self._execute_pending(executable,
                                                                 tel)
        if deferred:
            interrupted = (interrupted or self._shutdown.is_set()
                           or self._await_deferred(deferred, tel))

        results = [self._assemble(index, job, items, tel)
                   for index, (job, items) in enumerate(zip(jobs, items_of))]
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

    def _assemble(self, index: int, job: EvaluationJob, items: List[_Item],
                  tel: Optional[telemetry.Telemetry]) -> Optional[JobResult]:
        """A job's result from its seed items, or None if one was interrupted."""
        if not all(item.settled for item in items):
            return None
        runs = [item.run for item in items if item.run is not None]
        attempts = max(item.attempts for item in items)
        deduplicated = all(item.owner != index for item in items)
        errors = [item.error for item in items if item.error is not None]
        if not errors:
            score = protocol_score(runs, job.trainer.config.last_k_checkpoints)
            return JobResult(job=job, runs=runs, score=score,
                             cached=all(item.cached for item in items),
                             deduplicated=deduplicated, attempts=attempts)
        message = "; ".join(dict.fromkeys(errors))
        result = JobResult(job=job, runs=runs, score=float("-inf"),
                           deduplicated=deduplicated, status="quarantined",
                           error=message, attempts=attempts)
        if not deduplicated:
            logger.warning("job quarantined after %d attempt(s): %s | %s",
                           attempts, _job_fault_key(job), message)
            if tel is not None:
                tel.counter("job.quarantined",
                            attrs={"design": _job_label(job),
                                   "environment": job.environment})
            self.failures.append(result)
        return result

    # ------------------------------------------------------------------ #
    # Store and lease coordination.
    # ------------------------------------------------------------------ #
    def _hit(self, item: _Item, run: "TrainingRun",
             tel: Optional[telemetry.Telemetry]) -> None:
        """Settle ``item`` from a store record.

        The run is re-stamped with the requesting config's
        ``last_k_checkpoints`` (excluded from the key because it only
        shapes aggregation), making a cached run indistinguishable from a
        freshly trained one.
        """
        if tel is not None:
            tel.counter("scheduler.jobs.store_hit")
        run.last_k_checkpoints = item.job.trainer.config.last_k_checkpoints
        item.run, item.cached, item.attempts = run, True, 0

    def _take_published(self, item: _Item,
                        tel: Optional[telemetry.Telemetry]) -> bool:
        """Settle ``item`` from another process's record, if one exists.

        Polling peeks without counting; only a record found is a hit.
        """
        run = self.store.peek_run(item.key)
        if run is None:
            return False
        self.store.hits += 1
        telemetry.counter("store.hit")
        self._release(item)
        self._hit(item, run, tel)
        return True

    def _claim(self, item: _Item, tel: Optional[telemetry.Telemetry]) -> bool:
        """Lease ``item``'s key; True when the item must execute here.

        Another process may have published between our miss and the
        claim; its record then settles the item instead of a retrain.
        """
        item.lease = self.store.claim(item.key)
        return item.lease is not None and not self._take_published(item, tel)

    def _release(self, item: _Item) -> None:
        if item.lease is not None:
            self.store.release(item.lease)
            item.lease = None

    def _await_deferred(self, deferred: List[_Item],
                        tel: Optional[telemetry.Telemetry]) -> bool:
        """Wait for lease holders to publish; steal and execute if they die.

        Polls the store for each deferred item: a record appearing settles
        it as a hit; a lease going stale (holder crashed without
        heartbeating) is taken over via :meth:`ResultStore.claim` and the
        item executes here.  Returns True when shutdown interrupted the
        wait.
        """
        poll = max(0.05, min(1.0, self.store.lease_timeout / 10.0))
        pending = list(deferred)
        while pending:
            if self._shutdown.is_set():
                return True
            remaining: List[_Item] = []
            for item in pending:
                if self._take_published(item, tel):
                    continue
                if self._claim(item, tel):
                    if self._execute_pending([item], tel):
                        return True
                elif not item.settled:
                    remaining.append(item)
            if remaining and len(remaining) == len(pending):
                time.sleep(poll)
            pending = remaining
        return False

    # ------------------------------------------------------------------ #
    # Resilient execution.
    # ------------------------------------------------------------------ #
    def _execute_pending(self, items: List[_Item],
                         tel: Optional[telemetry.Telemetry]) -> bool:
        """Train uncached items; returns True when interrupted.

        Failures are isolated per item: an attempt that raises, times out
        or dies with its worker is retried with backoff, and an item
        exhausting the retry budget quarantines its job instead of
        aborting the batch.  Completed items persist to the store even when
        a sibling seed failed or a shutdown arrived mid-batch, so resumed
        campaigns skip them.
        """
        engine = nn.engine.current()
        plan = faults.get_plan()
        tasks = [_JobTask(item.job, engine, tel is not None, plan)
                 for item in items]
        heartbeat = self._lease_heartbeat(
            [item.lease for item in items if item.lease is not None])
        with telemetry.span(
                "scheduler.execute",
                {"tasks": len(tasks)} if tel is not None else None):
            try:
                outcomes = self._execute(_run_job_task, tasks, heartbeat)
            except BaseException:
                # Transport failure (e.g. NoWorkersError): release every
                # claimed lease so a resuming campaign need not wait out
                # the staleness deadline.
                for item in items:
                    self._release(item)
                raise
        if tel is not None:
            # Order-preserving merge of worker-captured events: the same
            # contract results get, so serial and N-worker executions
            # yield identical event streams modulo timestamps and pids.
            for outcome in outcomes:
                if outcome.ok and outcome.value is not None:
                    _, events = outcome.value
                    if events:
                        tel.extend(events)

        interrupted = False
        for item, outcome in zip(items, outcomes):
            try:
                interrupted = self._settle(item, outcome, tel) or interrupted
            finally:
                self._release(item)
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

    def _settle(self, item: _Item, outcome: TaskOutcome,
                tel: Optional[telemetry.Telemetry]) -> bool:
        """Record one item's outcome and persist its run.

        Returns True when the item was interrupted mid-shutdown — it then
        stays unsettled, and so does its job.
        """
        job = item.job
        attrs = {"design": _job_label(job), "environment": job.environment}
        item.attempts = outcome.attempts
        if tel is not None and outcome.attempts > 1:
            tel.counter("job.retry", outcome.attempts - 1, attrs=attrs)
        if outcome.status == "interrupted":
            if tel is not None:
                tel.counter("job.interrupted", attrs=attrs)
            return True
        if not outcome.ok:
            item.error = outcome.error or "unknown failure"
            return False
        (item.run,), _ = outcome.value
        if item.key is not None:
            with telemetry.span("job.persist",
                                attrs if tel is not None else None):
                self._persist(item)
            if tel is not None:
                tel.counter("scheduler.jobs.persisted")
        if tel is not None:
            tel.counter("scheduler.jobs.trained")
            self._record_training_series(tel, job, [item.run])
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
