"""Failure-isolated execution of independent evaluation work items.

The §3.1 protocol is embarrassingly parallel: every (design, seed) training
session is an independent, deterministic function of its inputs.  This module
provides the one entry point the evaluation layer needs —
:func:`run_resilient`, an order-preserving map with retries, quarantine and
graceful shutdown — plus the configuration dataclass that is plumbed from the
CLI (``--workers``) down to :class:`~repro.core.evaluation.TestScoreProtocol`.

There is one failure model and one place its per-item state lives: the
:class:`Ledger`.  Serial execution drives the ledger in-process; fan-out over
more than one worker opens a loopback
:class:`~repro.core.distributed.RemoteExecutor` coordinator with forked local
workers, which drives the very same ledger from its dispatch loop.

Design constraints:

* **Determinism.** Results are returned in submission order, and each work
  item runs exactly the same code it would run serially, so a parallel sweep
  is bit-identical to the serial one regardless of scheduling.
* **Graceful degradation.** ``max_workers <= 1`` (the default) runs inline
  with zero overhead; if the loopback coordinator or its workers cannot be
  started (restricted sandboxes) the batch falls back to the serial path with
  a warning instead of failing the experiment.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from ..log import get_logger
from . import telemetry

__all__ = ["Ledger", "ParallelConfig", "TaskOutcome", "effective_workers",
           "run_resilient"]

T = TypeVar("T")
R = TypeVar("R")

logger = get_logger("parallel")

#: Environment variable consulted when ``max_workers`` is None.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Fan out only batches of at least this many work items; smaller ones are
#: not worth the worker start-up cost.
CHUNK_THRESHOLD = 2

#: Growth factor of the retry delay (exponential backoff).
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class ParallelConfig:
    """How evaluation work items are executed.

    Attributes:
        max_workers: Worker processes for fan-out.  ``None`` reads
            :data:`WORKERS_ENV_VAR` (defaulting to 1); any value <= 1 runs
            serially in-process.
        max_retries: How many times :func:`run_resilient` re-runs a failing
            work item (raise, worker death, timeout) before quarantining it.
            0 fails fast on the first error.
        backoff_base_s: First retry delay; each further retry multiplies it
            by :data:`BACKOFF_FACTOR`.
        job_timeout: Seconds one work item may hold a worker assignment
            before it is revoked, charged as failed and retried; a worker
            the executor launched itself is then replaced.  None disables
            the limit.  Enforced on every fan-out (local workers and remote
            ones); a serial in-process job cannot be preempted.
    """

    max_workers: Optional[int] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    job_timeout: Optional[float] = None

    def resolved_workers(self) -> int:
        return effective_workers(self.max_workers)

    def backoff_s(self, failures: int) -> float:
        """Delay before the ``failures``-th retry (1-based)."""
        return self.backoff_base_s * (BACKOFF_FACTOR ** max(0, failures - 1))


@dataclass
class TaskOutcome:
    """Terminal state of one resilient work item.

    ``status`` is ``"ok"`` (``value`` holds the result), ``"quarantined"``
    (every attempt failed; ``error`` holds the last failure) or
    ``"interrupted"`` (a shutdown request arrived before the item could
    finish).
    """

    value: Any = None
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def effective_workers(max_workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else env var, else serial."""
    if max_workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            max_workers = int(raw)
        except ValueError:
            warnings.warn(f"ignoring non-integer {WORKERS_ENV_VAR}={raw!r}")
            max_workers = 1
    if max_workers < 0:
        max_workers = os.cpu_count() or 1
    return max(1, max_workers)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Ledger:
    """Per-item state of one batch, shared by every execution path.

    ``failures[i]`` counts the attempts charged to item ``i``, so it is also
    the zero-based attempt index of its next run.  Items wait in ``queue``
    (sorted by submission index) until their backoff deadline ``ready_at``
    passes; a terminal :class:`TaskOutcome` ends them.  ``finished`` lists
    items in the order they reached ``ok`` or ``quarantined``.  After
    :meth:`stop` nothing is handed out any more and every failure or queued
    item ends ``interrupted``.

    The ledger takes no lock: the serial path owns it alone, and the
    coordinator drives it from its one thread.
    """

    def __init__(self, fn: Callable[[Any, int], Any], items: Sequence[Any],
                 config: ParallelConfig) -> None:
        self.fn = fn
        self.items = list(items)
        self.config = config
        count = len(self.items)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * count
        self.failures = [0] * count
        self.ready_at = [0.0] * count
        self.queue: List[int] = list(range(count))
        self.finished: List[int] = []
        self.stopped = False
        self._open = count

    def done(self) -> bool:
        return self._open == 0

    def take_ready(self, now: float) -> Optional[int]:
        """Pop the first queued item whose backoff has passed, if any."""
        if self.stopped:
            return None
        for slot, index in enumerate(self.queue):
            if self.ready_at[index] <= now:
                return self.queue.pop(slot)
        return None

    def next_ready_at(self) -> Optional[float]:
        return min((self.ready_at[index] for index in self.queue),
                   default=None)

    def requeue(self, index: int) -> None:
        """Put an item back without charging it an attempt."""
        self.queue.append(index)
        self.queue.sort()

    def succeed(self, index: int, value: Any) -> None:
        self._finish(index, TaskOutcome(value=value,
                                        attempts=self.failures[index] + 1))
        self.finished.append(index)

    def charge(self, index: int, error: str) -> None:
        """Charge one failed attempt: retry after backoff, or quarantine."""
        self.failures[index] += 1
        attempts = self.failures[index]
        logger.warning("work item %d failed (attempt %d/%d): %s", index,
                       attempts, self.config.max_retries + 1, error)
        if self.stopped:
            self.interrupt(index, attempts, error)
        elif attempts > self.config.max_retries:
            self._finish(index, TaskOutcome(status="quarantined",
                                            attempts=attempts, error=error))
            self.finished.append(index)
        else:
            self.ready_at[index] = (time.monotonic()
                                    + self.config.backoff_s(attempts))
            self.requeue(index)

    def interrupt(self, index: int, attempts: int, error: str) -> None:
        self._finish(index, TaskOutcome(status="interrupted",
                                        attempts=attempts, error=error))

    def stop(self) -> None:
        """Shutdown requested: hand out nothing more, interrupt the queue."""
        self.stopped = True
        for index in self.queue:
            self.interrupt(index, self.failures[index], "shutdown requested")
        self.queue = []

    def results(self) -> List[TaskOutcome]:
        """Submission-ordered outcomes; unfinished items are interrupted."""
        for index, outcome in enumerate(self.outcomes):
            if outcome is None:
                self.interrupt(index, self.failures[index],
                               "shutdown requested while running")
        return self.outcomes  # type: ignore[return-value]

    def _finish(self, index: int, outcome: TaskOutcome) -> None:
        if self.outcomes[index] is None:
            self._open -= 1
        self.outcomes[index] = outcome


def run_resilient(fn: Callable[[T, int], R], items: Sequence[T],
                  config: Optional[ParallelConfig] = None,
                  should_stop: Optional[Callable[[], bool]] = None,
                  heartbeat: Optional[Callable[[], None]] = None,
                  ) -> List[TaskOutcome]:
    """Map ``fn(item, attempt)`` over ``items`` with failure isolation.

    Used by the campaign scheduler.  One raising, hanging or crashing work
    item does not poison the batch:

    * an item whose attempt raises, whose worker dies, or whose assignment
      outlives ``config.job_timeout`` is retried with exponential backoff
      up to ``config.max_retries`` times, then **quarantined** — the batch
      completes with a per-item :class:`TaskOutcome` instead of a
      traceback;
    * ``should_stop`` (polled between attempts and supervision ticks)
      requests a graceful shutdown: running work is drained, unstarted work
      is marked ``"interrupted"``, and whatever completed is returned.

    With more than one worker the batch runs on a loopback
    :class:`~repro.core.distributed.RemoteExecutor` whose
    :meth:`~repro.core.distributed.RemoteExecutor.launch_workers` forks the
    workers from this process, so they inherit every imported module.  The
    coordinator and its workers are closed when the batch ends.

    ``fn`` receives the zero-based attempt index alongside the item so
    deterministic fault plans can key off it.  Outcomes preserve submission
    order, and retried attempts run exactly the code a first attempt runs,
    so recovered results are bit-identical to undisturbed ones.
    """
    config = config or ParallelConfig()
    ledger = Ledger(fn, items, config)
    workers = min(config.resolved_workers(), len(ledger.items))
    tel = telemetry.get_telemetry()
    attrs = ({"items": len(ledger.items), "workers": max(workers, 1)}
             if tel is not None else None)
    with telemetry.span("executor.batch", attrs):
        if workers <= 1 or len(ledger.items) < CHUNK_THRESHOLD:
            return run_serial(ledger, should_stop, heartbeat)
        from .distributed import RemoteConfig, RemoteExecutor

        executor = None
        try:
            # Every charged attempt costs at most one worker, which bounds
            # the respawns the batch can need.
            executor = RemoteExecutor(RemoteConfig(
                max_respawns=len(ledger.items) * (config.max_retries + 1)))
            executor.launch_workers(workers)
        except OSError as exc:
            if executor is not None:
                executor.close()
            logger.warning("local workers unavailable (%r); falling back to "
                           "serial execution", exc)
            warnings.warn(f"local workers unavailable ({exc!r}); falling "
                          f"back to serial execution")
            telemetry.counter("parallel.serial_fallback")
            return run_serial(ledger, should_stop, heartbeat)
        with executor:
            return executor._dispatch(ledger, should_stop, heartbeat)


def run_serial(ledger: Ledger,
               should_stop: Optional[Callable[[], bool]] = None,
               heartbeat: Optional[Callable[[], None]] = None,
               ) -> List[TaskOutcome]:
    """Drive ``ledger`` to completion in-process.

    ``heartbeat`` fires between attempts — the finest granularity available
    without preemption, which bounds lease staleness to one item's runtime.
    """
    while not ledger.done():
        if heartbeat is not None:
            heartbeat()
        if should_stop is not None and should_stop():
            ledger.stop()
            break
        index = ledger.take_ready(time.monotonic())
        if index is None:
            # Everything left is backing off.
            time.sleep(max(ledger.next_ready_at() - time.monotonic(), 0.0))
            continue
        try:
            value = ledger.fn(ledger.items[index], ledger.failures[index])
        except KeyboardInterrupt:
            # ^C (or SIGTERM translated by the scheduler) mid-job: the
            # current item is lost, the rest is drained as interrupted, and
            # the caller persists whatever completed.
            ledger.stop()
            ledger.interrupt(index, ledger.failures[index] + 1,
                             "interrupted mid-job")
            break
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            ledger.charge(index, _describe(exc))
        else:
            ledger.succeed(index, value)
    return ledger.results()
