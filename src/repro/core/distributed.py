"""Distributed campaign transport: pull-based remote workers over TCP.

PR 7 landed the *coordination* half of multi-host campaigns — verified-CAS
:class:`~repro.core.results.ResultStore` puts and ``pid@host`` leases make N
processes sharing one store execute each (context, design, seed) exactly
once.  This module is the *transport* half: a coordinator/worker executor
that plugs in behind :meth:`CampaignScheduler.run` (``--backend remote``)
so the processes doing the work no longer need to share a filesystem-level
scheduler at all — they pull jobs over a socket.

Protocol (JSON lines over TCP, one message per line)::

    worker → coordinator   HELLO     {protocol, worker}
    coordinator → worker   WELCOME   {protocol, heartbeat_s, idle_s}
                           REJECT    {reason}           (version mismatch)
    worker → coordinator   LEASE     {}                 (give me work)
    coordinator → worker   JOB       {job, epoch, attempt, key, payload}
                           IDLE      {retry_s}          (nothing ready)
                           BYE       {}                 (shutting down)
    worker → coordinator   HEARTBEAT {job, epoch}       (on an interval)
    worker → coordinator   RESULT    {job, epoch, ok, payload | error}
    worker → coordinator   BYE       {}

Payloads are pickled and base64-armoured — workers are subprocesses this
process launched (``repro worker --connect host:port``), not an untrusted
surface.  Jobs are *pulled*: a fast worker simply leases more often, which
is work-stealing with no extra machinery.  Results are slotted back into
submission order, so the scheduler's order-preserving telemetry merge (the
PR 6 contract: serial and N-worker event streams identical modulo
timestamps/pids) holds regardless of network arrival order.

Failure semantics — every path is injectable via :mod:`repro.core.faults`
(``rpc.conn_drop``, ``rpc.worker_crash``, ``rpc.heartbeat_loss``,
``rpc.result_delay``):

* A worker whose connection drops or whose process dies has its in-flight
  job requeued, charged one attempt under the usual retry/backoff budget.
* A worker that stops heartbeating past ``heartbeat_timeout_s`` is treated
  as dead: its assignment is revoked and requeued, but the socket is left
  open — if the worker was merely wedged, its eventual stale RESULT arrives
  carrying the *old* assignment epoch and is **fenced** (counted, dropped),
  never merged.  Exactly-once of the persisted record is enforced a second
  time at the store: :meth:`ResultStore.put_run` drops a put whose lease
  was stolen while the job was away (lease epochs, ``fenced_puts``).
* Worker subprocesses that exit are respawned (up to
  ``max_respawns``) while work remains.
* If the worker pool empties and nobody reconnects within
  ``worker_deadline_s``, the batch degrades per ``fallback``: ``"local"``
  executes the unfinished items in-process (carrying over their attempt
  counts), ``"fail"`` raises :class:`NoWorkersError` so the campaign exits
  with a resume-from-store message instead of hanging.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from ..log import get_logger
from . import faults, telemetry
from .parallel import ParallelConfig, TaskOutcome, run_resilient

__all__ = [
    "PROTOCOL_VERSION",
    "NoWorkersError",
    "RemoteConfig",
    "RemoteExecutor",
    "run_worker",
]

logger = get_logger("distributed")

#: Bumped whenever a message gains or loses a required field.  A worker
#: whose version differs is rejected at HELLO instead of failing mid-job.
PROTOCOL_VERSION = 1


class NoWorkersError(RuntimeError):
    """Every remote worker is gone and ``fallback="fail"`` forbids local
    execution; completed work was persisted, resume from the store."""


@dataclass(frozen=True)
class RemoteConfig:
    """Transport tuning for :class:`RemoteExecutor`.

    Attributes:
        host: Interface the coordinator binds (and workers dial).
        port: Coordinator port; 0 lets the OS pick (read it back from
            :attr:`RemoteExecutor.address`).
        heartbeat_interval_s: How often an executing worker heartbeats.
        heartbeat_timeout_s: Silence beyond this revokes the assignment —
            the job requeues and any late RESULT from the old epoch is
            fenced.
        worker_deadline_s: How long the coordinator tolerates an *empty*
            worker pool mid-batch before degrading per ``fallback``.
        poll_interval_s: Coordinator supervision-loop tick.
        idle_retry_s: How long an idle worker waits between LEASE polls.
        fallback: ``"local"`` finishes an abandoned batch in-process;
            ``"fail"`` raises :class:`NoWorkersError` instead.
        max_respawns: Worker subprocesses respawned after unexpected exits
            (crashed workers count) before the pool is allowed to shrink.
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 10.0
    worker_deadline_s: float = 30.0
    poll_interval_s: float = 0.05
    idle_retry_s: float = 0.1
    fallback: str = "local"
    max_respawns: int = 4

    def __post_init__(self) -> None:
        if self.fallback not in ("local", "fail"):
            raise ValueError("fallback must be 'local' or 'fail'")


# --------------------------------------------------------------------------- #
# Wire helpers.
# --------------------------------------------------------------------------- #
def _encode(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _send(wfile: IO[str], message: Dict[str, Any],
          lock: Optional[threading.Lock] = None) -> None:
    line = json.dumps(message) + "\n"
    if lock is not None:
        with lock:
            wfile.write(line)
            wfile.flush()
    else:
        wfile.write(line)
        wfile.flush()


def _recv(rfile: IO[str]) -> Optional[Dict[str, Any]]:
    line = rfile.readline()
    if not line:
        return None
    return json.loads(line)


def _item_fault_key(item: Any, index: int) -> str:
    """The key rpc fault rules match against for one work item."""
    key_fn = getattr(item, "fault_key", None)
    if callable(key_fn):
        try:
            return str(key_fn())
        except Exception:  # noqa: BLE001 - fault keys must never break dispatch
            pass
    return f"item{index}"


# --------------------------------------------------------------------------- #
# Coordinator.
# --------------------------------------------------------------------------- #
class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    __slots__ = ("name", "conn", "rfile", "wfile", "last_seen", "alive")

    def __init__(self, name: str, conn: socket.socket,
                 rfile: IO[str], wfile: IO[str]) -> None:
        self.name = name
        self.conn = conn
        self.rfile = rfile
        self.wfile = wfile
        self.last_seen = time.monotonic()
        self.alive = True


class _Batch:
    """One :meth:`RemoteExecutor.run` call's shared dispatch state."""

    def __init__(self, fn: Callable[..., Any], items: List[Any],
                 config: ParallelConfig) -> None:
        self.fn = fn
        self.items = items
        self.config = config
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
        self.failures = [0] * len(items)
        self.ready_at = [0.0] * len(items)
        self.epochs = [0] * len(items)
        self.queue: List[int] = list(range(len(items)))
        #: index -> (worker name, assignment epoch) for in-flight jobs.
        self.running: Dict[int, Tuple[str, int]] = {}
        self.dispatched = 0
        self.fenced = 0
        self.requeued = 0
        self.heartbeat_timeouts = 0
        self.fallback_local = 0
        #: Indices in RESULT-acceptance order (tests assert arrival shuffles
        #: do not leak into the submission-order merge).
        self.result_order: List[int] = []

    def done(self) -> bool:
        return all(outcome is not None for outcome in self.outcomes)


class RemoteExecutor:
    """Coordinator: serves pulled jobs to ``repro worker`` subprocesses.

    Duck-types the one method the scheduler needs —
    ``run(fn, items, config, should_stop=None, heartbeat=None)`` returning
    submission-ordered :class:`TaskOutcome`s — so it drops in where
    :func:`run_resilient` runs today.
    """

    def __init__(self, config: Optional[RemoteConfig] = None) -> None:
        self.config = config or RemoteConfig()
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerConn] = {}
        self._procs: List[subprocess.Popen] = []
        self._worker_cmd: Optional[List[str]] = None
        self._worker_env: Optional[Dict[str, str]] = None
        self._batch: Optional[_Batch] = None
        self._closed = False
        self._respawns_left = self.config.max_respawns
        self._name_counter = 0
        #: Statistics of the most recent :meth:`run` call (tests/benches).
        self.last_stats: Dict[str, Any] = {}
        #: Cumulative connection accounting across the executor's lifetime.
        self.workers_connected = 0
        self.workers_lost = 0
        self.workers_respawned = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((self.config.host, self.config.port))
        self._server.listen(64)
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True,
                                               name="repro-rpc-accept")
        self._accept_thread.start()
        logger.info("coordinator listening on %s:%d", *self.address)

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.getsockname()[:2]
        return str(host), int(port)

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    # ------------------------------------------------------------------ #
    # Worker subprocess lifecycle.
    # ------------------------------------------------------------------ #
    def launch_workers(self, count: int,
                       extra_path: Optional[str] = None) -> None:
        """Spawn ``count`` ``repro worker`` subprocesses dialing us.

        ``extra_path`` is appended to the workers' ``PYTHONPATH`` (tests use
        it so functions defined in a test module unpickle worker-side).
        """
        host, port = self.address
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        paths = [src_root]
        if extra_path:
            paths.append(str(extra_path))
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self._worker_cmd = [sys.executable, "-m", "repro", "worker",
                            "--connect", f"{host}:{port}", "--quiet"]
        self._worker_env = env
        for _ in range(count):
            self._procs.append(subprocess.Popen(self._worker_cmd, env=env))
        logger.info("launched %d worker subprocess(es) against %s:%d",
                    count, host, port)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers completed HELLO, or timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.worker_count() >= count:
                return True
            time.sleep(0.02)
        return self.worker_count() >= count

    def _reap_and_respawn(self) -> None:
        """Restart worker subprocesses that exited while work remains."""
        exited = [proc for proc in self._procs if proc.poll() is not None]
        if not exited:
            return
        for proc in exited:
            self._procs.remove(proc)
            logger.warning("worker subprocess pid %d exited with code %s",
                           proc.pid, proc.returncode)
        if self._closed or self._worker_cmd is None:
            return
        with self._lock:
            work_remains = self._batch is not None and not self._batch.done()
        if not work_remains:
            return
        for _ in exited:
            if self._respawns_left <= 0:
                logger.warning("respawn budget exhausted; pool stays smaller")
                return
            self._respawns_left -= 1
            self._procs.append(subprocess.Popen(self._worker_cmd,
                                                env=self._worker_env))
            self.workers_respawned += 1
            telemetry.counter("rpc.worker_respawned")
            logger.info("respawned a worker subprocess (%d respawn(s) left)",
                        self._respawns_left)

    # ------------------------------------------------------------------ #
    # Connection handling (one thread per worker).
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # server socket closed
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True, name="repro-rpc-worker").start()

    def _serve_conn(self, conn: socket.socket) -> None:
        rfile = conn.makefile("r", encoding="utf-8", newline="\n")
        wfile = conn.makefile("w", encoding="utf-8", newline="\n")
        worker: Optional[_WorkerConn] = None
        try:
            # Messages are small request/reply lines: with Nagle on, a JOB
            # reply or a RESULT tail can wait for the peer's delayed ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = _recv(rfile)
            if (not isinstance(hello, dict) or hello.get("type") != "HELLO"
                    or hello.get("protocol") != PROTOCOL_VERSION):
                got = hello.get("protocol") if isinstance(hello, dict) else None
                telemetry.counter("rpc.reject")
                logger.warning("rejecting worker: protocol %r != %d",
                               got, PROTOCOL_VERSION)
                _send(wfile, {"type": "REJECT",
                              "reason": f"protocol {got!r} unsupported; "
                                        f"coordinator speaks "
                                        f"{PROTOCOL_VERSION}"})
                return
            name = str(hello.get("worker") or "worker")
            with self._lock:
                self._name_counter += 1
                if name in self._workers:
                    name = f"{name}#{self._name_counter}"
                worker = _WorkerConn(name, conn, rfile, wfile)
                self._workers[name] = worker
                self.workers_connected += 1
            telemetry.counter("rpc.worker_connected")
            logger.info("worker %s connected", name)
            _send(wfile, {"type": "WELCOME", "protocol": PROTOCOL_VERSION,
                          "heartbeat_s": self.config.heartbeat_interval_s,
                          "idle_s": self.config.idle_retry_s})
            while True:
                message = _recv(rfile)
                if message is None or message.get("type") == "BYE":
                    return
                worker.last_seen = time.monotonic()
                kind = message.get("type")
                if kind == "LEASE":
                    _send(wfile, self._next_job(worker))
                elif kind == "RESULT":
                    self._take_result(worker, message)
                # HEARTBEAT only refreshes last_seen (already done above).
        except (OSError, ValueError, json.JSONDecodeError):
            pass  # dropped/garbled connection: cleanup below requeues
        finally:
            self._drop_worker(worker)
            try:
                conn.close()
            except OSError:
                pass

    def _next_job(self, worker: _WorkerConn) -> Dict[str, Any]:
        with self._lock:
            if self._closed:
                return {"type": "BYE"}
            batch = self._batch
            now = time.monotonic()
            if batch is not None:
                for slot, index in enumerate(batch.queue):
                    if batch.ready_at[index] <= now:
                        batch.queue.pop(slot)
                        batch.epochs[index] += 1
                        epoch = batch.epochs[index]
                        batch.running[index] = (worker.name, epoch)
                        batch.dispatched += 1
                        payload = _encode((batch.fn, batch.items[index]))
                        telemetry.counter("rpc.job_dispatched")
                        telemetry.counter("rpc.job_bytes", len(payload))
                        return {
                            "type": "JOB",
                            "job": index,
                            "epoch": epoch,
                            "attempt": batch.failures[index],
                            "key": _item_fault_key(batch.items[index], index),
                            "payload": payload,
                        }
                retry = self.config.idle_retry_s
                if batch.queue:
                    soonest = min(batch.ready_at[i] for i in batch.queue)
                    retry = min(max(soonest - now, 0.01), retry)
            else:
                retry = self.config.idle_retry_s
        return {"type": "IDLE", "retry_s": retry}

    def _take_result(self, worker: _WorkerConn,
                     message: Dict[str, Any]) -> None:
        with self._lock:
            batch = self._batch
            index = int(message.get("job", -1))
            epoch = int(message.get("epoch", -1))
            if (batch is None or not 0 <= index < len(batch.items)
                    or batch.running.get(index) != (worker.name, epoch)):
                if batch is not None:
                    batch.fenced += 1
                telemetry.counter("rpc.result_fenced")
                logger.warning(
                    "fenced stale RESULT for job %d epoch %d from %s "
                    "(assignment revoked or re-dispatched)",
                    index, epoch, worker.name)
                return
            batch.running.pop(index)
            if message.get("ok"):
                try:
                    value = _decode(message["payload"])
                except Exception as exc:  # noqa: BLE001 - corrupt payload
                    self._charge_locked(batch, index,
                                        f"undecodable RESULT payload: {exc!r}")
                    return
                batch.outcomes[index] = TaskOutcome(
                    value=value, attempts=batch.failures[index] + 1)
                batch.result_order.append(index)
                telemetry.counter("rpc.result")
                telemetry.counter("rpc.result_bytes", len(message["payload"]))
            else:
                self._charge_locked(batch, index,
                                    str(message.get("error")
                                        or "remote execution failed"))

    def _charge_locked(self, batch: _Batch, index: int, error: str) -> None:
        """Charge one failure to ``index``; requeue or quarantine.

        Caller holds ``self._lock``.
        """
        batch.failures[index] += 1
        attempts = batch.failures[index]
        logger.warning("remote work item %d failed (attempt %d/%d): %s",
                       index, attempts, batch.config.max_retries + 1, error)
        if attempts > batch.config.max_retries:
            batch.outcomes[index] = TaskOutcome(status="quarantined",
                                                attempts=attempts,
                                                error=error)
            batch.result_order.append(index)
        else:
            batch.ready_at[index] = (time.monotonic()
                                     + batch.config.backoff_s(attempts))
            batch.queue.append(index)
            batch.queue.sort()

    def _drop_worker(self, worker: Optional[_WorkerConn]) -> None:
        if worker is None:
            return
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.name, None)
            self.workers_lost += 1
            batch = self._batch
            if batch is not None:
                for index, (name, _) in list(batch.running.items()):
                    if name != worker.name:
                        continue
                    batch.running.pop(index)
                    batch.requeued += 1
                    telemetry.counter("rpc.requeued")
                    self._charge_locked(
                        batch, index,
                        f"worker {worker.name} lost mid-job "
                        "(connection dropped or process died)")
        telemetry.counter("rpc.worker_lost")
        if self._closed:
            logger.info("worker %s disconnected at shutdown", worker.name)
        else:
            logger.warning("worker %s lost", worker.name)

    def _check_heartbeats(self) -> None:
        """Revoke assignments whose worker went silent; leave sockets open.

        A merely-wedged worker will eventually send a RESULT carrying the
        revoked epoch — that is the fencing path, and we *want* the message
        to arrive so it can be counted and dropped rather than racing a
        re-execution.
        """
        timeout = self.config.heartbeat_timeout_s
        now = time.monotonic()
        with self._lock:
            batch = self._batch
            if batch is None:
                return
            for index, (name, _) in list(batch.running.items()):
                worker = self._workers.get(name)
                if worker is None or now - worker.last_seen <= timeout:
                    continue
                batch.running.pop(index)
                batch.heartbeat_timeouts += 1
                batch.requeued += 1
                telemetry.counter("rpc.heartbeat_timeout")
                telemetry.counter("rpc.requeued")
                self._charge_locked(
                    batch, index,
                    f"worker {name} missed heartbeats for "
                    f"{now - worker.last_seen:.1f}s (deadline {timeout:.1f}s)")

    # ------------------------------------------------------------------ #
    # Batch execution.
    # ------------------------------------------------------------------ #
    def run(self, fn: Callable[..., Any], items: Sequence[Any],
            config: Optional[ParallelConfig] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            heartbeat: Optional[Callable[[], None]] = None,
            ) -> List[TaskOutcome]:
        """Execute ``fn(item, attempt)`` for every item on the worker fleet.

        Blocks until every item has a terminal :class:`TaskOutcome` (ok /
        quarantined / interrupted), supervising heartbeats, respawns and
        pool-empty degradation from the calling thread.  ``heartbeat`` (the
        scheduler's store-lease refresher) is invoked on every supervision
        tick, so leases held for remote jobs stay visibly alive.
        """
        config = config or ParallelConfig()
        items = list(items)
        if not items:
            self.last_stats = {"dispatched": 0, "requeued": 0, "fenced": 0,
                               "heartbeat_timeouts": 0, "fallback_local": 0,
                               "result_order": []}
            return []
        batch = _Batch(fn, items, config)
        with self._lock:
            if self._batch is not None:
                raise RuntimeError("RemoteExecutor.run is not reentrant")
            if self._closed:
                raise RuntimeError("RemoteExecutor is closed")
            self._batch = batch
        empty_since: Optional[float] = None
        try:
            while True:
                with self._lock:
                    finished = batch.done()
                    alive = len(self._workers)
                if finished:
                    break
                if should_stop is not None and should_stop():
                    self._drain(batch)
                    break
                if heartbeat is not None:
                    heartbeat()
                self._reap_and_respawn()
                self._check_heartbeats()
                if alive == 0:
                    if empty_since is None:
                        empty_since = time.monotonic()
                    elif (time.monotonic() - empty_since
                          > self.config.worker_deadline_s):
                        self._degrade(batch, should_stop, heartbeat)
                        break
                else:
                    empty_since = None
                time.sleep(self.config.poll_interval_s)
        finally:
            with self._lock:
                self._batch = None
            self.last_stats = {
                "dispatched": batch.dispatched,
                "requeued": batch.requeued,
                "fenced": batch.fenced,
                "heartbeat_timeouts": batch.heartbeat_timeouts,
                "fallback_local": batch.fallback_local,
                "result_order": list(batch.result_order),
            }
        for index, outcome in enumerate(batch.outcomes):
            if outcome is None:
                batch.outcomes[index] = TaskOutcome(
                    status="interrupted", attempts=batch.failures[index],
                    error="shutdown requested")
        return batch.outcomes  # type: ignore[return-value]

    def _degrade(self, batch: _Batch,
                 should_stop: Optional[Callable[[], bool]],
                 heartbeat: Optional[Callable[[], None]]) -> None:
        """Pool empty past the deadline: finish locally or fail loudly."""
        with self._lock:
            # Anything still marked running sat on a worker that is gone;
            # revoke so a zombie reconnect cannot race the local execution.
            for index in list(batch.running):
                batch.running.pop(index)
                batch.requeued += 1
            pending = [index for index, outcome in enumerate(batch.outcomes)
                       if outcome is None]
            batch.queue = []
        if not pending:
            return
        if self.config.fallback == "fail":
            raise NoWorkersError(
                f"all remote workers lost and none reconnected within "
                f"{self.config.worker_deadline_s:.1f}s; {len(pending)} "
                f"item(s) unfinished — completed work is in the store, "
                f"re-run to resume")
        batch.fallback_local += 1
        telemetry.counter("rpc.fallback_local")
        logger.warning(
            "all remote workers lost for %.1fs; finishing %d item(s) "
            "locally", self.config.worker_deadline_s, len(pending))
        outcomes = run_resilient(
            batch.fn, [batch.items[index] for index in pending],
            batch.config, should_stop=should_stop, heartbeat=heartbeat,
            initial_failures=[batch.failures[index] for index in pending])
        with self._lock:
            for index, outcome in zip(pending, outcomes):
                if batch.outcomes[index] is None:
                    batch.outcomes[index] = outcome
                    batch.result_order.append(index)

    def _drain(self, batch: _Batch) -> None:
        """Graceful stop: wait briefly for in-flight work, then give up."""
        grace = batch.config.job_timeout or 60.0
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._lock:
                if not batch.running:
                    return
                batch.queue = []
            time.sleep(self.config.poll_interval_s)

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Tell workers to exit, reap subprocesses, close the socket."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        self._procs.clear()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Worker side (`repro worker --connect host:port`).
# --------------------------------------------------------------------------- #
def _connect(host: str, port: int, attempts: int,
             delay_s: float) -> Optional[socket.socket]:
    for attempt in range(attempts):
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if attempt == attempts - 1:
                return None
            time.sleep(delay_s)
    return None


def _heartbeat_loop(wfile: IO[str], wlock: threading.Lock, job: int,
                    epoch: int, interval_s: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            _send(wfile, {"type": "HEARTBEAT", "job": job, "epoch": epoch},
                  wlock)
        except OSError:
            return


def _execute_job(message: Dict[str, Any], wfile: IO[str],
                 wlock: threading.Lock, heartbeat_s: float) -> str:
    """Run one JOB message; returns "done" or "drop" (simulate conn loss)."""
    job = int(message["job"])
    epoch = int(message["epoch"])
    attempt = int(message.get("attempt", 0))
    key = str(message.get("key", ""))
    fn, item = _decode(message["payload"])
    # The active fault plan rides inside the work item (like the scheduler's
    # engine configuration); install it — or clear a predecessor's — before
    # consulting any rpc site so injection is placement-independent.
    faults.install_plan(getattr(item, "fault_plan", None))
    if faults.rpc_rule("rpc.worker_crash", key, attempt) is not None:
        logger.warning("fault: worker pid %d crashing on %s (attempt %d)",
                       os.getpid(), key, attempt)
        sys.stderr.flush()
        os._exit(66)
    if faults.rpc_rule("rpc.conn_drop", key, attempt) is not None:
        logger.warning("fault: dropping coordinator connection on %s "
                       "(attempt %d)", key, attempt)
        return "drop"
    loss = faults.rpc_rule("rpc.heartbeat_loss", key, attempt)
    stop = threading.Event()
    beater: Optional[threading.Thread] = None
    if loss is None:
        beater = threading.Thread(
            target=_heartbeat_loop,
            args=(wfile, wlock, job, epoch, heartbeat_s, stop), daemon=True)
        beater.start()
    elif loss.delay_s > 0:
        # Go silent long enough for the coordinator's deadline to pass, so
        # the eventual RESULT below exercises the fencing path.
        logger.warning("fault: suppressing heartbeats and stalling %.1fs on "
                       "%s (attempt %d)", loss.delay_s, key, attempt)
        time.sleep(loss.delay_s)
    try:
        try:
            value = fn(item, attempt)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            reply: Dict[str, Any] = {"type": "RESULT", "job": job,
                                     "epoch": epoch, "ok": False,
                                     "error": f"{type(exc).__name__}: {exc}"}
        else:
            reply = {"type": "RESULT", "job": job, "epoch": epoch,
                     "ok": True, "payload": _encode(value)}
        delay = faults.rpc_rule("rpc.result_delay", key, attempt)
        if delay is not None and delay.delay_s > 0:
            # Heartbeats keep flowing (the thread outlives the compute), so
            # only the RESULT arrival order shuffles — not liveness.
            time.sleep(delay.delay_s)
        _send(wfile, reply, wlock)
    finally:
        stop.set()
        if beater is not None:
            beater.join(timeout=2.0)
    return "done"


def _serve_session(sock: socket.socket) -> str:
    """One connected session; returns "bye", "drop", "lost" or "reject"."""
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see _serve_conn
    rfile = sock.makefile("r", encoding="utf-8", newline="\n")
    wfile = sock.makefile("w", encoding="utf-8", newline="\n")
    wlock = threading.Lock()
    _send(wfile, {"type": "HELLO", "protocol": PROTOCOL_VERSION,
                  "worker": f"{os.getpid()}@{socket.gethostname()}"}, wlock)
    welcome = _recv(rfile)
    if not isinstance(welcome, dict) or welcome.get("type") != "WELCOME":
        reason = (welcome or {}).get("reason") if isinstance(welcome, dict) \
            else None
        logger.error("coordinator rejected us: %s", reason or "no WELCOME")
        return "reject"
    heartbeat_s = float(welcome.get("heartbeat_s", 0.5))
    idle_s = float(welcome.get("idle_s", 0.1))
    while True:
        _send(wfile, {"type": "LEASE"}, wlock)
        message = _recv(rfile)
        if message is None:
            return "lost"
        kind = message.get("type")
        if kind == "BYE":
            return "bye"
        if kind == "IDLE":
            time.sleep(float(message.get("retry_s", idle_s)))
        elif kind == "JOB":
            if _execute_job(message, wfile, wlock, heartbeat_s) == "drop":
                return "drop"


def run_worker(host: str, port: int, connect_attempts: int = 20,
               connect_delay_s: float = 0.25) -> int:
    """Worker main loop: dial the coordinator, pull jobs until BYE.

    Reconnects after injected connection drops and after losing the
    coordinator (which may be between batches or restarting).  Returns a
    process exit code: 0 after an orderly BYE, 1 when the coordinator was
    never reachable, 2 on protocol rejection.
    """
    served_once = False
    while True:
        sock = _connect(host, port, connect_attempts, connect_delay_s)
        if sock is None:
            if served_once:
                logger.info("coordinator gone; exiting")
                return 0
            logger.error("could not reach coordinator at %s:%d", host, port)
            return 1
        try:
            outcome = _serve_session(sock)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if outcome == "bye":
            return 0
        if outcome == "reject":
            return 2
        served_once = True
        # "drop" (injected) and "lost" both retry the dial loop.
