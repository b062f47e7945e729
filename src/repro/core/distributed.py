"""The coordinator/worker executor: pull-based workers over TCP.

Every multi-worker batch runs here.  ``--backend remote`` keeps one
:class:`RemoteExecutor` for the whole campaign, and
:func:`~repro.core.parallel.run_resilient` with more than one worker opens a
loopback coordinator per batch.  Both start their local workers through
:meth:`RemoteExecutor.launch_workers`, which forks them from the coordinator
process, so they inherit every imported module instead of paying an
interpreter start; workers on other hosts join with
``repro worker --connect host:port``.  Both drive the same per-item
:class:`~repro.core.parallel.Ledger`, so serial, local and remote batches
share one failure model.  :class:`~repro.core.results.ResultStore` puts and
``pid@host`` leases keep the persisted records exactly-once on top.

The coordinator starts no thread.  It is one :mod:`selectors` loop that
runs in the calling thread while the executor is inside a call
(``launch_workers``, ``wait_for_workers``, ``run``, ``close``).  Each pass
accepts connections, reads the workers' JSON lines, answers them, hands
ready items to workers whose LEASE waits, and runs the supervision tick
(deadlines, respawns, pool-empty degradation, the store-lease heartbeat).
A worker that dials in or leases between calls waits for the next one.

Protocol (JSON lines over TCP, one message per line)::

    worker → coordinator   HELLO     {protocol, worker}
    coordinator → worker   WELCOME   {protocol, heartbeat_s}
                           REJECT    {reason}           (version mismatch)
    worker → coordinator   LEASE     {}                 (give me work)
    coordinator → worker   JOB       {job, epoch, attempt, key, payload}
                           BYE       {}                 (shutting down)
    worker → coordinator   HEARTBEAT {job, epoch}       (on an interval)
    worker → coordinator   RESULT    {job, epoch, ok, payload | error}
    worker → coordinator   BYE       {}

A LEASE waits for its answer, a JOB once an item is ready or a BYE once the
coordinator closes, however long that takes.
Payloads are pickled and base64-armoured — workers are processes this
process started (or an operator pointed at it), not an untrusted surface.
Jobs are *pulled*: a fast worker simply leases more often, which is
work-stealing with no extra machinery.  Results are slotted back into
submission order, so the scheduler's order-preserving telemetry merge
(serial and N-worker event streams identical modulo timestamps/pids) holds
regardless of network arrival order.

Failure semantics — every path is injectable via :mod:`repro.core.faults`
(``job.crash``, ``job.timeout``, ``rpc.conn_drop``, ``rpc.heartbeat_loss``,
``rpc.result_delay``):

* A worker whose connection drops or whose process dies has its in-flight
  job requeued, charged one attempt under the usual retry/backoff budget.
  A job that fails inside the worker, unpickling its payload included, is
  answered with a failed RESULT and costs no worker.
* An assignment that outlives ``job_timeout``, or whose worker stops
  heartbeating past ``heartbeat_timeout_s``, is revoked and charged.  The
  socket of a silent worker is left open — if it was merely wedged, its
  eventual stale RESULT arrives carrying the *old* assignment epoch and is
  **fenced** (counted, dropped), never merged.  A timed-out worker this
  executor launched is terminated and replaced.  Exactly-once of the
  persisted record is enforced a second time at the store:
  :meth:`ResultStore.put_run` drops a put whose lease was stolen while the
  job was away (lease epochs, ``fenced_puts``).
* Worker processes that exit before :meth:`RemoteExecutor.close` are
  respawned by fork (up to ``max_respawns``), the same way they first
  started.
* If the worker pool empties and nobody reconnects within
  ``worker_deadline_s``, the batch degrades per ``fallback``: ``"local"``
  finishes the unfinished items in-process on the same ledger (attempt
  counts carry over), ``"fail"`` raises :class:`NoWorkersError` so the
  campaign exits with a resume-from-store message instead of hanging.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import selectors
import signal
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
from .parallel import Ledger, ParallelConfig, TaskOutcome, run_serial

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
PROTOCOL_VERSION = 2

#: Most bytes one read takes off a worker connection.
_RECV_BYTES = 1 << 18


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
        poll_interval_s: Longest wait of the selector loop between
            supervision ticks; a connection, a message or a forked
            worker's exit ends the wait sooner.
        fallback: ``"local"`` finishes an abandoned batch in-process;
            ``"fail"`` raises :class:`NoWorkersError` instead.
        max_respawns: Worker processes respawned after unexpected exits
            (crashed or timed-out workers count) before the pool is allowed
            to shrink.
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 10.0
    worker_deadline_s: float = 30.0
    poll_interval_s: float = 0.05
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
          lock: threading.Lock) -> None:
    with lock:
        wfile.write(json.dumps(message) + "\n")
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
    """Coordinator-side state of one accepted connection.

    ``name`` stays None until the peer's HELLO is accepted; ``leasing`` is
    set while its LEASE waits for a JOB or a BYE.
    """

    __slots__ = ("conn", "buffer", "name", "last_seen", "leasing", "alive")

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.buffer = bytearray()
        self.name: Optional[str] = None
        self.last_seen = time.monotonic()
        self.leasing = False
        self.alive = True


class _Batch:
    """Transport state of one dispatched :class:`Ledger`."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.epochs = [0] * len(ledger.items)
        #: index -> (worker name, assignment epoch, dispatch time).
        self.running: Dict[int, Tuple[str, int, float]] = {}
        self.dispatched = 0
        self.fenced = 0
        self.requeued = 0
        self.heartbeat_timeouts = 0
        self.fallback_local = 0

    def stats(self) -> Dict[str, Any]:
        return {"dispatched": self.dispatched, "requeued": self.requeued,
                "fenced": self.fenced,
                "heartbeat_timeouts": self.heartbeat_timeouts,
                "fallback_local": self.fallback_local,
                #: Indices in acceptance order (tests assert arrival
                #: shuffles do not leak into the submission-order merge).
                "result_order": list(self.ledger.finished)}


class _ForkedWorker:
    """``subprocess.Popen``-style handle on a forked worker."""

    def __init__(self, process: Any) -> None:
        self.process = process
        self.pid = process.pid
        #: Readable once the process has exited.
        self.sentinel = process.sentinel

    def poll(self) -> Optional[int]:
        return self.process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self.process.join(timeout)
        if self.process.exitcode is None:
            raise subprocess.TimeoutExpired("repro worker", timeout)
        return self.process.exitcode

    def terminate(self) -> None:
        self.process.terminate()

    def kill(self) -> None:
        self.process.kill()


def _local_worker_main(host: str, port: int,
                       selector: selectors.BaseSelector) -> None:
    """Entry point of a forked local worker."""
    # The coordinator's listening socket, its connections and its selector
    # came along with the fork.  A listening copy left open here would
    # accept connections nobody serves, and a connection copy would hide
    # the coordinator's close from that peer.  Only the descriptors are
    # closed: unregistering would edit the epoll interest list, which the
    # parent shares.
    for key in list(selector.get_map().values()):
        if isinstance(key.fileobj, socket.socket):
            key.fileobj.close()
    selector.close()
    # The parent owns shutdown (and may have installed the scheduler's
    # handlers before forking): ^C drains through the coordinator, and a
    # timed-out worker must die on SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Jobs record into their own capture sinks; the inherited parent sink
    # is not this process's to write.
    telemetry.set_telemetry(None)
    sys.exit(run_worker(host, port))


def _worker_env(paths: Sequence[str]) -> Dict[str, str]:
    """This environment with ``paths`` in front of ``PYTHONPATH``."""
    env = dict(os.environ)
    paths = list(paths)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class RemoteExecutor:
    """Coordinator: serves pulled jobs to worker processes.

    Duck-types the one method the scheduler needs —
    ``run(fn, items, config, should_stop=None, heartbeat=None)`` returning
    submission-ordered :class:`TaskOutcome`s — so it drops in where
    :func:`~repro.core.parallel.run_resilient` runs.

    The coordinator is a selector loop in the calling thread, so it serves
    connections only inside :meth:`launch_workers`, :meth:`wait_for_workers`,
    :meth:`run` and :meth:`close`; a worker that dials in or leases between
    those calls is answered at the next one.
    """

    def __init__(self, config: Optional[RemoteConfig] = None) -> None:
        self.config = config or RemoteConfig()
        #: Connected workers (HELLO accepted) by name.
        self._workers: Dict[str, _WorkerConn] = {}
        self._procs: List[Any] = []
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
        try:
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind((self.config.host, self.config.port))
            self._server.listen(64)
            self._server.setblocking(False)
        except BaseException:
            self._server.close()
            raise
        #: Watches the listening socket (data None), every connection (its
        #: :class:`_WorkerConn`) and every forked worker's exit sentinel
        #: (its :class:`_ForkedWorker`).
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ)
        logger.info("coordinator listening on %s:%d", *self.address)

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.getsockname()[:2]
        return str(host), int(port)

    def worker_count(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------ #
    # Worker process lifecycle.
    # ------------------------------------------------------------------ #
    def launch_workers(self, count: int,
                       extra_path: Optional[str] = None) -> None:
        """Start ``count`` local workers dialing this coordinator.

        They start as respawns do, through :meth:`_start_worker`: forked
        from this process, so they inherit every imported module and start
        without an interpreter launch.  Where a worker has to start as a
        ``repro worker`` process instead, it imports from this process's
        ``sys.path`` with ``extra_path`` in front.
        """
        src_root = str(Path(__file__).resolve().parents[2])
        host, port = self.address
        self._worker_cmd = [sys.executable, "-m", "repro", "worker",
                            "--connect", f"{host}:{port}", "--quiet"]
        self._worker_env = _worker_env(
            [src_root] + ([str(extra_path)] if extra_path else [])
            + [path for path in sys.path if path])
        for _ in range(count):
            self._start_worker()
        logger.info("launched %d worker(s) against %s:%d", count, host, port)
        self._pump(0.0)

    def _start_worker(self) -> None:
        """Start one local worker, for a first start or a respawn.

        It is forked, a direct child that shares this process's modules,
        when ``fork`` exists and this process runs one thread.  The
        coordinator starts no thread, so only a thread of the caller's
        stands in the way: a fork could copy a lock it holds.  Then, and
        without ``fork``, the worker execs ``repro worker``.  The ``fork``
        context is explicit: under a ``spawn`` or ``forkserver`` default
        the workers would not share this process's modules, or would not
        be its direct children.
        """
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            process = multiprocessing.get_context("fork").Process(
                target=_local_worker_main,
                args=(*self.address, self._selector), name="repro-worker")
            process.start()
            proc = _ForkedWorker(process)
            # Its exit wakes the selector loop, which reaps and respawns.
            self._selector.register(proc.sentinel, selectors.EVENT_READ,
                                    proc)
        else:
            proc = subprocess.Popen(self._worker_cmd, env=self._worker_env)
        self._procs.append(proc)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Serve connections until ``count`` workers completed HELLO;
        False if ``timeout`` passed first."""
        deadline = time.monotonic() + timeout
        while len(self._workers) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._pump(remaining)
        return True

    def _reap_and_respawn(self) -> None:
        """Forget worker processes that exited; restart them until close."""
        exited = [proc for proc in self._procs if proc.poll() is not None]
        for proc in exited:
            self._procs.remove(proc)
            if isinstance(proc, _ForkedWorker):
                self._selector.unregister(proc.sentinel)
        if self._closed or not exited:
            return
        for proc in exited:
            logger.warning("worker process pid %d exited with code %s",
                           proc.pid, proc.poll())
            if self._respawns_left <= 0:
                logger.warning("respawn budget exhausted; pool stays smaller")
                continue
            self._respawns_left -= 1
            self._start_worker()
            self.workers_respawned += 1
            telemetry.counter("rpc.worker_respawned")
            logger.info("respawned a worker process (%d respawn(s) left)",
                        self._respawns_left)

    def _launched(self, name: str) -> Optional[Any]:
        """The process handle behind worker ``name`` if we started it."""
        pid, _, host = name.partition("@")
        if host.split("#", 1)[0] != socket.gethostname() or not pid.isdigit():
            return None
        return next((proc for proc in self._procs if proc.pid == int(pid)),
                    None)

    def _stop_procs(self, deadline: float) -> None:
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

    # ------------------------------------------------------------------ #
    # The selector loop.
    # ------------------------------------------------------------------ #
    def _pump(self, timeout: float) -> None:
        """One pass of the selector loop.

        Answers the LEASEs that can be answered, then waits up to
        ``timeout`` (less when a backing-off item is ready sooner) for a
        connection, a message or a forked worker's exit, and handles them.
        """
        timeout = self._hand_out(timeout)
        for key, _ in self._selector.select(max(timeout, 0.0)):
            if key.data is None:
                self._accept()
            elif isinstance(key.data, _WorkerConn):
                if key.data.alive:
                    self._read(key.data)
            else:
                self._reap_and_respawn()

    def _hand_out(self, timeout: float) -> float:
        """Answer waiting LEASEs: BYE once closing, else JOBs while ready
        items last.  Returns ``timeout`` cut to the next backoff deadline
        when a LEASE is left waiting for it."""
        batch = self._batch
        for worker in [w for w in self._workers.values() if w.leasing]:
            if self._closed:
                reply: Optional[Dict[str, Any]] = {"type": "BYE"}
            elif batch is None:
                break
            else:
                reply = self._take_job(batch, worker)
                if reply is None:
                    soonest = batch.ledger.next_ready_at()
                    if soonest is not None:
                        timeout = min(timeout, soonest - time.monotonic())
                    break
            worker.leasing = False
            self._send(worker, reply)
        return timeout

    def _accept(self) -> None:
        try:
            conn, _ = self._server.accept()
        except OSError:
            return  # the dialer gave up between select and accept
        # Messages are small request/reply lines: with Nagle on, a JOB
        # reply or a RESULT tail can wait for the peer's delayed ACK.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Reads follow readiness; this bounds a send to a peer that stopped
        # reading.
        conn.settimeout(self.config.heartbeat_timeout_s)
        self._selector.register(conn, selectors.EVENT_READ,
                                _WorkerConn(conn))

    def _read(self, worker: _WorkerConn) -> None:
        try:
            data = worker.conn.recv(_RECV_BYTES)
        except OSError:
            data = b""
        if not data:
            self._drop(worker)
            return
        worker.buffer += data
        if b"\n" not in data:
            return
        *lines, rest = worker.buffer.split(b"\n")
        worker.buffer = rest
        for line in lines:
            try:
                message = json.loads(line)
            except ValueError:
                message = None
            if not isinstance(message, dict):
                self._drop(worker)  # garbled: a dropped connection requeues
            if not worker.alive:
                return
            self._handle(worker, message)

    def _handle(self, worker: _WorkerConn, message: Dict[str, Any]) -> None:
        if worker.name is None:
            self._hello(worker, message)
            return
        worker.last_seen = time.monotonic()
        kind = message.get("type")
        if kind == "LEASE":
            worker.leasing = True
        elif kind == "RESULT":
            self._take_result(worker, message)
        elif kind == "BYE":
            self._drop(worker)
        # HEARTBEAT only refreshes last_seen (already done above).

    def _hello(self, worker: _WorkerConn, hello: Dict[str, Any]) -> None:
        if (hello.get("type") != "HELLO"
                or hello.get("protocol") != PROTOCOL_VERSION):
            got = hello.get("protocol")
            telemetry.counter("rpc.reject")
            logger.warning("rejecting worker: protocol %r != %d",
                           got, PROTOCOL_VERSION)
            self._send(worker, {"type": "REJECT",
                                "reason": f"protocol {got!r} unsupported; "
                                          f"coordinator speaks "
                                          f"{PROTOCOL_VERSION}"})
            self._drop(worker)
            return
        name = str(hello.get("worker") or "worker")
        self._name_counter += 1
        if name in self._workers:
            name = f"{name}#{self._name_counter}"
        worker.name = name
        self._workers[name] = worker
        self.workers_connected += 1
        telemetry.counter("rpc.worker_connected")
        logger.info("worker %s connected", name)
        self._send(worker, {"type": "WELCOME", "protocol": PROTOCOL_VERSION,
                            "heartbeat_s": self.config.heartbeat_interval_s})

    def _send(self, worker: _WorkerConn, message: Dict[str, Any]) -> None:
        try:
            worker.conn.sendall((json.dumps(message) + "\n").encode("utf-8"))
        except OSError:
            self._drop(worker)

    def _take_job(self, batch: _Batch,
                  worker: _WorkerConn) -> Optional[Dict[str, Any]]:
        """The JOB message of the next ready item, if any."""
        ledger = batch.ledger
        now = time.monotonic()
        while True:
            index = ledger.take_ready(now)
            if index is None:
                return None
            try:
                payload = _encode((ledger.fn, ledger.items[index]))
            except Exception as exc:  # noqa: BLE001 - unpicklable item
                ledger.charge(index, f"unpicklable work item: {exc!r}")
                continue
            batch.epochs[index] += 1
            epoch = batch.epochs[index]
            batch.running[index] = (worker.name, epoch, now)
            batch.dispatched += 1
            # Its heartbeats are due from now on, however long its LEASE
            # waited.
            worker.last_seen = now
            telemetry.counter("rpc.job_dispatched")
            telemetry.counter("rpc.job_bytes", len(payload))
            return {
                "type": "JOB",
                "job": index,
                "epoch": epoch,
                "attempt": ledger.failures[index],
                "key": _item_fault_key(ledger.items[index], index),
                "payload": payload,
            }

    def _take_result(self, worker: _WorkerConn,
                     message: Dict[str, Any]) -> None:
        batch = self._batch
        index = int(message.get("job", -1))
        epoch = int(message.get("epoch", -1))
        if (batch is None or index not in batch.running
                or batch.running[index][:2] != (worker.name, epoch)):
            if batch is not None:
                batch.fenced += 1
            telemetry.counter("rpc.result_fenced")
            logger.warning(
                "fenced stale RESULT for job %d epoch %d from %s "
                "(assignment revoked or re-dispatched)",
                index, epoch, worker.name)
            return
        batch.running.pop(index)
        if not message.get("ok"):
            batch.ledger.charge(index, str(message.get("error")
                                           or "remote execution failed"))
            return
        try:
            value = _decode(message["payload"])
        except Exception as exc:  # noqa: BLE001 - corrupt payload
            batch.ledger.charge(index, f"undecodable RESULT payload: {exc!r}")
            return
        batch.ledger.succeed(index, value)
        telemetry.counter("rpc.result")
        telemetry.counter("rpc.result_bytes", len(message["payload"]))

    def _revoke(self, batch: _Batch, index: int, error: str) -> None:
        """Take ``index`` off its worker and charge it."""
        batch.running.pop(index)
        batch.requeued += 1
        telemetry.counter("rpc.requeued")
        batch.ledger.charge(index, error)

    def _drop(self, worker: _WorkerConn) -> None:
        """Close ``worker``'s connection and requeue its running job."""
        if not worker.alive:
            return
        worker.alive = False
        self._selector.unregister(worker.conn)
        worker.conn.close()
        if worker.name is None:
            return
        del self._workers[worker.name]
        if self._closed:
            logger.info("worker %s disconnected at shutdown", worker.name)
            return  # an orderly exit after BYE, not a loss
        logger.warning("worker %s lost", worker.name)
        self.workers_lost += 1
        telemetry.counter("rpc.worker_lost")
        batch = self._batch
        if batch is not None:
            for index, (name, _, _) in list(batch.running.items()):
                if name == worker.name:
                    self._revoke(
                        batch, index, f"worker {worker.name} lost mid-job "
                                      "(connection dropped or process died)")

    def _check_deadlines(self, batch: _Batch) -> None:
        """Revoke assignments past ``job_timeout`` or heartbeat silence.

        A silent worker keeps its socket: if it was merely wedged, its
        eventual RESULT carries the revoked epoch and is fenced rather than
        racing the re-execution.  A timed-out worker this executor launched
        is terminated instead (and respawned once its exit is reaped).
        """
        job_timeout = batch.ledger.config.job_timeout
        silence = self.config.heartbeat_timeout_s
        now = time.monotonic()
        for index, (name, _, started) in list(batch.running.items()):
            worker = self._workers.get(name)
            if job_timeout is not None and now - started > job_timeout:
                telemetry.counter("rpc.job_timeout")
                self._revoke(batch, index,
                             f"TimeoutError: job exceeded {job_timeout:.1f}s")
                proc = self._launched(name)
                if proc is not None:
                    # Retire the worker before it can lease again, then
                    # kill it; the connection is gone, so nothing is
                    # charged twice.
                    if worker is not None:
                        self._drop(worker)
                    proc.terminate()
            elif worker is not None and now - worker.last_seen > silence:
                batch.heartbeat_timeouts += 1
                telemetry.counter("rpc.heartbeat_timeout")
                self._revoke(batch, index,
                             f"worker {name} missed heartbeats for "
                             f"{now - worker.last_seen:.1f}s "
                             f"(deadline {silence:.1f}s)")

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
        quarantined / interrupted), supervising deadlines, respawns and
        pool-empty degradation from the calling thread.  ``heartbeat`` (the
        scheduler's store-lease refresher) is invoked on every supervision
        tick, so leases held for remote jobs stay visibly alive.  The batch
        is timed as an ``executor.batch`` span carrying the connected
        worker count.
        """
        ledger = Ledger(fn, items, config or ParallelConfig())
        attrs = ({"items": len(ledger.items),
                  "workers": max(len(self._workers), 1)}
                 if telemetry.get_telemetry() is not None else None)
        with telemetry.span("executor.batch", attrs):
            return self._dispatch(ledger, should_stop, heartbeat)

    def _dispatch(self, ledger: Ledger,
                  should_stop: Optional[Callable[[], bool]],
                  heartbeat: Optional[Callable[[], None]],
                  ) -> List[TaskOutcome]:
        batch = _Batch(ledger)
        if not ledger.items:
            self.last_stats = batch.stats()
            return []
        if self._closed:
            raise RuntimeError("RemoteExecutor is closed")
        self._batch = batch
        empty_since: Optional[float] = None
        try:
            while not ledger.done():
                if should_stop is not None and should_stop():
                    self._drain(batch)
                    break
                if heartbeat is not None:
                    heartbeat()
                self._reap_and_respawn()
                self._check_deadlines(batch)
                if self._workers:
                    empty_since = None
                elif empty_since is None:
                    empty_since = time.monotonic()
                elif (time.monotonic() - empty_since
                      > self.config.worker_deadline_s):
                    self._degrade(batch, should_stop, heartbeat)
                    break
                self._pump(self.config.poll_interval_s)
        except KeyboardInterrupt:
            self._drain(batch)
        finally:
            self._batch = None
            self.last_stats = batch.stats()
        return ledger.results()

    def _degrade(self, batch: _Batch,
                 should_stop: Optional[Callable[[], bool]],
                 heartbeat: Optional[Callable[[], None]]) -> None:
        """Pool empty past the deadline: finish locally or fail loudly."""
        ledger = batch.ledger
        # Detach the batch so a zombie reconnect can neither lease nor land
        # a result; anything still marked running sat on a worker that is
        # gone and goes back to the queue uncharged.
        self._batch = None
        for index in list(batch.running):
            batch.running.pop(index)
            batch.requeued += 1
            ledger.requeue(index)
        if ledger.done():
            return
        pending = sum(outcome is None for outcome in ledger.outcomes)
        if self.config.fallback == "fail":
            raise NoWorkersError(
                f"all remote workers lost and none reconnected within "
                f"{self.config.worker_deadline_s:.1f}s; {pending} "
                f"item(s) unfinished — completed work is in the store, "
                f"re-run to resume")
        batch.fallback_local += 1
        telemetry.counter("rpc.fallback_local")
        logger.warning(
            "all remote workers lost for %.1fs; finishing %d item(s) "
            "locally", self.config.worker_deadline_s, pending)
        run_serial(ledger, should_stop, heartbeat)

    def _drain(self, batch: _Batch) -> None:
        """Graceful stop: wait briefly for in-flight work, then give up."""
        batch.ledger.stop()
        grace = batch.ledger.config.job_timeout or 60.0
        deadline = time.monotonic() + grace
        while batch.running and time.monotonic() < deadline:
            self._pump(self.config.poll_interval_s)

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Send every worker BYE, reap the launched ones, close the sockets.

        Connections are served until the launched workers exit; those still
        running after ``timeout`` seconds are terminated.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        self._pump(0.0)  # BYE to every waiting LEASE
        while self._procs and time.monotonic() < deadline:
            self._pump(min(self.config.poll_interval_s,
                           deadline - time.monotonic()))
            self._reap_and_respawn()
        self._stop_procs(deadline)
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _WorkerConn):
                self._drop(key.data)
        self._selector.close()
        self._server.close()

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
    """Run one JOB message; returns "done" or "drop" (simulate conn loss).

    Everything from unpickling the payload to pickling the value sits
    inside the isolation boundary: a job that fails anywhere there is
    answered with ``RESULT ok=False`` instead of costing the worker.
    """
    job = int(message["job"])
    epoch = int(message["epoch"])
    attempt = int(message.get("attempt", 0))
    key = str(message.get("key", ""))
    stop = threading.Event()
    beater: Optional[threading.Thread] = None
    try:
        try:
            fn, item = _decode(message["payload"])
            # The active fault plan rides inside the work item (like the
            # scheduler's engine configuration); install it — or clear a
            # predecessor's — before consulting any rpc site so injection
            # is placement-independent.
            faults.install_plan(getattr(item, "fault_plan", None))
            if faults.rpc_rule("rpc.conn_drop", key, attempt) is not None:
                logger.warning("fault: dropping coordinator connection on "
                               "%s (attempt %d)", key, attempt)
                return "drop"
            loss = faults.rpc_rule("rpc.heartbeat_loss", key, attempt)
            if loss is None:
                beater = threading.Thread(
                    target=_heartbeat_loop,
                    args=(wfile, wlock, job, epoch, heartbeat_s, stop),
                    daemon=True)
                beater.start()
            elif loss.delay_s > 0:
                # Go silent long enough for the coordinator's deadline to
                # pass, so the eventual RESULT below exercises the fencing
                # path.
                logger.warning("fault: suppressing heartbeats and stalling "
                               "%.1fs on %s (attempt %d)", loss.delay_s, key,
                               attempt)
                time.sleep(loss.delay_s)
            reply: Dict[str, Any] = {"type": "RESULT", "job": job,
                                     "epoch": epoch, "ok": True,
                                     "payload": _encode(fn(item, attempt))}
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            reply = {"type": "RESULT", "job": job, "epoch": epoch,
                     "ok": False, "error": f"{type(exc).__name__}: {exc}"}
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
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see _accept
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
    while True:
        _send(wfile, {"type": "LEASE"}, wlock)
        message = _recv(rfile)
        if message is None:
            return "lost"
        kind = message.get("type")
        if kind == "BYE":
            return "bye"
        if (kind == "JOB" and _execute_job(message, wfile, wlock,
                                           heartbeat_s) == "drop"):
            return "drop"


def run_worker(host: str, port: int, connect_attempts: int = 20,
               connect_delay_s: float = 0.25) -> int:
    """Worker main loop: dial the coordinator, pull jobs until BYE.

    Reconnects after injected connection drops and after losing the
    coordinator (which may be between batches or restarting).  Returns a
    process exit code: 0 after an orderly BYE, 1 when the coordinator was
    never reachable, 2 on protocol rejection.  While it runs, this process
    is a worker for :func:`~repro.core.faults.in_worker_process`, so a
    ``job.crash`` fault kills it.
    """
    with faults.worker_process():
        served_once = False
        while True:
            sock = _connect(host, port, connect_attempts, connect_delay_s)
            if sock is None:
                if served_once:
                    logger.info("coordinator gone; exiting")
                    return 0
                logger.error("could not reach coordinator at %s:%d", host,
                             port)
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
