"""One failure model across every executor: serial, local and remote.

:func:`~repro.core.parallel.run_resilient` runs serially with one worker and
on a loopback coordinator per batch otherwise; ``--backend remote`` keeps one
coordinator for many batches.  Both fork their workers through
:meth:`~repro.core.distributed.RemoteExecutor.launch_workers`, whatever the
process's default start method, and respawn lost ones as ``repro worker``
processes.  The matrix
below sends the same items through the same functions on all three and
requires the same per-item ``(status, attempts, value)`` on each, for every
failure the executors recover from: a raising attempt, an exhausted retry
budget, a dying worker, an expired ``job_timeout`` and a shutdown request.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core import (
    CampaignScheduler,
    FaultPlan,
    FaultRule,
    ParallelConfig,
    RemoteConfig,
    RemoteExecutor,
    effective_workers,
    faults,
    run_resilient,
    telemetry,
)

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: Snappy supervision/heartbeat cadence so the remote backend stays fast.
FAST = dict(heartbeat_interval_s=0.05, heartbeat_timeout_s=2.0,
            poll_interval_s=0.02, idle_retry_s=0.02)


# --------------------------------------------------------------------------- #
# Work items and the function every backend runs.  Module scope: payloads
# are pickled by reference and unpickled in worker processes.
# --------------------------------------------------------------------------- #
@dataclass
class _Item:
    value: int
    key: str = ""
    #: Attempts that raise ``ValueError`` before one succeeds.
    fails: int = 0
    fault_plan: Optional[FaultPlan] = None
    #: Created by the first failing attempt; the case's ``should_stop``
    #: watches for it.
    stop_marker: Optional[str] = None

    def fault_key(self) -> str:
        return self.key or f"value{self.value}"


def _work(item: _Item, attempt: int) -> int:
    with faults.inject(item.fault_plan):
        faults.perturb_job(item.fault_key(), attempt)
    if attempt < item.fails:
        if item.stop_marker:
            open(item.stop_marker, "w").close()
        raise ValueError(f"flaking on attempt {attempt}")
    return item.value * 10


def _square(x):
    return x * x


def _lineage(item, attempt):
    """The item's value, the worker's parent pid and, if the worker shares
    the coordinator's ``__main__``, the pid recorded there."""
    main = sys.modules["__main__"]
    return [item * 10, os.getppid(), getattr(main, "COORDINATOR_PID", None)]


def _fail_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


# --------------------------------------------------------------------------- #
# The failure-model matrix.
# --------------------------------------------------------------------------- #
def _case(name: str, tmp_path):
    """(items, config, should_stop, expected (status, attempts, value)s)."""
    if name == "retry":
        items = [_Item(1), _Item(2, fails=1), _Item(3, fails=2)]
        return (items, ParallelConfig(max_retries=2, backoff_base_s=0.01),
                None, [("ok", 1, 10), ("ok", 2, 20), ("ok", 3, 30)])
    if name == "quarantine":
        items = [_Item(1), _Item(2, fails=5)]
        return (items, ParallelConfig(max_retries=1, backoff_base_s=0.01),
                None, [("ok", 1, 10), ("quarantined", 2, None)])
    if name == "worker_death":
        plan = FaultPlan(rules=(FaultRule("job.crash", match="victim",
                                          times=1),))
        items = [_Item(1), _Item(2, key="victim", fault_plan=plan), _Item(3)]
        return (items, ParallelConfig(max_retries=2, backoff_base_s=0.01),
                None, [("ok", 1, 10), ("ok", 2, 20), ("ok", 1, 30)])
    if name == "job_timeout":
        plan = FaultPlan(rules=(FaultRule("job.timeout", match="slow",
                                          times=1, delay_s=4.0),))
        items = [_Item(1), _Item(2, key="slow", fault_plan=plan)]
        return (items, ParallelConfig(max_retries=2, backoff_base_s=0.01,
                                      job_timeout=1.0),
                None, [("ok", 1, 10), ("ok", 2, 20)])
    if name == "should_stop":
        marker = str(tmp_path / "stop")
        # The failed item backs off long enough for the stop to land first.
        items = [_Item(1), _Item(2, fails=1, stop_marker=marker)]
        return (items, ParallelConfig(max_retries=2, backoff_base_s=2.0),
                lambda: os.path.exists(marker),
                [("ok", 1, 10), ("interrupted", 1, None)])
    raise AssertionError(name)


def _run(backend: str, items, config: ParallelConfig, should_stop):
    if backend == "remote":
        with RemoteExecutor(RemoteConfig(**FAST)) as executor:
            executor.launch_workers(2, extra_path=TESTS_DIR)
            assert executor.wait_for_workers(2, timeout=60.0)
            return executor.run(_work, items, config, should_stop=should_stop)
    workers = 1 if backend == "serial" else 2
    config = ParallelConfig(max_workers=workers,
                            max_retries=config.max_retries,
                            backoff_base_s=config.backoff_base_s,
                            job_timeout=config.job_timeout)
    return run_resilient(_work, items, config, should_stop=should_stop)


#: (case, backend) pairs; a serial in-process job cannot be preempted, so
#: ``job_timeout`` runs on the two fan-outs only.
MATRIX = [(case, backend)
          for case in ("retry", "quarantine", "worker_death", "job_timeout",
                       "should_stop")
          for backend in ("serial", "local", "remote")
          if (case, backend) != ("job_timeout", "serial")]


class TestFailureModelMatrix:
    @pytest.mark.parametrize("case,backend", MATRIX)
    def test_same_outcomes_on_every_backend(self, case, backend, tmp_path):
        items, config, should_stop, expected = _case(case, tmp_path)
        with telemetry.capture() as sink:
            outcomes = _run(backend, items, config, should_stop)
        got = [(o.status, o.attempts, o.value) for o in outcomes]
        assert got == expected
        counts = {}
        for event in sink.events:
            counts[event.name] = counts.get(event.name, 0) + event.value
        # The fan-outs heal on their workers, not by finishing in-process,
        # and only a fault costs a worker: orderly shutdown is no loss.
        assert counts.get("rpc.fallback_local", 0) == 0
        lost = counts.get("rpc.worker_lost", 0)
        if case in ("worker_death", "job_timeout") and backend != "serial":
            assert lost == 1
        else:
            assert lost == 0
        for outcome in outcomes:
            if outcome.status == "quarantined":
                assert "ValueError" in outcome.error

    def test_empty_batch(self):
        assert run_resilient(_work, [], ParallelConfig(max_workers=2)) == []

    def test_unpicklable_work_is_quarantined_not_lost(self):
        outcomes = run_resilient(lambda item, attempt: item, [1, 2],
                                 ParallelConfig(max_workers=2, max_retries=1,
                                                backoff_base_s=0.0))
        assert [(o.status, o.attempts) for o in outcomes] == \
            [("quarantined", 2)] * 2
        assert all("unpicklable work item" in o.error for o in outcomes)

    def test_more_workers_than_cores_lose_no_update(self):
        """Four workers race through forty flaky items on the shared ledger,
        with thread switches forced often on the coordinator side."""
        items = [_Item(i, fails=i % 3) for i in range(40)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = run_resilient(_work, items,
                                     ParallelConfig(max_workers=4,
                                                    max_retries=2,
                                                    backoff_base_s=0.0))
        finally:
            sys.setswitchinterval(previous)
        assert [(o.status, o.attempts, o.value) for o in outcomes] == \
            [("ok", i % 3 + 1, i * 10) for i in range(40)]


#: A child interpreter that changes the default start method, then runs a
#: 2-worker batch of :func:`_lineage` and prints its pid and the outcomes.
_START_METHOD_SCRIPT = """
import json, multiprocessing, os
COORDINATOR_PID = os.getpid()
multiprocessing.set_start_method({method!r}, force=True)
from repro.core import ParallelConfig, run_resilient
from test_executors import _lineage
outcomes = run_resilient(_lineage, list(range(4)), ParallelConfig(max_workers=2))
print(json.dumps({{"pid": COORDINATOR_PID, "outcomes":
                  [[o.status, o.attempts, o.value] for o in outcomes]}}))
"""


class TestStartMethod:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_fork_whatever_the_default(self, method):
        """Workers are forked direct children of the coordinator under any
        default start method: a ``spawn`` worker would not share its
        ``__main__``, and a ``forkserver`` one would be a grandchild."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([SRC_DIR, TESTS_DIR]))
        proc = subprocess.run(
            [sys.executable, "-c", _START_METHOD_SCRIPT.format(method=method)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        pid = report["pid"]
        assert report["outcomes"] == [["ok", 1, [item * 10, pid, pid]]
                                      for item in range(4)]


# --------------------------------------------------------------------------- #
# map_items: the scheduler's auxiliary fan-out rides the same dispatch.
# --------------------------------------------------------------------------- #
class TestMapItems:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_preserves_order(self, workers):
        scheduler = CampaignScheduler(ParallelConfig(max_workers=workers))
        assert scheduler.map_items(_square, list(range(8))) == \
            [x * x for x in range(8)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raises_the_first_failure(self, workers):
        scheduler = CampaignScheduler(ParallelConfig(max_workers=workers,
                                                     max_retries=1,
                                                     backoff_base_s=0.0))
        with pytest.raises(RuntimeError,
                           match=r"map item 2 quarantined after 2 "
                                 r"attempt\(s\): ValueError: two is right"):
            scheduler.map_items(_fail_on_two, [0, 1, 2, 3])


# --------------------------------------------------------------------------- #
# Nothing outlives a batch or a closed coordinator.
# --------------------------------------------------------------------------- #
def _rpc_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-rpc-") and thread.is_alive()]


class TestNoLeftovers:
    def test_close_joins_threads_and_reaps_workers(self):
        executor = RemoteExecutor(RemoteConfig(**FAST))
        executor.launch_workers(2, extra_path=TESTS_DIR)
        assert executor.wait_for_workers(2, timeout=60.0)
        outcomes = executor.run(_work, [_Item(1), _Item(2)],
                                ParallelConfig(max_workers=2))
        assert [o.value for o in outcomes] == [10, 20]
        procs = list(executor._procs)
        executor.close()
        assert _rpc_threads() == []
        assert all(proc.poll() is not None for proc in procs)

    def test_local_batch_leaves_no_threads_or_children(self):
        plan = FaultPlan(rules=(FaultRule("job.crash", match="victim",
                                          times=1),))
        items = [_Item(1), _Item(2, key="victim", fault_plan=plan), _Item(3)]
        outcomes = run_resilient(_work, items,
                                 ParallelConfig(max_workers=2,
                                                backoff_base_s=0.01))
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert _rpc_threads() == []
        assert multiprocessing.active_children() == []


class TestParallelConfig:
    def test_effective_workers(self, monkeypatch):
        assert effective_workers(1) == 1
        assert effective_workers(4) == 4
        assert effective_workers(-1) >= 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(None) == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.warns(UserWarning):
            assert effective_workers(None) == 1
