"""One failure model across every executor: serial, local and remote.

:func:`~repro.core.parallel.run_resilient` runs serially with one worker and
on a loopback coordinator per batch otherwise; ``--backend remote`` keeps one
coordinator for many batches.  Both fork their workers, respawns included,
through :meth:`~repro.core.distributed.RemoteExecutor.launch_workers`,
whatever the process's default start method, and start no thread.  The
matrix below sends the same items through the same functions on all three
and requires the same per-item ``(status, attempts, value)`` on each, for
every failure the executors recover from: a raising attempt, an exhausted
retry budget, a dying worker, an expired ``job_timeout`` and a shutdown
request.
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
            poll_interval_s=0.02)


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


def _tiny_campaign(store_dir: str, workers: int) -> None:
    """Train the original design and one state design, two seeds each, into
    a fresh store at ``store_dir``."""
    from repro.analysis import ExperimentScale
    from repro.analysis.experiments import build_environment
    from repro.core import (Design, DesignTrainer, EvaluationJob,
                            ResultStore)
    from repro.llm import StateDesignSpace, StateDesignSpec

    scale = ExperimentScale(train_epochs=4, checkpoint_interval=2,
                            last_k_checkpoints=2, num_seeds=2,
                            dataset_scale=0.02, num_chunks=6)
    setup = build_environment("fcc", scale)
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces,
                            config=scale.evaluation_config(), qoe=setup.qoe)
    state = Design(kind="state", code=StateDesignSpace().render(
        StateDesignSpec(extra_features=("buffer_diff",))))
    jobs = [EvaluationJob(trainer=trainer, state_design=design,
                          network_design=None, seeds=(0, 1),
                          environment="fcc")
            for design in (None, state)]
    results = CampaignScheduler(ParallelConfig(max_workers=workers),
                                store=ResultStore(store_dir)).run(jobs)
    assert all(result.ok for result in results)


def _store_records(root: str):
    records = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "r", encoding="utf-8") as handle:
                records[os.path.relpath(path, root)] = json.load(handle)
    return records


#: A child interpreter that changes the default start method, runs a
#: 2-worker batch of :func:`_lineage` and a tiny campaign on ``workers``
#: workers, and prints its pid and the batch outcomes.  Design ids count up
#: per process, so the serial reference runs in a fresh child too.
_START_METHOD_SCRIPT = """
import json, multiprocessing, os, sys
COORDINATOR_PID = os.getpid()
multiprocessing.set_start_method({method!r}, force=True)
from repro.core import ParallelConfig, run_resilient
from test_executors import _lineage, _tiny_campaign
outcomes = run_resilient(_lineage, list(range(4)), ParallelConfig(max_workers=2))
_tiny_campaign(sys.argv[1], workers={workers})
print(json.dumps({{"pid": COORDINATOR_PID, "outcomes":
                  [[o.status, o.attempts, o.value] for o in outcomes]}}))
"""


def _start_method_child(method: Optional[str], workers: int, store: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, TESTS_DIR]))
    proc = subprocess.run(
        [sys.executable, "-c",
         _START_METHOD_SCRIPT.format(method=method, workers=workers), store],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartMethod:
    @pytest.fixture(scope="class")
    def serial_records(self, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("serial") / "store")
        _start_method_child(None, 1, store)
        return _store_records(store)

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_workers_fork_whatever_the_default(self, method, serial_records,
                                               tmp_path):
        """Workers are forked direct children of the coordinator under any
        default start method (a ``spawn`` worker would not share its
        ``__main__``, a ``forkserver`` one would be a grandchild), and a
        campaign over them stores the serial run's records."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        store = str(tmp_path / "store")
        report = _start_method_child(method, 2, store)
        pid = report["pid"]
        assert report["outcomes"] == [["ok", 1, [item * 10, pid, pid]]
                                      for item in range(4)]
        assert serial_records
        assert _store_records(store) == serial_records


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
class TestNoLeftovers:
    """The coordinator starts no thread, and nothing outlives a batch or a
    closed coordinator."""

    def test_long_lived_executor_starts_no_thread(self):
        before = threading.enumerate()
        seen = []

        def check():
            seen.append(threading.enumerate() == before)

        executor = RemoteExecutor(RemoteConfig(**FAST))
        check()
        executor.launch_workers(2, extra_path=TESTS_DIR)
        check()
        assert executor.wait_for_workers(2, timeout=60.0)
        check()
        outcomes = executor.run(_work, [_Item(1), _Item(2)],
                                ParallelConfig(max_workers=2),
                                heartbeat=check)
        assert [o.value for o in outcomes] == [10, 20]
        procs = list(executor._procs)
        executor.close()
        check()
        assert len(seen) > 4 and all(seen)
        assert all(proc.poll() is not None for proc in procs)

    def test_local_batch_leaves_no_threads_or_children(self):
        before = threading.enumerate()
        seen = []
        plan = FaultPlan(rules=(FaultRule("job.crash", match="victim",
                                          times=1),))
        items = [_Item(1), _Item(2, key="victim", fault_plan=plan), _Item(3)]
        outcomes = run_resilient(
            _work, items,
            ParallelConfig(max_workers=2, backoff_base_s=0.01),
            heartbeat=lambda: seen.append(threading.enumerate() == before))
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert seen and all(seen)
        assert threading.enumerate() == before
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
