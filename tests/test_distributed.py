"""Distributed transport tests: protocol, work-stealing, failure recovery.

The PR's hard guarantees:

* a ``--backend remote`` campaign over worker subprocesses is
  **bit-identical** (scores and store records) to the serial run, and two
  workers finish a batch of sleep-bound jobs strictly faster than one;
* a worker lost mid-job — injected crash (``rpc.worker_crash``), dropped
  connection (``rpc.conn_drop``) or missed heartbeats
  (``rpc.heartbeat_loss``) — has its job requeued under the retry budget
  and the batch still completes bit-identically;
* a wedged worker's late RESULT carries a revoked assignment epoch and is
  fenced, never merged (exactly-once of the in-memory merge), mirroring
  the store-level lease fencing in ``tests/test_faults.py``;
* RESULT arrival order does not leak into results or telemetry: a run
  shuffled by ``rpc.result_delay`` produces the same submission-ordered
  event stream as the serial run (the PR 6 merge contract);
* an emptied worker pool degrades per configuration — finish locally, or
  raise :class:`NoWorkersError` with every store lease released so the
  campaign can resume — instead of hanging.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.analysis import ExperimentScale
from repro.analysis.experiments import build_environment
from repro.cli import build_parser, main
from repro.core import (
    CampaignScheduler,
    Design,
    DesignTrainer,
    EvaluationJob,
    FaultPlan,
    FaultRule,
    NoWorkersError,
    ParallelConfig,
    RemoteConfig,
    RemoteExecutor,
    ResultStore,
    inject,
    run_worker,
    telemetry,
)
from repro.core.distributed import PROTOCOL_VERSION, _encode, _serve_session
from repro.llm import StateDesignSpace, StateDesignSpec

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

TINY = ExperimentScale(train_epochs=6, checkpoint_interval=3,
                       last_k_checkpoints=2, num_seeds=2,
                       dataset_scale=0.02, num_chunks=6)

GOOD_STATE = StateDesignSpace().render(
    StateDesignSpec(extra_features=("buffer_diff",)))

#: Snappy supervision/heartbeat cadence so fault tests stay fast.
FAST = dict(heartbeat_interval_s=0.05, heartbeat_timeout_s=2.0,
            poll_interval_s=0.02, idle_retry_s=0.02)


def _trainer(environment: str = "fcc",
             scale: ExperimentScale = TINY) -> DesignTrainer:
    setup = build_environment(environment, scale)
    return DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                         config=scale.evaluation_config(), qoe=setup.qoe)


def _campaign_jobs(trainer: DesignTrainer, design: Design):
    return [
        EvaluationJob(trainer=trainer, state_design=None, network_design=None,
                      seeds=(0, 1), environment="fcc"),
        EvaluationJob(trainer=trainer, state_design=design,
                      network_design=None, seeds=(0, 1), environment="fcc"),
    ]


def _store_snapshot(root: str):
    snapshot = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            assert name.endswith(".json"), f"unexpected residue file {rel}"
            with open(path, "r", encoding="utf-8") as handle:
                snapshot[rel] = json.load(handle)
    return snapshot


# --------------------------------------------------------------------------- #
# Work items + functions executed inside worker subprocesses.  Must live at
# module scope: payloads are pickled by reference and the workers import
# this module via the ``extra_path`` hook of ``launch_workers``.
# --------------------------------------------------------------------------- #
@dataclass
class _Item:
    """A work item that can carry a fault plan to the remote worker."""

    value: int
    key: str = ""
    fails: int = 0
    fault_plan: Optional[FaultPlan] = None

    def fault_key(self) -> str:
        return self.key or f"value{self.value}"


def _times_ten(item, attempt):
    return item * 10


def _sleep_item(item, attempt):
    time.sleep(0.5)
    return item


def _item_value(item: _Item, attempt: int) -> int:
    if attempt < item.fails:
        raise ValueError(f"flaking on attempt {attempt}")
    return item.value * 10


def _fresh_executor(launch: int = 0, **overrides) -> RemoteExecutor:
    settings = dict(FAST)
    settings.update(overrides)
    executor = RemoteExecutor(RemoteConfig(**settings))
    if launch:
        executor.launch_workers(launch, extra_path=TESTS_DIR)
        assert executor.wait_for_workers(launch, timeout=60.0)
    return executor


# --------------------------------------------------------------------------- #
# Protocol handshake
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_version_mismatch_rejected(self):
        with _fresh_executor() as executor:
            with socket.create_connection(executor.address,
                                          timeout=10.0) as sock:
                rfile = sock.makefile("r", encoding="utf-8")
                wfile = sock.makefile("w", encoding="utf-8")
                wfile.write(json.dumps({"type": "HELLO", "protocol": 999,
                                        "worker": "zombie@future"}) + "\n")
                wfile.flush()
                reply = json.loads(rfile.readline())
            assert reply["type"] == "REJECT"
            assert "999" in reply["reason"]
            assert str(PROTOCOL_VERSION) in reply["reason"]
            assert executor.worker_count() == 0

    def test_welcome_carries_cadence(self):
        with _fresh_executor() as executor:
            with socket.create_connection(executor.address,
                                          timeout=10.0) as sock:
                rfile = sock.makefile("r", encoding="utf-8")
                wfile = sock.makefile("w", encoding="utf-8")
                wfile.write(json.dumps(
                    {"type": "HELLO", "protocol": PROTOCOL_VERSION,
                     "worker": "probe@test"}) + "\n")
                wfile.flush()
                reply = json.loads(rfile.readline())
                assert reply["type"] == "WELCOME"
                assert reply["heartbeat_s"] == \
                    executor.config.heartbeat_interval_s
                assert executor.wait_for_workers(1, timeout=10.0)

    def test_nodelay_on_both_ends(self):
        """JOB/RESULT lines go out at once: Nagle is off at both ends."""
        with _fresh_executor() as executor:
            sock = socket.create_connection(executor.address, timeout=10.0)
            assert not sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            session = threading.Thread(target=_serve_session, args=(sock,),
                                       daemon=True)
            session.start()
            try:
                assert executor.wait_for_workers(1, timeout=10.0)
                (worker,) = executor._workers.values()
                assert worker.conn.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                executor.close()
                session.join(timeout=10.0)
                sock.close()
        assert not session.is_alive()

    def test_unreachable_coordinator_exit_code(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        assert run_worker("127.0.0.1", port, connect_attempts=1,
                          connect_delay_s=0.01) == 1


# --------------------------------------------------------------------------- #
# Pull-based execution: ordering, retries, work-stealing speedup
# --------------------------------------------------------------------------- #
class TestRemoteExecution:
    def test_results_come_back_in_submission_order(self):
        with _fresh_executor(launch=2) as executor:
            outcomes = executor.run(_times_ten, list(range(6)),
                                    ParallelConfig(max_workers=2))
            assert [o.value for o in outcomes] == [0, 10, 20, 30, 40, 50]
            assert all(o.ok and o.attempts == 1 for o in outcomes)
            assert executor.last_stats["dispatched"] == 6
            assert executor.last_stats["fenced"] == 0
            assert executor.last_stats["fallback_local"] == 0
            assert sorted(executor.last_stats["result_order"]) == \
                list(range(6))

    def test_transport_byte_counters(self):
        """``rpc.job_bytes``/``rpc.result_bytes`` sum the encoded payloads."""
        items = [1, 2, 3]
        with telemetry.capture() as sink, \
                _fresh_executor(launch=1) as executor:
            outcomes = executor.run(_times_ten, items)
        assert [o.value for o in outcomes] == [10, 20, 30]
        job_bytes = sum(len(_encode((_times_ten, item))) for item in items)
        result_bytes = sum(len(_encode(item * 10)) for item in items)
        distributed = telemetry.summarize(sink.events)["distributed"]
        assert distributed["job_bytes"] == job_bytes
        assert distributed["result_bytes"] == result_bytes
        assert distributed["mean_job_bytes"] == job_bytes / 3
        assert distributed["mean_result_bytes"] == result_bytes / 3
        assert f"{job_bytes / 3:,.0f} B/job out" in \
            telemetry.render_report(sink.events)

    def test_empty_batch_is_a_noop(self):
        with _fresh_executor() as executor:
            assert executor.run(_times_ten, []) == []
            assert executor.last_stats["dispatched"] == 0

    def test_remote_retry_then_quarantine(self):
        config = ParallelConfig(max_workers=2, max_retries=2,
                                backoff_base_s=0.01)
        items = [_Item(1), _Item(2, fails=2), _Item(3, fails=5)]
        with _fresh_executor(launch=1) as executor:
            outcomes = executor.run(_item_value, items, config)
        assert outcomes[0].ok and outcomes[0].attempts == 1
        assert outcomes[1].ok and outcomes[1].attempts == 3
        assert [o.value for o in outcomes[:2]] == [10, 20]
        assert outcomes[2].status == "quarantined"
        assert outcomes[2].attempts == 3
        assert "ValueError" in outcomes[2].error

    def test_two_workers_strictly_faster_than_one(self):
        """Work-stealing acceptance: pulled jobs split the sleep-bound batch."""
        items = list(range(4))  # 4 x 0.5s of sleeping

        def timed(workers: int) -> float:
            with _fresh_executor(launch=workers) as executor:
                start = time.monotonic()
                outcomes = executor.run(_sleep_item, items,
                                        ParallelConfig(max_workers=workers))
                elapsed = time.monotonic() - start
            assert [o.value for o in outcomes] == items
            return elapsed

        one = timed(1)
        two = timed(2)
        assert one >= 4 * 0.5  # sanity: the sleeps actually serialized
        assert two < one * 0.75, f"2 workers {two:.2f}s vs 1 worker {one:.2f}s"


# --------------------------------------------------------------------------- #
# Injected transport faults (executor level)
# --------------------------------------------------------------------------- #
class TestRpcFaults:
    def test_worker_crash_requeues_and_heals(self):
        plan = FaultPlan(rules=(FaultRule("rpc.worker_crash",
                                          match="victim", times=1),))
        items = [_Item(1), _Item(2, key="victim", fault_plan=plan), _Item(3)]
        config = ParallelConfig(max_workers=2, max_retries=3,
                                backoff_base_s=0.01)
        with _fresh_executor(launch=2) as executor:
            outcomes = executor.run(_item_value, items, config)
            assert [o.value for o in outcomes] == [10, 20, 30]
            assert all(o.ok for o in outcomes)
            assert outcomes[1].attempts == 2  # died once, re-ran clean
            assert executor.workers_lost >= 1
            assert executor.last_stats["requeued"] >= 1

    def test_conn_drop_reconnects_and_heals(self):
        plan = FaultPlan(rules=(FaultRule("rpc.conn_drop",
                                          match="flaky-link", times=1),))
        items = [_Item(1), _Item(2, key="flaky-link", fault_plan=plan)]
        config = ParallelConfig(max_workers=2, max_retries=3,
                                backoff_base_s=0.01)
        with _fresh_executor(launch=2) as executor:
            outcomes = executor.run(_item_value, items, config)
            assert [o.value for o in outcomes] == [10, 20]
            assert outcomes[1].attempts == 2
            assert executor.workers_lost >= 1
            # The dropped worker dialed back in with a fresh HELLO.
            assert executor.workers_connected >= 3
            assert executor.last_stats["requeued"] >= 1

    def test_heartbeat_loss_revokes_and_fences_stale_result(self):
        """The zombie path: silence past the deadline revokes the job; the
        wedged worker's eventual RESULT carries the old epoch and is fenced,
        so exactly one execution is merged."""
        plan = FaultPlan(rules=(FaultRule("rpc.heartbeat_loss",
                                          match="wedged", times=1,
                                          delay_s=2.0),))
        items = [_Item(7, key="wedged", fault_plan=plan)]
        config = ParallelConfig(max_workers=2, max_retries=3,
                                backoff_base_s=0.01)
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            with _fresh_executor(launch=2, heartbeat_timeout_s=0.5) \
                    as executor:
                outcomes = executor.run(_item_value, items, config)
                assert outcomes[0].ok and outcomes[0].value == 70
                assert outcomes[0].attempts == 2  # timeout charged one
                assert executor.last_stats["heartbeat_timeouts"] >= 1
                assert executor.last_stats["requeued"] >= 1
                # The stale RESULT may land after the batch finished; wait
                # for the fence counter rather than racing it.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    fenced = sum(e.value for e in sink.events
                                 if e.name == "rpc.result_fenced")
                    if fenced >= 1:
                        break
                    time.sleep(0.05)
                assert fenced >= 1, "stale RESULT was never fenced"
        finally:
            telemetry.set_telemetry(previous)

    def test_result_delay_shuffles_arrival_not_results(self):
        plan = FaultPlan(rules=(FaultRule("rpc.result_delay",
                                          match="laggard", times=1,
                                          delay_s=1.0),))
        items = [_Item(1, key="laggard", fault_plan=plan),
                 _Item(2), _Item(3)]
        config = ParallelConfig(max_workers=2, max_retries=1,
                                backoff_base_s=0.01)
        with _fresh_executor(launch=2) as executor:
            outcomes = executor.run(_item_value, items, config)
            assert [o.value for o in outcomes] == [10, 20, 30]
            assert all(o.ok and o.attempts == 1 for o in outcomes)
            # Arrival order shuffled (delayed item last in), results not.
            assert executor.last_stats["result_order"][-1] == 0
            assert executor.last_stats["requeued"] == 0
            assert executor.last_stats["fenced"] == 0


# --------------------------------------------------------------------------- #
# Pool-empty degradation
# --------------------------------------------------------------------------- #
class TestDegradation:
    def test_no_workers_falls_back_to_local(self):
        with _fresh_executor(worker_deadline_s=0.3) as executor:
            outcomes = executor.run(_times_ten, [1, 2, 3],
                                    ParallelConfig(max_workers=1))
            assert [o.value for o in outcomes] == [10, 20, 30]
            assert all(o.ok for o in outcomes)
            assert executor.last_stats["fallback_local"] == 1
            assert executor.last_stats["dispatched"] == 0

    def test_no_workers_fail_mode_raises(self):
        with _fresh_executor(worker_deadline_s=0.3,
                             fallback="fail") as executor:
            with pytest.raises(NoWorkersError, match="resume"):
                executor.run(_times_ten, [1, 2], ParallelConfig())

    def test_fallback_validated(self):
        with pytest.raises(ValueError):
            RemoteConfig(fallback="shrug")


# --------------------------------------------------------------------------- #
# Full campaigns over the remote backend: bit-identity + chaos + telemetry
# --------------------------------------------------------------------------- #
class TestRemoteCampaign:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """Fault-free serial campaign: scores plus full store contents."""
        trainer = _trainer()
        design = Design(kind="state", code=GOOD_STATE)
        root = str(tmp_path_factory.mktemp("reference-store"))
        scheduler = CampaignScheduler(ParallelConfig(max_workers=1),
                                      store=ResultStore(root))
        results = scheduler.run(_campaign_jobs(trainer, design))
        return {
            "trainer": trainer,
            "design": design,
            "scores": [result.score for result in results],
            "store": _store_snapshot(root),
        }

    def _remote_scheduler(self, executor, store=None, **parallel):
        parallel.setdefault("max_workers", 2)
        parallel.setdefault("max_retries", 3)
        parallel.setdefault("backoff_base_s", 0.01)
        return CampaignScheduler(ParallelConfig(**parallel), store=store,
                                 executor=executor)

    def test_remote_campaign_bit_identical_to_serial(self, reference,
                                                     tmp_path):
        store = ResultStore(str(tmp_path))
        with _fresh_executor(launch=2) as executor:
            scheduler = self._remote_scheduler(executor, store=store)
            results = scheduler.run(_campaign_jobs(reference["trainer"],
                                                   reference["design"]))
        assert all(result.ok for result in results)
        assert [r.score for r in results] == reference["scores"]
        assert _store_snapshot(str(tmp_path)) == reference["store"]
        assert store.puts == 4
        assert store.fenced_puts == 0
        assert executor.last_stats["fenced"] == 0

    def test_remote_campaign_heals_rpc_chaos_bit_identically(self, reference,
                                                             tmp_path):
        """Crash one worker, drop a connection, tear a store write — the
        campaign completes bit-identical with exactly-once persistence."""
        store = ResultStore(str(tmp_path))
        plan = FaultPlan(rules=(
            FaultRule("rpc.worker_crash", match="state:", times=1),
            FaultRule("rpc.conn_drop", match="original", times=1),
            FaultRule("store.torn_write", times=1),
        ))
        with _fresh_executor(launch=2) as executor:
            scheduler = self._remote_scheduler(executor, store=store)
            jobs = _campaign_jobs(reference["trainer"], reference["design"])
            with inject(plan):
                results = scheduler.run(jobs)
        assert all(result.ok for result in results)
        assert scheduler.failures == []
        assert [r.score for r in results] == reference["scores"]
        assert _store_snapshot(str(tmp_path)) == reference["store"]
        assert executor.workers_lost >= 2  # the crash and the drop
        assert executor.last_stats["requeued"] >= 2
        assert store.torn_writes > 0
        assert store.puts == 4
        assert store.fenced_puts == 0

    def test_result_delay_keeps_telemetry_merge_deterministic(self,
                                                              reference):
        """The PR 6 contract over the wire: shuffling RESULT arrival via
        ``rpc.result_delay`` leaves the merged event stream identical to the
        serial run, modulo transport/placement events."""
        jobs = _campaign_jobs(reference["trainer"], reference["design"])

        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            CampaignScheduler(ParallelConfig(max_workers=1)).run(jobs)
        finally:
            telemetry.set_telemetry(previous)
        serial_events = sink.events

        plan = FaultPlan(rules=(FaultRule("rpc.result_delay",
                                          match="original", times=1,
                                          delay_s=4.0),))
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            with _fresh_executor(launch=2) as executor:
                scheduler = self._remote_scheduler(executor)
                with inject(plan):
                    results = scheduler.run(
                        _campaign_jobs(reference["trainer"],
                                       reference["design"]))
        finally:
            telemetry.set_telemetry(previous)
        remote_events = sink.events

        assert [r.score for r in results] == reference["scores"]
        # The delayed job (submitted first) was accepted last.
        assert executor.last_stats["result_order"][-1] == 0

        def signatures(events):
            # Placement is exactly what the contract excludes: the local
            # pool's parallel.* events and the transport's rpc.* events.
            return [e.signature() for e in events
                    if not e.name.startswith(("rpc.", "parallel."))]

        assert signatures(serial_events) == signatures(remote_events)
        trains = [e for e in remote_events if e.name == "job.train"]
        assert len(trains) == len(jobs)  # worker buffers made it home

    def test_fail_mode_releases_leases_for_resume(self, reference, tmp_path):
        """Satellite: all workers gone + ``fallback="fail"`` exits loudly
        with no lease residue, and a serial re-run resumes bit-identically."""
        store = ResultStore(str(tmp_path))
        with _fresh_executor(worker_deadline_s=0.3,
                             fallback="fail") as executor:
            scheduler = self._remote_scheduler(executor, store=store)
            jobs = _campaign_jobs(reference["trainer"], reference["design"])
            with pytest.raises(NoWorkersError):
                scheduler.run(jobs)
        residue = [name for _, _, files in os.walk(str(tmp_path))
                   for name in files if not name.endswith(".json")]
        assert residue == []  # leases released on the failure path
        resumed = CampaignScheduler(ParallelConfig(max_workers=1),
                                    store=ResultStore(str(tmp_path)))
        results = resumed.run(_campaign_jobs(reference["trainer"],
                                             reference["design"]))
        assert [r.score for r in results] == reference["scores"]
        assert _store_snapshot(str(tmp_path)) == reference["store"]


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestDistributedCli:
    def test_campaign_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--backend", "remote", "--remote-workers", "3",
             "--remote-port", "7777", "--remote-fallback", "fail",
             "--remote-deadline", "12.5"])
        assert args.backend == "remote"
        assert args.remote_workers == 3
        assert args.remote_port == 7777
        assert args.remote_fallback == "fail"
        assert args.remote_deadline == 12.5

    def test_backend_defaults_to_local(self):
        assert build_parser().parse_args(["run"]).backend == "local"

    def test_worker_flags_parse(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.5:4321"])
        assert args.command == "worker"
        assert args.connect == "10.0.0.5:4321"

    def test_worker_malformed_connect(self):
        assert main(["worker", "--connect", "nocolon"]) == 2
        assert main(["worker", "--connect", "host:notaport"]) == 2

    def test_remote_run_end_to_end(self, tmp_path, capsys):
        exit_code = main([
            "run", "--environment", "fcc", "--num-designs", "2",
            "--train-epochs", "6", "--checkpoint-interval", "3",
            "--num-seeds", "1", "--num-chunks", "6",
            "--dataset-scale", "0.02", "--no-early-stopping",
            "--backend", "remote", "--remote-workers", "2",
            "--store", str(tmp_path / "store")])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "original score" in captured
