"""Tests for the event-driven fleet harness and the batched serving path.

The central contract: a fleet of N sessions is bit-identical, session for
session, to N independent serial runs over the same traces with the same
policy and RNG discipline — concurrency, batch windows and tick grouping
change wall-clock time only, never results.
"""

import functools
import hashlib
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro
from repro.abr import BufferBasedPolicy, synthetic_video
from repro.abr.env import HISTORY_LENGTH
from repro.abr.state import original_state_function, original_states_gathered
from repro.core import blas, telemetry
from repro.core.results import ResultStore
from repro.emulation import (
    BatchedPolicy,
    EmulationConfig,
    Emulator,
    Fleet,
    FleetConfig,
    LinkConfig,
    PacketDeliveryLink,
    emulation_context_fingerprint,
    emulation_result_key,
    evaluate_policy_emulated,
    policy_fingerprint,
    session_rng,
)
from repro.emulation.link import _SCHEDULE_CACHE
from repro.emulation.player import DashPlayer
from repro.rl.agent import ABRAgent
from repro.traces import Trace, generate_fcc_trace, generate_starlink_trace


def _signature(result):
    """Bitwise comparison key of one session's full record sequence."""
    return [(r.chunk_index, r.bitrate_index, r.reward, r.download_time_s,
             r.rebuffer_s, r.buffer_s) for r in result.records]


@pytest.fixture
def trace_mix():
    """A mixed fcc/starlink trace set exercising both trace shapes."""
    return ([generate_fcc_trace(duration_s=150.0, seed=i, name=f"fcc-{i}")
             for i in range(3)]
            + [generate_starlink_trace(duration_s=150.0, seed=i,
                                       name=f"sl-{i}") for i in range(2)])


@pytest.fixture
def serve_video():
    return synthetic_video("standard", num_chunks=8, seed=7)


@pytest.fixture
def agent(serve_video, trace_mix):
    link = PacketDeliveryLink(trace_mix[0])
    player = DashPlayer(serve_video, link)
    return ABRAgent.original(player.observe(), serve_video.num_bitrates,
                             rng=np.random.default_rng(0))


class TestDeliveryEngines:
    def test_prefix_and_bisect_agree_to_inversion_accuracy(self, trace_mix):
        for trace in trace_mix:
            fast = PacketDeliveryLink(trace, LinkConfig(delivery_engine="prefix"))
            reference = PacketDeliveryLink(trace, LinkConfig(delivery_engine="bisect"))
            rng = np.random.default_rng(3)
            for _ in range(40):
                start = float(rng.uniform(0.0, 300.0))
                num_bytes = float(rng.uniform(1e3, 2e6))
                cap = (None if rng.random() < 0.5
                       else float(rng.uniform(1e4, 1e6)))
                a = fast.time_to_deliver(start, num_bytes, rate_cap_bytes_per_s=cap)
                b = reference.time_to_deliver(start, num_bytes, rate_cap_bytes_per_s=cap)
                assert a == pytest.approx(b, abs=1e-9)

    def test_unknown_engine_rejected(self, trace_mix):
        with pytest.raises(ValueError):
            PacketDeliveryLink(trace_mix[0], LinkConfig(delivery_engine="walk"))

    def test_schedule_cache_shared_between_links(self, trace_mix):
        trace = trace_mix[0]
        first = PacketDeliveryLink(trace, LinkConfig(delivery_engine="prefix"))
        second = PacketDeliveryLink(trace, LinkConfig(delivery_engine="bisect"))
        assert first._cumulative is second._cumulative
        assert trace in _SCHEDULE_CACHE

    def test_throughputs_at_matches_scalar(self, trace_mix):
        for trace in trace_mix:
            times = np.linspace(0.0, trace.duration_s * 2.5, 137)
            vector = trace.throughputs_at(times)
            scalar = np.array([trace.throughput_at(t) for t in times])
            assert np.array_equal(vector, scalar)


class TestGatheredStates:
    def test_matches_serial_state_function_bitwise(self, serve_video, rng):
        n = 7
        ladder = np.asarray(serve_video.bitrates_kbps, dtype=np.float64)
        histories = [rng.uniform(0.0, 10.0, (n, HISTORY_LENGTH))
                     for _ in range(4)]
        next_chunks = rng.integers(0, serve_video.num_chunks, n)
        total = serve_video.num_chunks
        out = np.empty((n, 6, HISTORY_LENGTH))
        original_states_gathered(
            histories[0], histories[1], histories[2], histories[3],
            serve_video.chunk_sizes_bytes[next_chunks],
            total - next_chunks, total, ladder, out)
        for i in range(n):
            expected = original_state_function(
                histories[0][i], histories[1][i], histories[2][i],
                histories[3][i],
                serve_video.chunk_sizes_bytes[next_chunks[i]].copy(),
                int(total - next_chunks[i]), total, ladder)
            assert np.array_equal(out[i], expected)


class TestFleetBitIdentity:
    def test_single_session_matches_emulator_run(self, serve_video, trace_mix,
                                                 agent):
        fleet = Fleet(serve_video, trace_mix[:1])
        fleet_result = fleet.run(agent, num_sessions=1)
        policy = BatchedPolicy(agent, greedy=True)
        serial = Emulator(serve_video).run(policy.serial_policy(0),
                                           trace_mix[0])
        assert _signature(fleet_result.sessions[0]) == _signature(serial)

    def test_fleet_matches_serial_reference_greedy(self, serve_video,
                                                   trace_mix, agent):
        fleet = Fleet(serve_video, trace_mix)
        n = 50
        fleet_result = fleet.run(agent, num_sessions=n)
        reference = fleet.serial_reference(agent, num_sessions=n)
        assert len(fleet_result.sessions) == n
        for got, expected in zip(fleet_result.sessions, reference):
            assert got.trace_name == expected.trace_name
            assert _signature(got) == _signature(expected)

    def test_fleet_matches_serial_reference_stochastic(self, serve_video,
                                                       trace_mix, agent):
        fleet = Fleet(serve_video, trace_mix)
        n = 12
        fleet_result = fleet.run(agent, num_sessions=n, greedy=False,
                                 sample_seed=11)
        reference = fleet.serial_reference(agent, num_sessions=n,
                                           greedy=False, sample_seed=11)
        for got, expected in zip(fleet_result.sessions, reference):
            assert _signature(got) == _signature(expected)

    def test_results_invariant_to_tick_grouping(self, serve_video, trace_mix,
                                                agent):
        wide = Fleet(serve_video, trace_mix, config=FleetConfig(
            arrival_process="instant", batch_window_s=5.0))
        narrow = Fleet(serve_video, trace_mix, config=FleetConfig(
            arrival_process="poisson", arrival_rate_per_s=5.0,
            batch_window_s=0.0))
        a = wide.run(agent, num_sessions=10)
        b = narrow.run(agent, num_sessions=10)
        for x, y in zip(a.sessions, b.sessions):
            assert _signature(x) == _signature(y)
        # Grouping differed even though results did not.
        assert a.metrics.num_ticks != b.metrics.num_ticks
        assert a.metrics.num_decisions == b.metrics.num_decisions

    def test_callable_policy_supported(self, serve_video, trace_mix):
        fleet = Fleet(serve_video, trace_mix)
        fleet_result = fleet.run(BufferBasedPolicy(), num_sessions=6)
        reference = fleet.serial_reference(BufferBasedPolicy(), num_sessions=6)
        for got, expected in zip(fleet_result.sessions, reference):
            assert _signature(got) == _signature(expected)

    def test_serving_metrics_populated(self, serve_video, trace_mix, agent):
        # One shard: busy time and wall time are the same process's clock.
        fleet = Fleet(serve_video, trace_mix, config=FleetConfig(workers=1))
        metrics = fleet.run(agent, num_sessions=10).metrics
        assert metrics.num_sessions == 10
        assert metrics.num_decisions == 10 * serve_video.num_chunks
        assert metrics.num_ticks <= metrics.num_decisions
        assert metrics.mean_batch_size >= 1.0
        assert metrics.decisions_per_s > 0
        assert metrics.sessions_per_s > 0
        assert (0.0 <= metrics.p50_decision_latency_s
                <= metrics.p95_decision_latency_s
                <= metrics.p99_decision_latency_s)
        assert metrics.emulate_s > 0
        assert metrics.decide_s + metrics.emulate_s <= metrics.wall_s
        assert metrics.to_dict()["emulate_s"] == metrics.emulate_s
        assert metrics.shards == 1 and metrics.shard_imbalance == 1.0

    def test_sharded_serving_metrics_populated(self, serve_video, trace_mix,
                                               agent):
        fleet = Fleet(serve_video, trace_mix, config=FleetConfig(workers=2))
        metrics = fleet.run(agent, num_sessions=10).metrics
        assert metrics.shards == 2
        assert metrics.num_decisions == 10 * serve_video.num_chunks
        assert metrics.num_ticks <= metrics.num_decisions
        assert metrics.emulate_s > 0
        # Busy time is summed over the shards' processes.
        assert (metrics.decide_s + metrics.emulate_s
                <= metrics.wall_s * metrics.shards)
        assert metrics.shard_imbalance >= 1.0
        assert 0.0 < metrics.shard_cpu_share <= 1.01
        assert metrics.to_dict()["shards"] == 2

    def test_report_splits_serve_wall_time(self, serve_video, trace_mix,
                                           agent):
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            metrics = Fleet(serve_video, trace_mix).run(agent, 6).metrics
        finally:
            telemetry.set_telemetry(previous)
        serving = telemetry.summarize(sink.events)["serving"]
        assert serving["emulate_s"] == metrics.emulate_s
        assert serving["decide_s"] == metrics.decide_s
        report = telemetry.render_report(sink.events)
        assert "wall split" in report and "emulate" in report


def _value_digest(sessions):
    """sha256 over every record's values (floats as ``float.hex``)."""
    digest = hashlib.sha256()
    for session in sessions:
        digest.update(session.trace_name.encode())
        for r in session.records:
            digest.update(repr((r.chunk_index, r.bitrate_index,
                                float(r.reward).hex(),
                                float(r.download_time_s).hex(),
                                float(r.rebuffer_s).hex(),
                                float(r.buffer_s).hex())).encode())
    return digest.hexdigest()


class _RaiseInChild:
    """A policy that fails only in a forked shard process."""

    def __init__(self):
        self.parent = os.getpid()

    def __call__(self, observation):
        if os.getpid() != self.parent:
            raise RuntimeError("policy failed inside a shard")
        return 0


def _single_blas_thread_policy(observation):
    """A policy that fails unless its shard runs BLAS on one thread."""
    if blas._get_num_threads() not in (None, 1):
        raise AssertionError("shard BLAS is not single-threaded")
    return 0


def _auto_shards_in_child(num_sessions):
    fleet = Fleet(synthetic_video("standard", num_chunks=2, seed=1),
                  [generate_fcc_trace(duration_s=60.0, seed=0)])
    return (fleet._resolve_shards(num_sessions),
            fleet.run(BufferBasedPolicy(), num_sessions).metrics.shards)


class TestShardedFleet:
    """``FleetConfig.workers`` splits a run over processes, never results."""

    @pytest.mark.parametrize("greedy", [True, False])
    def test_shards_match_serial_reference(self, serve_video, trace_mix,
                                           agent, greedy):
        reference = Fleet(serve_video, trace_mix).serial_reference(
            agent, num_sessions=7, greedy=greedy, sample_seed=3)
        expected = _value_digest(reference)
        for workers in (1, 2, 3):
            fleet = Fleet(serve_video, trace_mix,
                          config=FleetConfig(workers=workers))
            result = fleet.run(agent, num_sessions=7, greedy=greedy,
                               sample_seed=3)
            assert result.metrics.shards == workers
            assert [s.trace_name for s in result.sessions] == \
                [s.trace_name for s in reference]
            assert _value_digest(result.sessions) == expected, workers

    def test_more_workers_than_sessions(self, serve_video, trace_mix, agent):
        fleet = Fleet(serve_video, trace_mix, config=FleetConfig(workers=9))
        result = fleet.run(agent, num_sessions=4)
        assert result.metrics.shards == 4
        assert _value_digest(result.sessions) == _value_digest(
            fleet.serial_reference(agent, num_sessions=4))

    def test_telemetry_summary_matches_one_shard(self, serve_video,
                                                 trace_mix, agent):
        def serving_summary(workers, max_batch):
            sink = telemetry.Telemetry()
            previous = telemetry.set_telemetry(sink)
            try:
                metrics = Fleet(serve_video, trace_mix, config=FleetConfig(
                    workers=workers, max_batch=max_batch)).run(agent, 7).metrics
            finally:
                telemetry.set_telemetry(previous)
            return telemetry.summarize(sink.events)["serving"], metrics

        # One decision per tick: shards cannot change the tick count.
        one, _ = serving_summary(1, max_batch=1)
        three, metrics = serving_summary(3, max_batch=1)
        keys = ("fleet_runs", "sessions", "decisions", "ticks")
        assert {k: three[k] for k in keys} == {k: one[k] for k in keys}
        assert three["fleet_runs"] == 1 and three["sessions"] == 7
        assert three["shards"] == 3 and one["shards"] == 1
        assert three["decide_s"] == metrics.decide_s
        assert three["emulate_s"] == metrics.emulate_s
        # Batched ticks: the merged counters add up to the run's metrics.
        summary, metrics = serving_summary(2, max_batch=4096)
        assert summary["ticks"] == metrics.num_ticks
        assert summary["decisions"] == metrics.num_decisions

    def test_report_names_the_shard_count(self, serve_video, trace_mix,
                                          agent):
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            Fleet(serve_video, trace_mix,
                  config=FleetConfig(workers=2)).run(agent, 6)
        finally:
            telemetry.set_telemetry(previous)
        report = telemetry.render_report(sink.events)
        assert "summed over 2 shards" in report

    def test_shard_exception_propagates(self, serve_video, trace_mix):
        fleet = Fleet(serve_video, trace_mix, config=FleetConfig(workers=2))
        with pytest.raises(RuntimeError, match="inside a shard"):
            fleet.run(_RaiseInChild(), num_sessions=4)
        from repro.emulation import fleet as fleet_module
        assert not fleet_module._SHARD_RUN

    def test_blas_single_thread_in_shards_and_restored(self, serve_video,
                                                       trace_mix):
        if blas._get_num_threads() is None:
            pytest.skip("no OpenBLAS thread-count symbol")
        previous = blas.set_num_threads(2)
        try:
            fleet = Fleet(serve_video, trace_mix,
                          config=FleetConfig(workers=2))
            fleet.run(_single_blas_thread_policy, num_sessions=4)
            assert blas._get_num_threads() == 2
        finally:
            blas.set_num_threads(previous)

    def test_blas_pin_without_openblas_warns_once(self, monkeypatch,
                                                  caplog):
        # A host whose BLAS has no OpenBLAS setter cannot be pinned; that
        # must surface as a warning (once per process), not pass silently.
        monkeypatch.setattr(blas, "_candidate_libraries", lambda: [])
        # The CLI's log setup stops `repro` records at its own handler.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        blas._openblas.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger=blas.logger.name):
                assert blas.set_num_threads(1) is None
                with blas.single_threaded():
                    pass
        finally:
            blas._openblas.cache_clear()
        warnings = [record for record in caplog.records
                    if record.name == blas.logger.name
                    and record.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "no OpenBLAS thread-count symbol" in warnings[0].getMessage()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0)

    def test_auto_is_one_shard_inside_a_multiprocessing_child(self):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(_auto_shards_in_child, 4).result() == (1, 1)

    def test_one_cpu_starts_no_child(self, serve_video, trace_mix, agent,
                                     monkeypatch):
        from repro.emulation import fleet as fleet_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-shard run started a process pool")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", no_pool)
        assert Fleet(serve_video, trace_mix, config=FleetConfig(
            workers=1)).run(agent, 5).metrics.shards == 1
        monkeypatch.setattr(fleet_module.os, "sched_getaffinity",
                            lambda pid: {0})
        assert Fleet(serve_video, trace_mix).run(agent, 5).metrics.shards == 1

    def test_no_fork_falls_back_to_one_shard(self, serve_video, trace_mix,
                                             agent, monkeypatch):
        from repro.emulation import fleet as fleet_module

        monkeypatch.setattr(fleet_module.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            result = Fleet(serve_video, trace_mix, config=FleetConfig(
                workers=2)).run(agent, 5)
        finally:
            telemetry.set_telemetry(previous)
        assert result.metrics.shards == 1
        counters = telemetry.summarize(sink.events)["counters"]
        assert counters["serve.shard_fallback"] == 1

    def test_wrapped_emulation_stack_stays_in_one_shard(
            self, serve_video, trace_mix, agent, monkeypatch):
        steps = []
        step = DashPlayer.step

        @functools.wraps(step)
        def counted(self, action):
            steps.append(action)
            return step(self, action)

        monkeypatch.setattr(DashPlayer, "step", counted)
        result = Fleet(serve_video, trace_mix,
                       config=FleetConfig(workers=2)).run(agent, 4)
        assert result.metrics.shards == 1
        assert len(steps) == result.metrics.num_decisions

    def test_no_fork_with_threads_warning(self):
        """No thread but the caller's is alive when a shard is forked.

        Python 3.12 warns on ``fork()`` when the OS thread count the parent
        reads just after the fork (``/proc/self/stat`` on Linux) exceeds
        one.  OpenBLAS's thread pool is alive until its own fork handler
        stops it, so this counts threads at the same point, in a fresh
        process whose BLAS is left unpinned and has run a threaded GEMM.
        """
        if not os.path.exists("/proc/self/stat"):
            pytest.skip("no /proc thread count")
        script = textwrap.dedent("""
            import os, warnings
            import numpy as np
            from repro.abr import BufferBasedPolicy, synthetic_video
            from repro.emulation import Fleet, FleetConfig
            from repro.traces import generate_fcc_trace

            def threads():
                with open("/proc/self/stat") as stat:
                    return int(stat.read().rsplit(")", 1)[1].split()[17])

            counts = []
            os.register_at_fork(after_in_parent=lambda: counts.append(threads()))
            warnings.simplefilter("error", DeprecationWarning)
            matrix = np.ones((512, 512))
            matrix @ matrix
            fleet = Fleet(synthetic_video("standard", num_chunks=2, seed=1),
                          [generate_fcc_trace(duration_s=60.0, seed=0)],
                          config=FleetConfig(workers=3))
            assert fleet.run(BufferBasedPolicy(), 3).metrics.shards == 3
            print(counts)
        """)
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))] + sys.path)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[1, 1]"


class TestBatchedPolicy:
    def test_batched_probs_match_per_observation(self, serve_video, trace_mix,
                                                 agent):
        # BLAS may pick different kernels for batch-1 vs batch-k GEMMs, so
        # row probabilities agree to the final ulp rather than bitwise; the
        # selected actions must be identical (end-to-end session bit-identity
        # is pinned by TestFleetBitIdentity and the serving bench gate).
        players = [DashPlayer(serve_video, PacketDeliveryLink(t))
                   for t in trace_mix]
        observations = [p.observe() for p in players]
        states = np.stack([agent.state_of(o) for o in observations])
        batched = agent.batch_action_probabilities(states)
        for i, obs in enumerate(observations):
            single = agent.action_probabilities(agent.state_of(obs))
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-14)
            assert np.argmax(batched[i]) == np.argmax(single)

    def test_act_batch_matches_serial_act(self, serve_video, trace_mix, agent):
        players = [DashPlayer(serve_video, PacketDeliveryLink(t))
                   for t in trace_mix]
        observations = [p.observe() for p in players]
        batched = agent.act_batch(observations, greedy=True)
        serial = [agent.act(obs, greedy=True) for obs in observations]
        assert batched == serial

    def test_stochastic_rng_discipline(self, serve_video, trace_mix, agent):
        player = DashPlayer(serve_video, PacketDeliveryLink(trace_mix[0]))
        obs = player.observe()
        rngs = [session_rng(5, i) for i in range(3)]
        batched = agent.act_batch([obs] * 3, greedy=False, rngs=rngs)
        expected = []
        for i in range(3):
            rng = session_rng(5, i)
            from repro.rl.policy import sample_action
            probs = agent.action_probabilities(agent.state_of(obs))
            expected.append(sample_action(probs, rng))
        assert batched == expected

    def test_policy_probs_batch_requires_batch_axis(self):
        from repro.abr.networks import GenericActorCritic
        from repro.nn.compile import plan_for

        network = GenericActorCritic((6, HISTORY_LENGTH), 6,
                                     rng=np.random.default_rng(0))
        plan = plan_for(network)
        if plan is None:
            pytest.skip("compilation disabled")
        state = np.zeros((6, HISTORY_LENGTH))
        with pytest.raises(ValueError):
            plan.policy_probs_batch(state)
        batch = plan.policy_probs_batch(state[None, ...])
        assert batch.shape == (1, 6)

    def test_rejects_non_policy(self):
        with pytest.raises(TypeError):
            BatchedPolicy(42)


class TestFleetConfigValidation:
    def test_rejects_bad_arrival_process(self):
        with pytest.raises(ValueError):
            FleetConfig(arrival_process="flood")

    def test_rejects_bad_batch_window(self):
        with pytest.raises(ValueError):
            FleetConfig(batch_window_s=-1.0)

    def test_rejects_empty_fleet(self, serve_video, trace_mix, agent):
        with pytest.raises(ValueError):
            Fleet(serve_video, [])
        with pytest.raises(ValueError):
            Fleet(serve_video, trace_mix).run(agent, num_sessions=0)


class TestEmulationStore:
    def test_warm_replay_matches_cold_run(self, serve_video, trace_mix, agent,
                                          tmp_path):
        store = ResultStore(str(tmp_path))
        cold = evaluate_policy_emulated(agent, serve_video, trace_mix,
                                        store=store, environment="mix")
        assert store.puts == len(trace_mix)
        warm = evaluate_policy_emulated(agent, serve_video, trace_mix,
                                        store=store, environment="mix")
        assert warm == cold
        assert store.hits == len(trace_mix)

    def test_store_path_matches_serial_path(self, serve_video, trace_mix,
                                            agent, tmp_path):
        store = ResultStore(str(tmp_path))
        stored = evaluate_policy_emulated(agent, serve_video, trace_mix,
                                          store=store)
        serial = evaluate_policy_emulated(agent, serve_video, trace_mix)
        assert stored == serial

    def test_stochastic_records_independent_of_cold_subset(
            self, serve_video, trace_mix, agent, tmp_path):
        # Warm traces 0-1 first, then sweep all: traces 2+ are emulated in a
        # different fleet composition, yet every record must match the
        # all-cold sweep exactly.
        partial = ResultStore(str(tmp_path / "partial"))
        evaluate_policy_emulated(agent, serve_video, trace_mix[:2],
                                 store=partial, greedy=False, sample_seed=3)
        mixed = evaluate_policy_emulated(agent, serve_video, trace_mix,
                                         store=partial, greedy=False,
                                         sample_seed=3)
        cold = evaluate_policy_emulated(agent, serve_video, trace_mix,
                                        store=ResultStore(str(tmp_path / "cold")),
                                        greedy=False, sample_seed=3)
        assert mixed == cold

    def test_unfingerprintable_policy_bypasses_store(self, serve_video,
                                                     trace_mix, tmp_path):
        store = ResultStore(str(tmp_path))
        score = evaluate_policy_emulated(BufferBasedPolicy(), serve_video,
                                         trace_mix[:2], store=store)
        assert np.isfinite(score)
        assert store.puts == 0
        assert policy_fingerprint(BufferBasedPolicy()) is None

    def test_delivery_engine_is_key_material(self, serve_video):
        prefix = emulation_context_fingerprint(
            serve_video, config=EmulationConfig(
                link=LinkConfig(delivery_engine="prefix")))
        bisect = emulation_context_fingerprint(
            serve_video, config=EmulationConfig(
                link=LinkConfig(delivery_engine="bisect")))
        assert prefix != bisect

    def test_key_depends_on_weights_and_discipline(self, serve_video,
                                                   trace_mix, agent):
        context = emulation_context_fingerprint(serve_video)
        fp = policy_fingerprint(agent)
        assert fp is not None
        greedy = emulation_result_key(context, fp, trace_mix[0], greedy=True)
        sampled = emulation_result_key(context, fp, trace_mix[0], greedy=False,
                                       sample_seed=1)
        other_trace = emulation_result_key(context, fp, trace_mix[1],
                                           greedy=True)
        assert len({greedy, sampled, other_trace}) == 3
        # Perturbing a weight changes the policy fingerprint.
        params = agent.network.parameters()
        params[0].data = params[0].data + 1.0
        assert policy_fingerprint(agent) != fp


class TestPayloadStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get_payload("a" * 64) is None
        assert store.put_payload("a" * 64, {"x": 1.5})
        assert store.get_payload("a" * 64) == {"x": 1.5}
        # First writer wins; duplicate put is dropped.
        assert not store.put_payload("a" * 64, {"x": 2.0})
        assert store.get_payload("a" * 64) == {"x": 1.5}

    def test_malformed_payload_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "b" * 64
        store.put_payload(key, {"x": 1})
        path = store._path(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.peek_payload(key) is None
        assert store.corrupt == 1

    def test_rejects_non_dict_payload(self, tmp_path):
        with pytest.raises(TypeError):
            ResultStore(str(tmp_path)).put_payload("c" * 64, [1, 2])
