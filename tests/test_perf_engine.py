"""Equivalence and property tests for the performance engine.

Covers the two layers of the vectorized/parallel evaluation engine:

* prefix-sum downloads == segment-walk downloads (random traces, offsets,
  noise, zero-throughput segments, multi-cycle wraps);
* serial TestScoreProtocol == parallel TestScoreProtocol, bit for bit;
* batched greedy evaluation == serial greedy evaluation;
* the fused analytic A2C update == the autograd update;
* vectorized discounted returns == the scalar recurrence;
* the dtype knob, the exact download-termination bound, and the
  ``TrainingRun.final_score`` last-k semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.abr.env import ChunkLevelSimulator, SimulatorConfig
from repro.abr.networks import GenericActorCritic, PensieveNetwork
from repro.abr.video import synthetic_video
from repro.analysis.experiments import ExperimentScale, build_environment
from repro.core.evaluation import DesignTrainer, TestScoreProtocol, TrainingRun
from repro.core.parallel import ParallelConfig
from repro.rl.a2c import evaluate_agent, evaluate_agent_batched
from repro.rl.rollout import discounted_returns
from repro.traces.base import Trace, TraceSet


def _random_trace(rng: np.random.Generator, index: int) -> Trace:
    n = int(rng.integers(4, 50))
    gaps = rng.uniform(0.05, 5.0, size=n - 1)
    times = rng.uniform(0.0, 3.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    throughputs = rng.uniform(0.2, 8.0, size=n)
    if index % 3 == 0:
        # A minority of dead segments exercises the throughput floor.
        throughputs[rng.choice(n, size=n // 4, replace=False)] = 0.0
    return Trace(times, throughputs, name=f"random-{index}")


class TestDownloadEngineEquivalence:
    def test_prefix_sum_matches_segment_walk(self):
        """Property: both engines compute the same download time from the
        same simulator state, across random traces, offsets, noise and
        chunk sizes."""
        rng = np.random.default_rng(1234)
        video = synthetic_video("standard", num_chunks=8, seed=3)
        for index in range(25):
            trace = _random_trace(rng, index)
            fast = ChunkLevelSimulator(
                video, trace, config=SimulatorConfig(download_engine="prefix_sum"))
            slow = ChunkLevelSimulator(
                video, trace, config=SimulatorConfig(download_engine="segment_walk"))
            for _ in range(12):
                offset = float(rng.uniform(0, trace.duration_s))
                noise = float(rng.uniform(0.3, 1.7)) if index % 4 == 0 else 1.0
                chunk_bytes = float(rng.uniform(1e3, 5e6))
                fast.reset(start_offset_s=offset)
                slow.reset(start_offset_s=offset)
                time_fast = fast._download(chunk_bytes, noise)
                time_slow = slow._download(chunk_bytes, noise)
                assert time_fast == pytest.approx(time_slow, rel=1e-9), (
                    trace.name, offset, noise, chunk_bytes)

    def test_multi_cycle_download_wraps_exactly(self):
        """A chunk larger than one replay cycle wraps and still agrees."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        trace = Trace([0.0, 5.0, 10.0], [0.001, 0.0, 0.002], name="dead-link")
        fast = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="prefix_sum"))
        slow = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="segment_walk"))
        fast.reset(start_offset_s=2.0)
        slow.reset(start_offset_s=2.0)
        assert fast._download(1e4, 1.0) == pytest.approx(
            slow._download(1e4, 1.0), rel=1e-9)

    def test_flat_trace_closed_form(self):
        """On a constant link the prefix engine is exactly bytes/rate."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        timestamps = np.arange(0.0, 100.0, 1.0)
        trace = Trace(timestamps, np.full_like(timestamps, 4.0), name="flat")
        sim = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="prefix_sum"))
        chunk_bytes = 1e6
        expected = chunk_bytes / (4.0 * 1e6 / 8.0 * sim.config.payload_fraction)
        assert sim._download(chunk_bytes, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_full_episode_equivalence(self):
        """Stepping whole sessions in lockstep (states re-synced) agrees."""
        rng = np.random.default_rng(7)
        video = synthetic_video("standard", num_chunks=10, seed=2)
        trace = _random_trace(rng, 1)
        fast = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="prefix_sum"))
        slow = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="segment_walk"))
        for chunk in range(video.num_chunks):
            bitrate = int(rng.integers(0, video.num_bitrates))
            result_fast = fast.step(bitrate)
            result_slow = slow.step(bitrate)
            assert result_fast.download_time_s == pytest.approx(
                result_slow.download_time_s, rel=1e-9)
            # Re-sync: the buffer-full sleep quantization can amplify float
            # round-off into divergent trajectories; the per-step contract is
            # what the engines guarantee.
            slow._time_in_trace_s = fast._time_in_trace_s
            slow._buffer_s = fast._buffer_s

    def test_unknown_engine_rejected(self):
        video = synthetic_video("standard", num_chunks=4, seed=0)
        trace = Trace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        sim = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="bogus"))
        with pytest.raises(ValueError, match="bogus"):
            sim.step(0)


class TestDownloadTerminationBound:
    def test_error_names_trace_when_walk_cannot_finish(self, monkeypatch):
        """If the walk stops making progress the exact bound trips with a
        descriptive error naming the trace."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        trace = Trace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], name="stuck-trace")
        sim = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="segment_walk"))
        monkeypatch.setattr(
            ChunkLevelSimulator, "_segment_view", lambda self: (1.0, 1e-12))
        with pytest.raises(RuntimeError, match="stuck-trace"):
            sim._download(1e6, 1.0)

    def test_bound_is_generous_for_legitimate_downloads(self):
        """Normal downloads never trip the bound, even multi-cycle ones."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        trace = Trace([0.0, 1.0, 2.0], [0.05, 0.05, 0.05], name="slow")
        sim = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="segment_walk"))
        assert sim._download(5e5, 1.0) > 0

    def test_dead_link_fails_fast_instead_of_walking(self):
        """An effectively dead link raises immediately (naming the trace)
        rather than spending minutes walking tens of millions of segments."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        trace = Trace([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], name="all-zero")
        sim = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="segment_walk"))
        with pytest.raises(RuntimeError, match="all-zero"):
            sim._download(5e6, 1.0)
        # The prefix-sum engine resolves the same download in closed form.
        fast = ChunkLevelSimulator(
            video, trace, config=SimulatorConfig(download_engine="prefix_sum"))
        assert np.isfinite(fast._download(5e6, 1.0))

    def test_capacity_prefix_cache_is_bounded(self):
        """Per-download noise floors must not grow the trace cache unboundedly."""
        video = synthetic_video("standard", num_chunks=4, seed=0)
        timestamps = np.arange(0.0, 50.0, 1.0)
        trace = Trace(timestamps, np.full_like(timestamps, 3.0), name="noisy")
        sim = ChunkLevelSimulator(
            video, trace,
            config=SimulatorConfig(bandwidth_noise_std=0.3,
                                   download_engine="prefix_sum"),
            rng=np.random.default_rng(0))
        for _ in range(50):
            sim.reset(start_offset_s=0.0)
            sim.step(2)
        assert len(trace._capacity_cache) <= 8


class TestSerialParallelEquivalence:
    @pytest.fixture
    def protocol_setup(self):
        scale = ExperimentScale(train_epochs=6, checkpoint_interval=3,
                                last_k_checkpoints=2, num_seeds=2,
                                dataset_scale=0.02, num_chunks=6)
        setup = build_environment("fcc", scale)
        trainer = DesignTrainer(setup.video, setup.train_traces,
                                setup.test_traces,
                                config=scale.evaluation_config(), qoe=setup.qoe)
        return trainer

    def test_scores_bit_identical(self, protocol_setup):
        serial = TestScoreProtocol(protocol_setup)
        parallel = TestScoreProtocol(
            protocol_setup, parallel=ParallelConfig(max_workers=2))
        serial_score, serial_runs = serial.run(None, None)
        parallel_score, parallel_runs = parallel.run(None, None)
        assert serial_score == parallel_score
        assert len(serial_runs) == len(parallel_runs)
        for run_a, run_b in zip(serial_runs, parallel_runs):
            assert run_a.seed == run_b.seed
            assert run_a.reward_history == run_b.reward_history
            assert run_a.checkpoint_epochs == run_b.checkpoint_epochs
            assert run_a.checkpoint_scores == run_b.checkpoint_scores

    def test_run_many_matches_individual_runs(self, protocol_setup):
        protocol = TestScoreProtocol(protocol_setup)
        single_score, _ = protocol.run(None, None)
        results = protocol.run_many([(None, None), (None, None)])
        assert len(results) == 2
        for score, runs in results:
            assert score == single_score
            assert len(runs) == len(protocol.seeds)


class TestBatchedEvaluation:
    def test_batched_matches_serial(self):
        scale = ExperimentScale(dataset_scale=0.02, num_chunks=8)
        setup = build_environment("fcc", scale)
        agent = _make_agent(setup)
        serial = evaluate_agent(agent, setup.video, setup.test_traces,
                                qoe=setup.qoe, batched=False)
        batched = evaluate_agent(agent, setup.video, setup.test_traces,
                                 qoe=setup.qoe, batched=True)
        direct = evaluate_agent_batched(agent, setup.video, setup.test_traces,
                                        qoe=setup.qoe)
        assert batched == pytest.approx(serial, rel=1e-9)
        assert direct == pytest.approx(serial, rel=1e-9)

    def test_noise_falls_back_to_serial(self):
        """Bandwidth noise requires the serial path (RNG stream order)."""
        scale = ExperimentScale(dataset_scale=0.02, num_chunks=6)
        setup = build_environment("fcc", scale)
        agent = _make_agent(setup)
        noisy = SimulatorConfig(bandwidth_noise_std=0.2)
        score_a = evaluate_agent(agent, setup.video, setup.test_traces,
                                 qoe=setup.qoe, simulator_config=noisy,
                                 seed=3, batched=True)
        score_b = evaluate_agent(agent, setup.video, setup.test_traces,
                                 qoe=setup.qoe, simulator_config=noisy,
                                 seed=3, batched=False)
        assert score_a == score_b


def _make_agent(setup, seed=0):
    from repro.core.evaluation import instantiate_agent
    return instantiate_agent(None, None, setup.video, setup.train_traces,
                             seed=seed)


class TestFastInference:
    def test_fast_matches_graph_forward(self):
        rng = np.random.default_rng(0)
        cases = [
            PensieveNetwork((6, 8), 6, rng=rng),
            PensieveNetwork((4, 8), 6, rng=rng),
            PensieveNetwork((5,), 6, rng=rng),
            GenericActorCritic((6, 8), 6, rng=rng),
            GenericActorCritic((6, 8), 6, encoder="conv", rng=rng),
            GenericActorCritic((7,), 4, rng=rng),
            GenericActorCritic((6, 8), 6, encoder="gru", rng=rng),
        ]
        for network in cases:
            states = rng.normal(size=(5,) + network.state_shape)
            fast = network.policy_probs(states)
            previous = nn.set_compilation(False)
            try:
                graph = network.policy_probs(states)
            finally:
                nn.set_compilation(previous)
            np.testing.assert_allclose(fast, graph, atol=1e-12)

    def test_fold_cache_invalidated_by_optimizer_step(self):
        rng = np.random.default_rng(1)
        network = PensieveNetwork((6, 8), 6, rng=rng)
        states = rng.normal(size=(3, 6, 8))
        before = network.policy_probs(states)
        optimizer = nn.RMSProp(network.parameters(), lr=0.05)
        logits, value = network.forward(nn.tensor(states))
        (logits.sum() + value.sum()).backward()
        optimizer.step()
        after = network.policy_probs(states)
        previous = nn.set_compilation(False)
        try:
            graph = network.policy_probs(states)
        finally:
            nn.set_compilation(previous)
        np.testing.assert_allclose(after, graph, atol=1e-12)
        assert np.abs(after - before).max() > 1e-9


class TestFusedUpdate:
    def test_generic_network_fused_support_follows_compiler(self):
        # Since PR 5 the kernel compiler lowers generated architectures onto
        # the fused path; --no-compile restores the graph-only behaviour.
        network = GenericActorCritic((6, 8), 6,
                                     rng=np.random.default_rng(0))
        assert network.compiled_plan() is not None
        previous = nn.set_compilation(False)
        try:
            fresh = GenericActorCritic((6, 8), 6,
                                       rng=np.random.default_rng(0))
            assert fresh.compiled_plan() is None
        finally:
            nn.set_compilation(previous)


class TestDiscountedReturnsVectorized:
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 0.99, 1.0])
    @pytest.mark.parametrize("length", [0, 1, 2, 17, 48, 600])
    def test_matches_scalar_recurrence(self, gamma, length):
        rng = np.random.default_rng(length + int(gamma * 100))
        rewards = rng.normal(size=length).tolist()
        bootstrap = 2.5
        expected = np.zeros(length)
        running = bootstrap
        for index in reversed(range(length)):
            running = rewards[index] + gamma * running
            expected[index] = running
        actual = discounted_returns(rewards, gamma, bootstrap)
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9)


class TestDtypeKnob:
    def test_set_default_dtype(self):
        previous = nn.set_default_dtype("float32")
        try:
            assert nn.get_default_dtype() == np.float32
            assert nn.tensor([1.0, 2.0]).data.dtype == np.float32
            assert nn.zeros(3).data.dtype == np.float32
            dense = nn.Dense(4, 2)
            assert dense.weight.data.dtype == np.float32
        finally:
            nn.set_default_dtype(previous)
        assert nn.get_default_dtype() == np.float64

    def test_context_manager(self):
        with nn.default_dtype("float32"):
            assert nn.get_default_dtype() == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype("int32")

    def test_experiment_scale_dtype_applied(self):
        """The drivers run under scale.dtype and restore the global default."""
        from repro.analysis.experiments import run_component_experiment
        scale = ExperimentScale(train_epochs=2, checkpoint_interval=2,
                                last_k_checkpoints=1, num_seeds=1,
                                dataset_scale=0.02, num_chunks=5,
                                num_designs=2, max_trained_designs=1,
                                dtype="float32")
        result = run_component_experiment("fcc", scale=scale)
        assert np.isfinite(result.original_score)
        assert nn.get_default_dtype() == np.float64

    def test_float32_training_runs(self):
        with nn.default_dtype("float32"):
            scale = ExperimentScale(train_epochs=3, checkpoint_interval=3,
                                    last_k_checkpoints=1, num_seeds=1,
                                    dataset_scale=0.02, num_chunks=5)
            setup = build_environment("fcc", scale)
            trainer = DesignTrainer(setup.video, setup.train_traces,
                                    setup.test_traces,
                                    config=scale.evaluation_config(),
                                    qoe=setup.qoe)
            score, runs = TestScoreProtocol(trainer).run(None, None)
            assert np.isfinite(score)
            assert runs[0].checkpoint_scores


class TestFinalScoreLastK:
    def test_honors_configured_last_k(self):
        run = TrainingRun(seed=0, reward_history=[], checkpoint_epochs=[1, 2, 3, 4],
                          checkpoint_scores=[0.0, 0.0, 1.0, 3.0],
                          last_k_checkpoints=2)
        assert run.final_score == pytest.approx(2.0)

    def test_falls_back_to_all_checkpoints(self):
        run = TrainingRun(seed=0, reward_history=[], checkpoint_epochs=[1, 2],
                          checkpoint_scores=[1.0, 3.0])
        assert run.final_score == pytest.approx(2.0)

    def test_empty_scores_are_minus_inf(self):
        run = TrainingRun(seed=0, reward_history=[], checkpoint_epochs=[],
                          checkpoint_scores=[], last_k_checkpoints=3)
        assert run.final_score == float("-inf")

    def test_trainer_stamps_last_k(self):
        scale = ExperimentScale(train_epochs=4, checkpoint_interval=2,
                                last_k_checkpoints=1, num_seeds=1,
                                dataset_scale=0.02, num_chunks=5)
        setup = build_environment("fcc", scale)
        trainer = DesignTrainer(setup.video, setup.train_traces,
                                setup.test_traces,
                                config=scale.evaluation_config(), qoe=setup.qoe)
        run = trainer.run(None, None, seed=0)
        assert run.last_k_checkpoints == 1
        assert run.final_score == pytest.approx(run.checkpoint_scores[-1])
