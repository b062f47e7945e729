"""Seed-for-seed equivalence suite for the multi-seed lockstep trainer.

The compiled engine's contract is that a seed trained in an n-seed stack
(stacked weights, batched fused updates) is indistinguishable from that seed
trained in a one-seed stack: identical trace choices, action sequences,
weights and :class:`TrainingRun` records, bit for bit, in both float32 and
float64.  The autograd reference trainer agrees to <= 1e-9 in float64.
These tests pin that contract, plus the stacked kernels and optimizers it is
built from.
"""

import numpy as np
import pytest

from repro import nn
from repro.abr.env import StreamingSession
from repro.abr.networks import GenericActorCritic
from repro.abr.state import StateFunction, original_states_batched
from repro.analysis.experiments import ExperimentScale, build_environment
from repro.core.design import Design, DesignKind
from repro.core.evaluation import (DesignTrainer, EvaluationConfig,
                                   TestScoreProtocol, instantiate_agent)
from repro.core.early_stopping import EarlyStoppingConfig, RewardTrajectoryClassifier
from repro.core.scheduler import protocol_score
from repro.rl.a2c import (A2CConfig, A2CTrainer, MultiSeedA2CTrainer,
                          evaluate_agent)

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def env_setup():
    return build_environment("fcc", ExperimentScale(dataset_scale=0.03,
                                                    num_chunks=10, seed=0))


def _agents(setup, seeds):
    return [instantiate_agent(None, None, setup.video, setup.train_traces,
                              seed=seed) for seed in seeds]


def _stack(setup, seeds, config):
    return MultiSeedA2CTrainer(_agents(setup, seeds), setup.video,
                               setup.train_traces, qoe=setup.qoe,
                               config=config, seeds=seeds)


@pytest.fixture
def dtype_guard():
    previous = nn.get_default_dtype()
    yield
    nn.set_default_dtype(previous)


# --------------------------------------------------------------------------- #
# Trainer equivalence
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_lockstep_matches_serial_seed_for_seed(env_setup, dtype, dtype_guard,
                                               monkeypatch):
    """A seed trained in a 3-seed stack equals it in a one-seed stack, bitwise."""
    nn.set_default_dtype(dtype)
    setup = env_setup
    # A non-default critic_lr so the per-group learning rates are exercised.
    config = A2CConfig(critic_lr=3e-3, entropy_anneal_epochs=8)
    epochs = 10

    recorded = []
    original_step = StreamingSession.step

    def recording_step(self, bitrate_index):
        recorded.append(bitrate_index)
        return original_step(self, bitrate_index)

    monkeypatch.setattr(StreamingSession, "step", recording_step)

    singles = [_stack(setup, [seed], config) for seed in SEEDS]
    single_actions = []
    for trainer in singles:
        recorded.clear()
        trainer.train(epochs)
        single_actions.append(list(recorded))

    recorded.clear()
    multi = _stack(setup, SEEDS, config)
    multi.train(epochs)
    lock_flat = list(recorded)

    # Lockstep steps seed-major within each epoch: regroup per seed.
    chunks = setup.video.num_chunks
    lock_actions = [[] for _ in SEEDS]
    position = 0
    for _ in range(epochs):
        for seed_index in range(len(SEEDS)):
            lock_actions[seed_index].extend(
                lock_flat[position:position + chunks])
            position += chunks

    multi_scores = multi.evaluate_checkpoint(setup.test_traces)
    for index, single in enumerate(singles):
        # Identical action sequences and per-epoch statistics (trace
        # choices included), field for field.
        assert single_actions[index] == lock_actions[index]
        assert single.histories[0] == multi.histories[index]
        # Identical weights.
        single_state = single.agents[0].network.state_dict()
        lock_state = multi.agents[index].network.state_dict()
        for key in single_state:
            assert np.array_equal(single_state[key], lock_state[key]), key
        # Identical checkpoint scores, equal to the plain evaluator's.
        score, = single.evaluate_checkpoint(setup.test_traces)
        assert multi_scores[index] == score
        assert score == evaluate_agent(single.agents[0], setup.video,
                                       setup.test_traces, qoe=setup.qoe,
                                       greedy=True, seed=SEEDS[index],
                                       batched=True)


def test_one_seed_stack_update_matches_autograd_reference(env_setup,
                                                          dtype_guard):
    """The compiled update agrees with ``A2CTrainer``'s graph update."""
    nn.set_default_dtype("float64")
    setup = env_setup
    config = A2CConfig(critic_lr=3e-3)
    rng = np.random.default_rng(0)
    states = rng.normal(size=(10, 6, 8))
    actions = rng.integers(0, setup.video.num_bitrates, size=10)
    returns = rng.normal(size=10)

    graph, = _agents(setup, [5])
    reference = A2CTrainer(graph, setup.video, setup.train_traces,
                           qoe=setup.qoe, config=config, seed=5)
    stack = _stack(setup, [5], config)
    graph_losses = reference._graph_update(states, actions, returns.copy(),
                                           0.4)
    stack_losses = stack._fused_update(states[None], actions[None],
                                       returns[None].copy(), 0.4)
    for graph_value, stack_value in zip(graph_losses, stack_losses):
        assert abs(graph_value - stack_value[0]) <= 1e-9
    for p, q in zip(graph.network.parameters(),
                    stack.agents[0].network.parameters()):
        assert np.abs(p.data - q.data).max() <= 1e-9, p.name


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_design_trainer_run_seeds_matches_run(env_setup, dtype, dtype_guard):
    nn.set_default_dtype(dtype)
    setup = env_setup
    config = EvaluationConfig(train_epochs=12, checkpoint_interval=4,
                              last_k_checkpoints=2, num_seeds=len(SEEDS),
                              a2c=A2CConfig(entropy_anneal_epochs=6))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    lock_runs = trainer.run_seeds(None, None, SEEDS)
    serial_runs = [trainer.run(None, None, seed=seed) for seed in SEEDS]
    for lock, serial in zip(lock_runs, serial_runs):
        assert lock.seed == serial.seed
        assert lock.checkpoint_epochs == serial.checkpoint_epochs
        assert lock.early_stopped == serial.early_stopped
        assert lock.last_k_checkpoints == serial.last_k_checkpoints
        assert np.allclose(lock.reward_history, serial.reward_history,
                           atol=1e-9, rtol=0.0)
        assert np.allclose(lock.checkpoint_scores, serial.checkpoint_scores,
                           atol=1e-9, rtol=0.0)


def test_protocol_scores_identical_with_and_without_lockstep(env_setup):
    setup = env_setup
    config = EvaluationConfig(train_epochs=8, checkpoint_interval=4,
                              last_k_checkpoints=2, num_seeds=2,
                              a2c=A2CConfig(entropy_anneal_epochs=4))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    lockstep = TestScoreProtocol(trainer).score_original()
    # The per-seed reference: each seed through DesignTrainer.run.
    per_seed = protocol_score([trainer.run(None, None, seed=seed)
                               for seed in range(config.num_seeds)],
                              config.last_k_checkpoints)
    assert lockstep == per_seed


def test_lockstep_with_bandwidth_noise_matches_serial(env_setup):
    """Per-seed simulator RNG streams survive lockstep even with noise."""
    from repro.abr.env import SimulatorConfig

    setup = env_setup
    config = EvaluationConfig(
        train_epochs=6, checkpoint_interval=3, last_k_checkpoints=2,
        num_seeds=2, a2c=A2CConfig(entropy_anneal_epochs=4),
        simulator=SimulatorConfig(bandwidth_noise_std=0.1))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    lock_runs = trainer.run_seeds(None, None, [0, 1])
    serial_runs = [trainer.run(None, None, seed=seed) for seed in (0, 1)]
    for lock, serial in zip(lock_runs, serial_runs):
        assert np.allclose(lock.reward_history, serial.reward_history,
                           atol=1e-9, rtol=0.0)
        assert np.allclose(lock.checkpoint_scores, serial.checkpoint_scores,
                           atol=1e-9, rtol=0.0)


# --------------------------------------------------------------------------- #
# Fallbacks
# --------------------------------------------------------------------------- #
GENERIC_NETWORK = '''
def build_network(state_shape, num_actions, rng=None):
    return nn_library.GenericActorCritic(state_shape, num_actions,
                                         hidden_sizes=(16, 16), rng=rng)
'''.strip()


def test_run_seeds_falls_back_for_unsupported_networks(env_setup):
    setup = env_setup
    design = Design(design_id="generic-net", kind=DesignKind.NETWORK,
                    code=GENERIC_NETWORK)
    config = EvaluationConfig(train_epochs=4, checkpoint_interval=2,
                              last_k_checkpoints=2, num_seeds=2,
                              a2c=A2CConfig(entropy_anneal_epochs=2))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    lock_runs = trainer.run_seeds(None, design, [0, 1])
    serial_runs = [trainer.run(None, design, seed=seed) for seed in (0, 1)]
    for lock, serial in zip(lock_runs, serial_runs):
        assert lock.reward_history == serial.reward_history
        assert lock.checkpoint_scores == serial.checkpoint_scores


def _fitted_classifier():
    classifier = RewardTrajectoryClassifier(
        EarlyStoppingConfig(reward_prefix_length=2, training_epochs=2))
    classifier.fit([[0.0, 0.1], [0.2, 0.3], [0.1, 0.2], [0.4, 0.5]],
                   [0.1, 0.9, 0.2, 0.8])
    return classifier


def test_run_seeds_trains_one_seed_stack_per_seed_with_early_stopping(
        env_setup, monkeypatch):
    setup = env_setup
    config = EvaluationConfig(train_epochs=4, checkpoint_interval=2,
                              last_k_checkpoints=2, num_seeds=2,
                              a2c=A2CConfig(entropy_anneal_epochs=2))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    stacks = []
    original_init = MultiSeedA2CTrainer.__init__

    def recording_init(self, agents, *args, seeds=None, **kwargs):
        stacks.append(list(seeds))
        original_init(self, agents, *args, seeds=seeds, **kwargs)

    monkeypatch.setattr(MultiSeedA2CTrainer, "__init__", recording_init)
    runs = trainer.run_seeds(None, None, [0, 1],
                             early_stopping=_fitted_classifier())
    assert [run.seed for run in runs] == [0, 1]
    assert stacks == [[0], [1]]
    # Without early stopping the same seeds share one stack.
    stacks.clear()
    trainer.run_seeds(None, None, [0, 1])
    assert stacks == [[0, 1]]


class _StopBelow:
    """Stops a seed whose second training episode scored below ``floor``."""

    config = EarlyStoppingConfig(reward_prefix_length=2, training_epochs=2)

    def __init__(self, floor):
        self.floor = floor

    def should_stop(self, rewards):
        assert len(rewards) == self.config.reward_prefix_length
        return rewards[-1] < self.floor


@pytest.mark.parametrize("early_stopping", [False, True])
def test_run_equals_run_seeds_record_for_record(env_setup, early_stopping):
    setup = env_setup
    config = EvaluationConfig(train_epochs=6, checkpoint_interval=2,
                              last_k_checkpoints=2, num_seeds=len(SEEDS),
                              a2c=A2CConfig(entropy_anneal_epochs=4))
    trainer = DesignTrainer(setup.video, setup.train_traces,
                            setup.test_traces, config=config, qoe=setup.qoe)
    # Seed 2's second episode scores about -44.5, seeds 0 and 1 above -20.
    classifier = _StopBelow(-20.0) if early_stopping else None
    batch = trainer.run_seeds(None, None, SEEDS, early_stopping=classifier)
    assert [run.early_stopped for run in batch] == [False, False,
                                                    early_stopping]
    for seed, batched in zip(SEEDS, batch):
        single = trainer.run(None, None, seed, early_stopping=classifier)
        assert single == trainer.run_seeds(None, None, [seed],
                                           early_stopping=classifier)[0]
        assert single == batched
    stopped = batch[-1]
    if early_stopping:
        assert len(stopped.reward_history) == 2
        assert stopped.checkpoint_epochs == [] and stopped.checkpoint_scores == []
    else:
        assert stopped.checkpoint_epochs == [2, 4, 6]


def test_supports_rejects_mixed_and_generic_networks(env_setup):
    setup = env_setup
    agents = _agents(setup, [0, 1])
    assert MultiSeedA2CTrainer.supports([a.network for a in agents])
    generic = GenericActorCritic((6, 8), setup.video.num_bitrates)
    assert not MultiSeedA2CTrainer.supports([agents[0].network, generic])
    assert not nn.CompiledSeedStack.compatible([])


# --------------------------------------------------------------------------- #
# Stacked kernels and optimizers
# --------------------------------------------------------------------------- #
def test_batched_matmul_matches_per_slice():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5, 7))
    b = rng.standard_normal((4, 7, 3))
    out = nn.batched_matmul(a, b)
    for s in range(4):
        assert np.array_equal(out[s], a[s] @ b[s])
    with pytest.raises(ValueError):
        nn.batched_matmul(a[0], b)
    with pytest.raises(ValueError):
        nn.batched_matmul(a, rng.standard_normal((4, 6, 3)))


def test_clip_grad_norm_stacked_matches_per_seed():
    rng = np.random.default_rng(1)
    shapes = [(3, 5), (7,), (2, 4, 4)]
    seeds = 3
    stacked = []
    per_seed = [[] for _ in range(seeds)]
    for shape in shapes:
        grads = rng.standard_normal((seeds,) + shape) * 4.0
        sp = nn.Parameter(np.zeros((seeds,) + shape))
        sp.grad = grads.copy()
        stacked.append(sp)
        for s in range(seeds):
            p = nn.Parameter(np.zeros(shape))
            p.grad = grads[s].copy()
            per_seed[s].append(p)
    norms = nn.clip_grad_norm_stacked(stacked, max_norm=2.0)
    for s in range(seeds):
        norm = nn.clip_grad_norm(per_seed[s], max_norm=2.0)
        assert norms[s] == norm
        for sp, p in zip(stacked, per_seed[s]):
            assert np.array_equal(sp.grad[s], p.grad)


@pytest.mark.parametrize("name", ["sgd", "rmsprop", "adam"])
def test_stacked_optimizers_match_per_seed(name):
    rng = np.random.default_rng(2)
    seeds, shape = 3, (9, 11)
    data = rng.standard_normal((seeds,) + shape)
    stacked = nn.Parameter(np.zeros(0))
    stacked.data = data.copy()
    singles = [nn.Parameter(np.zeros(0)) for _ in range(seeds)]
    for s, p in enumerate(singles):
        p.data = data[s].copy()
    classes = {"sgd": (nn.StackedSGD, nn.SGD, {"momentum": 0.9,
                                               "weight_decay": 1e-3}),
               "rmsprop": (nn.StackedRMSProp, nn.RMSProp, {}),
               "adam": (nn.StackedAdam, nn.Adam, {})}
    stacked_cls, serial_cls, kwargs = classes[name]
    stacked_opt = stacked_cls([stacked], lr=1e-2, **kwargs)
    serial_opts = [serial_cls([p], lr=1e-2, **kwargs) for p in singles]
    for _ in range(5):
        grads = rng.standard_normal((seeds,) + shape)
        stacked.grad = grads.copy()
        stacked_opt.step()
        for s, (p, opt) in enumerate(zip(singles, serial_opts)):
            p.grad = grads[s].copy()
            opt.step()
    for s, p in enumerate(singles):
        assert np.array_equal(stacked.data[s], p.data)


def test_optimizer_param_groups_use_group_learning_rates():
    a = nn.Parameter(np.ones(4))
    b = nn.Parameter(np.ones(4))
    optimizer = nn.SGD([{"params": [a], "lr": 0.1},
                        {"params": [b], "lr": 0.01}])
    a.grad = np.ones(4)
    b.grad = np.ones(4)
    optimizer.step()
    assert np.allclose(a.data, 1.0 - 0.1)
    assert np.allclose(b.data, 1.0 - 0.01)
    with pytest.raises(ValueError):
        nn.SGD([{"params": [a], "lr": -1.0}])


def test_original_states_batched_matches_serial(env_setup):
    setup = env_setup
    sessions = [StreamingSession(setup.video, trace, qoe=setup.qoe)
                for trace in list(setup.train_traces)[:3]]
    rng = np.random.default_rng(3)
    for session in sessions:
        for _ in range(4):
            session.step(int(rng.integers(setup.video.num_bitrates)))
    state_fn = StateFunction.original()
    expected = np.stack([state_fn(session.observe())
                         for session in sessions])
    out = np.empty_like(expected)
    histories = [session.history_arrays for session in sessions]
    simulator = sessions[0].simulator
    original_states_batched(
        np.stack([h[0] for h in histories]),
        np.stack([h[1] for h in histories]),
        np.stack([h[2] for h in histories]),
        np.stack([h[3] for h in histories]),
        setup.video.next_chunk_sizes(simulator.next_chunk_index),
        simulator.remaining_chunks, setup.video.num_chunks,
        np.asarray(setup.video.bitrates_kbps, dtype=np.float64), out=out)
    assert np.array_equal(out, expected)


def test_seed_stack_parameters_alias_network_weights(env_setup):
    setup = env_setup
    agents = _agents(setup, [0, 1])
    stack = nn.CompiledSeedStack([agent.network for agent in agents])
    for index, agent in enumerate(agents):
        for p, sp in zip(agent.network.parameters(), stack.parameters()):
            assert p.data.base is sp.data
            assert np.shares_memory(p.data, sp.data[index])


# --------------------------------------------------------------------------- #
# Critic learning rate (the silent-hyperparameter bugfix)
# --------------------------------------------------------------------------- #
def test_critic_lr_steps_critic_head_at_its_own_rate(env_setup):
    setup = env_setup
    config = A2CConfig(actor_lr=1e-2, critic_lr=1e-4, optimizer="sgd",
                       max_grad_norm=1e9, entropy_anneal_epochs=1)
    agent = instantiate_agent(None, None, setup.video, setup.train_traces,
                              seed=0)
    trainer = A2CTrainer(agent, setup.video, setup.train_traces,
                         qoe=setup.qoe, config=config, seed=0)
    network = agent.network
    critic_before = network.critic_out.weight.data.copy()
    actor_before = network.actor_out.weight.data.copy()
    trainer.train_epoch()
    critic_grad_step = critic_before - network.critic_out.weight.data
    actor_grad_step = actor_before - network.actor_out.weight.data
    critic_grad = network.critic_out.weight.grad
    actor_grad = network.actor_out.weight.grad
    assert np.allclose(critic_grad_step, config.critic_lr * critic_grad,
                       atol=1e-12)
    assert np.allclose(actor_grad_step, config.actor_lr * actor_grad,
                       atol=1e-12)
    # The critic head visibly moves slower than it would at actor_lr.
    assert np.max(np.abs(critic_grad_step)) < np.max(np.abs(
        config.actor_lr * critic_grad))


def test_critic_head_parameters_cover_both_architectures(env_setup):
    setup = env_setup
    pensieve = _agents(setup, [0])[0].network
    critic = pensieve.critic_head_parameters()
    assert set(map(id, critic)) == {
        id(p) for p in (pensieve.critic_hidden.parameters()
                        + pensieve.critic_out.parameters())}
    generic = GenericActorCritic((6, 8), 4, hidden_sizes=(8,))
    ids = {id(p) for p in generic.critic_head_parameters()}
    assert {id(p) for p in generic.critic_out.parameters()} <= ids
    shared = GenericActorCritic((6, 8), 4, hidden_sizes=(8,),
                                share_trunk=True)
    assert ({id(p) for p in shared.critic_head_parameters()}
            == {id(p) for p in shared.critic_out.parameters()})
