"""Advantage actor-critic (A2C) trainer for ABR agents.

This is the training algorithm behind Pensieve (the original uses A3C, the
asynchronous variant; the synchronous form trains the same objective).  One
"epoch" is one streaming episode: the agent plays a full video over a randomly
chosen training trace, and the collected trajectory produces one policy and
value update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..abr.env import SimulatorConfig, StreamingSession
from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.state import original_state_function, original_states_batched
from ..abr.video import Video
from ..traces.base import TraceSet
from .agent import ABRAgent
from .policy import action_entropy, log_prob_of
from .rollout import collect_episode, discounted_returns
from .schedules import ConstantSchedule, LinearSchedule

__all__ = ["A2CConfig", "EpochStats", "A2CTrainer", "MultiSeedA2CTrainer",
           "TRAINING_METRIC_NAMES", "make_trainer",
           "evaluate_agent", "evaluate_agent_batched"]

#: The scalar training metrics (:class:`EpochStats` fields) snapshotted at
#: every checkpoint and attached to :class:`~repro.core.evaluation.TrainingRun`
#: (one series per name, aligned with ``checkpoint_epochs``).
TRAINING_METRIC_NAMES = ("entropy", "actor_loss", "critic_loss", "grad_norm")


@dataclass(frozen=True)
class A2CConfig:
    """Hyper-parameters of the actor-critic trainer (Pensieve defaults)."""

    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.99
    entropy_weight_start: float = 1.0
    entropy_weight_end: float = 0.1
    entropy_anneal_epochs: int = 1000
    value_loss_coefficient: float = 0.5
    max_grad_norm: float = 10.0
    optimizer: str = "rmsprop"


@dataclass
class EpochStats:
    """Per-epoch, per-seed training metrics returned by ``train_epoch``."""

    epoch: int
    episode_reward: float
    mean_chunk_reward: float
    actor_loss: float
    critic_loss: float
    entropy: float
    grad_norm: float
    trace_name: str


def _make_optimizer(name: str, parameters, lr: float):
    key = name.lower()
    if key == "rmsprop":
        return nn.RMSProp(parameters, lr=lr)
    if key == "adam":
        return nn.Adam(parameters, lr=lr)
    if key == "sgd":
        return nn.SGD(parameters, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")


def _make_stacked_optimizer(name: str, parameters, lr: float):
    """Stacked counterpart of :func:`_make_optimizer`.

    Same update rules, stepped in cache-sized blocks so a multi-seed
    parameter bank does not stream from memory once per update pass.
    """
    key = name.lower()
    if key == "rmsprop":
        return nn.StackedRMSProp(parameters, lr=lr)
    if key == "adam":
        return nn.StackedAdam(parameters, lr=lr)
    if key == "sgd":
        return nn.StackedSGD(parameters, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")


def _actor_critic_groups(network, config: A2CConfig,
                         stacked_of=None) -> list:
    """Parameter groups honoring ``actor_lr``/``critic_lr``.

    The critic head (as reported by ``network.critic_head_parameters``) steps
    at ``critic_lr``; every other parameter — branches, shared layers, actor
    tower — at ``actor_lr``.  ``stacked_of`` maps each serial parameter to its
    multi-seed stacked counterpart so the lockstep trainer builds the exact
    same grouping over stacked arrays.
    """
    critic = getattr(network, "critic_head_parameters", list)()
    critic_ids = {id(p) for p in critic}
    actor = [p for p in network.parameters() if id(p) not in critic_ids]
    if stacked_of is not None:
        actor = [stacked_of(p) for p in actor]
        critic = [stacked_of(p) for p in critic]
    groups = [{"params": actor, "lr": config.actor_lr}]
    if critic:
        groups.append({"params": critic, "lr": config.critic_lr})
    return groups


def _entropy_schedule(config: A2CConfig):
    if config.entropy_anneal_epochs > 0:
        return LinearSchedule(config.entropy_weight_start,
                              config.entropy_weight_end,
                              config.entropy_anneal_epochs)
    return ConstantSchedule(config.entropy_weight_start)


def _epoch_stats(epoch: int, rewards: Sequence[float], trace_name: str,
                 actor_loss, critic_loss, entropy, grad_norm) -> EpochStats:
    total = float(sum(rewards))
    return EpochStats(epoch=epoch, episode_reward=total,
                      mean_chunk_reward=total / max(len(rewards), 1),
                      actor_loss=float(actor_loss),
                      critic_loss=float(critic_loss), entropy=float(entropy),
                      grad_norm=float(grad_norm), trace_name=trace_name)


class A2CTrainer:
    """The autograd reference trainer: one seed, one graph update per epoch.

    Trains an :class:`ABRAgent` through ``loss.backward()`` on the network's
    autograd graph.  Compiled training is :class:`MultiSeedA2CTrainer`'s,
    for one seed or many; :func:`make_trainer` picks this class only for
    networks the kernel planner cannot stack (or under ``--no-compile``).
    It answers the same per-seed reads as a one-seed stack (``histories``,
    :meth:`evaluate_checkpoint`), so one training loop drives either.
    """

    def __init__(self, agent: ABRAgent, video: Video, train_traces: TraceSet,
                 qoe: Optional[QoEMetric] = None,
                 config: Optional[A2CConfig] = None,
                 simulator_config: Optional[SimulatorConfig] = None,
                 seed: Optional[int] = None) -> None:
        self.agent = agent
        self.video = video
        self.train_traces = train_traces
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.config = config or A2CConfig()
        self.simulator_config = simulator_config
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.agent.seed(int(self._rng.integers(2 ** 31)))
        groups = _actor_critic_groups(self.agent.network, self.config)
        self._optimizer = _make_optimizer(self.config.optimizer, groups,
                                          self.config.actor_lr)
        self._entropy_schedule = _entropy_schedule(self.config)
        self.epoch = 0
        self.history: List[EpochStats] = []

    @property
    def histories(self) -> List[List[EpochStats]]:
        """``[history]``: the per-seed read of a one-seed stack."""
        return [self.history]

    @property
    def reward_history(self) -> List[float]:
        """Episode rewards of every epoch trained so far.

        This is the training-reward trajectory that the early-stopping
        classifier consumes (§2.2 of the paper).
        """
        return [stats.episode_reward for stats in self.history]

    # ------------------------------------------------------------------ #
    def train_epoch(self) -> EpochStats:
        """Run one episode and apply one actor-critic update."""
        trace = self.train_traces.sample(self._rng)
        start_offset = float(self._rng.uniform(0.0, trace.duration_s))
        trajectory = collect_episode(
            self.agent, self.video, trace, qoe=self.qoe,
            config=self.simulator_config, rng=self._rng,
            start_offset_s=start_offset)
        losses = self._graph_update(
            trajectory.stacked_states(),
            np.asarray(trajectory.actions, dtype=np.int64),
            discounted_returns(trajectory.rewards, self.config.gamma),
            self._entropy_schedule(self.epoch))
        stats = _epoch_stats(self.epoch, trajectory.rewards, trace.name,
                             *losses)
        self.epoch += 1
        self.history.append(stats)
        return stats

    def train(self, num_epochs: int,
              callback: Optional[Callable[[EpochStats], None]] = None) -> List[EpochStats]:
        """Train for ``num_epochs`` episodes; returns the per-epoch stats."""
        stats_list = []
        for _ in range(num_epochs):
            stats = self.train_epoch()
            stats_list.append(stats)
            if callback is not None:
                callback(stats)
        return stats_list

    def evaluate_checkpoint(self, traces: TraceSet, greedy: bool = True,
                            batched: bool = True) -> List[float]:
        """``[evaluate_agent(...)]`` for this seed, like a one-seed stack."""
        return [evaluate_agent(self.agent, self.video, traces, qoe=self.qoe,
                               simulator_config=self.simulator_config,
                               greedy=greedy, seed=self.seed,
                               batched=batched)]

    # ------------------------------------------------------------------ #
    def _graph_update(self, states_array: np.ndarray, actions: np.ndarray,
                      returns: np.ndarray, entropy_weight: float):
        """One actor-critic update through the autograd graph."""
        states = nn.tensor(states_array)
        logits, values = self.agent.network.forward(states)
        advantages = returns - values.numpy()

        log_probs = log_prob_of(logits, actions)
        entropy = action_entropy(logits)

        actor_loss = nn.policy_gradient_loss(log_probs, advantages)
        critic_loss = nn.mse_loss(values, nn.tensor(returns))
        loss = (actor_loss
                + self.config.value_loss_coefficient * critic_loss
                - entropy_weight * entropy)

        self._optimizer.zero_grad()
        loss.backward()
        grad_norm = nn.clip_grad_norm(self.agent.network.parameters(),
                                      self.config.max_grad_norm)
        self._optimizer.step()
        return (float(actor_loss.item()), float(critic_loss.item()),
                float(entropy.item()), float(grad_norm))


def evaluate_agent(agent: ABRAgent, video: Video, traces: TraceSet,
                   qoe: Optional[QoEMetric] = None,
                   simulator_config: Optional[SimulatorConfig] = None,
                   greedy: bool = True,
                   seed: Optional[int] = None,
                   batched: bool = True) -> float:
    """Mean per-chunk reward of ``agent`` across every trace in ``traces``.

    This is the quantity plotted on the y-axis of Figures 3 and 4 ("test
    score" before seed-aggregation).  With ``batched=True`` (default) greedy,
    noise-free evaluations step every trace in lockstep with one batched
    policy forward per chunk — same decisions, a fraction of the forwards.
    """
    noise_free = simulator_config is None or simulator_config.bandwidth_noise_std == 0
    if batched and greedy and noise_free and len(traces) > 1:
        return evaluate_agent_batched(agent, video, traces, qoe=qoe,
                                      simulator_config=simulator_config)
    rng = np.random.default_rng(seed)
    qoe = qoe or LinearQoE(video.bitrates_kbps)
    rewards = []
    for trace in traces:
        trajectory = collect_episode(agent, video, trace, qoe=qoe,
                                     config=simulator_config, rng=rng,
                                     greedy=greedy)
        rewards.append(trajectory.mean_reward)
    return float(np.mean(rewards))


def _original_states_lockstep(sessions, video, ladder: np.ndarray,
                              out: np.ndarray) -> np.ndarray:
    """Original-design states for lockstep sessions, in one vectorized pass.

    Stacks the live observation histories of every session and runs
    :func:`~repro.abr.state.original_states_batched` — per session the state
    is bit-identical to ``agent.state_of(session.observe())``, without the
    per-session Python dispatch.  All sessions must sit at the same chunk
    index of the same video (the lockstep invariant).
    """
    views = [session.history_arrays for session in sessions]
    bitrate = np.stack([v[0] for v in views])
    throughput = np.stack([v[1] for v in views])
    download = np.stack([v[2] for v in views])
    buffer_s = np.stack([v[3] for v in views])
    first = sessions[0].simulator
    next_sizes = video.next_chunk_sizes(first.next_chunk_index)
    return original_states_batched(
        bitrate, throughput, download, buffer_s, next_sizes,
        first.remaining_chunks, video.num_chunks, ladder, out=out)


def _lockstep_greedy_rewards(sessions, state_of, probs_fn,
                             num_chunks: int, states_builder=None):
    """Step a batch of sessions in greedy lockstep; returns mean rewards.

    Every session streams the same video, so all of them need exactly
    ``num_chunks`` decisions; each decision round stacks the per-session
    states into a ``(sessions, *state_shape)`` array and asks ``probs_fn``
    for one batched forward.  ``states_builder``, when given, supplies that
    array in one vectorized pass (the original-design fast path); the
    default stacks per-session ``state_of`` calls.  Greedy decisions
    consume no randomness, so per-session decisions are identical to
    stepping each session on its own.
    """
    for _ in range(num_chunks):
        if states_builder is not None:
            states = states_builder()
        else:
            states = np.stack([state_of(session.observe())
                               for session in sessions], axis=0)
        probs = probs_fn(states)
        actions = np.argmax(probs, axis=-1)
        for session, action in zip(sessions, actions):
            session.step(int(action))
    return [session.result().mean_reward for session in sessions]


def evaluate_agent_batched(agent: ABRAgent, video: Video, traces: TraceSet,
                           qoe: Optional[QoEMetric] = None,
                           simulator_config: Optional[SimulatorConfig] = None,
                           ) -> float:
    """Greedy evaluation of ``agent`` on all traces in lockstep.

    One batched policy forward per chunk resolves every trace's decision —
    same decisions as the serial path, a fraction of the forwards (the
    simulator RNG is only touched by bandwidth noise, which the caller must
    disable to use this path).
    """
    qoe = qoe or LinearQoE(video.bitrates_kbps)
    sessions = [StreamingSession(video, trace, qoe=qoe, config=simulator_config)
                for trace in traces]
    rewards = _lockstep_greedy_rewards(
        sessions, agent.state_of, agent.batch_action_probabilities,
        video.num_chunks)
    return float(np.mean(rewards))


class MultiSeedA2CTrainer:
    """The compiled trainer: every seed of one design on one weight stack.

    The §3.1 protocol trains each design ``num_seeds`` times with different
    seeds.  This trainer stacks the per-seed network weights into
    ``(seeds, *shape)`` arrays (:class:`~repro.nn.compile.CompiledSeedStack`,
    for the original Pensieve architecture and every generated design-space
    architecture the kernel planner lowers) and trains the seeds together:
    per round, each seed samples its own trace/offset from its own RNG
    stream and plays its episode, then one batched fused forward/backward
    and a stacked in-place optimizer step update every seed.  A one-seed
    stack is how a single seed trains on the compiled engine.

    Seed independence is a hard contract: every seed keeps its own RNG
    streams (trace sampling, start offsets, action sampling, bandwidth
    noise) and each seed's slice of every kernel is computed with the same
    BLAS calls whatever the stack size, so one seed trained in an
    ``n``-seed stack equals that seed trained alone, bit for bit.  The
    autograd reference :class:`A2CTrainer` agrees to float round-off.
    Architectures the stack cannot express train per seed through
    :class:`A2CTrainer` (check :meth:`supports` first, or use
    :func:`make_trainer`).
    """

    def __init__(self, agents: Sequence[ABRAgent], video: Video,
                 train_traces: TraceSet,
                 qoe: Optional[QoEMetric] = None,
                 config: Optional[A2CConfig] = None,
                 simulator_config: Optional[SimulatorConfig] = None,
                 seeds: Optional[Sequence[Optional[int]]] = None) -> None:
        self.agents = list(agents)
        if not self.agents:
            raise ValueError("MultiSeedA2CTrainer needs at least one agent")
        if seeds is None:
            seeds = list(range(len(self.agents)))
        if len(seeds) != len(self.agents):
            raise ValueError("one seed per agent is required")
        self.video = video
        self.train_traces = train_traces
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.config = config or A2CConfig()
        self.simulator_config = simulator_config
        self.seeds = list(seeds)
        # Mirrors A2CTrainer.__init__ for each seed: the trainer RNG is
        # seeded first, then the agent's action RNG from its first draw.
        self._rngs = [np.random.default_rng(seed) for seed in self.seeds]
        for agent, rng in zip(self.agents, self._rngs):
            agent.seed(int(rng.integers(2 ** 31)))
        networks = [agent.network for agent in self.agents]
        if not nn.CompiledSeedStack.compatible(networks):
            raise ValueError(
                "agents' networks cannot share a compiled stack (they do not "
                "lower or their architectures differ); train each seed with "
                "A2CTrainer instead")
        self.stack = nn.CompiledSeedStack(networks)
        groups = _actor_critic_groups(networks[0], self.config,
                                      stacked_of=self.stack.stacked_of)
        self._optimizer = _make_stacked_optimizer(self.config.optimizer,
                                                  groups,
                                                  self.config.actor_lr)
        self._entropy_schedule = _entropy_schedule(self.config)
        self.epoch = 0
        self.histories: List[List[EpochStats]] = [[] for _ in self.agents]
        # When every agent uses the trusted original state function, the
        # per-chunk states are computed with one vectorized pass over the
        # stacked session histories (bit-identical per seed) instead of one
        # Python state-function call per seed; generated state functions are
        # arbitrary code and keep the per-seed path.
        self._original_states = all(
            agent.state_function.trusted
            and agent.state_function._func is original_state_function
            for agent in self.agents) and len(self.stack.state_shape) == 2
        self._states_buffer = np.empty(
            (self.num_seeds, video.num_chunks) + self.stack.state_shape)
        self._ladder = np.asarray(video.bitrates_kbps, dtype=np.float64)

    # ------------------------------------------------------------------ #
    @staticmethod
    def supports(networks) -> bool:
        """Whether these networks train on the compiled engine, as one stack.

        The one engine test.  True for the original Pensieve architecture
        and for any generated design-space architecture the kernel planner
        can lower (:class:`~repro.nn.compile.CompiledSeedStack`); False for
        mixed architectures, exotic codegen output, stochastic dropout or
        ``--no-compile``, which train per seed through :class:`A2CTrainer`.
        """
        return nn.CompiledSeedStack.compatible(list(networks))

    @property
    def num_seeds(self) -> int:
        return len(self.agents)

    # ------------------------------------------------------------------ #
    def _run_seed_episode(self, index: int, session: StreamingSession,
                          actions: List[int], rewards: List[float]) -> None:
        """Roll out one seed's full episode into the epoch buffers.

        Episodes run seed-major — one seed's whole episode before the next —
        so each seed's ~1.6 MB actor tower stays hot in L2 across its
        consecutive decisions (interleaving seeds per chunk would cycle the
        full multi-seed weight bank through cache every round).  This is
        also the order in which :class:`A2CTrainer` plays one seed, so each
        seed's RNG stream is consumed identically.
        """
        agent = self.agents[index]
        states = self._states_buffer[index]
        video = self.video
        forward = self.stack.seed_policy_forward(index, batch=1)
        for chunk in range(video.num_chunks):
            if self._original_states:
                histories = session.history_arrays
                simulator = session.simulator
                original_states_batched(
                    histories[0], histories[1], histories[2], histories[3],
                    video.next_chunk_sizes(simulator.next_chunk_index),
                    simulator.remaining_chunks, video.num_chunks,
                    self._ladder, out=states[chunk])
            else:
                states[chunk] = agent.state_of(session.observe())
            probs = forward.probs(states[chunk:chunk + 1])
            action = agent.act_from_probs(probs[0])
            record, _ = session.step(action)
            actions.append(action)
            rewards.append(record.reward)

    def train_epoch(self) -> List[EpochStats]:
        """Run one episode per seed and apply one stacked lockstep update."""
        num_seeds = self.num_seeds
        traces = []
        actions_per_seed: List[List[int]] = [[] for _ in range(num_seeds)]
        rewards_per_seed: List[List[float]] = [[] for _ in range(num_seeds)]
        for index, (agent, rng) in enumerate(zip(self.agents, self._rngs)):
            trace = self.train_traces.sample(rng)
            start_offset = float(rng.uniform(0.0, trace.duration_s))
            traces.append(trace)
            session = StreamingSession(
                self.video, trace, qoe=self.qoe, config=self.simulator_config,
                rng=rng, start_offset_s=start_offset)
            self._run_seed_episode(index, session, actions_per_seed[index],
                                   rewards_per_seed[index])

        losses = self._fused_update(
            self._states_buffer, np.asarray(actions_per_seed, dtype=np.int64),
            np.stack([discounted_returns(rewards, self.config.gamma)
                      for rewards in rewards_per_seed], axis=0),
            self._entropy_schedule(self.epoch))
        stats = [_epoch_stats(self.epoch, rewards, trace.name, *seed_losses)
                 for trace, rewards, seed_losses
                 in zip(traces, rewards_per_seed, zip(*losses))]
        self.epoch += 1
        for history, seed_stats in zip(self.histories, stats):
            history.append(seed_stats)
        return stats

    def train(self, num_epochs: int,
              callback: Optional[Callable[[List[EpochStats]], None]] = None,
              ) -> List[List[EpochStats]]:
        """Train all seeds for ``num_epochs`` lockstep episodes."""
        stats_list: List[List[EpochStats]] = []
        for _ in range(num_epochs):
            stats = self.train_epoch()
            stats_list.append(stats)
            if callback is not None:
                callback(stats)
        return stats_list

    # ------------------------------------------------------------------ #
    def _fused_update(self, states: np.ndarray, actions: np.ndarray,
                      returns: np.ndarray, entropy_weight: float):
        """One analytic actor-critic update of every seed.

        Computes the losses and gradients of :meth:`A2CTrainer._graph_update`
        with hand-derived loss gradients and one leading seed axis:

        * actor: ``d logits = -(adv / B) * (onehot(a) - softmax)``
        * entropy bonus: ``d logits = (w_e / B) * p * (log p + H)``
        * critic: ``d value = c_v * 2/B * (v - R)``

        Each seed's slice is independent of the stack size (batched GEMMs
        resolve each seed with the same BLAS calls, elementwise math is
        shape-independent, and gradient clipping accumulates per seed in
        parameter order).  Returns per-seed ``(actor_loss, critic_loss,
        entropy, grad_norm)`` arrays.
        """
        cfg = self.config
        cache, logits, values = self.stack.fused_forward(states)
        batch = logits.shape[1]
        # Stay in the network dtype end to end: a float64 returns array would
        # silently upcast every gradient GEMM below.
        returns = np.asarray(returns, dtype=logits.dtype)
        advantages = returns - values

        # Stable log-softmax / softmax from the raw logits.
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1,
                                                         keepdims=True))
        probs = np.exp(log_probs)
        picked = np.take_along_axis(log_probs, actions[:, :, None],
                                    axis=2)[:, :, 0]
        row_entropy = -(probs * log_probs).sum(axis=-1)

        actor_losses = -np.mean(picked * advantages, axis=1)
        critic_losses = np.mean((values - returns) ** 2, axis=1)
        entropies = np.mean(row_entropy, axis=1)

        one_hot = np.zeros_like(probs)
        np.put_along_axis(one_hot, actions[:, :, None], 1.0, axis=2)
        d_logits = (-(advantages[:, :, None] / batch) * (one_hot - probs)
                    + (entropy_weight / batch) * probs
                    * (log_probs + row_entropy[:, :, None]))
        d_values = (cfg.value_loss_coefficient * 2.0 / batch
                    * (values - returns))

        self._optimizer.zero_grad()
        self.stack.fused_backward(cache, d_logits, d_values)
        grad_norms = nn.clip_grad_norm_stacked(self.stack.parameters(),
                                               cfg.max_grad_norm)
        self._optimizer.step()
        self.stack.mark_updated()
        return actor_losses, critic_losses, entropies, grad_norms

    # ------------------------------------------------------------------ #
    def evaluate_checkpoint(self, traces: TraceSet, greedy: bool = True,
                            batched: bool = True) -> List[float]:
        """Per-seed test scores, matching ``evaluate_agent`` seed for seed.

        When the batched greedy path applies, the seeds evaluate one after
        another (seed-major): each seed's ``traces`` sessions step in
        lockstep with one ``seed_policy_forward`` per chunk over that seed's
        weights (reusing the :func:`evaluate_agent_batched` loop); otherwise
        each seed evaluates through the identical serial ``evaluate_agent``
        call, preserving its RNG consumption exactly.
        """
        noise_free = (self.simulator_config is None
                      or self.simulator_config.bandwidth_noise_std == 0)
        if batched and greedy and noise_free and len(traces) > 1:
            scores = []
            buffer = np.empty((len(traces),) + self.stack.state_shape)
            for index, agent in enumerate(self.agents):
                # Seed-major like the rollout: one seed's weights stay hot
                # across every chunk of its trace batch.
                sessions = [StreamingSession(self.video, trace, qoe=self.qoe,
                                             config=self.simulator_config)
                            for trace in traces]
                forward = self.stack.seed_policy_forward(index,
                                                         batch=len(traces))
                states_builder = None
                if self._original_states:
                    def states_builder(sessions=sessions):
                        return _original_states_lockstep(
                            sessions, self.video, self._ladder, buffer)
                rewards = _lockstep_greedy_rewards(
                    sessions, agent.state_of, forward.probs,
                    self.video.num_chunks, states_builder=states_builder)
                scores.append(float(np.mean(rewards)))
            return scores
        return [evaluate_agent(agent, self.video, traces, qoe=self.qoe,
                               simulator_config=self.simulator_config,
                               greedy=greedy, seed=seed, batched=batched)
                for agent, seed in zip(self.agents, self.seeds)]


def make_trainer(agents: Sequence[ABRAgent], video: Video,
                 train_traces: TraceSet, seeds: Sequence[Optional[int]],
                 qoe: Optional[QoEMetric] = None,
                 config: Optional[A2CConfig] = None,
                 simulator_config: Optional[SimulatorConfig] = None):
    """The training engine for a seed batch of one design.

    One compiled stack (:class:`MultiSeedA2CTrainer`) when the networks
    lower and stack together, for one seed or many; otherwise the autograd
    reference :class:`A2CTrainer`, which takes one seed.  Both answer
    ``train_epoch``/``train``, ``histories`` and ``evaluate_checkpoint``.
    """
    if MultiSeedA2CTrainer.supports([agent.network for agent in agents]):
        return MultiSeedA2CTrainer(agents, video, train_traces, qoe=qoe,
                                   config=config,
                                   simulator_config=simulator_config,
                                   seeds=seeds)
    if len(agents) != 1 or len(seeds) != 1:
        raise ValueError("these networks do not stack; the autograd "
                         "reference trains one seed at a time")
    return A2CTrainer(agents[0], video, train_traces, qoe=qoe, config=config,
                      simulator_config=simulator_config, seed=seeds[0])
