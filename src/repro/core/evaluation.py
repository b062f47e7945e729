"""Training and evaluation of candidate designs (§3.1 protocol).

This module implements:

* :func:`instantiate_agent` — turn a (state design, network design) pair into
  a runnable :class:`~repro.rl.agent.ABRAgent` (either side may be ``None``,
  meaning "use the original Pensieve component");
* :class:`DesignTrainer` — train one design's seeds in the chunk-level
  simulator, recording the per-episode training rewards and periodic
  checkpoint test scores, with optional early stopping;
* :class:`TestScoreProtocol` — the paper's scoring rule: five independent
  training sessions with different seeds, the average of the last ten
  checkpoint scores within each session, and the median across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..abr.env import SimulatorConfig, StreamingSession
from ..abr.networks import original_network_builder
from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.state import StateFunction
from ..abr.video import Video
from ..rl.a2c import (A2CConfig, EpochStats, MultiSeedA2CTrainer,
                      TRAINING_METRIC_NAMES, make_trainer)
from ..rl.agent import ABRAgent
from ..traces.base import TraceSet
from .codegen import load_network_builder, load_state_function
from .design import Design, DesignKind, DesignStatus
from .early_stopping import RewardTrajectoryClassifier
from .parallel import ParallelConfig
from .results import ResultStore
from .scheduler import CampaignScheduler, EvaluationJob, JobResult, protocol_score

__all__ = [
    "EvaluationConfig",
    "TrainingRun",
    "instantiate_agent",
    "DesignTrainer",
    "TestScoreProtocol",
]


@dataclass(frozen=True)
class EvaluationConfig:
    """Training/evaluation schedule for one environment.

    The defaults are scaled-down versions of the published schedule (Table 1
    uses 40,000 epochs with checkpoints every 500); the ratio between
    ``checkpoint_interval`` and ``train_epochs`` and the "average the last 10
    checkpoints, median over 5 seeds" aggregation are preserved.
    """

    train_epochs: int = 200
    checkpoint_interval: int = 20
    last_k_checkpoints: int = 10
    num_seeds: int = 5
    a2c: A2CConfig = field(default_factory=A2CConfig)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    #: Evaluate checkpoints greedily (argmax policy) as Pensieve does.
    greedy_evaluation: bool = True

    def scaled(self, factor: float) -> "EvaluationConfig":
        """Return a copy with the training schedule scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            train_epochs=max(1, int(round(self.train_epochs * factor))),
            checkpoint_interval=max(1, int(round(self.checkpoint_interval * factor))),
        )


@dataclass
class TrainingRun:
    """Record of one training session of one design."""

    seed: int
    reward_history: List[float]
    checkpoint_epochs: List[int]
    checkpoint_scores: List[float]
    early_stopped: bool = False
    #: The ``last_k_checkpoints`` of the config this run was trained under;
    #: None falls back to averaging every checkpoint.
    last_k_checkpoints: Optional[int] = None
    #: Per-checkpoint training metrics (entropy, actor/critic loss, gradient
    #: norm — see :data:`~repro.rl.a2c.TRAINING_METRIC_NAMES`), each list
    #: aligned with ``checkpoint_epochs``.  Persisted in store records so a
    #: warm-store replay keeps the original run's training curves; None for
    #: records written before the telemetry layer existed.
    checkpoint_metrics: Optional[Dict[str, List[float]]] = None

    @property
    def final_score(self) -> float:
        """Average of the last-k checkpoint scores (k from the config)."""
        if not self.checkpoint_scores:
            return float("-inf")
        if self.last_k_checkpoints is not None:
            return self.smoothed_score(self.last_k_checkpoints)
        return float(np.mean(self.checkpoint_scores))

    def smoothed_score(self, last_k: int) -> float:
        if not self.checkpoint_scores:
            return float("-inf")
        if last_k < 1:
            raise ValueError("last_k must be at least 1")
        return float(np.mean(self.checkpoint_scores[-last_k:]))


def instantiate_agent(state_design: Optional[Design],
                      network_design: Optional[Design],
                      video: Video,
                      train_traces: TraceSet,
                      seed: int = 0) -> ABRAgent:
    """Build an agent from candidate designs (``None`` = original component)."""
    rng = np.random.default_rng(seed)
    if state_design is not None:
        if DesignKind(state_design.kind) != DesignKind.STATE:
            raise ValueError("state_design must be a STATE design")
        state_function = load_state_function(state_design.code,
                                             name=state_design.design_id)
    else:
        state_function = StateFunction.original()

    if network_design is not None:
        if DesignKind(network_design.kind) != DesignKind.NETWORK:
            raise ValueError("network_design must be a NETWORK design")
        builder = load_network_builder(network_design.code)
    else:
        builder = original_network_builder

    sample_session = StreamingSession(video, train_traces[0])
    sample_observation = sample_session.observe()
    return ABRAgent.from_builder(state_function, builder, sample_observation,
                                 video.num_bitrates, rng=rng)


class DesignTrainer:
    """Trains one design's seeds, with checkpointing and early stopping.

    One epoch/checkpoint/early-stop loop (:meth:`_train`) drives whichever
    engine :func:`~repro.rl.a2c.make_trainer` picks: a compiled seed stack
    (:class:`~repro.rl.a2c.MultiSeedA2CTrainer`) for networks the kernel
    planner lowers, the autograd reference
    (:class:`~repro.rl.a2c.A2CTrainer`) per seed otherwise.
    """

    def __init__(self, video: Video, train_traces: TraceSet, test_traces: TraceSet,
                 config: Optional[EvaluationConfig] = None,
                 qoe: Optional[QoEMetric] = None) -> None:
        self.video = video
        self.train_traces = train_traces
        self.test_traces = test_traces
        self.config = config or EvaluationConfig()
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)

    # ------------------------------------------------------------------ #
    def run(self, state_design: Optional[Design], network_design: Optional[Design],
            seed: int,
            early_stopping: Optional[RewardTrajectoryClassifier] = None,
            ) -> TrainingRun:
        """Train the design for one seed: ``run_seeds(..., [seed])[0]``."""
        return self.run_seeds(state_design, network_design, [seed],
                              early_stopping=early_stopping)[0]

    def run_seeds(self, state_design: Optional[Design],
                  network_design: Optional[Design],
                  seeds: Sequence[int],
                  early_stopping: Optional[RewardTrajectoryClassifier] = None,
                  ) -> List[TrainingRun]:
        """Train the design for every seed; one record per seed, in order.

        Without early stopping, a design whose networks lower trains all
        seeds in one compiled stack.  With an early-stopping classifier,
        each seed trains in its own one-seed stack, since its stop decision
        is its own; a design that does not lower (or ``--no-compile``)
        trains each seed through the autograd reference.  A seed's record
        is the same in any of these batchings.

        This is also the campaign scheduler's worker entry point: each
        scheduled work item trains one seed here, so a job's seeds spread
        over the workers like any other items.  The n-seed stack stays the
        reference that one-seed records are tested against.
        """
        agents = [instantiate_agent(state_design, network_design, self.video,
                                    self.train_traces, seed=seed)
                  for seed in seeds]
        if early_stopping is None and MultiSeedA2CTrainer.supports(
                [agent.network for agent in agents]):
            batches = [(agents, list(seeds))]
        else:
            batches = [([agent], [seed]) for agent, seed in zip(agents, seeds)]
        return [run for batch_agents, batch_seeds in batches
                for run in self._train(batch_agents, batch_seeds,
                                       early_stopping)]

    def _train(self, agents: Sequence[ABRAgent], seeds: List[int],
               early_stopping: Optional[RewardTrajectoryClassifier],
               ) -> List[TrainingRun]:
        """The epoch/checkpoint/early-stop loop over one trainer's seeds.

        With ``early_stopping`` the trainer holds one seed: the classifier
        is consulted once the training-reward prefix reaches its
        ``reward_prefix_length`` episodes, and an unpromising seed's
        training is truncated there, before that epoch's checkpoint.
        """
        cfg = self.config
        trainer = make_trainer(agents, self.video, self.train_traces, seeds,
                               qoe=self.qoe, config=cfg.a2c,
                               simulator_config=cfg.simulator)
        checkpoint_epochs: List[int] = []
        scores: List[List[float]] = [[] for _ in seeds]
        metrics: List[Dict[str, List[float]]] = [
            {name: [] for name in TRAINING_METRIC_NAMES} for _ in seeds]
        early_stopped = False
        for epoch in range(1, cfg.train_epochs + 1):
            trainer.train_epoch()
            if (early_stopping is not None
                    and epoch == early_stopping.config.reward_prefix_length
                    and early_stopping.should_stop(
                        _rewards(trainer.histories[0]))):
                early_stopped = True
                break
            if epoch % cfg.checkpoint_interval == 0:
                checkpoint_epochs.append(epoch)
                for per_seed, score in zip(scores, trainer.evaluate_checkpoint(
                        self.test_traces, greedy=cfg.greedy_evaluation)):
                    per_seed.append(score)
                for series, history in zip(metrics, trainer.histories):
                    for name in TRAINING_METRIC_NAMES:
                        series[name].append(getattr(history[-1], name))
        return [TrainingRun(
                    seed=seed,
                    reward_history=_rewards(history),
                    checkpoint_epochs=list(checkpoint_epochs),
                    checkpoint_scores=seed_scores,
                    early_stopped=early_stopped,
                    last_k_checkpoints=cfg.last_k_checkpoints,
                    checkpoint_metrics=series,
                ) for seed, history, seed_scores, series in zip(
                    seeds, trainer.histories, scores, metrics)]


def _rewards(history: Sequence[EpochStats]) -> List[float]:
    """The episode-reward trajectory the early-stopping classifier reads."""
    return [stats.episode_reward for stats in history]


class TestScoreProtocol:
    """The paper's aggregation: median over seeds of last-k checkpoint means.

    Execution is owned entirely by the
    :class:`~repro.core.scheduler.CampaignScheduler`: every call builds
    (design pair, environment, seeds) jobs and submits them in one batch.
    The scheduler trains every (design, environment, seed) as its own work
    item across the process pool and merges results in submission order —
    so scores are bit-identical to the serial reference regardless of
    worker count.  With a result store attached, previously scored seeds
    are answered from disk.
    """

    #: Not a pytest test class, despite the (domain-specific) name.
    __test__ = False

    def __init__(self, trainer: DesignTrainer, seeds: Optional[Sequence[int]] = None,
                 parallel: Optional[ParallelConfig] = None,
                 store: Optional[ResultStore] = None,
                 scheduler: Optional[CampaignScheduler] = None,
                 environment: str = "") -> None:
        self.trainer = trainer
        config = trainer.config
        self.seeds = list(seeds) if seeds is not None else list(range(config.num_seeds))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        self.scheduler = scheduler or CampaignScheduler(
            parallel=parallel or ParallelConfig(), store=store)
        self.environment = environment

    # ------------------------------------------------------------------ #
    def job(self, state_design: Optional[Design],
            network_design: Optional[Design],
            early_stopping: Optional[RewardTrajectoryClassifier] = None,
            ) -> EvaluationJob:
        """One scheduler job covering this protocol's full seed batch."""
        return EvaluationJob(trainer=self.trainer, state_design=state_design,
                             network_design=network_design,
                             seeds=tuple(self.seeds),
                             early_stopping=early_stopping,
                             environment=self.environment)

    def design_jobs(self, designs: Sequence[Design],
                    early_stopping: Optional[RewardTrajectoryClassifier] = None,
                    ) -> List[EvaluationJob]:
        """One job per design (paired with the original other component)."""
        return [self.job(*self._design_job(design), early_stopping=early_stopping)
                for design in designs]

    def _aggregate(self, runs: Sequence[TrainingRun]) -> float:
        return protocol_score(runs, self.trainer.config.last_k_checkpoints)

    def run(self, state_design: Optional[Design], network_design: Optional[Design],
            early_stopping: Optional[RewardTrajectoryClassifier] = None,
            ) -> Tuple[float, List[TrainingRun]]:
        """Train across all seeds; returns (test score, per-seed runs)."""
        result, = self.scheduler.run(
            [self.job(state_design, network_design, early_stopping)])
        return result.score, result.runs

    def run_many(self, jobs: Sequence[Tuple[Optional[Design], Optional[Design]]],
                 early_stopping: Optional[RewardTrajectoryClassifier] = None,
                 ) -> List[Tuple[float, List[TrainingRun]]]:
        """Evaluate several (state, network) pairs in one scheduled batch.

        All jobs are submitted to a single scheduler pass, which keeps every
        worker busy across the whole sweep; per-job results come back in
        submission order with seeds in protocol order, exactly as if each
        pair had been run serially.
        """
        scheduled = self.scheduler.run(
            [self.job(state_design, network_design, early_stopping)
             for state_design, network_design in jobs])
        return [(result.score, result.runs) for result in scheduled]

    @staticmethod
    def _design_job(design: Design) -> Tuple[Optional[Design], Optional[Design]]:
        kind = DesignKind(design.kind)
        state = design if kind == DesignKind.STATE else None
        network = design if kind == DesignKind.NETWORK else None
        return state, network

    @staticmethod
    def _record_design(design: Design, score: float,
                       runs: Sequence[TrainingRun]) -> float:
        """Apply a (score, runs) result to a design's bookkeeping fields."""
        # Record the first seed's training history on the design for the
        # early-stopping corpus and the training-curve figures.
        if runs:
            design.record_training(runs[0].reward_history,
                                   runs[0].checkpoint_scores)
            design.metadata["num_seeds"] = len(runs)
            design.metadata["early_stopped_seeds"] = sum(r.early_stopped for r in runs)
        if runs and all(run.early_stopped for run in runs):
            design.status = DesignStatus.EARLY_STOPPED
            design.metadata["prefix_reward_mean"] = float(
                np.mean(runs[0].reward_history)) if runs[0].reward_history else 0.0
            return float("-inf")
        design.finalize(score)
        return score

    @staticmethod
    def _record_failed(design: Design, result: JobResult) -> float:
        """Bookkeeping for a quarantined job: the design is marked FAILED.

        ``_record_design`` must not run here — its ``all(early_stopped)``
        check is vacuously true over the empty run list a fully failed job
        carries, which would mislabel the design as early-stopped.
        """
        design.status = DesignStatus.FAILED
        design.rejection_reason = result.error or "evaluation failed"
        design.metadata["evaluation_attempts"] = result.attempts
        return float("-inf")

    def record_results(self, designs: Sequence[Design],
                       results: Sequence[JobResult]) -> List[float]:
        """Apply one scheduled batch's results to the designs, in order.

        A quarantined result marks its design ``FAILED`` (scored ``-inf``)
        instead of feeding partial runs through the early-stopping
        bookkeeping.
        """
        return [self._record_design(design, result.score, result.runs)
                if result.ok else self._record_failed(design, result)
                for design, result in zip(designs, results)]

    def score_design(self, design: Design,
                     early_stopping: Optional[RewardTrajectoryClassifier] = None,
                     ) -> float:
        """Evaluate one design (paired with the original other component)."""
        state, network = self._design_job(design)
        score, runs = self.run(state, network, early_stopping=early_stopping)
        return self._record_design(design, score, runs)

    def score_designs_detailed(self, designs: Sequence[Design],
                               early_stopping: Optional[RewardTrajectoryClassifier] = None,
                               ) -> Tuple[List[float], List[JobResult]]:
        """Evaluate a design sweep and return (recorded scores, job results).

        One scheduler pass covers every design; each design gets the same
        bookkeeping :meth:`score_design` applies.  The
        :class:`~repro.core.scheduler.JobResult` list gives callers access
        to the per-seed runs (e.g. for training curves).
        """
        results = self.scheduler.run(
            self.design_jobs(designs, early_stopping=early_stopping))
        return self.record_results(designs, results), results

    def score_designs(self, designs: Sequence[Design],
                      early_stopping: Optional[RewardTrajectoryClassifier] = None,
                      ) -> List[float]:
        """Evaluate a design sweep as one flat (design, seed) fan-out.

        Equivalent to calling :meth:`score_design` on each design in order
        (same scores, same per-design bookkeeping), but all jobs share one
        scheduler pass so parallel workers stay saturated across designs.
        """
        scores, _ = self.score_designs_detailed(designs,
                                                early_stopping=early_stopping)
        return scores

    def score_original(self) -> float:
        """Evaluate the unmodified Pensieve design under the same protocol."""
        score, _ = self.run(None, None)
        return score
