"""Reinforcement-learning substrate: agents, rollouts and the A2C trainer."""

from .a2c import (A2CConfig, A2CTrainer, EpochStats, evaluate_agent,
                  evaluate_agent_batched, make_trainer)
from .agent import ABRAgent
from .policy import action_entropy, greedy_action, log_prob_of, sample_action
from .rollout import Trajectory, collect_episode, discounted_returns
from .schedules import ConstantSchedule, ExponentialDecaySchedule, LinearSchedule

__all__ = [
    "A2CConfig", "A2CTrainer", "EpochStats", "evaluate_agent",
    "evaluate_agent_batched", "make_trainer",
    "ABRAgent",
    "sample_action", "greedy_action", "log_prob_of", "action_entropy",
    "Trajectory", "collect_episode", "discounted_returns",
    "ConstantSchedule", "LinearSchedule", "ExponentialDecaySchedule",
]
