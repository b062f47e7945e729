"""ABR agent: binds a state function to an actor-critic network.

The agent is the unit that the Nada pipeline evaluates: a candidate *design*
is a (state function, network builder) pair, and instantiating it produces an
:class:`ABRAgent` that can act in the simulator or the emulator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..abr.env import Observation
from ..abr.networks import ActorCriticNetwork, original_network_builder
from ..abr.state import StateFunction
from .policy import greedy_action, sample_action

__all__ = ["ABRAgent"]


class ABRAgent:
    """An RL-based ABR policy: state function + actor-critic network."""

    def __init__(self, state_function: StateFunction, network: ActorCriticNetwork,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.state_function = state_function
        self.network = network
        self._rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_builder(cls, state_function: StateFunction, network_builder,
                     sample_observation: Observation, num_actions: int,
                     rng: Optional[np.random.Generator] = None) -> "ABRAgent":
        """Instantiate the network for the shape this state function produces.

        ``sample_observation`` is used to probe the state shape before the
        network is constructed — the same order of operations Nada uses when
        evaluating a generated design.
        """
        state_function.reset_shape()
        shape = state_function.probe_shape(sample_observation)
        network = network_builder(shape, num_actions, rng=rng)
        if not isinstance(network, ActorCriticNetwork):
            raise TypeError("network builder must return an ActorCriticNetwork")
        return cls(state_function, network, rng=rng)

    @classmethod
    def original(cls, sample_observation: Observation, num_actions: int,
                 rng: Optional[np.random.Generator] = None) -> "ABRAgent":
        """The unmodified Pensieve design (original state + original network)."""
        return cls.from_builder(StateFunction.original(), original_network_builder,
                                sample_observation, num_actions, rng=rng)

    # ------------------------------------------------------------------ #
    def state_of(self, observation: Observation) -> np.ndarray:
        """Compute the feature array for an observation."""
        return self.state_function(observation)

    def action_probabilities(self, state: np.ndarray) -> np.ndarray:
        """Inference forward pass; returns action probabilities.

        Dispatches through :meth:`ActorCriticNetwork.policy_probs`, which uses
        a pure-NumPy actor-tower forward when the architecture supports it and
        falls back to the autograd graph under ``no_grad`` otherwise.
        """
        return self.network.policy_probs(state[None, ...])[0]

    def batch_action_probabilities(self, states: np.ndarray) -> np.ndarray:
        """Action probabilities for a ``(batch, *state_shape)`` array of states."""
        return self.network.policy_probs(states)

    def act(self, observation: Observation, greedy: bool = False) -> int:
        """Choose a bitrate for the next chunk."""
        state = self.state_of(observation)
        probs = self.action_probabilities(state)
        if greedy:
            return greedy_action(probs)
        return sample_action(probs, self._rng)

    def act_with_state(self, observation: Observation,
                       greedy: bool = False) -> Tuple[int, np.ndarray]:
        """Like :meth:`act` but also returns the computed state (for rollouts)."""
        state = self.state_of(observation)
        probs = self.action_probabilities(state)
        action = greedy_action(probs) if greedy else sample_action(probs, self._rng)
        return action, state

    def act_from_probs(self, probabilities: np.ndarray,
                       greedy: bool = False) -> int:
        """Choose an action from externally computed probabilities.

        The multi-seed lockstep trainer computes every seed's probabilities in
        one batched forward and then samples each seed through this method, so
        the action draw consumes this agent's RNG exactly like
        :meth:`act_with_state` does on the serial path.
        """
        if greedy:
            return greedy_action(probabilities)
        return sample_action(probabilities, self._rng)

    def act_batch(self, observations, greedy: bool = False,
                  rngs=None) -> list:
        """Choose a bitrate for each of many *independent* observations.

        The whole batch goes through ONE :meth:`policy_probs` forward (a
        single GEMM on the compiled/folded inference path) instead of one
        Python forward per observation; row ``i`` of the batched forward is
        bit-identical to ``policy_probs`` on observation ``i`` alone, so the
        chosen actions match per-observation :meth:`act` calls exactly.

        ``rngs`` optionally supplies one ``np.random.Generator`` per
        observation for stochastic selection (the fleet harness passes each
        session's private generator so the draw discipline matches a serial
        per-session run); when omitted the agent's own RNG draws in batch
        order.
        """
        if not observations:
            return []
        states = np.stack([self.state_of(obs) for obs in observations])
        all_probs = self.network.policy_probs(states)
        if greedy:
            return [greedy_action(probs) for probs in all_probs]
        if rngs is None:
            return [sample_action(probs, self._rng) for probs in all_probs]
        return [sample_action(probs, rng)
                for probs, rng in zip(all_probs, rngs)]

    # ------------------------------------------------------------------ #
    def greedy_policy(self):
        """A plain ``observation -> action`` callable using greedy decisions."""
        def policy(observation: Observation) -> int:
            return self.act(observation, greedy=True)
        return policy

    def stochastic_policy(self):
        """A plain ``observation -> action`` callable that samples actions."""
        def policy(observation: Observation) -> int:
            return self.act(observation, greedy=False)
        return policy

    def seed(self, seed: int) -> None:
        """Re-seed the agent's action-sampling RNG."""
        self._rng = np.random.default_rng(seed)
