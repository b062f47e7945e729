"""Actor-critic network architectures for ABR.

Defines the **network-builder contract** shared by the original Pensieve
architecture and LLM-generated alternatives: a builder is a callable

    build_network(state_shape, num_actions, rng=None) -> Module

returning a :class:`~repro.nn.layers.Module` whose ``forward(states)`` yields
a ``(policy_logits, value)`` pair for a batch of states.

The original architecture (Figure 2 of the paper) processes each state row
with either a small dense layer (scalar-like rows) or a 1-D convolution
(temporal rows), merges the resulting feature maps, and feeds separate actor
and critic heads.

Every architecture runs on one fast engine, the kernel compiler
(:mod:`repro.nn.compile`): :meth:`ActorCriticNetwork.policy_probs` goes
through :func:`~repro.nn.compile.plan_for` when the network lowers
(Pensieve's branch bank as one folded GEMM, generated architectures op by
op), and through the autograd graph otherwise or under ``--no-compile``;
training runs the same plan's stacked kernels.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = [
    "NETWORK_BUILDER_NAME",
    "ORIGINAL_NETWORK_SOURCE",
    "ActorCriticNetwork",
    "PensieveNetwork",
    "GenericActorCritic",
    "original_network_builder",
    "NetworkBuilder",
]

#: Name the generated code block must define.
NETWORK_BUILDER_NAME = "build_network"

NetworkBuilder = Callable[..., "ActorCriticNetwork"]


class ActorCriticNetwork(nn.Module):
    """Base class for ABR actor-critic networks.

    ``forward`` takes a batch of states shaped ``(batch, *state_shape)`` and
    returns ``(logits, value)`` where ``logits`` has shape
    ``(batch, num_actions)`` and ``value`` has shape ``(batch,)``.
    """

    def __init__(self, state_shape: Tuple[int, ...], num_actions: int) -> None:
        super().__init__()
        self.state_shape = tuple(int(s) for s in state_shape)
        self.num_actions = int(num_actions)

    def forward(self, states: Tensor) -> Tuple[Tensor, Tensor]:  # pragma: no cover
        raise NotImplementedError

    # Convenience helpers used by the RL agent --------------------------------
    def policy(self, states: Tensor) -> Tensor:
        """Action probabilities for a batch of states."""
        logits, _ = self.forward(states)
        return logits.softmax(axis=-1)

    def value(self, states: Tensor) -> Tensor:
        """State-value estimates for a batch of states."""
        _, value = self.forward(states)
        return value

    # Engine routing: the compiled plan when the kernel planner lowers this
    # network, the autograd graph otherwise -------------------------------
    def compiled_plan(self):
        """The fused kernel plan for this network, or None (with the reason
        logged once) when the planner cannot lower it or compilation is off
        (``--no-compile``)."""
        return nn.plan_for(self)

    def policy_probs(self, states: np.ndarray) -> np.ndarray:
        """Action probabilities for a batch of raw NumPy states.

        This is the inference entry point for rollouts and the batched greedy
        evaluator: the compiled actor chain when the network lowers, the
        autograd forward under ``no_grad`` otherwise.  Both compute the same
        decisions.  Training-mode dropout keeps the graph path: the
        actor-only chain would consume a different RNG-stream length per
        decision than the full-forward reference.
        """
        plan = self.compiled_plan()
        if plan is not None and not plan.has_active_dropout():
            return plan.policy_probs(states)
        return self._policy_probs_graph(states)

    def _policy_probs_graph(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states)
        if states.ndim == len(self.state_shape):
            states = states[None, ...]
        with nn.no_grad():
            probs = self.policy(nn.tensor(states))
        return probs.numpy()

    def fused_forward(self, states: np.ndarray):
        """Compiled analytic forward through both towers, serial kernels.

        Returns ``(cache, logits, values)``; pass the cache (plus the loss
        gradients w.r.t. logits and values) to :meth:`fused_backward`.
        Training runs the stacked kernels
        (:class:`~repro.nn.compile.CompiledSeedStack`); this serial pair is
        the oracle the equivalence suite checks them against.
        """
        plan = self.compiled_plan()
        if plan is None:
            raise RuntimeError("network did not compile; use the graph path")
        return plan.fused_forward(states)

    def fused_backward(self, cache, dlogits: np.ndarray,
                       dvalues: np.ndarray) -> None:
        """Compiled analytic backward; gradients land in ``Parameter.grad``
        exactly where ``loss.backward()`` would put them."""
        plan = self.compiled_plan()
        if plan is None:
            raise RuntimeError("network did not compile; use the graph path")
        plan.fused_backward(cache, dlogits, dvalues)

    def __getstate__(self):
        # The compiled plan holds gradient/inference buffers; worker
        # processes recompile on first use instead of shipping them.
        state = dict(self.__dict__)
        state.pop("_compile_cache", None)
        return state

    def critic_head_parameters(self) -> list:
        """Parameters reachable only through the value (critic) head.

        The A2C trainer steps these at ``A2CConfig.critic_lr`` and everything
        else at ``actor_lr``.  The base implementation returns an empty list
        (one learning rate for the whole network), which is the safe fallback
        for architectures whose actor/critic split is unknown.
        """
        return []


class PensieveNetwork(ActorCriticNetwork):
    """The original Pensieve actor-critic architecture.

    Scalar-like rows of the state matrix go through per-row dense layers,
    temporal rows through per-row 1-D convolutions; the concatenated features
    feed a shared trunk-free pair of actor/critic towers, exactly mirroring
    the layout in Figure 2 of the paper.  The kernel compiler lowers the
    branch bank as one folded GEMM (``_BranchBankOp`` in
    :mod:`repro.nn.compile`) and each tower as two dense ops.
    """

    DEFAULT_TEMPORAL_ROWS = (2, 3, 4)
    DEFAULT_SCALAR_ROWS = (0, 1, 5)

    def __init__(self, state_shape: Tuple[int, ...], num_actions: int,
                 hidden_size: int = 128, kernel_size: int = 4,
                 activation: str = "relu",
                 temporal_rows: Optional[Sequence[int]] = None,
                 scalar_rows: Optional[Sequence[int]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(state_shape, num_actions)
        if len(self.state_shape) == 1:
            # Flat state: treat everything as scalar features.
            rows = self.state_shape[0]
            history = 1
            temporal_rows = []
            scalar_rows = list(range(rows))
        else:
            rows, history = self.state_shape
            if temporal_rows is None or scalar_rows is None:
                if rows == 6 and history >= kernel_size:
                    temporal_rows = list(self.DEFAULT_TEMPORAL_ROWS)
                    scalar_rows = list(self.DEFAULT_SCALAR_ROWS)
                elif history >= kernel_size:
                    temporal_rows = list(range(rows))
                    scalar_rows = []
                else:
                    temporal_rows = []
                    scalar_rows = list(range(rows))
        self.temporal_rows = tuple(temporal_rows)
        self.scalar_rows = tuple(scalar_rows)
        self.hidden_size = hidden_size
        self.kernel_size = kernel_size
        self.activation = activation

        filters = hidden_size
        self.conv_branches = [
            nn.Conv1D(1, filters, kernel_size, activation=activation, rng=rng)
            for _ in self.temporal_rows
        ]
        self.scalar_branches = [
            nn.Dense(1, hidden_size, activation=activation, rng=rng)
            for _ in self.scalar_rows
        ]
        conv_positions = max(history - kernel_size + 1, 1)
        merged = (len(self.temporal_rows) * filters * conv_positions
                  + len(self.scalar_rows) * hidden_size)
        self.actor_hidden = nn.Dense(merged, hidden_size, activation=activation, rng=rng)
        self.actor_out = nn.Dense(hidden_size, num_actions, rng=rng)
        self.critic_hidden = nn.Dense(merged, hidden_size, activation=activation, rng=rng)
        self.critic_out = nn.Dense(hidden_size, 1, rng=rng)

    def forward(self, states: Tensor) -> Tuple[Tensor, Tensor]:
        if states.ndim == 2 and len(self.state_shape) == 2:
            states = states.reshape(1, *self.state_shape)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        batch = states.shape[0]
        features = []
        if len(self.state_shape) == 1:
            for branch, row in zip(self.scalar_branches, self.scalar_rows):
                features.append(branch(states[:, row:row + 1]))
        else:
            for branch, row in zip(self.conv_branches, self.temporal_rows):
                row_input = states[:, row:row + 1, :]
                conv_out = branch(row_input)
                features.append(conv_out.reshape(batch, -1))
            for branch, row in zip(self.scalar_branches, self.scalar_rows):
                scalar = states[:, row, -1:].reshape(batch, 1)
                features.append(branch(scalar))
        merged = nn.concatenate(features, axis=1)
        logits = self.actor_out(self.actor_hidden(merged))
        value = self.critic_out(self.critic_hidden(merged)).reshape(batch)
        return logits, value

    def critic_head_parameters(self) -> list:
        """The critic tower: ``critic_hidden`` and ``critic_out``.

        The per-row branch bank feeds both towers and therefore stays in the
        actor group, matching how the shared layers of a two-head network are
        conventionally stepped at the policy learning rate.
        """
        return self.critic_hidden.parameters() + self.critic_out.parameters()

    # nadabench/tracing.py patches these names in this class's own __dict__
    # (its infer.pensieve / update.pensieve buckets); they are the shared
    # base-class methods.
    policy_probs = ActorCriticNetwork.policy_probs
    fused_forward = ActorCriticNetwork.fused_forward
    fused_backward = ActorCriticNetwork.fused_backward


#: Kept for nadabench/tracing.py, which patches ``PensieveSeedStack.*`` and
#: ``_SeedActorForward.probs`` by name: the lockstep stack and the per-seed
#: inference context are now the compiler's.
PensieveSeedStack = nn.CompiledSeedStack
_SeedActorForward = nn.compile._ActorInference


class GenericActorCritic(ActorCriticNetwork):
    """A generic architecture handling arbitrary state shapes.

    Used as the fallback for generated states whose shapes differ from the
    original 6x8 matrix and as the skeleton that generated architecture code
    commonly produces (dense trunk, optional recurrent encoder, separate or
    shared heads).
    """

    def __init__(self, state_shape: Tuple[int, ...], num_actions: int,
                 hidden_sizes: Sequence[int] = (128, 128),
                 activation: str = "relu",
                 encoder: str = "flatten",
                 share_trunk: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(state_shape, num_actions)
        if len(self.state_shape) == 1:
            # Recurrent/convolutional encoders need a (channels, history)
            # layout; flat states always use the dense path.
            encoder = "flatten"
        self.encoder_kind = encoder
        self.share_trunk = share_trunk
        flat_size = int(np.prod(self.state_shape))

        if encoder == "flatten":
            self.encoder = nn.Flatten()
            encoded = flat_size
        elif encoder in ("rnn", "gru", "lstm"):
            channels = self.state_shape[0]
            hidden = hidden_sizes[0]
            self.encoder = nn.Recurrent(channels, hidden, cell_type=encoder, rng=rng)
            encoded = hidden
        elif encoder == "conv":
            channels, history = self.state_shape
            kernel = min(4, history)
            self.encoder = nn.Conv1D(channels, hidden_sizes[0], kernel,
                                     activation=activation, rng=rng)
            encoded = hidden_sizes[0] * (history - kernel + 1)
        else:
            raise ValueError(f"unknown encoder {encoder!r}")

        def make_trunk() -> nn.Sequential:
            layers = []
            size = encoded
            for width in hidden_sizes:
                layers.append(nn.Dense(size, width, activation=activation, rng=rng))
                size = width
            return nn.Sequential(*layers)

        if share_trunk:
            self.trunk = make_trunk()
            self.actor_trunk = self.trunk
            self.critic_trunk = self.trunk
        else:
            self.actor_trunk = make_trunk()
            self.critic_trunk = make_trunk()
        self.actor_out = nn.Dense(hidden_sizes[-1], num_actions, rng=rng)
        self.critic_out = nn.Dense(hidden_sizes[-1], 1, rng=rng)

    def _encode(self, states: Tensor) -> Tensor:
        batch = states.shape[0]
        if self.encoder_kind in ("rnn", "gru", "lstm"):
            return self.encoder(states)
        if self.encoder_kind == "conv":
            return self.encoder(states).reshape(batch, -1)
        return states.reshape(batch, -1)

    def forward(self, states: Tensor) -> Tuple[Tensor, Tensor]:
        if states.ndim == len(self.state_shape):
            states = states.reshape(1, *self.state_shape)
        batch = states.shape[0]
        encoded = self._encode(states)
        logits = self.actor_out(self.actor_trunk(encoded))
        value = self.critic_out(self.critic_trunk(encoded)).reshape(batch)
        return logits, value

    def critic_head_parameters(self) -> list:
        """Critic-only parameters: the critic trunk (unless shared) and head."""
        params = [] if self.share_trunk else self.critic_trunk.parameters()
        return params + self.critic_out.parameters()

    # nadabench/tracing.py patches these names in this class's own __dict__
    # (its infer.compiled / update.compiled buckets).
    policy_probs = ActorCriticNetwork.policy_probs
    fused_forward = ActorCriticNetwork.fused_forward
    fused_backward = ActorCriticNetwork.fused_backward


def original_network_builder(state_shape: Tuple[int, ...], num_actions: int,
                             rng: Optional[np.random.Generator] = None,
                             ) -> ActorCriticNetwork:
    """Build the original Pensieve architecture for ``state_shape``.

    Falls back to :class:`GenericActorCritic` when the state is not the
    canonical 6-row matrix (e.g. when pairing the original network with an
    LLM-generated state of a different shape, as in the Table 5 grid).
    """
    shape = tuple(int(s) for s in state_shape)
    if len(shape) == 2 and shape[0] == 6 and shape[1] >= 4:
        return PensieveNetwork(shape, num_actions, rng=rng)
    if len(shape) == 2 and shape[1] >= 4:
        return PensieveNetwork(shape, num_actions, rng=rng)
    return GenericActorCritic(shape, num_actions, rng=rng)


#: Source code of the original network builder, used as the seed code block in
#: architecture-generation prompts.
ORIGINAL_NETWORK_SOURCE = '''
import numpy as np


def build_network(state_shape, num_actions, rng=None):
    """Original Pensieve actor-critic: per-row conv/dense branches, 128 units."""
    return nn_library.PensieveNetwork(
        state_shape,
        num_actions,
        hidden_size=128,
        kernel_size=4,
        activation="relu",
        rng=rng,
    )
'''.strip()
