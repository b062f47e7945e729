"""Categorical policy utilities shared by the actor-critic trainer."""

from __future__ import annotations

import numpy as np

from ..nn import Tensor

__all__ = ["sample_action", "greedy_action", "log_prob_of", "action_entropy"]


def sample_action(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an action index from a probability vector.

    Probabilities are re-normalized defensively: generated architectures can
    produce slightly unnormalized outputs due to numerical error.  Sampling is
    one uniform draw inverted through the cumulative distribution, which is
    what ``rng.choice`` does without its per-call validation overhead (this
    sits on the per-chunk training hot path).
    """
    probs = np.maximum(np.asarray(probabilities, dtype=np.float64).ravel(), 0.0)
    cumulative = np.cumsum(probs)
    total = float(cumulative[-1])
    if not np.isfinite(total) or total <= 0:
        # Degenerate distribution: fall back to uniform.
        return min(int(rng.random() * len(probs)), len(probs) - 1)
    draw = rng.random() * total
    return min(int(np.searchsorted(cumulative, draw, side="right")),
               len(probs) - 1)


def greedy_action(probabilities: np.ndarray) -> int:
    """Return the most likely action index."""
    return int(np.argmax(np.asarray(probabilities).ravel()))


def log_prob_of(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Log probability of each taken action under a batch of logits."""
    actions = np.asarray(actions, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    batch = log_probs.shape[0]
    return log_probs[np.arange(batch), actions]


def action_entropy(logits: Tensor) -> Tensor:
    """Mean entropy of the categorical distributions defined by ``logits``."""
    probs = logits.softmax(axis=-1)
    log_probs = logits.log_softmax(axis=-1)
    return -(probs * log_probs).sum(axis=-1).mean()
