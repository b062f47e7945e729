"""Loss functions for supervised and reinforcement-learning training."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "mse_loss",
    "huber_loss",
    "binary_cross_entropy",
    "cross_entropy",
    "policy_gradient_loss",
    "entropy",
]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error; used for the critic's value regression."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss, quadratic near zero and linear for large errors."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    diff = (prediction - target).abs()
    quadratic = diff.clip(0.0, delta)
    linear = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities; used by the early-stopping classifier."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    clipped = prediction.clip(eps, 1.0 - eps)
    one = Tensor(np.ones_like(clipped.data))
    loss = -(target * clipped.log() + (one - target) * (one - clipped).log())
    return loss.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy from raw logits and integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), labels]
    return -picked.mean()


def policy_gradient_loss(log_probs: Tensor, advantages: np.ndarray) -> Tensor:
    """REINFORCE/actor loss: ``-E[log pi(a|s) * advantage]``.

    Advantages are treated as constants (no gradient flows through them),
    matching the standard actor-critic formulation.
    """
    adv = Tensor(np.asarray(advantages))
    return -(log_probs * adv).mean()


def entropy(probabilities: Tensor, eps: float = 1e-8) -> Tensor:
    """Mean entropy of a batch of categorical distributions.

    Pensieve adds an entropy bonus to the actor loss to encourage exploration;
    this helper computes it from action probabilities.
    """
    clipped = probabilities.clip(eps, 1.0)
    return -(clipped * clipped.log()).sum(axis=-1).mean()
