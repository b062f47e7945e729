"""Early-stopping model: a 1D-CNN over early training rewards (§2.2).

Training RL designs to convergence is the dominant cost of the pipeline.  The
early-stopping model looks at the rewards from the first ``K`` training
episodes of a design and predicts whether the design could end up among the
top performers; if not, its training is terminated early.

The implementation follows the paper closely:

* the classifier is a small 1-D CNN over the (standardized) reward prefix;
* because labelling only the top 1% as positive produces extreme class
  imbalance, training uses **label smoothing**: the positive label is expanded
  to the top 20% during optimization;
* after training, the decision threshold is re-tuned against the *original*
  top-1% labels on the training split so that the false-negative rate is 0%
  (no top design is ever rejected) while the true-negative rate is maximized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import nn

__all__ = [
    "EarlyStoppingConfig",
    "prepare_reward_prefix",
    "top_fraction_labels",
    "tune_threshold_zero_fnr",
    "RewardTrajectoryClassifier",
    "EarlyStoppingDecision",
]


@dataclass(frozen=True)
class EarlyStoppingConfig:
    """Hyper-parameters of the early-stopping model."""

    #: Number of early training episodes whose rewards are used as input.
    reward_prefix_length: int = 10
    #: Fraction of designs considered "top performers" (positives), paper: 1%.
    top_fraction: float = 0.01
    #: Expanded positive fraction used during training (label smoothing), 20%.
    smoothed_fraction: float = 0.20
    #: 1D-CNN hyper-parameters.
    conv_channels: int = 16
    kernel_size: int = 3
    hidden_units: int = 32
    #: Optimization.
    training_epochs: int = 300
    learning_rate: float = 5e-3
    batch_size: int = 32
    seed: int = 0
    #: Safety margin subtracted from the tuned threshold so borderline designs
    #: on unseen data are kept rather than stopped.
    threshold_margin: float = 1e-6


def prepare_reward_prefix(rewards: Sequence[float], length: int) -> np.ndarray:
    """Trim or pad a reward trajectory to exactly ``length`` entries.

    Trajectories shorter than ``length`` are padded by repeating the last
    observed reward (a design evaluated for fewer episodes keeps its latest
    performance level); empty trajectories become all-zeros.
    """
    array = np.asarray(list(rewards), dtype=np.float64)
    if array.size == 0:
        return np.zeros(length)
    if array.size >= length:
        return array[:length].copy()
    pad = np.full(length - array.size, array[-1])
    return np.concatenate([array, pad])


def top_fraction_labels(final_scores: Sequence[float], fraction: float) -> np.ndarray:
    """Binary labels marking the top ``fraction`` of ``final_scores`` as 1.

    At least one design is always labelled positive.
    """
    scores = np.asarray(final_scores, dtype=np.float64)
    if scores.size == 0:
        return np.zeros(0, dtype=np.int64)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = max(1, int(round(fraction * scores.size)))
    order = np.argsort(scores)[::-1]
    labels = np.zeros(scores.size, dtype=np.int64)
    labels[order[:k]] = 1
    return labels


def tune_threshold_zero_fnr(scores: np.ndarray, labels: np.ndarray,
                            margin: float = 1e-6) -> float:
    """Largest threshold that keeps every positive (0% false-negative rate).

    The paper tunes the classification threshold on the training split so that
    no top-performing design is rejected while as many suboptimal designs as
    possible are stopped; that threshold is exactly the minimum score among
    positives (minus a tiny margin).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    positives = scores[labels == 1]
    if positives.size == 0:
        return float("-inf")
    return float(positives.min() - margin)


@dataclass
class EarlyStoppingDecision:
    """Decision for one design."""

    score: float
    threshold: float

    @property
    def stop(self) -> bool:
        """True if the design's training should be terminated early."""
        return self.score < self.threshold


class _RewardCNN(nn.Module):
    """1-D CNN binary classifier over reward prefixes."""

    def __init__(self, prefix_length: int, conv_channels: int, kernel_size: int,
                 hidden_units: int, rng: np.random.Generator) -> None:
        super().__init__()
        kernel = min(kernel_size, prefix_length)
        self.conv = nn.Conv1D(1, conv_channels, kernel, activation="relu", rng=rng)
        conv_positions = prefix_length - kernel + 1
        self.hidden = nn.Dense(conv_channels * conv_positions, hidden_units,
                               activation="relu", rng=rng)
        self.out = nn.Dense(hidden_units, 1, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        batch = x.shape[0]
        features = self.conv(x).reshape(batch, -1)
        logits = self.out(self.hidden(features)).reshape(batch)
        return logits.sigmoid()


class RewardTrajectoryClassifier:
    """The paper's "Reward Only" early-stopping model."""

    def __init__(self, config: Optional[EarlyStoppingConfig] = None) -> None:
        self.config = config or EarlyStoppingConfig()
        self._model: Optional[_RewardCNN] = None
        self._mean = 0.0
        self._std = 1.0
        self.threshold: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _to_matrix(self, reward_prefixes: Sequence[Sequence[float]]) -> np.ndarray:
        length = self.config.reward_prefix_length
        return np.stack([prepare_reward_prefix(r, length) for r in reward_prefixes])

    def _standardize(self, matrix: np.ndarray, fit: bool = False) -> np.ndarray:
        if fit:
            self._mean = float(matrix.mean())
            self._std = float(matrix.std()) or 1.0
        return (matrix - self._mean) / self._std

    # ------------------------------------------------------------------ #
    def fit(self, reward_prefixes: Sequence[Sequence[float]],
            final_scores: Sequence[float]) -> "RewardTrajectoryClassifier":
        """Train the classifier and tune its decision threshold."""
        if len(reward_prefixes) != len(final_scores):
            raise ValueError("reward prefixes and final scores must align")
        if len(reward_prefixes) < 4:
            raise ValueError("need at least 4 designs to fit the classifier")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        matrix = self._standardize(self._to_matrix(reward_prefixes), fit=True)
        smoothed_labels = top_fraction_labels(final_scores, cfg.smoothed_fraction)
        strict_labels = top_fraction_labels(final_scores, cfg.top_fraction)

        model = _RewardCNN(cfg.reward_prefix_length, cfg.conv_channels,
                           cfg.kernel_size, cfg.hidden_units, rng)
        optimizer = nn.Adam(model.parameters(), lr=cfg.learning_rate)
        inputs = matrix[:, None, :]
        n = inputs.shape[0]
        targets = smoothed_labels.astype(np.float64)

        for _ in range(cfg.training_epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch_idx = order[start:start + cfg.batch_size]
                batch_x = nn.tensor(inputs[batch_idx])
                batch_y = nn.tensor(targets[batch_idx])
                predictions = model(batch_x)
                loss = nn.binary_cross_entropy(predictions, batch_y)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        self._model = model
        # Revert to the strict top-1% labels and tune the threshold for 0% FNR.
        scores = self.predict_scores(reward_prefixes)
        self.threshold = tune_threshold_zero_fnr(scores, strict_labels,
                                                 margin=cfg.threshold_margin)
        return self

    # ------------------------------------------------------------------ #
    def predict_scores(self, reward_prefixes: Sequence[Sequence[float]]) -> np.ndarray:
        """Classifier scores in [0, 1]; higher means more promising."""
        if self._model is None:
            raise RuntimeError("classifier has not been fitted")
        matrix = self._standardize(self._to_matrix(reward_prefixes))
        with nn.no_grad():
            outputs = self._model(nn.tensor(matrix[:, None, :]))
        return outputs.numpy().copy()

    def decide(self, reward_prefix: Sequence[float]) -> EarlyStoppingDecision:
        """Early-stopping decision for one design's reward prefix."""
        if self.threshold is None:
            raise RuntimeError("classifier has not been fitted")
        score = float(self.predict_scores([reward_prefix])[0])
        return EarlyStoppingDecision(score=score, threshold=self.threshold)

    def should_stop(self, reward_prefix: Sequence[float]) -> bool:
        """True when training of this design should be terminated early."""
        return self.decide(reward_prefix).stop

    # ------------------------------------------------------------------ #
    def evaluate(self, reward_prefixes: Sequence[Sequence[float]],
                 final_scores: Sequence[float]) -> dict:
        """False/true negative rates against the strict top-1% labels."""
        if self.threshold is None:
            # Guard explicitly: an unfitted threshold would otherwise reach
            # classification_rates and fail with a confusing TypeError on
            # ``scores >= None``.
            raise RuntimeError("classifier has not been fitted")
        labels = top_fraction_labels(final_scores, self.config.top_fraction)
        scores = self.predict_scores(reward_prefixes)
        return classification_rates(scores, labels, self.threshold)


def classification_rates(scores: np.ndarray, labels: np.ndarray,
                         threshold: float) -> dict:
    """Compute false-negative and true-negative rates at ``threshold``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    predicted_positive = scores >= threshold
    positives = labels == 1
    negatives = labels == 0
    n_pos = int(positives.sum())
    n_neg = int(negatives.sum())
    false_negatives = int(np.sum(positives & ~predicted_positive))
    true_negatives = int(np.sum(negatives & ~predicted_positive))
    return {
        "false_negative_rate": false_negatives / n_pos if n_pos else 0.0,
        "true_negative_rate": true_negatives / n_neg if n_neg else 0.0,
        "num_positives": n_pos,
        "num_negatives": n_neg,
    }
