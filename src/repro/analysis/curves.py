"""Training-curve data structures for the figure benchmarks.

Figures 3 and 4 of the paper plot the test score of the best generated design
against the original design over the course of training.  The benchmarks here
produce the same series; this module holds them, aligns them on a common
epoch grid and renders a compact ASCII representation for console output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["TrainingCurve", "CurveComparison", "render_ascii_curves"]


@dataclass
class TrainingCurve:
    """A named series of (epoch, test score) checkpoints."""

    label: str
    epochs: List[int] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.epochs) != len(self.scores):
            raise ValueError("epochs and scores must have equal length")

    def add(self, epoch: int, score: float) -> None:
        if self.epochs and epoch <= self.epochs[-1]:
            raise ValueError("epochs must be strictly increasing")
        self.epochs.append(int(epoch))
        self.scores.append(float(score))

    @property
    def final_score(self) -> float:
        return self.scores[-1] if self.scores else float("-inf")

    def smoothed(self, window: int = 3) -> "TrainingCurve":
        """Return a copy with a trailing moving average applied to the scores."""
        from .metrics import moving_average
        return TrainingCurve(self.label, list(self.epochs),
                             list(moving_average(self.scores, window)))


@dataclass
class CurveComparison:
    """A set of curves plotted on the same axes (one panel of Figure 3/4)."""

    title: str
    curves: List[TrainingCurve] = field(default_factory=list)

    def add_curve(self, curve: TrainingCurve) -> None:
        self.curves.append(curve)

    def curve(self, label: str) -> TrainingCurve:
        for curve in self.curves:
            if curve.label == label:
                return curve
        raise KeyError(f"no curve labelled {label!r}")

    def final_scores(self) -> Dict[str, float]:
        return {curve.label: curve.final_score for curve in self.curves}

    def winner(self) -> str:
        """Label of the curve with the highest final score."""
        if not self.curves:
            raise ValueError("comparison contains no curves")
        return max(self.curves, key=lambda c: c.final_score).label


def render_ascii_curves(comparison: CurveComparison, width: int = 60,
                        height: int = 12) -> str:
    """Render curves as a small ASCII chart (one character per curve point)."""
    if not comparison.curves or not any(c.scores for c in comparison.curves):
        return f"{comparison.title}: (no data)"
    all_scores = [s for c in comparison.curves for s in c.scores if np.isfinite(s)]
    all_epochs = [e for c in comparison.curves for e in c.epochs]
    if not all_scores:
        return f"{comparison.title}: (no finite data)"
    lo, hi = min(all_scores), max(all_scores)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    min_epoch, max_epoch = min(all_epochs), max(all_epochs)
    span = max(max_epoch - min_epoch, 1)

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@"
    for index, curve in enumerate(comparison.curves):
        marker = markers[index % len(markers)]
        for epoch, score in zip(curve.epochs, curve.scores):
            if not np.isfinite(score):
                continue
            col = int((epoch - min_epoch) / span * (width - 1))
            row = int((score - lo) / (hi - lo) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = [comparison.title]
    lines.append(f"  score range [{lo:.3f}, {hi:.3f}], epochs [{min_epoch}, {max_epoch}]")
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * width)
    legend = "   ".join(f"{markers[i % len(markers)]}={c.label}"
                        for i, c in enumerate(comparison.curves))
    lines.append("  " + legend)
    return "\n".join(lines)
