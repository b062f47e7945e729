"""Candidate designs and the candidate pool.

A *design* is one LLM-generated code block — either a state representation or
a neural-network architecture — together with everything Nada learns about it
as it moves through the pipeline: whether it compiled, whether its features
were well normalized, its training-reward trajectory, whether it was
early-stopped, and its final test score.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = ["DesignKind", "DesignStatus", "Design", "CandidatePool"]


class DesignKind(str, enum.Enum):
    """What component of the algorithm a design replaces."""

    STATE = "state"
    NETWORK = "network"


class DesignStatus(str, enum.Enum):
    """Lifecycle of a design inside the Nada pipeline."""

    GENERATED = "generated"
    #: Rejected by the static design auditor, before any code was executed.
    REJECTED_AUDIT = "rejected_audit"
    REJECTED_COMPILATION = "rejected_compilation"
    REJECTED_NORMALIZATION = "rejected_normalization"
    PENDING_EVALUATION = "pending_evaluation"
    EARLY_STOPPED = "early_stopped"
    EVALUATED = "evaluated"
    #: Evaluation kept failing past the retry budget and was quarantined.
    FAILED = "failed"


_id_counter = itertools.count()


def _next_design_id(kind: DesignKind, code: str) -> str:
    digest = hashlib.sha1(code.encode("utf-8")).hexdigest()[:8]
    return f"{kind.value}-{next(_id_counter):05d}-{digest}"


@dataclass
class Design:
    """One candidate design and its evaluation record."""

    kind: DesignKind
    code: str
    origin_model: str = "unknown"
    design_id: str = ""
    status: DesignStatus = DesignStatus.GENERATED
    tags: tuple[str, ...] = ()
    #: Error message of the failed pre-check, if any.
    rejection_reason: Optional[str] = None
    #: Structured findings from the static audit stage (rule id, severity,
    #: message, line), as dicts so the design stays trivially serializable.
    audit_findings: List[Dict[str, object]] = field(default_factory=list)
    #: Static lowerability verdict for network designs ("compiled",
    #: "graph_fallback" or "unknown"; None before the audit).
    lowerability: Optional[str] = None
    #: Episode rewards observed during (possibly truncated) training.
    reward_history: List[float] = field(default_factory=list)
    #: Test scores observed at periodic checkpoints during training.
    checkpoint_scores: List[float] = field(default_factory=list)
    #: Final aggregate test score (the paper's "score"), if fully evaluated.
    test_score: Optional[float] = None
    #: Free-form metadata (seed, environment name, training epochs, ...).
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kind = DesignKind(self.kind)
        self.status = DesignStatus(self.status)
        if not self.code or not self.code.strip():
            raise ValueError("a design must contain non-empty code")
        if not self.design_id:
            self.design_id = _next_design_id(self.kind, self.code)

    # ------------------------------------------------------------------ #
    @property
    def is_rejected(self) -> bool:
        return self.status in (DesignStatus.REJECTED_AUDIT,
                               DesignStatus.REJECTED_COMPILATION,
                               DesignStatus.REJECTED_NORMALIZATION)

    @property
    def passed_prechecks(self) -> bool:
        return self.status not in (DesignStatus.GENERATED,
                                   DesignStatus.REJECTED_AUDIT,
                                   DesignStatus.REJECTED_COMPILATION,
                                   DesignStatus.REJECTED_NORMALIZATION)

    def mark_rejected(self, status: DesignStatus, reason: str) -> None:
        if status not in (DesignStatus.REJECTED_AUDIT,
                          DesignStatus.REJECTED_COMPILATION,
                          DesignStatus.REJECTED_NORMALIZATION):
            raise ValueError("mark_rejected requires a rejection status")
        self.status = status
        self.rejection_reason = reason

    def record_training(self, rewards: Sequence[float],
                        checkpoint_scores: Sequence[float] = ()) -> None:
        self.reward_history = [float(r) for r in rewards]
        if checkpoint_scores:
            self.checkpoint_scores = [float(s) for s in checkpoint_scores]

    def finalize(self, test_score: float) -> None:
        self.test_score = float(test_score)
        self.status = DesignStatus.EVALUATED

    def summary(self) -> str:
        score = f"{self.test_score:.3f}" if self.test_score is not None else "-"
        return (f"{self.design_id} [{self.kind.value}] status={self.status.value} "
                f"score={score}")


class CandidatePool:
    """An ordered collection of designs with query helpers.

    The pool corresponds to the "State Pool" / "Neural Network Pool" boxes in
    Figure 1 of the paper.
    """

    def __init__(self, designs: Iterable[Design] = ()) -> None:
        self._designs: List[Design] = list(designs)
        self._by_id: Dict[str, Design] = {d.design_id: d for d in self._designs}
        if len(self._by_id) != len(self._designs):
            raise ValueError("duplicate design ids in pool")

    # ------------------------------------------------------------------ #
    def add(self, design: Design) -> None:
        if design.design_id in self._by_id:
            raise ValueError(f"design {design.design_id!r} already in pool")
        self._designs.append(design)
        self._by_id[design.design_id] = design

    def extend(self, designs: Iterable[Design]) -> None:
        for design in designs:
            self.add(design)

    def get(self, design_id: str) -> Design:
        if design_id not in self._by_id:
            raise KeyError(f"no design with id {design_id!r}")
        return self._by_id[design_id]

    def __len__(self) -> int:
        return len(self._designs)

    def __iter__(self) -> Iterator[Design]:
        return iter(self._designs)

    def __contains__(self, design_id: str) -> bool:
        return design_id in self._by_id

    # ------------------------------------------------------------------ #
    def of_kind(self, kind: DesignKind) -> List[Design]:
        kind = DesignKind(kind)
        return [d for d in self._designs if d.kind == kind]

    def with_status(self, status: DesignStatus) -> List[Design]:
        status = DesignStatus(status)
        return [d for d in self._designs if d.status == status]

    def surviving_prechecks(self) -> List[Design]:
        """Designs that passed both pre-checks (compilation + normalization)."""
        return [d for d in self._designs if d.passed_prechecks]

    def evaluated(self) -> List[Design]:
        return [d for d in self._designs
                if d.status == DesignStatus.EVALUATED and d.test_score is not None]

    def top_k(self, k: int, kind: Optional[DesignKind] = None) -> List[Design]:
        """The ``k`` fully-evaluated designs with the highest test scores."""
        candidates = self.evaluated()
        if kind is not None:
            kind = DesignKind(kind)
            candidates = [d for d in candidates if d.kind == kind]
        return sorted(candidates, key=lambda d: d.test_score, reverse=True)[:k]

    def best(self, kind: Optional[DesignKind] = None) -> Optional[Design]:
        top = self.top_k(1, kind=kind)
        return top[0] if top else None

    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, int]:
        """Counts per lifecycle status (used by the Table 2 benchmark)."""
        counts: Dict[str, int] = {"total": len(self._designs)}
        for status in DesignStatus:
            counts[status.value] = sum(1 for d in self._designs if d.status == status)
        counts["passed_prechecks"] = len(self.surviving_prechecks())
        return counts
