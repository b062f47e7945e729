"""Pre-check filters: static audit, compilation check and normalization check.

The checks operate on raw code blocks, in order:

* the **audit check** statically analyzes the code — no execution — with the
  design auditor (:mod:`repro.analysis.staticcheck`), rejecting sandbox
  escapes, nondeterminism, unbounded loops, input mutation, statically
  visible normalization defects and contract violations before any ``exec``;
  it also attaches warnings and the lowerability verdict to the design;
* the **compilation check** (§2.2) compiles the code in the sandbox and
  performs a trial run on synthetic inputs — any exception rejects the
  design;
* the **normalization check** fuzzes a state function with random inputs drawn
  from wide but realistic ranges and rejects the design if any output feature
  exceeds a threshold ``T`` (100 in the paper) in absolute value.

The :class:`FilterPipeline` applies them in order to a
:class:`~repro.core.design.CandidatePool` and records per-stage statistics
(the quantities reported in Table 2).  An audit rejection is folded into the
same two Table 2 buckets the dynamic checks report — a statically detected
normalization defect still counts as "compilable but badly normalized", and
everything else as "not compilable" — so audit-first filtering reports the
same ``compilable``/``well normalized`` fractions the dynamic pipeline
measures on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..abr.env import HISTORY_LENGTH, Observation
from ..abr.networks import ActorCriticNetwork
from ..abr.video import STANDARD_LADDER_KBPS
from .. import nn
from .codegen import CodeBlockError, load_network_builder, load_state_function
from .design import Design, DesignKind, DesignStatus

__all__ = [
    "random_observation",
    "CheckResult",
    "AuditCheck",
    "CompilationCheck",
    "NormalizationCheck",
    "FilterPipeline",
    "FilterReport",
]

#: Threshold on the absolute value of any state feature (the paper's T).
DEFAULT_NORMALIZATION_THRESHOLD = 100.0


def random_observation(rng: np.random.Generator,
                       ladder_kbps: Tuple[int, ...] = STANDARD_LADDER_KBPS,
                       history_length: int = HISTORY_LENGTH) -> Observation:
    """Draw a random but plausible observation for fuzzing state functions.

    Ranges intentionally cover both low-bandwidth (FCC/Starlink) and
    high-bandwidth (4G/5G) regimes so that unnormalized features are exposed
    regardless of the target environment.
    """
    ladder = np.asarray(ladder_kbps, dtype=np.float64)
    bitrate_history = rng.choice(ladder, size=history_length)
    throughput_history = rng.uniform(0.05, 120.0, size=history_length)
    download_history = rng.uniform(0.05, 30.0, size=history_length)
    buffer_history = rng.uniform(0.0, 60.0, size=history_length)
    chunk_duration = 4.0
    next_sizes = ladder * 1000.0 * chunk_duration / 8.0
    next_sizes = next_sizes * rng.uniform(0.5, 1.8, size=len(ladder))
    total_chunks = int(rng.integers(32, 120))
    remaining = int(rng.integers(1, total_chunks + 1))
    return Observation(
        bitrate_kbps_history=bitrate_history.astype(float),
        throughput_mbps_history=throughput_history,
        download_time_s_history=download_history,
        buffer_s_history=buffer_history,
        next_chunk_sizes_bytes=next_sizes,
        buffer_s=float(buffer_history[-1]),
        remaining_chunks=remaining,
        total_chunks=total_chunks,
        last_bitrate_index=int(rng.integers(len(ladder))),
        bitrate_ladder_kbps=ladder,
        chunk_duration_s=chunk_duration,
    )


@dataclass
class CheckResult:
    """Outcome of running one check on one design."""

    passed: bool
    reason: str = ""


class AuditCheck:
    """Static pre-check: run the design auditor before anything executes.

    Wraps :class:`~repro.analysis.staticcheck.auditor.DesignAuditor` (lazily
    imported — :mod:`repro.analysis` pulls in the experiment layer, which
    must not load whenever ``core.filters`` does).  Besides the pass/reject
    decision, :meth:`annotate` records structured findings and the
    lowerability verdict on the design, so accepted designs carry their
    warnings and predicted execution engine into the pool.
    """

    def __init__(self, reject_on_warnings: bool = False) -> None:
        self.reject_on_warnings = reject_on_warnings
        self._auditor = None

    def _get_auditor(self):
        if self._auditor is None:
            from ..analysis.staticcheck.auditor import DesignAuditor
            self._auditor = DesignAuditor(
                reject_on_warnings=self.reject_on_warnings)
        return self._auditor

    # ------------------------------------------------------------------ #
    def check(self, design: Design) -> CheckResult:
        passed, report = self._get_auditor().check(design)
        self.annotate(design, report)
        if passed:
            if report.warnings:
                return CheckResult(True, report.warnings[0].render())
            return CheckResult(True)
        reasons = "; ".join(f.render() for f in report.errors[:3])
        return CheckResult(False, f"static audit: {reasons}")

    @staticmethod
    def annotate(design: Design, report) -> None:
        design.audit_findings = [f.to_dict() for f in report.findings]
        if report.lowerability is not None:
            design.lowerability = report.lowerability.verdict
            design.metadata["lowerability_reason"] = report.lowerability.reason

    @staticmethod
    def rejection_bucket(design: Design) -> str:
        """The Table 2 bucket an audit-rejected ``design`` falls into."""
        from ..analysis.staticcheck.findings import rejection_bucket
        buckets = {rejection_bucket(str(f.get("rule", "")))
                   for f in design.audit_findings
                   if f.get("severity") == "error"}
        if not buckets:
            return "compilation"
        return "compilation" if "compilation" in buckets else "normalization"


class CompilationCheck:
    """Trial-run check: the code must compile, execute and honour its contract."""

    def __init__(self, num_trial_inputs: int = 3, seed: int = 0,
                 num_actions: int = len(STANDARD_LADDER_KBPS)) -> None:
        if num_trial_inputs < 1:
            raise ValueError("at least one trial input is required")
        self.num_trial_inputs = num_trial_inputs
        self.seed = seed
        self.num_actions = num_actions

    # ------------------------------------------------------------------ #
    def check(self, design: Design) -> CheckResult:
        if design.kind == DesignKind.STATE:
            return self._check_state(design.code)
        return self._check_network(design.code)

    def _check_state(self, code: str) -> CheckResult:
        try:
            state_function = load_state_function(code)
        except CodeBlockError as exc:
            return CheckResult(False, str(exc))
        rng = np.random.default_rng(self.seed)
        try:
            for _ in range(self.num_trial_inputs):
                state_function.reset_shape()
                state_function(random_observation(rng))
        except Exception as exc:  # noqa: BLE001 - any failure rejects the design
            return CheckResult(False, f"trial run failed: {exc!r}")
        return CheckResult(True)

    def _check_network(self, code: str) -> CheckResult:
        try:
            builder = load_network_builder(code)
        except CodeBlockError as exc:
            return CheckResult(False, str(exc))
        rng = np.random.default_rng(self.seed)
        try:
            # Build for the canonical Pensieve state shape and for a flat state,
            # then run a forward pass on a small batch for each.
            for shape in ((6, HISTORY_LENGTH), (12,)):
                network = builder(shape, self.num_actions,
                                  rng=np.random.default_rng(self.seed))
                if not isinstance(network, ActorCriticNetwork):
                    return CheckResult(
                        False, "build_network did not return an ActorCriticNetwork")
                batch = nn.tensor(rng.normal(size=(2, *shape)))
                logits, value = network.forward(batch)
                if logits.shape != (2, self.num_actions):
                    return CheckResult(
                        False, f"policy logits have shape {logits.shape}, "
                               f"expected (2, {self.num_actions})")
                if value.shape != (2,):
                    return CheckResult(
                        False, f"value output has shape {value.shape}, expected (2,)")
                if not (np.all(np.isfinite(logits.numpy()))
                        and np.all(np.isfinite(value.numpy()))):
                    return CheckResult(False, "network produced non-finite outputs")
        except Exception as exc:  # noqa: BLE001
            return CheckResult(False, f"trial forward pass failed: {exc!r}")
        return CheckResult(True)


class NormalizationCheck:
    """Fuzzing check: no state feature may exceed ``threshold`` in magnitude."""

    def __init__(self, threshold: float = DEFAULT_NORMALIZATION_THRESHOLD,
                 num_fuzz_inputs: int = 10, seed: int = 1) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if num_fuzz_inputs < 1:
            raise ValueError("at least one fuzz input is required")
        self.threshold = threshold
        self.num_fuzz_inputs = num_fuzz_inputs
        self.seed = seed

    def check(self, design: Design) -> CheckResult:
        if design.kind != DesignKind.STATE:
            # The paper applies the normalization check only to state designs.
            return CheckResult(True, "not applicable to network designs")
        try:
            state_function = load_state_function(design.code)
        except CodeBlockError as exc:
            return CheckResult(False, str(exc))
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        try:
            for _ in range(self.num_fuzz_inputs):
                state_function.reset_shape()
                state = state_function(random_observation(rng))
                worst = max(worst, float(np.abs(state).max()))
                if worst > self.threshold:
                    return CheckResult(
                        False,
                        f"feature magnitude {worst:.1f} exceeds threshold "
                        f"{self.threshold:.0f}")
        except Exception as exc:  # noqa: BLE001
            return CheckResult(False, f"fuzzing failed: {exc!r}")
        return CheckResult(True, f"max observed magnitude {worst:.2f}")


@dataclass
class FilterReport:
    """Aggregate statistics of a filtering pass (Table 2 quantities).

    ``compilable``/``well_normalized`` keep the paper's semantics regardless
    of *which* stage rejected a design: an audit rejection decrements the
    bucket its rule family maps onto (see module docstring), so the
    fractions are comparable with and without the static stage.
    ``rejected_by_audit`` additionally counts how many rejections the static
    stage caught before any code ran.
    """

    total: int = 0
    compilable: int = 0
    well_normalized: int = 0
    #: Designs rejected statically, before execution (subset of rejections).
    rejected_by_audit: int = 0
    rejection_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def compilable_fraction(self) -> float:
        return self.compilable / self.total if self.total else 0.0

    @property
    def well_normalized_fraction(self) -> float:
        return self.well_normalized / self.total if self.total else 0.0

    def _note_rejection(self, stage: str) -> None:
        self.rejection_reasons[stage] = self.rejection_reasons.get(stage, 0) + 1


class FilterPipeline:
    """Applies the pre-checks in order and updates design statuses.

    ``audit_check=None`` disables the static stage (the pre-PR-8 dynamic
    pipeline, kept for differential testing).
    """

    _DEFAULT_AUDIT = object()

    def __init__(self, compilation_check: Optional[CompilationCheck] = None,
                 normalization_check: Optional[NormalizationCheck] = None,
                 audit_check=_DEFAULT_AUDIT) -> None:
        self.audit_check: Optional[AuditCheck] = (
            AuditCheck() if audit_check is self._DEFAULT_AUDIT else audit_check)
        self.compilation_check = compilation_check or CompilationCheck()
        self.normalization_check = normalization_check or NormalizationCheck()

    def apply(self, designs: Iterable[Design]) -> FilterReport:
        """Run the checks over ``designs``, mutating their statuses."""
        report = FilterReport()
        for design in designs:
            report.total += 1
            if self.audit_check is not None:
                audit = self.audit_check.check(design)
                if not audit.passed:
                    design.mark_rejected(DesignStatus.REJECTED_AUDIT,
                                         audit.reason)
                    report.rejected_by_audit += 1
                    bucket = self.audit_check.rejection_bucket(design)
                    if bucket == "normalization":
                        # The design would have compiled; only the
                        # normalization bucket loses it.
                        report.compilable += 1
                    report._note_rejection(f"audit.{bucket}")
                    continue
            compilation = self.compilation_check.check(design)
            if not compilation.passed:
                design.mark_rejected(DesignStatus.REJECTED_COMPILATION,
                                     compilation.reason)
                report._note_rejection("compilation")
                continue
            report.compilable += 1
            normalization = self.normalization_check.check(design)
            if not normalization.passed:
                design.mark_rejected(DesignStatus.REJECTED_NORMALIZATION,
                                     normalization.reason)
                report._note_rejection("normalization")
                continue
            report.well_normalized += 1
            design.status = DesignStatus.PENDING_EVALUATION
        return report
