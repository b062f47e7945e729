"""The design auditor: static analysis of generated code blocks.

:func:`audit_design` parses one ``state_func``/``build_network`` code block
and runs every rule family of :mod:`~repro.analysis.staticcheck.rules` over
it, attaching a lowerability prediction for network designs.  Nothing is
ever executed — the auditor's whole point is to reject sandbox escapes,
nondeterminism and contract violations *before* ``exec``.

:class:`DesignAuditor` packages that as a pre-check stage compatible with
:class:`~repro.core.filters.FilterPipeline` (``check(design)`` returning a
pass/fail plus reason) and emits telemetry:

* ``audit.pass`` / ``audit.reject`` / ``audit.warn`` counters, and
* one ``audit.rule.<family.rule>`` counter per distinct violated rule,

all no-ops when telemetry is disabled.

:func:`run_selfcheck_corpus` is the auditor's own regression harness (run
by ``repro lint --self`` and ``make lint``): it renders healthy and
defective design samples straight from the design-space grammar and
verifies the auditor accepts every healthy one and rejects every defect
with the expected rule family.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

import numpy as np

from ...core import telemetry
from .findings import AuditFinding, AuditReport, Severity
from .lowerability import predict_lowerability
from .rules import CodeContext, run_all_rules

__all__ = ["audit_design", "DesignAuditor", "run_selfcheck_corpus",
           "EXPECTED_DEFECT_RULES"]

#: Rule families expected to fire for each design-space defect; the
#: self-check corpus (and the property tests) assert these mappings.
EXPECTED_DEFECT_RULES: Dict[Tuple[str, str], str] = {
    ("state", "syntax"): "syntax.error",
    ("state", "runtime"): "sandbox.undefined-name",
    ("state", "shape"): "contract.state-rank",
    ("state", "nan"): "numeric.non-finite",
    ("state", "raw_bitrate"): "normalization.raw-bitrate",
    ("state", "raw_sizes"): "normalization.raw-sizes",
    ("network", "syntax"): "syntax.error",
    ("network", "runtime"): "sandbox.unknown-nn-attribute",
    ("network", "shape"): "contract.returns-none",
    ("network", "nan"): "numeric.non-finite",
}


def audit_design(code: str, kind: str) -> AuditReport:
    """Statically audit one code block of ``kind`` ("state" or "network")."""
    report = AuditReport(kind=kind)
    if not code or not code.strip():
        report.findings.append(AuditFinding(
            rule="syntax.error", severity=Severity.ERROR,
            message="empty code block", line=1))
        return report
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        report.findings.append(AuditFinding(
            rule="syntax.error", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}", line=exc.lineno or 1))
        return report
    except (ValueError, RecursionError) as exc:
        report.findings.append(AuditFinding(
            rule="syntax.error", severity=Severity.ERROR,
            message=f"unparseable code block: {exc}", line=1))
        return report

    context = CodeContext(tree, kind)
    report.findings.extend(run_all_rules(context))
    if kind == "network":
        report.lowerability = predict_lowerability(tree)
    return report


class DesignAuditor:
    """Audit stage for the filter pipeline, with telemetry counters."""

    def __init__(self, reject_on_warnings: bool = False) -> None:
        #: When True, WARNING findings also reject (off by default: the
        #: calibrated Table 2 accounting expects warnings to pass through).
        self.reject_on_warnings = reject_on_warnings

    # ------------------------------------------------------------------ #
    def audit(self, code: str, kind: str) -> AuditReport:
        """Audit and emit ``audit.*`` telemetry for one code block."""
        report = audit_design(code, kind)
        rejected = self._rejects(report)
        sink = telemetry.get_telemetry()
        if sink is not None:
            sink.counter("audit.reject" if rejected else "audit.pass",
                         attrs={"kind": kind})
            if report.warnings:
                sink.counter("audit.warn", len(report.warnings),
                             attrs={"kind": kind})
            for rule in sorted({f.rule for f in report.findings}):
                sink.counter(f"audit.rule.{rule}", attrs={"kind": kind})
        return report

    def _rejects(self, report: AuditReport) -> bool:
        if not report.passed:
            return True
        return bool(self.reject_on_warnings and report.warnings)

    # ------------------------------------------------------------------ #
    def check(self, design) -> Tuple[bool, AuditReport]:
        """Audit a :class:`~repro.core.design.Design`-shaped object."""
        kind = getattr(design.kind, "value", design.kind)
        report = self.audit(design.code, str(kind))
        return (not self._rejects(report)), report


# --------------------------------------------------------------------------- #
# Self-check corpus
# --------------------------------------------------------------------------- #
def run_selfcheck_corpus(samples_per_kind: int = 25,
                         seed: int = 7) -> Tuple[bool, List[str]]:
    """Exercise the auditor against the design-space grammar itself.

    Renders ``samples_per_kind`` healthy state and network designs (which
    must all pass with zero findings) plus every defect variant (which must
    each be rejected with the expected rule, per
    :data:`EXPECTED_DEFECT_RULES`).  Returns ``(ok, messages)`` where
    ``messages`` describes every deviation; used by ``repro lint --self``.
    """
    # Imported here: llm.design_space is a leaf module, but keeping the
    # auditor importable without it costs nothing.
    from ...llm.design_space import (NetworkDesignSpace, StateDesignSpace)

    messages: List[str] = []
    rng = np.random.default_rng(seed)
    spaces = {"state": StateDesignSpace(), "network": NetworkDesignSpace()}

    for kind, space in spaces.items():
        for index in range(samples_per_kind):
            sample = space.sample(rng)
            report = audit_design(sample.code, kind)
            if report.findings:
                messages.append(
                    f"healthy {kind} sample #{index} "
                    f"[{', '.join(sample.tags)}] was flagged: "
                    f"{', '.join(report.rule_ids())}")

    for (kind, defect), expected_rule in sorted(EXPECTED_DEFECT_RULES.items()):
        sample = spaces[kind].sample(rng, defect=defect)
        report = audit_design(sample.code, kind)
        if report.passed:
            messages.append(
                f"{kind} defect {defect!r} was not rejected "
                f"(expected rule {expected_rule})")
        elif not report.has_rule(expected_rule):
            messages.append(
                f"{kind} defect {defect!r} rejected, but without rule "
                f"{expected_rule} (got: {', '.join(report.rule_ids())})")
    return (not messages), messages
