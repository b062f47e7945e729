"""Static design auditor and repo contract linters.

This package analyzes *code as text* — before anything is executed:

* :mod:`~repro.analysis.staticcheck.auditor` — the **design auditor**, an
  AST-walking analyzer for LLM-generated ``state_func``/``build_network``
  code blocks.  It statically rejects sandbox escapes (disallowed imports,
  dunder attribute chains, dynamic ``getattr``), nondeterminism (module-level
  ``np.random`` calls that would break the content-addressed result store),
  unbounded loops, input mutation, unnormalized features and broken
  contracts, and predicts whether a network design will lower onto the fused
  kernels of :mod:`repro.nn.compile` or fall back to the autograd graph path.
* :mod:`~repro.analysis.staticcheck.contracts` — the **repo contract
  linter**, which runs over ``src/repro`` itself and enforces the invariants
  CI used to re-fix by hand: RNG discipline in library code, store-key
  completeness of every config field and the engine configuration,
  picklability of everything submitted to the process pool, and
  allocation-free disabled paths in the telemetry helpers.

Entry points: ``repro lint --designs DIR`` audits generated code on disk,
``repro lint --self`` runs the contract linter plus the auditor's self-test
corpus (wired into CI via ``make lint``), and
:class:`~repro.core.filters.FilterPipeline` runs the auditor as the first
pre-check stage of every campaign.
"""

from .auditor import DesignAuditor, audit_design, run_selfcheck_corpus
from .contracts import lint_repo
from .findings import (AuditFinding, AuditReport, Severity,
                       rejection_bucket)
from .lowerability import (LOWERABLE_ENCODERS, LoweringPrediction,
                           predict_lowerability)

__all__ = [
    "AuditFinding",
    "AuditReport",
    "Severity",
    "rejection_bucket",
    "DesignAuditor",
    "audit_design",
    "run_selfcheck_corpus",
    "LoweringPrediction",
    "predict_lowerability",
    "LOWERABLE_ENCODERS",
    "lint_repo",
]
