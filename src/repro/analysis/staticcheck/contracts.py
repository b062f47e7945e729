"""Repo contract linter: enforce the invariants CI kept re-fixing by hand.

:func:`lint_repo` runs six checks over ``src/repro`` itself and returns
:class:`~repro.analysis.staticcheck.findings.AuditFinding`s (family
``repo``).  It is wired into ``repro lint --self`` and ``make lint`` as a
fail-the-build job.

``repo.rng-discipline``
    Library code must never draw from NumPy's hidden global stream
    (``np.random.rand(...)``, ``np.random.seed(...)``, ...).  Explicit
    generator construction (``np.random.default_rng``, ``Generator``
    annotations) is the sanctioned idiom.
``repo.store-key``
    The PR 4 bug class, made impossible to reintroduce silently: every
    setting that can change a score is a field of the one engine
    configuration (:class:`repro.nn.EngineConfig`), so the only
    fingerprinted module global (any ``global _X`` write anywhere in the
    tree) is its registry; every other must carry a documented exemption
    here.  Both store-key builders — ``core/results.py``'s
    ``context_fingerprint`` and ``emulation/emulator.py``'s
    ``emulation_context_fingerprint`` — must hash the engine through
    ``current().fingerprint()``, and that method must read every
    ``EngineConfig`` field.  Every ``NadaConfig`` field must be classified
    as key material or engine-only; the store's ``_NON_RESULT_FIELDS``
    allowlist must name real ``EvaluationConfig`` fields.  Adding a field
    or toggle without updating the classification fails the build.
``repo.picklability``
    Every callable submitted to :func:`~repro.core.parallel.run_resilient`
    or :meth:`~repro.core.scheduler.CampaignScheduler.map_items` must
    survive pickling to reach a worker process: no lambdas, no functions
    defined inside another function (an unpicklable job once downgraded a
    parallel batch to serial execution without a word).
``repo.telemetry-noop``
    The module-level telemetry helpers (``span``/``counter``/``series``)
    must not allocate on the disabled path: read ``_ACTIVE`` into a local,
    guard on ``None``, and keep every allocation inside the enabled branch.
``repo.fault-coverage``
    Every site in :data:`~repro.core.faults.FAULT_SITES` must be named by
    at least one test under ``tests/`` — an injection site no test fires is
    a recovery path that can rot silently, which defeats the point of
    deterministic chaos coverage.
``repo.unused-import``
    Every imported name must be used in its module.  Exempt: package
    ``__init__.py`` files (their imports are the re-exports), names listed
    in the module's ``__all__``, names mentioned in a string annotation,
    and names another module of the tree imports from this one.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import AuditFinding, Severity

__all__ = ["lint_repo"]

#: ``np.random`` members that construct explicit generator/seed objects —
#: the sanctioned alternative to the hidden global stream.
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "PCG64", "MT19937", "Philox", "SFC64",
})

#: The engine registry: the module global in ``nn/engine.py`` holding the
#: current :class:`~repro.nn.engine.EngineConfig`.  It is the one
#: fingerprinted ``global``; a new score-changing setting becomes a field of
#: that value, never a global of its own.
_ENGINE_REGISTRY = "_ENGINE"

#: The store-key builders, by file: each must hash the engine configuration
#: through ``current().fingerprint()``.
_KEY_BUILDERS: Tuple[Tuple[str, str], ...] = (
    ("core/results.py", "context_fingerprint"),
    ("emulation/emulator.py", "emulation_context_fingerprint"),
)

#: Module globals exempt from the fingerprint, each with the reason the
#: exemption is sound.  A new ``global _X`` write anywhere in the tree that
#: is neither the engine registry nor listed here fails the lint.
_TOGGLE_EXEMPT: Dict[str, str] = {
    "_GRAD_ENABLED": "transient no_grad context, restored on exit; never "
                     "active across a stored training run boundary",
    "_ACTIVE": "telemetry sink; observability only, no numeric effect",
    "_PLAN": "fault-injection harness; causes retries/reschedules but "
             "never alters a successfully stored result payload",
    "_IN_WORKER": "marks an executor worker so job.crash kills it; decides "
                  "where a fault lands, never a stored result payload",
}

#: NadaConfig fields that are store-key material (hashed, directly or via
#: derived inputs, into the context/design fingerprint or the record key).
_NADA_KEY_FIELDS: Dict[str, str] = {
    "target": "selects the trace environment whose traces are hashed into "
              "the context fingerprint",
    "evaluation": "EvaluationConfig, serialized wholesale into the context "
                  "fingerprint (minus _NON_RESULT_FIELDS)",
    "seed": "campaign seed; the per-record training seed derives from it",
}

#: NadaConfig fields that are engine-/campaign-level only: they decide what
#: gets generated, scheduled or observed, never the numeric payload of a
#: stored per-seed training run.
_NADA_ENGINE_FIELDS: Dict[str, str] = {
    "num_designs": "how many designs are drawn; each design is keyed by its "
                   "own code fingerprint",
    "llm": "which model profile generates code; the code itself is the key",
    "prompt": "prompting strategy; only shapes which code gets generated",
    "use_early_stopping": "early-stopped jobs bypass the store entirely",
    "early_stopping": "early-stopped jobs bypass the store entirely",
    "bootstrap_fraction": "scheduling split for the early-stopping "
                          "bootstrap phase",
    "min_bootstrap_designs": "scheduling split for the bootstrap phase",
    "workers": "parallelism; outputs are pinned engine-independent",
    "max_retries": "fault-tolerance policy; successful payloads identical",
    "job_timeout": "fault-tolerance policy; successful payloads identical",
    "store_dir": "where records live, not what they contain",
    "telemetry_dir": "observability only",
}

#: Telemetry helpers whose disabled path must be allocation-free.
_NOOP_HELPERS = ("span", "counter", "series")


def _repo_source_root() -> Path:
    return Path(__file__).resolve().parents[2]


def _python_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*.py"))


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None


def _finding(rule: str, message: str, path: Path, root: Path,
             node: Optional[ast.AST] = None,
             severity: Severity = Severity.ERROR) -> AuditFinding:
    return AuditFinding(
        rule=rule, severity=severity, message=message,
        line=getattr(node, "lineno", 0) if node is not None else 0,
        file=str(path.relative_to(root.parent)))


# --------------------------------------------------------------------------- #
# repo.rng-discipline
# --------------------------------------------------------------------------- #
def _numpy_aliases(tree: ast.Module) -> Set[str]:
    names = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return names


def _check_rng_discipline(path: Path, tree: ast.Module,
                          root: Path) -> List[AuditFinding]:
    findings = []
    numpy_names = _numpy_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_names):
            continue
        member = func.attr
        if member == "seed":
            findings.append(_finding(
                "repo.rng-discipline",
                "np.random.seed mutates the hidden global stream shared by "
                "every caller; thread an explicit np.random.Generator",
                path, root, node))
        elif member not in _NP_RANDOM_CONSTRUCTORS:
            findings.append(_finding(
                "repo.rng-discipline",
                f"bare np.random.{member}(...) draws from the hidden global "
                "stream; use an explicitly constructed Generator",
                path, root, node))
    return findings


# --------------------------------------------------------------------------- #
# repo.store-key
# --------------------------------------------------------------------------- #
def _written_globals(tree: ast.Module) -> Iterable[Tuple[str, ast.Global]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield name, node


def _keys_engine(tree: Optional[ast.Module], name: str) -> Optional[bool]:
    """Whether function ``name`` calls ``current().fingerprint()``; None when
    the module does not define it."""
    fn = next((node for node in (tree.body if tree is not None else ())
               if isinstance(node, ast.FunctionDef) and node.name == name),
              None)
    if fn is None:
        return None
    return any(isinstance(node, ast.Call) and re.search(
                   r"(^|\.)current\(\)\.fingerprint$", ast.unparse(node.func))
               for node in ast.walk(fn))


def _unhashed_engine_fields(tree: Optional[ast.Module]) -> List[str]:
    """``EngineConfig`` fields its ``fingerprint()`` never reads."""
    for node in (tree.body if tree is not None else ()):
        if isinstance(node, ast.ClassDef) and node.name == "EngineConfig":
            fields = [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            method = next((stmt for stmt in node.body
                           if isinstance(stmt, ast.FunctionDef)
                           and stmt.name == "fingerprint"), None)
            read = {sub.attr for sub in ast.walk(method)
                    if isinstance(sub, ast.Attribute)} if method else set()
            return [name for name in fields if name not in read]
    return []


def _check_store_keys(root: Path,
                      trees: Dict[Path, ast.Module]) -> List[AuditFinding]:
    findings: List[AuditFinding] = []

    # 1. The engine: both key builders hash the one EngineConfig, whose
    #    fingerprint reads every field, and every other `global _X` write
    #    is an exempted non-numeric global.
    for relative, name in _KEY_BUILDERS:
        path = root / relative
        keyed = _keys_engine(trees.get(path), name)
        if keyed is None:
            findings.append(_finding(
                "repo.store-key",
                f"{relative} no longer defines {name}; the store-key "
                "completeness check cannot run", path, root))
        elif not keyed:
            findings.append(_finding(
                "repo.store-key",
                f"{name} must key the engine through "
                "nn.engine.current().fingerprint() (EngineConfig."
                "fingerprint), not through individual settings", path, root))
    engine_path = root / "nn" / "engine.py"
    for field in _unhashed_engine_fields(trees.get(engine_path)):
        findings.append(_finding(
            "repo.store-key",
            f"EngineConfig.{field} is not read by EngineConfig.fingerprint()"
            "; every engine setting is store-key material", engine_path,
            root))

    seen_globals: Set[str] = set()
    for path, tree in trees.items():
        for name, node in _written_globals(tree):
            if not name.startswith("_"):
                continue
            seen_globals.add(name)
            if name != _ENGINE_REGISTRY and name not in _TOGGLE_EXEMPT:
                findings.append(_finding(
                    "repo.store-key",
                    f"module global {name!r} is written via `global` but is "
                    "neither a field of the engine configuration "
                    "(repro.nn.EngineConfig) nor exempted (_TOGGLE_EXEMPT) "
                    "in staticcheck/contracts.py — classify it", path, root,
                    node))
    for name in ({_ENGINE_REGISTRY} | set(_TOGGLE_EXEMPT)) - seen_globals:
        findings.append(_finding(
            "repo.store-key",
            f"stale toggle classification: {name!r} is no longer written "
            "anywhere; remove it from staticcheck/contracts.py",
            root / "analysis" / "staticcheck" / "contracts.py", root,
            severity=Severity.WARNING))

    # 2. Config field classification (imports are safe here: core never
    #    imports analysis at module level).
    from ...core.evaluation import EvaluationConfig
    from ...core.pipeline import NadaConfig
    from ...core.results import _NON_RESULT_FIELDS

    evaluation_fields = {f.name for f in dataclasses.fields(EvaluationConfig)}
    for name in sorted(set(_NON_RESULT_FIELDS) - evaluation_fields):
        findings.append(_finding(
            "repo.store-key",
            f"_NON_RESULT_FIELDS names {name!r}, which is not an "
            "EvaluationConfig field; the allowlist is stale",
            root / "core" / "results.py", root))

    nada_fields = {f.name for f in dataclasses.fields(NadaConfig)}
    classified = set(_NADA_KEY_FIELDS) | set(_NADA_ENGINE_FIELDS)
    pipeline_path = root / "core" / "pipeline.py"
    for name in sorted(nada_fields - classified):
        findings.append(_finding(
            "repo.store-key",
            f"NadaConfig.{name} is not classified as key material or "
            "engine-only in staticcheck/contracts.py — decide and document "
            "before shipping (this is how the fast-inference key field went "
            "missing)", pipeline_path, root))
    for name in sorted(classified - nada_fields):
        findings.append(_finding(
            "repo.store-key",
            f"stale NadaConfig classification for {name!r}; the field no "
            "longer exists",
            root / "analysis" / "staticcheck" / "contracts.py", root,
            severity=Severity.WARNING))
    overlap = set(_NADA_KEY_FIELDS) & set(_NADA_ENGINE_FIELDS)
    for name in sorted(overlap):
        findings.append(_finding(
            "repo.store-key",
            f"NadaConfig.{name} is classified as both key material and "
            "engine-only", pipeline_path, root))
    return findings


# --------------------------------------------------------------------------- #
# repo.picklability
# --------------------------------------------------------------------------- #
_POOL_ENTRY_POINTS = ("run_resilient", "map_items")


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: Set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.ClassDef):
                # Methods are attribute lookups at call sites, not bare
                # names; class bodies do not create closures over locals.
                visit(child, inside_function)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested


def _check_picklability(path: Path, tree: ast.Module,
                        root: Path) -> List[AuditFinding]:
    if path.name == "parallel.py":
        # The executor's own module; its internals are exercised by the
        # tier-1 tests.
        return []
    findings = []
    nested = _nested_function_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if name not in _POOL_ENTRY_POINTS or not node.args:
            continue
        payload = node.args[0]
        if isinstance(payload, ast.Lambda):
            findings.append(_finding(
                "repo.picklability",
                f"lambda submitted to {name}(); lambdas cannot cross the "
                "process-pool boundary — use a module-level function",
                path, root, node))
        elif isinstance(payload, ast.Name) and payload.id in nested:
            findings.append(_finding(
                "repo.picklability",
                f"locally defined function {payload.id!r} submitted to "
                f"{name}(); closures cannot cross the process-pool boundary",
                path, root, node))
    return findings


# --------------------------------------------------------------------------- #
# repo.telemetry-noop
# --------------------------------------------------------------------------- #
_ALLOCATING_NODES = (ast.Call, ast.Dict, ast.List, ast.Set, ast.Tuple,
                     ast.ListComp, ast.SetComp, ast.DictComp,
                     ast.GeneratorExp, ast.JoinedStr, ast.BinOp)


def _allocates(stmt: ast.stmt) -> bool:
    return any(isinstance(node, _ALLOCATING_NODES) for node in ast.walk(stmt))


def _is_none_guard(test: ast.expr, sink_names: Set[str]) -> Optional[bool]:
    """True for ``sink is None``, False for ``sink is not None``, else None."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and test.left.id in sink_names
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return None
    if isinstance(test.ops[0], ast.Is):
        return True
    if isinstance(test.ops[0], ast.IsNot):
        return False
    return None


def _noop_helper_problem(fn: ast.FunctionDef) -> Optional[str]:
    """Why ``fn``'s disabled path is not allocation-free, or None if clean."""
    sink_names: Set[str] = set()
    body = list(fn.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]  # docstring
    for stmt in body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id == "_ACTIVE"):
            sink_names.add(stmt.targets[0].id)
            continue
        if isinstance(stmt, ast.If):
            guard = _is_none_guard(stmt.test, sink_names)
            if guard is True:
                # `if sink is None:` — this branch IS the disabled path.
                if any(_allocates(s) for s in stmt.body):
                    return ("allocates inside the disabled (`sink is None`) "
                            "branch")
                if stmt.body and isinstance(stmt.body[-1], ast.Return) \
                        and not stmt.orelse:
                    return None  # rest of the body is the enabled path
                continue
            if guard is False:
                # `if sink is not None:` — body is the enabled path.
                if any(_allocates(s) for s in stmt.orelse):
                    return "allocates in the else of `sink is not None`"
                continue
            return "guard is not a `sink is (not) None` comparison"
        if _allocates(stmt):
            return (f"line {stmt.lineno}: allocation outside the "
                    "None-guarded enabled path")
    return None


def _check_telemetry_noop(root: Path,
                          trees: Dict[Path, ast.Module]) -> List[AuditFinding]:
    path = root / "core" / "telemetry.py"
    tree = trees.get(path)
    if tree is None:
        return [AuditFinding(
            rule="repo.telemetry-noop", severity=Severity.ERROR,
            message="core/telemetry.py is missing or unparseable",
            file="repro/core/telemetry.py")]
    findings = []
    helpers = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    for name in _NOOP_HELPERS:
        fn = helpers.get(name)
        if fn is None:
            findings.append(_finding(
                "repo.telemetry-noop",
                f"module-level telemetry helper {name}() disappeared; "
                "instrumentation sites depend on it", path, root))
            continue
        problem = _noop_helper_problem(fn)
        if problem:
            findings.append(_finding(
                "repo.telemetry-noop",
                f"{name}() violates the no-op discipline: {problem}",
                path, root, fn))
    return findings


# --------------------------------------------------------------------------- #
# repo.fault-coverage
# --------------------------------------------------------------------------- #
def _check_fault_coverage(root: Path,
                          sites: Optional[frozenset] = None
                          ) -> List[AuditFinding]:
    """Every fault site must be named by at least one test file.

    A literal-substring scan over ``tests/*.py`` is deliberately simple:
    fault sites are dotted string constants, so a test that fires one
    necessarily spells it out (in a ``FaultRule``, a ``--faults`` spec or a
    ``from_spec`` string).  ``sites`` overrides :data:`FAULT_SITES` for the
    linter's own tests.
    """
    if sites is None:
        from ...core.faults import FAULT_SITES
        sites = FAULT_SITES
    try:
        tests_dir = root.parents[1] / "tests"
    except IndexError:
        return []
    if not tests_dir.is_dir():
        # Linting a synthetic source tree (the linter's own tests do this):
        # there is no test corpus to check against.
        return []
    corpus = "\n".join(p.read_text(encoding="utf-8", errors="replace")
                       for p in sorted(tests_dir.glob("*.py")))
    findings = []
    faults_path = root / "core" / "faults.py"
    for site in sorted(sites):
        if site not in corpus:
            findings.append(_finding(
                "repo.fault-coverage",
                f"fault site {site!r} is declared in FAULT_SITES but no "
                "test under tests/ names it — add a firing test so the "
                "recovery path cannot rot silently", faults_path, root))
    return findings


# --------------------------------------------------------------------------- #
# repo.unused-import
# --------------------------------------------------------------------------- #
def _module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` (``root`` is the top package)."""
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_from(trees: Dict[Path, ast.Module],
                   root: Path) -> Set[Tuple[str, str]]:
    """Every ``(module, name)`` a ``from module import name`` in the tree
    names, relative imports resolved."""
    pairs: Set[Tuple[str, str]] = set()
    for path, tree in trees.items():
        package = _module_name(path.parent / "__init__.py", root)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)
                pairs.update((module, alias.name) for alias in node.names)
    return pairs


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, in code, in string annotations and in
    ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            strings = [node.value]
        else:
            strings = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for sub in (n for root in filter(None, strings)
                    for n in ast.walk(root)):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return used


def _check_unused_imports(path: Path, tree: ast.Module, root: Path,
                          imported_from: Set[Tuple[str, str]]
                          ) -> List[AuditFinding]:
    if path.name == "__init__.py":
        return []
    module = _module_name(path, root)
    keep = _used_names(tree)
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0], alias.name)
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.asname or alias.name, alias.name)
                     for alias in node.names if alias.name != "*"]
        else:
            continue
        for name, source in bound:
            if name in keep or (module, name) in imported_from:
                continue
            findings.append(_finding(
                "repo.unused-import",
                f"{source!r} is imported but never used; delete the import "
                "(or list the name in __all__ to re-export it)",
                path, root, node))
    return findings


# --------------------------------------------------------------------------- #
def lint_repo(src_root: Optional[str] = None) -> List[AuditFinding]:
    """Lint the repository's own library code; returns all findings."""
    root = Path(src_root) if src_root else _repo_source_root()
    trees: Dict[Path, ast.Module] = {}
    findings: List[AuditFinding] = []
    for path in _python_files(root):
        tree = _parse(path)
        if tree is None:
            findings.append(_finding(
                "repo.syntax", f"{path.name} does not parse", path, root))
            continue
        trees[path] = tree

    imported_from = _imported_from(trees, root)
    for path, tree in sorted(trees.items()):
        findings.extend(_check_rng_discipline(path, tree, root))
        findings.extend(_check_picklability(path, tree, root))
        findings.extend(_check_unused_imports(path, tree, root,
                                              imported_from))
    findings.extend(_check_store_keys(root, trees))
    findings.extend(_check_telemetry_noop(root, trees))
    findings.extend(_check_fault_coverage(root))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
