"""AST rule implementations behind the design auditor.

Each ``check_*`` function walks a parsed code block and returns
:class:`~repro.analysis.staticcheck.findings.AuditFinding`s.  The functions
share a :class:`CodeContext` that pre-computes name bindings and import
aliases once per block, so individual rules stay small and, importantly,
conservative: a rule only fires on patterns it can *prove* from the text
(bare aliases, literal attribute names, constant loop conditions), never on
heuristics that could reject healthy designs.

Rule families implemented here:

``sandbox``
    Escape and containment: disallowed imports, dunder/underscore attribute
    access (``().__class__`` needs no ``getattr`` so only static analysis
    can stop it), dynamic ``getattr``/``setattr`` names, 3-argument
    ``type``, ``global``/``nonlocal``, denied builtins, names that resolve
    to nothing in the sandbox namespace, and — for network code — attributes
    the ``nn_library`` facade does not expose.
``determinism``
    Module-level ``np.random`` draws and unseeded generator construction,
    which would silently break the content-addressed result store's
    bit-exactness contract; stdlib ``random`` use is a warning because the
    sandbox injects a seeded stand-in (see :mod:`repro.core.codegen`).
``resource``
    ``while True`` without a reachable exit and unbounded
    ``itertools.count/cycle/repeat`` consumed by loops, comprehensions or
    collection constructors.
``purity``
    Mutation of the input history arrays (subscript stores, augmented
    assignment, in-place ndarray methods, ``out=`` aliasing) through any
    assignment-chain alias, including ``np.asarray`` views.
``normalization``
    Raw (undivided) bitrate/chunk-size rows — statically visible instances
    of the defects the paper's fuzzing normalization check targets.
``numeric``
    Non-finite literals (``float('nan')``, ``np.inf``, ``math.nan``) that
    the :class:`~repro.abr.state.StateFunction` wrapper would reject at
    run time.
``contract``
    The code-block contract: expected function present exactly once, not
    returning ``None``, state rank ≤ 2, plausible signature.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from ...abr.networks import NETWORK_BUILDER_NAME
from ...abr.state import STATE_FUNCTION_NAME, STATE_FUNCTION_PARAMETERS
from ...core.codegen import (ALLOWED_IMPORT_ROOTS, NETWORK_GLOBAL_NAMES,
                             NN_LIBRARY_ATTRIBUTES, SAFE_BUILTIN_NAMES,
                             SANDBOX_GLOBAL_NAMES)
from .findings import AuditFinding, Severity

__all__ = ["CodeContext", "run_all_rules", "NETWORK_BUILDER_PARAMETERS"]

#: Parameters of the network-builder contract.
NETWORK_BUILDER_PARAMETERS = ("state_shape", "num_actions", "rng")

#: Builtins that are absent from the sandbox and whose presence signals an
#: escape or introspection attempt rather than an honest undefined name.
_DENIED_BUILTINS = frozenset({
    "eval", "exec", "compile", "__import__", "globals", "locals", "vars",
    "open", "input", "breakpoint", "exit", "quit", "help", "dir", "id",
    "memoryview", "delattr", "__build_class__",
})

#: Builtins whose attribute-name argument must be a literal, safe string.
_DYNAMIC_ATTR_BUILTINS = frozenset({"getattr", "setattr", "hasattr", "delattr"})

#: ndarray methods that mutate the array in place.
_MUTATING_ARRAY_METHODS = frozenset({
    "fill", "sort", "partition", "put", "resize", "itemset", "setfield",
    "byteswap", "setflags",
})

#: numpy module-level functions whose *first argument* is written in place.
_MUTATING_NUMPY_FUNCTIONS = frozenset({"copyto", "put", "place", "putmask"})

#: ``np.random`` members that construct generators rather than draw from the
#: hidden global stream (seeded construction is fine; unseeded is flagged).
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "PCG64", "MT19937", "Philox", "SFC64",
})

#: numpy attributes that evaluate to non-finite floats.
_NUMPY_NONFINITE_ATTRS = frozenset({
    "nan", "NaN", "NAN", "inf", "Inf", "Infinity", "infty", "NINF", "PINF",
})

#: Collection constructors that eagerly drain their (possibly infinite)
#: iterable argument.
_EAGER_CONSUMERS = frozenset({"list", "tuple", "set", "dict", "sorted",
                              "sum", "max", "min"})

#: The input parameters the normalization rules watch, with the rule that
#: fires when a bare (undivided) alias of them becomes a state row.
_RAW_FEATURE_RULES = {
    "bitrate_kbps_history": ("normalization.raw-bitrate",
                             "bitrates are in kbps (thousands); divide by the "
                             "ladder top before using them as a feature"),
    "next_chunk_sizes_bytes": ("normalization.raw-sizes",
                               "chunk sizes are in bytes (millions); divide "
                               "by 1e6 before using them as a feature"),
}


class CodeContext:
    """Pre-computed bindings and aliases for one parsed code block."""

    def __init__(self, tree: ast.Module, kind: str) -> None:
        if kind not in ("state", "network"):
            raise ValueError(f"unknown design kind {kind!r}")
        self.tree = tree
        self.kind = kind
        self.expected_name = (STATE_FUNCTION_NAME if kind == "state"
                              else NETWORK_BUILDER_NAME)
        self.parameters = (STATE_FUNCTION_PARAMETERS if kind == "state"
                           else NETWORK_BUILDER_PARAMETERS)
        self.sandbox_names: Set[str] = set(SANDBOX_GLOBAL_NAMES)
        if kind == "network":
            self.sandbox_names.update(NETWORK_GLOBAL_NAMES)
        #: Names statically bound anywhere in the block (over-approximate).
        self.defined: Set[str] = set()
        #: Names referring to the numpy module (``np``/``numpy``/aliases).
        self.numpy_names: Set[str] = {"np", "numpy"}
        #: Names referring to the ``numpy.random`` module itself.
        self.numpy_random_names: Set[str] = set()
        #: Names imported *from* ``numpy.random`` (direct draw functions).
        self.numpy_random_members: Set[str] = set()
        #: Names referring to the stdlib ``random`` module.
        self.random_names: Set[str] = set()
        #: Names imported *from* ``random``.
        self.random_members: Set[str] = set()
        #: Names referring to the ``itertools`` module.
        self.itertools_names: Set[str] = set()
        #: Local name -> itertools member for unbounded iterator factories.
        self.itertools_unbounded: Dict[str, str] = {}
        self._collect_bindings()
        #: Parameter name -> set of local aliases (the parameter itself plus
        #: everything assigned from it, directly or through ``np.asarray``).
        self.input_aliases: Dict[str, Set[str]] = self._collect_input_aliases()

    # ------------------------------------------------------------------ #
    def _collect_bindings(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.defined.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                self.defined.add(node.name)
            elif isinstance(node, ast.arg):
                self.defined.add(node.arg)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.defined.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self._record_import(alias)
            elif isinstance(node, ast.ImportFrom):
                self._record_import_from(node)

    def _record_import(self, alias: ast.alias) -> None:
        root = alias.name.split(".")[0]
        binding = alias.asname or root
        self.defined.add(binding)
        if root == "numpy":
            if alias.asname and alias.name.startswith("numpy.random"):
                self.numpy_random_names.add(binding)
            else:
                self.numpy_names.add(binding)
        elif alias.name == "random":
            self.random_names.add(binding)
        elif alias.name == "itertools":
            self.itertools_names.add(binding)

    def _record_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            binding = alias.asname or alias.name
            self.defined.add(binding)
            if module == "numpy" and alias.name == "random":
                self.numpy_random_names.add(binding)
            elif module.startswith("numpy.random"):
                self.numpy_random_members.add(binding)
            elif module == "random":
                self.random_members.add(binding)
            elif module == "itertools":
                if alias.name in ("count", "cycle", "repeat"):
                    self.itertools_unbounded[binding] = alias.name
                self.itertools_names.discard(binding)

    # ------------------------------------------------------------------ #
    def _collect_input_aliases(self) -> Dict[str, Set[str]]:
        aliases: Dict[str, Set[str]] = {p: {p} for p in self.parameters}
        reverse: Dict[str, str] = {p: p for p in self.parameters}

        def source_param(expr: ast.expr) -> Optional[str]:
            """The input parameter ``expr`` aliases, if provable."""
            if isinstance(expr, ast.Name):
                return reverse.get(expr.id)
            if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
                # np.asarray(x, ...) and friends return x itself when the
                # dtype already matches — treat the result as an alias.
                base = expr.func.value
                if (isinstance(base, ast.Name) and base.id in self.numpy_names
                        and expr.func.attr in ("asarray", "asanyarray",
                                               "ascontiguousarray", "asfarray",
                                               "atleast_1d", "atleast_2d")
                        and expr.args):
                    return source_param(expr.args[0])
            return None

        # Two passes reach aliases-of-aliases in either source order.
        for _ in range(2):
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.Assign):
                    continue
                param = source_param(node.value)
                if param is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[param].add(target.id)
                        reverse[target.id] = param
        return aliases

    # ------------------------------------------------------------------ #
    def alias_of(self, expr: ast.expr) -> Optional[str]:
        """The input parameter a bare ``Name`` expression aliases, if any."""
        if isinstance(expr, ast.Name):
            for param, names in self.input_aliases.items():
                if expr.id in names:
                    return param
        return None

    def is_numpy_random(self, expr: ast.expr) -> bool:
        """Whether ``expr`` refers to the ``numpy.random`` module."""
        if isinstance(expr, ast.Name):
            return expr.id in self.numpy_random_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "random"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in self.numpy_names)


def _finding(rule: str, severity: Severity, message: str,
             node: ast.AST) -> AuditFinding:
    return AuditFinding(rule=rule, severity=severity, message=message,
                        line=getattr(node, "lineno", 0))


# --------------------------------------------------------------------------- #
# sandbox family
# --------------------------------------------------------------------------- #
def check_imports(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in ALLOWED_IMPORT_ROOTS:
                    findings.append(_finding(
                        "sandbox.disallowed-import", Severity.ERROR,
                        f"import of {alias.name!r} is not allowed "
                        f"(allowed roots: {sorted(ALLOWED_IMPORT_ROOTS)})",
                        node))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                findings.append(_finding(
                    "sandbox.relative-import", Severity.ERROR,
                    "relative imports are not allowed in generated code",
                    node))
                continue
            root = (node.module or "").split(".")[0]
            if root not in ALLOWED_IMPORT_ROOTS:
                findings.append(_finding(
                    "sandbox.disallowed-import", Severity.ERROR,
                    f"import from {node.module!r} is not allowed "
                    f"(allowed roots: {sorted(ALLOWED_IMPORT_ROOTS)})",
                    node))
    return findings


def check_attribute_access(ctx: CodeContext) -> List[AuditFinding]:
    """Dunder/underscore attributes — the ``().__class__`` escape family."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr.startswith("__"):
            findings.append(_finding(
                "sandbox.dunder-attribute", Severity.ERROR,
                f"dunder attribute access ({node.attr!r}) can escape the "
                "sandbox and is rejected statically", node))
        elif node.attr.startswith("_"):
            findings.append(_finding(
                "sandbox.private-attribute", Severity.WARNING,
                f"access to private attribute {node.attr!r}", node))
    return findings


def check_dynamic_attributes(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _DYNAMIC_ATTR_BUILTINS):
            continue
        if len(node.args) < 2:
            continue
        name_arg = node.args[1]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            findings.append(_finding(
                "sandbox.dynamic-attribute", Severity.ERROR,
                f"{node.func.id} with a non-literal attribute name cannot be "
                "audited and is rejected", node))
        elif name_arg.value.startswith("_"):
            findings.append(_finding(
                "sandbox.dunder-attribute", Severity.ERROR,
                f"{node.func.id}({name_arg.value!r}) reaches an "
                "underscore-prefixed attribute", node))
    return findings


def check_denied_builtins(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in _DENIED_BUILTINS
                and node.id not in ctx.defined):
            findings.append(_finding(
                "sandbox.denied-builtin", Severity.ERROR,
                f"{node.id!r} is not available in the sandbox", node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type" and len(node.args) >= 3):
            findings.append(_finding(
                "sandbox.dynamic-type", Severity.ERROR,
                "three-argument type() creates classes dynamically and is "
                "rejected", node))
    return findings


def check_global_state(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            keyword = "global" if isinstance(node, ast.Global) else "nonlocal"
            findings.append(_finding(
                "sandbox.global-state", Severity.ERROR,
                f"{keyword} statements are not allowed in generated code",
                node))
    return findings


def check_undefined_names(ctx: CodeContext) -> List[AuditFinding]:
    """Names that resolve to nothing in the sandbox namespace.

    The binding set is over-approximate (any static binding anywhere in the
    block counts), so a finding here means the name cannot possibly resolve
    — the defect the synthetic LLM's ``runtime`` state designs exhibit.
    """
    allowed = (ctx.defined | ctx.sandbox_names | set(SAFE_BUILTIN_NAMES)
               | _DENIED_BUILTINS)
    findings = []
    seen: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in allowed and node.id not in seen):
            seen.add(node.id)
            findings.append(_finding(
                "sandbox.undefined-name", Severity.ERROR,
                f"name {node.id!r} is never assigned and does not exist in "
                "the sandbox namespace", node))
    return findings


def check_nn_library_attributes(ctx: CodeContext) -> List[AuditFinding]:
    if ctx.kind != "network":
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "nn_library"
                and node.attr not in NN_LIBRARY_ATTRIBUTES):
            findings.append(_finding(
                "sandbox.unknown-nn-attribute", Severity.ERROR,
                f"nn_library has no attribute {node.attr!r} "
                f"(available: {', '.join(NN_LIBRARY_ATTRIBUTES)})", node))
    return findings


# --------------------------------------------------------------------------- #
# determinism family
# --------------------------------------------------------------------------- #
def check_determinism(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and ctx.is_numpy_random(func.value):
            member = func.attr
            if member == "seed":
                findings.append(_finding(
                    "determinism.global-seed", Severity.ERROR,
                    "np.random.seed mutates hidden global RNG state shared "
                    "with the harness", node))
            elif member in _NP_RANDOM_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    findings.append(_finding(
                        "determinism.unseeded-numpy-random", Severity.ERROR,
                        f"np.random.{member}() without a seed draws entropy "
                        "from the OS and breaks result-store bit-exactness",
                        node))
            else:
                findings.append(_finding(
                    "determinism.unseeded-numpy-random", Severity.ERROR,
                    f"module-level np.random.{member}() uses the hidden "
                    "global stream; results would not be reproducible", node))
        elif isinstance(func, ast.Name) and func.id in ctx.numpy_random_members:
            findings.append(_finding(
                "determinism.unseeded-numpy-random", Severity.ERROR,
                f"{func.id}() imported from numpy.random draws from the "
                "hidden global stream", node))
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ctx.random_names):
            member = func.attr
            if member == "Random":
                if not node.args and not node.keywords:
                    findings.append(_finding(
                        "determinism.unseeded-random", Severity.WARNING,
                        "random.Random() without a seed; pass an explicit "
                        "seed", node))
            elif member != "seed":
                findings.append(_finding(
                    "determinism.module-random", Severity.WARNING,
                    f"module-level random.{member}(); deterministic here "
                    "only because the sandbox injects a seeded instance",
                    node))
        elif isinstance(func, ast.Name) and func.id in ctx.random_members:
            findings.append(_finding(
                "determinism.module-random", Severity.WARNING,
                f"{func.id}() imported from random draws from module-level "
                "state; prefer an explicit random.Random(seed)", node))
    return findings


# --------------------------------------------------------------------------- #
# resource family
# --------------------------------------------------------------------------- #
def _loop_exits(loop) -> bool:
    """Whether the loop body contains a reachable break/return/raise."""

    def scan(stmts: Sequence[ast.stmt], nested_loop: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Break) and not nested_loop:
                return True
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return True
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if scan(stmt.body, True) or scan(stmt.orelse, True):
                    return True
            elif isinstance(stmt, ast.If):
                if scan(stmt.body, nested_loop) or scan(stmt.orelse,
                                                        nested_loop):
                    return True
            elif isinstance(stmt, ast.Try):
                blocks = [stmt.body, stmt.orelse, stmt.finalbody]
                blocks.extend(handler.body for handler in stmt.handlers)
                if any(scan(block, nested_loop) for block in blocks):
                    return True
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                if scan(stmt.body, nested_loop):
                    return True
        return False

    return scan(loop.body, False)


def _unbounded_factory(ctx: CodeContext, expr: ast.expr) -> Optional[str]:
    """The itertools factory name if ``expr`` builds an infinite iterator."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    member: Optional[str] = None
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ctx.itertools_names):
        member = func.attr
    elif isinstance(func, ast.Name):
        member = ctx.itertools_unbounded.get(func.id)
    if member in ("count", "cycle"):
        return member
    if member == "repeat":
        bounded = (len(expr.args) >= 2
                   or any(kw.arg == "times" for kw in expr.keywords))
        if not bounded:
            return member
    return None


def check_resource_bounds(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.While):
            constant_true = (isinstance(node.test, ast.Constant)
                             and bool(node.test.value))
            if constant_true and not _loop_exits(node):
                findings.append(_finding(
                    "resource.unbounded-loop", Severity.ERROR,
                    "while loop with a constant-true condition and no "
                    "break/return/raise never terminates", node))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            member = _unbounded_factory(ctx, node.iter)
            if member and not _loop_exits(node):
                findings.append(_finding(
                    "resource.unbounded-iterator", Severity.ERROR,
                    f"for loop over itertools.{member}(...) has no exit",
                    node))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                member = _unbounded_factory(ctx, generator.iter)
                if member:
                    severity = (Severity.WARNING
                                if isinstance(node, ast.GeneratorExp)
                                else Severity.ERROR)
                    findings.append(_finding(
                        "resource.unbounded-iterator", severity,
                        f"comprehension over itertools.{member}(...) grows "
                        "without bound", node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EAGER_CONSUMERS):
            for arg in node.args:
                member = _unbounded_factory(ctx, arg)
                if member:
                    findings.append(_finding(
                        "resource.unbounded-iterator", Severity.ERROR,
                        f"{node.func.id}() drains the infinite iterator "
                        f"itertools.{member}(...)", node))
    return findings


# --------------------------------------------------------------------------- #
# purity family (state designs)
# --------------------------------------------------------------------------- #
def check_purity(ctx: CodeContext) -> List[AuditFinding]:
    if ctx.kind != "state":
        return []
    findings = []

    def mutation(node: ast.AST, param: str, how: str) -> AuditFinding:
        return _finding(
            "purity.input-mutation", Severity.ERROR,
            f"{how} mutates the input history array {param!r} "
            "(np.asarray returns a view; the simulator reuses these "
            "buffers across steps)", node)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    param = ctx.alias_of(target.value)
                    if param:
                        findings.append(mutation(node, param,
                                                 "subscript assignment"))
        elif isinstance(node, ast.AugAssign):
            target = node.target
            base = target.value if isinstance(target, ast.Subscript) else target
            param = ctx.alias_of(base)
            if param:
                findings.append(mutation(node, param, "augmented assignment"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                param = ctx.alias_of(func.value)
                if param and func.attr in _MUTATING_ARRAY_METHODS:
                    findings.append(mutation(node, param,
                                             f".{func.attr}()"))
                if (isinstance(func.value, ast.Name)
                        and func.value.id in ctx.numpy_names
                        and func.attr in _MUTATING_NUMPY_FUNCTIONS
                        and node.args):
                    param = ctx.alias_of(node.args[0])
                    if param:
                        findings.append(mutation(node, param,
                                                 f"np.{func.attr}()"))
            for keyword in node.keywords:
                if keyword.arg == "out":
                    param = ctx.alias_of(keyword.value)
                    if param:
                        findings.append(mutation(node, param, "out= keyword"))
    return findings


# --------------------------------------------------------------------------- #
# normalization family (state designs)
# --------------------------------------------------------------------------- #
def _bare_alias(ctx: CodeContext, expr: ast.expr) -> Optional[str]:
    """The watched parameter when ``expr`` is an undivided alias of it."""
    target = expr
    if isinstance(target, ast.Subscript):
        target = target.value
    param = ctx.alias_of(target)
    if param in _RAW_FEATURE_RULES:
        return param
    return None


def check_normalization(ctx: CodeContext) -> List[AuditFinding]:
    if ctx.kind != "state":
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        candidates: List[ast.expr] = []
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append" and len(node.args) == 1):
            candidates.append(node.args[0])
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Subscript) for t in node.targets):
                candidates.append(node.value)
        for expr in candidates:
            param = _bare_alias(ctx, expr)
            if param:
                rule, hint = _RAW_FEATURE_RULES[param]
                findings.append(_finding(
                    rule, Severity.ERROR,
                    f"raw (undivided) {param} used as a state feature; "
                    f"{hint}", node))
    return findings


# --------------------------------------------------------------------------- #
# numeric family
# --------------------------------------------------------------------------- #
def _is_nonfinite_float_call(node: ast.Call) -> bool:
    if not (isinstance(node.func, ast.Name) and node.func.id == "float"
            and len(node.args) == 1):
        return False
    arg = node.args[0]
    if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
        return False
    text = arg.value.strip().lower().lstrip("+-")
    return text in ("nan", "inf", "infinity")


def check_nonfinite(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _is_nonfinite_float_call(node):
            findings.append(_finding(
                "numeric.non-finite", Severity.ERROR,
                f"non-finite literal float({node.args[0].value!r}); the "
                "state validator rejects non-finite features at run time",
                node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            if not isinstance(base, ast.Name):
                continue
            if ((base.id in ctx.numpy_names
                    and node.attr in _NUMPY_NONFINITE_ATTRS)
                    or (base.id == "math" and node.attr in ("nan", "inf"))):
                findings.append(_finding(
                    "numeric.non-finite", Severity.ERROR,
                    f"non-finite constant {base.id}.{node.attr}", node))
    return findings


# --------------------------------------------------------------------------- #
# contract family
# --------------------------------------------------------------------------- #
def check_contract(ctx: CodeContext) -> List[AuditFinding]:
    findings = []
    definitions = [node for node in ctx.tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == ctx.expected_name]
    if not definitions:
        findings.append(AuditFinding(
            rule="contract.missing-function", severity=Severity.ERROR,
            message=f"code block does not define {ctx.expected_name!r} at "
                    "module level", line=1))
        return findings
    if len(definitions) > 1:
        findings.append(_finding(
            "contract.redefinition", Severity.ERROR,
            f"{ctx.expected_name!r} is defined {len(definitions)} times; the "
            "last definition silently wins", definitions[-1]))

    last = definitions[-1]
    positional = len(last.args.args) + len(last.args.posonlyargs)
    if ctx.kind == "state" and positional != len(ctx.parameters):
        findings.append(_finding(
            "contract.signature", Severity.ERROR,
            f"{ctx.expected_name} takes {positional} positional parameters, "
            f"the contract has {len(ctx.parameters)}", last))
    elif ctx.kind == "network" and positional < 2:
        findings.append(_finding(
            "contract.signature", Severity.ERROR,
            f"{ctx.expected_name} must accept at least (state_shape, "
            "num_actions)", last))

    for definition in definitions:
        for node in ast.walk(definition):
            if isinstance(node, ast.Return):
                value = node.value
                if value is None or (isinstance(value, ast.Constant)
                                     and value.value is None):
                    findings.append(_finding(
                        "contract.returns-none", Severity.ERROR,
                        f"{ctx.expected_name} returns None on at least one "
                        "path", node))

    if ctx.kind == "state":
        findings.extend(_check_state_rank(ctx))
    return findings


def _check_state_rank(ctx: CodeContext) -> List[AuditFinding]:
    """Reshapes that provably push the state beyond 2 dimensions."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            continue
        rank: Optional[int] = None
        if len(node.args) == 1 and isinstance(node.args[0], (ast.Tuple,
                                                             ast.List)):
            rank = len(node.args[0].elts)
        elif len(node.args) > 1:
            rank = len(node.args)
        if rank is not None and rank > 2:
            findings.append(_finding(
                "contract.state-rank", Severity.ERROR,
                f"reshape to {rank} dimensions; the state contract allows "
                "at most 2 (the StateFunction wrapper rejects higher ranks)",
                node))
    return findings


# --------------------------------------------------------------------------- #
#: All rule checks, in report order.
_ALL_CHECKS = (
    check_imports,
    check_attribute_access,
    check_dynamic_attributes,
    check_denied_builtins,
    check_global_state,
    check_undefined_names,
    check_nn_library_attributes,
    check_determinism,
    check_resource_bounds,
    check_purity,
    check_normalization,
    check_nonfinite,
    check_contract,
)


def run_all_rules(ctx: CodeContext) -> List[AuditFinding]:
    """Run every rule family over ``ctx`` and return the combined findings."""
    findings: List[AuditFinding] = []
    for check in _ALL_CHECKS:
        findings.extend(check(ctx))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
