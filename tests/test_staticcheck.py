"""Tests for the static design auditor and the repo contract linters.

Three layers of guarantees:

* property tests over the design-space grammar — healthy renders audit
  clean, defective renders are rejected with the expected rule family;
* lowerability cross-checks — the auditor's static verdicts must agree
  with what :func:`repro.nn.compile.plan_for` actually does;
* sandbox-hardening regressions — the ``().__class__`` escape family is
  rejected statically, the runtime getattr/setattr guards close the
  dynamic route, and ``import random`` in generated code is seeded.
"""

import numpy as np
import pytest

from repro.analysis.staticcheck import (
    LOWERABLE_ENCODERS,
    audit_design,
    lint_repo,
    predict_lowerability,
    rejection_bucket,
    run_selfcheck_corpus,
)
from repro.analysis.staticcheck.auditor import EXPECTED_DEFECT_RULES, DesignAuditor
from repro.core import telemetry
from repro.core.codegen import (
    CodeBlockError,
    compile_code_block,
    load_network_builder,
)
from repro.core.design import Design
from repro.llm.design_space import (
    NETWORK_ENCODERS,
    STATE_EXTRA_FEATURES,
    NetworkDesignSpace,
    NetworkDesignSpec,
    StateDesignSpace,
    StateDesignSpec,
)
from repro.nn.compile import lowerable_activation_names, plan_for

import ast


STATE_SPACE = StateDesignSpace()
NETWORK_SPACE = NetworkDesignSpace()

#: A grid of healthy state specs covering every family axis of the grammar:
#: all four normalization styles, dropped rows, and every extra feature.
HEALTHY_STATE_SPECS = (
    [StateDesignSpec(normalization=norm)
     for norm in ("unit", "signed", "aggressive", "mild")]
    + [StateDesignSpec(include_download_time=False),
       StateDesignSpec(include_next_sizes=False),
       StateDesignSpec(include_download_time=False, include_next_sizes=False)]
    + [StateDesignSpec(extra_features=(feature,))
       for feature in STATE_EXTRA_FEATURES]
    + [StateDesignSpec(normalization="aggressive",
                       extra_features=STATE_EXTRA_FEATURES[:3]),
       StateDesignSpec(normalization="signed",
                       extra_features=STATE_EXTRA_FEATURES[3:]),
       StateDesignSpec(normalization="mild", include_download_time=False),
       StateDesignSpec(normalization="aggressive", include_next_sizes=False),
       StateDesignSpec(normalization="signed", include_download_time=False,
                       include_next_sizes=False)]
)

#: Healthy network specs: every encoder family times a spread of lowerable
#: activations.
HEALTHY_NETWORK_SPECS = [
    NetworkDesignSpec(encoder=encoder, activation=activation, hidden_size=hidden)
    for encoder in NETWORK_ENCODERS
    for activation, hidden in (("relu", 64), ("leaky_relu", 32),
                               ("elu", 48), ("tanh", 16))
]


class TestHealthyDesignsAuditClean:
    def test_state_grid_covers_twenty_samples(self):
        assert len(HEALTHY_STATE_SPECS) >= 20

    def test_network_grid_covers_twenty_samples(self):
        assert len(HEALTHY_NETWORK_SPECS) >= 20

    @pytest.mark.parametrize("spec", HEALTHY_STATE_SPECS,
                             ids=lambda s: ",".join(s.tags))
    def test_healthy_state_designs_pass(self, spec):
        report = audit_design(STATE_SPACE.render(spec), "state")
        assert report.findings == [], report.summary()
        assert report.passed

    @pytest.mark.parametrize("spec", HEALTHY_NETWORK_SPECS,
                             ids=lambda s: ",".join(s.tags))
    def test_healthy_network_designs_pass(self, spec):
        report = audit_design(NETWORK_SPACE.render(spec), "network")
        assert report.findings == [], report.summary()
        assert report.lowerability is not None

    def test_random_healthy_samples_pass(self, rng):
        for kind, space in (("state", STATE_SPACE), ("network", NETWORK_SPACE)):
            for _ in range(25):
                sample = space.sample(rng)
                report = audit_design(sample.code, kind)
                assert report.findings == [], (sample.tags, report.summary())


class TestDefectsAreRejected:
    @pytest.mark.parametrize(("kind", "defect", "expected_rule"),
                             [(k, d, r) for (k, d), r in
                              sorted(EXPECTED_DEFECT_RULES.items())])
    def test_defect_flagged_with_expected_rule(self, rng, kind, defect,
                                               expected_rule):
        space = STATE_SPACE if kind == "state" else NETWORK_SPACE
        for _ in range(5):
            sample = space.sample(rng, defect=defect)
            report = audit_design(sample.code, kind)
            assert not report.passed, (defect, sample.code)
            assert report.has_rule(expected_rule), report.rule_ids()

    def test_selfcheck_corpus_is_green(self):
        ok, messages = run_selfcheck_corpus()
        assert ok, "\n".join(messages)


STATE_STUB = ("def state_func(bitrate_kbps_history, throughput_mbps_history,\n"
              "               download_time_s_history, buffer_size_s_history,\n"
              "               next_chunk_sizes_bytes, remaining_chunk_count,\n"
              "               total_chunk_count, bitrate_ladder_kbps):\n")


def _state_code(body: str) -> str:
    indented = "".join(f"    {line}\n" for line in body.splitlines())
    return "import numpy as np\n\n" + STATE_STUB + indented


class TestHandWrittenExemplars:
    """The auditor must catch escapes the design space never generates."""

    @pytest.mark.parametrize("body", [
        "return ().__class__.__mro__[1].__subclasses__()",
        "return (lambda: 0).__globals__",
        "x = throughput_mbps_history\nreturn x.__array_interface__",
    ])
    def test_dunder_attribute_escapes(self, body):
        report = audit_design(_state_code(body), "state")
        assert report.has_rule("sandbox.dunder-attribute")
        assert not report.passed

    def test_getattr_with_dunder_literal(self):
        report = audit_design(
            _state_code("return getattr((), '__class__')"), "state")
        assert report.has_rule("sandbox.dunder-attribute")

    def test_getattr_with_computed_name(self):
        report = audit_design(
            _state_code("name = '__cla' + 'ss__'\nreturn getattr((), name)"),
            "state")
        assert report.has_rule("sandbox.dynamic-attribute")

    @pytest.mark.parametrize("body,rule", [
        ("import os\nreturn np.zeros(3)", "sandbox.disallowed-import"),
        ("return eval('1+1') * np.ones(3)", "sandbox.denied-builtin"),
        ("global total_chunk_count\nreturn np.zeros(3)",
         "sandbox.global-state"),
        ("return undefined_helper(buffer_size_s_history)",
         "sandbox.undefined-name"),
    ])
    def test_sandbox_rules(self, body, rule):
        report = audit_design(_state_code(body), "state")
        assert report.has_rule(rule), report.rule_ids()

    @pytest.mark.parametrize("body,rule", [
        ("return np.random.rand(6, 8)", "determinism.unseeded-numpy-random"),
        ("np.random.seed(0)\nreturn np.zeros(3)", "determinism.global-seed"),
    ])
    def test_determinism_rules(self, body, rule):
        report = audit_design(_state_code(body), "state")
        assert report.has_rule(rule), report.rule_ids()
        assert not report.passed

    def test_unbounded_loop(self):
        report = audit_design(
            _state_code("while True:\n    pass\nreturn np.zeros(3)"), "state")
        assert report.has_rule("resource.unbounded-loop")

    def test_input_mutation(self):
        report = audit_design(
            _state_code("buffer_size_s_history[0] = 0.0\nreturn np.zeros(3)"),
            "state")
        assert report.has_rule("purity.input-mutation")

    def test_nonfinite_literal(self):
        report = audit_design(
            _state_code("return np.full(3, float('nan'))"), "state")
        assert report.has_rule("numeric.non-finite")

    def test_clean_handwritten_design_passes(self):
        body = ("state = np.zeros((2, 8))\n"
                "state[0] = throughput_mbps_history / 8.0\n"
                "state[1] = buffer_size_s_history / 10.0\n"
                "return state")
        report = audit_design(_state_code(body), "state")
        assert report.findings == [], report.summary()


class TestRejectionBuckets:
    def test_normalization_rules_fold_into_normalization(self):
        assert rejection_bucket("normalization.raw-bitrate") == "normalization"
        assert rejection_bucket("normalization.raw-sizes") == "normalization"

    @pytest.mark.parametrize("rule", [
        "syntax.error", "sandbox.dunder-attribute", "contract.state-rank",
        "numeric.non-finite", "determinism.global-seed",
    ])
    def test_everything_else_folds_into_compilation(self, rule):
        assert rejection_bucket(rule) == "compilation"


class TestLowerabilityAgreesWithCompiler:
    """Static verdicts must match what plan_for actually decides."""

    def _verdict_and_network(self, code):
        prediction = predict_lowerability(ast.parse(code))
        builder = load_network_builder(code)
        network = builder((6, 8), 6, rng=np.random.default_rng(0))
        return prediction, network

    @pytest.mark.parametrize("encoder", LOWERABLE_ENCODERS)
    def test_generic_encoders_compile(self, encoder):
        code = NETWORK_SPACE.render(NetworkDesignSpec(encoder=encoder,
                                                      hidden_size=24))
        prediction, network = self._verdict_and_network(code)
        assert prediction.verdict == "compiled", prediction
        assert plan_for(network) is not None

    # Every lowerable activation is covered by the healthy-spec cross-check
    # below; softmax is the one the fused kernels do not implement.
    @pytest.mark.parametrize("activation,verdict", [
        ("relu", "compiled"), ("softmax", "graph_fallback")])
    def test_pensieve_network_verdict_follows_activation(self, activation,
                                                         verdict):
        code = NETWORK_SPACE.render(NetworkDesignSpec(encoder="pensieve_conv",
                                                      activation=activation,
                                                      hidden_size=24))
        prediction, network = self._verdict_and_network(code)
        assert prediction.verdict == verdict, prediction
        assert prediction.activation == activation
        assert (plan_for(network) is not None) == (verdict == "compiled")

    @pytest.mark.parametrize("spec", HEALTHY_NETWORK_SPECS,
                             ids=lambda s: ",".join(s.tags))
    def test_healthy_specs_verdict_matches_plan_for(self, spec):
        prediction, network = self._verdict_and_network(
            NETWORK_SPACE.render(spec))
        assert prediction.fast == (plan_for(network) is not None), prediction

    def test_unlowerable_activation_falls_back(self):
        code = ("def build_network(state_shape, num_actions, rng=None):\n"
                "    return nn_library.GenericActorCritic(\n"
                "        state_shape, num_actions, hidden_sizes=(16,),\n"
                "        activation='softmax', encoder='flatten', rng=rng)\n")
        prediction, network = self._verdict_and_network(code)
        assert prediction.verdict == "graph_fallback"
        assert plan_for(network) is None

    def test_non_literal_configuration_is_unknown(self):
        code = ("def build_network(state_shape, num_actions, rng=None):\n"
                "    act = 'relu' if num_actions > 4 else 'tanh'\n"
                "    return nn_library.GenericActorCritic(\n"
                "        state_shape, num_actions, hidden_sizes=(16,),\n"
                "        activation=act, rng=rng)\n")
        prediction = predict_lowerability(ast.parse(code))
        assert prediction.verdict == "unknown"

    def test_lowerable_encoder_list_matches_constructor(self):
        from repro.abr.networks import GenericActorCritic
        for encoder in LOWERABLE_ENCODERS:
            network = GenericActorCritic((6, 8), 6, hidden_sizes=(8,),
                                         encoder=encoder,
                                         rng=np.random.default_rng(0))
            assert plan_for(network) is not None, encoder

    def test_design_space_activations_are_lowerable(self):
        # Every activation the synthetic grammar emits must stay inside the
        # compiler's vocabulary, or the "compiled" verdict would lie.
        lowerable = lowerable_activation_names()
        for spec in HEALTHY_NETWORK_SPECS:
            assert spec.activation in lowerable


class TestDesignAuditorStage:
    def test_check_returns_report(self):
        auditor = DesignAuditor()
        design = Design(kind="state", code=STATE_SPACE.render(StateDesignSpec()))
        passed, report = auditor.check(design)
        assert passed and report.passed

    def test_reject_on_warnings_toggle(self):
        # A GeneratorExp over itertools.count draws a WARNING, not an ERROR.
        code = _state_code("import itertools\n"
                           "gen = (i for i in itertools.count())\n"
                           "return np.zeros(3)")
        report = audit_design(code, "state")
        assert report.passed and report.warnings
        strict = DesignAuditor(reject_on_warnings=True)
        design = Design(kind="state", code=code)
        passed, _ = strict.check(design)
        assert not passed

    def test_telemetry_counters_emitted(self):
        telemetry.disable()
        sink = telemetry.enable()
        try:
            auditor = DesignAuditor()
            auditor.audit(STATE_SPACE.render(StateDesignSpec()), "state")
            auditor.audit(_state_code("return np.random.rand(3)"), "state")
            names = [event.name for event in sink.events]
        finally:
            telemetry.disable()
        assert "audit.pass" in names
        assert "audit.reject" in names
        assert "audit.rule.determinism.unseeded-numpy-random" in names


class TestContractLinter:
    def test_repo_is_clean(self):
        findings = lint_repo()
        errors = [f for f in findings if f.severity == "error"]
        assert errors == [], "\n".join(f.render() for f in errors)

    def test_violations_are_detected(self, tmp_path):
        # A synthetic source tree violating the RNG, picklability,
        # store-key and unused-import contracts; the linter must flag each.
        bad = tmp_path / "repro"
        (bad / "core").mkdir(parents=True)
        (bad / "core" / "busted.py").write_text(
            "import os\n"
            "from typing import Dict\n\n"
            "import numpy as np\n"
            "from .parallel import ParallelConfig, run_resilient\n\n"
            "__all__ = ['ParallelConfig']\n\n"
            "_TURBO = False\n"
            "_SEEN: 'Dict[str, int]' = {}\n\n\n"
            "def draw():\n"
            "    return np.random.rand(4)\n\n\n"
            "def enable_turbo():\n"
            "    global _TURBO\n"
            "    _TURBO = True\n\n\n"
            "def fan_out(items):\n"
            "    def job(item):\n"
            "        return item + 1\n"
            "    np.random.seed(0)\n"
            "    run_resilient(job, items)\n"
            "    run_resilient(lambda item, attempt: item, items)\n\n\n"
            "def sweep(scheduler, items):\n"
            "    def sample(item):\n"
            "        return item * 2\n"
            "    scheduler.map_items(sample, items)\n"
            "    scheduler.map_items(lambda item: item, items)\n")
        # A key builder hashing one engine setting instead of the engine.
        (bad / "core" / "results.py").write_text(
            "from .. import nn\n\n\n"
            "def context_fingerprint(trainer, environment=''):\n"
            "    return str(nn.get_default_dtype())\n")
        findings = lint_repo(str(bad))
        rules = {f.rule for f in findings}
        assert "repo.rng-discipline" in rules
        assert "repo.picklability" in rules
        pickle_messages = [f.message for f in findings
                           if f.rule == "repo.picklability"]
        for entry in ("run_resilient", "map_items"):
            assert any(m.startswith(f"lambda submitted to {entry}()")
                       for m in pickle_messages), entry
            assert any(m.startswith("locally defined function")
                       and f"submitted to {entry}()" in m
                       for m in pickle_messages), entry
        rng_messages = [f.message for f in findings
                        if f.rule == "repo.rng-discipline"]
        assert any("np.random.rand" in m for m in rng_messages)
        assert any("np.random.seed" in m for m in rng_messages)
        key_messages = [f.message for f in findings
                        if f.rule == "repo.store-key"]
        assert any(m.startswith("module global '_TURBO' is written via "
                                "`global` but is neither a field of the "
                                "engine configuration") for m in key_messages)
        assert any(m.startswith("context_fingerprint must key the engine "
                                "through nn.engine.current().fingerprint()")
                   for m in key_messages)
        assert any(m.startswith("emulation/emulator.py no longer defines "
                                "emulation_context_fingerprint")
                   for m in key_messages)
        unused = [f.message for f in findings
                  if f.rule == "repo.unused-import"]
        assert unused == ["'os' is imported but never used; delete the "
                          "import (or list the name in __all__ to "
                          "re-export it)"]

    def test_import_another_module_takes_is_kept(self, tmp_path):
        tree = tmp_path / "repro"
        (tree / "core").mkdir(parents=True)
        (tree / "core" / "paths.py").write_text(
            "from pathlib import Path, PurePath\n")
        (tree / "core" / "user.py").write_text(
            "from .paths import Path\n\n\n"
            "def home():\n"
            "    return Path.home()\n")
        messages = [f.message for f in lint_repo(str(tree))
                    if f.rule == "repo.unused-import"]
        assert len(messages) == 1 and messages[0].startswith("'PurePath'")

    def test_engine_fingerprint_must_read_every_field(self, tmp_path):
        tree = tmp_path / "repro"
        (tree / "nn").mkdir(parents=True)
        (tree / "nn" / "engine.py").write_text(
            "class EngineConfig:\n"
            "    dtype: str = 'float64'\n"
            "    compile: bool = True\n"
            "    turbo: bool = False\n\n"
            "    def fingerprint(self):\n"
            "        return f'{self.dtype}|{self.compile}'.encode()\n")
        messages = [f.message for f in lint_repo(str(tree))
                    if f.rule == "repo.store-key"]
        assert any(m.startswith("EngineConfig.turbo is not read by "
                                "EngineConfig.fingerprint()")
                   for m in messages)
        assert not any("EngineConfig.dtype" in m or "EngineConfig.compile" in m
                       for m in messages)

    def test_fault_coverage_all_declared_sites_are_tested(self):
        # Every site in FAULT_SITES must be named by at least one test; a
        # new injection site without a firing test is a lint error.
        from repro.analysis.staticcheck import contracts
        assert contracts._check_fault_coverage(
            contracts._repo_source_root()) == []

    def test_fault_coverage_flags_untested_site(self):
        from repro.analysis.staticcheck import contracts
        # Built at runtime so this very file does not "cover" the site.
        site = "rpc." + "never_tested"
        findings = contracts._check_fault_coverage(
            contracts._repo_source_root(), sites=frozenset({site}))
        assert len(findings) == 1
        assert findings[0].rule == "repo.fault-coverage"
        assert findings[0].severity == "error"
        assert site in findings[0].message


class TestSandboxHardening:
    """Runtime regressions for the codegen escape fixes."""

    def test_plain_dunder_chain_rejected_statically(self):
        # `().__class__` uses attribute syntax, which only the auditor can
        # stop — this is the canonical escape the audit stage exists for.
        report = audit_design(
            _state_code("return ().__class__.__mro__[1].__subclasses__()"),
            "state")
        assert not report.passed

    def test_runtime_getattr_dunder_blocked(self):
        fn = compile_code_block(
            "def probe():\n    return getattr((), '__cla' + 'ss__')\n",
            "probe")
        with pytest.raises(CodeBlockError, match="underscore-prefixed"):
            fn()

    def test_runtime_setattr_and_hasattr_blocked(self):
        fn = compile_code_block(
            "def probe(obj):\n"
            "    if hasattr(obj, '_' + 'secret'):\n"
            "        setattr(obj, '_' + 'secret', 1)\n",
            "probe")
        with pytest.raises(CodeBlockError):
            fn(object())

    def test_runtime_getattr_non_string_blocked(self):
        fn = compile_code_block(
            "def probe():\n    return getattr((), 123)\n", "probe")
        with pytest.raises(CodeBlockError, match="non-string"):
            fn()

    def test_legitimate_getattr_still_works(self):
        fn = compile_code_block(
            "import numpy as np\n"
            "def probe():\n"
            "    return getattr(np, 'sum')(np.ones(4))\n", "probe")
        assert fn() == 4.0

    def test_generated_random_is_seeded_and_reproducible(self):
        code = ("import random\n"
                "def draw():\n"
                "    return [random.random() for _ in range(5)]\n")
        first = compile_code_block(code, "draw")()
        second = compile_code_block(code, "draw")()
        assert first == second

    def test_generated_random_seed_and_random_class_work(self):
        code = ("import random\n"
                "def draw():\n"
                "    random.seed(42)\n"
                "    explicit = random.Random(7).random()\n"
                "    return explicit, random.random()\n")
        assert compile_code_block(code, "draw")() == \
            compile_code_block(code, "draw")()

    def test_generated_random_private_access_blocked(self):
        fn = compile_code_block(
            "import random\n"
            "def probe():\n    return random._instance\n", "probe")
        with pytest.raises(CodeBlockError):
            fn()
