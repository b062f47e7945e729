"""Tests for the pre-check filters and the design generator."""

import numpy as np
import pytest

from repro.core import (
    CandidatePool,
    CompilationCheck,
    Design,
    DesignGenerator,
    DesignKind,
    DesignStatus,
    FilterPipeline,
    GenerationConfig,
    NormalizationCheck,
    PromptConfig,
)
from repro.core.filters import random_observation
from repro.llm import ChatMessage, Completion, NetworkDesignSpace, NetworkDesignSpec, \
    StateDesignSpace, StateDesignSpec, SyntheticLLM


GOOD_STATE = StateDesignSpace().render(StateDesignSpec())
RAW_BYTES_STATE = StateDesignSpace().render(StateDesignSpec(defect="raw_sizes"))
BROKEN_STATE = StateDesignSpace().render(StateDesignSpec(defect="syntax"))
RUNTIME_ERROR_STATE = StateDesignSpace().render(StateDesignSpec(defect="runtime"))
GOOD_NETWORK = NetworkDesignSpace().render(NetworkDesignSpec(hidden_size=32))
BROKEN_NETWORK = NetworkDesignSpace().render(NetworkDesignSpec(defect="runtime"))


class TestRandomObservation:
    def test_fields_are_plausible(self, rng):
        obs = random_observation(rng)
        assert obs.throughput_mbps_history.shape == (8,)
        assert np.all(obs.throughput_mbps_history > 0)
        assert 0 < obs.remaining_chunks <= obs.total_chunks
        assert obs.next_chunk_sizes_bytes.shape == (6,)

    def test_randomness_covers_wide_range(self, rng):
        maxima = [random_observation(rng).throughput_mbps_history.max()
                  for _ in range(30)]
        assert max(maxima) > 50.0  # includes 4G/5G-like regimes


class TestCompilationCheck:
    def test_good_state_passes(self):
        result = CompilationCheck().check(Design(kind="state", code=GOOD_STATE))
        assert result.passed

    def test_syntax_error_fails(self):
        result = CompilationCheck().check(Design(kind="state", code=BROKEN_STATE))
        assert not result.passed
        assert "syntax" in result.reason.lower()

    def test_runtime_error_fails(self):
        result = CompilationCheck().check(Design(kind="state",
                                                 code=RUNTIME_ERROR_STATE))
        assert not result.passed

    def test_good_network_passes(self):
        result = CompilationCheck().check(Design(kind="network", code=GOOD_NETWORK))
        assert result.passed

    def test_broken_network_fails(self):
        result = CompilationCheck().check(Design(kind="network", code=BROKEN_NETWORK))
        assert not result.passed

    def test_network_returning_none_fails(self):
        code = "def build_network(state_shape, num_actions, rng=None):\n    return None"
        result = CompilationCheck().check(Design(kind="network", code=code))
        assert not result.passed

    def test_network_with_wrong_action_count_fails(self):
        code = ("def build_network(state_shape, num_actions, rng=None):\n"
                "    return nn_library.GenericActorCritic(state_shape, 3,\n"
                "                                         hidden_sizes=(8,), rng=rng)\n")
        result = CompilationCheck().check(Design(kind="network", code=code))
        assert not result.passed
        assert "logits" in result.reason

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            CompilationCheck(num_trial_inputs=0)


class TestNormalizationCheck:
    def test_good_state_passes(self):
        result = NormalizationCheck().check(Design(kind="state", code=GOOD_STATE))
        assert result.passed

    def test_raw_bytes_state_fails(self):
        result = NormalizationCheck().check(Design(kind="state", code=RAW_BYTES_STATE))
        assert not result.passed
        assert "threshold" in result.reason

    def test_threshold_is_configurable(self):
        # With an enormous threshold even raw byte counts pass.
        permissive = NormalizationCheck(threshold=1e12)
        assert permissive.check(Design(kind="state", code=RAW_BYTES_STATE)).passed

    def test_network_designs_are_not_checked(self):
        result = NormalizationCheck().check(Design(kind="network", code=GOOD_NETWORK))
        assert result.passed
        assert "not applicable" in result.reason

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            NormalizationCheck(threshold=0.0)
        with pytest.raises(ValueError):
            NormalizationCheck(num_fuzz_inputs=0)


class TestFilterPipeline:
    def test_statuses_and_report(self):
        designs = [
            Design(kind="state", code=GOOD_STATE),
            Design(kind="state", code=RAW_BYTES_STATE),
            Design(kind="state", code=BROKEN_STATE),
            Design(kind="network", code=GOOD_NETWORK),
        ]
        report = FilterPipeline().apply(designs)
        assert report.total == 4
        # The static audit rejects the defective designs before exec, but
        # folds them into the same Table 2 buckets the dynamic checks used:
        # the raw-bytes state still counts as compilable, the syntax error
        # does not.
        assert report.compilable == 3
        assert report.well_normalized == 2
        assert report.rejected_by_audit == 2
        assert designs[0].status is DesignStatus.PENDING_EVALUATION
        assert designs[1].status is DesignStatus.REJECTED_AUDIT
        assert designs[2].status is DesignStatus.REJECTED_AUDIT
        assert designs[3].status is DesignStatus.PENDING_EVALUATION
        assert report.rejection_reasons == {"audit.compilation": 1,
                                            "audit.normalization": 1}
        assert 0.0 < report.compilable_fraction <= 1.0
        assert designs[1].audit_findings
        assert designs[3].lowerability == "compiled"  # ReLU PensieveNetwork

    def test_dynamic_checks_without_audit(self):
        # With the audit stage disabled the dynamic pre-checks behave
        # exactly as before the auditor existed.
        designs = [
            Design(kind="state", code=GOOD_STATE),
            Design(kind="state", code=RAW_BYTES_STATE),
            Design(kind="state", code=BROKEN_STATE),
            Design(kind="network", code=GOOD_NETWORK),
        ]
        report = FilterPipeline(audit_check=None).apply(designs)
        assert report.compilable == 3
        assert report.well_normalized == 2
        assert report.rejected_by_audit == 0
        assert designs[1].status is DesignStatus.REJECTED_NORMALIZATION
        assert designs[2].status is DesignStatus.REJECTED_COMPILATION
        assert report.rejection_reasons == {"compilation": 1, "normalization": 1}

    def test_empty_report_fractions(self):
        report = FilterPipeline().apply([])
        assert report.compilable_fraction == 0.0
        assert report.well_normalized_fraction == 0.0


class _ScriptedClient:
    """LLM stub returning canned responses (for generator edge cases)."""

    model_name = "scripted"

    def __init__(self, responses):
        self._responses = list(responses)
        self._index = 0

    def complete(self, messages, temperature=1.0, seed=None):
        text = self._responses[self._index % len(self._responses)]
        self._index += 1
        return Completion(text=text, model=self.model_name)


class TestDesignGenerator:
    def test_generates_requested_count_and_kind(self):
        generator = DesignGenerator(SyntheticLLM("gpt-4", seed=0),
                                    GenerationConfig(base_seed=0))
        states = generator.generate_states(5)
        networks = generator.generate_networks(3)
        assert len(states) == 5 and len(networks) == 3
        assert all(d.kind is DesignKind.STATE for d in states)
        assert all(d.kind is DesignKind.NETWORK for d in networks)
        assert all(d.origin_model.startswith("synthetic-gpt-4") for d in states)

    def test_base_seed_makes_generation_reproducible(self):
        def codes(seed):
            generator = DesignGenerator(SyntheticLLM("gpt-4", seed=1),
                                        GenerationConfig(base_seed=seed))
            return [d.code for d in generator.generate_states(4)]
        assert codes(11) == codes(11)

    def test_response_without_code_block_marked_rejected(self):
        client = _ScriptedClient(["I am sorry, I cannot write that function."])
        generator = DesignGenerator(client)
        designs = generator.generate_states(2)
        assert all(d.status is DesignStatus.REJECTED_COMPILATION for d in designs)

    def test_populate_pool(self):
        pool = CandidatePool()
        generator = DesignGenerator(SyntheticLLM("gpt-3.5", seed=0))
        generator.populate_pool(pool, DesignKind.STATE, 4)
        assert len(pool) == 4

    def test_count_validation(self):
        generator = DesignGenerator(SyntheticLLM("gpt-4"))
        with pytest.raises(ValueError):
            generator.generate_states(0)

    def test_environment_hint_threaded_through_prompt(self):
        config = GenerationConfig(prompt=PromptConfig(
            environment_hint="a congested Starlink uplink"))
        generator = DesignGenerator(SyntheticLLM("gpt-4", seed=0), config)
        designs = generator.generate_states(1)
        assert len(designs) == 1


class TestTable2Calibration:
    """The pre-check pass rates should land near the published Table 2 numbers."""

    @pytest.mark.parametrize("profile,compilable_range,normalized_range", [
        ("gpt-3.5", (0.25, 0.60), (0.12, 0.45)),
        ("gpt-4", (0.50, 0.85), (0.32, 0.68)),
    ])
    def test_precheck_rates(self, profile, compilable_range, normalized_range):
        generator = DesignGenerator(SyntheticLLM(profile, seed=42),
                                    GenerationConfig(base_seed=0))
        designs = generator.generate_states(120)
        report = FilterPipeline().apply(designs)
        assert compilable_range[0] <= report.compilable_fraction <= compilable_range[1]
        assert normalized_range[0] <= report.well_normalized_fraction <= normalized_range[1]

    def test_gpt4_rates_exceed_gpt35(self):
        reports = {}
        for profile in ("gpt-3.5", "gpt-4"):
            generator = DesignGenerator(SyntheticLLM(profile, seed=7),
                                        GenerationConfig(base_seed=1))
            reports[profile] = FilterPipeline().apply(generator.generate_states(120))
        assert reports["gpt-4"].compilable_fraction > reports["gpt-3.5"].compilable_fraction
        assert reports["gpt-4"].well_normalized_fraction > \
            reports["gpt-3.5"].well_normalized_fraction
