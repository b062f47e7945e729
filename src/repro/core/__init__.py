"""The Nada framework core: design generation, filtering, early stopping,
evaluation and the end-to-end pipeline."""

from .codegen import (
    ALLOWED_IMPORT_ROOTS,
    CodeBlockError,
    compile_code_block,
    load_network_builder,
    load_state_function,
)
from .design import CandidatePool, Design, DesignKind, DesignStatus
from .early_stopping import (
    EarlyStoppingConfig,
    EarlyStoppingDecision,
    RewardTrajectoryClassifier,
    classification_rates,
    prepare_reward_prefix,
    top_fraction_labels,
    tune_threshold_zero_fnr,
)
from .evaluation import (
    DesignTrainer,
    EvaluationConfig,
    TestScoreProtocol,
    TrainingRun,
    instantiate_agent,
)
from .filters import (
    CheckResult,
    CompilationCheck,
    FilterPipeline,
    FilterReport,
    NormalizationCheck,
    random_observation,
)
from .distributed import (NoWorkersError, RemoteConfig, RemoteExecutor,
                          run_worker)
from .faults import (FaultPlan, FaultRule, InjectedFault, clear_plan,
                     inject, install_plan)
from .generation import DesignGenerator, GenerationConfig
from .parallel import (ParallelConfig, TaskOutcome, effective_workers,
                       run_resilient)
from .pipeline import (CampaignResult, NadaCampaign, NadaConfig, NadaPipeline,
                       NadaResult)
from .results import (Lease, ResultStore, context_fingerprint,
                      design_fingerprint, result_key)
from .scheduler import (CampaignScheduler, EvaluationJob, JobResult,
                        protocol_score)
from . import telemetry
from .telemetry import Telemetry, TelemetryEvent
from .predictors import (
    DesignSampleFeatures,
    EarlyStopPredictor,
    HeuristicLastPredictor,
    HeuristicMaxPredictor,
    PREDICTOR_REGISTRY,
    PredictorEvaluation,
    RewardOnlyPredictor,
    TextOnlyPredictor,
    TextRewardPredictor,
    cross_validate_predictors,
    evaluate_predictor,
    make_predictor,
)
from .prompts import (
    PARAMETER_DESCRIPTIONS,
    PromptConfig,
    build_network_prompt,
    build_state_prompt,
    system_message,
)

__all__ = [
    # design
    "Design", "DesignKind", "DesignStatus", "CandidatePool",
    # codegen
    "CodeBlockError", "compile_code_block", "load_state_function",
    "load_network_builder", "ALLOWED_IMPORT_ROOTS",
    # prompts
    "PromptConfig", "build_state_prompt", "build_network_prompt",
    "system_message", "PARAMETER_DESCRIPTIONS",
    # generation
    "DesignGenerator", "GenerationConfig",
    # filters
    "CompilationCheck", "NormalizationCheck", "FilterPipeline", "FilterReport",
    "CheckResult", "random_observation",
    # early stopping
    "EarlyStoppingConfig", "RewardTrajectoryClassifier", "EarlyStoppingDecision",
    "prepare_reward_prefix", "top_fraction_labels", "tune_threshold_zero_fnr",
    "classification_rates",
    # predictors
    "DesignSampleFeatures", "EarlyStopPredictor", "RewardOnlyPredictor",
    "TextOnlyPredictor", "TextRewardPredictor", "HeuristicMaxPredictor",
    "HeuristicLastPredictor", "PREDICTOR_REGISTRY", "make_predictor",
    "PredictorEvaluation", "evaluate_predictor", "cross_validate_predictors",
    # evaluation
    "EvaluationConfig", "TrainingRun", "instantiate_agent", "DesignTrainer",
    "TestScoreProtocol",
    # parallel
    "ParallelConfig", "TaskOutcome", "run_resilient",
    "effective_workers",
    # faults
    "FaultPlan", "FaultRule", "InjectedFault", "install_plan", "clear_plan",
    "inject",
    # scheduler + result store
    "CampaignScheduler", "EvaluationJob", "JobResult", "protocol_score",
    "ResultStore", "Lease", "design_fingerprint", "context_fingerprint",
    "result_key",
    # distributed transport
    "NoWorkersError", "RemoteConfig", "RemoteExecutor", "run_worker",
    # telemetry
    "telemetry", "Telemetry", "TelemetryEvent",
    # pipeline
    "NadaConfig", "NadaResult", "NadaPipeline",
    "NadaCampaign", "CampaignResult",
]
