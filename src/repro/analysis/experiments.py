"""Shared experiment drivers used by the examples and the benchmark harness.

Each driver reproduces the workload behind one of the paper's tables/figures
at a configurable scale.  The full published scale (3,000 designs, 40,000
training epochs, 5 seeds) is reachable by passing a large
:class:`ExperimentScale`; the benchmark defaults are much smaller so the whole
suite completes on a laptop, while exercising exactly the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..abr.env import StreamingSession
from ..abr.qoe import LinearQoE
from ..abr.video import Video, synthetic_video
from ..core.design import CandidatePool, Design, DesignKind, DesignStatus
from ..core.evaluation import DesignTrainer, EvaluationConfig, TestScoreProtocol, instantiate_agent
from ..core.filters import FilterPipeline, FilterReport
from ..core.parallel import ParallelConfig
from ..core.generation import DesignGenerator, GenerationConfig
from ..core.predictors import DesignSampleFeatures
from ..core import telemetry
from ..core.results import ResultStore
from ..core.scheduler import CampaignScheduler
from ..core.prompts import PromptConfig
from ..emulation.emulator import EmulationConfig, Emulator
from ..llm.synthetic import SyntheticLLM
from ..rl.a2c import A2CConfig, evaluate_agent, make_trainer
from ..traces.base import TraceSet
from ..traces.registry import ENVIRONMENTS, build_dataset
from .curves import CurveComparison, TrainingCurve
from .metrics import improvement_percent

__all__ = [
    "ExperimentScale",
    "EnvironmentSetup",
    "build_environment",
    "ComponentExperimentResult",
    "run_component_experiment",
    "CombinationExperimentResult",
    "run_combination_experiment",
    "EmulationComparisonResult",
    "run_emulation_comparison",
    "build_design_corpus",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that shrink/enlarge every experiment uniformly."""

    #: Fraction of the published trace-set sizes to generate.
    dataset_scale: float = 0.03
    #: Chunks per video (the paper's reference video has 48).
    num_chunks: int = 16
    #: Training episodes per design per seed.
    train_epochs: int = 40
    #: Episodes between test-set checkpoint evaluations.
    checkpoint_interval: int = 10
    #: Checkpoints averaged into a seed's score.
    last_k_checkpoints: int = 3
    #: Independent training seeds per design (paper: 5).
    num_seeds: int = 2
    #: Candidate designs generated per component (paper: 3,000).
    num_designs: int = 10
    #: At most this many surviving designs are trained (None = all).
    max_trained_designs: Optional[int] = None
    #: Entropy-bonus schedule.  At small training budgets a lower starting
    #: weight lets policies converge within the available episodes; the
    #: published schedule anneals from 1.0 like Pensieve.
    entropy_weight_start: float = 0.5
    entropy_weight_end: float = 0.05
    #: Base random seed.
    seed: int = 0
    #: Worker processes for the scheduler's across-job fan-out; None reads
    #: the REPRO_WORKERS environment variable, <= 1 runs serially.
    workers: Optional[int] = 1
    #: Tensor dtype for the nn substrate: "float64" (accuracy-first default)
    #: or "float32" (fast path).  Applied by the experiment drivers.
    dtype: str = "float64"
    #: Directory of the persistent result store shared by the drivers; None
    #: (default) recomputes everything.
    store_dir: Optional[str] = None
    #: Directory for structured telemetry (spans, counters, training-metric
    #: series), plumbed like ``store_dir``; None leaves telemetry untouched.
    telemetry_dir: Optional[str] = None

    def evaluation_config(self) -> EvaluationConfig:
        return EvaluationConfig(
            train_epochs=self.train_epochs,
            checkpoint_interval=self.checkpoint_interval,
            last_k_checkpoints=self.last_k_checkpoints,
            num_seeds=self.num_seeds,
            a2c=A2CConfig(entropy_weight_start=self.entropy_weight_start,
                          entropy_weight_end=self.entropy_weight_end,
                          entropy_anneal_epochs=max(self.train_epochs // 2, 1)),
        )

    def parallel_config(self) -> ParallelConfig:
        return ParallelConfig(max_workers=self.workers)

    def scheduler(self) -> CampaignScheduler:
        """The work-graph execution layer every driver submits jobs to."""
        if self.telemetry_dir:
            telemetry.enable(self.telemetry_dir)
        store = ResultStore(self.store_dir) if self.store_dir else None
        return CampaignScheduler(parallel=self.parallel_config(), store=store)


@dataclass
class EnvironmentSetup:
    """Everything needed to run experiments in one network environment."""

    environment: str
    video: Video
    train_traces: TraceSet
    test_traces: TraceSet
    qoe: LinearQoE


def build_environment(environment: str, scale: ExperimentScale) -> EnvironmentSetup:
    """Build the video and trace splits for a named environment."""
    spec = ENVIRONMENTS[environment.lower()]
    train, test = build_dataset(environment, seed=scale.seed,
                                scale=scale.dataset_scale)
    video = synthetic_video(spec.bitrate_ladder, num_chunks=scale.num_chunks,
                            seed=scale.seed)
    return EnvironmentSetup(environment=environment.lower(), video=video,
                            train_traces=train, test_traces=test,
                            qoe=LinearQoE(video.bitrates_kbps))


def _generate_filtered_pool(setup: EnvironmentSetup, kind: DesignKind,
                            llm_profile: str, scale: ExperimentScale,
                            prompt: Optional[PromptConfig] = None,
                            ) -> Tuple[CandidatePool, FilterReport]:
    client = SyntheticLLM(llm_profile, seed=scale.seed)
    generator = DesignGenerator(client, GenerationConfig(
        prompt=prompt or PromptConfig(), base_seed=scale.seed))
    pool = CandidatePool(generator.generate(kind, scale.num_designs))
    report = FilterPipeline().apply(pool)
    return pool, report


def _curve_from_runs(label: str, runs) -> TrainingCurve:
    """Average per-checkpoint test scores across seeds into one curve."""
    curve = TrainingCurve(label)
    completed = [run for run in runs if run.checkpoint_scores]
    if not completed:
        return curve
    min_len = min(len(run.checkpoint_scores) for run in completed)
    for index in range(min_len):
        epoch = completed[0].checkpoint_epochs[index]
        score = float(np.mean([run.checkpoint_scores[index] for run in completed]))
        curve.add(epoch, score)
    return curve


# --------------------------------------------------------------------------- #
# Tables 3 / Figures 3-4: best generated state / network vs. the original
# --------------------------------------------------------------------------- #
@dataclass
class ComponentExperimentResult:
    """Outcome of redesigning one component in one environment."""

    environment: str
    kind: str
    llm_profile: str
    original_score: float
    best_score: Optional[float]
    improvement_percent: Optional[float]
    best_design: Optional[Design]
    pool: CandidatePool
    filter_report: FilterReport
    comparison: CurveComparison
    #: Per-design test scores, in evaluation order.
    evaluated_scores: Dict[str, float] = field(default_factory=dict)


def run_component_experiment(environment: str, kind: str = "state",
                             llm_profile: str = "gpt-4",
                             scale: Optional[ExperimentScale] = None,
                             prompt: Optional[PromptConfig] = None,
                             ) -> ComponentExperimentResult:
    """Generate, filter and evaluate designs for one component (Table 3 / Fig 3-4)."""
    scale = scale or ExperimentScale()
    with nn.default_dtype(scale.dtype):
        return _run_component_experiment(environment, kind, llm_profile,
                                         scale, prompt)


def _run_component_experiment(environment: str, kind: str, llm_profile: str,
                              scale: ExperimentScale,
                              prompt: Optional[PromptConfig],
                              ) -> ComponentExperimentResult:
    design_kind = DesignKind(kind)
    setup = build_environment(environment, scale)
    pool, report = _generate_filtered_pool(setup, design_kind, llm_profile, scale,
                                           prompt=prompt)

    trainer = DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                            config=scale.evaluation_config(), qoe=setup.qoe)
    protocol = TestScoreProtocol(trainer, scheduler=scale.scheduler(),
                                 environment=setup.environment)

    original_score, original_runs = protocol.run(None, None)
    comparison = CurveComparison(
        title=f"{environment.upper()} / {design_kind.value} / {llm_profile}")
    comparison.add_curve(_curve_from_runs("Original", original_runs))

    survivors = pool.surviving_prechecks()
    if scale.max_trained_designs is not None:
        survivors = survivors[:scale.max_trained_designs]
    evaluated_scores: Dict[str, float] = {}
    best_design: Optional[Design] = None
    best_runs = None
    # One scheduled job batch; results come back in design order, and the
    # protocol applies the same per-design bookkeeping the pipeline uses.
    scores, results = protocol.score_designs_detailed(survivors)
    for design, score, result in zip(survivors, scores, results):
        evaluated_scores[design.design_id] = score
        if best_design is None or (design.test_score or -np.inf) > (best_design.test_score or -np.inf):
            best_design = design
            best_runs = result.runs

    best_score = best_design.test_score if best_design is not None else None
    if best_runs is not None:
        comparison.add_curve(_curve_from_runs("Best Generated", best_runs))

    return ComponentExperimentResult(
        environment=setup.environment,
        kind=design_kind.value,
        llm_profile=llm_profile,
        original_score=original_score,
        best_score=best_score,
        improvement_percent=improvement_percent(original_score, best_score)
        if best_score is not None else None,
        best_design=best_design,
        pool=pool,
        filter_report=report,
        comparison=comparison,
        evaluated_scores=evaluated_scores,
    )


# --------------------------------------------------------------------------- #
# Table 5: combining top states with top networks
# --------------------------------------------------------------------------- #
@dataclass
class CombinationExperimentResult:
    """Improvements from states, networks and their combination (Table 5)."""

    environment: str
    llm_profile: str
    original_score: float
    state_score: Optional[float]
    network_score: Optional[float]
    combined_score: Optional[float]

    @property
    def state_improvement(self) -> Optional[float]:
        return improvement_percent(self.original_score, self.state_score) \
            if self.state_score is not None else None

    @property
    def network_improvement(self) -> Optional[float]:
        return improvement_percent(self.original_score, self.network_score) \
            if self.network_score is not None else None

    @property
    def combined_improvement(self) -> Optional[float]:
        return improvement_percent(self.original_score, self.combined_score) \
            if self.combined_score is not None else None


def run_combination_experiment(environment: str, llm_profile: str = "gpt-3.5",
                               scale: Optional[ExperimentScale] = None,
                               top_k: int = 2) -> CombinationExperimentResult:
    """Evaluate top-state x top-network combinations (Table 5 workload)."""
    scale = scale or ExperimentScale()
    with nn.default_dtype(scale.dtype):
        return _run_combination_experiment(environment, llm_profile, scale,
                                           top_k)


def _run_combination_experiment(environment: str, llm_profile: str,
                                scale: ExperimentScale, top_k: int,
                                ) -> CombinationExperimentResult:
    setup = build_environment(environment, scale)
    state_pool, _ = _generate_filtered_pool(setup, DesignKind.STATE, llm_profile, scale)
    network_pool, _ = _generate_filtered_pool(
        setup, DesignKind.NETWORK, llm_profile,
        replace(scale, seed=scale.seed + 1))

    trainer = DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                            config=scale.evaluation_config(), qoe=setup.qoe)
    protocol = TestScoreProtocol(trainer, scheduler=scale.scheduler(),
                                 environment=setup.environment)
    original_score, _ = protocol.run(None, None)

    def evaluate_pool(pool: CandidatePool, kind: DesignKind) -> List[Design]:
        survivors = pool.surviving_prechecks()
        if scale.max_trained_designs is not None:
            survivors = survivors[:scale.max_trained_designs]
        protocol.score_designs(survivors)
        return pool.top_k(top_k, kind=kind)

    top_states = evaluate_pool(state_pool, DesignKind.STATE)
    top_networks = evaluate_pool(network_pool, DesignKind.NETWORK)

    state_score = top_states[0].test_score if top_states else None
    network_score = top_networks[0].test_score if top_networks else None

    # The top_k x top_k grid is one more flat (state, network, seed) sweep.
    grid = [(state, network) for state in top_states for network in top_networks]
    combined_score: Optional[float] = None
    for score, _ in protocol.run_many(grid):
        if combined_score is None or score > combined_score:
            combined_score = score

    return CombinationExperimentResult(
        environment=setup.environment,
        llm_profile=llm_profile,
        original_score=original_score,
        state_score=state_score,
        network_score=network_score,
        combined_score=combined_score,
    )


# --------------------------------------------------------------------------- #
# Table 4: emulation of the best generated states
# --------------------------------------------------------------------------- #
@dataclass
class EmulationComparisonResult:
    """Simulation vs. emulation scores of the original and best generated state."""

    environment: str
    llm_profile: str
    original_sim_score: float
    best_sim_score: float
    original_emu_score: float
    best_emu_score: float

    @property
    def sim_improvement(self) -> Optional[float]:
        return improvement_percent(self.original_sim_score, self.best_sim_score)

    @property
    def emu_improvement(self) -> Optional[float]:
        return improvement_percent(self.original_emu_score, self.best_emu_score)


def run_emulation_comparison(environment: str, llm_profile: str = "gpt-4",
                             scale: Optional[ExperimentScale] = None,
                             emulation_config: Optional[EmulationConfig] = None,
                             ) -> EmulationComparisonResult:
    """Train the original and best generated state, then score both in emulation."""
    scale = scale or ExperimentScale()
    with nn.default_dtype(scale.dtype):
        return _run_emulation_comparison(environment, llm_profile, scale,
                                         emulation_config)


def _run_emulation_comparison(environment: str, llm_profile: str,
                              scale: ExperimentScale,
                              emulation_config: Optional[EmulationConfig],
                              ) -> EmulationComparisonResult:
    setup = build_environment(environment, scale)
    pool, _ = _generate_filtered_pool(setup, DesignKind.STATE, llm_profile, scale)
    survivors = pool.surviving_prechecks()
    if scale.max_trained_designs is not None:
        survivors = survivors[:scale.max_trained_designs]

    config = scale.evaluation_config()

    def train_agent(state_design: Optional[Design], seed: int):
        agent = instantiate_agent(state_design, None, setup.video,
                                  setup.train_traces, seed=seed)
        make_trainer([agent], setup.video, setup.train_traces, [seed],
                     qoe=setup.qoe, config=config.a2c).train(config.train_epochs)
        sim_score = evaluate_agent(agent, setup.video, setup.test_traces,
                                   qoe=setup.qoe, greedy=True, seed=seed)
        return agent, sim_score

    original_agent, original_sim = train_agent(None, seed=scale.seed)

    best_design: Optional[Design] = None
    best_agent = None
    best_sim = -np.inf
    for index, design in enumerate(survivors):
        agent, sim_score = train_agent(design, seed=scale.seed + index + 1)
        design.finalize(sim_score)
        if sim_score > best_sim:
            best_sim = sim_score
            best_design = design
            best_agent = agent
    if best_agent is None:
        # No generated design survived: compare the original against itself so
        # the benchmark still reports a complete row.
        best_agent, best_sim = original_agent, original_sim

    emulator = Emulator(setup.video, qoe=setup.qoe, config=emulation_config)
    original_emu = emulator.evaluate(original_agent.greedy_policy(), setup.test_traces)
    best_emu = emulator.evaluate(best_agent.greedy_policy(), setup.test_traces)

    return EmulationComparisonResult(
        environment=setup.environment,
        llm_profile=llm_profile,
        original_sim_score=original_sim,
        best_sim_score=float(best_sim),
        original_emu_score=original_emu,
        best_emu_score=best_emu,
    )


# --------------------------------------------------------------------------- #
# Figure 5: labelled corpus for the early-stopping comparison
# --------------------------------------------------------------------------- #
def _corpus_sample(args) -> DesignSampleFeatures:
    """Worker: train one corpus design and extract its features.

    The scheduler's ``map_items`` propagates the tensor dtype and the
    kernel-compiler toggles into worker processes, so the sample only
    carries workload inputs.
    """
    setup, config, design, seed, eval_seed = args
    agent = instantiate_agent(design, None, setup.video, setup.train_traces,
                              seed=seed)
    trainer = make_trainer([agent], setup.video, setup.train_traces, [seed],
                           qoe=setup.qoe, config=config.a2c)
    trainer.train(config.train_epochs)
    final_score = evaluate_agent(agent, setup.video, setup.test_traces,
                                 qoe=setup.qoe, greedy=True, seed=eval_seed)
    return DesignSampleFeatures(
        reward_prefix=[stats.episode_reward
                       for stats in trainer.histories[0]],
        code=design.code,
        final_score=float(final_score),
    )


def build_design_corpus(environment: str = "fcc", llm_profile: str = "gpt-4",
                        num_designs: int = 24,
                        scale: Optional[ExperimentScale] = None,
                        ) -> List[DesignSampleFeatures]:
    """Train many designs briefly to build (reward prefix, code, score) samples.

    This is the corpus the early-stopping study consumes: each design
    contributes its early training-reward trajectory, its source code and its
    final test score.  Designs are independent, so the campaign scheduler
    fans the sweep out across ``scale.workers`` processes.
    """
    scale = scale or ExperimentScale()
    scale = replace(scale, num_designs=num_designs)
    with nn.default_dtype(scale.dtype):
        return _build_design_corpus(environment, llm_profile, num_designs,
                                    scale)


def _build_design_corpus(environment: str, llm_profile: str, num_designs: int,
                         scale: ExperimentScale) -> List[DesignSampleFeatures]:
    setup = build_environment(environment, scale)
    client = SyntheticLLM(llm_profile, seed=scale.seed)
    generator = DesignGenerator(client, GenerationConfig(base_seed=scale.seed))
    pool = CandidatePool(generator.generate_states(num_designs))
    FilterPipeline().apply(pool)

    config = scale.evaluation_config()
    work = [(setup, config, design, scale.seed + index, scale.seed)
            for index, design in enumerate(pool.surviving_prechecks())]
    return scale.scheduler().map_items(_corpus_sample, work)
