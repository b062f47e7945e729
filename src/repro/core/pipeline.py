"""The end-to-end Nada pipeline (Figure 1 of the paper) and campaign driver.

Stages:

1. **Autonomous coding** — prompt an LLM for a pool of candidate designs
   (state representations and/or network architectures).
2. **Pre-checks** — compilation check and normalization check.
3. **Bootstrap training** — a small subset of surviving designs is trained
   without early stopping to build the labelled corpus for the early-stopping
   classifier.
4. **Filtered evaluation** — the remaining designs are trained with the
   early-stopping classifier consulted after the first K episodes.
5. **Selection** — the best design (per the §3.1 test-score protocol) is
   reported alongside the original design's score.

All training executes through the
:class:`~repro.core.scheduler.CampaignScheduler`: each stage is expressed as
a batch of (design, environment, seed-batch) jobs, so one pipeline and a
multi-environment campaign (:class:`NadaCampaign`) run on the same
substrate.  A campaign interleaves every environment's stage-1 jobs into a
single scheduler pass (and likewise for stage 2), which keeps all workers
busy across environments, shares one result store, and keeps scores
bit-identical to running each environment serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.video import Video, synthetic_video
from ..llm.base import LLMClient
from ..llm.synthetic import SyntheticLLM
from ..traces.base import TraceSet
from ..traces.registry import ENVIRONMENTS, build_dataset, list_environments
from . import telemetry
from .design import CandidatePool, Design, DesignKind, DesignStatus
from .early_stopping import EarlyStoppingConfig, RewardTrajectoryClassifier
from .evaluation import DesignTrainer, EvaluationConfig, TestScoreProtocol
from .filters import FilterPipeline, FilterReport
from .generation import DesignGenerator, GenerationConfig
from .parallel import ParallelConfig
from .prompts import PromptConfig
from .results import ResultStore
from .scheduler import CampaignScheduler, EvaluationJob, JobResult

__all__ = ["NadaConfig", "NadaResult", "NadaPipeline",
           "CampaignResult", "NadaCampaign"]


@dataclass
class NadaConfig:
    """Configuration of one Nada campaign."""

    #: Which component to redesign: "state", "network", or "both".
    target: str = "state"
    #: Number of candidate designs to generate per component.
    num_designs: int = 20
    #: LLM backend; a profile name ("gpt-3.5"/"gpt-4") builds a SyntheticLLM.
    llm: str = "gpt-4"
    #: Prompting strategy switches.
    prompt: PromptConfig = field(default_factory=PromptConfig)
    #: Training/evaluation schedule.
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    #: Early stopping: disabled entirely when False.
    use_early_stopping: bool = True
    early_stopping: EarlyStoppingConfig = field(default_factory=EarlyStoppingConfig)
    #: Fraction of surviving designs trained fully to bootstrap the classifier.
    bootstrap_fraction: float = 0.3
    #: Minimum number of bootstrap designs regardless of the fraction.
    min_bootstrap_designs: int = 5
    #: Base random seed for generation and training.
    seed: int = 0
    #: Worker processes for the scheduler's fan-out of (design,
    #: environment, seed) work items; None reads the REPRO_WORKERS
    #: environment variable, <= 1 runs serially.
    workers: Optional[int] = 1
    #: Retries for a job that raises, times out or loses its worker before
    #: it is quarantined (the campaign then completes without it).
    max_retries: int = 2
    #: Seconds one job may run inside a pool worker before being failed and
    #: retried; None disables the limit (only enforced under fan-out).
    job_timeout: Optional[float] = None
    #: Directory of the persistent result store; None disables persistence.
    #: With a store, repeated campaigns skip already-scored (design,
    #: environment, seed) work and interrupted campaigns resume.
    store_dir: Optional[str] = None
    #: Directory for structured telemetry (spans, counters, training-metric
    #: series); None leaves telemetry in whatever state the process has.
    #: Events are flushed as JSON lines and summarized by ``repro report``.
    telemetry_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.target not in ("state", "network", "both"):
            raise ValueError("target must be 'state', 'network' or 'both'")
        if self.num_designs < 1:
            raise ValueError("num_designs must be positive")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError("bootstrap_fraction must be in (0, 1]")


@dataclass
class NadaResult:
    """Everything a Nada campaign produces."""

    pool: CandidatePool
    filter_report: FilterReport
    original_score: float
    best_design: Optional[Design]
    best_score: Optional[float]
    #: Designs whose training was cut short by the early-stopping model.
    early_stopped_designs: List[Design] = field(default_factory=list)
    #: Number of designs trained fully (bootstrap + survivors).
    fully_trained: int = 0
    #: Designs whose evaluation was quarantined after exhausting retries.
    failed_designs: int = 0

    @property
    def improvement(self) -> Optional[float]:
        """Relative improvement of the best design over the original (e.g. 0.13 = 13%)."""
        if self.best_score is None or not np.isfinite(self.original_score):
            return None
        baseline = abs(self.original_score)
        if baseline < 1e-12:
            return None
        return (self.best_score - self.original_score) / baseline

    def summary(self) -> str:
        lines = [
            f"designs generated : {self.filter_report.total}",
            f"compilable        : {self.filter_report.compilable} "
            f"({self.filter_report.compilable_fraction:.1%})",
            f"well normalized   : {self.filter_report.well_normalized} "
            f"({self.filter_report.well_normalized_fraction:.1%})",
            f"fully trained     : {self.fully_trained}",
            f"early stopped     : {len(self.early_stopped_designs)}",
            f"original score    : {self.original_score:.3f}",
        ]
        if self.failed_designs:
            # Only surfaced when something actually failed, keeping the
            # fault-free summary byte-identical to earlier releases.
            lines.insert(5, f"failed (quarantined): {self.failed_designs}")
        if self.filter_report.rejected_by_audit:
            # Likewise only surfaced when the static audit rejected something.
            lines.insert(1, f"rejected by audit : "
                            f"{self.filter_report.rejected_by_audit}")
        if self.best_design is not None and self.best_score is not None:
            improvement = self.improvement
            impr_text = f" ({improvement:+.1%})" if improvement is not None else ""
            lines.append(f"best design       : {self.best_design.design_id}")
            lines.append(f"best score        : {self.best_score:.3f}{impr_text}")
        else:
            lines.append("best design       : none survived evaluation")
        return "\n".join(lines)


@dataclass
class _PipelineStages:
    """Mutable campaign state threaded through one pipeline's stages."""

    pool: CandidatePool
    filter_report: FilterReport
    #: Designs trained fully up front (everything, when early stopping is off).
    bootstrap: List[Design]
    #: Designs evaluated afterwards under the fitted classifier.
    remainder: List[Design]
    original_score: float = float("nan")
    early_stopper: Optional[RewardTrajectoryClassifier] = None
    fully_trained: int = 0


class NadaPipeline:
    """Orchestrates generation, filtering and evaluation for one environment."""

    def __init__(self, video: Video, train_traces: TraceSet, test_traces: TraceSet,
                 config: Optional[NadaConfig] = None,
                 qoe: Optional[QoEMetric] = None,
                 llm_client: Optional[LLMClient] = None,
                 scheduler: Optional[CampaignScheduler] = None,
                 store: Optional[ResultStore] = None,
                 environment: str = "") -> None:
        self.video = video
        self.train_traces = train_traces
        self.test_traces = test_traces
        self.config = config or NadaConfig()
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.llm_client = llm_client or SyntheticLLM(self.config.llm,
                                                     seed=self.config.seed)
        self.environment = environment
        if self.config.telemetry_dir:
            telemetry.enable(self.config.telemetry_dir)
        if scheduler is None:
            if store is None and self.config.store_dir:
                store = ResultStore(self.config.store_dir)
            scheduler = CampaignScheduler(
                parallel=ParallelConfig(max_workers=self.config.workers,
                                        max_retries=self.config.max_retries,
                                        job_timeout=self.config.job_timeout),
                store=store)
        self._scheduler = scheduler
        self._trainer = DesignTrainer(video, train_traces, test_traces,
                                      config=self.config.evaluation, qoe=self.qoe)
        self._protocol = TestScoreProtocol(self._trainer,
                                           scheduler=self._scheduler,
                                           environment=environment)

    @property
    def scheduler(self) -> CampaignScheduler:
        """The work-graph layer this pipeline's training executes on."""
        return self._scheduler

    # ------------------------------------------------------------------ #
    @classmethod
    def for_environment(cls, environment: str, config: Optional[NadaConfig] = None,
                        dataset_scale: float = 0.05, num_chunks: int = 24,
                        seed: int = 0,
                        llm_client: Optional[LLMClient] = None,
                        schedule_scale: Optional[float] = None,
                        scheduler: Optional[CampaignScheduler] = None,
                        store: Optional[ResultStore] = None) -> "NadaPipeline":
        """Convenience constructor: build traces and video for a named environment.

        With ``schedule_scale`` set, the environment's published Table 1
        training schedule (``EnvironmentSpec.train_epochs`` /
        ``test_interval``) is applied — scaled by the factor — as the
        evaluation schedule, overriding whatever the config carried; the
        entropy-anneal horizon is re-derived from the scaled epoch budget as
        the CLI does.  Leave it ``None`` to keep the config's explicit
        schedule.
        """
        key = environment.lower()
        spec = ENVIRONMENTS[key]
        config = config if config is not None else NadaConfig()
        if schedule_scale is not None:
            epochs, interval = spec.evaluation_schedule(schedule_scale)
            config = replace(config, evaluation=replace(
                config.evaluation, train_epochs=epochs,
                checkpoint_interval=interval,
                a2c=replace(config.evaluation.a2c,
                            entropy_anneal_epochs=max(epochs // 2, 1))))
        train, test = build_dataset(environment, seed=seed, scale=dataset_scale)
        video = synthetic_video(spec.bitrate_ladder, num_chunks=num_chunks, seed=seed)
        return cls(video, train, test, config=config, llm_client=llm_client,
                   scheduler=scheduler, store=store, environment=key)

    # ------------------------------------------------------------------ #
    # The pipeline as a staged work graph.  ``run`` executes the stages
    # back-to-back; ``NadaCampaign`` interleaves the same stages across
    # several environments so each scheduler pass sees every ready job.
    # ------------------------------------------------------------------ #
    def _prepare(self) -> _PipelineStages:
        """Stages 1-2 (generation + pre-checks) and the bootstrap split."""
        cfg = self.config
        pool = CandidatePool()
        generator = DesignGenerator(
            self.llm_client,
            GenerationConfig(prompt=cfg.prompt, base_seed=cfg.seed))

        kinds: List[DesignKind] = []
        if cfg.target in ("state", "both"):
            kinds.append(DesignKind.STATE)
        if cfg.target in ("network", "both"):
            kinds.append(DesignKind.NETWORK)
        for kind in kinds:
            generator.populate_pool(pool, kind, cfg.num_designs)

        filter_report = FilterPipeline().apply(pool)
        survivors = pool.surviving_prechecks()
        rng = np.random.default_rng(cfg.seed)
        if survivors:
            order = rng.permutation(len(survivors))
            survivors = [survivors[i] for i in order]

        if cfg.use_early_stopping and survivors:
            bootstrap_count = max(cfg.min_bootstrap_designs,
                                  int(round(cfg.bootstrap_fraction * len(survivors))))
            bootstrap_count = min(bootstrap_count, len(survivors))
            bootstrap, remainder = (survivors[:bootstrap_count],
                                    survivors[bootstrap_count:])
        else:
            bootstrap, remainder = survivors, []
        return _PipelineStages(pool=pool, filter_report=filter_report,
                               bootstrap=bootstrap, remainder=remainder)

    def _stage_one_jobs(self, stages: _PipelineStages) -> List[EvaluationJob]:
        """Reference score + full bootstrap training, as one job batch."""
        return ([self._protocol.job(None, None)]
                + self._protocol.design_jobs(stages.bootstrap))

    def _apply_stage_one(self, stages: _PipelineStages,
                         results: Sequence[JobResult]) -> None:
        cfg = self.config
        stages.original_score = results[0].score
        self._protocol.record_results(stages.bootstrap, results[1:])
        stages.fully_trained += sum(1 for result in results[1:] if result.ok)
        if cfg.use_early_stopping:
            corpus = [d for d in stages.bootstrap
                      if d.reward_history and d.test_score is not None]
            if len(corpus) >= 4:
                stages.early_stopper = RewardTrajectoryClassifier(cfg.early_stopping)
                stages.early_stopper.fit([d.reward_history for d in corpus],
                                         [d.test_score for d in corpus])

    def _stage_two_jobs(self, stages: _PipelineStages) -> List[EvaluationJob]:
        """Filtered evaluation of the remaining designs (may be empty)."""
        return self._protocol.design_jobs(stages.remainder,
                                          early_stopping=stages.early_stopper)

    def _apply_stage_two(self, stages: _PipelineStages,
                         results: Sequence[JobResult]) -> None:
        self._protocol.record_results(stages.remainder, results)
        stages.fully_trained += sum(design.status == DesignStatus.EVALUATED
                                    for design in stages.remainder)

    def _result(self, stages: _PipelineStages) -> NadaResult:
        early_stopped = stages.pool.with_status(DesignStatus.EARLY_STOPPED)
        failed = stages.pool.with_status(DesignStatus.FAILED)
        best = stages.pool.best()
        return NadaResult(
            pool=stages.pool,
            filter_report=stages.filter_report,
            original_score=stages.original_score,
            best_design=best,
            best_score=best.test_score if best is not None else None,
            early_stopped_designs=early_stopped,
            fully_trained=stages.fully_trained,
            failed_designs=len(failed),
        )

    def run(self) -> NadaResult:
        """Execute the full pipeline and return its result."""
        attrs = {"environment": self.environment}
        with telemetry.span("pipeline.run", attrs):
            with telemetry.span("pipeline.prepare", attrs):
                stages = self._prepare()
            with telemetry.span("pipeline.stage1", attrs):
                self._apply_stage_one(
                    stages, self._scheduler.run(self._stage_one_jobs(stages)))
            stage_two = self._stage_two_jobs(stages)
            if stage_two:
                with telemetry.span("pipeline.stage2", attrs):
                    self._apply_stage_two(stages,
                                          self._scheduler.run(stage_two))
            result = self._result(stages)
        sink = telemetry.get_telemetry()
        if sink is not None and sink.directory:
            sink.flush()
        return result

    # ------------------------------------------------------------------ #
    def evaluate_combination(self, state_design: Optional[Design],
                             network_design: Optional[Design]) -> float:
        """Score a specific (state, network) combination (Table 5 grid)."""
        score, _ = self._protocol.run(state_design, network_design)
        return score


# --------------------------------------------------------------------------- #
# Multi-environment campaigns
# --------------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """Per-environment results of one multi-environment campaign."""

    results: Dict[str, NadaResult]

    def __getitem__(self, environment: str) -> NadaResult:
        return self.results[environment]

    @property
    def environments(self) -> List[str]:
        return list(self.results)

    def summary(self) -> str:
        blocks = []
        for name, result in self.results.items():
            spec = ENVIRONMENTS.get(name)
            title = spec.display_name if spec is not None else name
            blocks.append(f"=== {title} ===\n{result.summary()}")
        return "\n\n".join(blocks)


class NadaCampaign:
    """Runs the Nada pipeline across several environments on one scheduler.

    This is the paper's headline experiment as a first-class scenario: the
    full trace registry (fcc / starlink / 4g / 5g, or any subset) swept
    through a single scheduled work-graph.  Every environment's stage-1 jobs
    (reference score + bootstrap training) are submitted in one scheduler
    pass, then each environment fits its early-stopping classifier, then all
    stage-2 jobs (filtered evaluation) go out as a second pass — so workers
    stay saturated across environments and the shared result store
    deduplicates repeated work.  Scores are bit-identical to running each
    environment's pipeline on its own (tested).
    """

    def __init__(self, pipelines: Mapping[str, NadaPipeline],
                 scheduler: Optional[CampaignScheduler] = None) -> None:
        if not pipelines:
            raise ValueError("a campaign needs at least one environment")
        self.pipelines = dict(pipelines)
        first = next(iter(self.pipelines.values()))
        self.scheduler = scheduler or first.scheduler

    # ------------------------------------------------------------------ #
    @classmethod
    def for_environments(cls, environments: Optional[Sequence[str]] = None,
                         config: Optional[NadaConfig] = None,
                         dataset_scale: float = 0.05, num_chunks: int = 24,
                         seed: int = 0,
                         schedule_scale: Optional[float] = None,
                         store: Optional[ResultStore] = None) -> "NadaCampaign":
        """Build one pipeline per named environment, all on one scheduler.

        ``environments`` defaults to the full trace registry in Table 1
        order.  With ``schedule_scale`` set, each environment trains under
        its own published schedule scaled by that factor (satisfying the
        registry's per-environment Table 1 settings); otherwise every
        environment uses the config's schedule.
        """
        names = [name.lower() for name in (environments or list_environments())]
        config = config if config is not None else NadaConfig()
        if store is None and config.store_dir:
            store = ResultStore(config.store_dir)
        scheduler = CampaignScheduler(
            parallel=ParallelConfig(max_workers=config.workers,
                                    max_retries=config.max_retries,
                                    job_timeout=config.job_timeout),
            store=store)
        pipelines = {
            name: NadaPipeline.for_environment(
                name, config=config, dataset_scale=dataset_scale,
                num_chunks=num_chunks, seed=seed,
                schedule_scale=schedule_scale, scheduler=scheduler)
            for name in names
        }
        return cls(pipelines, scheduler=scheduler)

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Execute the campaign work-graph and return per-environment results."""
        attrs = {"environments": ",".join(self.pipelines)}
        with telemetry.span("campaign.run", attrs):
            with telemetry.span("campaign.prepare", attrs):
                stages = {name: pipeline._prepare()
                          for name, pipeline in self.pipelines.items()}

            # Stage 1 across every environment, one scheduler pass.
            with telemetry.span("campaign.stage1", attrs):
                batches = {name: self.pipelines[name]
                           ._stage_one_jobs(stages[name])
                           for name in self.pipelines}
                self._run_batches(batches,
                                  lambda name, results: self.pipelines[name]
                                  ._apply_stage_one(stages[name], results))

            # Stage 2 (filtered evaluation) across every environment.
            with telemetry.span("campaign.stage2", attrs):
                batches = {name: self.pipelines[name]
                           ._stage_two_jobs(stages[name])
                           for name in self.pipelines}
                self._run_batches(batches,
                                  lambda name, results: self.pipelines[name]
                                  ._apply_stage_two(stages[name], results))

            result = CampaignResult(
                {name: self.pipelines[name]._result(stages[name])
                 for name in self.pipelines})
        sink = telemetry.get_telemetry()
        if sink is not None and sink.directory:
            sink.flush()
        return result

    def _run_batches(self, batches: Dict[str, List[EvaluationJob]],
                     apply) -> None:
        """Submit every environment's batch as one pass, then slice back."""
        flat = [job for jobs in batches.values() for job in jobs]
        if not flat:
            return
        results = self.scheduler.run(flat)
        offset = 0
        for name, jobs in batches.items():
            apply(name, results[offset:offset + len(jobs)])
            offset += len(jobs)
