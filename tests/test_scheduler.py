"""Tests for the campaign scheduler, the result store and registry schedules.

Covers the PR's hard guarantees:

* campaign scores are bit-identical across (serial reference, workers=1
  scheduler, workers=2 scheduler with lockstep-inside-worker);
* the result store hits/misses/resumes correctly and invalidates on any
  config change that can alter results — but not on engine-only toggles;
* the early-stopping classifier observes identical reward prefixes
  regardless of job execution order and is never mutated by decisions;
* the trace registry's published Table 1 schedules are the per-environment
  defaults for the pipeline and the CLI, with explicit flags overriding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.analysis import ExperimentScale
from repro.analysis.experiments import build_environment
from repro.cli import DEFAULT_SCHEDULE_SCALE, build_parser, main, resolve_schedule
from repro.core import (
    CampaignScheduler,
    Design,
    DesignTrainer,
    EarlyStoppingConfig,
    EvaluationJob,
    NadaConfig,
    NadaPipeline,
    ParallelConfig,
    ResultStore,
    RewardTrajectoryClassifier,
    TestScoreProtocol,
    context_fingerprint,
    design_fingerprint,
    protocol_score,
    result_key,
)
from repro.core.evaluation import TrainingRun
from repro.core.pipeline import NadaCampaign
from repro.llm import StateDesignSpace, StateDesignSpec
from repro.traces.registry import ENVIRONMENTS

TINY = ExperimentScale(train_epochs=6, checkpoint_interval=3,
                       last_k_checkpoints=2, num_seeds=2,
                       dataset_scale=0.02, num_chunks=6)

GOOD_STATE = StateDesignSpace().render(StateDesignSpec(extra_features=("buffer_diff",)))
OTHER_STATE = StateDesignSpace().render(StateDesignSpec(extra_features=("throughput_trend",)))


def _trainer(environment: str, scale: ExperimentScale = TINY) -> DesignTrainer:
    setup = build_environment(environment, scale)
    return DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                         config=scale.evaluation_config(), qoe=setup.qoe)


def _assert_same_runs(runs_a, runs_b):
    assert len(runs_a) == len(runs_b)
    for run_a, run_b in zip(runs_a, runs_b):
        assert run_a.seed == run_b.seed
        assert run_a.reward_history == run_b.reward_history
        assert run_a.checkpoint_epochs == run_b.checkpoint_epochs
        assert run_a.checkpoint_scores == run_b.checkpoint_scores
        assert run_a.early_stopped == run_b.early_stopped


class ObservantClassifier(RewardTrajectoryClassifier):
    """Deterministic stand-in recording every prefix it is asked about."""

    def __init__(self, stop_below: float):
        super().__init__(EarlyStoppingConfig(reward_prefix_length=3))
        self.threshold = 0.5
        self.stop_below = stop_below
        self.observed = []

    def should_stop(self, reward_prefix):
        prefix = [float(r) for r in reward_prefix]
        self.observed.append(tuple(prefix))
        return float(np.mean(prefix)) < self.stop_below


class TestSchedulerEquivalence:
    """Campaign scores must be bit-identical for every execution shape."""

    @pytest.fixture(scope="class")
    def campaign_jobs(self):
        design = Design(kind="state", code=GOOD_STATE)
        jobs = []
        for environment in ("fcc", "starlink"):
            trainer = _trainer(environment)
            for state in (None, design):
                jobs.append(EvaluationJob(trainer=trainer, state_design=state,
                                          network_design=None, seeds=(0, 1),
                                          environment=environment))
        return jobs

    @pytest.fixture(scope="class")
    def serial_reference(self, campaign_jobs):
        """Each job trained serially, in submission order."""
        return [job.trainer.run_seeds(job.state_design, job.network_design,
                                      list(job.seeds))
                for job in campaign_jobs]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scheduler_matches_serial_reference(self, campaign_jobs,
                                                serial_reference, workers):
        scheduler = CampaignScheduler(ParallelConfig(max_workers=workers))
        results = scheduler.run(campaign_jobs)
        for result, reference, job in zip(results, serial_reference,
                                          campaign_jobs):
            _assert_same_runs(result.runs, reference)
            last_k = job.trainer.config.last_k_checkpoints
            assert result.score == protocol_score(reference, last_k)

    def test_results_preserve_submission_order(self, campaign_jobs):
        results = CampaignScheduler().run(campaign_jobs)
        assert [r.job.environment for r in results] == \
            [job.environment for job in campaign_jobs]

    def test_job_requires_seeds(self):
        trainer = _trainer("fcc")
        with pytest.raises(ValueError):
            EvaluationJob(trainer=trainer, state_design=None,
                          network_design=None, seeds=())

    def test_protocol_has_no_fanout_of_its_own(self):
        """The protocol executes exclusively through its scheduler."""
        protocol = TestScoreProtocol(_trainer("fcc"))
        assert isinstance(protocol.scheduler, CampaignScheduler)
        import inspect

        from repro.core import evaluation, pipeline
        from repro.analysis import experiments
        for module in (evaluation, pipeline, experiments):
            source = inspect.getsource(module)
            assert "run_resilient(" not in source
            assert "RemoteExecutor(" not in source


class TestCampaignDriver:
    def _config(self):
        return NadaConfig(
            target="state", num_designs=3, llm="gpt-4",
            evaluation=TINY.evaluation_config(),
            use_early_stopping=False, seed=0)

    def test_campaign_matches_individual_pipelines(self):
        campaign = NadaCampaign.for_environments(
            ["fcc", "starlink"], config=self._config(),
            dataset_scale=0.02, num_chunks=6, seed=0)
        combined = campaign.run()

        for environment in ("fcc", "starlink"):
            alone = NadaPipeline.for_environment(
                environment, config=self._config(),
                dataset_scale=0.02, num_chunks=6, seed=0).run()
            assert combined[environment].original_score == alone.original_score
            assert combined[environment].best_score == alone.best_score
            assert combined[environment].fully_trained == alone.fully_trained

        summary = combined.summary()
        assert "FCC" in summary and "Starlink" in summary


class TestResultStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run = TrainingRun(seed=3,
                          reward_history=[0.1, -2.5e-17, 1 / 3],
                          checkpoint_epochs=[3, 6],
                          checkpoint_scores=[np.pi, -1.0000000000000002],
                          early_stopped=False, last_k_checkpoints=2)
        store.put_run("ab" * 32, run)
        loaded = store.get_run("ab" * 32)
        assert loaded.seed == run.seed
        assert loaded.reward_history == run.reward_history
        assert loaded.checkpoint_scores == run.checkpoint_scores
        assert loaded.last_k_checkpoints == 2
        assert len(store) == 1

    def test_miss_then_hit_across_scheduler_instances(self, tmp_path):
        trainer = _trainer("fcc")
        job = EvaluationJob(trainer=trainer, state_design=None,
                            network_design=None, seeds=(0, 1),
                            environment="fcc")
        cold_store = ResultStore(str(tmp_path))
        cold = CampaignScheduler(store=cold_store).run([job])[0]
        assert not cold.cached
        # The all-or-nothing lookup short-circuits on the first absent seed.
        assert cold_store.misses >= 1 and cold_store.hits == 0
        assert len(cold_store) == 2  # one record per seed

        warm_store = ResultStore(str(tmp_path))
        warm = CampaignScheduler(store=warm_store).run([job])[0]
        assert warm.cached
        assert warm_store.hits == 2
        assert warm.score == cold.score
        _assert_same_runs(warm.runs, cold.runs)

    def test_interrupted_campaign_resumes(self, tmp_path):
        trainer = _trainer("fcc")
        design = Design(kind="state", code=GOOD_STATE)
        job_a = EvaluationJob(trainer=trainer, state_design=None,
                              network_design=None, seeds=(0, 1),
                              environment="fcc")
        job_b = EvaluationJob(trainer=trainer, state_design=design,
                              network_design=None, seeds=(0, 1),
                              environment="fcc")
        # First session completes only job A, then is "interrupted".
        CampaignScheduler(store=ResultStore(str(tmp_path))).run([job_a])
        # The resumed campaign submits the full work-graph; only B computes.
        store = ResultStore(str(tmp_path))
        resumed = CampaignScheduler(store=store).run([job_a, job_b])
        assert resumed[0].cached and not resumed[1].cached
        assert store.hits == 2

    def test_config_change_invalidates(self, tmp_path):
        scale = TINY
        trainer = _trainer("fcc", scale)
        store = ResultStore(str(tmp_path))
        scheduler = CampaignScheduler(store=store)
        job = EvaluationJob(trainer=trainer, state_design=None,
                            network_design=None, seeds=(0,),
                            environment="fcc")
        scheduler.run([job])

        # A longer schedule must not be served from the old records.
        longer = _trainer("fcc", ExperimentScale(
            train_epochs=TINY.train_epochs + 3,
            checkpoint_interval=TINY.checkpoint_interval,
            last_k_checkpoints=TINY.last_k_checkpoints,
            num_seeds=TINY.num_seeds, dataset_scale=TINY.dataset_scale,
            num_chunks=TINY.num_chunks))
        changed = EvaluationJob(trainer=longer, state_design=None,
                                network_design=None, seeds=(0,),
                                environment="fcc")
        result = CampaignScheduler(store=ResultStore(str(tmp_path))).run(
            [changed])[0]
        assert not result.cached
        assert len(result.runs[0].reward_history) == TINY.train_epochs + 3

    def test_engine_config_is_key_material(self):
        """The engine configuration and result-shaping fields are keyed."""
        from dataclasses import replace as dc_replace
        trainer = _trainer("fcc")
        base = context_fingerprint(trainer, "fcc")
        # The engine configuration is key material, field by field.
        for change in ({"compile": False}, {"dtype": "float32"}):
            with nn.engine.using(dc_replace(nn.engine.current(), **change)):
                assert context_fingerprint(trainer, "fcc") != base
        # ...while a result-shaping field is key material.
        heavier = DesignTrainer(trainer.video, trainer.train_traces,
                                trainer.test_traces,
                                config=dc_replace(trainer.config,
                                                  train_epochs=99),
                                qoe=trainer.qoe)
        assert context_fingerprint(heavier, "fcc") != base

    def test_subset_seed_batches_share_records(self, tmp_path):
        """num_seeds/last_k are aggregation-only: shorter protocols hit."""
        trainer = _trainer("fcc")
        CampaignScheduler(store=ResultStore(str(tmp_path))).run(
            [EvaluationJob(trainer=trainer, state_design=None,
                           network_design=None, seeds=(0, 1),
                           environment="fcc")])
        # A different protocol width over the same context must still hit.
        narrower = _trainer("fcc", ExperimentScale(
            train_epochs=TINY.train_epochs,
            checkpoint_interval=TINY.checkpoint_interval,
            last_k_checkpoints=1, num_seeds=1,
            dataset_scale=TINY.dataset_scale, num_chunks=TINY.num_chunks))
        result = CampaignScheduler(store=ResultStore(str(tmp_path))).run(
            [EvaluationJob(trainer=narrower, state_design=None,
                           network_design=None, seeds=(0,),
                           environment="fcc")])[0]
        assert result.cached
        # The loaded run is re-stamped with the requesting aggregation.
        assert result.runs[0].last_k_checkpoints == 1

    def test_partial_batches_do_not_count_as_hits(self, tmp_path):
        trainer = _trainer("fcc")
        CampaignScheduler(store=ResultStore(str(tmp_path))).run(
            [EvaluationJob(trainer=trainer, state_design=None,
                           network_design=None, seeds=(0,),
                           environment="fcc")])
        store = ResultStore(str(tmp_path))
        result = CampaignScheduler(store=store).run(
            [EvaluationJob(trainer=trainer, state_design=None,
                           network_design=None, seeds=(0, 1),
                           environment="fcc")])[0]
        # Seed 0 was probed successfully but the batch retrained whole, so
        # the probe must not be reported as saved work.
        assert not result.cached
        assert store.hits == 0 and store.misses == 1

    def test_per_seed_split_matches_whole_batch(self):
        """Fan-out splits non-lockstep jobs by seed without changing results.

        Without the kernel compiler even the original Pensieve network
        trains per seed, so its multi-seed job splits across two workers and
        must reproduce the whole serial batch.
        """
        trainer = _trainer("fcc")
        job = EvaluationJob(trainer=trainer, state_design=None,
                            network_design=None, seeds=(0, 1),
                            environment="fcc")
        assert not CampaignScheduler()._splits_without_cost(job)
        with nn.engine.using(nn.EngineConfig(
                dtype=nn.get_default_dtype(), compile=False)):
            assert CampaignScheduler()._splits_without_cost(job)
            whole = CampaignScheduler(
                ParallelConfig(max_workers=1)).run([job])[0]
            split = CampaignScheduler(
                ParallelConfig(max_workers=2)).run([job])[0]
        assert split.score == whole.score
        _assert_same_runs(split.runs, whole.runs)

    def test_context_memoization_tracks_dtype(self):
        """A dtype switch between runs must not serve a stale fingerprint."""
        trainer = _trainer("fcc")
        scheduler = CampaignScheduler()
        job = EvaluationJob(trainer=trainer, state_design=None,
                            network_design=None, seeds=(0,),
                            environment="fcc")
        with nn.default_dtype("float64"):
            float64_key = scheduler._context(job)
            assert scheduler._context(job) == float64_key  # memo hit
        with nn.default_dtype("float32"):
            assert scheduler._context(job) != float64_key

    def test_design_fingerprint_is_content_addressed(self):
        design_a = Design(kind="state", code=GOOD_STATE)
        design_b = Design(kind="state", code=GOOD_STATE)  # new id, same code
        design_c = Design(kind="state", code=OTHER_STATE)
        assert design_a.design_id != design_b.design_id
        assert design_fingerprint(design_a, None) == design_fingerprint(design_b, None)
        assert design_fingerprint(design_a, None) != design_fingerprint(design_c, None)
        assert design_fingerprint(None, None) != design_fingerprint(design_a, None)
        key = result_key("ctx", design_fingerprint(None, None), 0)
        assert key != result_key("ctx", design_fingerprint(None, None), 1)

    def test_early_stopping_jobs_bypass_store(self, tmp_path):
        trainer = _trainer("fcc")
        store = ResultStore(str(tmp_path))
        classifier = ObservantClassifier(stop_below=float("inf"))  # always stop
        job = EvaluationJob(trainer=trainer, state_design=None,
                            network_design=None, seeds=(0,),
                            early_stopping=classifier, environment="fcc")
        result = CampaignScheduler(store=store).run([job])[0]
        assert result.runs[0].early_stopped
        assert len(store) == 0 and store.hits == 0 and store.misses == 0


class TestEarlyStoppingOrderInvariance:
    """Satellite audit: classifier decisions are independent of job order."""

    @pytest.fixture(scope="class")
    def setup(self):
        trainer = _trainer("fcc")
        designs = [Design(kind="state", code=GOOD_STATE),
                   Design(kind="state", code=OTHER_STATE)]
        return trainer, designs

    def _evaluate(self, trainer, pairs, classifier):
        protocol = TestScoreProtocol(trainer, seeds=[0, 1])
        return protocol.run_many(pairs, early_stopping=classifier)

    def test_decisions_invariant_under_job_order(self, setup):
        trainer, designs = setup
        pairs = [(designs[0], None), (designs[1], None)]
        clf_forward = ObservantClassifier(stop_below=0.0)
        forward = self._evaluate(trainer, pairs, clf_forward)
        clf_reverse = ObservantClassifier(stop_below=0.0)
        reverse = self._evaluate(trainer, list(reversed(pairs)), clf_reverse)

        # Same per-design outcome regardless of execution order...
        for (score_f, runs_f), (score_r, runs_r) in zip(forward,
                                                        reversed(reverse)):
            assert score_f == score_r
            _assert_same_runs(runs_f, runs_r)
        # ...because each design's observed reward prefixes are identical.
        assert sorted(clf_forward.observed) == sorted(clf_reverse.observed)

    def test_fitted_classifier_state_is_never_mutated_by_decisions(self):
        rng = np.random.default_rng(0)
        classifier = RewardTrajectoryClassifier(
            EarlyStoppingConfig(reward_prefix_length=4, training_epochs=5))
        prefixes = rng.normal(size=(6, 4)).tolist()
        classifier.fit(prefixes, rng.normal(size=6).tolist())
        snapshot = (classifier.threshold, classifier._mean, classifier._std,
                    [p.data.copy() for p in classifier._model.parameters()])
        for prefix in prefixes:
            classifier.should_stop(prefix)
        assert classifier.threshold == snapshot[0]
        assert classifier._mean == snapshot[1]
        assert classifier._std == snapshot[2]
        for before, after in zip(snapshot[3],
                                 classifier._model.parameters()):
            np.testing.assert_array_equal(before, after.data)


class TestRegistrySchedules:
    """Satellite: Table 1 schedules are the wired-in per-environment defaults."""

    def test_evaluation_schedule_scales_published_values(self):
        spec = ENVIRONMENTS["fcc"]
        assert spec.evaluation_schedule() == (40_000, 500)
        assert spec.evaluation_schedule(0.001) == (40, 1)
        assert ENVIRONMENTS["starlink"].evaluation_schedule(0.01) == (40, 1)
        with pytest.raises(ValueError):
            spec.evaluation_schedule(0.0)

    def test_resolve_schedule_uses_registry_defaults(self):
        fcc_epochs, fcc_interval = resolve_schedule("fcc", None, None)
        spec = ENVIRONMENTS["fcc"]
        assert (fcc_epochs, fcc_interval) == \
            spec.evaluation_schedule(DEFAULT_SCHEDULE_SCALE)
        # Starlink's published budget is 10x shorter and now flows through.
        starlink_epochs, _ = resolve_schedule("starlink", None, None)
        assert starlink_epochs * 10 == fcc_epochs

    def test_explicit_flags_override_registry(self):
        assert resolve_schedule("fcc", 123, None)[0] == 123
        assert resolve_schedule("fcc", None, 7)[1] == 7
        assert resolve_schedule("starlink", 5, 2) == (5, 2)

    def test_for_environment_applies_schedule_scale(self):
        pipeline = NadaPipeline.for_environment(
            "starlink", config=NadaConfig(num_designs=2,
                                          use_early_stopping=False),
            dataset_scale=0.05, num_chunks=6, seed=0, schedule_scale=0.001)
        evaluation = pipeline.config.evaluation
        assert evaluation.train_epochs == 4       # 4,000 x 0.001
        assert evaluation.checkpoint_interval == 1
        assert evaluation.a2c.entropy_anneal_epochs == 2

    def test_cli_parses_registry_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.train_epochs is None
        assert args.checkpoint_interval is None
        assert args.schedule_scale == DEFAULT_SCHEDULE_SCALE
        args = build_parser().parse_args(["run", "--environment", "all"])
        assert args.environment == "all"


class TestCampaignCLI:
    def test_campaign_subcommand_sweeps_environments(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["campaign", "--environments", "fcc", "starlink",
                "--num-designs", "2", "--dataset-scale", "0.02",
                "--num-chunks", "6", "--train-epochs", "4",
                "--checkpoint-interval", "2", "--num-seeds", "1",
                "--no-early-stopping", "--store", str(store)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "FCC" in cold and "Starlink" in cold
        assert "misses" in cold

        # Replaying the identical campaign is served from the store.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm

    def test_campaign_all_expands_registry(self):
        args = build_parser().parse_args(["campaign"])
        assert args.environments == ["all"]
