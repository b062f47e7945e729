"""Command-line interface for the Nada reproduction.

The subcommands cover the common workflows:

``run``
    Run a Nada campaign in one of the paper's environments (or
    ``--environment all`` for every registered environment) and print the
    resulting summary and best design.

``campaign``
    Sweep several environments through one scheduled work-graph: every
    environment's evaluation jobs share the scheduler's worker pool and
    (optionally) one persistent result store, so repeated campaigns skip
    already-scored work.

``traces``
    Generate a synthetic trace dataset (train/test split) and write it to disk
    in Pensieve format (one ``.log`` file per trace).

``baselines``
    Evaluate the classic ABR baselines (and optionally a freshly trained
    original-Pensieve agent) on an environment's test traces.

``serve``
    Drive a policy through the event-driven fleet emulator under synthetic
    heavy traffic (configurable session count, arrival process and trace
    mix), answering each decision tick with one batched policy forward, and
    report decisions/sec, sessions/sec and p50/p95/p99 decision latency.
    ``--workers N`` splits the sessions over N shard processes (default: one
    per usable CPU); results are identical for every N.

``worker``
    Connect to a campaign coordinator (``--backend remote`` on ``run`` /
    ``campaign``) and pull evaluation jobs until told to stop.  Normally
    launched automatically as subprocesses by the coordinator; run it by
    hand to attach extra workers to a live campaign.

``report``
    Summarize a telemetry directory recorded with ``--telemetry DIR``: cache
    hit-rate, worker utilization, top time sinks, the compile fallback table
    and the slowest designs.  ``--trace out.json`` on a campaign additionally
    writes a Chrome-trace file loadable in Perfetto (https://ui.perfetto.dev).

``lint``
    Static analysis.  ``repro lint --self`` (the default) runs the repo
    contract linter over ``src/repro`` plus the design auditor's self-check
    corpus; ``repro lint --designs DIR`` audits every ``*.py`` design code
    block under DIR without executing it.  ``--json`` emits the structured
    findings instead of the rendered report.  Exit code 0 means clean.

Result tables and summaries print to stdout; progress commentary goes
through :mod:`repro.log` to stderr and is controlled by ``--verbose`` /
``--quiet`` on every subcommand.

Training schedules default to each environment's published Table 1 settings
(``EnvironmentSpec.train_epochs`` / ``test_interval``) scaled by
``--schedule-scale``, so Starlink trains under its own 10x-shorter budget
while FCC/4G/5G use theirs; explicit ``--train-epochs`` /
``--checkpoint-interval`` flags override the registry.

Invoke via ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .abr import make_baseline, run_session, synthetic_video
from .analysis import render_table
from .core import (CampaignScheduler, EvaluationConfig, NadaCampaign,
                   NadaConfig, NadaPipeline, NoWorkersError, ParallelConfig,
                   RemoteConfig, RemoteExecutor, ResultStore, faults,
                   telemetry)
from .log import configure as configure_logging, get_logger
from .rl import A2CConfig
from .traces import ENVIRONMENTS, build_dataset, list_environments, save_traceset

__all__ = ["main", "build_parser", "resolve_schedule"]

logger = get_logger("cli")

#: Default fraction of the published Table 1 schedule used by the CLI.  At
#: this scale the FCC/4G/5G epoch budget lands on 60 training epochs and
#: Starlink on its proportionally shorter budget.  The checkpoint cadence
#: follows the published epochs/interval ratio too (at this scale: a
#: checkpoint every epoch), which evaluates more checkpoints per run than
#: the old hardcoded interval of 15 did — pass --checkpoint-interval to
#: override.
DEFAULT_SCHEDULE_SCALE = 0.0015


def resolve_schedule(environment: str,
                     train_epochs: Optional[int],
                     checkpoint_interval: Optional[int],
                     schedule_scale: float = DEFAULT_SCHEDULE_SCALE,
                     ) -> Tuple[int, int]:
    """Per-environment (epochs, checkpoint interval), registry-backed.

    Explicit values win; anything left ``None`` falls back to the
    environment's published schedule scaled by ``schedule_scale``.
    """
    spec = ENVIRONMENTS[environment.lower()]
    default_epochs, default_interval = spec.evaluation_schedule(schedule_scale)
    return (train_epochs if train_epochs is not None else default_epochs,
            checkpoint_interval if checkpoint_interval is not None
            else default_interval)


def _positive_float(raw: str) -> float:
    value = float(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {raw!r}")
    return value


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    """``--verbose``/``--quiet``, shared by every subcommand."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="show debug-level progress on stderr")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="suppress progress commentary (warnings only); "
                            "result tables still print to stdout")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine configuration (:class:`repro.nn.EngineConfig`) flags."""
    parser.add_argument("--dtype", choices=["float32", "float64"],
                        default="float64",
                        help="tensor dtype: float64 (accuracy-first default) "
                             "or float32 (fast path)")
    parser.add_argument("--no-compile", action="store_true",
                        help="disable the fused-kernel compiler; every "
                             "network then runs through the autograd graph "
                             "reference path (the escape hatch when "
                             "debugging a design)")


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``run`` and ``campaign`` subcommands."""
    parser.add_argument("--target", choices=["state", "network", "both"],
                        default="state")
    parser.add_argument("--llm", choices=["gpt-3.5", "gpt-4"], default="gpt-4",
                        help="synthetic LLM profile to use")
    parser.add_argument("--num-designs", type=int, default=10)
    parser.add_argument("--train-epochs", type=int, default=None,
                        help="training episodes per seed; defaults to the "
                             "environment's Table 1 schedule scaled by "
                             "--schedule-scale")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        help="episodes between checkpoint evaluations; "
                             "defaults to the environment's Table 1 test "
                             "interval scaled by --schedule-scale")
    parser.add_argument("--schedule-scale", type=_positive_float,
                        default=DEFAULT_SCHEDULE_SCALE,
                        help="fraction of the published per-environment "
                             "training schedule used when --train-epochs/"
                             "--checkpoint-interval are not given")
    parser.add_argument("--num-seeds", type=int, default=2)
    parser.add_argument("--num-chunks", type=int, default=16)
    parser.add_argument("--dataset-scale", type=float, default=0.05,
                        help="fraction of the published dataset size to generate")
    parser.add_argument("--no-early-stopping", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the scheduler's "
                             "fan-out of (design, environment, seed) work "
                             "items; -1 uses every CPU, 1 runs serially")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries for a job that raises, times out or "
                             "loses its worker before it is quarantined; the "
                             "campaign completes without quarantined jobs "
                             "and exits non-zero")
    parser.add_argument("--job-timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="revoke and retry a job whose worker has held "
                             "it longer than this, replacing the worker when "
                             "the campaign launched it; enforced with "
                             "--workers > 1 and with --backend remote (a "
                             "serial in-process job cannot be preempted)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject deterministic faults for resilience "
                             "testing: comma-separated "
                             "'site[:match[:times[:delay]]]' elements and an "
                             "optional 'seed=N' (sites: job.exception, "
                             "job.crash, job.timeout, job.interrupt, "
                             "store.torn_write, store.lease_hold, "
                             "rpc.conn_drop, rpc.heartbeat_loss, "
                             "rpc.result_delay)")
    parser.add_argument("--backend", choices=["local", "remote"],
                        default="local",
                        help="job execution transport: 'local' (--workers "
                             "processes forked per batch onto a loopback "
                             "coordinator) or 'remote' (one TCP coordinator "
                             "for the campaign serving pulled jobs to "
                             "forked local workers and any 'repro worker' "
                             "that dials in, with heartbeats and "
                             "work-stealing)")
    parser.add_argument("--remote-workers", type=int, default=2,
                        help="local workers forked for --backend remote")
    parser.add_argument("--remote-port", type=int, default=0,
                        help="coordinator TCP port for --backend remote "
                             "(0 picks a free port); extra workers can join "
                             "with 'repro worker --connect host:port'")
    parser.add_argument("--remote-fallback", choices=["local", "fail"],
                        default="local",
                        help="what --backend remote does when every worker "
                             "is lost past the deadline: finish the batch "
                             "locally, or fail with a resume-from-store "
                             "message (exit code 3)")
    parser.add_argument("--remote-deadline", type=_positive_float,
                        default=30.0, metavar="SECONDS",
                        help="how long --backend remote tolerates an empty "
                             "worker pool before applying --remote-fallback")
    _add_engine_flags(parser)
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result-store directory; repeated or "
                             "interrupted campaigns reuse every already-"
                             "scored (design, environment, seed) record")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="record structured telemetry (spans, counters, "
                             "training-metric series) as JSON lines under "
                             "DIR; summarize with 'repro report DIR'")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome-trace JSON of the campaign to "
                             "PATH (load it at https://ui.perfetto.dev)")
    _add_logging_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nada (HotNets 2024) reproduction: LLM-driven network "
                    "algorithm design for ABR streaming.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run a Nada design campaign")
    run.add_argument("--environment", choices=list_environments() + ["all"],
                     default="fcc",
                     help="network environment; 'all' sweeps the full trace "
                          "registry through one scheduled campaign")
    _add_campaign_flags(run)
    run.add_argument("--show-code", action="store_true",
                     help="print the best design's source code")

    campaign = subparsers.add_parser(
        "campaign",
        help="sweep several environments through one scheduled work-graph")
    campaign.add_argument("--environments", nargs="+", default=["all"],
                          choices=list_environments() + ["all"],
                          help="environments to sweep (default: the full "
                               "registry)")
    _add_campaign_flags(campaign)

    traces = subparsers.add_parser("traces", help="generate a trace dataset")
    traces.add_argument("--environment", choices=list_environments(),
                        default="fcc")
    traces.add_argument("--scale", type=float, default=0.1)
    traces.add_argument("--seed", type=int, default=0)
    traces.add_argument("--output", required=True,
                        help="directory for the generated .log trace files")
    _add_logging_flags(traces)

    baselines = subparsers.add_parser(
        "baselines", help="evaluate classic ABR baselines on an environment")
    baselines.add_argument("--environment", choices=list_environments(),
                           default="fcc")
    baselines.add_argument("--dataset-scale", type=float, default=0.05)
    baselines.add_argument("--num-chunks", type=int, default=16)
    baselines.add_argument("--seed", type=int, default=0)
    baselines.add_argument("--policies", nargs="+",
                           default=["bba", "rate_based", "bola", "mpc"])
    _add_logging_flags(baselines)

    serve = subparsers.add_parser(
        "serve",
        help="drive a policy through the fleet emulator under synthetic "
             "heavy traffic and report serving throughput/latency")
    serve.add_argument("--environment", choices=list_environments(),
                       default="fcc",
                       help="trace registry environment supplying the mix")
    serve.add_argument("--sessions", type=int, default=256,
                       help="number of concurrent virtual players")
    serve.add_argument("--arrival", choices=["instant", "uniform", "poisson"],
                       default="poisson",
                       help="session arrival process on the virtual timeline")
    serve.add_argument("--arrival-rate", type=_positive_float, default=50.0,
                       help="session arrivals per virtual second "
                            "(uniform/poisson)")
    serve.add_argument("--batch-window", type=float, default=0.25,
                       help="virtual-time window (s) batched into one policy "
                            "forward; 0 disables batching across sessions")
    serve.add_argument("--max-batch", type=int, default=4096,
                       help="upper bound on decisions per batched tick")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="shards (processes) the fleet is split over; "
                            "default: the CPUs this process may use, capped "
                            "at --sessions (1 runs in-process)")
    serve.add_argument("--stochastic", action="store_true",
                       help="sample actions from the policy distribution "
                            "instead of greedy argmax")
    serve.add_argument("--sample-seed", type=int, default=0,
                       help="base seed of the per-session action-sampling "
                            "generators (with --stochastic)")
    serve.add_argument("--dataset-scale", type=float, default=0.05)
    serve.add_argument("--num-chunks", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the trace mix and policy weights")
    _add_engine_flags(serve)
    serve.add_argument("--json", action="store_true",
                       help="emit the serving metrics as JSON instead of the "
                            "rendered summary")
    serve.add_argument("--telemetry", metavar="DIR", default=None,
                       help="record serve.* spans/counters under DIR "
                            "(summarize with 'repro report DIR')")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Chrome-trace JSON of the fleet run")
    _add_logging_flags(serve)

    worker = subparsers.add_parser(
        "worker",
        help="connect to a campaign coordinator and pull evaluation jobs "
             "(normally launched by --backend remote itself)")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's listening address")
    _add_logging_flags(worker)

    report = subparsers.add_parser(
        "report", help="summarize a telemetry directory recorded with "
                       "--telemetry")
    report.add_argument("directory",
                        help="telemetry directory (events-*.jsonl files)")
    report.add_argument("--top", type=int, default=8,
                        help="rows per ranked section (time sinks, designs)")
    report.add_argument("--json", action="store_true",
                        help="emit the machine-readable summary instead of "
                             "the rendered report")
    _add_logging_flags(report)

    lint = subparsers.add_parser(
        "lint", help="statically audit design files or lint the repo itself")
    what = lint.add_mutually_exclusive_group()
    what.add_argument("--designs", metavar="DIR", default=None,
                      help="audit every *.py design code block under DIR "
                           "(blocks defining build_network audit as network "
                           "designs, the rest as state designs); nothing is "
                           "executed")
    what.add_argument("--self", action="store_true", dest="self_check",
                      help="lint src/repro against the repo contracts (RNG "
                           "discipline, store-key completeness, pool "
                           "picklability, telemetry no-op paths) and run the "
                           "auditor's self-check corpus [default]")
    lint.add_argument("--json", action="store_true",
                      help="emit structured findings as JSON instead of the "
                           "rendered report")
    _add_logging_flags(lint)
    return parser


def _campaign_config(args: argparse.Namespace, environment: str) -> NadaConfig:
    """Build the NadaConfig for one environment from parsed CLI flags."""
    train_epochs, checkpoint_interval = resolve_schedule(
        environment, args.train_epochs, args.checkpoint_interval,
        args.schedule_scale)
    return NadaConfig(
        target=args.target,
        num_designs=args.num_designs,
        llm=args.llm,
        evaluation=EvaluationConfig(
            train_epochs=train_epochs,
            checkpoint_interval=checkpoint_interval,
            last_k_checkpoints=max(1, min(10, train_epochs
                                          // max(checkpoint_interval, 1))),
            num_seeds=args.num_seeds,
            a2c=A2CConfig(entropy_anneal_epochs=max(train_epochs // 2, 1)),
        ),
        use_early_stopping=not args.no_early_stopping,
        seed=args.seed,
        workers=args.workers,
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        store_dir=args.store,
        telemetry_dir=args.telemetry,
    )


def _apply_engine_flags(args: argparse.Namespace) -> None:
    """Install the engine configuration ``--dtype``/``--no-compile`` pick."""
    nn.engine.install(nn.EngineConfig(dtype=args.dtype,
                                      compile=not args.no_compile))


def _install_faults(args: argparse.Namespace) -> None:
    """Activate the ``--faults`` plan for chaos/resilience testing."""
    if getattr(args, "faults", None):
        faults.install_plan(faults.FaultPlan.from_spec(args.faults))
        logger.warning("fault injection active: %s", args.faults)


def _report_failures(scheduler) -> int:
    """Print the quarantined-job table to stderr; non-zero when any failed."""
    summary = scheduler.failure_summary() if scheduler is not None else None
    if summary is None:
        return 0
    print(summary, file=sys.stderr)
    return 1


def _start_telemetry(args: argparse.Namespace) -> Optional[telemetry.Telemetry]:
    """Activate telemetry when ``--telemetry`` or ``--trace`` asks for it."""
    if args.telemetry or args.trace:
        return telemetry.enable(args.telemetry)
    return None


def _finish_telemetry(args: argparse.Namespace,
                      sink: Optional[telemetry.Telemetry]) -> None:
    """Flush event files and write the Chrome trace after a campaign."""
    if sink is None:
        return
    if sink.directory:
        path = sink.flush()
        logger.info("telemetry: %d events in %s (summarize with "
                    "'repro report %s')", len(sink.events), path,
                    sink.directory)
    if args.trace:
        telemetry.write_chrome_trace(sink.events, args.trace)
        logger.info("telemetry: Chrome trace written to %s "
                    "(load at https://ui.perfetto.dev)", args.trace)
    # The CLI owns the session it started: later invocations in the same
    # process (tests, notebooks) must not inherit an active sink.
    telemetry.disable()


def _build_remote_scheduler(args: argparse.Namespace,
                            store: Optional[ResultStore]
                            ) -> Tuple[Optional[CampaignScheduler],
                                       Optional[RemoteExecutor]]:
    """The (scheduler, executor) pair for ``--backend remote``, else Nones.

    Mirrors the :class:`ParallelConfig` the pipeline would build itself.
    Local fan-out runs on the same coordinator, so retries, backoff and the
    ``--job-timeout`` assignment deadline behave identically on both
    backends.  The executor's local workers are launched immediately, so
    they have dialed in by the time the first batch is dispatched.
    """
    if getattr(args, "backend", "local") != "remote":
        return None, None
    executor = RemoteExecutor(RemoteConfig(
        port=args.remote_port,
        fallback=args.remote_fallback,
        worker_deadline_s=args.remote_deadline))
    executor.launch_workers(args.remote_workers)
    scheduler = CampaignScheduler(
        parallel=ParallelConfig(max_workers=args.workers,
                                max_retries=args.max_retries,
                                job_timeout=args.job_timeout),
        store=store, executor=executor)
    host, port = executor.address
    logger.info("remote backend: coordinator on %s:%d, %d local "
                "worker(s) (attach more with "
                "'repro worker --connect %s:%d')",
                host, port, args.remote_workers, host, port)
    return scheduler, executor


def _run_campaign(args: argparse.Namespace, environments: List[str]) -> int:
    """Sweep the named environments through one scheduled work-graph."""
    _apply_engine_flags(args)
    _install_faults(args)
    sink = _start_telemetry(args)
    store = ResultStore(args.store) if args.store else None
    scheduler, executor = _build_remote_scheduler(args, store)
    pipelines = {}
    for environment in environments:
        pipeline = NadaPipeline.for_environment(
            environment, config=_campaign_config(args, environment),
            dataset_scale=args.dataset_scale, num_chunks=args.num_chunks,
            seed=args.seed, scheduler=scheduler, store=store)
        # Every environment shares the first pipeline's scheduler (and with
        # it the worker pool and result store).
        scheduler = pipeline.scheduler
        pipelines[environment] = pipeline
    campaign = NadaCampaign(pipelines, scheduler=scheduler)
    logger.info("running Nada campaign on %s (target=%s, llm=%s, "
                "designs=%d/component, backend=%s, workers=%s)",
                ", ".join(environments), args.target, args.llm,
                args.num_designs, getattr(args, "backend", "local"),
                args.workers)
    try:
        result = campaign.run()
    except KeyboardInterrupt:
        logger.warning("campaign interrupted; completed results were "
                       "persisted and the next run resumes from the store")
        _report_failures(scheduler)
        _finish_telemetry(args, sink)
        return 130
    except NoWorkersError as exc:
        logger.error("%s", exc)
        logger.error("completed results were persisted%s; re-run the same "
                     "command to resume from the store",
                     f" to {args.store}" if args.store else "")
        _report_failures(scheduler)
        _finish_telemetry(args, sink)
        return 3
    finally:
        faults.clear_plan()
        if executor is not None:
            executor.close()
    print(result.summary())
    if getattr(args, "show_code", False):
        for environment in environments:
            best = result[environment].best_design
            if best is not None:
                print(f"\n# best design for {environment} ({best.design_id})")
                print(best.code)
    if store is not None:
        stats = store.statistics()
        print()
        print(f"result store      : {stats['records']} records "
              f"({stats['hits']} hits, {stats['misses']} misses this run)")
    _finish_telemetry(args, sink)
    return _report_failures(scheduler)


def _command_run(args: argparse.Namespace) -> int:
    if args.environment == "all":
        return _run_campaign(args, list_environments())
    _apply_engine_flags(args)
    _install_faults(args)
    sink = _start_telemetry(args)
    config = _campaign_config(args, args.environment)
    store = (ResultStore(args.store)
             if args.store and args.backend == "remote" else None)
    scheduler, executor = _build_remote_scheduler(args, store)
    pipeline = NadaPipeline.for_environment(
        args.environment, config=config, dataset_scale=args.dataset_scale,
        num_chunks=args.num_chunks, seed=args.seed, scheduler=scheduler,
        store=store)
    logger.info("running Nada on %s (target=%s, llm=%s, designs=%d, "
                "epochs=%d)", args.environment, args.target, args.llm,
                args.num_designs, config.evaluation.train_epochs)
    try:
        result = pipeline.run()
    except KeyboardInterrupt:
        logger.warning("campaign interrupted; completed results were "
                       "persisted and the next run resumes from the store")
        _report_failures(pipeline.scheduler)
        _finish_telemetry(args, sink)
        return 130
    except NoWorkersError as exc:
        logger.error("%s", exc)
        logger.error("completed results were persisted%s; re-run the same "
                     "command to resume from the store",
                     f" to {args.store}" if args.store else "")
        _report_failures(pipeline.scheduler)
        _finish_telemetry(args, sink)
        return 3
    finally:
        faults.clear_plan()
        if executor is not None:
            executor.close()
    print(result.summary())
    if args.show_code and result.best_design is not None:
        print()
        print(result.best_design.code)
    _finish_telemetry(args, sink)
    return _report_failures(pipeline.scheduler)


def _command_campaign(args: argparse.Namespace) -> int:
    environments = list(args.environments)
    if "all" in environments:
        environments = list_environments()
    # Preserve CLI order while dropping duplicates.
    seen = set()
    environments = [env for env in environments
                    if not (env in seen or seen.add(env))]
    return _run_campaign(args, environments)


def _command_traces(args: argparse.Namespace) -> int:
    train, test = build_dataset(args.environment, seed=args.seed, scale=args.scale)
    train_dir = os.path.join(args.output, "train")
    test_dir = os.path.join(args.output, "test")
    save_traceset(train, train_dir)
    save_traceset(test, test_dir)
    logger.info("wrote %d training traces to %s", len(train), train_dir)
    logger.info("wrote %d test traces to %s", len(test), test_dir)
    print(f"mean throughput: train {train.mean_throughput_mbps:.2f} Mbps, "
          f"test {test.mean_throughput_mbps:.2f} Mbps")
    return 0


def _command_baselines(args: argparse.Namespace) -> int:
    spec = ENVIRONMENTS[args.environment]
    _, test = build_dataset(args.environment, seed=args.seed,
                            scale=args.dataset_scale)
    video = synthetic_video(spec.bitrate_ladder, num_chunks=args.num_chunks,
                            seed=args.seed)
    rows = []
    for name in args.policies:
        scores = []
        for trace in test:
            policy = make_baseline(name)
            scores.append(run_session(policy, video, trace).mean_reward)
        rows.append([name, f"{float(np.mean(scores)):.3f}"])
    print(render_table(["baseline", "mean QoE per chunk"], rows,
                       title=f"{spec.display_name} test traces "
                             f"({len(test)} traces, {video.num_chunks} chunks)"))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import hashlib
    import json as json_module

    from .core.evaluation import instantiate_agent
    from .emulation import Fleet, FleetConfig

    if args.sessions < 1:
        logger.error("--sessions must be at least 1")
        return 1
    _apply_engine_flags(args)
    sink = _start_telemetry(args)
    spec = ENVIRONMENTS[args.environment]
    _, test = build_dataset(args.environment, seed=args.seed,
                            scale=args.dataset_scale)
    video = synthetic_video(spec.bitrate_ladder, num_chunks=args.num_chunks,
                            seed=args.seed)
    agent = instantiate_agent(None, None, video, test, seed=args.seed)
    config = FleetConfig(
        arrival_process=args.arrival,
        arrival_rate_per_s=args.arrival_rate,
        batch_window_s=args.batch_window,
        max_batch=args.max_batch,
        workers=args.workers,
    )
    fleet = Fleet(video, list(test), config=config)
    logger.info("serving %d sessions over %d %s traces "
                "(arrival=%s, batch window=%.3fs)",
                args.sessions, len(test), spec.display_name, args.arrival,
                args.batch_window)
    result = fleet.run(agent, args.sessions, greedy=not args.stochastic,
                       sample_seed=args.sample_seed)
    metrics = result.metrics
    # Every session's action sequence, by value: equal across --workers.
    actions = [[record.bitrate_index for record in session.records]
               for session in result.sessions]
    payload = {
        "environment": args.environment,
        "traces": len(test),
        "arrival_process": args.arrival,
        "greedy": not args.stochastic,
        "mean_qoe_per_chunk": result.mean_reward,
        "actions_sha256": hashlib.sha256(
            json_module.dumps(actions).encode("utf-8")).hexdigest(),
        "metrics": metrics.to_dict(),
    }
    if args.json:
        print(json_module.dumps(payload, indent=2))
    else:
        rows = [
            ["sessions", f"{metrics.num_sessions}"],
            ["decisions", f"{metrics.num_decisions}"],
            ["ticks (batched forwards)", f"{metrics.num_ticks}"],
            ["mean / max batch", f"{metrics.mean_batch_size:.1f} / "
                                 f"{metrics.max_batch_size}"],
            ["wall time", f"{metrics.wall_s:.3f} s"],
            ["shards (imbalance, CPU share)",
             f"{metrics.shards} ({metrics.shard_imbalance:.2f}, "
             f"{metrics.shard_cpu_share:.2f})"],
            ["decide / emulate time", f"{metrics.decide_s:.3f} s / "
                                      f"{metrics.emulate_s:.3f} s"
                                      + (f" (summed over {metrics.shards} "
                                         "shards)" if metrics.shards > 1
                                         else "")],
            ["decisions/s", f"{metrics.decisions_per_s:,.0f}"],
            ["sessions/s", f"{metrics.sessions_per_s:,.1f}"],
            ["decision latency p50", f"{metrics.p50_decision_latency_s * 1e3:.3f} ms"],
            ["decision latency p95", f"{metrics.p95_decision_latency_s * 1e3:.3f} ms"],
            ["decision latency p99", f"{metrics.p99_decision_latency_s * 1e3:.3f} ms"],
            ["mean QoE per chunk", f"{result.mean_reward:.3f}"],
        ]
        print(render_table(["metric", "value"], rows,
                           title=f"repro serve: {args.sessions} sessions on "
                                 f"{spec.display_name} "
                                 f"({len(test)} traces, {args.arrival} "
                                 f"arrivals)"))
    _finish_telemetry(args, sink)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .core.distributed import run_worker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        logger.error("--connect expects HOST:PORT, got %r", args.connect)
        return 2
    return run_worker(host, int(port))


def _command_report(args: argparse.Namespace) -> int:
    import json as json_module

    try:
        events = telemetry.load_events(args.directory)
    except FileNotFoundError as exc:
        logger.error("%s", exc)
        return 1
    if not events:
        logger.error("no telemetry events found in %s", args.directory)
        return 1
    if args.json:
        print(json_module.dumps(telemetry.summarize(events), indent=2))
    else:
        print(telemetry.render_report(events, top=args.top))
    return 0


def _audit_design_directory(directory: str):
    """Audit every ``*.py`` file under ``directory``; returns result dicts."""
    from .analysis.staticcheck import audit_design

    paths = sorted(glob.glob(os.path.join(directory, "**", "*.py"),
                             recursive=True))
    results = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            code = handle.read()
        kind = "network" if "def build_network" in code else "state"
        report = audit_design(code, kind)
        entry = report.to_dict()
        entry["file"] = os.path.relpath(path, directory)
        results.append(entry)
    return results


def _command_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from .analysis.staticcheck import lint_repo, run_selfcheck_corpus

    if args.designs:
        if not os.path.isdir(args.designs):
            logger.error("no such directory: %s", args.designs)
            return 1
        results = _audit_design_directory(args.designs)
        if not results:
            logger.error("no *.py design files under %s", args.designs)
            return 1
        failed = [r for r in results if not r["passed"]]
        if args.json:
            print(json_module.dumps({"designs": results}, indent=2))
        else:
            for entry in results:
                status = "ok" if entry["passed"] else "REJECTED"
                extra = (f" [{entry['lowerability']['verdict']}]"
                         if entry.get("lowerability") else "")
                print(f"{entry['file']}: {status} ({entry['kind']}){extra}")
                for finding in entry["findings"]:
                    print(f"  [{finding['severity']}] {finding['rule']} "
                          f"(line {finding['line']}): {finding['message']}")
            print(f"\n{len(results) - len(failed)}/{len(results)} design "
                  f"blocks pass the static audit")
        return 1 if failed else 0

    # --self (the default): repo contracts + the auditor's own corpus.
    contract_findings = lint_repo()
    ok, messages = run_selfcheck_corpus()
    errors = [f for f in contract_findings if f.severity == "error"]
    clean = not errors and ok
    if args.json:
        print(json_module.dumps({
            "contracts": [f.to_dict() for f in contract_findings],
            "selfcheck": {"ok": ok, "messages": messages},
            "clean": clean,
        }, indent=2))
    else:
        for finding in contract_findings:
            print(finding.render())
        for message in messages:
            print(f"selfcheck: {message}")
        print(f"contract linter : {len(contract_findings)} finding(s), "
              f"{len(errors)} error(s)")
        print(f"auditor corpus  : {'ok' if ok else 'FAILED'}")
    return 0 if clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if getattr(args, "quiet", False)
                      else getattr(args, "verbose", 0))
    handlers = {
        "run": _command_run,
        "campaign": _command_campaign,
        "traces": _command_traces,
        "baselines": _command_baselines,
        "serve": _command_serve,
        "worker": _command_worker,
        "report": _command_report,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
