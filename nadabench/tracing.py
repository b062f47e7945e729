"""Per-layer spans recorded from the benchmark's side of the program boundary.

A :class:`Tracer` wraps public functions of the program's modules (the
target tables below), keeps a per-thread span stack, and accumulates each
bucket's *self* time — a span's duration minus the part its child spans
cover — plus call counts and a few counts read from arguments and results.
:meth:`Tracer.patched` restores every attribute it replaced on exit, so the
untraced runs execute the program's own functions.

Module-level functions are often imported by name into other modules
(``from ..abr.state import original_states_batched``); the tracer patches
every ``repro.*`` module attribute bound to the same function object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Call:
    """One finished traced call, handed to a target's hook."""

    args: tuple
    kwargs: dict
    result: Any
    start_ts: float
    elapsed: float
    token: Any = None


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` + dotted ``path``, timed into ``bucket``.

    ``bucket=None`` counts without timing (the call's time stays with its
    parent span).  ``hook(tracer, call)`` runs after a successful call;
    ``before(args, kwargs)`` computes a token the hook receives.
    """

    module: str
    path: str
    bucket: Optional[str]
    hook: Optional[Callable[["Tracer", Call], None]] = None
    before: Optional[Callable[[tuple, dict], Any]] = None


# --------------------------------------------------------------------------- #
# Hooks: counts read where the work happens.
# --------------------------------------------------------------------------- #
def _count(name: str, value: Callable[[Call], float]):
    def hook(tracer: "Tracer", call: Call) -> None:
        tracer.counts[name] += value(call)
    return hook


def _state_rows(call: Call) -> float:
    out = call.result
    return out.size // (out.shape[-2] * out.shape[-1])


def _filter_report(tracer: "Tracer", call: Call) -> None:
    report = call.result
    tracer.counts["filters.generated"] += report.total
    tracer.counts["filters.passed"] += report.well_normalized
    tracer.counts["filters.audit_rejects"] += report.rejected_by_audit


def _should_stop(tracer: "Tracer", call: Call) -> None:
    if call.result:
        tracer.counts["early_stop.stopped_seeds"] += 1
        tracer.counts["early_stop.prefix_epochs"] += len(call.args[1])


def _stage_two_designs(tracer: "Tracer", call: Call) -> None:
    early = (call.args[2] if len(call.args) > 2
             else call.kwargs.get("early_stopping"))
    if early is not None:
        tracer.counts["early_stop.stage2_designs"] += len(call.args[1])


def _plan_cached(args: tuple, kwargs: dict) -> bool:
    return args[0].__dict__.get("_compile_cache") is not None


def _plan_outcome(tracer: "Tracer", call: Call) -> None:
    if not call.token:  # a fresh lowering attempt, not a cache hit
        outcome = "lowered" if call.result is not None else "fallback"
        tracer.counts[f"compile.{outcome}"] += 1


def _executor_call(items_at: int):
    def hook(tracer: "Tracer", call: Call) -> None:
        tracer.executor_calls.append((call.start_ts, call.elapsed,
                                      list(call.args[items_at]),
                                      list(call.result)))
    return hook


# --------------------------------------------------------------------------- #
# Target tables.
# --------------------------------------------------------------------------- #
#: Campaign-level layers, which run in the coordinating process under every
#: backend.
CAMPAIGN_TARGETS: List[Target] = [
    Target("repro.core.generation", "DesignGenerator.generate", "generation",
           _count("generation.designs", lambda c: len(c.result))),
    Target("repro.core.generation", "DesignGenerator.populate_pool",
           "generation"),
    Target("repro.llm.synthetic", "SyntheticLLM.complete", "generation"),
    Target("repro.llm.synthetic", "SyntheticLLM.generate_design",
           "generation"),
    Target("repro.core.filters", "FilterPipeline.apply", "filters",
           _filter_report),
    Target("repro.core.filters", "AuditCheck.check", "filters"),
    Target("repro.core.filters", "CompilationCheck.check", "filters"),
    Target("repro.core.filters", "NormalizationCheck.check", "filters"),
    Target("repro.core.early_stopping", "RewardTrajectoryClassifier.fit",
           "early_stop"),
    Target("repro.core.evaluation", "TestScoreProtocol.design_jobs", None,
           _stage_two_designs),
    Target("repro.core.scheduler", "CampaignScheduler.run", "scheduler",
           _count("scheduler.jobs", lambda c: len(c.args[1]))),
    Target("repro.core.parallel", "run_resilient", "executor",
           _executor_call(1)),
    Target("repro.core.distributed", "RemoteExecutor.run", "executor",
           _executor_call(2)),
    Target("repro.core.results", "ResultStore.put_run", "store.put"),
    Target("repro.core.results", "ResultStore.peek_run", "store.peek"),
    Target("repro.core.results", "ResultStore.claim", "store.claim"),
]

#: Layers inside a training job (rl.a2c and below) plus the early-stopping
#: decisions taken there; ``DesignTrainer.run_seeds`` is the job root.
JOB_TARGETS: List[Target] = [
    Target("repro.core.evaluation", "DesignTrainer.run_seeds", "root"),
    Target("repro.core.early_stopping",
           "RewardTrajectoryClassifier.should_stop", "early_stop",
           _should_stop),
    Target("repro.core.early_stopping", "RewardTrajectoryClassifier.decide",
           "early_stop"),
    Target("repro.core.early_stopping",
           "RewardTrajectoryClassifier.predict_scores", "early_stop"),
    Target("repro.rl.a2c", "A2CTrainer.train_epoch", "train",
           _count("train.seed_epochs", lambda c: 1)),
    Target("repro.rl.a2c", "MultiSeedA2CTrainer.train_epoch", "train",
           _count("train.seed_epochs", lambda c: len(c.result))),
    Target("repro.rl.a2c", "evaluate_agent", "eval"),
    Target("repro.rl.a2c", "evaluate_agent_batched", "eval"),
    Target("repro.rl.a2c", "MultiSeedA2CTrainer.evaluate_checkpoint", "eval"),
    Target("repro.nn.compile", "plan_for", "compile.plan", _plan_outcome,
           _plan_cached),
    Target("repro.nn.compile", "CompiledPlan.policy_probs", "infer.compiled"),
    Target("repro.nn.compile", "CompiledPlan.policy_probs_batch",
           "infer.compiled"),
    Target("repro.nn.compile", "_ActorInference.probs", "infer.compiled"),
    Target("repro.nn.compile", "CompiledSeedStack.policy_probs",
           "infer.compiled"),
    Target("repro.abr.networks", "GenericActorCritic.policy_probs",
           "infer.compiled"),
    Target("repro.nn.compile", "CompiledPlan.fused_forward",
           "update.compiled"),
    Target("repro.nn.compile", "CompiledPlan.fused_backward",
           "update.compiled"),
    Target("repro.nn.compile", "CompiledSeedStack.fused_forward",
           "update.compiled"),
    Target("repro.nn.compile", "CompiledSeedStack.fused_backward",
           "update.compiled"),
    Target("repro.abr.networks", "GenericActorCritic.fused_forward",
           "update.compiled"),
    Target("repro.abr.networks", "GenericActorCritic.fused_backward",
           "update.compiled"),
    Target("repro.nn.optim", "SGD.step", "optim.step"),
    Target("repro.nn.optim", "RMSProp.step", "optim.step"),
    Target("repro.nn.optim", "Adam.step", "optim.step"),
    Target("repro.nn.optim", "StackedSGD.step", "optim.step"),
    Target("repro.nn.optim", "StackedRMSProp.step", "optim.step"),
    Target("repro.nn.optim", "StackedAdam.step", "optim.step"),
    Target("repro.nn.optim", "clip_grad_norm", "optim.clip"),
    Target("repro.nn.optim", "clip_grad_norm_stacked", "optim.clip"),
]

#: Layers shared by training and serving: simulator, state, Pensieve engine.
ENGINE_TARGETS: List[Target] = [
    Target("repro.abr.env", "StreamingSession.step", "sim.step"),
    Target("repro.abr.state", "original_states_batched", "state.build",
           _count("state.rows", _state_rows)),
    Target("repro.abr.state", "original_states_gathered", "state.build",
           _count("state.rows", _state_rows)),
    Target("repro.rl.agent", "ABRAgent.state_of", "state.build",
           _count("state.rows", lambda c: 1)),
    Target("repro.abr.networks", "PensieveNetwork.policy_probs",
           "infer.pensieve"),
    Target("repro.abr.networks", "PensieveSeedStack.policy_probs",
           "infer.pensieve"),
    Target("repro.abr.networks", "_SeedActorForward.probs", "infer.pensieve"),
    Target("repro.abr.networks", "PensieveNetwork.fused_forward",
           "update.pensieve"),
    Target("repro.abr.networks", "PensieveNetwork.fused_backward",
           "update.pensieve"),
    Target("repro.abr.networks", "PensieveSeedStack.fused_forward",
           "update.pensieve"),
    Target("repro.abr.networks", "PensieveSeedStack.fused_backward",
           "update.pensieve"),
]

#: The emulation stack of ``Fleet.run`` (the root of a serving trace).
SERVE_TARGETS: List[Target] = [
    Target("repro.emulation.fleet", "Fleet.run", "root"),
    Target("repro.emulation.player", "DashPlayer.step", "player",
           _count("player.steps", lambda c: 1)),
    Target("repro.emulation.player", "DashPlayer.observe", "player"),
    Target("repro.emulation.http", "HTTPClient.get", "player"),
    Target("repro.emulation.tcp", "TCPConnection.transfer", "player"),
    Target("repro.emulation.link", "PacketDeliveryLink.time_to_deliver",
           "link"),
]


# --------------------------------------------------------------------------- #
class Tracer:
    """Accumulates self time, inclusive time and calls per bucket."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (start epoch s, seconds, work items, outcomes) per executor call.
        self.executor_calls: List[Tuple[float, float, list, list]] = []
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        bucket, hook, before = target.bucket, target.hook, target.before

        if bucket is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self, Call(args, kwargs, result, 0.0, 0.0))
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = self._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start_ts = time.time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[bucket] += elapsed - frame[0]
                self.total_s[bucket] += elapsed
                self.calls[bucket] += 1
            if hook is not None:
                hook(self, Call(args, kwargs, result, start_ts, elapsed,
                                token))
            return result
        return traced

    @staticmethod
    def _bindings(target: Target) -> Tuple[Callable, List[Tuple[Any, str]]]:
        """The original function and every (owner, attribute) bound to it."""
        module = importlib.import_module(target.module)
        owner: Any = module
        *parents, attr = target.path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            fn = owner.__dict__[attr]
            if not callable(fn):
                raise TypeError(f"{target.module}.{target.path} is not a "
                                f"plain method")
            return fn, [(owner, attr)]
        fn = getattr(owner, attr)
        owners = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    owners.append((mod, key))
        return fn, owners

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Install wrappers for ``targets``; restore the originals on exit."""
        undo: List[Tuple[Any, str, Callable]] = []
        try:
            for target in targets:
                fn, owners = self._bindings(target)
                wrapped = self._wrap(fn, target)
                for owner, attr in owners:
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)


def all_targets() -> List[Target]:
    return CAMPAIGN_TARGETS + JOB_TARGETS + ENGINE_TARGETS + SERVE_TARGETS
