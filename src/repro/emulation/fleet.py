"""Event-driven fleet emulation: N concurrent sessions, one policy GEMM per tick.

This is the serving half of the ROADMAP's "millions of users" story.  A
single event loop advances N virtual players — each with its own
:class:`~repro.emulation.link.PacketDeliveryLink` / TCP connection / HTTP
client / :class:`~repro.emulation.player.DashPlayer` over its own trace —
ordered by virtual time.  Whenever the earliest pending session needs an ABR
decision, every other session whose decision falls inside the same *batch
window* of virtual time is serviced in the same tick, and the whole tick is
answered by ONE batched policy forward (a single GEMM over the PR 5
version-cached compiled/folded inference path) instead of one Python forward
per player.

Correctness contract (pinned by ``tests/test_fleet.py``): a fleet of N
sessions is **bit-identical, session for session, to N independent**
:meth:`~repro.emulation.emulator.Emulator.run` **calls** over the same
traces with the same policy and RNG discipline.  Sessions share no mutable
state and stochastic sessions draw from private per-session generators, so
concurrency, batch-window choice and tick grouping change wall-clock time
only, never results.  The batched forward's rows agree with batch-1 forwards
to the final ulp (BLAS may pick different kernels for different batch
shapes — see :meth:`repro.nn.compile.CompiledPlan.policy_probs_batch`),
which selects identical actions; the resulting end-to-end bit-identity is
pinned by the tests above and re-asserted on every serving benchmark run.

Sharding (:attr:`FleetConfig.workers`): because sessions share nothing, a
run splits them into W interleaved shards (session ``i`` goes to shard
``i % W``) and runs the one event loop once per shard — shard 0 in the
calling process, the others in forked child processes that inherit the
already-built sessions, policy and traces (nothing about the fleet is
pickled; only shard indices cross the process boundary).  Every shard runs
its BLAS on one thread (:mod:`repro.core.blas`).  Per-session results merge
back in session-index order and equal the single-shard run bit for bit; each
shard's telemetry is captured and merged in shard order under the parent's
single ``serve.fleet_run`` span.  W defaults to the CPUs this process may
run on; ``workers=1`` runs the loop in-process and starts no child.  A run
whose emulation stack has been wrapped in this process (a profiler's or
tracer's ``functools.wraps`` wrapper around, say, ``DashPlayer.step``) also
stays in one shard: the wrapper records into this process's memory, and a
forked shard's records would never come back.

Throughput and latency are measured per tick: *decision latency* is the
wall-clock time from gathering a tick's observations to its actions being
available (state building + batched forward + action selection), attributed
to every decision in the tick; decisions/sec and sessions/sec are computed
over the whole run.  The run's busy time splits into ``decide_s`` (the sum
of decision latencies), ``emulate_s`` (each tick's ``player.step`` loop:
link, TCP, HTTP and player) and the event loop's own bookkeeping; with
several shards both are summed over the shards, so together they may exceed
the caller's ``wall_s`` (by at most the shard count).
Everything is instrumented through :mod:`repro.core.telemetry`
(``serve.*`` spans, counters and series) so ``repro serve --telemetry``
runs surface in ``repro report``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..abr.env import HISTORY_LENGTH, Observation, SessionResult
from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.state import original_state_function, original_states_gathered
from ..abr.video import Video
from ..core import blas, telemetry
from ..log import get_logger
from ..rl.agent import ABRAgent
from ..rl.policy import greedy_action, sample_action
from ..traces.base import Trace
from .emulator import EmulationConfig
from .http import HTTPClient
from .link import PacketDeliveryLink
from .player import DashPlayer
from .tcp import TCPConnection

__all__ = [
    "FleetConfig",
    "ServingMetrics",
    "FleetResult",
    "BatchedPolicy",
    "Fleet",
    "session_rng",
]

logger = get_logger("fleet")

#: Supported session arrival processes.
ARRIVAL_PROCESSES = ("instant", "uniform", "poisson")

#: Fork-inheritance slot of a sharded run: :meth:`Fleet.run` puts its fleet,
#: policy, built sessions, shard count and telemetry flag under ``"run"``
#: just before starting the shard processes and clears it after, so forked
#: children read them here instead of receiving a pickled fleet.  Mutated in
#: place, never rebound.
_SHARD_RUN: Dict[str, Any] = {}

#: The emulation stack every shard's event loop steps through.
_EMULATION_STACK = (DashPlayer, HTTPClient, TCPConnection, PacketDeliveryLink)


def _emulation_stack_wrapped() -> bool:
    """Whether a method of the emulation stack is a wrapper in this process.

    ``functools.wraps`` marks a wrapper with ``__wrapped__``; profilers and
    tracers that patch methods this way keep their records here.
    """
    return any(isinstance(member, types.FunctionType)
               and hasattr(member, "__wrapped__")
               for cls in _EMULATION_STACK for member in vars(cls).values())


def session_rng(sample_seed: int, session_index: int) -> np.random.Generator:
    """The private action-sampling generator of one fleet session.

    Both the fleet and its serial reference construct per-session generators
    through this function, so stochastic policies draw identically whether
    sessions run interleaved or back to back (the RNG discipline half of the
    bit-identity contract).
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(sample_seed),
                               spawn_key=(int(session_index),)))


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of the fleet event loop.

    Every field here except ``emulation`` is engine-only: it shapes how the
    event loop interleaves, batches and shards work (and how arrival
    timestamps dress up the serving metrics), never what any individual
    session computes — per-session results are bit-identical across all
    settings.  None of these fields belongs in a result-store key for that
    reason (see ``emulation_context_fingerprint``).
    """

    emulation: EmulationConfig = field(default_factory=EmulationConfig)
    #: How sessions arrive: all at once ("instant"), evenly spaced at
    #: ``arrival_rate_per_s`` ("uniform"), or as a Poisson process with that
    #: rate ("poisson").  Arrival offsets shift each session's position on
    #: the shared virtual timeline — which sessions get batched together —
    #: but not the session content itself.
    arrival_process: str = "poisson"
    arrival_rate_per_s: float = 50.0
    arrival_seed: int = 0
    #: Sessions whose next decision falls within this much virtual time of
    #: the earliest pending decision are serviced in the same batched tick.
    batch_window_s: float = 0.25
    #: Upper bound on decisions per tick (one GEMM batch).
    max_batch: int = 4096
    #: Shards (processes) a run is split over.  None: the CPUs this process
    #: may run on, capped at the session count, and 1 inside a
    #: multiprocessing child so a fleet in a pool worker never nests a
    #: pool.  1 runs in-process and starts no child process.  Engine-only.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.batch_window_s < 0:
            raise ValueError("batch window cannot be negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1 (or None for auto)")


@dataclass(frozen=True)
class ServingMetrics:
    """Throughput and latency of one fleet run (wall-clock, not virtual)."""

    num_sessions: int
    num_decisions: int
    num_ticks: int
    wall_s: float
    decide_s: float
    #: Wall time spent in the ticks' ``player.step`` loops (emulation).
    emulate_s: float
    mean_batch_size: float
    max_batch_size: int
    decisions_per_s: float
    sessions_per_s: float
    p50_decision_latency_s: float
    p95_decision_latency_s: float
    p99_decision_latency_s: float
    #: Shards the run was split over (``decide_s``/``emulate_s`` are sums
    #: over them) and the slowest shard's wall time over the mean's.
    shards: int = 1
    shard_imbalance: float = 1.0
    #: The lowest share of its wall time a shard's event loop spent on a CPU
    #: (about 1.0 when every shard had a core to itself; about 0.5 when two
    #: shards shared one).
    shard_cpu_share: float = 1.0

    def to_dict(self) -> dict:
        return {
            "num_sessions": self.num_sessions,
            "num_decisions": self.num_decisions,
            "num_ticks": self.num_ticks,
            "wall_s": self.wall_s,
            "decide_s": self.decide_s,
            "emulate_s": self.emulate_s,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "decisions_per_s": self.decisions_per_s,
            "sessions_per_s": self.sessions_per_s,
            "p50_decision_latency_s": self.p50_decision_latency_s,
            "p95_decision_latency_s": self.p95_decision_latency_s,
            "p99_decision_latency_s": self.p99_decision_latency_s,
            "shards": self.shards,
            "shard_imbalance": self.shard_imbalance,
            "shard_cpu_share": self.shard_cpu_share,
        }


@dataclass
class FleetResult:
    """Per-session results (in session-index order) plus serving metrics."""

    sessions: List[SessionResult]
    metrics: ServingMetrics

    @property
    def mean_reward(self) -> float:
        return float(np.mean([s.mean_reward for s in self.sessions]))


class BatchedPolicy:
    """Adapter that answers a whole decision tick with one batched forward.

    Wraps either an :class:`~repro.rl.agent.ABRAgent` (the fast path: all of
    a tick's states go through ONE ``policy_probs`` GEMM) or a plain
    ``observation -> action`` callable (classic baselines: serviced
    per-observation, results unchanged).  Action selection follows the same
    discipline as serial :meth:`ABRAgent.act`: greedy argmax per row, or a
    sample drawn from the session's private generator.
    """

    def __init__(self, policy, greedy: bool = True,
                 sample_seed: int = 0) -> None:
        self.agent: Optional[ABRAgent] = policy if isinstance(policy, ABRAgent) else None
        self.callable_policy: Optional[Callable[[Observation], int]] = (
            None if self.agent is not None else policy)
        if self.callable_policy is not None and not callable(self.callable_policy):
            raise TypeError("policy must be an ABRAgent or a callable")
        self.greedy = bool(greedy)
        self.sample_seed = int(sample_seed)

    # ------------------------------------------------------------------ #
    @property
    def batched(self) -> bool:
        """Whether decisions go through one batched network forward."""
        return self.agent is not None

    def supports_gathered_states(self) -> bool:
        """Whether the fleet may build this policy's states vectorized.

        True only for the trusted built-in Pensieve state function — its
        gathered builder (:func:`original_states_gathered`) is proven
        bit-identical row for row.  Generated state functions run
        per-observation (but still share the tick's single batched forward).
        """
        return (self.agent is not None
                and self.agent.state_function.trusted
                and getattr(self.agent.state_function, "_func", None)
                is original_state_function)

    # ------------------------------------------------------------------ #
    def select_actions(self, probs: np.ndarray,
                       rngs: Optional[Sequence[np.random.Generator]]) -> List[int]:
        """Per-row action selection matching serial ``act`` exactly."""
        if self.greedy:
            return [int(a) for a in np.argmax(probs, axis=-1)]
        if rngs is None:
            raise ValueError("stochastic selection needs per-session rngs")
        return [sample_action(row, rng) for row, rng in zip(probs, rngs)]

    def decide(self, observations: Sequence[Observation],
               rngs: Optional[Sequence[np.random.Generator]]) -> List[int]:
        """Actions for a tick's observations (one forward when batched)."""
        if self.agent is None:
            return [int(self.callable_policy(obs)) for obs in observations]
        states = np.stack([self.agent.state_of(obs) for obs in observations])
        probs = self.agent.batch_action_probabilities(states)
        return self.select_actions(probs, rngs)

    def serial_policy(self, session_index: int) -> Callable[[Observation], int]:
        """The per-observation policy of one session's serial reference run.

        Performs the identical per-decision arithmetic (same state function,
        same ``policy_probs`` router, same greedy/sampling discipline with
        the same per-session generator), so a serial
        :meth:`Emulator.run` over this callable reproduces the fleet's
        session bit for bit.
        """
        if self.agent is None:
            return self.callable_policy
        agent = self.agent
        if self.greedy:
            def policy(observation: Observation) -> int:
                state = agent.state_of(observation)
                return greedy_action(agent.action_probabilities(state))
            return policy
        rng = session_rng(self.sample_seed, session_index)

        def policy(observation: Observation) -> int:
            state = agent.state_of(observation)
            return sample_action(agent.action_probabilities(state), rng)
        return policy


class _FleetSession:
    """One virtual player plus its event-loop bookkeeping."""

    __slots__ = ("index", "trace", "player", "arrival_s", "rng")

    def __init__(self, index: int, trace: Trace, player: DashPlayer,
                 arrival_s: float, rng: Optional[np.random.Generator]) -> None:
        self.index = index
        self.trace = trace
        self.player = player
        self.arrival_s = arrival_s
        self.rng = rng


@dataclass
class _ShardOutcome:
    """What one shard's event loop returns to :meth:`Fleet.run`."""

    #: Results of the shard's sessions, in fleet-index order.
    results: List[Optional[SessionResult]]
    tick_latencies: List[float]
    tick_sizes: List[int]
    emulate_s: float
    #: The shard's own wall time (its busy time), for the imbalance figure,
    #: and the CPU time its event loop's thread got in it.
    wall_s: float
    cpu_s: float
    #: Telemetry captured in the shard (empty when telemetry is off).
    events: List[telemetry.TelemetryEvent] = field(default_factory=list)


def _shard_task(shard: int) -> _ShardOutcome:
    """Forked-child entry point: run shard ``shard`` of the current run.

    The child inherits the parent's one-thread BLAS setting with its memory.
    """
    fleet, policy, sessions, shards, capture = _SHARD_RUN["run"]
    return fleet._run_shard(policy, sessions[shard::shards], capture)


class Fleet:
    """Shared event loop advancing N independent streaming sessions.

    Sessions are assigned traces round-robin from ``traces`` (the trace
    mix); each gets its own link/TCP/HTTP/player stack.  Delivery schedules
    are shared read-only through the link module's per-trace cache, so fleet
    construction is O(distinct traces), not O(sessions).
    """

    def __init__(self, video: Video, traces: Sequence[Trace],
                 qoe: Optional[QoEMetric] = None,
                 config: Optional[FleetConfig] = None) -> None:
        self.video = video
        self.traces = list(traces)
        if not self.traces:
            raise ValueError("a fleet needs at least one trace")
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.config = config or FleetConfig()

    # ------------------------------------------------------------------ #
    def _arrival_times(self, num_sessions: int) -> np.ndarray:
        cfg = self.config
        if cfg.arrival_process == "instant":
            return np.zeros(num_sessions)
        if cfg.arrival_process == "uniform":
            return np.arange(num_sessions) / cfg.arrival_rate_per_s
        rng = np.random.default_rng(cfg.arrival_seed)
        return np.cumsum(rng.exponential(1.0 / cfg.arrival_rate_per_s,
                                         size=num_sessions))

    def _build_sessions(self, num_sessions: int, policy: BatchedPolicy,
                        rng_indices: Optional[Sequence[int]] = None
                        ) -> List[_FleetSession]:
        cfg = self.config.emulation
        arrivals = self._arrival_times(num_sessions)
        if rng_indices is not None and len(rng_indices) != num_sessions:
            raise ValueError("rng_indices must provide one index per session")
        sessions = []
        for i in range(num_sessions):
            trace = self.traces[i % len(self.traces)]
            link = PacketDeliveryLink(trace, cfg.link)
            player = DashPlayer(self.video, link, qoe=self.qoe,
                                player_config=cfg.player,
                                http_config=cfg.http,
                                tcp_config=cfg.tcp)
            spawn = i if rng_indices is None else int(rng_indices[i])
            rng = (None if policy.greedy or not policy.batched
                   else session_rng(policy.sample_seed, spawn))
            sessions.append(_FleetSession(i, trace, player,
                                          float(arrivals[i]), rng))
        return sessions

    # ------------------------------------------------------------------ #
    def run(self, policy, num_sessions: int, greedy: bool = True,
            sample_seed: int = 0,
            rng_indices: Optional[Sequence[int]] = None) -> FleetResult:
        """Stream the video to ``num_sessions`` concurrent virtual players.

        ``policy`` may be an :class:`ABRAgent`, a :class:`BatchedPolicy`, or
        a plain ``observation -> action`` callable; ``greedy``/``sample_seed``
        apply when an agent is passed directly.  ``rng_indices`` optionally
        overrides the per-session RNG spawn index (default: the session's
        fleet index) — the store-routed evaluator passes each trace's position
        in the *full* trace set so cached stochastic records never depend on
        which other traces were cold.

        The sessions are split over ``config.workers`` shards (see the module
        docstring); an exception raised in any shard propagates from here.
        """
        if num_sessions < 1:
            raise ValueError("a fleet needs at least one session")
        if not isinstance(policy, BatchedPolicy):
            policy = BatchedPolicy(policy, greedy=greedy,
                                   sample_seed=sample_seed)
        sessions = self._build_sessions(num_sessions, policy, rng_indices)
        shards = self._resolve_shards(num_sessions)
        capture = telemetry.enabled()

        run_span = telemetry.span("serve.fleet_run", {
            "sessions": num_sessions, "traces": len(self.traces),
            "arrival": self.config.arrival_process,
            "batch_window_s": self.config.batch_window_s,
            "shards": shards,
        })
        run_start = time.perf_counter()
        with run_span, blas.single_threaded():
            if shards == 1:
                outcomes = [self._run_shard(policy, sessions, capture)]
            else:
                outcomes = self._run_sharded(policy, sessions, shards, capture)
            sink = telemetry.get_telemetry()
            if sink is not None:
                for outcome in outcomes:
                    sink.extend(outcome.events)
        wall_s = time.perf_counter() - run_start

        results: List[Optional[SessionResult]] = [None] * num_sessions
        for shard, outcome in enumerate(outcomes):
            results[shard::shards] = outcome.results
        metrics = self._metrics(num_sessions, outcomes, wall_s)
        telemetry.counter("serve.decide_s", metrics.decide_s)
        telemetry.counter("serve.emulate_s", metrics.emulate_s)
        telemetry.counter("serve.wall_s", wall_s)
        telemetry.counter("serve.shards", shards)
        telemetry.counter("serve.shard_wall_s", wall_s * shards)
        return FleetResult(sessions=results, metrics=metrics)

    def _resolve_shards(self, num_sessions: int) -> int:
        """The shard count of a run over ``num_sessions`` sessions."""
        workers = self.config.workers
        if workers is None:
            if multiprocessing.parent_process() is not None:
                return 1
            workers = (len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
        workers = min(workers, num_sessions)
        if workers == 1:
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            reason = "fork start method unavailable"
        elif _emulation_stack_wrapped():
            reason = "emulation stack wrapped in this process"
        else:
            return workers
        logger.info("%s; running %d fleet sessions in one shard instead of %d",
                    reason, num_sessions, workers)
        telemetry.counter("serve.shard_fallback")
        return 1

    def _run_sharded(self, policy: BatchedPolicy,
                     sessions: List[_FleetSession], shards: int,
                     capture: bool) -> List[_ShardOutcome]:
        """Shards 1.. in forked children, shard 0 here; outcomes in order."""
        _SHARD_RUN["run"] = (self, policy, sessions, shards, capture)
        try:
            with ProcessPoolExecutor(
                    max_workers=shards - 1,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                futures = [pool.submit(_shard_task, shard)
                           for shard in range(1, shards)]
                first = self._run_shard(policy, sessions[::shards], capture)
                return [first] + [future.result() for future in futures]
        finally:
            _SHARD_RUN.clear()

    def _run_shard(self, policy: BatchedPolicy,
                   sessions: Sequence[_FleetSession],
                   capture: bool) -> _ShardOutcome:
        """The event loop over one shard's sessions.

        With ``capture`` the shard's telemetry goes to a private sink that
        rides back on the outcome, for the caller to merge in shard order.
        """
        if capture:
            with telemetry.capture() as local:
                outcome = self._event_loop(policy, sessions)
            outcome.events = local.events
            return outcome
        return self._event_loop(policy, sessions)

    def _event_loop(self, policy: BatchedPolicy,
                    sessions: Sequence[_FleetSession]) -> _ShardOutcome:
        start, cpu_start = time.perf_counter(), time.thread_time()
        n = len(sessions)
        # Stacked history windows for the vectorized state builder: each
        # player's in-place history pushes write straight into its row.
        gathered = policy.supports_gathered_states()
        if gathered:
            bitrate = np.zeros((n, HISTORY_LENGTH))
            throughput = np.zeros((n, HISTORY_LENGTH))
            download = np.zeros((n, HISTORY_LENGTH))
            buffered = np.zeros((n, HISTORY_LENGTH))
            for row, s in enumerate(sessions):
                s.player.bind_history_buffers(bitrate[row], throughput[row],
                                              download[row], buffered[row])
            ladder = np.asarray(self.video.bitrates_kbps, dtype=np.float64)
            total_chunks = self.video.num_chunks
            agent = policy.agent

        # Heap entries and ``batch`` hold positions in ``sessions``, which
        # keep the fleet-index order, so ties break as in an unsharded run.
        results: List[Optional[SessionResult]] = [None] * n
        heap = [(s.arrival_s, row) for row, s in enumerate(sessions)]
        heapify(heap)
        window = self.config.batch_window_s
        max_batch = self.config.max_batch
        tick_latencies: List[float] = []
        tick_sizes: List[int] = []
        emulate_s = 0.0
        while heap:
            horizon, first = heappop(heap)
            batch = [first]
            horizon += window
            while (heap and heap[0][0] <= horizon
                   and len(batch) < max_batch):
                batch.append(heappop(heap)[1])

            decide_start = time.perf_counter()
            if gathered:
                k = len(batch)
                idx = np.asarray(batch, dtype=np.intp)
                next_chunks = np.asarray(
                    [sessions[i].player.next_chunk_index for i in batch],
                    dtype=np.intp)
                states = np.empty((k, 6, HISTORY_LENGTH))
                original_states_gathered(
                    bitrate[idx], throughput[idx], download[idx],
                    buffered[idx],
                    self.video.chunk_sizes_bytes[next_chunks],
                    total_chunks - next_chunks, total_chunks, ladder,
                    states)
                probs = agent.batch_action_probabilities(states)
                rngs = (None if policy.greedy
                        else [sessions[i].rng for i in batch])
                actions = policy.select_actions(probs, rngs)
            else:
                observations = [sessions[i].player.observe() for i in batch]
                rngs = (None if policy.greedy
                        else [sessions[i].rng for i in batch])
                actions = policy.decide(observations, rngs)
            decide_s = time.perf_counter() - decide_start

            tick_latencies.append(decide_s)
            tick_sizes.append(len(batch))
            telemetry.counter("serve.decisions", len(batch))
            telemetry.counter("serve.ticks")
            telemetry.series("serve.batch_size", len(tick_sizes),
                             len(batch))

            emulate_start = time.perf_counter()
            for row, action in zip(batch, actions):
                session = sessions[row]
                session.player.step(action)
                if session.player.done:
                    results[row] = session.player.result()
                    telemetry.counter("serve.sessions_completed")
                else:
                    heappush(heap, (session.arrival_s
                                    + session.player.clock_s, row))
            emulate_s += time.perf_counter() - emulate_start
        return _ShardOutcome(
            results=results,
            tick_latencies=tick_latencies, tick_sizes=tick_sizes,
            emulate_s=emulate_s, wall_s=time.perf_counter() - start,
            cpu_s=time.thread_time() - cpu_start)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _metrics(num_sessions: int, outcomes: Sequence[_ShardOutcome],
                 wall_s: float) -> ServingMetrics:
        latencies = np.asarray([latency for outcome in outcomes
                                for latency in outcome.tick_latencies])
        sizes = np.asarray([size for outcome in outcomes
                            for size in outcome.tick_sizes], dtype=np.intp)
        # Per-decision latency: every decision in a tick waited for the
        # whole tick's state build + forward + selection.
        per_decision = np.repeat(latencies, sizes)
        p50, p95, p99 = (np.percentile(per_decision, (50, 95, 99))
                         if per_decision.size else (0.0, 0.0, 0.0))
        num_decisions = int(sizes.sum())
        shard_walls = [outcome.wall_s for outcome in outcomes]
        wall = max(wall_s, 1e-12)
        return ServingMetrics(
            num_sessions=num_sessions,
            num_decisions=num_decisions,
            num_ticks=len(sizes),
            wall_s=wall_s,
            decide_s=float(latencies.sum()),
            emulate_s=sum(outcome.emulate_s for outcome in outcomes),
            mean_batch_size=float(sizes.mean()) if sizes.size else 0.0,
            max_batch_size=int(sizes.max()) if sizes.size else 0,
            decisions_per_s=num_decisions / wall,
            sessions_per_s=num_sessions / wall,
            p50_decision_latency_s=float(p50),
            p95_decision_latency_s=float(p95),
            p99_decision_latency_s=float(p99),
            shards=len(outcomes),
            shard_imbalance=max(shard_walls) / max(
                sum(shard_walls) / len(shard_walls), 1e-12),
            shard_cpu_share=min(outcome.cpu_s / max(outcome.wall_s, 1e-12)
                                for outcome in outcomes),
        )

    # ------------------------------------------------------------------ #
    def serial_reference(self, policy, num_sessions: int, greedy: bool = True,
                         sample_seed: int = 0,
                         rng_indices: Optional[Sequence[int]] = None
                         ) -> List[SessionResult]:
        """N independent per-session runs: the fleet's bit-identity reference.

        Runs every session back to back through the plain per-observation
        loop (one Python forward per decision — the pre-fleet serving path),
        with the same trace assignment and per-session RNG discipline as
        :meth:`run`, on one BLAS thread like every shard of :meth:`run`.
        ``run(...)`` must produce exactly these results, session for session.
        """
        if not isinstance(policy, BatchedPolicy):
            policy = BatchedPolicy(policy, greedy=greedy,
                                   sample_seed=sample_seed)
        cfg = self.config.emulation
        results = []
        with blas.single_threaded():
            for i in range(num_sessions):
                spawn = i if rng_indices is None else int(rng_indices[i])
                trace = self.traces[i % len(self.traces)]
                link = PacketDeliveryLink(trace, cfg.link)
                player = DashPlayer(self.video, link, qoe=self.qoe,
                                    player_config=cfg.player,
                                    http_config=cfg.http,
                                    tcp_config=cfg.tcp)
                session_policy = policy.serial_policy(spawn)
                while not player.done:
                    player.step(int(session_policy(player.observe())))
                results.append(player.result())
        return results
