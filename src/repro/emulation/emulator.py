"""Policy-in-the-loop emulation runner.

This is the substitute for the paper's dash.js-over-Mahimahi emulation setup:
a packet-granularity link replay, a TCP throughput model, an HTTP fetch model
and a dash.js-like player, wired together so any ABR policy (classic baseline
or trained RL agent) can be evaluated end to end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

import numpy as np

from .. import nn
from ..abr.env import Observation, SessionResult
from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.state import original_state_function
from ..abr.video import Video
from ..core.results import _array_digest, _config_tokens, _sha256
from ..traces.base import Trace, TraceSet
from .http import HTTPConfig
from .link import LinkConfig, PacketDeliveryLink
from .player import DashPlayer, PlayerConfig
from .tcp import TCPConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.results import ResultStore

__all__ = [
    "EmulationConfig", "Emulator", "emulate_session", "evaluate_policy_emulated",
    "emulation_context_fingerprint", "policy_fingerprint", "emulation_result_key",
]

Policy = Callable[[Observation], int]

#: Schema tag for emulation payload records; bump when the payload layout or
#: any key-material convention below changes.
#: emu-v2: the fast-inference toggle left the key material; non-ReLU
#: Pensieve policies now infer through the compiled kernels.
#: emu-v3: the engine enters the key as one ``EngineConfig.fingerprint()``;
#: the ``numerics=`` token left with the fast-numerics tier.
_EMULATION_SCHEMA = "emu-v3"


@dataclass(frozen=True)
class EmulationConfig:
    """Bundle of all emulation-layer configurations."""

    link: LinkConfig = LinkConfig()
    tcp: TCPConfig = TCPConfig()
    http: HTTPConfig = HTTPConfig()
    player: PlayerConfig = PlayerConfig()


class Emulator:
    """Runs streaming sessions for one video over traces, via the full stack."""

    def __init__(self, video: Video, qoe: Optional[QoEMetric] = None,
                 config: Optional[EmulationConfig] = None) -> None:
        self.video = video
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.config = config or EmulationConfig()

    def run(self, policy: Policy, trace: Trace) -> SessionResult:
        """Stream the whole video over ``trace`` using ``policy``."""
        link = PacketDeliveryLink(trace, self.config.link)
        player = DashPlayer(self.video, link, qoe=self.qoe,
                            player_config=self.config.player,
                            http_config=self.config.http,
                            tcp_config=self.config.tcp)
        while not player.done:
            observation = player.observe()
            action = int(policy(observation))
            player.step(action)
        return player.result()

    def evaluate(self, policy: Policy, traces: TraceSet) -> float:
        """Mean per-chunk QoE of ``policy`` across all traces in the set."""
        scores = [self.run(policy, trace).mean_reward for trace in traces]
        return float(np.mean(scores))


def emulate_session(policy: Policy, video: Video, trace: Trace,
                    qoe: Optional[QoEMetric] = None,
                    config: Optional[EmulationConfig] = None) -> SessionResult:
    """Convenience wrapper: emulate one session and return the result."""
    return Emulator(video, qoe=qoe, config=config).run(policy, trace)


def emulation_context_fingerprint(video: Video, qoe: Optional[QoEMetric] = None,
                                  config: Optional[EmulationConfig] = None,
                                  environment: str = "") -> str:
    """Fingerprint of everything in the *emulation* context that shapes results.

    The emulation analogue of :func:`repro.core.results.context_fingerprint`:
    covers the environment label, the engine configuration (dtype and the
    kernel compiler, only round-off-equivalent across values), the full
    :class:`EmulationConfig` — including ``link.delivery_engine``, whose
    prefix/bisect inversions agree to ~1e-14 but **not** bitwise — the
    video and the QoE metric.

    Deliberately excluded: every :class:`~repro.emulation.fleet.FleetConfig`
    field (arrival process/rate/seed, batch window, max batch).  Those are
    engine-only — the fleet's bit-identity contract pins per-session results
    across all of them — so keying on them would only fragment the cache.
    """
    qoe = qoe or LinearQoE(video.bitrates_kbps)
    config = config or EmulationConfig()
    parts = [
        _EMULATION_SCHEMA.encode("utf-8"),
        environment.encode("utf-8"),
        nn.engine.current().fingerprint(),
        _config_tokens(config),
        _config_tokens({
            "bitrates_kbps": list(video.bitrates_kbps),
            "chunk_duration_s": video.chunk_duration_s,
        }),
        _array_digest(video.chunk_sizes_bytes),
        _config_tokens({
            "qoe_class": type(qoe).__name__,
            "bitrates_kbps": list(qoe.bitrates_kbps),
            "rebuffer_penalty": qoe.rebuffer_penalty,
            "smoothness_penalty": qoe.smoothness_penalty,
        }),
    ]
    return _sha256(parts)


def policy_fingerprint(policy) -> Optional[str]:
    """Content address of a policy, or None when it cannot be fingerprinted.

    Only an :class:`~repro.rl.agent.ABRAgent` whose state function is the
    trusted built-in original can be soundly content-addressed: its behaviour
    is fully determined by the network's parameter arrays (digested here) and
    the fixed original state arithmetic.  Generated state functions (exec'd
    source) and plain baseline callables may close over arbitrary mutable
    state, so they return None and the caller bypasses the store — a cache
    miss is always safe; a false hit never is.
    """
    from ..rl.agent import ABRAgent  # local: rl.agent is a leaf consumer

    if not isinstance(policy, ABRAgent):
        return None
    if not (policy.state_function.trusted
            and getattr(policy.state_function, "_func", None)
            is original_state_function):
        return None
    digest = hashlib.sha256()
    digest.update(policy.state_function.name.encode("utf-8"))
    digest.update(type(policy.network).__name__.encode("utf-8"))
    for name, array in sorted(policy.network.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(_array_digest(array))
    return digest.hexdigest()


def emulation_result_key(context: str, policy_fp: str, trace: Trace,
                         greedy: bool = True, sample_seed: int = 0,
                         rng_index: int = 0) -> str:
    """Store key of one (context, policy, trace, action-discipline) session.

    The trace enters by content (timestamp/throughput array digests), not by
    name.  Greedy sessions share one record regardless of seeds; stochastic
    sessions key on the sample seed *and* the RNG spawn index, because
    :func:`~repro.emulation.fleet.session_rng` streams differ per index.
    """
    discipline = ("greedy" if greedy
                  else f"sample:{int(sample_seed)}:{int(rng_index)}")
    return _sha256([
        context.encode("utf-8"),
        policy_fp.encode("utf-8"),
        _array_digest(trace.timestamps_s),
        _array_digest(trace.throughputs_mbps),
        discipline.encode("utf-8"),
    ])


def evaluate_policy_emulated(policy: Policy, video: Video, traces: TraceSet,
                             qoe: Optional[QoEMetric] = None,
                             config: Optional[EmulationConfig] = None, *,
                             store: Optional["ResultStore"] = None,
                             environment: str = "",
                             greedy: bool = True,
                             sample_seed: int = 0) -> float:
    """Mean per-chunk QoE over a trace set, optionally via the result store.

    Without a ``store`` this is the classic serial path: one
    :meth:`Emulator.run` per trace.  With a ``store``, each (context, policy,
    trace) session is content-addressed — warm traces replay from disk, and
    only the missing ones are emulated, batched through one
    :class:`~repro.emulation.fleet.Fleet` run so repeated sweeps behave like
    warm campaigns.  Policies that cannot be fingerprinted (see
    :func:`policy_fingerprint`) silently bypass the store.

    ``greedy``/``sample_seed`` apply only when ``policy`` is an agent; the
    stochastic discipline draws each trace's actions from
    ``session_rng(sample_seed, position_in_trace_set)`` so a record's content
    never depends on which other traces happened to be cold.
    """
    trace_list = list(traces)
    policy_fp = policy_fingerprint(policy) if store is not None else None
    if policy_fp is None:
        from ..rl.agent import ABRAgent
        if isinstance(policy, ABRAgent):
            from .fleet import BatchedPolicy
            adapter = BatchedPolicy(policy, greedy=greedy,
                                    sample_seed=sample_seed)
            emulator = Emulator(video, qoe=qoe, config=config)
            scores = [emulator.run(adapter.serial_policy(i), trace).mean_reward
                      for i, trace in enumerate(trace_list)]
            return float(np.mean(scores))
        return Emulator(video, qoe=qoe, config=config).evaluate(policy, trace_list)

    context = emulation_context_fingerprint(video, qoe, config, environment)
    keys = [emulation_result_key(context, policy_fp, trace, greedy=greedy,
                                 sample_seed=sample_seed, rng_index=i)
            for i, trace in enumerate(trace_list)]
    scores: List[Optional[float]] = [None] * len(trace_list)
    missing: List[int] = []
    for i, key in enumerate(keys):
        payload = store.get_payload(key)
        if payload is not None:
            scores[i] = float(payload["mean_reward"])
        else:
            missing.append(i)

    if missing:
        from .fleet import Fleet, FleetConfig  # local: fleet imports this module

        fleet = Fleet(video, [trace_list[i] for i in missing], qoe=qoe,
                      config=FleetConfig(emulation=config or EmulationConfig(),
                                         arrival_process="instant"))
        result = fleet.run(policy, num_sessions=len(missing), greedy=greedy,
                           sample_seed=sample_seed, rng_indices=missing)
        for slot, session in zip(missing, result.sessions):
            scores[slot] = session.mean_reward
            store.put_payload(keys[slot], {
                "schema": _EMULATION_SCHEMA,
                "mean_reward": session.mean_reward,
                "num_chunks": len(session.records),
                "actions": [record.bitrate_index for record in session.records],
            }, meta={"trace": trace_list[slot].name, "environment": environment})
    return float(np.mean([s for s in scores]))
