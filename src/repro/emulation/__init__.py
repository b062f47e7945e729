"""Packet-level emulation substrate (dash.js-over-Mahimahi substitute).

Layers: :mod:`link` (packet delivery schedule), :mod:`tcp` (slow start /
congestion avoidance), :mod:`http` (request/response), :mod:`player`
(dash.js-like client), :mod:`emulator` (policy-in-the-loop runner) and
:mod:`fleet` (event-driven fleet harness: N concurrent sessions, one batched
policy forward per decision tick — the ``repro serve`` engine).
"""

from .emulator import (
    EmulationConfig,
    Emulator,
    emulate_session,
    emulation_context_fingerprint,
    emulation_result_key,
    evaluate_policy_emulated,
    policy_fingerprint,
)
from .fleet import (
    ARRIVAL_PROCESSES,
    BatchedPolicy,
    Fleet,
    FleetConfig,
    FleetResult,
    ServingMetrics,
    session_rng,
)
from .http import HTTPClient, HTTPConfig, HTTPResponse
from .link import MTU_BYTES, LinkConfig, PacketDeliveryLink
from .player import DashPlayer, PlayerConfig, PlayerEvent
from .tcp import TCPConfig, TCPConnection, TransferResult

__all__ = [
    "LinkConfig", "PacketDeliveryLink", "MTU_BYTES",
    "TCPConfig", "TCPConnection", "TransferResult",
    "HTTPConfig", "HTTPClient", "HTTPResponse",
    "PlayerConfig", "DashPlayer", "PlayerEvent",
    "EmulationConfig", "Emulator", "emulate_session", "evaluate_policy_emulated",
    "emulation_context_fingerprint", "policy_fingerprint", "emulation_result_key",
    "FleetConfig", "ServingMetrics", "FleetResult", "BatchedPolicy", "Fleet",
    "session_rng", "ARRIVAL_PROCESSES",
]
