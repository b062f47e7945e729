"""Oracle tests for the fused TCP round loop in ``TCPConnection.transfer``.

``TCPConnection.transfer`` fuses the per-RTT round loop with the link's
delivery-schedule inversion.  Its oracle, ``reference_transfer`` in
``reference_engines.py``, is the unfused composition it replaced, kept
verbatim: every round calls the one-shot ``time_to_deliver``
(``_packets_before`` of the round start, then the prefix inversion).  The
fused loop must reproduce it bit for bit — end time, throughput and the
connection's congestion state after every transfer — and a fleet must stay
bit-identical to a serial run that uses the reference.  Against the bisect
round loop (``bisect_transfer``, the serving benchmark's reference side) the
fused loop must take the same congestion-window path over the fixed transfer
sequences and end every transfer within the inversion's accuracy (1e-9 s).
The two inversions can differ by an ulp, so a long run that lands a round
end on the bottleneck or idle-reset threshold may branch; a fleet is
compared only with the prefix reference.

The fused loop starts the inversion's ``nextafter`` fix-up at the round's
clock (the later of the sender's window clock and one RTT) when the
analytic start lies before it, so a round the link is ahead of costs one
packet count.  The constructed rounds below put that clock
exactly on the link-limited end, on window and cycle boundaries, after the
analytic start and on a final partial window; the property test bounds the
fix-up walk the exactness argument rests on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abr import synthetic_video
from repro.emulation import (
    Fleet,
    FleetConfig,
    LinkConfig,
    PacketDeliveryLink,
    TCPConfig,
    TCPConnection,
    TransferResult,
)
from repro.emulation.link import MTU_BYTES
from repro.emulation.player import DashPlayer
from repro.rl.agent import ABRAgent
from repro.traces import Trace, generate_fcc_trace, generate_starlink_trace

from reference_engines import (bisect_transfer, reference_invert_prefix,
                               reference_time_to_deliver, reference_transfer)


# --------------------------------------------------------------------------- #
# Differential harness.
# --------------------------------------------------------------------------- #
def _bits(value) -> str:
    return "None" if value is None else float(value).hex()


def _state(connection: TCPConnection, result: TransferResult) -> tuple:
    """Every observable of one transfer, as exact float bit patterns."""
    return (_bits(result.start_s), _bits(result.end_s),
            _bits(result.bytes_transferred),
            _bits(result.mean_throughput_mbps),
            _bits(connection.cwnd_segments),
            _bits(connection.ssthresh_segments),
            _bits(connection._last_activity_s))


def _assert_sequences_match(link: PacketDeliveryLink, tcp_config: TCPConfig,
                            start_s: float, transfers) -> None:
    """Run ``(gap_s, body_bytes)`` transfers through both implementations."""
    fused = TCPConnection(link, tcp_config)
    reference = TCPConnection(link, tcp_config)
    now = start_s
    for step, (gap_s, body_bytes) in enumerate(transfers):
        now += gap_s
        result = fused.transfer(now, body_bytes)
        got = _state(fused, result)
        expected = _state(reference, reference_transfer(reference, now,
                                                        body_bytes))
        assert got == expected, (step, now, body_bytes)
        now = result.end_s


def _random_trace(seed: int, zero_fraction: float) -> Trace:
    rng = np.random.default_rng(seed)
    duration = int(rng.integers(5, 40))
    timestamps = np.arange(0.0, float(duration), 1.0)
    throughputs = rng.uniform(0.2, 12.0, duration)
    throughputs[rng.random(duration) < zero_fraction] = 0.0
    throughputs[0] = max(throughputs[0], 0.5)  # never an all-zero trace
    return Trace(timestamps, throughputs, name=f"random-{seed}")


def _bursty_trace() -> Trace:
    # Alternating 0 / 10 Mbps one-second windows.
    return Trace(np.arange(0.0, 20.0, 1.0), np.tile([0.0, 10.0], 10),
                 name="bursty")


TRACES = {
    "random": lambda: _random_trace(11, zero_fraction=0.0),
    "random-gaps": lambda: _random_trace(12, zero_fraction=0.3),
    "bursty": _bursty_trace,
}
GRANULARITIES_MS = (7, 100, 500)
TCP_CONFIGS = {
    "default": TCPConfig(),
    "small": TCPConfig(initial_cwnd_segments=3, initial_ssthresh_segments=8,
                       max_cwnd_segments=24, idle_reset_s=0.05,
                       loss_backoff=0.7),
}
#: Zero, tiny, chunk-sized and multi-MB bodies, with idle gaps between them
#: (the 30 s gap pushes later transfers past the shorter traces' cycle).
TRANSFER_SEQUENCE = [(0.0, 0.0), (0.0, 1.0), (0.02, 1_499.0), (0.0, 1_501.0),
                     (0.5, 180_000.0), (0.0, 950_000.0), (2.0, 40_000.0),
                     (30.0, 3_200_000.0), (0.01, 600.0), (1.5, 0.0),
                     (0.3, 2_000_000.0)]


@pytest.mark.parametrize("granularity_ms", GRANULARITIES_MS)
@pytest.mark.parametrize("trace_kind", sorted(TRACES))
@pytest.mark.parametrize("tcp_kind", sorted(TCP_CONFIGS))
def test_fused_transfer_matches_reference_bitwise(granularity_ms,
                                                  trace_kind, tcp_kind):
    link = PacketDeliveryLink(
        TRACES[trace_kind](), LinkConfig(granularity_ms=granularity_ms))
    for start_s in (0.0, 0.37, link.cycle_duration_s * 2.5):
        _assert_sequences_match(link, TCP_CONFIGS[tcp_kind], start_s,
                                TRANSFER_SEQUENCE)


@pytest.mark.parametrize("granularity_ms", GRANULARITIES_MS)
@pytest.mark.parametrize("trace_kind", sorted(TRACES))
@pytest.mark.parametrize("tcp_kind", sorted(TCP_CONFIGS))
def test_fused_transfer_tracks_bisect_round_loop(granularity_ms, trace_kind,
                                                 tcp_kind):
    """The bisect inversion may land a float or two earlier than the prefix
    fix-up; on these sequences no round end sits on a threshold, so the
    congestion-window path is the same."""
    link = PacketDeliveryLink(
        TRACES[trace_kind](), LinkConfig(granularity_ms=granularity_ms))
    tcp_config = TCP_CONFIGS[tcp_kind]
    for start_s in (0.0, 0.37, link.cycle_duration_s * 2.5):
        fused = TCPConnection(link, tcp_config)
        reference = TCPConnection(link, tcp_config)
        now = start_s
        for step, (gap_s, body_bytes) in enumerate(TRANSFER_SEQUENCE):
            now += gap_s
            got = fused.transfer(now, body_bytes)
            expected = bisect_transfer(reference, now, body_bytes)
            where = (start_s, step, body_bytes)
            assert got.bytes_transferred == expected.bytes_transferred, where
            assert got.end_s == pytest.approx(expected.end_s, abs=1e-9), where
            assert _bits(fused.cwnd_segments) == _bits(
                reference.cwnd_segments), where
            assert _bits(fused.ssthresh_segments) == _bits(
                reference.ssthresh_segments), where
            if reference._last_activity_s is None:
                assert fused._last_activity_s is None, where
            else:
                assert fused._last_activity_s == pytest.approx(
                    reference._last_activity_s, abs=1e-9), where
            now = got.end_s


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace_seed=st.integers(0, 10_000),
       zero_fraction=st.sampled_from((0.0, 0.2, 0.5)),
       granularity_ms=st.sampled_from(GRANULARITIES_MS),
       tcp_kind=st.sampled_from(sorted(TCP_CONFIGS)),
       delay_s=st.sampled_from((0.005, 0.04, 0.1)),
       start_cycles=st.floats(0.0, 4.0),
       transfers=st.lists(
           st.tuples(st.floats(0.0, 3.0),
                     st.one_of(st.just(0.0), st.floats(1.0, 3_000.0),
                               st.floats(3_000.0, 4_000_000.0))),
           min_size=1, max_size=6))
def test_fused_transfer_matches_reference_property(trace_seed, zero_fraction,
                                                   granularity_ms, tcp_kind,
                                                   delay_s, start_cycles,
                                                   transfers):
    link = PacketDeliveryLink(
        _random_trace(trace_seed, zero_fraction),
        LinkConfig(one_way_delay_s=delay_s, granularity_ms=granularity_ms))
    _assert_sequences_match(link, TCP_CONFIGS[tcp_kind],
                            start_cycles * link.cycle_duration_s, transfers)


def test_zero_capacity_link_raises_like_reference():
    link = PacketDeliveryLink(Trace([0.0, 10.0], [0.0, 0.0]))
    fused = TCPConnection(link)
    reference = TCPConnection(link)
    with pytest.raises(RuntimeError):
        reference_transfer(reference, 0.0, 1500.0)
    with pytest.raises(RuntimeError):
        fused.transfer(0.0, 1500.0)
    assert fused.cwnd_segments == reference.cwnd_segments
    assert fused._last_activity_s == reference._last_activity_s


def test_one_shot_time_to_deliver_matches_reference():
    for kind, make in sorted(TRACES.items()):
        link = PacketDeliveryLink(make(), LinkConfig(granularity_ms=7))
        rng = np.random.default_rng(5)
        for _ in range(50):
            start = float(rng.uniform(0.0, 3.0 * link.cycle_duration_s))
            num_bytes = float(rng.choice([0.0, 1.0, 1500.0,
                                          rng.uniform(1e3, 3e6)]))
            cap = (None if rng.random() < 0.3
                   else float(rng.uniform(1e3, 1e7)))
            got = link.time_to_deliver(start, num_bytes,
                                       rate_cap_bytes_per_s=cap)
            expected = reference_time_to_deliver(link, start, num_bytes, cap)
            assert _bits(got) == _bits(expected), (kind, start)


# --------------------------------------------------------------------------- #
# Rounds whose clock the link is ahead of.
# --------------------------------------------------------------------------- #
def _analytic_start(link: PacketDeliveryLink, target: int) -> float:
    """Where the prefix inversion's fix-up walk starts for ``target``."""
    cycles, rem = divmod(target, link._cycle_packets)
    if rem == 0:
        cycles -= 1
        rem = link._cycle_packets
    w = bisect_left(link._cum_list, rem) - 1
    return (cycles * link._cycle_s
            + (w + (rem - link._cum_list[w]) / link._pw_list[w])
            * link._granularity_s)


def _walk_steps(link: PacketDeliveryLink, target: int) -> int:
    """``nextafter`` steps from the analytic start to the target's count."""
    t = _analytic_start(link, target)
    steps = 0
    while link._packets_before(t) < target and steps < 64:
        t = math.nextafter(t, math.inf)
        steps += 1
    return steps


def _first_round(link: PacketDeliveryLink, start_s: float, cwnd: int,
                 to_send: float) -> tuple:
    """``(target, sender_end, rtt_end)`` of a transfer's first round."""
    rtt = link.config.rtt_s
    target = link._packets_before(start_s) + math.ceil(to_send / MTU_BYTES)
    sender_end = start_s + to_send / (cwnd * MTU_BYTES / rtt)
    return target, sender_end, start_s + rtt


def _round_ending_at(link: PacketDeliveryLink, clock: float, target: int,
                     partial: bool = False) -> Optional[tuple]:
    """``(start_s, cwnd, to_send)`` of a first round with ``target`` whose
    clock is exactly ``clock``: its sender's window clock when ``partial``
    is false (a full window), else its RTT end (a partial window)."""
    start = clock - link.config.rtt_s
    for direction in (math.inf, -math.inf):
        s = start
        for _ in range(64):
            before = link._packets_before(s)
            needed = target - before
            cwnd = 1024 if partial else needed
            if 1 <= needed <= 1024:
                to_send = (needed - 0.5 if partial else needed) * MTU_BYTES
                got = _first_round(link, s, cwnd, to_send)
                end = got[2] if partial else got[1]
                if (got[0] == target and end == clock
                        and (got[1] < got[2] if partial
                             else got[1] >= got[2])):
                    return s, cwnd, to_send
            s = math.nextafter(s, direction)
    return None


def _check_round(link: PacketDeliveryLink, clock: float, target: int,
                 partial: bool = False) -> bool:
    """Run the constructed round through both loops, followed by the
    rounds that start from its carried count (a full window) or by a
    second transfer (a partial window, which ends its transfer)."""
    found = _round_ending_at(link, clock, target, partial)
    if found is None:
        return False
    start_s, cwnd, to_send = found
    config = TCPConfig(initial_cwnd_segments=cwnd,
                       initial_ssthresh_segments=2048,
                       max_cwnd_segments=2048)
    body = to_send if partial else to_send + 2.5 * cwnd * MTU_BYTES
    _assert_sequences_match(link, config, start_s,
                            [(0.0, body), (0.0, to_send)])
    return True


#: One-way delays: a round's full-window clock equals its RTT end at 40 ms;
#: at 12.3 ms it can fall an ulp before or after it, depending on cwnd.
CLOCK_DELAYS_S = (0.04, 0.0123)


def _clock_link(trace_kind: str = "random",
                delay_s: float = 0.04) -> PacketDeliveryLink:
    return PacketDeliveryLink(TRACES[trace_kind](),
                              LinkConfig(one_way_delay_s=delay_s,
                                         granularity_ms=100))


def _targets(link: PacketDeliveryLink):
    return range(40, 3 * link._cycle_packets, 37)


@pytest.mark.parametrize("delay_s", CLOCK_DELAYS_S)
def test_clock_on_link_limited_end_after_analytic_start(delay_s):
    """The walk from the analytic start ends exactly on the round's clock."""
    link = _clock_link(delay_s=delay_s)
    hits = 0
    for target in _targets(link):
        if _walk_steps(link, target) == 0:
            continue
        link_end = reference_invert_prefix(link, target)
        assert _analytic_start(link, target) < link_end
        hits += _check_round(link, link_end, target)
        hits += _check_round(link, link_end, target, partial=True)
    assert hits >= 5


@pytest.mark.parametrize("delay_s", CLOCK_DELAYS_S)
def test_clock_on_link_limited_end_at_analytic_start(delay_s):
    """The analytic start is the link-limited end and the round's clock."""
    link = _clock_link(delay_s=delay_s)
    hits = 0
    for target in _targets(link):
        t0 = _analytic_start(link, target)
        if link._packets_before(t0) >= target:
            assert reference_invert_prefix(link, target) == t0
            hits += _check_round(link, t0, target)
    assert hits >= 5


@pytest.mark.parametrize("delay_s", CLOCK_DELAYS_S)
@pytest.mark.parametrize("trace_kind", sorted(TRACES))
def test_clock_before_analytic_start(trace_kind, delay_s):
    """``t0 >= sender_end``: the clock's count already reaches the target a
    float below the analytic start, where the walk starts and stops; the
    round must end at the analytic start, not on its clock.  About 1 % of
    targets have such a float, so every target is tried."""
    link = _clock_link(trace_kind, delay_s)
    hits = 0
    for target in range(1, 3 * link._cycle_packets):
        t0 = _analytic_start(link, target)
        below = math.nextafter(t0, -math.inf)
        if link._packets_before(below) >= target:
            assert reference_invert_prefix(link, target) == t0
            hits += _check_round(link, below, target)
    assert hits >= 5


@pytest.mark.parametrize("delay_s", CLOCK_DELAYS_S)
@pytest.mark.parametrize("boundary", ("window", "cycle"))
@pytest.mark.parametrize("trace_kind", sorted(TRACES))
def test_clock_on_schedule_boundary(boundary, trace_kind, delay_s):
    """The clock lands on a window (or cycle) start, where the count steps
    up, with the link one packet ahead of the round, exactly caught up
    (count == target) or one packet short of it."""
    link = _clock_link(trace_kind, delay_s)
    if boundary == "window":
        clocks = [w * link._granularity_s
                  for w in range(3, 3 * link._n_windows, 7)]
    else:
        clocks = [k * link._cycle_s for k in range(1, 6)]
    hits = 0
    for clock in clocks:
        count = link._packets_before(clock)
        for target in (count - 1, count, count + 1):
            hits += _check_round(link, clock, target)
            hits += _check_round(link, clock, target, partial=True)
    assert hits >= len(clocks)


def _fast_trace() -> Trace:
    """40-60 Mbps: the link stays ahead of the sender in most rounds."""
    return Trace(np.arange(0.0, 10.0, 1.0), np.linspace(40.0, 60.0, 10),
                 name="fast")


def test_final_partial_windows_on_a_fast_link():
    """Sender-limited transfers whose last round is a partial window."""
    link = PacketDeliveryLink(_fast_trace())
    bodies = [(0.0, (k + 0.37) * MTU_BYTES) for k in (5, 23, 150, 900)]
    for tcp_kind in sorted(TCP_CONFIGS):
        _assert_sequences_match(link, TCP_CONFIGS[tcp_kind], 0.01, bodies)


@pytest.mark.parametrize("cwnd", (10, 13, 19))
@pytest.mark.parametrize("delay_s", CLOCK_DELAYS_S)
@pytest.mark.parametrize("trace_kind", sorted(TRACES) + ["fast"])
def test_prefix_engine_counts_the_link_once_per_transfer(trace_kind, delay_s,
                                                         cwnd):
    """Every round ends on a time whose count the loop computed, so
    only a transfer's start calls ``_packets_before``.  At 12.3 ms a full
    window of 13 (19) segments has a sender clock an ulp after (before) the
    RTT end; near time zero that ulp survives the addition to ``now``."""
    trace = _fast_trace() if trace_kind == "fast" else TRACES[trace_kind]()
    link = PacketDeliveryLink(trace, LinkConfig(one_way_delay_s=delay_s))
    calls = []
    counted = link._packets_before

    def counting(time_s):
        calls.append(time_s)
        return counted(time_s)

    link._packets_before = counting
    connection = TCPConnection(link, TCPConfig(initial_cwnd_segments=cwnd,
                                               initial_ssthresh_segments=cwnd))
    now = 0.0
    transfers = [2_000_000.0] + [body for _, body in TRANSFER_SEQUENCE
                                 if body > 0]
    for body in transfers:
        now = connection.transfer(now, body).end_s
    assert len(calls) == len(transfers)


@settings(max_examples=80, deadline=None)
@given(trace_seed=st.integers(0, 10_000),
       zero_fraction=st.sampled_from((0.0, 0.2, 0.5)),
       granularity_ms=st.sampled_from((1, 7, 100, 500)),
       cycles=st.sampled_from((0, 1, 7, 120, 1_000)),
       offsets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_prefix_fixup_walk_is_short(trace_seed, zero_fraction, granularity_ms,
                                    cycles, offsets):
    """The ``nextafter`` fix-up never gets near its 64-step budget, so the
    bisect fallback never answers."""
    link = PacketDeliveryLink(_random_trace(trace_seed, zero_fraction),
                              LinkConfig(granularity_ms=granularity_ms))
    for offset in offsets:
        target = cycles * link._cycle_packets + 1 + int(
            offset * (link._cycle_packets - 1))
        assert _walk_steps(link, target) <= 4, target


# --------------------------------------------------------------------------- #
# Fleet level.
# --------------------------------------------------------------------------- #
def _signature(result):
    return [(r.chunk_index, r.bitrate_index, r.reward, r.download_time_s,
             r.throughput_mbps, r.rebuffer_s, r.buffer_s)
            for r in result.records]


def test_fleet_matches_serial_run_on_reference(monkeypatch):
    traces = ([generate_fcc_trace(duration_s=120.0, seed=i, name=f"fcc-{i}")
               for i in range(3)]
              + [generate_starlink_trace(duration_s=120.0, seed=i,
                                         name=f"sl-{i}") for i in range(2)])
    video = synthetic_video("standard", num_chunks=8, seed=3)
    agent = ABRAgent.original(
        DashPlayer(video, PacketDeliveryLink(traces[0])).observe(),
        video.num_bitrates, rng=np.random.default_rng(1))
    fleet = Fleet(video, traces, config=FleetConfig(
        arrival_process="poisson", arrival_rate_per_s=4.0))
    sessions = 12

    fused = fleet.run(agent, sessions, greedy=False, sample_seed=9)
    with monkeypatch.context() as patch:
        patch.setattr(TCPConnection, "transfer", reference_transfer)
        reference = fleet.serial_reference(agent, sessions, greedy=False,
                                           sample_seed=9)
    assert len({r.bitrate_index for s in reference for r in s.records}) > 1
    for got, expected in zip(fused.sessions, reference):
        assert got.trace_name == expected.trace_name
        assert _signature(got) == _signature(expected)

