"""Packet-granularity trace-driven link (Mahimahi's ``mm-link`` model).

Mahimahi replays a *packet-delivery trace*: a list of millisecond timestamps,
each of which is an opportunity to deliver one MTU-sized packet.  This module
converts a bandwidth :class:`~repro.traces.base.Trace` into the same
delivery-opportunity schedule and exposes the primitive the TCP model needs:
"how many bytes can the link deliver between time ``t0`` and ``t1``", and its
inverse, "at what time will ``n`` bytes have been delivered if transmission
starts at ``t0``".

The inverse is an analytic inversion of the cumulative delivery-opportunity
prefix (the same prefix-lookup idiom as
:meth:`repro.traces.base.Trace.capacity_prefix`): one ``bisect_left`` over
the per-window cumulative packet counts finds the delivery window, a
division finds the position inside it, and a short ``nextafter`` fix-up
re-counts packets until the target is reached.  O(log windows) per
inversion.  The original cycle-doubling + 64-iteration binary search
(:meth:`PacketDeliveryLink._invert_bisect`) stays as the fix-up's safety
fallback; the round loop that used it for every inversion is kept as the
test oracle in ``tests/reference_engines.py``.

A transfer inverts the schedule once per TCP round (about 94 rounds per
chunk on the serving workload), so the round loop in
:meth:`repro.emulation.tcp.TCPConnection.transfer` runs the inversion
inline on this module's cached schedule rather than calling
:meth:`PacketDeliveryLink.time_to_deliver`, which stays the one-shot API.
The loop skips the inversion in rounds the link is ahead of, with the same
result.

Delivery schedules are deterministic functions of ``(trace, granularity)``;
they are cached per trace in a weak-keyed module cache so a fleet of
sessions replaying a shared trace pays the construction cost once instead
of once per session.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..traces.base import Trace

__all__ = ["LinkConfig", "PacketDeliveryLink"]

MTU_BYTES = 1500
BITS_PER_BYTE = 8


@dataclass(frozen=True)
class LinkConfig:
    """Static properties of the emulated bottleneck link."""

    #: One-way propagation delay in seconds (each direction).
    one_way_delay_s: float = 0.040
    #: Millisecond granularity used when discretizing the bandwidth trace.
    granularity_ms: int = 100
    #: Random per-packet jitter applied to delivery times (std dev, seconds).
    jitter_std_s: float = 0.0

    @property
    def rtt_s(self) -> float:
        return 2.0 * self.one_way_delay_s


# Delivery schedules keyed by (trace -> {granularity_ms: schedule tuple}).
# Weak keys: dropping the last reference to a trace drops its schedules.  The
# cache is read-shared between links (the arrays are never mutated), which is
# what makes constructing a fleet of N sessions over a handful of traces
# O(traces) instead of O(sessions) schedule builds.
_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Trace, Dict[int, tuple]]" = (
    weakref.WeakKeyDictionary())


def _delivery_schedule(trace: Trace, granularity_ms: int) -> Tuple[np.ndarray, np.ndarray, float, float, int]:
    """Build (or fetch cached) the delivery-opportunity schedule for a trace.

    Returns ``(packets_per_window, cumulative, granularity_s, cycle_s,
    cycle_packets)``.  The per-window packet counts carry fractional-bit
    remainders exactly like the original scalar loop (bit-identical), but
    the per-window bandwidth samples come from one vectorized
    :meth:`Trace.throughputs_at` call instead of thousands of scalar
    lookups.
    """
    per_trace = _SCHEDULE_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _SCHEDULE_CACHE[trace] = per_trace
    cached = per_trace.get(int(granularity_ms))
    if cached is not None:
        return cached

    granularity_s = granularity_ms / 1000.0
    duration_s = trace.duration_s
    n_windows = max(1, int(np.ceil(duration_s / granularity_s)))
    window_starts = np.arange(n_windows, dtype=np.float64) * granularity_s
    mbps_per_window = trace.throughputs_at(window_starts).tolist()
    # Packets deliverable in each window, carrying fractional remainders so
    # long-run throughput matches the trace exactly.  The carry recurrence is
    # inherently sequential; it runs over plain floats for speed but performs
    # the exact arithmetic of the original per-window loop.
    packet_bits = MTU_BYTES * BITS_PER_BYTE
    packets_per_window = np.zeros(n_windows, dtype=np.int64)
    carry_bits = 0.0
    for w, mbps in enumerate(mbps_per_window):
        bits = mbps * 1e6 * granularity_s + carry_bits
        packets = int(bits // packet_bits)
        carry_bits = bits - packets * packet_bits
        packets_per_window[w] = packets
    cumulative = np.concatenate([[0], np.cumsum(packets_per_window)])
    # Plain-Python mirrors of the arrays for the per-round hot path: list
    # indexing and ``bisect`` beat NumPy scalar indexing / the searchsorted
    # wrapper by several microseconds per call, which matters at ~94 TCP
    # rounds per chunk.
    schedule = (packets_per_window, cumulative, granularity_s,
                n_windows * granularity_s, int(packets_per_window.sum()),
                packets_per_window.tolist(), cumulative.tolist())
    per_trace[int(granularity_ms)] = schedule
    return schedule


class PacketDeliveryLink:
    """Delivery-opportunity schedule derived from a bandwidth trace.

    The schedule repeats cyclically (like Mahimahi's trace replay), so
    arbitrarily long sessions can be emulated over a finite trace.
    """

    def __init__(self, trace: Trace, config: Optional[LinkConfig] = None) -> None:
        self.trace = trace
        self.config = config or LinkConfig()
        (self._packets_per_window, self._cumulative, self._granularity_s,
         self._cycle_s, self._cycle_packets, self._pw_list,
         self._cum_list) = _delivery_schedule(trace, self.config.granularity_ms)
        self._n_windows = len(self._pw_list)

    # ------------------------------------------------------------------ #
    @property
    def cycle_duration_s(self) -> float:
        return self._cycle_s

    @property
    def mean_throughput_mbps(self) -> float:
        if self._cycle_s <= 0:
            return 0.0
        bits = self._cycle_packets * MTU_BYTES * BITS_PER_BYTE
        return bits / self._cycle_s / 1e6

    # ------------------------------------------------------------------ #
    def packets_delivered_between(self, start_s: float, end_s: float) -> int:
        """Number of delivery opportunities in ``[start_s, end_s)``."""
        if end_s <= start_s:
            return 0
        return self._packets_before(end_s) - self._packets_before(start_s)

    def _packets_before(self, time_s: float) -> int:
        if time_s <= 0:
            return 0
        full_cycles = int(time_s // self._cycle_s)
        remainder_s = time_s - full_cycles * self._cycle_s
        window = int(remainder_s / self._granularity_s)
        if window > self._n_windows:
            window = self._n_windows
        partial = self._cum_list[window]
        # Within the current window, deliveries are spread uniformly.
        if window < self._n_windows:
            window_fraction = (remainder_s - window * self._granularity_s) / self._granularity_s
            partial += int(self._pw_list[window] * window_fraction)
        return full_cycles * self._cycle_packets + partial

    def time_to_deliver(self, start_s: float, num_bytes: float,
                        rate_cap_bytes_per_s: Optional[float] = None) -> float:
        """Time at which ``num_bytes`` will have been delivered, starting at ``start_s``.

        ``rate_cap_bytes_per_s`` optionally limits the sending rate: the
        TCP model's round is capped at one congestion window per RTT, so in
        rounds where the sender, not the link, is the bottleneck the cap
        sets the end time.  :meth:`TCPConnection.transfer
        <repro.emulation.tcp.TCPConnection.transfer>` performs this exact
        computation inline in every round.
        """
        if num_bytes <= 0:
            return start_s
        packets_needed = math.ceil(num_bytes / MTU_BYTES)
        if self._cycle_packets == 0:
            raise RuntimeError("link trace has zero capacity; nothing can be delivered")
        target = self._packets_before(start_s) + packets_needed
        link_limited_end = self._invert_prefix(target)
        if rate_cap_bytes_per_s is not None and rate_cap_bytes_per_s > 0:
            sender_limited_end = start_s + num_bytes / rate_cap_bytes_per_s
            return max(link_limited_end, sender_limited_end)
        return link_limited_end

    def _invert_bisect(self, start_s: float, target: int) -> float:
        """Binary search over time for the target count (the fallback)."""
        low = start_s
        high = start_s + self._cycle_s
        while self._packets_before(high) < target:
            high += self._cycle_s
        for _ in range(64):
            mid = 0.5 * (low + high)
            if self._packets_before(mid) >= target:
                high = mid
            else:
                low = mid
        return high

    def _invert_prefix(self, target: int) -> float:
        """Analytic inversion of the cumulative delivery prefix.

        Locates the cycle by integer division, the window by one
        ``bisect_left`` over the cumulative packet counts, and the position
        inside the window by the uniform-spread model ``count = ⌊pw·frac⌋``.
        A bounded ``nextafter`` fix-up absorbs the few-ulp rounding of the
        analytic division so the invariant ``_packets_before(t) >= target``
        (the property the binary search converges to) always holds; if
        the fix-up budget is ever exhausted :meth:`_invert_bisect` answers
        instead, so the inversion can only disagree with the model by ulps,
        never by packets.
        """
        cycles, rem = divmod(target, self._cycle_packets)
        if rem == 0:
            cycles -= 1
            rem = self._cycle_packets
        # First window whose cumulative count reaches ``rem``:
        # cumulative[w] < rem <= cumulative[w + 1].
        w = bisect_left(self._cum_list, rem) - 1
        within = rem - self._cum_list[w]
        window_packets = self._pw_list[w]
        t = cycles * self._cycle_s + (w + within / window_packets) * self._granularity_s
        for _ in range(64):
            if self._packets_before(t) >= target:
                return t
            t = math.nextafter(t, math.inf)
        return self._invert_bisect(max(0.0, cycles * self._cycle_s), target)

    def throughput_between(self, start_s: float, end_s: float) -> float:
        """Average delivered throughput (Mbit/s) over ``[start_s, end_s)``."""
        duration = end_s - start_s
        if duration <= 0:
            return 0.0
        packets = self.packets_delivered_between(start_s, end_s)
        return packets * MTU_BYTES * BITS_PER_BYTE / duration / 1e6
