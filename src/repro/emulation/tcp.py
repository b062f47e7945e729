"""A simple TCP throughput model layered on the packet-delivery link.

The chunk-level simulator assumes each chunk instantly achieves the link rate.
Real HTTP streaming over TCP does not: every transfer starts from the current
congestion window, ramps up through slow start, and is capped by the link.
This model captures the first-order effects that make emulation numbers differ
from simulation numbers in the paper's Table 4:

* **slow start** — the congestion window starts at ``initial_cwnd`` segments
  and doubles every RTT until it reaches the slow-start threshold or the link
  bandwidth-delay product;
* **congestion avoidance** — beyond the threshold the window grows by one
  segment per RTT;
* **idle decay** — dash.js leaves the connection idle between chunk requests;
  after an idle period the window collapses back toward its initial value
  (RFC 2861 congestion-window validation), which repeatedly re-pays the
  slow-start cost and is a major reason emulated QoE is lower.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .link import MTU_BYTES, LinkConfig, PacketDeliveryLink

__all__ = ["TCPConfig", "TCPConnection", "TransferResult"]


@dataclass(frozen=True)
class TCPConfig:
    """Parameters of the TCP throughput model."""

    initial_cwnd_segments: int = 10
    initial_ssthresh_segments: int = 64
    max_cwnd_segments: int = 1024
    #: Idle time after which the congestion window is reset (seconds).
    idle_reset_s: float = 1.0
    #: Multiplicative decrease applied when the link is saturated.
    loss_backoff: float = 0.5


@dataclass
class TransferResult:
    """Outcome of one HTTP response body transfer."""

    start_s: float
    end_s: float
    bytes_transferred: float
    mean_throughput_mbps: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TCPConnection:
    """Stateful TCP connection over a :class:`PacketDeliveryLink`."""

    def __init__(self, link: PacketDeliveryLink, config: Optional[TCPConfig] = None) -> None:
        self.link = link
        self.config = config or TCPConfig()
        self.cwnd_segments = float(self.config.initial_cwnd_segments)
        self.ssthresh_segments = float(self.config.initial_ssthresh_segments)
        self._last_activity_s: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _maybe_idle_reset(self, now_s: float) -> None:
        if self._last_activity_s is None:
            return
        idle = now_s - self._last_activity_s
        if idle >= self.config.idle_reset_s:
            # RFC 2861: collapse the window after an idle period.
            self.cwnd_segments = float(self.config.initial_cwnd_segments)

    def transfer(self, start_s: float, num_bytes: float) -> TransferResult:
        """Transfer ``num_bytes`` starting at ``start_s``; returns timing info.

        The transfer is simulated RTT by RTT: each round sends up to ``cwnd``
        segments, constrained by what the link can deliver in that round.

        This is the emulation hot path (~94 rounds per chunk), so the round
        loop is fused with the link's delivery-schedule inversion: the link's
        cached schedule and the congestion state live in locals, and each
        round ends exactly where the one-shot ``link.time_to_deliver(now,
        to_send, rate_cap_bytes_per_s=window_bytes / rtt)``
        (``_packets_before`` of the round start, then ``_invert_prefix`` or
        ``_invert_bisect``) would end it.  Except for the two skips below,
        it performs the same float operations in the same order, so results
        are bit-identical to calling it per round; that composition is kept
        as the oracle in ``tests/test_tcp_rounds.py``.

        On the prefix engine the loop skips two pieces of work:

        * **Rounds the link is ahead of skip the inversion.**  A round never
          ends before its clock, the later of the sender's window clock
          ``now + to_send / cap_rate`` and ``now + rtt``.  When the analytic
          start lies before that clock, the ``nextafter`` fix-up starts at
          the clock.  If the link has delivered the round's packets by then
          (a sender-limited round, about 78 % of the serving workload's
          rounds), one packet count confirms it and the round ends on its
          clock.  This is exact: the count never decreases in time, and the
          fix-up walks up one float at a time and stops at the first time
          whose count reaches the target.  So the walk from the analytic
          start ends at or before the clock exactly when the clock's count
          reaches the target, and the round ends at the later of the two
          either way.  Otherwise the walk from the clock reaches the same
          first float as the walk from the analytic start.
        * **The link is counted once per transfer.**  Every round then ends
          on the time whose packet count the fix-up computed last, and that
          count is the next round's start count.

        Both rest on the fix-up converging within its 64-step budget, so
        that the bisect fallback never answers; the tests bound the walk
        at 4 steps.  The ``bisect`` engine keeps its full inversion.
        """
        if num_bytes <= 0:
            return TransferResult(start_s, start_s, 0.0, 0.0)
        self._maybe_idle_reset(start_s)
        link = self.link
        rtt = link.config.rtt_s
        bisect_engine = link.config.delivery_engine == "bisect"
        pw = link._pw_list
        cum = link._cum_list
        n_windows = link._n_windows
        granularity_s = link._granularity_s
        cycle_s = link._cycle_s
        cycle_packets = link._cycle_packets
        if cycle_packets == 0:
            raise RuntimeError("link trace has zero capacity; nothing can be delivered")
        max_cwnd = float(self.config.max_cwnd_segments)
        loss_backoff = self.config.loss_backoff
        cwnd = self.cwnd_segments
        ssthresh = self.ssthresh_segments
        remaining = float(num_bytes)
        now = start_s
        start_count = None  # packets the link has delivered by ``now``

        while remaining > 0:
            window_bytes = cwnd * MTU_BYTES
            to_send = remaining if remaining < window_bytes else window_bytes
            # The sender cannot exceed cwnd per RTT; the link cannot exceed its
            # delivery schedule.  The round ends when the last byte of this
            # window is delivered (at least one RTT passes per round).
            cap_rate = window_bytes / rtt
            rtt_end = now + rtt
            count = None  # packets the link has delivered by ``link_end``
            if to_send <= 0:
                delivered_by = link_end = now
            else:
                if start_count is None:
                    start_count = link._packets_before(now)
                target = start_count + math.ceil(to_send / MTU_BYTES)
                sender_end = (now + to_send / cap_rate if cap_rate > 0
                              else -math.inf)
                if bisect_engine:
                    link_end = link._invert_bisect(now, target)
                else:
                    # Prefix inversion: the cycle by integer division, the
                    # window by one bisect over the cumulative counts, the
                    # position inside it by the uniform-spread model, then a
                    # bounded nextafter fix-up on the packet count (an inlined
                    # ``_packets_before``; ``t`` is always positive here).
                    cycles, rem = divmod(target, cycle_packets)
                    if rem == 0:
                        cycles -= 1
                        rem = cycle_packets
                    w = bisect_left(cum, rem) - 1
                    t = (cycles * cycle_s
                         + (w + (rem - cum[w]) / pw[w]) * granularity_s)
                    # The round cannot end before its clock (the sender's
                    # window clock or one RTT), so the fix-up may start
                    # there: if the link is ahead of the round, the first
                    # count confirms it and the round ends on its clock.
                    clock_end = sender_end if sender_end > rtt_end else rtt_end
                    if t < clock_end:
                        t = clock_end
                    for _ in range(64):
                        full_cycles = int(t // cycle_s)
                        remainder_s = t - full_cycles * cycle_s
                        window = int(remainder_s / granularity_s)
                        if window > n_windows:
                            window = n_windows
                        partial = cum[window]
                        if window < n_windows:
                            partial += int(pw[window] * (
                                (remainder_s - window * granularity_s)
                                / granularity_s))
                        count = full_cycles * cycle_packets + partial
                        if count >= target:
                            break
                        t = math.nextafter(t, math.inf)
                    else:
                        count = None
                        t = link._invert_bisect(max(0.0, cycles * cycle_s),
                                                target)
                    link_end = t
                delivered_by = (sender_end if sender_end > link_end
                                else link_end)
            link_was_bottleneck = delivered_by > rtt_end + 1e-9
            remaining -= to_send
            if rtt_end > delivered_by:
                now = rtt_end
                start_count = None
            else:
                now = delivered_by
                start_count = count if now == link_end else None

            # Congestion control bookkeeping for the next round.
            if link_was_bottleneck:
                # Treat link saturation as a loss event: multiplicative decrease.
                backed_off = cwnd * loss_backoff
                ssthresh = backed_off if backed_off > 2.0 else 2.0
                cwnd = ssthresh
            elif cwnd < ssthresh:
                grown = cwnd * 2.0
                cwnd = max_cwnd if max_cwnd < grown else grown
            else:
                grown = cwnd + 1.0
                cwnd = max_cwnd if max_cwnd < grown else grown

        self.cwnd_segments = cwnd
        self.ssthresh_segments = ssthresh
        self._last_activity_s = now
        duration = max(now - start_s, 1e-9)
        mbps = num_bytes * 8.0 / duration / 1e6
        return TransferResult(start_s=start_s, end_s=now,
                              bytes_transferred=float(num_bytes),
                              mean_throughput_mbps=mbps)
