"""Reference engines: the slow, loop-based implementations the fast paths
of ``src/repro`` are tested against.

Each of these was once an engine the program could be switched to; now a
reference path runs only where a test or a benchmark installs it on
purpose:

* :func:`segment_walk_download` — the chunk-level simulator's original
  per-segment trace walk, the oracle of the prefix-sum download
  (``ChunkLevelSimulator._download``);
* :func:`reference_time_to_deliver` / :func:`reference_transfer` — the
  unfused TCP round composition, one one-shot link inversion per round,
  with the analytic prefix inversion or (``bisect=True``) the 64-step
  binary search; the oracle of the fused round loop in
  ``TCPConnection.transfer``;
* :func:`serial_evaluate_agent` — checkpoint evaluation one trace after
  another, the oracle of the lockstep evaluator;
* :func:`seed_reference_mode` — installs all of the above plus the seed
  repository's Conv1D forward, RMSProp step and action sampler, for the
  engine benchmark's baseline side.

The tests import this module directly (pytest puts ``tests/`` on
``sys.path``); ``benchmarks/bench_scales.py`` adds ``tests/`` to
``sys.path`` to import it.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.abr.env import MIN_THROUGHPUT_MBPS, ChunkLevelSimulator
from repro.abr.qoe import LinearQoE
from repro.emulation.link import MTU_BYTES, PacketDeliveryLink
from repro.emulation.tcp import TCPConnection, TransferResult
from repro.nn import layers as nn_layers
from repro.nn import optim as nn_optim
from repro.nn.tensor import Tensor, stack
from repro.rl import a2c as rl_a2c
from repro.rl import agent as rl_agent
from repro.rl import policy as rl_policy
from repro.rl.rollout import collect_episode

__all__ = [
    "MAX_WALK_ITERATIONS",
    "segment_view",
    "segment_walk_download",
    "use_segment_walk",
    "reference_invert_prefix",
    "reference_time_to_deliver",
    "reference_transfer",
    "bisect_transfer",
    "bisect_delivery",
    "serial_evaluate_agent",
    "seed_patches",
    "seed_reference_mode",
]


# --------------------------------------------------------------------------- #
# Chunk downloads: the per-segment trace walk.
# --------------------------------------------------------------------------- #
#: Refuse to walk more than this many segments for a single chunk: a larger
#: exact bound means the download is infeasible on any realistic timescale
#: (the prefix-sum download resolves the same chunk in O(log n) either way).
MAX_WALK_ITERATIONS = 10_000_000


def segment_view(sim: ChunkLevelSimulator) -> tuple:
    """Current segment's ``(throughput_mbps, seconds_to_next_sample)``.

    When modular arithmetic leaves the position a float round-off short of
    a sample boundary, the view snaps forward to the boundary so the walk
    integrates the trace exactly instead of charging phantom time at the
    previous segment's rate.
    """
    trace = sim.trace
    times = trace.timestamps_s
    wrapped = (sim._time_in_trace_s - times[0]) % trace.duration_s + times[0]
    index = int(np.searchsorted(times, wrapped, side="right")) - 1
    index = max(0, min(index, len(times) - 2))
    gap = float(times[index + 1] - wrapped)
    if gap <= 1e-9:
        # Effectively sitting on the next sample already.
        index += 1
        if index >= len(times) - 1:
            index = 0
        gap = float(times[index + 1] - times[index])
    return float(trace.throughputs_mbps[index]), gap


def segment_walk_download(sim: ChunkLevelSimulator, chunk_bytes: float,
                          noise: float) -> float:
    """Walk the trace segment by segment until the chunk is transferred.

    A drop-in for ``ChunkLevelSimulator._download`` (see
    :func:`use_segment_walk`).  The iteration bound is exact rather than a
    magic constant: each pass over the replay cycle takes at most
    ``len(trace) - 1`` iterations and delivers at least the cycle's floored
    capacity, so the number of cycles needed is ``required /
    cycle_capacity``.  A bound beyond :data:`MAX_WALK_ITERATIONS` fails
    fast with a descriptive error instead of looping for minutes first.
    """
    remaining = chunk_bytes
    elapsed = 0.0
    floor = MIN_THROUGHPUT_MBPS / noise
    cumulative, _ = sim.trace.capacity_prefix(floor)
    cycle_capacity = float(cumulative[-1]) * noise
    required = sim._required_rate_seconds(chunk_bytes, noise)
    segments_per_cycle = max(len(sim.trace) - 1, 1)
    cycles_needed = required / cycle_capacity
    max_iterations = int(np.ceil(cycles_needed + 2.0)) * segments_per_cycle
    if max_iterations > MAX_WALK_ITERATIONS:
        raise RuntimeError(
            f"download of {chunk_bytes:.0f} bytes on trace "
            f"{sim.trace.name!r} would walk {max_iterations} segments "
            f"({cycles_needed:.0f} replay cycles of {cycle_capacity:.6g} "
            f"Mbit); the link is effectively dead — refusing to iterate "
            f"past {MAX_WALK_ITERATIONS}")
    for _ in range(max_iterations):
        raw_mbps, segment_remaining = segment_view(sim)
        bytes_per_s = (max(raw_mbps * noise, MIN_THROUGHPUT_MBPS)
                       * 1e6 / 8.0 * sim.config.payload_fraction)
        capacity = bytes_per_s * segment_remaining
        if capacity >= remaining:
            used = remaining / bytes_per_s
            elapsed += used
            sim._advance_trace_time(used)
            return elapsed
        remaining -= capacity
        elapsed += segment_remaining
        sim._advance_trace_time(segment_remaining)
    raise RuntimeError(
        f"download of {chunk_bytes:.0f} bytes did not terminate on trace "
        f"{sim.trace.name!r} within {max_iterations} iterations "
        f"({segments_per_cycle} segments/cycle, {cycles_needed:.1f} cycles "
        f"of {cycle_capacity:.6g} Mbit needed)")


def use_segment_walk(sim: ChunkLevelSimulator) -> ChunkLevelSimulator:
    """Make one simulator download by the segment walk; returns it."""
    sim._download = lambda chunk_bytes, noise: segment_walk_download(
        sim, chunk_bytes, noise)
    return sim


# --------------------------------------------------------------------------- #
# TCP rounds: the unfused composition over one-shot link inversions.
# --------------------------------------------------------------------------- #
def reference_invert_prefix(link: PacketDeliveryLink, target: int) -> float:
    """``PacketDeliveryLink._invert_prefix`` as first written."""
    cycles, rem = divmod(target, link._cycle_packets)
    if rem == 0:
        cycles -= 1
        rem = link._cycle_packets
    w = bisect_left(link._cum_list, rem) - 1
    within = rem - link._cum_list[w]
    window_packets = link._pw_list[w]
    t = cycles * link._cycle_s + (w + within / window_packets) * link._granularity_s
    for _ in range(64):
        if link._packets_before(t) >= target:
            return t
        t = float(np.nextafter(t, np.inf))
    return link._invert_bisect(max(0.0, cycles * link._cycle_s), target)


def reference_time_to_deliver(link: PacketDeliveryLink, start_s: float,
                              num_bytes: float,
                              rate_cap_bytes_per_s: Optional[float] = None,
                              bisect: bool = False) -> float:
    """The one-shot inversion: prefix lookup, or binary search if ``bisect``."""
    if num_bytes <= 0:
        return start_s
    packets_needed = int(np.ceil(num_bytes / MTU_BYTES))
    if link._cycle_packets == 0:
        raise RuntimeError("link trace has zero capacity; nothing can be delivered")
    target = link._packets_before(start_s) + packets_needed

    if bisect:
        link_limited_end = link._invert_bisect(start_s, target)
    else:
        link_limited_end = reference_invert_prefix(link, target)

    if rate_cap_bytes_per_s is not None and rate_cap_bytes_per_s > 0:
        sender_limited_end = start_s + num_bytes / rate_cap_bytes_per_s
        return max(link_limited_end, sender_limited_end)
    return link_limited_end


def reference_transfer(self: TCPConnection, start_s: float, num_bytes: float,
                       bisect: bool = False) -> TransferResult:
    """``TCPConnection.transfer`` as one ``time_to_deliver`` per round."""
    if num_bytes <= 0:
        return TransferResult(start_s, start_s, 0.0, 0.0)
    self._maybe_idle_reset(start_s)
    rtt = self.link.config.rtt_s
    remaining = float(num_bytes)
    now = start_s

    while remaining > 0:
        window_bytes = self.cwnd_segments * MTU_BYTES
        to_send = min(window_bytes, remaining)
        cap_rate = window_bytes / rtt
        delivered_by = reference_time_to_deliver(self.link, now, to_send,
                                                 rate_cap_bytes_per_s=cap_rate,
                                                 bisect=bisect)
        round_end = max(delivered_by, now + rtt)
        link_was_bottleneck = delivered_by > now + rtt + 1e-9
        remaining -= to_send
        now = round_end

        if link_was_bottleneck:
            self.ssthresh_segments = max(2.0, self.cwnd_segments * self.config.loss_backoff)
            self.cwnd_segments = self.ssthresh_segments
        elif self.cwnd_segments < self.ssthresh_segments:
            self.cwnd_segments = min(self.cwnd_segments * 2.0,
                                     float(self.config.max_cwnd_segments))
        else:
            self.cwnd_segments = min(self.cwnd_segments + 1.0,
                                     float(self.config.max_cwnd_segments))

    self._last_activity_s = now
    duration = max(now - start_s, 1e-9)
    mbps = num_bytes * 8.0 / duration / 1e6
    return TransferResult(start_s=start_s, end_s=now,
                          bytes_transferred=float(num_bytes),
                          mean_throughput_mbps=mbps)


def bisect_transfer(self: TCPConnection, start_s: float,
                    num_bytes: float) -> TransferResult:
    """The bisect round loop: a binary-search inversion in every round."""
    return reference_transfer(self, start_s, num_bytes, bisect=True)


# --------------------------------------------------------------------------- #
# Checkpoint evaluation: one trace after another.
# --------------------------------------------------------------------------- #
def serial_evaluate_agent(agent, video, traces, qoe=None,
                          simulator_config=None, greedy: bool = True,
                          seed: Optional[int] = None) -> float:
    """``evaluate_agent`` without the lockstep path: every trace played on
    its own, in order, on one ``seed``-ed generator."""
    rng = np.random.default_rng(seed)
    qoe = qoe or LinearQoE(video.bitrates_kbps)
    rewards = [collect_episode(agent, video, trace, qoe=qoe,
                               config=simulator_config, rng=rng,
                               greedy=greedy).mean_reward
               for trace in traces]
    return float(np.mean(rewards))


# --------------------------------------------------------------------------- #
# Seed hot paths, as the seed repository shipped them.
# --------------------------------------------------------------------------- #
def seed_conv1d_forward(self, x):
    """Conv1D.forward as shipped in the seed: one graph node per position."""
    if x.ndim == 2:
        x = x.reshape(x.shape[0], 1, x.shape[1])
    batch, channels, length = x.shape
    if channels != self.in_channels:
        raise ValueError(f"Conv1D expected {self.in_channels} channels, got {channels}")
    kernel = self.kernel_size
    if length < kernel:
        raise ValueError(f"Conv1D input length {length} is shorter than kernel size {kernel}")
    positions = list(range(0, length - kernel + 1, self.stride))
    columns = []
    for start in positions:
        patch = x[:, :, start:start + kernel].reshape(batch, channels * kernel)
        columns.append(patch)
    stacked = stack(columns, axis=1)
    flat_weight = Tensor(self.weight.data.reshape(self.out_channels, channels * kernel))
    flat_weight.requires_grad = self.weight.requires_grad
    weight_param = self.weight

    def weight_backward(grad):
        weight_param._accumulate(grad.reshape(weight_param.data.shape))

    flat_weight._parents = (weight_param,)
    flat_weight._backward = weight_backward
    out = stacked.matmul(flat_weight.transpose())
    out = out.transpose(0, 2, 1)
    if self.bias is not None:
        out = out + self.bias.reshape(1, self.out_channels, 1)
    return self.activation(out)


def seed_rmsprop_step(self):
    """RMSProp.step as shipped in the seed: fresh temporaries per parameter."""
    for p, square_avg in zip(self.parameters, self._square_avg):
        if p.grad is None:
            continue
        square_avg *= self.decay
        square_avg += (1.0 - self.decay) * p.grad ** 2
        p.data = p.data - self.lr * p.grad / (np.sqrt(square_avg) + self.eps)
        p.version = getattr(p, "version", 0) + 1


def seed_sample_action(probabilities, rng):
    """sample_action as shipped in the seed: ``rng.choice`` with validation."""
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        probs = np.full(len(probs), 1.0 / len(probs))
    else:
        probs = probs / total
    return int(rng.choice(len(probs), p=probs))


# --------------------------------------------------------------------------- #
# Installing the references.
# --------------------------------------------------------------------------- #
Patch = Tuple[object, str, object]


@contextlib.contextmanager
def _patched(patches: List[Patch]) -> Iterator[None]:
    """Set every ``(owner, attribute, value)``; restore them all on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@contextlib.contextmanager
def bisect_delivery() -> Iterator[None]:
    """Emulate with the bisect round loop (the serving A/B's reference)."""
    with _patched([(TCPConnection, "transfer", bisect_transfer)]):
        yield


def seed_patches() -> List[Patch]:
    """Every ``(owner, attribute, replacement)`` :func:`seed_reference_mode`
    installs."""
    return [(nn_layers.Conv1D, "forward", seed_conv1d_forward),
            (nn_optim.RMSProp, "step", seed_rmsprop_step),
            (rl_policy, "sample_action", seed_sample_action),
            (rl_agent, "sample_action", seed_sample_action),
            (ChunkLevelSimulator, "_download", segment_walk_download),
            (rl_a2c, "evaluate_agent", serial_evaluate_agent),
            (TCPConnection, "transfer", bisect_transfer)]


@contextlib.contextmanager
def seed_reference_mode() -> Iterator[None]:
    """Run the seed repository's engine: the reference download, delivery
    and evaluation engines, the seed's hot-path implementations, float64
    and the autograd graph (no kernel compiler)."""
    with _patched(seed_patches()):
        with nn.engine.using(nn.EngineConfig(dtype="float64", compile=False)):
            yield
