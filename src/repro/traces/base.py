"""Core trace data structures.

A *trace* is a time series of available downlink bandwidth.  Both the
chunk-level simulator and the packet-level emulator consume traces through the
same :class:`Trace` interface: a sequence of ``(timestamp_s, throughput_mbps)``
samples which is replayed cyclically when a session outlasts the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Trace", "TraceSet"]


@dataclass(eq=False)
class Trace:
    """A bandwidth trace: parallel arrays of timestamps and throughputs.

    Attributes:
        timestamps_s: Monotonically increasing sample times in seconds,
            starting at or after zero.
        throughputs_mbps: Available bandwidth at each sample, in Mbit/s.
        name: Identifier used in logs, tables and dataset splits.
    """

    timestamps_s: np.ndarray
    throughputs_mbps: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        self.timestamps_s = np.asarray(self.timestamps_s, dtype=np.float64)
        self.throughputs_mbps = np.asarray(self.throughputs_mbps, dtype=np.float64)
        if self.timestamps_s.ndim != 1 or self.throughputs_mbps.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")
        if len(self.timestamps_s) != len(self.throughputs_mbps):
            raise ValueError("timestamps and throughputs must have equal length")
        if len(self.timestamps_s) < 2:
            raise ValueError("a trace needs at least two samples")
        if np.any(np.diff(self.timestamps_s) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(self.throughputs_mbps < 0):
            raise ValueError("throughputs must be non-negative")
        #: Lazily built capacity prefix sums, keyed by the throughput floor
        #: (Mbit/s) applied to each segment; see :meth:`capacity_prefix`.
        self._capacity_cache: dict = {}
        self._relative_times: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.timestamps_s)

    @property
    def duration_s(self) -> float:
        """Total duration covered by the trace in seconds."""
        return float(self.timestamps_s[-1] - self.timestamps_s[0])

    @property
    def mean_throughput_mbps(self) -> float:
        """Time-weighted mean throughput in Mbit/s."""
        gaps = np.diff(self.timestamps_s)
        # Each sample value is valid until the next timestamp.
        return float(np.average(self.throughputs_mbps[:-1], weights=gaps))

    @property
    def min_throughput_mbps(self) -> float:
        return float(self.throughputs_mbps.min())

    @property
    def max_throughput_mbps(self) -> float:
        return float(self.throughputs_mbps.max())

    @property
    def std_throughput_mbps(self) -> float:
        """Time-weighted standard deviation of throughput in Mbit/s.

        Weighted by segment duration around the time-weighted mean, so that
        irregularly-sampled traces report variability on the same basis as
        :attr:`mean_throughput_mbps` (a sample-weighted std next to a
        time-weighted mean misstates variability whenever sampling density
        correlates with throughput).  As with the mean, the last sample only
        marks the end of the final segment and carries no weight.
        """
        gaps = np.diff(self.timestamps_s)
        values = self.throughputs_mbps[:-1]
        mean = np.average(values, weights=gaps)
        variance = np.average((values - mean) ** 2, weights=gaps)
        return float(np.sqrt(variance))

    # ------------------------------------------------------------------ #
    def throughput_at(self, time_s: float) -> float:
        """Return the bandwidth at ``time_s``, wrapping around the trace end."""
        wrapped = (time_s - self.timestamps_s[0]) % self.duration_s + self.timestamps_s[0]
        index = int(np.searchsorted(self.timestamps_s, wrapped, side="right") - 1)
        index = max(0, min(index, len(self.throughputs_mbps) - 1))
        return float(self.throughputs_mbps[index])

    def throughputs_at(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`throughput_at` over an array of sample times.

        Applies the exact wrap/lookup arithmetic of the scalar method
        elementwise, so ``throughputs_at(t)[i]`` is bit-identical to
        ``throughput_at(t[i])``.  The emulation link uses this to sample one
        delivery window per trace granularity step in a single call instead
        of thousands of scalar lookups.
        """
        times = np.asarray(times_s, dtype=np.float64)
        wrapped = (times - self.timestamps_s[0]) % self.duration_s + self.timestamps_s[0]
        index = np.searchsorted(self.timestamps_s, wrapped, side="right") - 1
        np.clip(index, 0, len(self.throughputs_mbps) - 1, out=index)
        return self.throughputs_mbps[index]

    def iter_segments(self) -> Iterator[Tuple[float, float, float]]:
        """Yield ``(start_s, duration_s, throughput_mbps)`` segments."""
        for i in range(len(self.timestamps_s) - 1):
            start = float(self.timestamps_s[i])
            duration = float(self.timestamps_s[i + 1] - self.timestamps_s[i])
            yield start, duration, float(self.throughputs_mbps[i])

    @property
    def relative_times_s(self) -> np.ndarray:
        """Sample times re-based so the first sample sits at zero (cached)."""
        if self._relative_times is None:
            self._relative_times = self.timestamps_s - self.timestamps_s[0]
        return self._relative_times

    def capacity_prefix(self, floor_mbps: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative link capacity at each sample, with a per-segment rate floor.

        Returns ``(cumulative_mbit, floored_rates_mbps)`` where
        ``cumulative_mbit[i]`` is the Mbit deliverable from the start of the
        trace to ``timestamps_s[i]`` when every segment's throughput is floored
        at ``floor_mbps`` (a positive floor makes the prefix strictly
        increasing, which is what lets the simulator binary-search it).  The
        last sample's throughput never contributes: cyclic replay wraps from
        the final timestamp straight back to the first segment.

        Results are cached per floor; the common case (no bandwidth noise)
        reuses one cached pair for every chunk download.  The cache is
        bounded: bandwidth noise makes every download use a distinct floor,
        and caching those would grow without limit, so past the first few
        floors the arrays are computed fresh and not retained.
        """
        key = float(floor_mbps)
        cached = self._capacity_cache.get(key)
        if cached is None:
            durations = np.diff(self.timestamps_s)
            rates = np.maximum(self.throughputs_mbps[:-1], key)
            cumulative = np.empty(len(self.timestamps_s), dtype=np.float64)
            cumulative[0] = 0.0
            np.cumsum(rates * durations, out=cumulative[1:])
            cached = (cumulative, rates)
            if len(self._capacity_cache) < 8:
                self._capacity_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    def scaled(self, factor: float, name: Optional[str] = None) -> "Trace":
        """Return a copy with every throughput multiplied by ``factor``.

        The paper divides Starlink capacity by eight to mimic peak-hour
        contention; this is the operation that implements it.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Trace(
            self.timestamps_s.copy(),
            self.throughputs_mbps * factor,
            name=name or f"{self.name}-x{factor:g}",
        )

    def sliced(self, start_s: float, end_s: float, name: Optional[str] = None) -> "Trace":
        """Return the sub-trace between ``start_s`` and ``end_s`` (re-based to 0)."""
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        mask = (self.timestamps_s >= start_s) & (self.timestamps_s <= end_s)
        if mask.sum() < 2:
            raise ValueError("slice contains fewer than two samples")
        times = self.timestamps_s[mask] - start_s
        return Trace(times, self.throughputs_mbps[mask], name=name or f"{self.name}-slice")

    def resampled(self, interval_s: float, name: Optional[str] = None) -> "Trace":
        """Return a copy sampled on a uniform grid of ``interval_s`` seconds."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        n_samples = max(2, int(math.floor(self.duration_s / interval_s)) + 1)
        grid = self.timestamps_s[0] + np.arange(n_samples) * interval_s
        values = np.array([self.throughput_at(t) for t in grid])
        return Trace(grid, values, name=name or f"{self.name}-resampled")

    def with_name(self, name: str) -> "Trace":
        return Trace(self.timestamps_s.copy(), self.throughputs_mbps.copy(), name=name)


class TraceSet:
    """An ordered, named collection of traces (e.g. the FCC training split)."""

    def __init__(self, traces: Iterable[Trace], name: str = "traceset") -> None:
        self._traces: List[Trace] = list(traces)
        if not self._traces:
            raise ValueError("a TraceSet needs at least one trace")
        self.name = name

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __getitem__(self, index: int) -> Trace:
        return self._traces[index]

    @property
    def traces(self) -> Sequence[Trace]:
        return tuple(self._traces)

    # ------------------------------------------------------------------ #
    @property
    def total_hours(self) -> float:
        """Sum of trace durations in hours (the 'Hours' columns of Table 1)."""
        return sum(t.duration_s for t in self._traces) / 3600.0

    @property
    def mean_throughput_mbps(self) -> float:
        """Duration-weighted mean throughput across all traces."""
        durations = np.array([t.duration_s for t in self._traces])
        means = np.array([t.mean_throughput_mbps for t in self._traces])
        return float(np.average(means, weights=durations))

    # ------------------------------------------------------------------ #
    def sample(self, rng: np.random.Generator) -> Trace:
        """Draw a trace uniformly at random (used by training rollouts)."""
        return self._traces[int(rng.integers(len(self._traces)))]

    def split(self, train_fraction: float, rng: Optional[np.random.Generator] = None,
              ) -> Tuple["TraceSet", "TraceSet"]:
        """Randomly split into train/test subsets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        indices = np.arange(len(self._traces))
        if rng is not None:
            rng.shuffle(indices)
        cut = max(1, min(len(indices) - 1, int(round(train_fraction * len(indices)))))
        train = [self._traces[i] for i in indices[:cut]]
        test = [self._traces[i] for i in indices[cut:]]
        return (TraceSet(train, name=f"{self.name}-train"),
                TraceSet(test, name=f"{self.name}-test"))

    def scaled(self, factor: float) -> "TraceSet":
        """Scale every trace's bandwidth by ``factor``."""
        return TraceSet([t.scaled(factor) for t in self._traces],
                        name=f"{self.name}-x{factor:g}")
