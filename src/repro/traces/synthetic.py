"""Synthetic network-trace generators for the four environments in the paper.

The paper evaluates on measured traces (FCC broadband, a Starlink RV terminal,
and 4G/5G drive tests) that are not publicly released.  These generators are
the substitution documented in DESIGN.md: seedable stochastic processes whose
scale, variability and non-stationarity match the per-environment statistics
the paper reports in Table 1:

===========  =============  ==========================================
Environment  Mean (Mbps)    Character
===========  =============  ==========================================
FCC          1.3            slowly varying broadband, 5-second bins
Starlink     1.6            15-second handover dips, peak-hour 1/8 cap
4G           19.8           bursty cellular with mobility fades
5G           30.2           very high mean, deep mmWave outages
===========  =============  ==========================================

Each ``generate_*_trace`` function returns a single :class:`Trace`; the
``*_dataset`` builders assemble train/test :class:`TraceSet` splits whose trace
counts and total durations follow Table 1 (optionally scaled down for fast
tests and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .base import Trace, TraceSet

__all__ = [
    "generate_fcc_trace",
    "generate_starlink_trace",
    "generate_4g_trace",
    "generate_5g_trace",
    "fcc_dataset",
    "starlink_dataset",
    "lte_dataset",
    "nr5g_dataset",
    "STARLINK_PEAK_HOUR_CAPACITY_FACTOR",
]


# The paper reduces Starlink link capacity to one eighth of the measured speed
# to model peak-hour contention on the shared satellite links (§3.1).
STARLINK_PEAK_HOUR_CAPACITY_FACTOR = 1.0 / 8.0


def _ou_process(n: int, mean: float, reversion: float, volatility: float,
                rng: np.random.Generator, initial: Optional[float] = None) -> np.ndarray:
    """Ornstein-Uhlenbeck process, the backbone of the slow bandwidth drift."""
    values = np.empty(n)
    values[0] = mean if initial is None else initial
    for i in range(1, n):
        drift = reversion * (mean - values[i - 1])
        values[i] = values[i - 1] + drift + volatility * rng.normal()
    return values


def generate_fcc_trace(duration_s: float = 420.0, interval_s: float = 5.0,
                       mean_mbps: float = 1.3, seed: Optional[int] = None,
                       name: str = "fcc") -> Trace:
    """Generate one broadband (FCC-like) trace.

    Broadband last-mile links are comparatively stable: bandwidth drifts slowly
    around the plan rate with occasional congestion episodes that shave off a
    fraction of capacity for tens of seconds.
    """
    rng = np.random.default_rng(seed)
    n = max(2, int(round(duration_s / interval_s)) + 1)
    base = _ou_process(n, mean=mean_mbps, reversion=0.08,
                       volatility=0.06 * mean_mbps, rng=rng)
    # Congestion episodes: multiplicative dips lasting 4-12 samples.
    congestion = np.ones(n)
    position = 0
    while position < n:
        gap = int(rng.integers(20, 60))
        position += gap
        if position >= n:
            break
        length = int(rng.integers(4, 12))
        depth = rng.uniform(0.45, 0.85)
        congestion[position:position + length] *= depth
        position += length
    throughput = np.clip(base * congestion, 0.1 * mean_mbps, 3.0 * mean_mbps)
    timestamps = np.arange(n) * interval_s
    return Trace(timestamps, throughput, name=name)


def generate_starlink_trace(duration_s: float = 250.0, interval_s: float = 1.0,
                            mean_mbps: float = 12.8, seed: Optional[int] = None,
                            apply_peak_hour_reduction: bool = True,
                            name: str = "starlink") -> Trace:
    """Generate one Starlink-like trace.

    LEO satellite links reconfigure on a ~15-second schedule as the terminal
    hands over between satellites; throughput dips sharply around each handover
    and otherwise fluctuates with weather/obstruction noise.  The paper further
    divides capacity by eight to model peak-hour contention, which is applied
    here when ``apply_peak_hour_reduction`` is True (resulting in the ~1.6 Mbps
    average reported in Table 1).
    """
    rng = np.random.default_rng(seed)
    n = max(2, int(round(duration_s / interval_s)) + 1)
    timestamps = np.arange(n) * interval_s
    base = _ou_process(n, mean=mean_mbps, reversion=0.15,
                       volatility=0.10 * mean_mbps, rng=rng)
    # 15-second satellite handover schedule with a random phase.
    phase = rng.uniform(0.0, 15.0)
    handover_drop = np.ones(n)
    for i, t in enumerate(timestamps):
        cycle_position = (t + phase) % 15.0
        if cycle_position < 1.5:
            # During the handover window throughput collapses.
            handover_drop[i] = rng.uniform(0.05, 0.35)
    # Obstruction events: occasional multi-second outages.
    obstruction = np.ones(n)
    position = 0
    while position < n:
        position += int(rng.integers(40, 120))
        if position >= n:
            break
        length = int(rng.integers(2, 6))
        obstruction[position:position + length] *= rng.uniform(0.02, 0.2)
        position += length
    throughput = np.clip(base * handover_drop * obstruction, 0.05, 4.0 * mean_mbps)
    if apply_peak_hour_reduction:
        throughput = throughput * STARLINK_PEAK_HOUR_CAPACITY_FACTOR
    return Trace(timestamps, throughput, name=name)


def generate_4g_trace(duration_s: float = 300.0, interval_s: float = 1.0,
                      mean_mbps: float = 19.8, seed: Optional[int] = None,
                      name: str = "4g") -> Trace:
    """Generate one 4G/LTE-like trace.

    LTE drive-test traces show large swings driven by cell load and mobility:
    sustained high-rate periods, abrupt fades when the UE moves to the cell
    edge, and bursty short-timescale variation from the scheduler.
    """
    rng = np.random.default_rng(seed)
    n = max(2, int(round(duration_s / interval_s)) + 1)
    base = _ou_process(n, mean=mean_mbps, reversion=0.05,
                       volatility=0.18 * mean_mbps, rng=rng)
    # Cell-edge fades: sustained periods at a fraction of nominal capacity.
    fade = np.ones(n)
    position = 0
    while position < n:
        position += int(rng.integers(30, 90))
        if position >= n:
            break
        length = int(rng.integers(10, 30))
        fade[position:position + length] *= rng.uniform(0.15, 0.5)
        position += length
    # Scheduler burstiness: per-sample multiplicative jitter.
    jitter = rng.lognormal(mean=0.0, sigma=0.25, size=n)
    throughput = np.clip(base * fade * jitter, 0.3, 4.0 * mean_mbps)
    timestamps = np.arange(n) * interval_s
    return Trace(timestamps, throughput, name=name)


def generate_5g_trace(duration_s: float = 300.0, interval_s: float = 1.0,
                      mean_mbps: float = 30.2, seed: Optional[int] = None,
                      name: str = "5g") -> Trace:
    """Generate one 5G-like trace.

    5G (especially mmWave-assisted) links alternate between very high
    throughput and deep outages when line of sight is lost, producing a
    bimodal distribution with higher variance than 4G.
    """
    rng = np.random.default_rng(seed)
    n = max(2, int(round(duration_s / interval_s)) + 1)
    # High band: fast and volatile.  Low band fallback: modest but stable.
    high_band = _ou_process(n, mean=1.6 * mean_mbps, reversion=0.07,
                            volatility=0.22 * mean_mbps, rng=rng)
    low_band = _ou_process(n, mean=0.35 * mean_mbps, reversion=0.1,
                           volatility=0.05 * mean_mbps, rng=rng)
    # Line-of-sight state machine: two-state Markov chain.
    on_high = np.empty(n, dtype=bool)
    state = True
    p_drop = 0.04    # probability of losing line of sight per sample
    p_recover = 0.12  # probability of regaining it
    for i in range(n):
        on_high[i] = state
        if state and rng.random() < p_drop:
            state = False
        elif not state and rng.random() < p_recover:
            state = True
    jitter = rng.lognormal(mean=0.0, sigma=0.2, size=n)
    throughput = np.where(on_high, high_band, low_band) * jitter
    throughput = np.clip(throughput, 0.5, 5.0 * mean_mbps)
    timestamps = np.arange(n) * interval_s
    return Trace(timestamps, throughput, name=name)


# --------------------------------------------------------------------------- #
# Dataset builders (Table 1 splits)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _DatasetSpec:
    """Target statistics for one environment's train/test split."""

    train_traces: int
    train_hours: float
    test_traces: int
    test_hours: float


_TABLE1_SPECS = {
    "fcc": _DatasetSpec(85, 10.0, 290, 25.7),
    "starlink": _DatasetSpec(13, 0.9, 12, 0.8),
    "4g": _DatasetSpec(119, 10.0, 121, 10.0),
    "5g": _DatasetSpec(117, 10.0, 119, 10.0),
}


def _build_split(generator, spec: _DatasetSpec, name: str, seed: int,
                 scale: float, interval_s: float, **kwargs) -> Tuple[TraceSet, TraceSet]:
    """Assemble train/test TraceSets whose counts/durations follow ``spec``.

    ``scale`` in (0, 1] shrinks both trace counts and per-trace durations so
    that unit tests and benchmarks can run quickly while exercising the same
    construction path.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    train_count = max(1, int(round(spec.train_traces * scale)))
    test_count = max(1, int(round(spec.test_traces * scale)))
    train_duration = spec.train_hours * 3600.0 * scale / train_count
    test_duration = spec.test_hours * 3600.0 * scale / test_count
    # Keep traces long enough for at least a handful of chunks.
    train_duration = max(train_duration, 60.0)
    test_duration = max(test_duration, 60.0)

    train = [
        generator(duration_s=train_duration, interval_s=interval_s,
                  seed=seed + i, name=f"{name}-train-{i:04d}", **kwargs)
        for i in range(train_count)
    ]
    test = [
        generator(duration_s=test_duration, interval_s=interval_s,
                  seed=seed + 100_000 + i, name=f"{name}-test-{i:04d}", **kwargs)
        for i in range(test_count)
    ]
    return (TraceSet(train, name=f"{name}-train"),
            TraceSet(test, name=f"{name}-test"))


def fcc_dataset(seed: int = 0, scale: float = 1.0) -> Tuple[TraceSet, TraceSet]:
    """Build the FCC broadband train/test split (Table 1 row 1)."""
    return _build_split(generate_fcc_trace, _TABLE1_SPECS["fcc"], "fcc",
                        seed=seed, scale=scale, interval_s=5.0)


def starlink_dataset(seed: int = 0, scale: float = 1.0) -> Tuple[TraceSet, TraceSet]:
    """Build the Starlink train/test split (Table 1 row 2), peak-hour reduced."""
    return _build_split(generate_starlink_trace, _TABLE1_SPECS["starlink"], "starlink",
                        seed=seed, scale=scale, interval_s=1.0)


def lte_dataset(seed: int = 0, scale: float = 1.0) -> Tuple[TraceSet, TraceSet]:
    """Build the 4G/LTE train/test split (Table 1 row 3)."""
    return _build_split(generate_4g_trace, _TABLE1_SPECS["4g"], "4g",
                        seed=seed, scale=scale, interval_s=1.0)


def nr5g_dataset(seed: int = 0, scale: float = 1.0) -> Tuple[TraceSet, TraceSet]:
    """Build the 5G train/test split (Table 1 row 4)."""
    return _build_split(generate_5g_trace, _TABLE1_SPECS["5g"], "5g",
                        seed=seed, scale=scale, interval_s=1.0)
