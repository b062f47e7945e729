"""Classic (non-learned) ABR baseline algorithms.

These policies implement the standard comparison points from the ABR
literature cited by the paper (buffer-based, rate-based, BOLA and robust MPC)
plus trivial fixed/random policies.  All of them follow the same
``policy(observation) -> bitrate_index`` interface used by the simulator, the
emulator and the RL agent, so they can be dropped into any experiment driver.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .env import Observation
from .qoe import LinearQoE, QoEMetric

__all__ = [
    "FixedBitratePolicy",
    "RandomPolicy",
    "BufferBasedPolicy",
    "RateBasedPolicy",
    "BolaPolicy",
    "RobustMPCPolicy",
    "BASELINE_POLICIES",
    "make_baseline",
]


class FixedBitratePolicy:
    """Always selects the same bitrate index (useful as a sanity floor)."""

    def __init__(self, bitrate_index: int = 0) -> None:
        self.bitrate_index = int(bitrate_index)

    def __call__(self, observation: Observation) -> int:
        return min(self.bitrate_index, len(observation.bitrate_ladder_kbps) - 1)


class RandomPolicy:
    """Selects bitrates uniformly at random (seedable)."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    def __call__(self, observation: Observation) -> int:
        return int(self._rng.integers(len(observation.bitrate_ladder_kbps)))


class BufferBasedPolicy:
    """BBA-style buffer-based adaptation (Huang et al.).

    Maps the current buffer level linearly onto the bitrate ladder between a
    reservoir and a cushion: below the reservoir pick the lowest bitrate,
    above ``reservoir + cushion`` pick the highest.
    """

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 25.0) -> None:
        if reservoir_s < 0 or cushion_s <= 0:
            raise ValueError("reservoir must be >= 0 and cushion > 0")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def __call__(self, observation: Observation) -> int:
        levels = len(observation.bitrate_ladder_kbps)
        buffer_s = observation.buffer_s
        if buffer_s <= self.reservoir_s:
            return 0
        if buffer_s >= self.reservoir_s + self.cushion_s:
            return levels - 1
        fraction = (buffer_s - self.reservoir_s) / self.cushion_s
        return int(np.clip(round(fraction * (levels - 1)), 0, levels - 1))


class RateBasedPolicy:
    """Picks the highest bitrate below a conservative throughput prediction.

    The prediction is the harmonic mean of the recent throughput samples (the
    predictor used by Festive/MPC), optionally discounted by a safety factor.
    """

    def __init__(self, safety_factor: float = 1.0, window: int = 5) -> None:
        if safety_factor <= 0 or not 0 < window:
            raise ValueError("safety factor and window must be positive")
        self.safety_factor = safety_factor
        self.window = window

    def predict_throughput_mbps(self, observation: Observation) -> float:
        history = observation.throughput_mbps_history
        valid = history[history > 0][-self.window:]
        if len(valid) == 0:
            return 0.0
        harmonic = len(valid) / np.sum(1.0 / valid)
        return float(harmonic / self.safety_factor)

    def __call__(self, observation: Observation) -> int:
        prediction = self.predict_throughput_mbps(observation)
        ladder_mbps = observation.bitrate_ladder_kbps / 1000.0
        feasible = np.where(ladder_mbps <= prediction)[0]
        if len(feasible) == 0:
            return 0
        return int(feasible[-1])


class BolaPolicy:
    """BOLA: Lyapunov-based buffer control (Spiteri et al.).

    Chooses the bitrate maximizing ``(V * utility + V * gamma - buffer) / size``
    where utility is the log of the relative chunk size.  Parameters follow the
    dash.js defaults, adapted to the chunk duration in the observation.
    """

    def __init__(self, gamma_p: float = 5.0, buffer_target_s: float = 25.0) -> None:
        self.gamma_p = gamma_p
        self.buffer_target_s = buffer_target_s

    def __call__(self, observation: Observation) -> int:
        sizes = np.asarray(observation.next_chunk_sizes_bytes, dtype=np.float64)
        utilities = np.log(sizes / sizes[0])
        chunk_duration = observation.chunk_duration_s
        # Control parameter V chosen so the top bitrate is sustained at the
        # buffer target (standard BOLA-BASIC parameterization).
        v = (self.buffer_target_s - chunk_duration) / (utilities[-1] + self.gamma_p)
        buffer_chunks = observation.buffer_s
        scores = (v * (utilities + self.gamma_p) - buffer_chunks) / sizes
        best = int(np.argmax(scores))
        if scores[best] < 0 and observation.buffer_s > 0:
            # Negative score for every level means the buffer is comfortably
            # full; BOLA then keeps the highest sustainable level.
            return int(np.argmax(utilities))
        return best


class RobustMPCPolicy:
    """Robust model-predictive control over a short look-ahead horizon.

    Enumerates bitrate sequences for the next ``horizon`` chunks, simulates
    buffer evolution under a conservative throughput prediction (harmonic mean
    discounted by the recent maximum prediction error) and picks the first
    action of the best sequence under the QoE metric.
    """

    def __init__(self, horizon: int = 5, qoe: Optional[QoEMetric] = None,
                 window: int = 5) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = horizon
        self.window = window
        self._qoe = qoe
        self._past_errors: list[float] = []
        self._last_prediction: Optional[float] = None

    def _qoe_metric(self, observation: Observation) -> QoEMetric:
        if self._qoe is None:
            self._qoe = LinearQoE(observation.bitrate_ladder_kbps.astype(int))
        return self._qoe

    def _predict_throughput(self, observation: Observation) -> float:
        history = observation.throughput_mbps_history
        valid = history[history > 0][-self.window:]
        if len(valid) == 0:
            return 0.1
        harmonic = len(valid) / np.sum(1.0 / valid)
        # Track prediction error to discount the next prediction (robust MPC).
        if self._last_prediction is not None and valid[-1] > 0:
            error = abs(self._last_prediction - valid[-1]) / valid[-1]
            self._past_errors.append(error)
            self._past_errors = self._past_errors[-self.window:]
        max_error = max(self._past_errors) if self._past_errors else 0.0
        prediction = harmonic / (1.0 + max_error)
        self._last_prediction = float(harmonic)
        return float(max(prediction, 1e-3))

    def __call__(self, observation: Observation) -> int:
        qoe = self._qoe_metric(observation)
        prediction_mbps = self._predict_throughput(observation)
        ladder_mbps = observation.bitrate_ladder_kbps / 1000.0
        levels = len(ladder_mbps)
        horizon = min(self.horizon, observation.remaining_chunks)
        chunk_duration = observation.chunk_duration_s
        next_sizes_mb = np.asarray(observation.next_chunk_sizes_bytes) * 8.0 / 1e6

        best_score = -np.inf
        best_first = observation.last_bitrate_index
        for sequence in itertools.product(range(levels), repeat=horizon):
            buffer_s = observation.buffer_s
            previous = observation.last_bitrate_index
            score = 0.0
            for step, level in enumerate(sequence):
                if step == 0:
                    download_mb = next_sizes_mb[level]
                else:
                    download_mb = ladder_mbps[level] * chunk_duration
                download_time = download_mb / prediction_mbps
                rebuffer = max(download_time - buffer_s, 0.0)
                buffer_s = max(buffer_s - download_time, 0.0) + chunk_duration
                score += qoe.chunk_reward(level, rebuffer, previous)
                previous = level
            if score > best_score:
                best_score = score
                best_first = sequence[0]
        return int(best_first)


BASELINE_POLICIES = {
    "fixed": FixedBitratePolicy,
    "random": RandomPolicy,
    "buffer_based": BufferBasedPolicy,
    "bba": BufferBasedPolicy,
    "rate_based": RateBasedPolicy,
    "bola": BolaPolicy,
    "robust_mpc": RobustMPCPolicy,
    "mpc": RobustMPCPolicy,
}


def make_baseline(name: str, **kwargs):
    """Instantiate a baseline policy by name."""
    key = name.lower()
    if key not in BASELINE_POLICIES:
        raise KeyError(f"unknown baseline {name!r}; known: {sorted(set(BASELINE_POLICIES))}")
    return BASELINE_POLICIES[key](**kwargs)
