"""RL state representations for ABR.

This module defines three things:

1. The **state-function contract**: the call signature every state function
   (original or LLM-generated) must implement.  The parameter names are the
   "semantically meaningful" names the paper introduces in its prompting
   strategy (§2.1) so that generated code and the original share an interface.
2. :func:`original_state_function` — a faithful re-implementation of
   Pensieve's hand-designed 6x8 state matrix.
3. :class:`StateFunction` — a wrapper that adapts a simulator
   :class:`~repro.abr.env.Observation` to the contract, validates the output
   and exposes the resulting feature shape to network builders.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .env import Observation

__all__ = [
    "STATE_FUNCTION_NAME",
    "STATE_FUNCTION_PARAMETERS",
    "ORIGINAL_STATE_SOURCE",
    "original_state_function",
    "original_states_batched",
    "original_states_gathered",
    "StateFunction",
    "BUFFER_NORM_FACTOR_S",
    "THROUGHPUT_NORM_FACTOR_MBPS",
    "CHUNK_SIZE_NORM_FACTOR_BYTES",
]

#: Name the generated code block must define (matches the paper's Figure 1).
STATE_FUNCTION_NAME = "state_func"

#: Ordered parameter names of the state-function contract.
STATE_FUNCTION_PARAMETERS = (
    "bitrate_kbps_history",
    "throughput_mbps_history",
    "download_time_s_history",
    "buffer_size_s_history",
    "next_chunk_sizes_bytes",
    "remaining_chunk_count",
    "total_chunk_count",
    "bitrate_ladder_kbps",
)

#: Pensieve normalizes the playback buffer by 10 seconds.
BUFFER_NORM_FACTOR_S = 10.0
#: Throughput is expressed in units of 8 Mbps (≈ MB/s) to keep values small.
THROUGHPUT_NORM_FACTOR_MBPS = 8.0
#: Chunk sizes are expressed in megabytes.
CHUNK_SIZE_NORM_FACTOR_BYTES = 1e6


def original_state_function(
    bitrate_kbps_history: np.ndarray,
    throughput_mbps_history: np.ndarray,
    download_time_s_history: np.ndarray,
    buffer_size_s_history: np.ndarray,
    next_chunk_sizes_bytes: np.ndarray,
    remaining_chunk_count: int,
    total_chunk_count: int,
    bitrate_ladder_kbps: np.ndarray,
) -> np.ndarray:
    """Pensieve's original state representation.

    Returns a ``(6, HISTORY_LENGTH)`` matrix whose rows are:

    0. history of the selected bitrates, normalized by the top bitrate;
    1. history of the playback buffer, normalized by 10 s;
    2. history of measured throughput, normalized to ~MB/s;
    3. history of chunk download times, normalized by 10 s;
    4. sizes of the next chunk at each bitrate, in MB (zero-padded);
    5. fraction of chunks remaining (constant row).
    """
    history_len = len(throughput_mbps_history)
    ladder = np.asarray(bitrate_ladder_kbps, dtype=np.float64)
    state = np.zeros((6, history_len))
    state[0, :] = np.asarray(bitrate_kbps_history, dtype=np.float64) / ladder[-1]
    state[1, :] = np.asarray(buffer_size_s_history, dtype=np.float64) / BUFFER_NORM_FACTOR_S
    state[2, :] = (np.asarray(throughput_mbps_history, dtype=np.float64)
                   / THROUGHPUT_NORM_FACTOR_MBPS)
    state[3, :] = (np.asarray(download_time_s_history, dtype=np.float64)
                   / BUFFER_NORM_FACTOR_S)
    sizes = np.asarray(next_chunk_sizes_bytes, dtype=np.float64) / CHUNK_SIZE_NORM_FACTOR_BYTES
    count = min(len(sizes), history_len)
    state[4, :count] = sizes[:count]
    state[5, :] = float(remaining_chunk_count) / max(float(total_chunk_count), 1.0)
    return state


def original_states_batched(
    bitrate_kbps_histories: np.ndarray,
    throughput_mbps_histories: np.ndarray,
    download_time_s_histories: np.ndarray,
    buffer_size_s_histories: np.ndarray,
    next_chunk_sizes_bytes: np.ndarray,
    remaining_chunk_count: int,
    total_chunk_count: int,
    bitrate_ladder_kbps: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`original_state_function` over lockstep sessions.

    The history arguments carry arbitrary leading (session) axes with the
    history window last, e.g. ``(seeds, H)`` or ``(seeds, traces, H)``;
    ``out`` receives the states as ``(*leading, 6, H)``.  The next-chunk
    sizes and chunk counters are shared: lockstep sessions stream the same
    video at the same chunk index, so those rows are identical per session.

    Row for row this performs the exact arithmetic of the serial function
    (elementwise divides by the same scalars on the same values), so every
    ``out[...]`` slice is bit-identical to calling the serial function on
    that session's observation — the multi-seed trainer relies on this to
    stay seed-for-seed equivalent while building all states in a handful of
    NumPy calls instead of hundreds.
    """
    history_len = bitrate_kbps_histories.shape[-1]
    ladder = np.asarray(bitrate_ladder_kbps, dtype=np.float64)
    np.divide(bitrate_kbps_histories, ladder[-1], out=out[..., 0, :])
    np.divide(buffer_size_s_histories, BUFFER_NORM_FACTOR_S, out=out[..., 1, :])
    np.divide(throughput_mbps_histories, THROUGHPUT_NORM_FACTOR_MBPS,
              out=out[..., 2, :])
    np.divide(download_time_s_histories, BUFFER_NORM_FACTOR_S,
              out=out[..., 3, :])
    sizes = np.asarray(next_chunk_sizes_bytes,
                       dtype=np.float64) / CHUNK_SIZE_NORM_FACTOR_BYTES
    count = min(len(sizes), history_len)
    out[..., 4, :] = 0.0
    out[..., 4, :count] = sizes[:count]
    out[..., 5, :] = float(remaining_chunk_count) / max(float(total_chunk_count),
                                                        1.0)
    return out


def original_states_gathered(
    bitrate_kbps_histories: np.ndarray,
    throughput_mbps_histories: np.ndarray,
    download_time_s_histories: np.ndarray,
    buffer_size_s_histories: np.ndarray,
    next_chunk_sizes_bytes: np.ndarray,
    remaining_chunk_counts: np.ndarray,
    total_chunk_count: int,
    bitrate_ladder_kbps: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`original_state_function` over *independent* sessions.

    Unlike :func:`original_states_batched` (lockstep seeds: every session at
    the same chunk of the same video), this variant serves a fleet of
    sessions at *different* playback positions: ``next_chunk_sizes_bytes``
    is ``(sessions, bitrates)`` — one row per session — and
    ``remaining_chunk_counts`` is ``(sessions,)``.  Histories are
    ``(sessions, H)`` and ``out`` receives ``(sessions, 6, H)``.

    Row for row this performs the exact arithmetic of the serial function
    (elementwise divides by the same scalars on the same values), so
    ``out[i]`` is bit-identical to calling the serial function on session
    ``i``'s observation — the fleet harness relies on this to stay
    session-for-session identical to serial :class:`Emulator` runs while
    building every state of a decision tick in a handful of NumPy calls.
    """
    history_len = bitrate_kbps_histories.shape[-1]
    ladder = np.asarray(bitrate_ladder_kbps, dtype=np.float64)
    np.divide(bitrate_kbps_histories, ladder[-1], out=out[..., 0, :])
    np.divide(buffer_size_s_histories, BUFFER_NORM_FACTOR_S, out=out[..., 1, :])
    np.divide(throughput_mbps_histories, THROUGHPUT_NORM_FACTOR_MBPS,
              out=out[..., 2, :])
    np.divide(download_time_s_histories, BUFFER_NORM_FACTOR_S,
              out=out[..., 3, :])
    sizes = np.asarray(next_chunk_sizes_bytes,
                       dtype=np.float64) / CHUNK_SIZE_NORM_FACTOR_BYTES
    count = min(sizes.shape[-1], history_len)
    out[..., 4, :] = 0.0
    out[..., 4, :count] = sizes[..., :count]
    remaining = np.asarray(remaining_chunk_counts, dtype=np.float64)
    out[..., 5, :] = (remaining
                      / max(float(total_chunk_count), 1.0))[..., None]
    return out


#: Source code of the original state function, used as the seed code block in
#: the prompts sent to the LLM (the paper starts generation from the existing
#: implementation).
ORIGINAL_STATE_SOURCE = '''
import numpy as np


def state_func(bitrate_kbps_history, throughput_mbps_history,
               download_time_s_history, buffer_size_s_history,
               next_chunk_sizes_bytes, remaining_chunk_count,
               total_chunk_count, bitrate_ladder_kbps):
    """Original Pensieve state: a 6 x history matrix of normalized features."""
    history_len = len(throughput_mbps_history)
    ladder = np.asarray(bitrate_ladder_kbps, dtype=float)
    state = np.zeros((6, history_len))
    # Row 0: previously selected bitrates, normalized by the highest bitrate.
    state[0, :] = np.asarray(bitrate_kbps_history, dtype=float) / ladder[-1]
    # Row 1: playback buffer history, normalized by 10 seconds.
    state[1, :] = np.asarray(buffer_size_s_history, dtype=float) / 10.0
    # Row 2: measured throughput history, normalized to roughly MB/s.
    state[2, :] = np.asarray(throughput_mbps_history, dtype=float) / 8.0
    # Row 3: chunk download time history, normalized by 10 seconds.
    state[3, :] = np.asarray(download_time_s_history, dtype=float) / 10.0
    # Row 4: available sizes of the next chunk at each bitrate, in megabytes.
    sizes = np.asarray(next_chunk_sizes_bytes, dtype=float) / 1e6
    count = min(len(sizes), history_len)
    state[4, :count] = sizes[:count]
    # Row 5: fraction of the video still to be played.
    state[5, :] = float(remaining_chunk_count) / max(float(total_chunk_count), 1.0)
    return state
'''.strip()


class StateFunction:
    """Adapter from simulator observations to a state-function implementation.

    Wraps any callable following the state-function contract, feeds it the
    fields of an :class:`Observation`, validates the returned array and
    remembers the feature shape (needed to size the neural network input).
    """

    def __init__(self, func: Callable[..., np.ndarray], name: str = "state",
                 trusted: bool = False) -> None:
        if not callable(func):
            raise TypeError("state function must be callable")
        self._func = func
        self.name = name
        self._shape: Optional[tuple] = None
        #: Trusted functions (the built-in original) are known to return a
        #: fresh, finite, fixed-shape float array, so the per-call validation
        #: is skipped on the rollout hot path.  Generated code is never
        #: trusted.
        self.trusted = trusted

    # ------------------------------------------------------------------ #
    @classmethod
    def original(cls) -> "StateFunction":
        """The original Pensieve state representation."""
        return cls(original_state_function, name="pensieve-original", trusted=True)

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Optional[tuple]:
        """Feature shape observed on the last call (None before the first)."""
        return self._shape

    def __call__(self, observation: Observation) -> np.ndarray:
        features = self._func(
            observation.bitrate_kbps_history,
            observation.throughput_mbps_history,
            observation.download_time_s_history,
            observation.buffer_s_history,
            observation.next_chunk_sizes_bytes,
            observation.remaining_chunks,
            observation.total_chunks,
            observation.bitrate_ladder_kbps,
        )
        if self.trusted:
            if self._shape is None:
                self._shape = features.shape
            return features
        array = np.asarray(features, dtype=np.float64)
        if array.size == 0:
            raise ValueError(f"state function {self.name!r} returned an empty array")
        if array.ndim > 2:
            raise ValueError(
                f"state function {self.name!r} returned a {array.ndim}-D array; "
                "only 1-D or 2-D states are supported")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"state function {self.name!r} returned non-finite values")
        if self._shape is None:
            self._shape = array.shape
        elif array.shape != self._shape:
            raise ValueError(
                f"state function {self.name!r} changed output shape from "
                f"{self._shape} to {array.shape}")
        return array

    def probe_shape(self, observation: Observation) -> tuple:
        """Call once on ``observation`` and return the resulting feature shape."""
        return self(observation).shape

    def reset_shape(self) -> None:
        """Forget the cached shape (used when reusing a function across videos)."""
        self._shape = None
