"""A dash.js-like streaming player driven by an ABR policy.

The player reproduces the client-side behaviour that matters for QoE and that
the chunk-level simulator abstracts away:

* an initial **startup phase**: playback does not begin until a configurable
  amount of video is buffered, and the startup delay is tracked separately;
* **stalls**: when the buffer runs dry mid-playback, the player pauses until a
  configurable resume threshold is buffered again;
* a **maximum buffer**: the player stops requesting chunks while the buffer is
  above the target level and idles instead (during which TCP's congestion
  window decays — see :mod:`repro.emulation.tcp`).

The player exposes the same :class:`~repro.abr.env.Observation` interface as
the simulator, so any policy (baseline or RL agent) runs unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..abr.env import HISTORY_LENGTH, ChunkRecord, Observation, SessionResult
from ..abr.qoe import LinearQoE, QoEMetric
from ..abr.video import Video
from .http import HTTPClient, HTTPConfig
from .link import PacketDeliveryLink
from .tcp import TCPConfig

__all__ = ["PlayerConfig", "PlayerEvent", "DashPlayer"]


@dataclass(frozen=True)
class PlayerConfig:
    """dash.js-style player parameters."""

    #: Seconds of video required before initial playback starts.
    startup_buffer_s: float = 4.0
    #: Seconds of video required to resume after a stall.
    rebuffer_resume_s: float = 4.0
    #: Buffer level above which the player pauses new requests.
    max_buffer_s: float = 60.0
    #: Interval at which the paused player re-checks the buffer.
    idle_poll_s: float = 0.5


@dataclass
class PlayerEvent:
    """Timeline entry recorded by the player (for debugging and analysis)."""

    time_s: float
    kind: str
    detail: str = ""


class DashPlayer:
    """Streams one video over an emulated link, one chunk at a time."""

    def __init__(self, video: Video, link: PacketDeliveryLink,
                 qoe: Optional[QoEMetric] = None,
                 player_config: Optional[PlayerConfig] = None,
                 http_config: Optional[HTTPConfig] = None,
                 tcp_config: Optional[TCPConfig] = None) -> None:
        self.video = video
        self.link = link
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.config = player_config or PlayerConfig()
        self.http = HTTPClient(link, http_config=http_config, tcp_config=tcp_config)

        self._clock_s = 0.0
        self._buffer_s = 0.0
        self._playing = False
        self._started = False
        self._next_chunk = 0
        self._last_bitrate_index = 0
        self._previous_bitrate_for_qoe: Optional[int] = None
        self._startup_delay_s: Optional[float] = None

        self._bitrate_history = np.zeros(HISTORY_LENGTH)
        self._throughput_history = np.zeros(HISTORY_LENGTH)
        self._download_time_history = np.zeros(HISTORY_LENGTH)
        self._buffer_history = np.zeros(HISTORY_LENGTH)

        self.records: List[ChunkRecord] = []
        self.events: List[PlayerEvent] = []

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self._next_chunk >= self.video.num_chunks

    @property
    def clock_s(self) -> float:
        """The player's virtual wall clock (seconds since session start)."""
        return self._clock_s

    @property
    def next_chunk_index(self) -> int:
        """Index of the next chunk the player will request."""
        return self._next_chunk

    @property
    def startup_delay_s(self) -> float:
        return self._startup_delay_s if self._startup_delay_s is not None else 0.0

    @property
    def total_stall_s(self) -> float:
        return float(sum(r.rebuffer_s for r in self.records))

    # ------------------------------------------------------------------ #
    def bind_history_buffers(self, bitrate: np.ndarray, throughput: np.ndarray,
                             download_time: np.ndarray, buffer: np.ndarray) -> None:
        """Re-home the four history windows into caller-owned buffers.

        The fleet harness passes row views of its stacked ``(sessions, H)``
        arrays so that the player's in-place history pushes keep the stacked
        arrays current — the batched state builder then reads every session's
        history without per-session gathering.  The buffers receive the
        current history contents; semantics of :meth:`observe` and
        :meth:`step` are unchanged (observations still hand out copies).
        """
        for target, source in ((bitrate, self._bitrate_history),
                               (throughput, self._throughput_history),
                               (download_time, self._download_time_history),
                               (buffer, self._buffer_history)):
            if target.shape != source.shape:
                raise ValueError("history buffer shape mismatch")
            target[:] = source
        self._bitrate_history = bitrate
        self._throughput_history = throughput
        self._download_time_history = download_time
        self._buffer_history = buffer

    # ------------------------------------------------------------------ #
    def observe(self) -> Observation:
        if self.done:
            raise RuntimeError("playback already finished")
        next_sizes = self.video.next_chunk_sizes(self._next_chunk)
        return Observation(
            bitrate_kbps_history=self._bitrate_history.copy(),
            throughput_mbps_history=self._throughput_history.copy(),
            download_time_s_history=self._download_time_history.copy(),
            buffer_s_history=self._buffer_history.copy(),
            next_chunk_sizes_bytes=next_sizes,
            buffer_s=self._buffer_s,
            remaining_chunks=self.video.num_chunks - self._next_chunk,
            total_chunks=self.video.num_chunks,
            last_bitrate_index=self._last_bitrate_index,
            bitrate_ladder_kbps=np.asarray(self.video.bitrates_kbps, dtype=np.float64),
            chunk_duration_s=self.video.chunk_duration_s,
        )

    def step(self, bitrate_index: int) -> ChunkRecord:
        """Request, download and buffer the next chunk at ``bitrate_index``."""
        if self.done:
            raise RuntimeError("playback already finished")
        if not 0 <= bitrate_index < self.video.num_bitrates:
            raise IndexError(f"bitrate index {bitrate_index} out of range")

        # If the buffer is at capacity, idle until there is room.  TCP's
        # congestion window decays while the connection sits idle.
        while self._buffer_s >= self.config.max_buffer_s:
            self._advance_time(self.config.idle_poll_s)

        chunk_index = self._next_chunk
        chunk_bytes = self.video.chunk_size(chunk_index, bitrate_index)
        request_time = self._clock_s
        response = self.http.get(request_time, chunk_bytes)
        download_time = response.latency_s

        # Playback (and possible stalling) happens while the chunk downloads.
        stall = self._advance_time(download_time)

        self._buffer_s += self.video.chunk_duration_s
        if not self._playing:
            threshold = (self.config.startup_buffer_s if not self._started
                         else self.config.rebuffer_resume_s)
            if self._buffer_s >= threshold:
                self._playing = True
                if not self._started:
                    self._started = True
                    self._startup_delay_s = self._clock_s
                    self.events.append(PlayerEvent(self._clock_s, "startup"))
                else:
                    self.events.append(PlayerEvent(self._clock_s, "resume"))

        reward = self.qoe.chunk_reward(bitrate_index, stall,
                                       self._previous_bitrate_for_qoe)
        record = ChunkRecord(
            chunk_index=chunk_index,
            bitrate_index=bitrate_index,
            bitrate_kbps=self.video.bitrates_kbps[bitrate_index],
            download_time_s=download_time,
            throughput_mbps=response.throughput_mbps,
            rebuffer_s=stall,
            buffer_s=self._buffer_s,
            reward=reward,
        )
        self.records.append(record)
        self._previous_bitrate_for_qoe = bitrate_index
        self._last_bitrate_index = bitrate_index
        self._push_history(self._bitrate_history, self.video.bitrates_kbps[bitrate_index])
        self._push_history(self._throughput_history, response.throughput_mbps)
        self._push_history(self._download_time_history, download_time)
        self._push_history(self._buffer_history, self._buffer_s)
        self._next_chunk += 1
        return record

    def result(self) -> SessionResult:
        return SessionResult(records=list(self.records),
                             trace_name=self.link.trace.name,
                             video_name=self.video.name)

    # ------------------------------------------------------------------ #
    def _advance_time(self, delta_s: float) -> float:
        """Advance the wall clock by ``delta_s``; returns stall time incurred."""
        self._clock_s += delta_s
        if not self._playing:
            # Before the initial startup the waiting time is startup delay
            # (not charged as rebuffering); after a stall it is rebuffering.
            return delta_s if self._started else 0.0
        if self._buffer_s >= delta_s:
            self._buffer_s -= delta_s
            return 0.0
        stall = delta_s - self._buffer_s
        self._buffer_s = 0.0
        self._playing = False
        self.events.append(PlayerEvent(self._clock_s, "stall", f"{stall:.3f}s"))
        return stall

    @staticmethod
    def _push_history(history: np.ndarray, value: float) -> None:
        history[:-1] = history[1:]
        history[-1] = value
