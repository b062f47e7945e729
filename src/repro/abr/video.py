"""Video models: bitrate ladders and per-chunk size generation.

The paper adopts Pensieve's streaming configuration: 4-second chunks encoded
at the bitrate ladder {300, 750, 1200, 1850, 2850, 4300} kbps for the FCC and
Starlink evaluations, and an elevated ladder {1850, 2850, 4300, 12000, 24000,
53000} kbps (YouTube's recommended encoding settings) for the 4G and 5G
evaluations.  Because the original DASH encodes are not redistributable, chunk
sizes are modelled as variable-bitrate (VBR) encodes: each chunk's size is the
nominal ``bitrate x duration`` with seedable log-normal variation that is
*correlated across bitrates* within a chunk (the same scene complexity affects
every rendition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BITRATE_LADDERS_KBPS",
    "STANDARD_LADDER_KBPS",
    "HIGH_LADDER_KBPS",
    "CHUNK_DURATION_S",
    "DEFAULT_CHUNK_COUNT",
    "Video",
    "synthetic_video",
]

#: Pensieve's original bitrate ladder (kbps), used for FCC and Starlink.
STANDARD_LADDER_KBPS: tuple[int, ...] = (300, 750, 1200, 1850, 2850, 4300)

#: Elevated ladder for high-bandwidth 4G/5G environments (YouTube settings).
HIGH_LADDER_KBPS: tuple[int, ...] = (1850, 2850, 4300, 12000, 24000, 53000)

BITRATE_LADDERS_KBPS = {
    "standard": STANDARD_LADDER_KBPS,
    "high": HIGH_LADDER_KBPS,
}

#: Pensieve streams 4-second chunks.
CHUNK_DURATION_S: float = 4.0

#: The reference video in Pensieve ("EnvivioDash3") has 48 chunks (~3.2 min).
DEFAULT_CHUNK_COUNT: int = 48


@dataclass
class Video:
    """A chunked video: one size per (chunk, bitrate) pair.

    Attributes:
        bitrates_kbps: The bitrate ladder, ascending.
        chunk_sizes_bytes: Array of shape ``(num_chunks, num_bitrates)``.
        chunk_duration_s: Playback duration of each chunk.
        name: Identifier for logs.
    """

    bitrates_kbps: Sequence[int]
    chunk_sizes_bytes: np.ndarray
    chunk_duration_s: float = CHUNK_DURATION_S
    name: str = "video"

    def __post_init__(self) -> None:
        self.bitrates_kbps = tuple(int(b) for b in self.bitrates_kbps)
        self.chunk_sizes_bytes = np.asarray(self.chunk_sizes_bytes, dtype=np.float64)
        if self.chunk_sizes_bytes.ndim != 2:
            raise ValueError("chunk_sizes_bytes must be 2-D (chunks x bitrates)")
        if self.chunk_sizes_bytes.shape[1] != len(self.bitrates_kbps):
            raise ValueError("chunk size columns must match the bitrate ladder length")
        if list(self.bitrates_kbps) != sorted(self.bitrates_kbps):
            raise ValueError("bitrate ladder must be ascending")
        if np.any(self.chunk_sizes_bytes <= 0):
            raise ValueError("chunk sizes must be positive")
        if self.chunk_duration_s <= 0:
            raise ValueError("chunk duration must be positive")

    # ------------------------------------------------------------------ #
    @property
    def num_chunks(self) -> int:
        return int(self.chunk_sizes_bytes.shape[0])

    @property
    def num_bitrates(self) -> int:
        return len(self.bitrates_kbps)

    @property
    def bitrates_mbps(self) -> np.ndarray:
        return np.asarray(self.bitrates_kbps, dtype=np.float64) / 1000.0

    @property
    def duration_s(self) -> float:
        return self.num_chunks * self.chunk_duration_s

    def chunk_size(self, chunk_index: int, bitrate_index: int) -> float:
        """Size in bytes of chunk ``chunk_index`` at quality ``bitrate_index``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise IndexError(f"chunk index {chunk_index} out of range")
        if not 0 <= bitrate_index < self.num_bitrates:
            raise IndexError(f"bitrate index {bitrate_index} out of range")
        return float(self.chunk_sizes_bytes[chunk_index, bitrate_index])

    def next_chunk_sizes(self, chunk_index: int) -> np.ndarray:
        """Sizes of chunk ``chunk_index`` at every bitrate (bytes)."""
        if not 0 <= chunk_index < self.num_chunks:
            raise IndexError(f"chunk index {chunk_index} out of range")
        return self.chunk_sizes_bytes[chunk_index].copy()


def synthetic_video(
    ladder: str | Sequence[int] = "standard",
    num_chunks: int = DEFAULT_CHUNK_COUNT,
    chunk_duration_s: float = CHUNK_DURATION_S,
    vbr_sigma: float = 0.15,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> Video:
    """Create a synthetic VBR video for a given bitrate ladder.

    Each chunk draws a scene-complexity multiplier shared across bitrates, plus
    small per-bitrate jitter, so higher-quality renditions of a complex scene
    are consistently larger — matching how real DASH encodes behave.

    Args:
        ladder: "standard", "high", or an explicit ascending list of kbps.
        num_chunks: number of chunks in the video.
        chunk_duration_s: chunk playback duration.
        vbr_sigma: log-normal sigma of the per-chunk complexity multiplier.
        seed: RNG seed for reproducible chunk sizes.
        name: optional video name.
    """
    if isinstance(ladder, str):
        key = ladder.lower()
        if key not in BITRATE_LADDERS_KBPS:
            raise KeyError(f"unknown ladder {ladder!r}; known: {list(BITRATE_LADDERS_KBPS)}")
        bitrates = BITRATE_LADDERS_KBPS[key]
        ladder_name = key
    else:
        bitrates = tuple(int(b) for b in ladder)
        ladder_name = "custom"
    if num_chunks < 1:
        raise ValueError("a video needs at least one chunk")

    rng = np.random.default_rng(seed)
    nominal_bytes = np.asarray(bitrates, dtype=np.float64) * 1000.0 * chunk_duration_s / 8.0
    complexity = rng.lognormal(mean=0.0, sigma=vbr_sigma, size=(num_chunks, 1))
    jitter = rng.lognormal(mean=0.0, sigma=vbr_sigma / 3.0, size=(num_chunks, len(bitrates)))
    sizes = nominal_bytes[None, :] * complexity * jitter
    return Video(
        bitrates_kbps=bitrates,
        chunk_sizes_bytes=sizes,
        chunk_duration_s=chunk_duration_s,
        name=name or f"synthetic-{ladder_name}-{num_chunks}chunks",
    )
