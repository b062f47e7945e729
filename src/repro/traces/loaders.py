"""Loading and saving traces in on-disk formats.

Two external formats are supported:

* **Pensieve format** — whitespace-separated ``<timestamp_s> <throughput_mbps>``
  lines, one sample per line (the format of the cooked FCC/HSDPA traces the
  original Pensieve repository ships).
* **Mahimahi format** — one integer per line giving the millisecond at which a
  1500-byte MTU packet is delivered; this is the format consumed by the
  ``mm-link`` shell and by our packet-level emulator.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from .base import Trace, TraceSet

__all__ = [
    "save_pensieve_format",
    "load_pensieve_format",
    "save_mahimahi_format",
    "load_mahimahi_format",
    "save_traceset",
    "load_traceset",
]

_MTU_BYTES = 1500
_BITS_PER_BYTE = 8


def save_pensieve_format(trace: Trace, path: str) -> None:
    """Write ``<timestamp> <mbps>`` lines."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        for t, mbps in zip(trace.timestamps_s, trace.throughputs_mbps):
            handle.write(f"{t:.6f}\t{mbps:.6f}\n")


def load_pensieve_format(path: str, name: Optional[str] = None) -> Trace:
    """Read a trace written by :func:`save_pensieve_format`."""
    timestamps: List[float] = []
    throughputs: List[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed trace line in {path!r}: {line!r}")
            timestamps.append(float(parts[0]))
            throughputs.append(float(parts[1]))
    return Trace(np.array(timestamps), np.array(throughputs),
                 name=name or os.path.basename(path))


def save_mahimahi_format(trace: Trace, path: str, granularity_ms: int = 100) -> None:
    """Convert a bandwidth trace to Mahimahi packet-delivery timestamps.

    For each ``granularity_ms`` window the number of MTU packets that fit in
    ``bandwidth * window`` is computed and that many delivery opportunities are
    written, evenly spaced inside the window.
    """
    if granularity_ms <= 0:
        raise ValueError("granularity must be positive")
    _ensure_parent(path)
    lines: List[int] = []
    duration_ms = int(trace.duration_s * 1000)
    window_s = granularity_ms / 1000.0
    carry_bits = 0.0
    for window_start in range(0, duration_ms, granularity_ms):
        mbps = trace.throughput_at(window_start / 1000.0)
        bits = mbps * 1e6 * window_s + carry_bits
        packets = int(bits // (_MTU_BYTES * _BITS_PER_BYTE))
        carry_bits = bits - packets * _MTU_BYTES * _BITS_PER_BYTE
        if packets <= 0:
            continue
        spacing = granularity_ms / packets
        for k in range(packets):
            lines.append(int(window_start + k * spacing) + 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(str(ms) for ms in lines))
        handle.write("\n")


def load_mahimahi_format(path: str, granularity_ms: int = 1000,
                         name: Optional[str] = None) -> Trace:
    """Reconstruct a bandwidth trace from Mahimahi packet-delivery timestamps."""
    with open(path, "r", encoding="utf-8") as handle:
        deliveries = [int(line) for line in handle if line.strip()]
    if not deliveries:
        raise ValueError(f"mahimahi trace {path!r} contains no packets")
    duration_ms = max(deliveries)
    n_windows = max(2, duration_ms // granularity_ms + 1)
    counts = np.zeros(n_windows)
    for ms in deliveries:
        counts[min(ms // granularity_ms, n_windows - 1)] += 1
    window_s = granularity_ms / 1000.0
    throughputs = counts * _MTU_BYTES * _BITS_PER_BYTE / window_s / 1e6
    timestamps = np.arange(n_windows) * window_s
    return Trace(timestamps, throughputs, name=name or os.path.basename(path))


def save_traceset(traceset: TraceSet, directory: str) -> List[str]:
    """Write every trace in Pensieve format into ``directory``; return paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for trace in traceset:
        path = os.path.join(directory, f"{trace.name}.log")
        save_pensieve_format(trace, path)
        paths.append(path)
    return paths


def load_traceset(directory: str, name: Optional[str] = None) -> TraceSet:
    """Load every ``*.log`` file in ``directory`` as a TraceSet."""
    files = sorted(f for f in os.listdir(directory) if f.endswith(".log"))
    if not files:
        raise FileNotFoundError(f"no .log traces found in {directory!r}")
    traces = [load_pensieve_format(os.path.join(directory, f)) for f in files]
    return TraceSet(traces, name=name or os.path.basename(os.path.abspath(directory)))


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
