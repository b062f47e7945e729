"""The engine configuration: one value for every setting that can move a score.

NADA scores many generated designs under one fixed protocol, so every
process-wide setting that can change a stored number is a field of one
frozen :class:`EngineConfig`.  The campaign scheduler ships the current value
to pool and remote workers with every task, and the result store and the
emulation record cache both key on :meth:`EngineConfig.fingerprint`.

* ``dtype`` — tensor and gradient dtype: float64 (accuracy-first default)
  or float32 (half the memory traffic on the matmul-heavy workload).
* ``compile`` — whether :func:`~repro.nn.compile.plan_for` lowers networks
  onto the fused kernels; False (``--no-compile``) runs every network
  through the autograd graph reference, which agrees to round-off only.

Execution choices proven bit-identical (workers, backends, seed batching,
batched evaluation, telemetry) are deliberately not part of the value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import ContextManager, Iterator, Union

import numpy as np

__all__ = ["EngineConfig", "current", "install", "using", "set_default_dtype",
           "get_default_dtype", "default_dtype", "set_compilation",
           "compilation_enabled"]

DTypeLike = Union[str, np.dtype, type]

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class EngineConfig:
    """Every process-wide numeric setting, as one hashable, picklable value."""

    dtype: np.dtype = np.dtype(np.float64)
    compile: bool = True

    def __post_init__(self) -> None:
        resolved = np.dtype(self.dtype)
        if resolved not in _SUPPORTED_DTYPES:
            raise ValueError(f"unsupported tensor dtype {self.dtype!r}; "
                             "choose float32 or float64")
        object.__setattr__(self, "dtype", resolved)
        object.__setattr__(self, "compile", bool(self.compile))

    def fingerprint(self) -> bytes:
        """Store-key material: every field, in a stable byte encoding."""
        return f"dtype={self.dtype}|compile={self.compile}".encode("utf-8")


_ENGINE = EngineConfig()


def current() -> EngineConfig:
    """The engine configuration new computations run under."""
    return _ENGINE


def install(config: EngineConfig) -> EngineConfig:
    """Make ``config`` the current engine; returns the previous one."""
    global _ENGINE
    previous, _ENGINE = _ENGINE, config
    return previous


@contextmanager
def using(config: EngineConfig) -> Iterator[EngineConfig]:
    """Run a block under ``config``, restoring the previous engine on exit."""
    previous = install(config)
    try:
        yield config
    finally:
        install(previous)


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the tensor dtype ("float32" or "float64"); returns the previous.

    Tensors created before the switch keep their dtype; mixing is handled by
    NumPy promotion.
    """
    return install(replace(_ENGINE, dtype=dtype)).dtype


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors and gradients are created with."""
    return _ENGINE.dtype


def default_dtype(dtype: DTypeLike) -> ContextManager[EngineConfig]:
    """Context manager that temporarily switches the tensor dtype."""
    return using(replace(_ENGINE, dtype=dtype))


def set_compilation(enabled: bool) -> bool:
    """Toggle the kernel compiler; returns the previous setting."""
    return install(replace(_ENGINE, compile=enabled)).compile


def compilation_enabled() -> bool:
    return _ENGINE.compile
