"""Run-time control of the thread count of NumPy's bundled OpenBLAS.

A process that fans work out across the host's cores — fleet shards, the
scheduler's jobs in pool workers — must run its BLAS on one thread: otherwise every
process starts its own OpenBLAS thread pool and the host is oversubscribed
(a 2-worker campaign on a 2-CPU host ran 3-5x slower unpinned).
``OPENBLAS_NUM_THREADS`` only takes effect before NumPy loads, so this module
sets the count on the already-loaded library through ``ctypes``.

The thread count can move the last bit of a result: a reduction split over
threads sums in a different order.  So every place that computes stored or
compared results pins to one thread — fleet shards and their serial
reference, and every scheduler job wherever it runs — which makes results
independent of ``OPENBLAS_NUM_THREADS`` and the core count.  Where no setter
symbol is found (another BLAS vendor, a NumPy without a bundled OpenBLAS)
every call is a logged no-op.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..log import get_logger

__all__ = ["set_num_threads", "single_threaded"]

logger = get_logger("blas")

#: (setter, getter) symbol pairs, most specific first: the scipy-openblas
#: wheels NumPy bundles (64-bit and 32-bit integer builds), then a plain
#: OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _candidate_libraries() -> List[str]:
    """Paths of the OpenBLAS libraries NumPy may have loaded."""
    package = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(package, os.pardir, "numpy.libs",
                                          "*openblas*"))
                   + glob.glob(os.path.join(package, ".dylibs", "*openblas*")))
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[..., object], Callable[[], int]]]:
    """The loaded OpenBLAS's (setter, getter), or None if there is none."""
    for path in _candidate_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter_name, getter_name in _SYMBOLS:
            setter = getattr(library, setter_name, None)
            getter = getattr(library, getter_name, None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return setter, getter
    logger.info("no OpenBLAS thread-count symbol found; BLAS threading is "
                "left as configured")
    return None


def _get_num_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or None without a known OpenBLAS."""
    functions = _openblas()
    return None if functions is None else int(functions[1]())


def set_num_threads(count: int) -> Optional[int]:
    """Set OpenBLAS's thread count; returns the previous count (or None)."""
    if count < 1:
        raise ValueError("BLAS thread count must be at least 1")
    functions = _openblas()
    if functions is None:
        return None
    setter, getter = functions
    previous = int(getter())
    if previous != count:
        setter(count)
    return previous


@contextmanager
def single_threaded() -> Iterator[None]:
    """Run the body with one BLAS thread, restoring the count afterwards."""
    previous = set_num_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_num_threads(previous)
