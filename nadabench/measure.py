"""Process-level measurements: CPU over a call, peak RSS, host speed, the
host block.

CPU and memory cover the workload process and its children: pool workers
that were reaped (``RUSAGE_CHILDREN``) and children still alive when the
measurement is read (``/proc/<pid>``), such as remote worker subprocesses.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _live_children() -> List[int]:
    """Pids of this process's live direct children, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(b")") + 2:].split()
    # utime and stime are fields 14 and 15 of stat(5); index 11/12 here.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reaped_cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cpu_now() -> Dict[int, float]:
    """Per-source CPU seconds: key 0 is this process plus reaped children."""
    sample = {0: _reaped_cpu_s()}
    for pid in _live_children():
        sample[pid] = _proc_cpu_s(pid)
    return sample


@dataclass
class CallStats:
    """Wall and CPU seconds of one measured call."""

    wall_s: float = 0.0
    cpu_s: float = 0.0


@contextmanager
def measured() -> Iterator[CallStats]:
    """Measure wall time and the CPU of this process and its children.

    A child alive at both ends contributes its CPU delta; one started
    during the call and alive at the end contributes all of its CPU; one
    reaped during the call is counted through ``RUSAGE_CHILDREN``.
    """
    stats = CallStats()
    before = _cpu_now()
    start = time.perf_counter()
    try:
        yield stats
    finally:
        stats.wall_s = time.perf_counter() - start
        after = _cpu_now()
        stats.cpu_s = sum(value - before.get(pid, 0.0)
                          for pid, value in after.items())


#: Rounds of the probe loop per CPU; the probe takes about 0.15 s.
PROBE_ROUNDS = 8


def _spin_median_s() -> float:
    """Median seconds of one round of a fixed pure-Python loop."""
    times = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_probe_s(cpus: int) -> float:
    """The host's speed now: seconds of a fixed pure-Python loop.

    On a shared host a vCPU's speed swings by tens of percent within a
    second; the loop does no I/O and stays in the CPU's caches, so its time
    moves only with the host.  The loop runs on ``cpus`` CPUs at once, in
    this process and one forked child per further CPU (all reaped before
    this returns): a vCPU runs slower while its siblings are busy, so the
    probe keeps as many busy as the workload it scales.  The result is the
    mean over CPUs of each one's median round.
    """
    children = []
    try:
        for _ in range(cpus - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    os.write(write_fd, repr(_spin_median_s()).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        medians = [_spin_median_s()]
        for _, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                medians.append(float(pipe.read()))
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)
    return statistics.fmean(medians)


def peak_rss_mb() -> float:
    """Largest RSS of this process or any one of its children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    live = [_proc_hwm_mb(pid) for pid in _live_children()]
    return max([own, kids] + live)


def _blas_info() -> Dict[str, str]:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")),
                "version": str(blas.get("version"))}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_sha(root: str) -> str:
    """HEAD's commit from ``.git`` files; ``unknown`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block(root: str) -> Dict[str, object]:
    """The host and environment every result is recorded against."""
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "blas": _blas_info(),
        "blas_threads": {name: os.environ.get(name)
                         for name in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "platform": sys.platform,
    }
