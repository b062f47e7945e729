"""Structured telemetry for campaigns: spans, counters and scalar series.

Campaigns push thousands of (design × environment × seed-batch) jobs through
the scheduler, the content-addressed result store and the kernel compiler.
This module is the single event substrate those layers report into:

* **Spans** — named intervals with wall-clock *and* CPU time plus free-form
  attributes (``job.train``, ``scheduler.run``, ``pipeline.stage1`` …).
* **Counters** — monotonic totals (``store.hit``, ``compile.fallback`` …).
* **Series** — scalar-vs-step curves (per-checkpoint entropy, losses …).

Design constraints:

* **True no-op when disabled.**  ``span()`` returns a shared singleton
  context manager and ``counter()``/``series()`` return immediately, so the
  instrumented hot paths allocate nothing and cost one attribute load when
  telemetry is off (pinned by ``tests/test_telemetry.py``).
* **Process safety.**  Workers cannot share a buffer with the parent.
  Worker tasks wrap their work in :func:`capture`, return the recorded
  events alongside their results, and the scheduler merges them back in
  submission order — the same order-preserving contract ``run_resilient``
  gives results, so a serial run and a ``workers=N`` run produce identical
  event streams modulo timestamps and worker pids.
* **No dependencies.**  Only the standard library, importable from any layer
  (``nn``, ``rl``, ``core``) without cycles.

Events persist as JSON lines (one file per recording process) via
:meth:`Telemetry.flush` and render either as a human summary
(:func:`render_report`, surfaced by ``repro report``) or as a Chrome/Perfetto
trace (:func:`chrome_trace`, surfaced by ``--trace out.json``).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "TelemetryEvent",
    "Telemetry",
    "enabled",
    "get_telemetry",
    "set_telemetry",
    "enable",
    "disable",
    "span",
    "counter",
    "series",
    "capture",
    "load_events",
    "chrome_trace",
    "summarize",
    "render_report",
]

#: Attribute keys excluded from :meth:`TelemetryEvent.signature` because they
#: describe *where/how fast* something ran rather than *what* ran (the
#: serial == workers contract holds modulo execution placement).
VOLATILE_ATTRS = frozenset({"workers", "pid"})


@dataclass
class TelemetryEvent:
    """One recorded event.

    Attributes:
        kind: ``"span"``, ``"counter"`` or ``"series"``.
        name: Dotted event name (``job.train``, ``store.hit`` …).
        value: Span wall-clock seconds, counter increment, or series value.
        ts: Wall-clock epoch seconds at the start of the event.
        cpu_s: CPU seconds consumed (spans only, 0.0 otherwise).
        step: Series x-coordinate (e.g. training epoch); None otherwise.
        pid: Recording process id.
        attrs: Optional free-form attributes (JSON-scalar values).
    """

    kind: str
    name: str
    value: float
    ts: float
    cpu_s: float = 0.0
    step: Optional[int] = None
    pid: int = 0
    attrs: Optional[Dict[str, Any]] = None

    def signature(self) -> Tuple:
        """Identity of the event modulo timestamps, durations and worker ids.

        Two campaign runs that execute the same work must produce the same
        sequence of signatures regardless of worker count; durations and
        span wall-times are execution noise and are excluded (counter and
        series values are real data and are kept).
        """
        attrs = tuple(sorted((k, v) for k, v in (self.attrs or {}).items()
                             if k not in VOLATILE_ATTRS))
        value = None if self.kind == "span" else self.value
        return (self.kind, self.name, self.step, value, attrs)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": self.kind, "name": self.name, "value": self.value,
            "ts": self.ts, "pid": self.pid,
        }
        if self.kind == "span":
            record["cpu_s"] = self.cpu_s
        if self.step is not None:
            record["step"] = self.step
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TelemetryEvent":
        return cls(kind=record["kind"], name=record["name"],
                   value=float(record["value"]), ts=float(record["ts"]),
                   cpu_s=float(record.get("cpu_s", 0.0)),
                   step=record.get("step"), pid=int(record.get("pid", 0)),
                   attrs=record.get("attrs"))


class _Span:
    """Context manager that records a span event on exit."""

    __slots__ = ("_sink", "_name", "_attrs", "_ts", "_wall0", "_cpu0")

    def __init__(self, sink: "Telemetry", name: str,
                 attrs: Optional[Dict[str, Any]]) -> None:
        self._sink = sink
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._ts = time.time()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._sink.record(TelemetryEvent(
            "span", self._name, wall, self._ts, cpu_s=cpu,
            pid=os.getpid(), attrs=self._attrs))
        return False


class _NoopSpan:
    """Shared do-nothing span returned when telemetry is disabled.

    A singleton with empty ``__slots__``: entering/exiting it performs no
    allocations, which keeps the disabled hot path free (see the
    zero-allocation test).
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Telemetry:
    """An in-memory event sink, optionally backed by a directory.

    Thread-safe for recording; cross-process merging goes through
    :func:`capture` + :meth:`extend` rather than shared state.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self.events: List[TelemetryEvent] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.events)

    def record(self, event: TelemetryEvent) -> None:
        with self._lock:
            self.events.append(event)

    def extend(self, events: Sequence[TelemetryEvent]) -> None:
        """Merge events recorded elsewhere (a worker process) in their order."""
        with self._lock:
            self.events.extend(events)

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> _Span:
        return _Span(self, name, attrs)

    def counter(self, name: str, value: float = 1,
                attrs: Optional[Dict[str, Any]] = None) -> None:
        self.record(TelemetryEvent("counter", name, float(value), time.time(),
                                   pid=os.getpid(), attrs=attrs))

    def series(self, name: str, step: int, value: float,
               attrs: Optional[Dict[str, Any]] = None) -> None:
        self.record(TelemetryEvent("series", name, float(value), time.time(),
                                   step=int(step), pid=os.getpid(),
                                   attrs=attrs))

    def flush(self) -> Optional[str]:
        """Write all buffered events to ``directory`` as JSON lines.

        The file is named after the recording pid so concurrent campaigns
        sharing a directory never collide; repeated flushes rewrite the file
        with the full buffer.  Returns the path, or None without a directory.
        """
        if not self.directory:
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"events-{os.getpid()}.jsonl")
        tmp = path + ".tmp"
        with self._lock:
            snapshot = list(self.events)
        with open(tmp, "w") as fh:
            for event in snapshot:
                fh.write(json.dumps(event.to_dict()) + "\n")
        os.replace(tmp, path)
        return path


# ---------------------------------------------------------------------------
# Module-level sink.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Telemetry] = None


def enabled() -> bool:
    """Whether a telemetry sink is currently active."""
    return _ACTIVE is not None


def get_telemetry() -> Optional[Telemetry]:
    """The active sink, or None when telemetry is disabled.

    Instrumentation sites with per-event setup cost (building an attrs dict
    in a loop) should fetch this once and guard on it.
    """
    return _ACTIVE


def set_telemetry(sink: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``sink`` as the active sink, returning the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    return previous


def enable(directory: Optional[str] = None) -> Telemetry:
    """Activate telemetry, optionally persisting to ``directory``.

    Idempotent: if a sink is already active it is returned unchanged (so the
    CLI, ``NadaConfig.telemetry_dir`` and ``ExperimentScale.telemetry_dir``
    can all request the same session without clobbering each other).  When a
    directory is given the sink also flushes at interpreter exit as a
    backstop for drivers that do not flush explicitly.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    _ACTIVE = Telemetry(directory)
    if directory:
        atexit.register(_flush_quietly, _ACTIVE)
    return _ACTIVE


def disable() -> Optional[Telemetry]:
    """Deactivate telemetry, returning the sink that was active (if any)."""
    atexit.unregister(_flush_quietly)
    return set_telemetry(None)


def _flush_quietly(sink: Telemetry) -> None:
    try:
        sink.flush()
    except OSError:
        pass


def span(name: str, attrs: Optional[Dict[str, Any]] = None):
    """A context manager timing ``name``; a shared no-op when disabled."""
    sink = _ACTIVE
    if sink is None:
        return _NOOP_SPAN
    return _Span(sink, name, attrs)


def counter(name: str, value: float = 1,
            attrs: Optional[Dict[str, Any]] = None) -> None:
    """Increment counter ``name`` by ``value`` (no-op when disabled)."""
    sink = _ACTIVE
    if sink is not None:
        sink.counter(name, value, attrs)


def series(name: str, step: int, value: float,
           attrs: Optional[Dict[str, Any]] = None) -> None:
    """Record one ``(step, value)`` point of ``name`` (no-op when disabled)."""
    sink = _ACTIVE
    if sink is not None:
        sink.series(name, step, value, attrs)


@contextmanager
def capture() -> Iterator[Telemetry]:
    """Record into a fresh in-memory sink, restoring the previous one after.

    This is how workers (and the serial path standing in for them)
    collect events for the parent to merge: the worker task runs inside
    ``capture()``, ships ``sink.events`` back with its result, and the
    scheduler ``extend()``s them into the parent sink in submission order.
    """
    local = Telemetry()
    previous = set_telemetry(local)
    try:
        yield local
    finally:
        set_telemetry(previous)


# ---------------------------------------------------------------------------
# Persistence and rendering.
# ---------------------------------------------------------------------------

def load_events(directory: str) -> List[TelemetryEvent]:
    """Load every ``events-*.jsonl`` file under ``directory``."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no telemetry directory at {directory!r}")
    events: List[TelemetryEvent] = []
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("events-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, entry)) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(TelemetryEvent.from_dict(json.loads(line)))
    return events


def chrome_trace(events: Sequence[TelemetryEvent]) -> Dict[str, Any]:
    """Convert events to the Chrome trace format (loadable in Perfetto).

    Spans become complete ("ph": "X") events; counters and series become
    counter ("ph": "C") tracks.  Timestamps are microseconds relative to the
    earliest event.
    """
    trace: List[Dict[str, Any]] = []
    if not events:
        return {"traceEvents": trace}
    t0 = min(event.ts for event in events)
    for event in events:
        ts_us = (event.ts - t0) * 1e6
        if event.kind == "span":
            args = dict(event.attrs or {})
            args["cpu_s"] = event.cpu_s
            trace.append({"name": event.name, "cat": "span", "ph": "X",
                          "ts": ts_us, "dur": event.value * 1e6,
                          "pid": event.pid, "tid": event.pid, "args": args})
        else:
            trace.append({"name": event.name, "cat": event.kind, "ph": "C",
                          "ts": ts_us, "pid": event.pid,
                          "args": {event.name: event.value}})
    return {"traceEvents": trace}


def write_chrome_trace(events: Sequence[TelemetryEvent], path: str) -> str:
    """Serialize :func:`chrome_trace` to ``path`` and return the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(events), fh)
    return path


def _per(counters: Dict[str, float], total: str,
         count: str) -> Optional[float]:
    """``counters[total] / counters[count]``, or None without any ``count``."""
    n = counters.get(count, 0.0)
    return counters.get(total, 0.0) / n if n else None


def summarize(events: Sequence[TelemetryEvent]) -> Dict[str, Any]:
    """Aggregate events into the structures ``repro report`` renders.

    Returns a dict with: total event count, counter totals, per-span-name
    aggregates, store hit-rate (from the ``store.*`` counters the scheduler
    emits alongside the store's own accounting), worker utilization (busy
    ``job.train`` time per pid over the ``scheduler.run`` window), the
    compile lowered/fallback table keyed by reason, the slowest designs, and
    per-series point counts.
    """
    counters: Dict[str, float] = {}
    spans: Dict[str, Dict[str, float]] = {}
    series_stats: Dict[str, Dict[str, Any]] = {}
    busy: Dict[int, float] = {}
    designs: Dict[Tuple[str, str], Dict[str, float]] = {}
    fallbacks: Dict[str, int] = {}
    pids = set()

    for event in events:
        pids.add(event.pid)
        if event.kind == "counter":
            counters[event.name] = counters.get(event.name, 0.0) + event.value
            if event.name == "compile.fallback":
                reason = (event.attrs or {}).get("reason", "unknown")
                fallbacks[reason] = fallbacks.get(reason, 0) + 1
        elif event.kind == "span":
            agg = spans.setdefault(event.name,
                                   {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            agg["count"] += 1
            agg["wall_s"] += event.value
            agg["cpu_s"] += event.cpu_s
            if event.name == "job.train":
                busy[event.pid] = busy.get(event.pid, 0.0) + event.value
                attrs = event.attrs or {}
                key = (str(attrs.get("environment", "?")),
                       str(attrs.get("design", "?")))
                entry = designs.setdefault(key, {"wall_s": 0.0, "jobs": 0})
                entry["wall_s"] += event.value
                entry["jobs"] += 1
        elif event.kind == "series":
            entry = series_stats.setdefault(event.name,
                                            {"points": 0, "last": None})
            entry["points"] += 1
            entry["last"] = event.value

    hits = counters.get("store.hit", 0.0)
    misses = counters.get("store.miss", 0.0)
    lookups = hits + misses
    window = spans.get("scheduler.run", {}).get("wall_s", 0.0)
    if window <= 0.0 and events:
        window = max(e.ts + (e.value if e.kind == "span" else 0.0)
                     for e in events) - min(e.ts for e in events)
    total_busy = sum(busy.values())
    workers = len(busy) or 1
    utilization = (total_busy / (workers * window)) if window > 0 else None

    slowest = sorted(
        ({"environment": env, "design": design, **stats}
         for (env, design), stats in designs.items()),
        key=lambda item: item["wall_s"], reverse=True)

    return {
        "events": len(events),
        "processes": len(pids),
        "counters": counters,
        "spans": spans,
        "store": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": (hits / lookups) if lookups else None,
            "puts": int(counters.get("store.put", 0.0)),
            "partial_probes": int(counters.get("store.partial_probe", 0.0)),
            "context_invalidations":
                int(counters.get("store.context_invalidated", 0.0)),
        },
        "workers": {
            "count": workers,
            "busy_s": {pid: round(s, 6) for pid, s in sorted(busy.items())},
            "window_s": window,
            "utilization": utilization,
        },
        "compile": {
            "lowered": int(counters.get("compile.lowered", 0.0)),
            "fallbacks": fallbacks,
        },
        "faults": {
            "retries": int(counters.get("job.retry", 0.0)),
            "quarantined": int(counters.get("job.quarantined", 0.0)),
            "interrupted": int(counters.get("job.interrupted", 0.0)),
            "job_timeouts": int(counters.get("rpc.job_timeout", 0.0)),
            "workers_lost": int(counters.get("rpc.worker_lost", 0.0)),
            "workers_respawned":
                int(counters.get("rpc.worker_respawned", 0.0)),
            "corrupt_records": int(counters.get("store.corrupt", 0.0)),
            "torn_writes": int(counters.get("store.torn_write", 0.0)),
            "put_races": int(counters.get("store.put_race", 0.0)),
            "leases_acquired": int(counters.get("store.lease_acquired", 0.0)),
            "leases_contended": int(counters.get("store.lease_contended", 0.0)),
            "leases_stolen": int(counters.get("store.lease_stolen", 0.0)),
            "fenced_puts": int(counters.get("store.put_fenced", 0.0)),
        },
        "distributed": {
            "workers_connected":
                int(counters.get("rpc.worker_connected", 0.0)),
            "workers_lost": int(counters.get("rpc.worker_lost", 0.0)),
            "workers_respawned":
                int(counters.get("rpc.worker_respawned", 0.0)),
            "jobs_dispatched": int(counters.get("rpc.job_dispatched", 0.0)),
            "results": int(counters.get("rpc.result", 0.0)),
            "results_fenced": int(counters.get("rpc.result_fenced", 0.0)),
            "requeues": int(counters.get("rpc.requeued", 0.0)),
            "heartbeat_timeouts":
                int(counters.get("rpc.heartbeat_timeout", 0.0)),
            "local_fallbacks": int(counters.get("rpc.fallback_local", 0.0)),
            "rejects": int(counters.get("rpc.reject", 0.0)),
            "job_bytes": int(counters.get("rpc.job_bytes", 0.0)),
            "result_bytes": int(counters.get("rpc.result_bytes", 0.0)),
            "mean_job_bytes": _per(counters, "rpc.job_bytes",
                                   "rpc.job_dispatched"),
            "mean_result_bytes": _per(counters, "rpc.result_bytes",
                                      "rpc.result"),
        },
        "serving": {
            "fleet_runs": int(spans.get("serve.fleet_run", {}).get("count", 0)),
            "sessions": int(counters.get("serve.sessions_completed", 0.0)),
            "decisions": int(counters.get("serve.decisions", 0.0)),
            "ticks": int(counters.get("serve.ticks", 0.0)),
            "decide_s": counters.get("serve.decide_s", 0.0),
            "emulate_s": counters.get("serve.emulate_s", 0.0),
            "wall_s": counters.get("serve.wall_s", 0.0),
            # decide_s/emulate_s are busy time summed over this many shards,
            # out of shard_wall_s (each run's wall time x its shards).
            "shards": int(counters.get("serve.shards", 0.0)),
            "shard_wall_s": counters.get("serve.shard_wall_s", 0.0),
            "decisions_per_s": _per(counters, "serve.decisions",
                                    "serve.wall_s"),
        },
        "designs": slowest,
        "series": series_stats,
    }


def render_report(events: Sequence[TelemetryEvent], top: int = 8) -> str:
    """Render :func:`summarize` as the human-readable ``repro report`` text."""
    summary = summarize(events)
    lines: List[str] = []
    lines.append(f"telemetry summary : {summary['events']} events from "
                 f"{summary['processes']} process(es)")

    store = summary["store"]
    rate = store["hit_rate"]
    rate_text = f"{rate * 100.0:.1f}% hit rate" if rate is not None \
        else "no lookups"
    lines.append(f"result store      : {store['hits']} hits / "
                 f"{store['misses']} misses ({rate_text}), "
                 f"{store['puts']} records written, "
                 f"{store['partial_probes']} partial probes, "
                 f"{store['context_invalidations']} context invalidations")

    workers = summary["workers"]
    if workers["busy_s"]:
        util = workers["utilization"]
        util_text = f"{util * 100.0:.1f}% busy" if util is not None else "busy"
        lines.append(f"workers           : {workers['count']} worker(s), "
                     f"{util_text} over a {workers['window_s']:.2f} s window")
        for pid, busy_s in workers["busy_s"].items():
            lines.append(f"  pid {pid:<12}: {busy_s:.3f} s training")

    if summary["spans"]:
        lines.append("top time sinks    :")
        ranked = sorted(summary["spans"].items(),
                        key=lambda item: item[1]["wall_s"], reverse=True)
        for name, agg in ranked[:top]:
            lines.append(f"  {name:<24} {agg['count']:>5} span(s)  "
                         f"{agg['wall_s']:>9.3f} s wall  "
                         f"{agg['cpu_s']:>9.3f} s cpu")

    compile_stats = summary["compile"]
    total_fallbacks = sum(compile_stats["fallbacks"].values())
    lines.append(f"kernel compiler   : {compile_stats['lowered']} network(s) "
                 f"lowered, {total_fallbacks} fallback(s)")
    for reason, count in sorted(compile_stats["fallbacks"].items(),
                                key=lambda item: item[1], reverse=True):
        lines.append(f"  {count:>3} × {reason}")

    faults = summary["faults"]
    lines.append(f"fault tolerance   : {faults['retries']} retries, "
                 f"{faults['quarantined']} quarantined, "
                 f"{faults['interrupted']} interrupted, "
                 f"{faults['job_timeouts']} job timeout(s), "
                 f"{faults['workers_lost']} worker(s) lost / "
                 f"{faults['workers_respawned']} respawned")
    lines.append(f"store integrity   : {faults['corrupt_records']} corrupt, "
                 f"{faults['torn_writes']} torn write(s), "
                 f"{faults['put_races']} put race(s); leases "
                 f"{faults['leases_acquired']} acquired / "
                 f"{faults['leases_contended']} contended / "
                 f"{faults['leases_stolen']} stolen; "
                 f"{faults['fenced_puts']} fenced put(s)")

    distributed = summary["distributed"]
    if distributed["workers_connected"] or distributed["jobs_dispatched"]:
        line = (f"distributed       : "
                f"{distributed['workers_connected']} worker(s) "
                f"connected / {distributed['workers_lost']} lost / "
                f"{distributed['workers_respawned']} respawned; "
                f"{distributed['jobs_dispatched']} dispatched, "
                f"{distributed['results']} results "
                f"({distributed['results_fenced']} fenced), "
                f"{distributed['requeues']} requeue(s), "
                f"{distributed['heartbeat_timeouts']} heartbeat "
                f"timeout(s), {distributed['local_fallbacks']} local "
                f"fallback(s)")
        job_bytes = distributed["mean_job_bytes"]
        if job_bytes is not None:
            result_bytes = distributed["mean_result_bytes"]
            line += (f"; {job_bytes:,.0f} B/job out, "
                     + (f"{result_bytes:,.0f} B/result back"
                        if result_bytes is not None else "no results back"))
        lines.append(line)

    serving = summary["serving"]
    if serving["fleet_runs"]:
        rate = serving["decisions_per_s"]
        rate_text = f"{rate:,.0f} decisions/s" if rate is not None else "n/a"
        batch = (serving["decisions"] / serving["ticks"]
                 if serving["ticks"] else 0.0)
        lines.append(f"serving           : {serving['fleet_runs']} fleet "
                     f"run(s), {serving['sessions']} sessions, "
                     f"{serving['decisions']} decisions in "
                     f"{serving['ticks']} ticks "
                     f"(mean batch {batch:.1f}), {rate_text}")
        wall = serving["wall_s"]
        if wall > 0:
            shards = max(serving["shards"], serving["fleet_runs"])
            busy = serving["shard_wall_s"] or wall
            lines.append(f"  wall split      : decide {serving['decide_s']:.3f} s "
                         f"({serving['decide_s'] / busy:.0%}), emulate "
                         f"{serving['emulate_s']:.3f} s "
                         f"({serving['emulate_s'] / busy:.0%}) of "
                         f"{wall:.3f} s wall, busy time summed over "
                         f"{shards} shard{'s' if shards != 1 else ''}")

    if summary["designs"]:
        lines.append("slowest designs   :")
        for entry in summary["designs"][:top]:
            lines.append(f"  {entry['environment']}/{entry['design']:<24} "
                         f"{entry['wall_s']:>9.3f} s over "
                         f"{entry['jobs']} job(s)")

    if summary["series"]:
        parts = [f"{name} ({stats['points']} points)"
                 for name, stats in sorted(summary["series"].items())]
        lines.append("training series   : " + ", ".join(parts))

    return "\n".join(lines)
