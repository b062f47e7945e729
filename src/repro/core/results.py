"""Persistent, content-addressed store of design-evaluation results.

Campaigns repeat work: the original design is re-scored for every comparison,
sweeps are re-run after interruptions, and the same (design, environment,
seed) training session is requested by several tables.  The
:class:`ResultStore` makes completed work a property of the substrate instead
of each caller — every finished :class:`~repro.core.evaluation.TrainingRun`
is written to disk under a key derived from *everything that can change its
outcome*, so a repeated campaign skips straight to cached results and an
interrupted one resumes where it stopped.

Key schema (one JSON file per record)::

    key = sha256(context fingerprint | design fingerprint | seed)

* **context fingerprint** — the evaluation context: environment label,
  the engine configuration (:meth:`repro.nn.EngineConfig.fingerprint`:
  tensor dtype and the kernel compiler toggle), the
  :class:`~repro.core.evaluation.EvaluationConfig` (with its nested A2C and
  simulator configs), the video (bitrate ladder, chunk sizes, chunk
  duration) and the exact train/test trace arrays, and the QoE metric's
  class and parameters.  Changing any of these invalidates the cache.
  ``num_seeds`` and ``last_k_checkpoints`` are deliberately *excluded*:
  they shape seed-list defaults and score aggregation but never a stored
  per-seed run.
* **design fingerprint** — sha256 over each component's kind and source code
  (``original`` for the unmodified Pensieve component).
* **seed** — the training seed.  The scheduler reads a job's cache
  all-or-nothing (a seed batch trains in lockstep, so a partial batch
  re-trains whole), but per-seed records let *overlapping* jobs share
  work: a later job asking for a subset of an already-scored seed batch
  hits record by record.

Records live at ``<root>/<key[:2]>/<key>.json`` with a human-readable
``meta`` block alongside the run payload.  Floats survive the JSON round
trip bit-exactly (Python serializes them via shortest round-trip repr), so
cached campaign scores are identical to freshly computed ones.

Crash- and concurrency-safety (PR 7):

* **Verified compare-and-swap puts.**  A record is written to a temp file,
  read back and parsed before publication (healing torn writes the moment
  they happen), then *linked* into place — an atomic create-if-absent, so
  when N processes share one store the first writer wins and every later
  put of the same key is a counted no-op (``put_races``) instead of an
  overwrite.
* **Corrupt-record quarantine.**  A record that fails to parse — truncated
  JSON, a missing payload field — is renamed to ``<key>.json.corrupt`` and
  counted (``corrupt`` in :meth:`statistics`), so the key retrains exactly
  once and the evidence survives for debugging instead of being silently
  treated as a miss forever.
* **Leases.**  :meth:`claim` atomically creates ``<key>.lease`` carrying
  ``pid@host`` so concurrent campaigns sharing the store execute each key
  exactly once; the lease's mtime is its heartbeat (:meth:`refresh`), and a
  lease whose heartbeat is older than ``lease_timeout`` is considered
  abandoned and can be taken over by any other process (``lease_stolen``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import tempfile
import time
from typing import Any, Dict, Iterable, Optional, Tuple, TYPE_CHECKING

import numpy as np

from .. import nn
from ..log import get_logger
from . import faults, telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .design import Design
    from .evaluation import DesignTrainer, TrainingRun

__all__ = [
    "Lease",
    "ResultStore",
    "design_fingerprint",
    "context_fingerprint",
    "result_key",
]

logger = get_logger("results")

#: Version prefix mixed into every key; bump when the record layout changes.
#: v2: the kernel-compiler toggle and numerics mode joined the context.
#: v3: every job trains on one BLAS thread (:mod:`repro.core.blas`); a v2
#: record written with threaded BLAS may differ in its last bits.
#: v4: the fast-inference toggle left the context, and Pensieve designs with
#: non-ReLU activations now train on the compiled kernels (a v3 record of
#: one came from the autograd graph and differs by float round-off).
#: v5: the engine enters the key as one ``EngineConfig.fingerprint()``;
#: the ``numerics=`` token left with the fast-numerics tier.
#: v6: ``EvaluationConfig`` and ``SimulatorConfig`` lost their
#: engine-selection fields, so the config tokens changed (the one remaining
#: engine is the old default).
_SCHEMA_VERSION = "v6"

#: EvaluationConfig fields excluded from the key.  ``num_seeds`` and
#: ``last_k_checkpoints`` only shape seed-list defaults and score
#: *aggregation*, never the per-seed training run a record stores —
#: excluding them lets a shorter protocol over the same design hit the
#: records a longer one wrote (the scheduler re-stamps
#: ``last_k_checkpoints`` from the requesting config on load).
_NON_RESULT_FIELDS = frozenset({"num_seeds", "last_k_checkpoints"})


def _sha256(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()


def _config_tokens(config: Any) -> bytes:
    """Stable byte encoding of a (possibly nested) config dataclass."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = {name: value
                  for name, value in dataclasses.asdict(config).items()
                  if name not in _NON_RESULT_FIELDS}
    return json.dumps(config, sort_keys=True, default=str).encode("utf-8")


def _array_digest(array: np.ndarray) -> bytes:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).digest()


def design_fingerprint(state_design: Optional["Design"],
                       network_design: Optional["Design"]) -> str:
    """Content address of a (state, network) design pair.

    ``None`` means the original Pensieve component; fingerprints depend only
    on each design's kind and source code, never on pool ids or metadata, so
    re-generated identical code hits the cache.
    """
    parts = []
    for label, design in (("state", state_design), ("network", network_design)):
        if design is None:
            parts.append(f"{label}:original".encode("utf-8"))
        else:
            code = hashlib.sha256(design.code.encode("utf-8")).hexdigest()
            parts.append(f"{label}:{design.kind.value}:{code}".encode("utf-8"))
    return _sha256(parts)


def context_fingerprint(trainer: "DesignTrainer", environment: str = "") -> str:
    """Fingerprint of everything in the evaluation context that shapes results.

    Covers the environment label, the engine configuration,
    evaluation/A2C/simulator configs, the video and the full train/test
    trace arrays, and the QoE metric — but not execution choices proven
    bit-identical (see module docs).
    """
    video = trainer.video
    qoe = trainer.qoe
    parts = [
        _SCHEMA_VERSION.encode("utf-8"),
        environment.encode("utf-8"),
        nn.engine.current().fingerprint(),
        _config_tokens(trainer.config),
        _config_tokens({
            "bitrates_kbps": list(video.bitrates_kbps),
            "chunk_duration_s": video.chunk_duration_s,
        }),
        _array_digest(video.chunk_sizes_bytes),
        _config_tokens({
            "qoe_class": type(qoe).__name__,
            "bitrates_kbps": list(qoe.bitrates_kbps),
            "rebuffer_penalty": qoe.rebuffer_penalty,
            "smoothness_penalty": qoe.smoothness_penalty,
        }),
    ]
    for trace_set in (trainer.train_traces, trainer.test_traces):
        for trace in trace_set:
            parts.append(_array_digest(trace.timestamps_s))
            parts.append(_array_digest(trace.throughputs_mbps))
    return _sha256(parts)


def result_key(context: str, designs: str, seed: int) -> str:
    """Compose the store key for one (context, design pair, seed) record."""
    return _sha256([context.encode("utf-8"), designs.encode("utf-8"),
                    str(int(seed)).encode("utf-8")])


class Lease(object):
    """A held claim on one store key (see :meth:`ResultStore.claim`).

    ``epoch`` is a fencing token: it starts at 1 for a fresh claim and is
    incremented past the previous holder's epoch on every stale takeover,
    so a zombie process resurfacing with a lease that was stolen from it can
    be recognized (its owner no longer matches the lease file) and its put
    dropped instead of racing the takeover's re-execution.
    """

    __slots__ = ("key", "path", "owner", "epoch")

    def __init__(self, key: str, path: str, owner: str,
                 epoch: int = 1) -> None:
        self.key = key
        self.path = path
        self.owner = owner
        self.epoch = int(epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Lease({self.key[:12]}…, owner={self.owner}, "
                f"epoch={self.epoch})")


class ResultStore:
    """JSON-on-disk store of per-seed :class:`TrainingRun` records.

    The store is append-only from the scheduler's point of view: records are
    written atomically (temp file + verified hard-link publish) and never
    mutated, so concurrent campaigns sharing one store directory cannot
    corrupt each other; the lease layer additionally keeps them from
    *duplicating* each other (see the module docs).
    """

    #: How many times a verified write retries after detecting corruption.
    _WRITE_ATTEMPTS = 3

    def __init__(self, root: str, lease_timeout: float = 30.0) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        #: Seconds after which a lease with no heartbeat counts as abandoned.
        self.lease_timeout = float(lease_timeout)
        #: Lookup statistics since construction (for reports and tests).
        self.hits = 0
        self.misses = 0
        #: Records peeked successfully but discarded because a later seed in
        #: the same all-or-nothing batch probe was absent.
        self.partial_probes = 0
        #: Records written since construction.
        self.puts = 0
        #: Records found unreadable and quarantined to ``*.corrupt``.
        self.corrupt = 0
        #: Writes whose read-back verification failed (healed by retrying).
        self.torn_writes = 0
        #: Puts dropped because another process published the key first.
        self.put_races = 0
        #: Lease lifecycle counts.
        self.lease_acquired = 0
        self.lease_contended = 0
        self.lease_stolen = 0
        self.lease_released = 0
        #: Puts dropped because the caller's lease was stolen while the job
        #: was away (a zombie worker publishing after a takeover).
        self.fenced_puts = 0
        #: Per-(site, key) operation indices for deterministic fault rules.
        self._op_counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.lease")

    def _occurrence(self, site: str, key: str) -> int:
        index = self._op_counts.get((site, key), 0)
        self._op_counts[(site, key)] = index + 1
        return index

    @property
    def owner_token(self) -> str:
        """This process's lease identity: ``pid@host``."""
        return f"{os.getpid()}@{socket.gethostname()}"

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(name.endswith(".json") for name in files)
        return count

    # ------------------------------------------------------------------ #
    def get_run(self, key: str) -> Optional["TrainingRun"]:
        """Load one cached run, counting the lookup as a hit or miss."""
        run = self.peek_run(key)
        if run is None:
            self.misses += 1
            telemetry.counter("store.miss")
        else:
            self.hits += 1
            telemetry.counter("store.hit")
        return run

    def peek_run(self, key: str) -> Optional["TrainingRun"]:
        """Load one cached run without touching the hit/miss counters.

        The scheduler probes a job's whole seed batch all-or-nothing; it
        peeks each record and commits the counters only once the batch
        outcome is known, so partially present batches that retrain anyway
        never inflate the hit statistics.
        """
        from .evaluation import TrainingRun

        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError:
            # The file exists but could not be read (permissions, transient
            # I/O).  Not evidence of corruption — treat as a miss without
            # destroying anything.
            logger.warning("unreadable store record %s… treated as a miss",
                           key[:12])
            return None
        except json.JSONDecodeError:
            self._quarantine(key, path, "undecodable JSON")
            return None
        try:
            payload = record["run"]
            # ``checkpoint_metrics`` joined the payload with the telemetry
            # layer; it is additive and optional (records written before it
            # load as None), so the schema version — and hence every key —
            # is unchanged.
            metrics = payload.get("checkpoint_metrics")
            if metrics is not None:
                metrics = {name: [float(v) for v in values]
                           for name, values in metrics.items()}
            return TrainingRun(
                seed=int(payload["seed"]),
                reward_history=[float(r) for r in payload["reward_history"]],
                checkpoint_epochs=[int(e)
                                   for e in payload["checkpoint_epochs"]],
                checkpoint_scores=[float(s)
                                   for s in payload["checkpoint_scores"]],
                early_stopped=bool(payload["early_stopped"]),
                last_k_checkpoints=payload["last_k_checkpoints"],
                checkpoint_metrics=metrics,
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            # Parsed as JSON but the payload is truncated or malformed.
            self._quarantine(key, path, "malformed payload")
            return None

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Rename a bad record to ``*.corrupt`` and count it."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return  # vanished or unwritable directory; nothing to preserve
        self.corrupt += 1
        telemetry.counter("store.corrupt")
        logger.warning("corrupt store record (%s) quarantined to %s.corrupt "
                       "— key %s… will be re-executed", reason,
                       os.path.basename(path), key[:12])

    def _encode_record(self, run: "TrainingRun",
                       meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        record = {
            "schema": _SCHEMA_VERSION,
            "meta": meta or {},
            "run": {
                "seed": run.seed,
                "reward_history": list(run.reward_history),
                "checkpoint_epochs": list(run.checkpoint_epochs),
                "checkpoint_scores": list(run.checkpoint_scores),
                "early_stopped": run.early_stopped,
                "last_k_checkpoints": run.last_k_checkpoints,
            },
        }
        if run.checkpoint_metrics is not None:
            record["run"]["checkpoint_metrics"] = {
                name: list(values)
                for name, values in run.checkpoint_metrics.items()}
        return record

    def put_run(self, key: str, run: "TrainingRun",
                meta: Optional[Dict[str, Any]] = None,
                lease: Optional[Lease] = None) -> bool:
        """Persist one run under ``key`` with a verified compare-and-swap.

        The record is written to a temp file, read back and parsed (a torn
        or corrupted write is detected immediately and retried up to
        ``_WRITE_ATTEMPTS`` times), then *hard-linked* into place — an
        atomic create-if-absent.  Returns True when this call published the
        record; False when another process already had (``put_races``), in
        which case the existing record is left untouched — first writer
        wins, so a key is never silently overwritten.

        When ``lease`` is given, the put is **fenced**: it is dropped
        (``fenced_puts``) unless the lease file still names ``lease.owner``
        — a caller whose lease went stale and was stolen while its job was
        away (a zombie worker) must not race the takeover's re-execution.
        """
        if lease is not None and self.lease_owner(key) != lease.owner:
            self.fenced_puts += 1
            telemetry.counter("store.put_fenced")
            logger.warning(
                "fenced put dropped for %s…: lease epoch %d owned by %s was "
                "stolen (now %s)", key[:12], lease.epoch, lease.owner,
                self.lease_owner(key))
            return False
        return self._publish_record(key, self._encode_record(run, meta))

    # ------------------------------------------------------------------ #
    # Generic JSON payload records (emulation results and other non-training
    # consumers) share the verified-CAS machinery of put_run/peek_run.
    # ------------------------------------------------------------------ #
    def put_payload(self, key: str, payload: Dict[str, Any],
                    meta: Optional[Dict[str, Any]] = None) -> bool:
        """Persist an arbitrary JSON-serializable payload under ``key``.

        Same verified compare-and-swap semantics as :meth:`put_run`; the
        record carries a ``payload`` block instead of a ``run`` block, so
        the two record kinds can never be confused on read-back.
        """
        if not isinstance(payload, dict):
            raise TypeError("payload must be a JSON-serializable dict")
        record = {"schema": _SCHEMA_VERSION, "meta": meta or {},
                  "payload": payload}
        return self._publish_record(key, record)

    def get_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one payload record, counting the lookup as a hit or miss."""
        payload = self.peek_payload(key)
        if payload is None:
            self.misses += 1
            telemetry.counter("store.miss")
        else:
            self.hits += 1
            telemetry.counter("store.hit")
        return payload

    def peek_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one payload record without touching the hit/miss counters."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError:
            logger.warning("unreadable store record %s… treated as a miss",
                           key[:12])
            return None
        except json.JSONDecodeError:
            self._quarantine(key, path, "undecodable JSON")
            return None
        payload = record.get("payload") if isinstance(record, dict) else None
        if not isinstance(payload, dict):
            self._quarantine(key, path, "malformed payload")
            return None
        return payload

    def _publish_record(self, key: str, record: Dict[str, Any]) -> bool:
        """Verified CAS publish shared by :meth:`put_run`/:meth:`put_payload`."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for _ in range(self._WRITE_ATTEMPTS):
            handle = tempfile.NamedTemporaryFile(
                "w", dir=os.path.dirname(path), suffix=".tmp",
                delete=False, encoding="utf-8")
            try:
                payload = json.dumps(record)
                torn = faults.store_rule(
                    "store.torn_write", key,
                    self._occurrence("store.torn_write", key))
                if torn is not None:
                    payload = payload[:max(1, len(payload) // 2)]
                with handle:
                    handle.write(payload)
                if not self._verify_record(handle.name, record):
                    self.torn_writes += 1
                    telemetry.counter("store.torn_write")
                    logger.warning("torn write detected for %s…; retrying",
                                   key[:12])
                    os.unlink(handle.name)
                    continue
                try:
                    os.link(handle.name, path)
                except FileExistsError:
                    self.put_races += 1
                    telemetry.counter("store.put_race")
                    logger.debug("record %s… already published elsewhere; "
                                 "dropping duplicate put", key[:12])
                    return False
                finally:
                    os.unlink(handle.name)
            except OSError:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
            self.puts += 1
            telemetry.counter("store.put")
            logger.debug("stored record under %s…", key[:12])
            return True
        raise OSError(f"could not persist record {key[:12]}… intact after "
                      f"{self._WRITE_ATTEMPTS} attempts")

    @staticmethod
    def _verify_record(path: str, expected: Dict[str, Any]) -> bool:
        """Read back a just-written record and confirm it parses unchanged."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle) == expected
        except (OSError, json.JSONDecodeError):
            return False

    # ------------------------------------------------------------------ #
    # Leases: one file per in-flight key, owner pid@host, heartbeat mtime.
    # ------------------------------------------------------------------ #
    def claim(self, key: str) -> Optional[Lease]:
        """Atomically claim ``key`` for execution by this process.

        Returns a :class:`Lease` when this process now owns the key, or
        None when a live lease is held elsewhere (``lease_contended``) —
        the caller should wait for the owner's record to appear.  A lease
        whose heartbeat mtime is older than ``lease_timeout`` belongs to a
        dead or wedged owner: exactly one claimant renames it aside
        (``lease_stolen``) and takes over.
        """
        path = self._lease_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        held = faults.store_rule("store.lease_hold", key,
                                 self._occurrence("store.lease_hold", key))
        if held is not None:
            self._plant_foreign_lease(path, age_s=held.delay_s)
        # Two passes: the second retries the O_EXCL create after a stale
        # lease was renamed aside (by us or by a racing claimant).
        epoch = 1
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    continue  # released or stolen between checks; retry
                if age <= self.lease_timeout:
                    self.lease_contended += 1
                    telemetry.counter("store.lease_contended")
                    return None
                # Fence the dead owner: our epoch must exceed whatever the
                # stale lease carried (read before the rename destroys it).
                epoch = max(epoch, self._lease_epoch(path) + 1)
                aside = f"{path}.stale.{os.getpid()}"
                try:
                    os.rename(path, aside)
                except OSError:
                    continue  # another claimant won the steal; retry create
                try:
                    os.unlink(aside)
                except OSError:
                    pass
                self.lease_stolen += 1
                telemetry.counter("store.lease_stolen")
                logger.warning("took over stale lease on %s… "
                               "(no heartbeat for %.1fs)", key[:12], age)
                continue
            owner = self.owner_token
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"owner": owner, "ts": time.time(),
                           "epoch": epoch}, handle)
            self.lease_acquired += 1
            telemetry.counter("store.lease_acquired")
            return Lease(key, path, owner, epoch)
        self.lease_contended += 1
        telemetry.counter("store.lease_contended")
        return None

    @staticmethod
    def _plant_foreign_lease(path: str, age_s: float) -> None:
        """Fault injection: make ``path`` look held by another process."""
        if os.path.exists(path):
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"owner": "injected@nowhere", "ts": time.time() - age_s},
                      handle)
        then = time.time() - age_s
        os.utime(path, (then, then))

    def refresh(self, lease: Lease) -> None:
        """Heartbeat: bump the lease's mtime so it is never seen as stale."""
        try:
            os.utime(lease.path, None)
        except OSError:
            pass  # stolen or released; the CAS put stays safe regardless

    def release(self, lease: Lease) -> None:
        """Drop a held lease (only if still owned by this process)."""
        if self.lease_owner(lease.key) != lease.owner:
            return  # stolen after a stall; the thief owns it now
        try:
            os.unlink(lease.path)
        except OSError:
            return
        self.lease_released += 1
        telemetry.counter("store.lease_released")

    def lease_owner(self, key: str) -> Optional[str]:
        """The ``pid@host`` currently holding ``key``'s lease, if any."""
        try:
            with open(self._lease_path(key), "r", encoding="utf-8") as handle:
                return str(json.load(handle).get("owner"))
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _lease_epoch(path: str) -> int:
        """The fencing epoch in a lease file (0 for pre-epoch/garbled ones)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return int(json.load(handle).get("epoch", 0))
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            return 0

    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, int]:
        return {"records": len(self), "hits": self.hits, "misses": self.misses,
                "partial_probes": self.partial_probes, "puts": self.puts,
                "corrupt": self.corrupt, "torn_writes": self.torn_writes,
                "put_races": self.put_races,
                "lease_acquired": self.lease_acquired,
                "lease_contended": self.lease_contended,
                "lease_stolen": self.lease_stolen,
                "lease_released": self.lease_released,
                "fenced_puts": self.fenced_puts}
