"""Deterministic fault injection for campaign resilience testing.

The fault-tolerance contract of the scheduler/store stack — retries heal
transient failures, quarantine isolates persistent ones, leases serialize
concurrent stores, and recovered campaigns are bit-identical to fault-free
runs — is only worth stating if it can be *proven*.  This module provides the
probe: a seeded, picklable :class:`FaultPlan` that injects failures at named
sites in the execution path, deterministically enough that a test can assert
the exact recovery sequence.

Sites
-----

``job.exception``
    Raise :class:`InjectedFault` inside the worker entry point, before any
    training happens (a deterministic stand-in for a raising design).
``job.crash``
    Kill the worker process (local or remote) with ``os._exit`` — the
    coordinator sees the connection drop, must requeue the job and respawn
    the worker.  Under serial execution (where dying would take the
    campaign down with it) the site degrades to an :class:`InjectedFault`
    marked as a crash surrogate.
``job.timeout``
    Sleep ``delay_s`` seconds inside the job so a configured ``job_timeout``
    expires (under serial execution the sleep simply delays the job).
``job.interrupt``
    Deliver ``SIGINT`` to the current process mid-job (serial execution
    only; workers skip it) — exercising the scheduler's graceful-shutdown
    path with none of the timing flakiness of an external kill.
``store.torn_write``
    Corrupt the payload of a :meth:`ResultStore.put_run` before it reaches
    its final path, as a crash mid-write would.
``store.lease_hold``
    Plant a foreign lease (aged by ``delay_s`` seconds) on a key just before
    the store tries to claim it, forcing the contention or stale-takeover
    path.
``rpc.conn_drop``
    Make a remote worker close its coordinator connection upon receiving a
    matching JOB and reconnect — the coordinator must requeue the in-flight
    job and accept the fresh HELLO.
``rpc.heartbeat_loss``
    Suppress a remote worker's heartbeats and stall it ``delay_s`` seconds
    before executing a matching job, so the coordinator's heartbeat deadline
    revokes the assignment; the worker then finishes anyway and its stale
    RESULT must be fenced by the assignment-epoch check.
``rpc.result_delay``
    Delay a remote worker's RESULT by ``delay_s`` seconds after computing it
    (heartbeats keep flowing) — shuffling network arrival order to prove the
    submission-order telemetry/result merge is arrival-order independent.

Determinism
-----------

A rule fires based only on *(site, key, occurrence)* — the occurrence index
is the job's attempt number (or the store's per-key operation count), never
wall-clock state — so the same plan produces the same fault sequence in any
process, and a rule with ``times=N`` fires for exactly the first ``N``
attempts and then lets the retry succeed.  ``probability`` draws from a hash
of ``(seed, site, key, occurrence)``, not a shared RNG stream, so worker
placement cannot change which faults fire.

The plan is installed process-globally (:func:`install_plan` /
:func:`inject`) and rides to workers inside the scheduler's task
payloads exactly like the engine configuration, so a worker observes the
same plan the parent does.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple

from ..log import get_logger

__all__ = [
    "FAULT_SITES",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "install_plan",
    "get_plan",
    "clear_plan",
    "inject",
    "perturb_job",
    "in_worker_process",
    "worker_process",
    "store_rule",
    "rpc_rule",
]

logger = get_logger("faults")

#: Every site the execution path consults.  Specs naming anything else are
#: rejected up front so a typo cannot silently disable a chaos run.
FAULT_SITES = frozenset({
    "job.exception",
    "job.crash",
    "job.timeout",
    "job.interrupt",
    "store.torn_write",
    "store.lease_hold",
    "rpc.conn_drop",
    "rpc.heartbeat_loss",
    "rpc.result_delay",
})


class InjectedFault(RuntimeError):
    """Raised (or simulated) by a firing fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``site`` for matching keys, ``times`` times.

    Attributes:
        site: One of :data:`FAULT_SITES`.
        match: Substring matched against the fault point's key (the
            scheduler's job label, a store key …).  Empty or ``"*"`` matches
            everything.
        times: Fire for occurrence indices ``0 .. times-1`` (the attempt
            number for job sites, the per-key operation count for store
            sites); a negative value fires forever — the persistent failure
            that must end in quarantine.
        delay_s: Sleep length for ``job.timeout``; planted-lease age for
            ``store.lease_hold``.
        probability: Chance the rule fires for an otherwise-matching
            occurrence, drawn deterministically from the plan seed.
    """

    site: str
    match: str = ""
    times: int = 1
    delay_s: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"expected one of {sorted(FAULT_SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def matches(self, key: str, occurrence: int) -> bool:
        if self.times >= 0 and occurrence >= self.times:
            return False
        if self.match and self.match != "*" and self.match not in key:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules, consulted at every injection site."""

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def should_fire(self, site: str, key: str,
                    occurrence: int) -> Optional[FaultRule]:
        """The first matching rule for this (site, key, occurrence), or None.

        Deterministic: depends only on the arguments and the plan seed,
        never on process identity, time, or shared RNG state.
        """
        for rule in self.rules:
            if rule.site != site or not rule.matches(key, occurrence):
                continue
            if rule.probability >= 1.0 or self._draw(site, key, occurrence) \
                    < rule.probability:
                return rule
        return None

    def _draw(self, site: str, key: str, occurrence: int) -> float:
        token = f"{self.seed}|{site}|{key}|{occurrence}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Grammar: comma-separated elements, each either ``seed=N`` or
        ``site[:match[:times[:delay_s]]]`` — e.g.
        ``"job.exception:*:2,job.crash::1,store.torn_write:*:1,seed=7"``.
        An omitted or ``*`` match hits every key; ``times=-1`` fires
        forever.
        """
        rules = []
        seed = 0
        for element in spec.split(","):
            element = element.strip()
            if not element:
                continue
            if element.startswith("seed="):
                seed = int(element[len("seed="):])
                continue
            fields = element.split(":")
            if len(fields) > 4:
                raise ValueError(f"malformed fault element {element!r}")
            site = fields[0]
            match = fields[1] if len(fields) > 1 else ""
            times = int(fields[2]) if len(fields) > 2 and fields[2] else 1
            delay = float(fields[3]) if len(fields) > 3 and fields[3] else 0.0
            rules.append(FaultRule(site=site, match=match, times=times,
                                   delay_s=delay))
        return cls(rules=tuple(rules), seed=seed)


# --------------------------------------------------------------------------- #
# Process-global plan.  The scheduler copies the installed plan into worker
# payloads (like the engine configuration), and the worker entry point
# re-installs it before consulting any site.
# --------------------------------------------------------------------------- #

_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the active fault plan, returning the previous one."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def get_plan() -> Optional[FaultPlan]:
    """The active fault plan, or None when no faults are injected."""
    return _PLAN


def clear_plan() -> None:
    install_plan(None)


@contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope ``plan`` as the active fault plan for a ``with`` block."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


_IN_WORKER = False


def in_worker_process() -> bool:
    """True while this process serves jobs as an executor worker."""
    return _IN_WORKER


@contextmanager
def worker_process() -> Iterator[None]:
    """Mark this process as an executor worker for a ``with`` block."""
    global _IN_WORKER
    previous, _IN_WORKER = _IN_WORKER, True
    try:
        yield
    finally:
        _IN_WORKER = previous


def perturb_job(key: str, attempt: int) -> None:
    """Consult the job-level sites for ``key`` at ``attempt``.

    Called by the scheduler's worker entry point before training starts.
    May raise :class:`InjectedFault`, sleep, kill the worker process, or
    deliver ``SIGINT`` to a serial (non-worker) process, per the active
    plan.
    """
    plan = _PLAN
    if plan is None:
        return
    rule = plan.should_fire("job.timeout", key, attempt)
    if rule is not None:
        logger.debug("fault: sleeping %.2fs in %s (attempt %d)",
                     rule.delay_s, key, attempt)
        time.sleep(rule.delay_s)
    rule = plan.should_fire("job.interrupt", key, attempt)
    if rule is not None and not in_worker_process():
        logger.debug("fault: delivering SIGINT during %s (attempt %d)",
                     key, attempt)
        os.kill(os.getpid(), signal.SIGINT)
    rule = plan.should_fire("job.crash", key, attempt)
    if rule is not None:
        if in_worker_process():
            logger.debug("fault: killing worker pid %d in %s (attempt %d)",
                         os.getpid(), key, attempt)
            # Flush so the parent's log is not missing the line above, then
            # die the way a segfaulting or OOM-killed worker would.
            sys.stderr.flush()
            os._exit(66)
        raise InjectedFault(
            f"injected worker crash (serial surrogate) in {key} "
            f"attempt {attempt}")
    rule = plan.should_fire("job.exception", key, attempt)
    if rule is not None:
        raise InjectedFault(f"injected job exception in {key} "
                            f"attempt {attempt}")


def store_rule(site: str, key: str, occurrence: int) -> Optional[FaultRule]:
    """Consult a ``store.*`` site; the store applies the effect itself."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.should_fire(site, key, occurrence)


def rpc_rule(site: str, key: str, occurrence: int) -> Optional[FaultRule]:
    """Consult an ``rpc.*`` site; the transport applies the effect itself.

    ``key`` is the work item's fault key (the scheduler's job label) and
    ``occurrence`` its attempt number, so remote chaos plans share the
    job-site determinism contract.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.should_fire(site, key, occurrence)
