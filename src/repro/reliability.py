"""Fault-tolerance primitives shared by the store, cache and serving tiers.

Distributed-systems robustness work is only trustworthy when its failure
modes can be *provoked on demand*: this module supplies the deterministic
seams every other layer threads through.

* :class:`FaultPlan` / :class:`FaultSpec` / :func:`fault_point` — a
  deterministic fault-injection harness.  Production code marks its
  crash-relevant seams with ``fault_point(SITE_...)``; with no plan
  installed the call is one global read.  Tests (among them the
  replica-cluster crash check) install a plan that fires a scripted fault —
  an injected crash, a ``database is locked`` storm, a hung stage, a
  torn payload — on the *N*-th arrival at a site, the same way every
  time.  Plans serialize to JSON so subprocess replicas inherit them
  through an environment variable (:data:`FAULT_PLAN_ENV`).
* :func:`retry_sqlite` — the shared bounded-exponential-backoff-with-
  jitter retry helper wrapped around every sqlite write in
  :class:`~repro.engine.store.ResultStore` and
  :class:`~repro.explore.diskcache.DiskCacheTier`, so transient
  ``sqlite3.OperationalError: database is locked`` under multi-replica
  load degrades to a retry instead of failing the request.
* :class:`FileCancelEvent` — a sentinel-file-backed stand-in for
  :class:`threading.Event`, the cross-process cancellation registry
  entry: ``cancel()`` on one side touches a file, the engine's existing
  cooperative checkpoints on the other side poll it, so cancellation
  reaches a request running in a process-pool worker (or another
  replica's worker) that an in-memory event can never reach.
* :func:`quarantine_sqlite` — crash-recovery for the stores themselves:
  a corrupt/truncated database file is renamed aside (never deleted,
  never reinterpreted) so the engine rebuilds a fresh store instead of
  failing construction.

This module is deliberately stdlib-only and imports nothing from
``repro``, so both :mod:`repro.engine` and :mod:`repro.explore` can
depend on it without import cycles.  Tests import the harness from
here::

    from repro.reliability import FaultPlan, install_plan, clear_plan
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Environment variable a subprocess replica reads a JSON fault plan from
#: (installed at import time, so ``python -m repro.engine.server`` style
#: children are covered without any wiring).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

# -- fault sites ------------------------------------------------------------------------
#: Immediately after a lease claim transaction commits (the claim is durable,
#: the work has not started): a crash here leaves a held-but-dead lease that
#: only expiry-based takeover can recover.
SITE_CLAIM_ACQUIRED = "store.claim.acquired"
#: Just before the result-store commit (the work is done, nothing durable
#: yet): a crash here loses the execution and must trigger re-execution.
SITE_STORE_COMMIT = "store.put.before-commit"
#: Inside every retry-wrapped result-store write transaction.
SITE_STORE_WRITE = "store.sqlite.write"
#: Inside every retry-wrapped disk-cache write transaction.
SITE_CACHE_WRITE = "diskcache.sqlite.write"
#: Per-entry payload encoding in the disk cache (torn-write injection).
SITE_CACHE_PAYLOAD = "diskcache.payload"
#: The engine's cooperative cancellation/timeout checkpoint (stage
#: boundaries and episode ticks) — where a hung stage becomes observable.
SITE_CHECKPOINT = "engine.checkpoint"
#: Each scheduler heartbeat iteration (killing it simulates a replica that
#: stops renewing its leases without dying).
SITE_HEARTBEAT = "scheduler.heartbeat"

# -- fault kinds ------------------------------------------------------------------------
KIND_CRASH = "crash"          # raise InjectedFaultError (or os._exit(exit_code))
KIND_BUSY = "sqlite-busy"     # raise sqlite3.OperationalError("database is locked")
KIND_HANG = "hang"            # sleep for `seconds` (a slow/hung stage)
KIND_TORN = "torn-write"      # no action here; the seam truncates its payload

FAULT_KINDS = (KIND_CRASH, KIND_BUSY, KIND_HANG, KIND_TORN)


class InjectedFaultError(RuntimeError):
    """A scripted crash fired at a :func:`fault_point` seam.

    Deliberately *not* an ``EngineError``: production code must treat it
    exactly like any other unexpected failure (that is the point).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: fire *times* times once *site* has been hit *after* times.

    The site's arrival counter is global to the plan, so ``after=2,
    times=1`` means "the third arrival at this site fires, every time the
    plan is replayed" — deterministic by construction.
    """

    site: str
    kind: str
    after: int = 0
    times: int = 1
    #: Sleep duration of a :data:`KIND_HANG` fault.
    seconds: float = 0.05
    #: When set, a :data:`KIND_CRASH` fault hard-kills the process with
    #: ``os._exit(exit_code)`` instead of raising — the real crash, for
    #: subprocess replicas of a cluster.
    exit_code: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.after < 0 or self.times < 1:
            raise ValueError("after must be >= 0 and times >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "after": self.after,
            "times": self.times,
            "seconds": self.seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultSpec":
        return cls(
            site=payload["site"],
            kind=payload["kind"],
            after=int(payload.get("after", 0)),
            times=int(payload.get("times", 1)),
            seconds=float(payload.get("seconds", 0.05)),
            exit_code=payload.get("exit_code"),
        )


class FaultPlan:
    """A deterministic script of faults, replayed against the fault sites.

    Thread-safe: site arrival counters advance under a lock, the (possibly
    slow or raising) fault action runs outside it.  ``fired`` counts how
    often each spec actually fired — the assertion handle for tests.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._site_hits: dict[str, int] = {}
        self.fired: dict[int, int] = {index: 0 for index in range(len(self.specs))}

    # -- scripted-plan constructors (one per FaultPlan kind) -----------------------
    @classmethod
    def crash_after_claim(cls, *, after: int = 0, times: int = 1,
                          exit_code: Optional[int] = None) -> "FaultPlan":
        return cls([FaultSpec(SITE_CLAIM_ACQUIRED, KIND_CRASH, after=after,
                              times=times, exit_code=exit_code)])

    @classmethod
    def crash_before_commit(cls, *, after: int = 0, times: int = 1,
                            exit_code: Optional[int] = None) -> "FaultPlan":
        return cls([FaultSpec(SITE_STORE_COMMIT, KIND_CRASH, after=after,
                              times=times, exit_code=exit_code)])

    @classmethod
    def sqlite_busy(cls, *, site: str = SITE_STORE_WRITE, after: int = 0,
                    times: int = 3) -> "FaultPlan":
        return cls([FaultSpec(site, KIND_BUSY, after=after, times=times)])

    @classmethod
    def hung_stage(cls, *, seconds: float = 0.25, after: int = 0,
                   times: int = 1) -> "FaultPlan":
        return cls([FaultSpec(SITE_CHECKPOINT, KIND_HANG, after=after,
                              times=times, seconds=seconds)])

    @classmethod
    def torn_cache_write(cls, *, after: int = 0, times: int = 1) -> "FaultPlan":
        return cls([FaultSpec(SITE_CACHE_PAYLOAD, KIND_TORN, after=after, times=times)])

    # -- serialization -------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([spec.to_dict() for spec in self.specs])

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        return cls(FaultSpec.from_dict(entry) for entry in json.loads(payload))

    # -- firing --------------------------------------------------------------------
    def hit(self, site: str) -> Optional[FaultSpec]:
        """Advance *site*'s arrival counter; perform and return a due fault."""
        spec: Optional[FaultSpec] = None
        with self._lock:
            count = self._site_hits.get(site, 0) + 1
            self._site_hits[site] = count
            for index, candidate in enumerate(self.specs):
                if candidate.site != site:
                    continue
                if candidate.after < count <= candidate.after + candidate.times:
                    self.fired[index] += 1
                    spec = candidate
                    break
        if spec is None:
            return None
        # Actions run outside the lock: a hang must not serialize every
        # other fault site behind it.
        if spec.kind == KIND_HANG:
            time.sleep(spec.seconds)
            return spec
        if spec.kind == KIND_BUSY:
            raise sqlite3.OperationalError("database is locked [injected]")
        if spec.kind == KIND_CRASH:
            if spec.exit_code is not None:
                os._exit(spec.exit_code)  # the real thing: no cleanup, no unwind
            raise InjectedFaultError(f"injected crash at {site}")
        return spec  # KIND_TORN: the seam applies the corruption itself


_ACTIVE_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make *plan* the process-wide active fault plan; returns it."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    return plan


def clear_plan() -> None:
    """Deactivate fault injection (the idle state: one global read per seam)."""
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE_PLAN


def fault_point(site: str) -> Optional[FaultSpec]:
    """The seam production code threads through its crash-relevant points.

    With no plan installed this is one global read and a ``None`` check.
    With a plan, a due fault fires *here*: a crash raises (or hard-exits),
    a busy storm raises ``sqlite3.OperationalError``, a hang sleeps, and a
    torn write returns its spec so the calling seam corrupts its payload.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    return plan.hit(site)


# Subprocess replicas inherit their scripted faults
# through the environment: installing at import time covers every entry
# point without per-module wiring.
if os.environ.get(FAULT_PLAN_ENV):
    install_plan(FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]))


# -- retry with bounded exponential backoff ----------------------------------------------

#: Defaults tuned for sqlite write contention: 6 attempts spanning roughly
#: half a second of cumulative backoff — enough to ride out a WAL writer
#: burst from sibling replicas, short enough that a genuinely wedged store
#: still fails the request promptly.
DEFAULT_RETRY_ATTEMPTS = 6
DEFAULT_RETRY_BASE_DELAY = 0.01
DEFAULT_RETRY_MAX_DELAY = 0.25


def is_transient_sqlite_error(exc: BaseException) -> bool:
    """Whether *exc* is a lock/busy condition worth retrying (not corruption)."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def retry_sqlite(
    operation: Callable[[], T],
    *,
    attempts: int = DEFAULT_RETRY_ATTEMPTS,
    base_delay: float = DEFAULT_RETRY_BASE_DELAY,
    max_delay: float = DEFAULT_RETRY_MAX_DELAY,
    retryable: Callable[[BaseException], bool] = is_transient_sqlite_error,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run *operation*, retrying transient failures with backoff + jitter.

    The delay before retry ``n`` (0-based) is ``min(max_delay, base_delay *
    2**n)`` scaled by a jitter factor in ``[0.5, 1.0]`` so competing
    replicas de-synchronise instead of retrying in lock-step.  A
    non-retryable error, or exhaustion of *attempts*, re-raises the last
    failure unchanged.  ``on_retry(attempt, exc, delay)`` observes every
    retry (telemetry counters hook in here).
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    jitter = rng.random if rng is not None else random.random
    for attempt in range(attempts):
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 — filtered by `retryable`
            if attempt + 1 >= attempts or not retryable(exc):
                raise
            delay = min(max_delay, base_delay * (2 ** attempt))
            delay *= 0.5 + jitter() / 2.0
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


# -- cross-process cancellation ----------------------------------------------------------

class FileCancelEvent:
    """A ``threading.Event`` look-alike backed by a sentinel file.

    The shared cancellation registry entry: the controlling side calls
    :meth:`set` (touching the file), workers in *other processes* poll
    :meth:`is_set` at the engine's existing cooperative checkpoints.  The
    filesystem check is rate-limited to *poll_interval* so per-episode
    polling stays cheap; once observed set, the answer is latched.
    """

    def __init__(self, path: str | os.PathLike, poll_interval: float = 0.05):
        self.path = Path(path)
        self.poll_interval = poll_interval
        self._set = False
        self._last_poll = 0.0

    def set(self) -> None:
        self._set = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()

    def clear(self) -> None:
        self._set = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def is_set(self) -> bool:
        if self._set:
            return True
        now = time.monotonic()
        if now - self._last_poll < self.poll_interval:
            return False
        self._last_poll = now
        self._set = self.path.exists()
        return self._set

    def wait(self, timeout: Optional[float] = None) -> bool:
        deadline = time.monotonic() + timeout if timeout is not None else None
        while not self.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_interval)
        return True


# -- corrupt-store quarantine ------------------------------------------------------------

def quarantine_sqlite(path: str | os.PathLike) -> Path:
    """Rename a corrupt sqlite file (and WAL/SHM siblings) aside; return the new path.

    The quarantined file keeps its bytes for post-mortems — corruption is
    *renamed*, never deleted and never reinterpreted — and the caller
    reopens a fresh store at the original path, mirroring the wholesale
    schema-version drop the stores already perform on format mismatches.
    """
    original = Path(path)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    quarantined = original.with_name(f"{original.name}.corrupt-{stamp}-{os.getpid()}")
    os.replace(original, quarantined)
    for suffix in ("-wal", "-shm"):
        sibling = Path(str(original) + suffix)
        if sibling.exists():
            try:
                sibling.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return quarantined


def open_sqlite_verified(
    path: str | os.PathLike,
    timeout: float,
    *,
    initialize: Callable[[sqlite3.Connection], None],
) -> tuple[sqlite3.Connection, Optional[Path]]:
    """Connect to *path*, quarantining and rebuilding a corrupt database.

    Runs *initialize* (pragmas + schema setup) against the connection; a
    :class:`sqlite3.DatabaseError` — "file is not a database", truncated
    headers, malformed pages — quarantines the file via
    :func:`quarantine_sqlite` and retries once against a fresh database.
    Returns ``(connection, quarantined_path_or_None)``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(target), timeout=timeout, check_same_thread=False)
    try:
        initialize(connection)
        return connection, None
    except sqlite3.DatabaseError:
        try:
            connection.close()
        except Exception:  # pragma: no cover - close best-effort
            pass
        quarantined = quarantine_sqlite(target)
        connection = sqlite3.connect(str(target), timeout=timeout, check_same_thread=False)
        initialize(connection)
        return connection, quarantined


__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_KINDS",
    "KIND_BUSY",
    "KIND_CRASH",
    "KIND_HANG",
    "KIND_TORN",
    "SITE_CACHE_PAYLOAD",
    "SITE_CACHE_WRITE",
    "SITE_CHECKPOINT",
    "SITE_CLAIM_ACQUIRED",
    "SITE_HEARTBEAT",
    "SITE_STORE_COMMIT",
    "SITE_STORE_WRITE",
    "DEFAULT_RETRY_ATTEMPTS",
    "DEFAULT_RETRY_BASE_DELAY",
    "DEFAULT_RETRY_MAX_DELAY",
    "FaultPlan",
    "FaultSpec",
    "FileCancelEvent",
    "InjectedFaultError",
    "active_plan",
    "clear_plan",
    "fault_point",
    "install_plan",
    "is_transient_sqlite_error",
    "open_sqlite_verified",
    "quarantine_sqlite",
    "retry_sqlite",
]
