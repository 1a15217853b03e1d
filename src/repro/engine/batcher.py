"""Continuous cross-request inference batching for the serving tier.

The scheduler executes each request on its own worker thread, so N
concurrent CDRL requests historically ran N independent episode loops and
issued N separate policy forwards per step.  The batcher fuses them — the
continuous-batching shape of modern inference servers, adapted to
request-private policy *networks*:

:class:`InferenceBatcher`
    A wave thread that request workers submit observation rows to
    (blocking on per-row results) and that coalesces whatever is pending —
    up to a row cap, with a short linger window as the straggler fallback —
    into **one** forward per step.  Each request trains its own
    :class:`~repro.rl.network.MultiHeadPolicyNetwork`, so rows are grouped
    by architecture signature, and
    :func:`~repro.rl.network.stacked_forward` runs each network's rows on
    that network's own weights.  As on the local route, each distinct row
    — here (network, observation, bias row, folded flags) — is forwarded
    and folded once.  Everything downstream of the forward (the fused bias
    fold, entropy/log-prob sums, per-row sampling from each row's own RNG)
    runs once for the whole wave through
    :meth:`~repro.rl.policy.CategoricalPolicy.decisions_from_forward`.
    Every kernel on this path reduces along the contiguous last axis in a
    fixed order, so a row's decision is **bit-identical** to the same row
    computed alone on its own thread — wave composition can change
    latency, never results.

The content-keyed exploration state the members share (action spaces,
scorers, LDX matchers, feature and decision memos) is not the
batcher's: it belongs to the engine's
:class:`~repro.cdrl.context.SharedExplorationContext`, which serves batched
and unbatched requests alike.

Threading contract: a member's network weights are only read by the wave
thread while that member's request thread is blocked inside
:meth:`InferenceBatcher.submit`; all mutation (gradient accumulation,
optimizer steps) happens on the owning thread between submissions, and the
wave kernel touches no layer caches.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.rl.network import architecture_signature, stacked_forward
from repro.rl.policy import (
    BiasRow,
    CategoricalPolicy,
    PolicyDecision,
    distinct_rows,
    row_key,
)


class BatchMember:
    """Opaque membership handle of one request attached to the batcher."""

    __slots__ = ("member_id",)

    def __init__(self, member_id: int):
        self.member_id = member_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchMember({self.member_id})"


@dataclass
class _Submission:
    """One blocked acting call: a member's rows awaiting a wave."""

    member: Optional[BatchMember]
    policy: CategoricalPolicy
    observations: np.ndarray
    biases_list: list[BiasRow]
    rngs: list[np.random.Generator]
    greedy: bool
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[list[PolicyDecision]] = None
    error: Optional[BaseException] = None


class InferenceBatcher:
    """Coalesces concurrent requests' policy forwards into shared waves.

    Parameters
    ----------
    max_batch_size:
        Row cap per wave.  A wave fires as soon as the pending rows reach
        it (whole submissions are never split).
    linger_ms:
        Straggler fallback: once anything is pending, the wave fires after
        this many milliseconds even if some attached members have not
        submitted yet (they are busy stepping environments or updating
        gradients).  When every attached member has a pending submission
        the wave fires immediately — the common lock-step case pays no
        linger latency.

    Request workers :meth:`attach` when they start a batchable request,
    :meth:`submit` their observation rows each acting step (blocking until
    the wave delivers that row's decisions), and :meth:`detach` when the
    request finishes.  Results are bit-identical to the member running its
    acting path alone; occupancy telemetry is in :meth:`describe`.
    """

    def __init__(self, *, max_batch_size: int = 64, linger_ms: float = 2.0):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if linger_ms < 0:
            raise ValueError("linger_ms must be >= 0")
        self.max_batch_size = max_batch_size
        self.linger_seconds = linger_ms / 1000.0
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._members: dict[int, BatchMember] = {}
        self._member_counter = 0
        self._pending: list[_Submission] = []
        self._pending_since: Optional[float] = None
        self._shutdown = False
        # Occupancy telemetry.
        self.waves = 0
        self.rows_total = 0
        self.submissions_total = 0
        self.max_wave_rows = 0
        self._thread = threading.Thread(
            target=self._wave_loop, daemon=True, name="linx-batcher"
        )
        self._thread.start()

    # -- membership --------------------------------------------------------------------
    def attach(self) -> BatchMember:
        """Register one request as a wave member; returns its handle."""
        with self._condition:
            if self._shutdown:
                raise RuntimeError("batcher is shut down")
            self._member_counter += 1
            member = BatchMember(self._member_counter)
            self._members[member.member_id] = member
            self._condition.notify_all()
            return member

    def detach(self, member: BatchMember) -> None:
        """Remove *member*; pending waves stop waiting for it."""
        with self._condition:
            self._members.pop(member.member_id, None)
            self._condition.notify_all()

    # -- submission --------------------------------------------------------------------
    def submit(
        self,
        member: Optional[BatchMember],
        policy: CategoricalPolicy,
        observations: np.ndarray,
        biases_list: Sequence[BiasRow],
        rngs: Sequence[np.random.Generator],
        greedy: bool = False,
    ) -> list[PolicyDecision]:
        """Block until a wave has decided for these rows; returns the decisions.

        ``rngs`` must carry one generator per row (the policy's
        ``act_batch`` pins them before delegating here): each row samples
        from its own stream inside the wave, which is what makes results
        independent of wave composition.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2:
            raise ValueError(f"expected a (K, F) observation batch, got {obs.shape}")
        if len(biases_list) != len(obs) or len(rngs) != len(obs):
            raise ValueError("need one bias row and one RNG per observation")
        submission = _Submission(
            member=member,
            policy=policy,
            observations=obs,
            biases_list=list(biases_list),
            rngs=list(rngs),
            greedy=bool(greedy),
        )
        with self._condition:
            if self._shutdown:
                raise RuntimeError("batcher is shut down")
            self._pending.append(submission)
            first = self._pending_since is None
            if first:
                self._pending_since = time.monotonic()
            # Only wake the wave thread when this row could actually start a
            # wave: the first pending row (arms the linger timeout) or one
            # that completes the firing condition.  Intermediate rows would
            # only cost a spurious wakeup + context switch per submission.
            if first or self._wave_ready():
                self._condition.notify_all()
        submission.done.wait()
        if submission.error is not None:
            raise submission.error
        assert submission.result is not None
        return submission.result

    # -- the wave thread ---------------------------------------------------------------
    def _wave_ready(self) -> bool:
        """Fire condition (caller holds the lock)."""
        if not self._pending:
            return False
        if self._shutdown:
            return True
        rows = sum(len(submission.observations) for submission in self._pending)
        if rows >= self.max_batch_size:
            return True
        waiting = {
            submission.member.member_id
            for submission in self._pending
            if submission.member is not None
        }
        # Every attached member has a row pending: the lock-step case —
        # fire now, no linger.  (With no members attached this is trivially
        # true, so bare submissions never stall.)
        if len(waiting) >= len(self._members):
            return True
        if self._pending_since is not None:
            return time.monotonic() - self._pending_since >= self.linger_seconds
        return False

    def _wave_loop(self) -> None:
        while True:
            with self._condition:
                while not self._wave_ready():
                    if self._shutdown and not self._pending:
                        return
                    timeout = None
                    if self._pending_since is not None:
                        elapsed = time.monotonic() - self._pending_since
                        timeout = max(0.0, self.linger_seconds - elapsed)
                    self._condition.wait(timeout=timeout)
                batch: list[_Submission] = []
                rows = 0
                while self._pending:
                    next_rows = len(self._pending[0].observations)
                    if batch and rows + next_rows > self.max_batch_size:
                        break
                    submission = self._pending.pop(0)
                    batch.append(submission)
                    rows += next_rows
                self._pending_since = time.monotonic() if self._pending else None
                self.waves += 1
                self.rows_total += rows
                self.submissions_total += len(batch)
                self.max_wave_rows = max(self.max_wave_rows, rows)
            self._run_wave(batch)

    def _run_wave(self, batch: list[_Submission]) -> None:
        """Decide for every row of *batch* in grouped stacked passes."""
        groups: dict[tuple, list[_Submission]] = {}
        for submission in batch:
            key = (
                architecture_signature(submission.policy.network),
                submission.greedy,
            )
            groups.setdefault(key, []).append(submission)
        for (_, greedy), members in groups.items():
            try:
                self._decide_group(members, greedy)
            except BaseException as exc:  # noqa: BLE001 — fail the submitters, not the wave thread
                for submission in members:
                    submission.error = exc
            finally:
                for submission in members:
                    submission.done.set()

    def _decide_group(self, members: list[_Submission], greedy: bool) -> None:
        """One forward of each distinct row + one batched decision pass for a group.

        Rows are concatenated in submission order.  Networks take slots by
        identity in first-seen order, so requests sharing one policy (e.g.
        duplicate-seed probes) share a slot.  A row's key is its network's
        slot plus the local route's :func:`~repro.rl.policy.row_key`; each
        distinct key is forwarded and folded once, on its own network's
        weights, and every row is still sampled from its own RNG.
        """
        slots: dict[int, int] = {}
        networks = []
        keys = []
        biases_list: list[BiasRow] = []
        rngs: list[np.random.Generator] = []
        for submission in members:
            network = submission.policy.network
            slot = slots.setdefault(id(network), len(networks))
            if slot == len(networks):
                networks.append(network)
            keys.extend(
                (slot, *row_key(row, biases))
                for row, biases in zip(submission.observations, submission.biases_list)
            )
            biases_list.extend(submission.biases_list)
            rngs.extend(submission.rngs)
        firsts, sources = distinct_rows(keys)
        observations = np.concatenate(
            [submission.observations for submission in members]
        )
        probabilities, values = stacked_forward(
            networks,
            np.array([keys[k][0] for k in firsts]),
            observations[firsts],
        )
        decisions = members[0].policy.decisions_from_forward(
            observations, probabilities, values, biases_list, rngs, greedy, sources
        )
        cursor = 0
        for submission in members:
            count = len(submission.observations)
            submission.result = decisions[cursor : cursor + count]
            cursor += count

    # -- telemetry / lifecycle ---------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Occupancy telemetry (the ``/stats`` batcher section)."""
        with self._lock:
            waves = self.waves
            return {
                "max_batch_size": self.max_batch_size,
                "linger_ms": self.linger_seconds * 1000.0,
                "members": len(self._members),
                "pending": len(self._pending),
                "waves": waves,
                "rows": self.rows_total,
                "submissions": self.submissions_total,
                "max_wave_rows": self.max_wave_rows,
                "mean_rows_per_wave": (
                    round(self.rows_total / waves, 4) if waves else 0.0
                ),
                "mean_submissions_per_wave": (
                    round(self.submissions_total / waves, 4) if waves else 0.0
                ),
            }

    def close(self) -> None:
        """Stop the wave thread (pending submissions still complete)."""
        with self._condition:
            if self._shutdown:
                return
            self._shutdown = True
            self._condition.notify_all()
        self._thread.join(timeout=30)

    def __enter__(self) -> "InferenceBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
