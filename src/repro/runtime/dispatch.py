"""Resilient shard dispatch: bounded retries, graceful degradation.

PR-1's dispatch was a bare ``backend.map`` — the first worker exception
killed the whole run.  This module is the robustness layer between the
shard planner and the backends:

* every shard failure is captured in-worker
  (:func:`~repro.runtime.worker.execute_shard_safely`) and re-dispatched
  with bounded exponential backoff;
* backoff runs on an injectable clock — the default
  :class:`SimulatedClock` only *accounts* for the wait, so chaos tests
  never sleep for real and the accumulated backoff is itself
  deterministic and assertable;
* a shard that exhausts its retries is **dropped, not fatal**, when the
  failure was an injected fault or the failure policy is ``"degrade"`` —
  the crawl completes and reports exactly which shards (and how many
  grid cells) are missing.  Unexpected worker exceptions under the
  default ``"raise"`` policy surface as a
  :class:`~repro.errors.ShardExecutionError` naming the shard.

Every backend runs the same round loop: a round maps the pending shards
through ``backend.map`` and requeues the failures for the next round.
Rounds process shards in plan order, fault draws are pure in (plan,
shard key, attempt), and the backoff schedule is a pure function of the
attempt number — so two runs with the same (seed, plan) produce
identical drop sets, retry counts, and simulated backoff totals on
every backend.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ShardExecutionError
from .backends import ExecutionBackend
from .worker import ShardTask, execute_shard_safely

#: First retry waits this long (simulated seconds); each further retry
#: doubles it, capped at :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 8.0


class SimulatedClock:
    """A clock that records sleeps instead of performing them.

    The dispatcher's exponential backoff runs against this by default:
    ``now`` advances deterministically, nothing blocks, and tests can
    assert the exact simulated wait a fault schedule produced.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: List[float] = []

    def sleep(self, seconds: float) -> None:
        self.now += seconds
        self.sleeps.append(seconds)


def backoff_delay(attempt: int) -> float:
    """Simulated seconds to wait before re-dispatching attempt ``attempt + 1``."""
    return min(BACKOFF_BASE * (2.0 ** attempt), BACKOFF_CAP)


@dataclasses.dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its retries and was dropped."""

    shard_index: int
    description: str
    error: str
    injected: bool
    attempts: int


@dataclasses.dataclass
class DispatchResult:
    """What resilient dispatch produced.

    Attributes:
        payloads: Per-shard worker payloads in plan order; ``None`` where
            the shard was dropped.
        dropped: Dropped shards, ordered by shard index.
    """

    payloads: List[Optional[Dict[str, object]]]
    dropped: List[ShardFailure]


def dispatch_shards(
    backend: ExecutionBackend,
    tasks: Sequence[ShardTask],
    max_retries: int = 2,
    on_failure: str = "raise",
    clock: Optional[SimulatedClock] = None,
    run_task: Callable[[ShardTask], Dict[str, object]] = execute_shard_safely,
    instruments=None,
) -> DispatchResult:
    """Execute shard tasks with retry, backoff, and failure isolation.

    Args:
        backend: Execution backend the attempts run on.
        tasks: Shard tasks in plan order (``shard_index`` set).
        max_retries: Re-dispatch attempts per shard after its first
            failure; ``0`` disables retrying.
        on_failure: ``"raise"`` — a shard whose *unexpected* exception
            survives all retries aborts the run with a
            :class:`~repro.errors.ShardExecutionError`; ``"degrade"`` —
            it is dropped and recorded.  Injected faults always degrade:
            planned chaos is never an error.
        clock: Backoff clock; defaults to a fresh :class:`SimulatedClock`.
        run_task: Worker entry point (injectable for tests); must return
            a payload dict with an ``"ok"`` key and never raise.
        instruments: Optional :class:`~repro.obs.Instruments`; receives
            this dispatcher's *live* accounting — simulated backoff and
            retry round count — in the process (diagnostic) tier.  The
            canonical retry/backoff counters are derived from span
            events by the fold instead, so they survive kill/resume.

    Returns:
        A :class:`DispatchResult`; ``payloads`` aligns with ``tasks``.
    """
    clock = clock if clock is not None else SimulatedClock()
    payloads: List[Optional[Dict[str, object]]] = [None] * len(tasks)
    # Tasks may be any subset of a larger shard plan (e.g. the shards a
    # resumed run still has to execute), so shard_index is mapped back
    # to the task's position rather than used as a direct slot.
    slot = {task.shard_index: position for position, task in enumerate(tasks)}
    dropped: List[ShardFailure] = []
    retries = 0

    pending = list(tasks)
    rounds = 0
    while pending:
        rounds += 1
        results = backend.map(run_task, pending)
        requeued: List[ShardTask] = []
        for task, payload in zip(pending, results):
            if payload.get("ok"):
                payloads[slot[task.shard_index]] = payload
                continue
            if task.attempt < max_retries:
                retries += 1
                clock.sleep(backoff_delay(task.attempt))
                requeued.append(
                    dataclasses.replace(task, attempt=task.attempt + 1)
                )
                continue
            failure = ShardFailure(
                shard_index=task.shard_index,
                description=str(payload.get("shard") or task.describe()),
                error=str(payload.get("error") or "unknown worker error"),
                injected=bool(payload.get("injected")),
                attempts=task.attempt + 1,
            )
            if failure.injected or on_failure == "degrade":
                dropped.append(failure)
            else:
                raise ShardExecutionError(
                    shard_index=failure.shard_index,
                    description=failure.description,
                    attempts=failure.attempts,
                    cause=failure.error,
                )
        pending = requeued

    dropped.sort(key=lambda failure: failure.shard_index)
    if instruments is not None:
        # Process-tier live diagnostics, never canonical.
        for key, value in (
            ("dispatch.rounds", rounds),
            ("dispatch.live_retries", retries),
            ("sim.backoff_us", int(round(clock.now * 1_000_000))),
        ):
            instruments.process[key] = (
                int(instruments.process.get(key, 0)) + value
            )
    return DispatchResult(payloads=payloads, dropped=dropped)
