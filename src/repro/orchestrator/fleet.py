"""The fleet scheduler: drives a plan's DAG to quiescence.

One :class:`Orchestrator` owns one queue directory at a time.  The run
loop picks the first runnable job in plan order, serves any planned
lease-expiry storm for it, executes it under a lease (heartbeating on
the injectable clock), and records the outcome durably before touching
the next job.  Every scheduling decision is a pure function of the
durable records plus the fault plan's seeded draws, so a fleet killed at
any point and re-run converges on the same terminal records, the same
artifacts, and the same canonical metrics as an uninterrupted fleet.

Retry policy: an attempt fails on any exception it raises, typed or
not.  A failed attempt backs off on the fleet clock
(:func:`~repro.runtime.dispatch.backoff_delay` — the same schedule shard
dispatch uses) and requeues, until ``plan.max_job_retries`` retries are
exhausted; the job then moves to the dead-letter queue and its hard
dependents degrade per ``plan.degrade_policy``:

* ``skip`` — dependents terminate as ``skipped`` (report keeps going
  with whatever upstream ticks produced);
* ``block`` — dependents terminate as ``blocked`` (nothing downstream
  of a dead job runs);
* ``run-stale`` — dependents run anyway, resolving their inputs to the
  freshest earlier tick with a valid ``DONE.json``.

Canonical fleet metrics (``fleet-metrics.json``) are derived only from
the final durable records and artifact manifests — never from live
execution state or clock values — which is what makes them byte-stable
across kill/resume and execution backends.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..durable import atomic_write_bytes
from ..errors import InjectedJobCrash, QueueError
from ..obs import Instruments
from ..runtime.dispatch import SimulatedClock, backoff_delay
from ..runtime.faults import JOB_CRASH, FaultPlan
from .jobs import FleetPlan, JobSpec
from .queue import (
    BLOCKED,
    DEAD_LETTER,
    DONE,
    FAILED,
    SKIPPED,
    JobQueue,
    JobRecord,
)
from .runner import JobRunner

#: Version of the canonical fleet-metrics document.
FLEET_METRICS_FORMAT = 1

FLEET_METRICS_NAME = "fleet-metrics.json"

#: Degrade policy → the terminal state stamped on dependents.
_DEGRADE_STATE = {"skip": SKIPPED, "block": BLOCKED}


class Orchestrator:
    """Runs one fleet plan against one durable queue directory.

    Args:
        queue_dir: The queue root (created on first run).
        plan: The fleet plan; a resumed queue must hold the same plan
            (digest-checked) or :meth:`run` refuses.
        clock: Injectable clock; defaults to a fresh
            :class:`~repro.runtime.SimulatedClock`, which restarts at 0
            on resume — one more reason no artifact carries clock values.
        instruments: Telemetry sink for the live ``orchestrator.*``
            counters (a fresh one is created when omitted).
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        plan: FleetPlan,
        *,
        clock: Optional[SimulatedClock] = None,
        instruments: Optional[Instruments] = None,
    ) -> None:
        self.plan = plan
        fault_plan: Optional[FaultPlan] = None
        if plan.fault_spec:
            fault_plan = FaultPlan.from_spec(plan.fault_spec)
        self.fault_plan = fault_plan
        self.queue = JobQueue(queue_dir, fault_plan=fault_plan)
        self.clock = clock if clock is not None else SimulatedClock()
        self.instruments = (
            instruments if instruments is not None else Instruments()
        )
        # PID-qualified so a record leased by a dead process is
        # distinguishable from one this process holds.
        self.owner = f"orchestrator-{os.getpid()}"

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, JobRecord]:
        """Drive every job to a terminal state; returns final records.

        Idempotent: re-running over a finished queue verifies the plan
        digest, finds nothing runnable, and just rewrites the canonical
        fleet metrics from the durable records.
        """
        scan = self.queue.open(self.plan, now=self.clock.now)
        self.instruments.inc("orchestrator.opens")
        if scan.resumed:
            self.instruments.inc("orchestrator.resumes")
        self.instruments.inc(
            "orchestrator.records_quarantined", scan.quarantined
        )
        self.instruments.inc("orchestrator.leases_reclaimed", scan.reclaimed)
        records = scan.records
        by_id = self.plan.by_id()
        # One runner for the whole run: it hands each crawl's in-memory
        # store to the jobs that read it (a new run starts empty).
        runner = JobRunner(self.queue, self.plan)

        while True:
            spec = self._next_runnable(records, by_id)
            if spec is None:
                break
            self._run_job(runner, spec, records[spec.job_id])

        # Post-run integrity rescan: if injected chaos tore a job's
        # *final* record write, repair it now — otherwise an
        # uninterrupted fleet's canonical metrics would see the torn
        # record while a killed-and-resumed fleet would see the
        # repaired one.
        final = self.queue.open(self.plan, now=self.clock.now)
        self.instruments.inc(
            "orchestrator.records_quarantined", final.quarantined
        )
        records = final.records

        stuck = [r.job_id for r in records.values() if not r.terminal]
        if stuck:
            raise QueueError(
                f"fleet cannot make progress; non-terminal jobs with no "
                f"runnable work: {', '.join(stuck)}"
            )
        self.write_fleet_metrics()
        return records

    def _next_runnable(
        self, records: Dict[str, JobRecord], by_id: Dict[str, JobSpec]
    ) -> Optional[JobSpec]:
        """First job in plan order that can run *right now*.

        Also applies degradation: a non-terminal job whose hard
        dependency landed in a degraded state is terminally skipped or
        blocked here (under ``run-stale`` it stays runnable).
        """
        for spec in self.plan.jobs:
            record = records[spec.job_id]
            if record.terminal:
                continue
            hard = [records[dep] for dep in spec.hard_deps]
            soft = [records[dep] for dep in spec.soft_deps]
            if not all(r.terminal for r in hard + soft):
                continue  # plan order guarantees deps come first
            degraded = [r for r in hard if r.degraded]
            if degraded and self.plan.degrade_policy in _DEGRADE_STATE:
                self.queue.mark_degraded(
                    record,
                    _DEGRADE_STATE[self.plan.degrade_policy],
                    degraded[0].job_id,
                    self.clock.now,
                )
                self.instruments.inc("orchestrator.jobs_degraded")
                continue
            return spec
        return None

    # ------------------------------------------------------------------
    def _run_job(
        self, runner: JobRunner, spec: JobSpec, record: JobRecord
    ) -> None:
        """One attempt of one job: lease → run → done/failed."""
        queue, clock = self.queue, self.clock

        # Planned lease-expiry storm: the record tracks how many
        # expiries this attempt has already served, so a kill mid-storm
        # resumes the count instead of doubling it.
        if self.fault_plan is not None:
            planned = self.fault_plan.planned_lease_expiries(
                spec.job_id, record.attempt
            )
            while record.expiries_served < planned:
                queue.lease(record, self.owner, clock.now)
                clock.sleep(self.plan.lease_seconds + 1.0)
                queue.expire_lease(record, clock.now)
                self.instruments.inc("orchestrator.lease_expiries")

        queue.lease(record, self.owner, clock.now)
        queue.mark_running(record, clock.now)
        try:
            result = runner.execute(spec)
            queue.heartbeat(record, clock.now)
            if (
                self.fault_plan is not None
                and self.fault_plan.job_fault(spec.job_id, record.attempt)
                == JOB_CRASH
            ):
                raise InjectedJobCrash(
                    f"planned job crash for {spec.job_id} "
                    f"attempt {record.attempt}"
                )
            queue.write_done_manifest(
                spec.job_id, record.attempt, result.artifacts, result.extra
            )
            queue.mark_done(record, clock.now)
            self.instruments.inc("orchestrator.jobs_done")
        except Exception as exc:
            # Typed or not, an exception from the attempt fails the job,
            # so no record is left running; KeyboardInterrupt and other
            # BaseExceptions still end the run.
            error = f"{type(exc).__name__}: {exc}"
            queue.mark_failed(record, error, clock.now)
            self.instruments.inc("orchestrator.job_failures")
            if record.attempt > self.plan.max_job_retries:
                queue.dead_letter(record, clock.now)
                self.instruments.inc("orchestrator.jobs_dead_lettered")
            else:
                # Same exponential schedule shard dispatch uses, on the
                # fleet's injectable clock.
                clock.sleep(backoff_delay(record.attempt - 1))
                queue.requeue(record, clock.now)
                self.instruments.inc("orchestrator.job_retries")

    # ------------------------------------------------------------------
    # Canonical fleet metrics + status
    # ------------------------------------------------------------------
    def write_fleet_metrics(self) -> Path:
        path = self.queue.root / FLEET_METRICS_NAME
        document = fleet_metrics(self.queue, self.plan)
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        atomic_write_bytes(path, (text + "\n").encode("utf-8"))
        return path


def fleet_metrics(queue: JobQueue, plan: FleetPlan) -> dict:
    """The canonical fleet-metrics document.

    Derived exclusively from durable state — final job records, artifact
    manifests — so two fleets that converged to the same records produce
    byte-identical documents regardless of how execution was interleaved
    or interrupted.  Lease bookkeeping and clock values are deliberately
    excluded.
    """
    records = queue.load_records(plan)
    jobs: Dict[str, dict] = {}
    states: Dict[str, int] = {}
    retries = 0
    for record in records:
        entry: Dict[str, object] = {
            "state": record.state,
            "attempts": record.attempt,
        }
        if record.error is not None:
            entry["error"] = record.error
        manifest = queue.read_done_manifest(record.job_id)
        if record.state == DONE and manifest is not None:
            entry["artifacts"] = manifest["artifacts"]
        jobs[record.job_id] = entry
        states[record.state] = states.get(record.state, 0) + 1
        if record.state == DONE:
            retries += record.attempt
        elif record.state in (FAILED, DEAD_LETTER):
            retries += max(0, record.attempt - 1)
    return {
        "format": FLEET_METRICS_FORMAT,
        "plan_digest": plan.digest(),
        "fault_spec": plan.fault_spec,
        "jobs": jobs,
        "states": dict(sorted(states.items())),
        "retries": retries,
    }
