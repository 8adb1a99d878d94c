"""The durable job queue: leased, checksummed, crash-recoverable.

Reuses the PR-4 ledger idioms at job granularity:

* a **versioned queue manifest** (``queue.json``) pinning the fleet plan
  (see :class:`~repro.orchestrator.jobs.FleetPlan`) — re-opening with a
  different plan is refused;
* **per-job write-ahead records** (``jobs/<job>.rec``): one
  :mod:`repro.durable` header-line record whose header carries the
  critical scalars (state, attempt) and whose body is the record's
  canonical JSON.  Every state transition is one
  :func:`~repro.durable.atomic_write_bytes` (temp file, fsync, rename,
  directory fsync), so a reader — including a resumed orchestrator —
  sees either the previous record or the complete next one;
* **quarantine, never trust**: a record that fails validation is moved
  to ``quarantine/`` and rebuilt from its header scalars plus the job's
  ``DONE.json`` artifact manifest (written write-ahead of the ``done``
  transition, so a torn completion recovers without re-running the job);
* a **dead-letter queue** (``dead-letter/``) holding a full copy of
  every job that exhausted its retries — exhausted jobs are quarantined
  with their typed error, never silently dropped.

State machine::

    pending ──▶ leased ──▶ running ──▶ done
       ▲           │           │  └──▶ failed ──▶ pending (retry)
       │           │           │            └──▶ dead-letter
       └───────────┴───────────┘  (lease lost / process death:
                                   same attempt, re-executed)

``attempt`` counts *recorded failures*: losing a lease (process death,
injected expiry) re-runs the same attempt, so fault draws keyed on
``(job, attempt)`` replay identically across kill/resume — the property
the convergence suite leans on.  Terminal degradation states for
dependents (``skipped``, ``blocked``) are terminal records like
``done``, with the upstream job named in ``error``.

Chaos: with an orchestrator-level :class:`~repro.runtime.FaultPlan`
active, record writes can be **torn** — the body is truncated mid-write
while the header survives (the modeled failure is a partial data write
after the metadata commit).  Each planned tear fires exactly once,
gated by a marker in ``chaos/`` written *before* the torn bytes, so
every execution of the same fault plan tears the same writes and
recovery converges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..durable import (
    MISSING,
    RecordRead,
    atomic_write_bytes,
    encode_record,
    parse_json,
    quarantine,
    read_record,
    sweep_temp_files,
)
from ..errors import QueueError
from ..runtime.faults import FaultPlan
from .jobs import FLEET_FORMAT, FleetPlan

#: Version of the job-record schema.
RECORD_FORMAT = 1

#: Version of the per-job artifact manifest (``DONE.json``).
DONE_FORMAT = 1

QUEUE_MANIFEST = "queue.json"
JOBS_DIRNAME = "jobs"
DEAD_LETTER_DIRNAME = "dead-letter"
QUARANTINE_DIRNAME = "quarantine"
CHAOS_DIRNAME = "chaos"
CHECKPOINTS_DIRNAME = "checkpoints"
ARTIFACTS_DIRNAME = "artifacts"
PROFILES_DIRNAME = "profiles"

# Job states.
PENDING = "pending"
LEASED = "leased"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
DEAD_LETTER = "dead-letter"
SKIPPED = "skipped"
BLOCKED = "blocked"

JOB_STATES = (
    PENDING,
    LEASED,
    RUNNING,
    DONE,
    FAILED,
    DEAD_LETTER,
    SKIPPED,
    BLOCKED,
)

#: States a job never leaves.
TERMINAL_STATES = (DONE, DEAD_LETTER, SKIPPED, BLOCKED)

#: Terminal states that degrade hard dependents.
DEGRADED_STATES = (DEAD_LETTER, SKIPPED, BLOCKED)


@dataclasses.dataclass
class JobRecord:
    """One job's durable state.

    Attributes:
        job_id: The job this record belongs to.
        state: One of :data:`JOB_STATES`.
        attempt: Recorded failures so far (lease loss does not count).
        expiries_served: Injected lease expiries already served for the
            current attempt (resets when ``attempt`` increments).
        error: Last failure as ``"TypeName: message"``; for ``skipped``
            / ``blocked``, names the degraded upstream job.
        lease_owner: Current lease holder (``None`` when unleased).
        lease_expires: Lease deadline on the fleet's injectable clock.
        updated_at: Clock time of the last transition (diagnostic only;
            never part of canonical metrics or artifact bytes).
    """

    job_id: str
    state: str = PENDING
    attempt: int = 0
    expiries_served: int = 0
    error: Optional[str] = None
    lease_owner: Optional[str] = None
    lease_expires: float = 0.0
    updated_at: float = 0.0

    @classmethod
    def from_body(cls, body: dict) -> "JobRecord":
        """The record a body holds; every field is required."""
        return cls(**{f.name: body[f.name] for f in dataclasses.fields(cls)})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def degraded(self) -> bool:
        return self.state in DEGRADED_STATES


@dataclasses.dataclass
class QueueScan:
    """What :meth:`JobQueue.open` found and repaired.

    Attributes:
        resumed: A matching queue manifest already existed.
        records: Current record per job id, in plan order.
        quarantined: Records that failed validation and were moved to
            ``quarantine/``.
        reclaimed: Leases reclaimed from dead owners.
    """

    resumed: bool
    records: Dict[str, JobRecord]
    quarantined: int = 0
    reclaimed: int = 0


class JobQueue:
    """Owns one on-disk queue directory (see module docstring).

    Cheap to construct — holds only paths, the plan, and the fault
    injector.  All state lives on disk; :meth:`open` is the only scan.
    """

    def __init__(
        self,
        root: Union[str, Path],
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / QUEUE_MANIFEST
        self.jobs_dir = self.root / JOBS_DIRNAME
        self.dead_letter_dir = self.root / DEAD_LETTER_DIRNAME
        self.quarantine_dir = self.root / QUARANTINE_DIRNAME
        self.chaos_dir = self.root / CHAOS_DIRNAME
        self.fault_plan = fault_plan
        self.plan: Optional[FleetPlan] = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.rec"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.root / CHECKPOINTS_DIRNAME / job_id

    def artifact_dir(self, job_id: str) -> Path:
        return self.root / ARTIFACTS_DIRNAME / job_id

    def done_path(self, job_id: str) -> Path:
        return self.artifact_dir(job_id) / "DONE.json"

    def profile_generation(self, tick: int) -> Path:
        return self.root / PROFILES_DIRNAME / f"gen-{tick:03d}"

    # ------------------------------------------------------------------
    # Open / scan / recovery
    # ------------------------------------------------------------------
    def open(self, plan: FleetPlan, now: float = 0.0) -> QueueScan:
        """Create or resume the queue for ``plan``.

        Fresh directory: writes ``queue.json`` and a pending record per
        job.  Existing directory: verifies the stored plan digest
        matches (:class:`~repro.errors.QueueError` otherwise), then
        scans every record — quarantining invalid ones and rebuilding
        them from header scalars + ``DONE.json`` — and reclaims leases
        held by dead owners.

        Raises:
            QueueError: The manifest is unreadable, or names a
                different fleet than ``plan``.
        """
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.dead_letter_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.chaos_dir.mkdir(parents=True, exist_ok=True)
        sweep_temp_files(self.jobs_dir, self.root)
        self.plan = plan

        resumed = self.manifest_path.exists()
        if resumed:
            stored = self._load_manifest()
            if stored.digest() != plan.digest():
                raise QueueError(
                    f"queue {self.root} already holds a different fleet "
                    f"(stored digest {stored.digest()[:12]}, live "
                    f"{plan.digest()[:12]}); reuse the original plan or "
                    f"point --queue-dir at a fresh directory"
                )
        else:
            atomic_write_bytes(
                self.manifest_path,
                json.dumps(plan.to_dict(), sort_keys=True).encode("utf-8"),
            )

        records: Dict[str, JobRecord] = {}
        quarantined = 0
        reclaimed = 0
        for spec in plan.jobs:
            record, was_quarantined = self._load_record(spec.job_id)
            quarantined += was_quarantined
            if record is None:
                record = JobRecord(job_id=spec.job_id, updated_at=now)
                self._write_record(record)
            elif record.state in (LEASED, RUNNING):
                # The holder is provably gone: one orchestrator owns a
                # queue directory at a time, and this process has no
                # lease yet.  The attempt is preserved — lease loss is
                # not a failure.
                record.state = PENDING
                record.lease_owner = None
                record.lease_expires = 0.0
                record.updated_at = now
                self._write_record(record)
                reclaimed += 1
            records[spec.job_id] = record
        return QueueScan(
            resumed=resumed,
            records=records,
            quarantined=quarantined,
            reclaimed=reclaimed,
        )

    def _load_manifest(self) -> FleetPlan:
        try:
            payload = parse_json(self.manifest_path.read_bytes())
        except (OSError, ValueError) as exc:
            raise self._corrupt_manifest(exc) from exc
        found = payload.get("format") if isinstance(payload, dict) else None
        if type(found) is int and found != FLEET_FORMAT:
            raise QueueError(
                f"queue manifest {self.manifest_path} has format {found}; "
                f"this version reads format {FLEET_FORMAT} only — finish "
                f"that fleet with the version that wrote it, or point "
                f"--queue-dir at a fresh directory"
            )
        try:
            return FleetPlan.from_dict(payload)
        except Exception as exc:  # noqa: BLE001 - any corruption
            raise self._corrupt_manifest(exc) from exc

    def _corrupt_manifest(self, exc: Exception) -> QueueError:
        return QueueError(
            f"queue manifest {self.manifest_path} is unreadable "
            f"({type(exc).__name__}: {exc}); the queue directory is "
            f"corrupt — start a fresh one"
        )

    # ------------------------------------------------------------------
    # Records: read, validate, rebuild
    # ------------------------------------------------------------------
    def _load_record(self, job_id: str) -> Tuple[Optional[JobRecord], int]:
        """``(record, quarantined)`` for one job.

        A valid record returns ``(record, 0)``.  A missing file returns
        ``(None, 0)`` — the caller initializes it.  An invalid record is
        quarantined and rebuilt: state and attempt come from the header
        line when it survived, completion from a valid ``DONE.json``,
        and anything unprovable degrades to a pending re-execution —
        recovery re-runs work rather than trusting damaged bytes.
        """
        read, record = self._verified_record(job_id)
        if record is not None or read.verdict == MISSING:
            return record, 0
        # Invalid: quarantine the bytes, rebuild from what provably
        # survived.
        quarantine(self.record_path(job_id), self.quarantine_dir)
        rebuilt = self._rebuild_record(job_id, read.header)
        self._write_record(rebuilt, allow_tear=False)
        return rebuilt, 1

    def _verified_record(
        self, job_id: str
    ) -> Tuple[RecordRead, Optional[JobRecord]]:
        """The read of the job's record file, and the record it holds
        when the file verifies and holds a valid record of this job."""
        read = read_record(self.record_path(job_id), RECORD_FORMAT)
        if not read.ok or read.header.get("job_id") != job_id:
            return read, None
        try:
            record = JobRecord.from_body(parse_json(read.body))
        except (ValueError, KeyError, TypeError):
            return read, None
        if record.job_id != job_id or record.state not in JOB_STATES:
            return read, None
        return read, record

    def _rebuild_record(
        self, job_id: str, header: Optional[dict]
    ) -> JobRecord:
        state = header.get("state") if header else None
        attempt = header.get("attempt") if header else None
        if not isinstance(attempt, int) or attempt < 0:
            attempt = 0
        record = JobRecord(job_id=job_id, attempt=attempt)
        # Only a valid DONE.json proves completion: a done header without
        # one cannot be trusted and falls through to re-execution.
        done = self.read_done_manifest(job_id)
        if done is not None:
            record.state = DONE
            record.attempt = done["attempt"]
        elif state in (FAILED, DEAD_LETTER, SKIPPED, BLOCKED):
            record.state = state
            record.error = "(recovered from torn record)"
        return record

    # ------------------------------------------------------------------
    # Durable writes (with optional injected tears)
    # ------------------------------------------------------------------
    def _write_record(self, record: JobRecord, allow_tear: bool = True) -> None:
        body = json.dumps(dataclasses.asdict(record), sort_keys=True).encode()
        data = encode_record(
            RECORD_FORMAT,
            body,
            job_id=record.job_id,
            state=record.state,
            attempt=record.attempt,
        )
        if allow_tear and self._should_tear(record):
            # The modeled failure: header committed, body half-written.
            data = data[: len(data) - len(body) + max(1, len(body) // 2)]
        atomic_write_bytes(self.record_path(record.job_id), data)

    def _should_tear(self, record: JobRecord) -> bool:
        """Whether this write is the planned tear for its (job, state,
        attempt) — fires once, marker-gated so chaos converges."""
        if self.fault_plan is None or not self.fault_plan.queue_tear_rate:
            return False
        if not self.fault_plan.tears_write(
            record.job_id, record.state, record.attempt
        ):
            return False
        marker = (
            self.chaos_dir
            / f"tear-{record.job_id}-{record.state}-{record.attempt}"
        )
        if marker.exists():
            return False
        atomic_write_bytes(marker, b"torn\n")
        return True

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def lease(self, record: JobRecord, owner: str, now: float) -> None:
        """``pending``/``failed`` → ``leased`` under ``owner``."""
        assert self.plan is not None
        record.state = LEASED
        record.lease_owner = owner
        record.lease_expires = now + self.plan.lease_seconds
        record.updated_at = now
        self._write_record(record)

    def heartbeat(self, record: JobRecord, now: float) -> None:
        """Extend the current lease — the runner is alive."""
        assert self.plan is not None
        record.lease_expires = now + self.plan.lease_seconds
        record.updated_at = now
        self._write_record(record)

    def mark_running(self, record: JobRecord, now: float) -> None:
        record.state = RUNNING
        record.updated_at = now
        self._write_record(record)

    def expire_lease(self, record: JobRecord, now: float) -> None:
        """Lease lost (injected or real): back to pending, same attempt."""
        record.state = PENDING
        record.lease_owner = None
        record.lease_expires = 0.0
        record.expiries_served += 1
        record.updated_at = now
        self._write_record(record)

    def mark_done(self, record: JobRecord, now: float) -> None:
        """``running`` → ``done``; requires :meth:`write_done_manifest`
        to have run first (the write-ahead completion proof)."""
        record.state = DONE
        record.error = None
        record.lease_owner = None
        record.lease_expires = 0.0
        record.updated_at = now
        self._write_record(record)

    def mark_failed(self, record: JobRecord, error: str, now: float) -> None:
        """Record one failure: ``attempt`` increments durably here."""
        record.state = FAILED
        record.attempt += 1
        record.expiries_served = 0
        record.error = error
        record.lease_owner = None
        record.lease_expires = 0.0
        record.updated_at = now
        self._write_record(record)

    def requeue(self, record: JobRecord, now: float) -> None:
        """``failed`` → ``pending`` for the retry attempt."""
        record.state = PENDING
        record.updated_at = now
        self._write_record(record)

    def dead_letter(self, record: JobRecord, now: float) -> None:
        """Quarantine an exhausted job: terminal, never dropped.

        The record flips to ``dead-letter`` in ``jobs/`` (so status and
        dependents see it) and a full copy — error, attempts, spec —
        lands in ``dead-letter/<job>.json`` for the operator.
        """
        record.state = DEAD_LETTER
        record.lease_owner = None
        record.lease_expires = 0.0
        record.updated_at = now
        self._write_record(record)
        payload = {
            "format": RECORD_FORMAT,
            "job_id": record.job_id,
            "attempts": record.attempt,
            "error": record.error,
        }
        atomic_write_bytes(
            self.dead_letter_dir / f"{record.job_id}.json",
            json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
        )

    def mark_degraded(
        self, record: JobRecord, state: str, upstream: str, now: float
    ) -> None:
        """Terminal degradation of a dependent (``skipped``/``blocked``)."""
        record.state = state
        record.error = f"degraded: upstream {upstream} did not complete"
        record.updated_at = now
        self._write_record(record)

    # ------------------------------------------------------------------
    # Artifact manifests
    # ------------------------------------------------------------------
    def write_done_manifest(
        self,
        job_id: str,
        attempt: int,
        artifacts: Dict[str, Path],
        extra: Optional[dict] = None,
    ) -> None:
        """Write ``DONE.json``: the write-ahead completion proof.

        Records each artifact's size and sha256, so a resumed
        orchestrator (or a dependent job) can verify the outputs it is
        about to trust.  Deliberately carries no clock values — artifact
        bytes must be identical across kill/resume.
        """
        manifest: Dict[str, object] = {
            "format": DONE_FORMAT,
            "job_id": job_id,
            "attempt": attempt,
            "artifacts": {
                name: {
                    "bytes": path.stat().st_size,
                    "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                }
                for name, path in sorted(artifacts.items())
            },
        }
        if extra:
            manifest.update(extra)
        atomic_write_bytes(
            self.done_path(job_id),
            json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8"),
        )

    def read_done_manifest(self, job_id: str) -> Optional[dict]:
        """The job's ``DONE.json`` if present, schema-valid, and with
        every listed artifact matching its recorded checksum."""
        try:
            manifest = parse_json(self.done_path(job_id).read_bytes())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != DONE_FORMAT
            or manifest.get("job_id") != job_id
            or not isinstance(manifest.get("attempt"), int)
            or not isinstance(manifest.get("artifacts"), dict)
        ):
            return None
        for name, meta in manifest["artifacts"].items():
            path = self.artifact_dir(job_id) / name
            try:
                raw = path.read_bytes()
            except OSError:
                return None
            if (
                not isinstance(meta, dict)
                or meta.get("bytes") != len(raw)
                or meta.get("sha256")
                != hashlib.sha256(raw).hexdigest()
            ):
                return None
        return manifest

    # ------------------------------------------------------------------
    # Read-only views (status reporting)
    # ------------------------------------------------------------------
    def load_records(self, plan: FleetPlan) -> List[JobRecord]:
        """Current records in plan order, without repairing anything.

        Unreadable records surface as pending placeholders with an
        ``error`` naming the damage — status must never crash on a
        half-written queue.
        """
        records: List[JobRecord] = []
        for spec in plan.jobs:
            read, record = self._verified_record(spec.job_id)
            if record is None:
                damage = "invalid body" if read.ok else read.verdict
                record = JobRecord(
                    job_id=spec.job_id,
                    state=PENDING,
                    error=f"unreadable record ({damage})",
                )
            records.append(record)
        return records


def status_lines(queue_dir: Union[str, Path]) -> List[str]:
    """Human-readable queue status, one line per job plus a summary.

    Read-only and damage-tolerant: never repairs, never crashes on a
    half-written queue.

    Raises:
        QueueError: ``queue_dir`` has no readable queue manifest.
    """
    queue = JobQueue(queue_dir)
    if not queue.manifest_path.exists():
        raise QueueError(
            f"{queue.manifest_path} not found: not an orchestrator "
            f"queue directory"
        )
    plan = queue._load_manifest()
    records = queue.load_records(plan)
    if plan.is_sweep:
        lines = [
            f"sweep {plan.digest()[:12]}: "
            f"{len(plan.sweep_points)} point(s) x "
            f"{plan.weeks_per_tick} week(s), population "
            f"{plan.population}, seed {plan.seed}, policy "
            f"{plan.degrade_policy}"
        ]
        for index, point in enumerate(plan.sweep_points):
            lines.append(f"  point {index:03d}: {point.describe()}")
    else:
        lines = [
            f"fleet {plan.digest()[:12]}: {plan.ticks} tick(s) x "
            f"{len(plan.jobs) // plan.ticks} jobs, population "
            f"{plan.population}, seed {plan.seed}, policy "
            f"{plan.degrade_policy}"
        ]
    for record in records:
        detail = f"attempts={record.attempt}"
        if record.state == PENDING and record.lease_owner:
            detail += f" lease={record.lease_owner}"
        if record.error:
            detail += f" error={record.error}"
        lines.append(f"  {record.job_id:<14} {record.state:<12} {detail}")
    states: Dict[str, int] = {}
    for record in records:
        states[record.state] = states.get(record.state, 0) + 1
    summary = ", ".join(
        f"{count} {state}" for state, count in sorted(states.items())
    )
    lines.append(f"total: {len(records)} jobs ({summary})")
    dead = sorted(queue.dead_letter_dir.glob("*.json"))
    if dead:
        lines.append(
            "dead-letter: " + ", ".join(path.stem for path in dead)
        )
    return lines
