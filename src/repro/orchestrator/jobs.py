"""Fleet plans: the jobs, DAG edges, and identity of a multi-run fleet.

A :class:`FleetPlan` is to the orchestrator what the run manifest is to
a single durable run (PR 4): a complete, digestable description of what
the fleet *is* — every job, every dependency edge, the scenario
parameters the jobs derive from, and the chaos schedule.  The queue
directory stores the plan verbatim in ``queue.json``; re-opening the
queue with a different plan is refused, never merged.

The beat-style shape: each *tick* of the fleet grows the store to a
longer week window (weeks ``[0, (tick+1) * weeks_per_tick)``) and
chains the paper's pipeline behind it::

    crawl-000 ──▶ analyses-000 ──▶ report-000 ──▶ serve-000
       ┆ (base store, profiles)
    crawl-001 ──▶ analyses-001 ──▶ report-001 ──▶ serve-001
       ┆
    crawl-002 ──▶ ...

A tick's crawl crawls each week once: it extends the freshest earlier
crawl's store (its *base*) with the weeks after it, so ``crawl-001``
crawls only weeks ``[w, 2w)`` and writes the store one crawl of
``[0, 2w)`` would write.

Edges come in two strengths.  A **hard** dependency gates execution:
``analyses-001`` consumes ``crawl-001``'s store artifact and degrades
per the fleet's policy when that crawl dead-letters.  A **soft**
dependency only orders execution: ``crawl-001`` extends ``crawl-000``'s
store and reads its profile generation when they exist, but runs fine
— just longer, from week 0 or from an older base — when they do not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..config import check_seed
from ..errors import ConfigError
from ..options import EXECUTION_BACKENDS
from ..sweep.spec import SweepPoint

#: Version of the queue-manifest (``queue.json``) schema.  Format 2
#: crawls extend their predecessor's store; a format-1 queue, whose
#: crawls each re-crawled from week 0, is refused when opened (its
#: crawl checkpoints name other weeks).
FLEET_FORMAT = 2

#: Job kinds, in per-tick chain order.
CRAWL = "crawl"
ANALYSES = "analyses"
REPORT = "report"
SERVE = "serve"

#: Sweep job kinds: one crawl+analyses chain per grid point, one fold.
SWEEP_CRAWL = "sweep-crawl"
SWEEP_ANALYSES = "sweep-analyses"
SWEEP_FOLD = "sweep-fold"

JOB_KINDS = (
    CRAWL,
    ANALYSES,
    REPORT,
    SERVE,
    SWEEP_CRAWL,
    SWEEP_ANALYSES,
    SWEEP_FOLD,
)

#: What a failed hard dependency does to its dependents.
DEGRADE_POLICIES = ("skip", "block", "run-stale")


def job_id(kind: str, tick: int) -> str:
    return f"{kind}-{tick:03d}"


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One node of the fleet DAG.

    Attributes:
        job_id: Stable identity (``"<kind>-<tick>"``), also the fault
            draw key and the record filename stem.
        kind: One of :data:`JOB_KINDS`.
        tick: Which beat of the recurring schedule this job belongs to.
        hard_deps: Jobs whose *artifacts* this job consumes; a degraded
            hard dependency degrades this job per the fleet policy.
        soft_deps: Jobs that merely order this one (the crawl it may
            extend, and profile-generation warmth); they never degrade
            it.
    """

    job_id: str
    kind: str
    tick: int
    hard_deps: Tuple[str, ...] = ()
    soft_deps: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "tick": self.tick,
            "hard_deps": list(self.hard_deps),
            "soft_deps": list(self.soft_deps),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Read a spec back from ``queue.json``, an untrusted document.

        Raises:
            ConfigError: A field has the wrong type, or the kind is
                unknown.
        """
        job, kind, tick = payload["job_id"], payload["kind"], payload["tick"]
        deps = (payload["hard_deps"], payload["soft_deps"])
        if not isinstance(job, str):
            raise ConfigError(f"job_id must be a string, got {job!r}")
        if kind not in JOB_KINDS:
            raise ConfigError(f"job {job!r} has unknown kind {kind!r}")
        if type(tick) is not int:
            raise ConfigError(f"job {job!r} has a non-integer tick {tick!r}")
        for names in deps:
            if not isinstance(names, list) or not all(
                isinstance(name, str) for name in names
            ):
                raise ConfigError(
                    f"job {job!r} has dependencies that are not a list of "
                    f"job ids: {names!r}"
                )
        return cls(job, kind, tick, tuple(deps[0]), tuple(deps[1]))


@dataclasses.dataclass(frozen=True)
class FleetPlan:
    """Everything the orchestrator needs to (re)run one fleet.

    The plan is pure data — job specs plus scenario and policy scalars —
    so its canonical JSON digest pins the fleet's identity across
    processes exactly as the run manifest pins a single run's.
    """

    population: int
    seed: int
    ticks: int
    weeks_per_tick: int
    mode: str = "manifest"
    degrade_policy: str = "skip"
    max_job_retries: int = 2
    lease_seconds: float = 60.0
    backend: Optional[str] = None
    workers: Optional[int] = None
    #: ``FaultPlan.describe()`` spelling of the chaos schedule (``""``
    #: for a fault-free fleet); stored as the spec string so the digest
    #: covers it and a resume reconstructs the identical plan.
    fault_spec: str = ""
    jobs: Tuple[JobSpec, ...] = ()
    #: Non-empty for sweep fleets: one grid point per tick.  Pure data
    #: (pack name + raw params), so the plan digest pins the entire
    #: grid and a queue opened with a different grid is refused.
    sweep_points: Tuple[SweepPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigError(f"population must be >= 1, got {self.population}")
        check_seed(self.seed)
        if self.mode not in ("manifest", "full"):
            raise ConfigError(
                f"unknown crawl mode {self.mode!r}; expected manifest or full"
            )
        if self.ticks < 1:
            raise ConfigError(f"ticks must be >= 1, got {self.ticks}")
        if self.sweep_points and len(self.sweep_points) != self.ticks:
            raise ConfigError(
                f"sweep plans need one tick per grid point: "
                f"{len(self.sweep_points)} point(s) vs {self.ticks} tick(s)"
            )
        if self.weeks_per_tick < 1:
            raise ConfigError(
                f"weeks_per_tick must be >= 1, got {self.weeks_per_tick}"
            )
        if self.degrade_policy not in DEGRADE_POLICIES:
            raise ConfigError(
                f"unknown degrade policy {self.degrade_policy!r}; expected "
                f"one of {', '.join(DEGRADE_POLICIES)}"
            )
        if self.max_job_retries < 0:
            raise ConfigError("max_job_retries must be >= 0")
        if self.lease_seconds <= 0:
            raise ConfigError("lease_seconds must be > 0")
        if self.backend is not None and self.backend not in EXECUTION_BACKENDS:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {', '.join(EXECUTION_BACKENDS)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        population: int,
        seed: int,
        ticks: int,
        weeks_per_tick: int,
        *,
        mode: str = "manifest",
        degrade_policy: str = "skip",
        max_job_retries: int = 2,
        lease_seconds: float = 60.0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        fault_spec: str = "",
    ) -> "FleetPlan":
        """Lay out the per-tick chain DAG for ``ticks`` beats."""
        jobs: List[JobSpec] = []
        for tick in range(ticks):
            crawl = job_id(CRAWL, tick)
            analyses = job_id(ANALYSES, tick)
            report = job_id(REPORT, tick)
            serve = job_id(SERVE, tick)
            jobs.append(
                JobSpec(
                    crawl,
                    CRAWL,
                    tick,
                    soft_deps=(
                        (job_id(CRAWL, tick - 1),) if tick > 0 else ()
                    ),
                )
            )
            jobs.append(JobSpec(analyses, ANALYSES, tick, hard_deps=(crawl,)))
            jobs.append(JobSpec(report, REPORT, tick, hard_deps=(analyses,)))
            jobs.append(
                JobSpec(serve, SERVE, tick, hard_deps=(crawl, report))
            )
        return cls(
            population=population,
            seed=seed,
            ticks=ticks,
            weeks_per_tick=weeks_per_tick,
            mode=mode,
            degrade_policy=degrade_policy,
            max_job_retries=max_job_retries,
            lease_seconds=lease_seconds,
            backend=backend,
            workers=workers,
            fault_spec=fault_spec,
            jobs=tuple(jobs),
        )

    @classmethod
    def build_sweep(
        cls,
        points: Tuple[SweepPoint, ...],
        population: int,
        seed: int,
        weeks: int,
        *,
        mode: str = "manifest",
        degrade_policy: str = "skip",
        max_job_retries: int = 2,
        lease_seconds: float = 60.0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        fault_spec: str = "",
    ) -> "FleetPlan":
        """Lay out a sweep: one crawl+analyses chain per grid point.

        Every point crawls the *same* ``weeks``-week window under its
        own pack-transformed scenario (tick = grid index), then a
        single ``sweep-fold`` job compares them::

            sweep-crawl-000 ──▶ sweep-analyses-000 ──┐
            sweep-crawl-001 ──▶ sweep-analyses-001 ──┼──▶ sweep-fold-000
            sweep-crawl-002 ──▶ sweep-analyses-002 ──┘

        Unlike beat ticks, sweep crawls share nothing: each point is a
        different dataset, so there are no cross-point profile
        generations (no soft deps between crawls).  The fold's inputs
        are *soft*: a dead-lettered point never blocks the comparison —
        the fold runs over whatever completed and records the holes.
        """
        points = tuple(points)
        if not points:
            raise ConfigError("a sweep plan needs at least one grid point")
        jobs: List[JobSpec] = []
        for tick in range(len(points)):
            crawl = job_id(SWEEP_CRAWL, tick)
            analyses = job_id(SWEEP_ANALYSES, tick)
            jobs.append(JobSpec(crawl, SWEEP_CRAWL, tick))
            jobs.append(
                JobSpec(analyses, SWEEP_ANALYSES, tick, hard_deps=(crawl,))
            )
        jobs.append(
            JobSpec(
                job_id(SWEEP_FOLD, 0),
                SWEEP_FOLD,
                0,
                soft_deps=tuple(
                    job_id(SWEEP_ANALYSES, tick)
                    for tick in range(len(points))
                ),
            )
        )
        return cls(
            population=population,
            seed=seed,
            ticks=len(points),
            weeks_per_tick=weeks,
            mode=mode,
            degrade_policy=degrade_policy,
            max_job_retries=max_job_retries,
            lease_seconds=lease_seconds,
            backend=backend,
            workers=workers,
            fault_spec=fault_spec,
            jobs=tuple(jobs),
            sweep_points=points,
        )

    # ------------------------------------------------------------------
    def job(self, job_id_: str) -> JobSpec:
        for spec in self.jobs:
            if spec.job_id == job_id_:
                return spec
        raise KeyError(job_id_)

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_points)

    def sweep_point(self, tick: int) -> SweepPoint:
        if not self.sweep_points:
            raise ConfigError("not a sweep plan: no grid points")
        return self.sweep_points[tick]

    def week_count(self, tick: int) -> int:
        """Weeks the tick's store covers, from week 0.

        Beat fleets grow the window per tick (a tick's crawl job crawls
        only the weeks after its base's); sweep fleets crawl the same
        fixed window at every grid point (the *scenario* varies, not
        the observation span).
        """
        if self.sweep_points:
            return self.weeks_per_tick
        return (tick + 1) * self.weeks_per_tick

    def by_id(self) -> Dict[str, JobSpec]:
        return {spec.job_id: spec for spec in self.jobs}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "format": FLEET_FORMAT,
            "population": self.population,
            "seed": self.seed,
            "ticks": self.ticks,
            "weeks_per_tick": self.weeks_per_tick,
            "mode": self.mode,
            "degrade_policy": self.degrade_policy,
            "max_job_retries": self.max_job_retries,
            "lease_seconds": self.lease_seconds,
            "backend": self.backend,
            "workers": self.workers,
            "fault_spec": self.fault_spec,
            "jobs": [spec.to_dict() for spec in self.jobs],
        }
        # Emitted only for sweep plans: a beat fleet's manifest keeps
        # the pre-sweep schema.
        if self.sweep_points:
            payload["sweep_points"] = [
                point.to_dict() for point in self.sweep_points
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetPlan":
        if payload.get("format") != FLEET_FORMAT:
            raise ConfigError(
                f"queue manifest format {payload.get('format')!r} is not "
                f"the supported format {FLEET_FORMAT}"
            )
        return cls(
            population=payload["population"],
            seed=payload["seed"],
            ticks=payload["ticks"],
            weeks_per_tick=payload["weeks_per_tick"],
            mode=payload["mode"],
            degrade_policy=payload["degrade_policy"],
            max_job_retries=payload["max_job_retries"],
            lease_seconds=payload["lease_seconds"],
            backend=payload["backend"],
            workers=payload["workers"],
            fault_spec=payload["fault_spec"],
            jobs=tuple(JobSpec.from_dict(j) for j in payload["jobs"]),
            sweep_points=tuple(
                SweepPoint.from_dict(p)
                for p in payload.get("sweep_points", [])
            ),
        )

    def digest(self) -> str:
        """sha256 over the canonical JSON — the fleet's identity."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
