"""Durable multi-run orchestrator: leased job queue + crash-safe DAGs.

Layers (each a module):

* :mod:`~repro.orchestrator.jobs` — :class:`FleetPlan`: the jobs, DAG
  edges, and digestable identity of a fleet.
* :mod:`~repro.orchestrator.queue` — :class:`JobQueue`: the durable
  leased queue directory (write-ahead records, quarantine, dead-letter),
  and :func:`status_lines`, its read-only status view.
* :mod:`~repro.orchestrator.runner` — :class:`JobRunner`: what each job
  kind executes (crawl / analyses / report / serve-refresh).
* :mod:`~repro.orchestrator.fleet` — :class:`Orchestrator`: the
  scheduling loop, degradation policies, canonical fleet metrics.

Quick start::

    from repro.orchestrator import FleetPlan, Orchestrator

    plan = FleetPlan.build(population=60, seed=7, ticks=3, weeks_per_tick=2)
    records = Orchestrator("queue-dir", plan).run()

The names below load on first use (:mod:`repro._lazy`).  The plan, the
queue and its status view load no crawl engine, so ``repro orchestrate
status`` and ``repro sweep status|report`` load neither numpy nor the
generator; :class:`Orchestrator` loads the engine when it is imported,
through :mod:`.runner`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".fleet": "Orchestrator fleet_metrics",
        ".jobs": "DEGRADE_POLICIES JOB_KINDS SWEEP_ANALYSES SWEEP_CRAWL "
        "SWEEP_FOLD FleetPlan JobSpec job_id",
        ".queue": "DEAD_LETTER DEGRADED_STATES DONE PENDING TERMINAL_STATES "
        "JobQueue JobRecord QueueScan status_lines",
        ".runner": "JobResult JobRunner",
    },
)

__all__ = [
    "DEAD_LETTER",
    "DEGRADE_POLICIES",
    "DEGRADED_STATES",
    "DONE",
    "FleetPlan",
    "JOB_KINDS",
    "JobQueue",
    "JobRecord",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "Orchestrator",
    "PENDING",
    "QueueScan",
    "SWEEP_ANALYSES",
    "SWEEP_CRAWL",
    "SWEEP_FOLD",
    "TERMINAL_STATES",
    "fleet_metrics",
    "job_id",
    "status_lines",
]
