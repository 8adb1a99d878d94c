"""Execution runtime: shard planning, pluggable backends, chaos, dispatch.

The crawl pipeline scales by partitioning the ``weeks × domains`` space
into balanced, non-overlapping shards (:mod:`.sharding`), executing each
shard as a self-contained task (:mod:`.worker`) on a serial or process
backend (:mod:`.backends`), and merging the partial observation stores
exactly (:meth:`~repro.crawler.ObservationStore.merge`).  Shard plans are
uniform by default; :class:`CostModel` turns a previous run's canonical
metrics into a weighted plan (``--plan-from``) that balances estimated
cost instead of cell count.

Robustness lives in two layers added on top:

* :mod:`.faults` — a seeded :class:`FaultPlan` injects worker crashes,
  shard timeouts, and transport surges at backend-independent points,
  deterministically per (seed, plan);
* :mod:`.dispatch` — shard failures are isolated, retried with bounded
  exponential backoff on a simulated clock, and finally *dropped with
  accounting* instead of aborting the run;
* :mod:`.ledger` — whole-process death is survivable: a
  :class:`RunLedger` keeps a versioned run manifest plus a per-shard
  write-ahead journal (checksummed, fsync'd, atomically renamed), so a
  killed run resumes by replaying completed shards and re-executing only
  the missing ones, byte-identically to an uninterrupted run.

Determinism guarantee: for a given scenario seed, every backend and
every worker count produce bit-identical aggregates — parallelism is an
execution detail, never an observable one.  With a fault plan active the
same holds for the degraded result: identical drop sets, retry counts,
and stores per (seed, plan).

The names below load on first use (:mod:`repro._lazy`), so importing
:mod:`.faults` alone (as :mod:`repro.options` does) loads neither the
worker nor the generator it builds ecosystems with.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".backends": "ExecutionBackend ProcessBackend SerialBackend "
        "describe_backend get_backend",
        ".dispatch": "BACKOFF_BASE BACKOFF_CAP DispatchResult ShardFailure "
        "SimulatedClock backoff_delay dispatch_shards",
        ".faults": "FaultPlan",
        ".ledger": "JournalingRunner LedgerScan RunLedger RunManifest",
        ".sharding": "CostModel Shard plan_shards",
        ".worker": "ShardTask execute_shard execute_shard_safely "
        "shard_coverage_key",
    },
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "describe_backend",
    "get_backend",
    "Shard",
    "CostModel",
    "plan_shards",
    "ShardTask",
    "execute_shard",
    "execute_shard_safely",
    "shard_coverage_key",
    "FaultPlan",
    "RunLedger",
    "RunManifest",
    "LedgerScan",
    "JournalingRunner",
    "SimulatedClock",
    "DispatchResult",
    "ShardFailure",
    "dispatch_shards",
    "backoff_delay",
    "BACKOFF_BASE",
    "BACKOFF_CAP",
]
