"""The shard worker: self-contained execution of one crawl shard.

A :class:`ShardTask` carries everything a worker needs to rebuild its
slice of the crawl from scratch — the scenario config (ecosystems are
deterministic functions of it), the run options (caches, metrics,
faults), the crawl mode, the shard's week ordinals and domain names,
and the vulnerability database.  That makes the task picklable, so the
same :func:`execute_shard` function serves the serial and process
backends unchanged, and every crawl runs through it: a one-shard
serial run is one in-process call.

The shard's store travels back in the cheapest form its trip allows,
chosen by the task's ``backend_name``.  A shard run in a pool process
returns the persistence layer's binary store codec
(:func:`~repro.crawler.persistence.store_to_bytes`): pickling one
``bytes`` object across the process boundary is far cheaper than the
store's object graph.  A shard run in the dispatching process hands
over its live :class:`~repro.crawler.ObservationStore`, so it is
neither encoded nor decoded; the run ledger encodes it only to
journal it.  The dispatching crawler folds either form with
:meth:`~repro.crawler.ObservationStore.merge`.

Each interpreter keeps a small cache of ecosystems keyed by
:func:`~repro.config.scenario_digest` and the library calibration
table: every shard of one dataset reuses one ecosystem, across the studies, run options and fleet ticks
that crawl it, since the shard's crawler reads its run options from the
task, never from the ecosystem.  A miss builds the domain population
and wires the hosts, about 20 ms for 1,000 domains; the site states,
once the expensive part, come from :mod:`repro.webgen.ecosystem`'s
per-process site-state cache.  Shards within an interpreter run one at
a time (the serial backend loops, each pool process takes one task at
a time), so a cached ecosystem — whose ``set_week`` mutates the
virtual network — is never used by two shards at once.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import Dict, Optional, Tuple

from ..config import ScenarioConfig, scenario_digest
from ..errors import InjectedFault, InjectedShardTimeout, InjectedWorkerCrash
from ..obs import Instruments
from ..options import RunOptions
from ..webgen import WebEcosystem
from .faults import CRASH, TIMEOUT


def shard_coverage_key(
    week_ordinals: Tuple[int, ...], domain_names: Tuple[str, ...]
) -> str:
    """Backend-independent coordinate for a shard's grid coverage.

    Depends only on what the shard *covers* — never on attempt, backend,
    or dispatch order — so fault draws and journal-entry validation see
    the same key wherever and whenever the shard runs.
    """
    if not week_ordinals or not domain_names:
        return "empty"
    return (
        f"weeks:{week_ordinals[0]}-{week_ordinals[-1]}"
        f"|domains:{domain_names[0]}..{domain_names[-1]}"
        f"|n={len(domain_names)}"
    )


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One shard, described portably enough to cross a process boundary.

    Attributes:
        config: Scenario the shard belongs to (rebuilds the ecosystem).
        mode: ``"full"`` or ``"manifest"``.
        week_ordinals: Calendar ordinals of the shard's (contiguous)
            target weeks.
        domain_names: Names of the shard's retained domains.
        database: Vulnerability database; ``None`` means the default.
        shard_index: Position in the dispatch plan (fold order).
        attempt: Zero-based retry attempt this task represents.
        backend_name: Backend executing the task.  It names the backend
            in diagnostics, and picks the form of the payload's store:
            codec bytes for ``"process"``, the live store otherwise.
        options: The run's options.  The shard's crawler reads its
            profile cache and store and its fault plan from them.
    """

    config: ScenarioConfig
    mode: str
    week_ordinals: Tuple[int, ...]
    domain_names: Tuple[str, ...]
    database: Optional[object] = None
    shard_index: int = 0
    attempt: int = 0
    backend_name: str = "serial"
    options: RunOptions = dataclasses.field(default_factory=RunOptions)

    # ------------------------------------------------------------------
    def shard_key(self) -> str:
        """Backend-independent coordinate for fault draws and journaling.

        See :func:`shard_coverage_key`: a plan's verdict for this shard
        is identical wherever and whenever it runs.
        """
        return shard_coverage_key(self.week_ordinals, self.domain_names)

    def describe(self) -> str:
        """Human-readable shard identity for logs and wrapped errors."""
        if not self.week_ordinals or not self.domain_names:
            return f"shard {self.shard_index} [empty, backend {self.backend_name}]"
        weeks = (
            f"week {self.week_ordinals[0]}"
            if len(self.week_ordinals) == 1
            else f"weeks {self.week_ordinals[0]}-{self.week_ordinals[-1]}"
        )
        domains = (
            f"domain {self.domain_names[0]}"
            if len(self.domain_names) == 1
            else (
                f"domains {self.domain_names[0]}..{self.domain_names[-1]} "
                f"({len(self.domain_names)})"
            )
        )
        return (
            f"shard {self.shard_index} [{weeks}, {domains}, "
            f"backend {self.backend_name}]"
        )


#: (scenario digest, library calibration) -> ecosystem; bounded LRU per
#: interpreter.
_ECOSYSTEM_CACHE: "collections.OrderedDict[tuple, WebEcosystem]" = (
    collections.OrderedDict()
)
_ECOSYSTEM_CACHE_MAX = 8


def _ecosystem_for(config: ScenarioConfig) -> WebEcosystem:
    """A cached ecosystem for ``config``'s dataset.

    Keyed as the generator keys its dataset cache: the calibration
    table is looked up at call time, so a table patched in process (as
    the ablation benchmarks patch it) crawls its own sites.
    """
    from ..webgen.libraries import library_profiles

    key = (scenario_digest(config), tuple(sorted(library_profiles().items())))
    cached = _ECOSYSTEM_CACHE.get(key)
    if cached is not None:
        _ECOSYSTEM_CACHE.move_to_end(key)
        return cached
    ecosystem = WebEcosystem(config)
    _ECOSYSTEM_CACHE[key] = ecosystem
    while len(_ECOSYSTEM_CACHE) > _ECOSYSTEM_CACHE_MAX:
        _ECOSYSTEM_CACHE.popitem(last=False)
    return ecosystem


def _shard_outcome_fields(instruments: Instruments, cells: int) -> dict:
    """The outcome facts a completed shard's span event carries.

    Integer facts only: the canonical ``planner`` section prices each
    shard from them (``cells``/``pages``/``failures``/``cache_misses``/
    ``scripts`` are the terms of :func:`~repro.obs.shard_cost_units`),
    so they must be exactly deterministic — wall time travels
    separately as the event's non-canonical ``duration_us``.
    """
    scripts = instruments.histograms.get("page.scripts")
    return {
        "pages": instruments.counter("crawl.pages"),
        "failures": instruments.counter("crawl.fetch_failures"),
        "cache_hits": instruments.counter("cache.hits"),
        "cache_misses": instruments.counter("cache.misses"),
        "cells": int(cells),
        "scripts": scripts.total if scripts is not None else 0,
    }


def execute_shard(task: ShardTask) -> Dict[str, object]:
    """Crawl one shard into a fresh store and return its payload.

    Returns:
        ``{"ok": True, "store": <store>,
        "metrics": <Instruments.to_payload dict>}``, where the store is
        :func:`~repro.crawler.persistence.store_to_bytes` bytes on the
        process backend and the live store otherwise.  The metrics are
        captured here, in-worker, alongside the shard's store — they
        ride the same payload through the journal and the dispatch
        fold, which is what makes the folded telemetry identical for
        live, retried, and replayed shards.  They are the one home of
        the shard's counters (``crawl.pages``, ``crawl.fetch_failures``,
        ``cache.hits``, ``cache.misses``).

    Raises:
        InjectedWorkerCrash: The task's fault plan scheduled a crash for
            this (shard, attempt).
        InjectedShardTimeout: The plan scheduled a timeout.
    """
    # Imported here (not at module top) to keep crawler <-> runtime
    # imports acyclic.
    from ..crawler.crawl import Crawler
    from ..crawler.persistence import store_to_bytes
    from ..crawler.store import ObservationStore
    from ..vulndb import VersionMatcher, default_database

    started = time.perf_counter_ns()
    plan = task.options.resilience.fault_plan
    if plan is not None:
        # Planned faults fire at the shard boundary, before any network
        # activity — the one point every backend passes through
        # identically, which keeps retries idempotent by construction.
        fault = plan.shard_fault(task.shard_key(), task.attempt)
        if fault == CRASH:
            raise InjectedWorkerCrash(
                f"injected worker crash in {task.describe()} "
                f"(attempt {task.attempt + 1})"
            )
        if fault == TIMEOUT:
            raise InjectedShardTimeout(
                f"injected shard timeout in {task.describe()} "
                f"(attempt {task.attempt + 1})"
            )

    ecosystem = _ecosystem_for(task.config)
    # Cached ecosystems are reused across shards (and fault plans), so
    # surge state is (re)installed per task rather than per ecosystem.
    ecosystem.network.failures.surge = (
        plan.surge_conditions() if plan is not None else {}
    )
    # Per-(host, clock) request counters are disjoint across shards, so
    # clearing them is invisible to fault-free runs — but it guarantees a
    # retried shard replays the exact failure schedule its first attempt
    # saw, even if that attempt died mid-crawl.
    ecosystem.network.reset_ordinals()
    database = task.database if task.database is not None else default_database()
    store = ObservationStore(task.config.calendar, VersionMatcher(database))
    crawler = Crawler(
        ecosystem,
        store=store,
        mode=task.mode,
        apply_filter=False,
        options=task.options,
    )
    calendar = task.config.calendar
    weeks = [calendar.week_at(ordinal) for ordinal in task.week_ordinals]
    domains = []
    for name in task.domain_names:
        domain = ecosystem.population.by_name(name)
        if domain is None:  # pragma: no cover - planner/task mismatch
            raise RuntimeError(f"shard references unknown domain {name!r}")
        domains.append(domain)
    instruments = crawler.crawl_block(weeks, domains)
    # The span event records which attempt finally completed the shard:
    # the dispatcher derives canonical retry/backoff totals from it, so
    # a replayed shard reports the attempts it originally cost.  The
    # integer fields feed the canonical cost profile; the wall duration
    # rides along as a diagnostic (benchmark spread), never canonical.
    instruments.event(
        "shard",
        status="ok",
        shard_index=task.shard_index,
        shard_key=task.shard_key(),
        attempt=task.attempt,
        fields=_shard_outcome_fields(
            instruments, len(task.week_ordinals) * len(task.domain_names)
        ),
        backend=task.backend_name,
        duration_us=(time.perf_counter_ns() - started) // 1000,
    )
    instruments.inc("shards.completed")
    return {
        "ok": True,
        "store": (
            store_to_bytes(store) if task.backend_name == "process" else store
        ),
        "metrics": instruments.to_payload(),
    }


def execute_shard_safely(task: ShardTask) -> Dict[str, object]:
    """:func:`execute_shard`, with failures captured instead of raised.

    Worker exceptions — injected or real — are encoded into the returned
    payload so they survive the pickle boundary of the process backend
    and so one bad shard can never abort its siblings mid-flight.  The
    dispatcher decides what a failure means (retry, drop, or raise a
    wrapped :class:`~repro.errors.ShardExecutionError`).
    """
    try:
        return execute_shard(task)
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "injected": isinstance(exc, InjectedFault),
            "shard": task.describe(),
        }
