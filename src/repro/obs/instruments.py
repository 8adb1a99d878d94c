"""Deterministic instruments: counters, histograms, span events, timers.

The paper's measurement ran for 201 weeks over a million domains; at
that scale the crawl's *health* — fetch outcomes, fingerprint and cache
hit rates, retry pressure, dropped coverage — must be auditable from the
run's artifacts, not from scrollback.  An :class:`Instruments` object is
the unit of that telemetry, designed around the same contract as
:class:`~repro.crawler.ObservationStore`:

* it is **picklable** and cheap, so every shard worker fills one and
  ships it home inside the shard payload (and into the write-ahead
  journal, for durable runs);
* its :meth:`~Instruments.merge` is **exact and associative** over the
  integer domain — counters add, histogram buckets add, span events
  union — so folding per-shard instruments yields the identical object
  on every backend, worker count, and kill/resume schedule;
* everything **non-deterministic** (wall-clock phase timers, backend
  names, replay/quarantine accounting of *this* process) lives in a
  separate ``process`` section that is excluded from the canonical
  export and from equality.

Determinism tiers (enforced by ``tests/test_invariants.py``):

========== ============================================================
 tier       invariant under
========== ============================================================
 dataset    backend, workers, shard size, profile cache (fault-free)
 execution  backend and kill/resume, for a fixed (shard plan, cache)
 process    nothing — diagnostics for the run that just happened
========== ============================================================

Values are integers throughout (durations are microseconds); integer
addition is exact and associative, which is what makes the canonical
export byte-stable.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import json
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigError

#: Version of the canonical metrics document layout.  Format 2 adds
#: the ``planner`` section — the plan that ran, with each shard's
#: estimated cost and the plan's imbalance — and the ``cells`` /
#: ``scripts`` facts on shard span events that the costs are derived
#: from.
METRICS_FORMAT = 2

#: Integer weights of the shard cost model (fixed constants of the
#: format, not tunables): a shard's estimated cost is
#: ``cells + 4*pages + 2*failures + 16*cache_misses + 2*scripts``.
#: The weights rank the work a cell can trigger — a reachability check
#: alone is the floor, a collected page costs a manifest walk, a fetch
#: failure costs the retry draws, a cache miss costs a full profile
#: build (the dominant term), and every script adds detection work.
#: Integer weights over span-event facts keep the profile exactly
#: deterministic, unlike wall timings, which live in the process tier.
COST_PER_CELL = 1
COST_PER_PAGE = 4
COST_PER_FAILURE = 2
COST_PER_CACHE_MISS = 16
COST_PER_SCRIPT = 2


def shard_cost_units(
    cells: int,
    pages: int = 0,
    failures: int = 0,
    cache_misses: int = 0,
    scripts: int = 0,
) -> int:
    """Deterministic cost estimate of one shard, in integer cost units."""
    return (
        COST_PER_CELL * int(cells)
        + COST_PER_PAGE * int(pages)
        + COST_PER_FAILURE * int(failures)
        + COST_PER_CACHE_MISS * int(cache_misses)
        + COST_PER_SCRIPT * int(scripts)
    )

#: Fixed bucket edges (inclusive upper bounds; one overflow bucket).
PAGES_PER_SHARD_EDGES: Tuple[int, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000,
)
SCRIPTS_PER_PAGE_EDGES: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30)
LIBRARIES_PER_PAGE_EDGES: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 8, 10)
ATTEMPTS_EDGES: Tuple[int, ...] = (1, 2, 3, 4, 5)

#: Histogram names surfaced in the ``dataset`` tier of the canonical
#: export: per-page observations recorded at ingest time, so they are
#: invariant under every execution knob (backend, workers, shard size,
#: profile cache) for a fault-free run.
DATASET_HISTOGRAMS: Tuple[str, ...] = ("page.scripts", "page.libraries")

#: Counter names mirrored into the ``dataset`` section of the export.
DATASET_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("pages_collected", "crawl.pages"),
    ("fetch_failures", "crawl.fetch_failures"),
    ("dropped_cells", "dispatch.dropped_cells"),
)


class Histogram:
    """Fixed-bucket integer histogram with an exact, associative merge.

    Bucket ``i`` counts observations ``<= edges[i]`` (and greater than
    ``edges[i-1]``); one final overflow bucket counts the rest.  Edges
    are fixed at construction, so two histograms of the same name always
    agree bucket-for-bucket and merging is plain integer addition.
    """

    __slots__ = ("edges", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, edges: Tuple[int, ...]) -> None:
        if not edges or tuple(sorted(edges)) != tuple(edges):
            raise ConfigError(f"histogram edges must be sorted, got {edges!r}")
        self.edges: Tuple[int, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0
        self.vmin: Optional[int] = None
        self.vmax: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        # The first bucket whose edge holds the value.
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def merge(self, other: "Histogram") -> None:
        if self.edges != other.edges:
            raise ConfigError(
                f"cannot merge histograms with different edges: "
                f"{self.edges!r} vs {other.edges!r}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.vmin is not None:
            self.vmin = other.vmin if self.vmin is None else min(self.vmin, other.vmin)
        if other.vmax is not None:
            self.vmax = other.vmax if self.vmax is None else max(self.vmax, other.vmax)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket holding the ``q``-quantile.

        Bucketed percentiles are conservative (they round up to the
        bucket edge; the overflow bucket reports the observed max),
        which is what a latency SLO wants.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.counts):
            running += bucket
            if running >= target:
                if index < len(self.edges):
                    return self.edges[index]
                break
        return self.vmax if self.vmax is not None else 0

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Histogram":
        hist = cls(tuple(payload["edges"]))
        counts = list(payload["counts"])
        if len(counts) != len(hist.counts):
            raise ConfigError("histogram payload counts do not match edges")
        hist.counts = [int(n) for n in counts]
        hist.count = int(payload["count"])
        hist.total = int(payload["total"])
        hist.vmin = payload.get("min")
        hist.vmax = payload.get("max")
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.vmin == other.vmin
            and self.vmax == other.vmax
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total})"


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """One shard-attempt outcome, explainable from the run's artifacts.

    Attributes:
        name: Event family (currently always ``"shard"``).
        status: ``"ok"`` for a completed execution, ``"dropped"`` for a
            shard that exhausted its retries.
        shard_index: Position in the shard plan.
        shard_key: Backend-independent coverage key
            (:func:`~repro.runtime.worker.shard_coverage_key`).
        attempt: Zero-based final attempt — ``attempt + 1`` is how many
            times the shard ran before this outcome.
        fields: Sorted ``(key, value)`` pairs of outcome facts (pages,
            failures, cache hits, covered cells, script count, error
            kind...).
        backend: Backend the attempt ran on.  Diagnostic only: excluded
            from equality and from the canonical export, because the
            same run on another backend must stay byte-identical.
        duration_us: Wall-clock microseconds the attempt took where it
            ran.  Diagnostic like ``backend``: it rides payloads and
            journals (benchmarks read it for per-shard spread) but never
            enters equality or the canonical export — wall time is not
            deterministic, which is exactly why the canonical cost
            profile uses the integer ``fields`` facts instead.
    """

    name: str
    status: str
    shard_index: int
    shard_key: str
    attempt: int
    fields: Tuple[Tuple[str, Union[int, str]], ...] = ()
    backend: str = dataclasses.field(default="", compare=False)
    duration_us: int = dataclasses.field(default=0, compare=False)

    def sort_key(self) -> Tuple:
        return (self.shard_index, self.attempt, self.status, self.name, self.fields)

    def to_dict(self, include_backend: bool = True) -> dict:
        """Dict encoding; ``include_backend`` gates the non-canonical
        attributes (backend name *and* wall duration) — payloads and
        journals carry them, the canonical export never does."""
        out = {
            "name": self.name,
            "status": self.status,
            "shard_index": self.shard_index,
            "shard_key": self.shard_key,
            "attempt": self.attempt,
            "fields": dict(self.fields),
        }
        if include_backend:
            out["backend"] = self.backend
            out["duration_us"] = self.duration_us
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanEvent":
        return cls(
            name=payload["name"],
            status=payload["status"],
            shard_index=int(payload["shard_index"]),
            shard_key=payload["shard_key"],
            attempt=int(payload["attempt"]),
            fields=tuple(sorted(payload.get("fields", {}).items())),
            backend=payload.get("backend", ""),
            duration_us=int(payload.get("duration_us", 0)),
        )


class Instruments:
    """The run's telemetry: exact counters + histograms + span events.

    Every run records all of it at one level: the crawl report reads
    the counters, the canonical dispatch accounting is derived from
    the span events, and the ``planner`` section records the plan.
    ``tests/test_obs.py`` pins the work it adds to a crawl as counted
    calls.

    The object is picklable and JSON-codable (:meth:`to_payload` /
    :meth:`from_payload`), merges exactly (:meth:`merge`), and equality
    ignores the non-deterministic ``process`` section — two runs of the
    same seed on different backends compare equal.
    """

    __slots__ = ("counters", "histograms", "events", "process", "plan")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[SpanEvent] = []
        #: Non-deterministic diagnostics: wall/simulated timers (µs),
        #: ledger accounting, backend annotations.  Never canonical.
        self.process: Dict[str, Union[int, str]] = {}
        #: The run's shard plan, set by the coordinator via
        #: :meth:`set_plan`.  Drives the canonical ``planner`` section;
        #: worker payloads never carry it (a worker sees one shard, the
        #: coordinator knows the plan — including an adopted one on
        #: resume), so :meth:`merge` leaves it alone.
        self.plan: Optional[Tuple[int, int, Tuple[Tuple[int, ...], ...]]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str, edges: Tuple[int, ...]) -> Histogram:
        """The histogram ``name``, created with ``edges`` on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(edges)
            self.histograms[name] = hist
        return hist

    def observe(self, name: str, value: int, edges: Tuple[int, ...]) -> None:
        self.histogram(name, edges).observe(value)

    def event(
        self,
        name: str,
        status: str,
        shard_index: int,
        shard_key: str,
        attempt: int,
        fields: Optional[Mapping[str, Union[int, str]]] = None,
        backend: str = "",
        duration_us: int = 0,
    ) -> None:
        self.events.append(
            SpanEvent(
                name=name,
                status=status,
                shard_index=shard_index,
                shard_key=shard_key,
                attempt=attempt,
                fields=tuple(sorted((fields or {}).items())),
                backend=backend,
                duration_us=duration_us,
            )
        )

    def set_plan(self, n_weeks: int, n_domains: int, rows) -> None:
        """Record the run's shard plan (coordinator only).

        ``rows`` is an iterable of ``(index, week_start, week_count,
        domain_start, domain_count)`` tuples — the plan's geometry,
        backend-free by construction.  Once set, :meth:`snapshot` emits
        the canonical ``planner`` section: per-shard cost rows derived
        from the plan geometry plus the shard span events' integer
        facts.
        """
        self.plan = (
            int(n_weeks),
            int(n_domains),
            tuple(sorted(tuple(int(v) for v in row) for row in rows)),
        )

    def note(self, name: str, value: Union[int, str]) -> None:
        """Record a ``process``-tier diagnostic (never canonical)."""
        self.process[name] = value

    def add_wall_us(self, name: str, micros: int) -> None:
        key = f"wall.{name}_us"
        self.process[key] = int(self.process.get(key, 0)) + int(micros)

    @contextlib.contextmanager
    def span(self, name: str, clock=None) -> Iterator[None]:
        """Time a phase: wall-clock always, simulated clock when given.

        Wall time accumulates into ``process["wall.<name>_us"]``; a
        ``clock`` with a ``now`` attribute (e.g. the dispatcher's
        :class:`~repro.runtime.SimulatedClock`) additionally accumulates
        its delta into ``process["sim.<name>_us"]``.
        """
        sim_start = getattr(clock, "now", None)
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_wall_us(name, (time.perf_counter_ns() - started) // 1000)
            if sim_start is not None:
                key = f"sim.{name}_us"
                delta_us = int(round((clock.now - sim_start) * 1_000_000))
                self.process[key] = int(self.process.get(key, 0)) + delta_us

    # ------------------------------------------------------------------
    # Exact merge (same contract as ObservationStore.merge)
    # ------------------------------------------------------------------
    def merge(self, other: "Instruments") -> "Instruments":
        """Fold ``other`` into this object, exactly.

        Counters and histogram buckets add (integer arithmetic: exact
        and associative), events union, and ``process`` diagnostics add
        where numeric (first writer wins for annotations) — so any
        merge tree over the same per-shard instruments produces the
        identical canonical document.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                copy = Histogram(hist.edges)
                copy.merge(hist)
                self.histograms[name] = copy
            else:
                mine.merge(hist)
        self.events.extend(other.events)
        for name, value in other.process.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                current = self.process.get(name, 0)
                if isinstance(current, (int, float)):
                    self.process[name] = current + value
                    continue
            self.process.setdefault(name, value)
        return self

    # ------------------------------------------------------------------
    # Codec: payload dicts (JSON-safe; journaled with shard payloads)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Flat JSON-safe encoding (travels in shard payloads/journals)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "spans": [
                event.to_dict() for event in sorted(self.events, key=SpanEvent.sort_key)
            ],
            "process": dict(sorted(self.process.items())),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Instruments":
        ins = cls()
        for name, value in payload.get("counters", {}).items():
            ins.counters[name] = int(value)
        for name, hist in payload.get("histograms", {}).items():
            ins.histograms[name] = Histogram.from_dict(hist)
        for event in payload.get("spans", []):
            ins.events.append(SpanEvent.from_dict(event))
        for name, value in payload.get("process", {}).items():
            ins.process[name] = value
        return ins

    # ------------------------------------------------------------------
    # Canonical export (the --metrics-out document)
    # ------------------------------------------------------------------
    def snapshot(self, include_process: bool = False) -> dict:
        """The structured metrics document.

        With ``include_process=False`` (the default, and what
        ``--metrics-out`` writes) the document contains only the
        deterministic tiers: byte-identical for the same run on every
        backend, and for an uninterrupted vs killed-and-resumed run.
        """
        dataset: Dict[str, object] = {
            alias: self.counters.get(source, 0)
            for alias, source in DATASET_COUNTERS
        }
        dataset["histograms"] = {
            name: self.histograms[name].to_dict()
            for name in DATASET_HISTOGRAMS
            if name in self.histograms
        }
        document = {
            "format": METRICS_FORMAT,
            "dataset": dataset,
            "execution": {
                "counters": dict(sorted(self.counters.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self.histograms.items())
                    if name not in DATASET_HISTOGRAMS
                },
                "spans": [
                    event.to_dict(include_backend=False)
                    for event in sorted(self.events, key=SpanEvent.sort_key)
                ],
            },
        }
        if self.plan is not None:
            document["planner"] = self._planner_section()
        if include_process:
            document["process"] = dict(sorted(self.process.items()))
        return document

    def _planner_section(self) -> dict:
        """The plan that ran: each shard's geometry, facts and cost.

        One row per plan shard, joining the plan geometry with the
        shard's final span event (``"ok"`` or ``"dropped"`` — exactly
        one per shard).  Every value is an integer derived from
        deterministic facts, so the section is byte-identical across
        backends and kill/resume like the rest of the document.
        """
        n_weeks, n_domains, rows = self.plan
        outcome: Dict[int, SpanEvent] = {}
        for event in self.events:
            if event.name == "shard":
                outcome[event.shard_index] = event
        shard_rows = []
        total = 0
        max_cost = 0
        for index, week_start, week_count, domain_start, domain_count in rows:
            event = outcome.get(index)
            fields = dict(event.fields) if event is not None else {}
            cells = week_count * domain_count
            pages = int(fields.get("pages", 0))
            failures = int(fields.get("failures", 0))
            cache_misses = int(fields.get("cache_misses", 0))
            scripts = int(fields.get("scripts", 0))
            cost = shard_cost_units(
                cells=cells,
                pages=pages,
                failures=failures,
                cache_misses=cache_misses,
                scripts=scripts,
            )
            total += cost
            max_cost = max(max_cost, cost)
            shard_rows.append(
                {
                    "index": index,
                    "week_start": week_start,
                    "week_count": week_count,
                    "domain_start": domain_start,
                    "domain_count": domain_count,
                    "cells": cells,
                    "pages": pages,
                    "failures": failures,
                    "cache_misses": cache_misses,
                    "scripts": scripts,
                    "attempts": (event.attempt + 1) if event is not None else 0,
                    "cost_units": cost,
                }
            )
        return {
            "grid": {"weeks": n_weeks, "domains": n_domains},
            "cost_model": {
                "cell": COST_PER_CELL,
                "page": COST_PER_PAGE,
                "failure": COST_PER_FAILURE,
                "cache_miss": COST_PER_CACHE_MISS,
                "script": COST_PER_SCRIPT,
            },
            "shards": shard_rows,
            "total_cost_units": total,
            "max_cost_units": max_cost,
            # max/mean shard cost in permille: 1000 = perfectly
            # balanced; integer arithmetic keeps it deterministic.
            "imbalance_permille": (
                (max_cost * 1000 * len(shard_rows)) // total if total else 0
            ),
        }

    def canonical_json(self) -> str:
        """Deterministic serialization of :meth:`snapshot` (no process)."""
        return json.dumps(
            self.snapshot(include_process=False),
            sort_keys=True,
            separators=(",", ":"),
        ) + "\n"

    # ------------------------------------------------------------------
    def wall_seconds(self, name: str) -> float:
        """Accumulated wall time of phase ``name`` in seconds."""
        return int(self.process.get(f"wall.{name}_us", 0)) / 1_000_000

    def __eq__(self, other: object) -> bool:
        """Canonical equality: the ``process`` section is ignored."""
        if not isinstance(other, Instruments):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.histograms == other.histograms
            and self.plan == other.plan
            and sorted(self.events, key=SpanEvent.sort_key)
            == sorted(other.events, key=SpanEvent.sort_key)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Instruments(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, events={len(self.events)})"
        )

    # Pickle support with __slots__.
    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
