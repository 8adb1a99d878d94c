"""Shard planning: partitioning the (week, domain) crawl space.

A crawl visits every retained domain in every target week — a dense
``weeks × domains`` grid of work cells.  The planner cuts that grid into
rectangular :class:`Shard`\\ s whose cell counts differ by at most one
row/column, so any backend can execute them in any order and the merged
result is exactly the serial result.

Two invariants matter for exact mergeability (see
:meth:`~repro.crawler.ObservationStore.merge`):

* shards never overlap — every ``(week, domain)`` cell belongs to
  exactly one shard;
* each shard's weeks form a *contiguous run* of the target weeks, so
  per-site trajectories (which store version *changes* only) can be
  re-compressed at merge time without losing observations.

The domain axis is split first — domains are independent, so domain
shards parallelise perfectly; the week axis is split only when there are
fewer domains than requested shards.

Plans are uniform: they balance cell counts, not estimated cost.
Shards are contiguous rank blocks of hundreds of domains, so each
block's mix of cheap and costly sites is close to the average, and a
process pool already hands the next shard to whichever worker is free
first.  A weighted, cost-balanced plan was measured against this one
and never crawled faster than the uniform runs' own spread (ROADMAP,
"Measured and set aside").
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..errors import CrawlError


@dataclasses.dataclass(frozen=True)
class Shard:
    """One rectangular block of the ``weeks × domains`` crawl grid.

    Attributes:
        index: Position in the plan (execution order is irrelevant).
        week_start: Offset of the shard's first week in the *target*
            week sequence (not a calendar ordinal).
        week_count: Number of contiguous target weeks covered.
        domain_start: Offset of the shard's first domain in the retained
            domain sequence.
        domain_count: Number of domains covered.
    """

    index: int
    week_start: int
    week_count: int
    domain_start: int
    domain_count: int

    @property
    def cells(self) -> int:
        """Work cells (page visits attempted) in this shard."""
        return self.week_count * self.domain_count


def _cuts(total: int, parts: int) -> List[range]:
    """Split ``range(total)`` into ``parts`` contiguous near-equal runs."""
    parts = max(1, min(parts, total))
    return [
        range(total * i // parts, total * (i + 1) // parts) for i in range(parts)
    ]


def plan_shards(
    n_weeks: int,
    n_domains: int,
    workers: int = 1,
    shard_size: int = 0,
) -> List[Shard]:
    """Partition a ``n_weeks × n_domains`` crawl into balanced shards.

    Args:
        n_weeks: Target weeks in the crawl.
        n_domains: Retained domains in the crawl.
        workers: Desired parallelism (minimum shard count when work
            exists).
        shard_size: Maximum cells per shard; ``0`` targets one shard per
            worker.

    Returns:
        Shards covering every cell exactly once, ``shards[i].index ==
        i``.  Empty when the grid is empty.
    """
    if workers < 1:
        raise CrawlError("workers must be >= 1")
    if shard_size < 0:
        raise CrawlError("shard_size must be >= 0")
    cells = n_weeks * n_domains
    if cells == 0:
        return []

    target = workers
    if shard_size:
        target = max(target, -(-cells // shard_size))
    target = min(target, cells)

    # Domains first; weeks only when domains alone cannot reach the
    # target shard count.
    domain_parts = min(n_domains, target)
    week_parts = 1
    if domain_parts < target:
        week_parts = min(n_weeks, -(-target // domain_parts))

    if shard_size:
        # Hard bound: no shard may exceed shard_size cells.  Splitting
        # domains fully first preserves the contiguous-week invariant.
        if n_weeks > shard_size:
            domain_parts = n_domains
            week_parts = max(week_parts, -(-n_weeks // shard_size))
        else:
            max_domains_per_shard = shard_size // n_weeks
            domain_parts = max(
                domain_parts, -(-n_domains // max_domains_per_shard)
            )

    domain_runs = _cuts(n_domains, domain_parts)
    rectangles = [
        (week_run, domain_run)
        for week_run in _cuts(n_weeks, week_parts)
        for domain_run in domain_runs
    ]
    return [
        Shard(
            index=index,
            week_start=week_run.start,
            week_count=len(week_run),
            domain_start=domain_run.start,
            domain_count=len(domain_run),
        )
        for index, (week_run, domain_run) in enumerate(rectangles)
    ]
