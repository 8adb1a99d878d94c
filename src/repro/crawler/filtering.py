"""The paper's inaccessible-domain filter (Section 4.1).

The paper conservatively removes domains that responded with error pages
(4xx status) or empty pages (<400 bytes — a threshold they validated by
manually checking every such page) for the **four consecutive weeks in
the last month** of the collection period.

:class:`AccessibilityFilter` runs that check as a probe pass over the
virtual network before the main crawl, so the main crawl only visits the
retained domains (equivalent to the paper's retrospective filtering, and
kept deterministic by resetting the network's failure-schedule counters
afterwards).  A domain's first accessible week settles its verdict, so
the probe stops fetching it there.

A probe from a pristine network is a pure function of dataset identity
and the threshold, so each process probes a dataset once: every later
:class:`~repro.core.Study` of it (each tick of an orchestrated fleet)
reuses the verdict.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import FrozenSet, Sequence, Set, Tuple

from ..config import scenario_digest
from ..timeline import StudyCalendar
from ..webgen.domains import Domain
from ..webgen.ecosystem import WebEcosystem
from .fetch import Fetcher, FetchOutcome, FetchResult


@dataclasses.dataclass
class FilterReport:
    """Outcome of the accessibility probe."""

    total_domains: int
    retained: int
    removed: int
    removed_error: int
    removed_empty: int
    removed_unreachable: int

    @property
    def retained_fraction(self) -> float:
        if self.total_domains == 0:
            return 0.0
        return self.retained / self.total_domains


_Verdict = Tuple[FrozenSet[str], FilterReport]

#: (scenario digest, threshold) -> (retained names, report) of a probe
#: from a pristine network; bounded LRU per process.
_VERDICT_CACHE: "collections.OrderedDict[Tuple[str, int], _Verdict]" = (
    collections.OrderedDict()
)
_VERDICT_CACHE_MAX = 8


class AccessibilityFilter:
    """Removes domains inaccessible through the final month."""

    def __init__(
        self,
        ecosystem: WebEcosystem,
        empty_page_threshold: int = 400,
    ) -> None:
        self.ecosystem = ecosystem
        self.empty_page_threshold = empty_page_threshold

    def _is_bad(self, result: FetchResult) -> Tuple[bool, str]:
        """Whether one probe response marks the week as inaccessible."""
        if result.outcome is not FetchOutcome.OK:
            if result.outcome is FetchOutcome.HTTP_ERROR:
                return True, "error"
            return True, "unreachable"
        if result.size < self.empty_page_threshold:
            # Anti-bot block pages return 200 with tiny bodies; the paper
            # verified all such pages carry no real content.
            return True, "empty"
        return False, ""

    def run(self) -> Tuple[Set[str], FilterReport]:
        """Probe the last month and compute the retained domain set.

        Returns:
            ``(retained_domain_names, report)``.
        """
        network = self.ecosystem.network
        # A probe reads the network only through fetches of the last
        # month, and set_week fixes the clock and the attached hosts for
        # each probed week.  From a pristine network (no request ordinal
        # consumed, no surge) every fetch outcome is therefore a pure
        # function of the dataset — whose site states, population and
        # host conditions scenario_digest covers — and the threshold,
        # so the first such probe's verdict is every later one's.  A
        # network in any other state is probed for real.
        key = None
        if network.is_pristine():
            key = (
                scenario_digest(self.ecosystem.config),
                self.empty_page_threshold,
            )
            cached = _VERDICT_CACHE.get(key)
            if cached is not None:
                _VERDICT_CACHE.move_to_end(key)
                # Leave the ecosystem exactly as the probe below does.
                last_month = self.ecosystem.calendar.last_month()
                if last_month:
                    self.ecosystem.set_week(last_month[-1].ordinal)
                network.reset_ordinals()
                network.set_clock(0)
                retained, report = cached
                return set(retained), dataclasses.replace(report)
        retained, report = self._probe()
        if key is not None:
            _VERDICT_CACHE[key] = (
                frozenset(retained),
                dataclasses.replace(report),
            )
            while len(_VERDICT_CACHE) > _VERDICT_CACHE_MAX:
                _VERDICT_CACHE.popitem(last=False)
        return retained, report

    def _probe(self) -> Tuple[Set[str], FilterReport]:
        """Fetch each domain in the weeks of the last month, up to and
        including its first accessible one.

        A domain is removed only when every probed week is bad, so its
        first good week settles its verdict and it is not fetched again.
        Each fetch outcome is a pure hash of (host, clock, request
        ordinal), and the ordinals are reset below, so a skipped fetch
        changes no other domain's draw.  ``set_week`` still runs for
        every week, so the probe leaves the ecosystem on the month's
        last week whichever domains it fetched.
        """
        calendar: StudyCalendar = self.ecosystem.calendar
        last_month = calendar.last_month()
        domains: Sequence[Domain] = self.ecosystem.population.domains
        # the domains bad in every week so far, in population order
        pending: Sequence[Domain] = domains
        last_reason = {d.name: "" for d in domains}

        fetcher = Fetcher(self.ecosystem.network, retries=0)
        for week in last_month:
            self.ecosystem.set_week(week.ordinal)
            still_bad = []
            for domain in pending:
                bad, reason = self._is_bad(fetcher.fetch_domain(domain.name))
                if bad:
                    last_reason[domain.name] = reason
                    still_bad.append(domain)
            pending = still_bad

        # Undo the probe's effect on the deterministic failure schedule
        # and rewind the clock for the main crawl.
        self.ecosystem.network.reset_ordinals()
        self.ecosystem.network.set_clock(0)

        retained = {d.name for d in domains} - {d.name for d in pending}
        reasons = collections.Counter(last_reason[d.name] for d in pending)
        report = FilterReport(
            total_domains=len(domains),
            retained=len(retained),
            removed=len(domains) - len(retained),
            removed_error=reasons["error"],
            removed_empty=reasons["empty"],
            removed_unreachable=len(pending) - reasons["error"] - reasons["empty"],
        )
        return retained, report
