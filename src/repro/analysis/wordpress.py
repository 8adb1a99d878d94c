"""Appendix analyses: WordPress usage (Figure 9) and CVEs (Table 4).

The paper: 26.9% of collected websites run WordPress; against the ten
Table 4 CVEs, an average of 97.7% of WordPress sites are affected by
the most recent five (because WordPress patches ship as new versions and
most sites track recent versions), while only 0.36% are affected by the
five most severe (ancient) ones.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..crawler.store import ObservationStore
from ..errors import VersionError
from ..vulndb import Advisory, VulnerabilityDatabase


@dataclasses.dataclass
class WordPressUsage:
    """Figure 9 data."""

    dates: List[str]
    collected: List[int]
    wordpress: List[int]

    @property
    def average_share(self) -> float:
        shares = [
            w / max(c, 1) for w, c in zip(self.wordpress, self.collected)
        ]
        return sum(shares) / len(shares) if shares else 0.0


@dataclasses.dataclass
class WordPressCveRow:
    """One Table 4 row with measured affected-site counts."""

    advisory: Advisory
    average_affected: float
    share_of_wordpress_sites: float


def usage(store: ObservationStore) -> WordPressUsage:
    """Figure 9 from the observation store."""
    aggregates = store.ordered_weeks()
    return WordPressUsage(
        dates=[agg.week.date.isoformat() for agg in aggregates],
        collected=[agg.collected for agg in aggregates],
        wordpress=[agg.wordpress_sites for agg in aggregates],
    )


def cve_exposure(
    store: ObservationStore, database: VulnerabilityDatabase
) -> List[WordPressCveRow]:
    """Table 4: affected WordPress sites per CVE.

    Counts, per week, WordPress sites whose core version falls in each
    advisory's stated range, then averages over weeks.  Weekly columns
    are read once, by id; membership is decided per distinct version.
    """
    advisories = [a for a in database if a.library == "wordpress"]
    weekly = [
        list(agg.wordpress_versions.items_ids()) for agg in store.ordered_weeks()
    ]
    totals = [sum(count for _, count in week) for week in weekly]
    decode = store.symbols.version.decode
    versions = {ver_id: decode(ver_id) for week in weekly for ver_id, _ in week}
    rows: List[WordPressCveRow] = []
    for advisory in advisories:
        affected_ids = set()
        for ver_id, version in versions.items():
            try:
                if version != "?" and advisory.stated_range.contains(version):
                    affected_ids.add(ver_id)
            except VersionError:
                continue
        affected_weekly = [
            sum(count for ver_id, count in week if ver_id in affected_ids)
            for week in weekly
        ]
        share_weekly = [
            affected / max(total, 1)
            for affected, total in zip(affected_weekly, totals)
        ]
        rows.append(
            WordPressCveRow(
                advisory=advisory,
                average_affected=sum(affected_weekly) / max(len(affected_weekly), 1),
                share_of_wordpress_sites=sum(share_weekly)
                / max(len(share_weekly), 1),
            )
        )
    rows.sort(
        key=lambda r: (r.advisory.disclosed or r.advisory.patched_on), reverse=True
    )
    return rows


def recent_vs_severe_exposure(
    rows: List[WordPressCveRow],
) -> Tuple[float, float]:
    """Average WordPress-site share for the 5 recent vs 5 severe CVEs.

    The paper: 97.7% (recent) vs 0.36% (severe/ancient).
    """
    recent_ids = {
        "CVE-2022-21664",
        "CVE-2022-21663",
        "CVE-2022-21662",
        "CVE-2022-21661",
        "CVE-2021-44223",
    }
    recent = [
        r.share_of_wordpress_sites for r in rows if r.advisory.identifier in recent_ids
    ]
    severe = [
        r.share_of_wordpress_sites
        for r in rows
        if r.advisory.identifier not in recent_ids
    ]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(recent), mean(severe)


def library_platform_overlap(
    store: ObservationStore, library: str
) -> float:
    """Average share of a library's users that run WordPress.

    The paper reports 22.3% of SWFObject sites use WordPress plugins.
    """
    numerator = store.average(
        lambda agg: agg.library_wordpress_users.get(library, 0)
    )
    denominator = store.average(lambda agg: agg.library_users.get(library, 0))
    if denominator == 0:
        return 0.0
    return numerator / denominator
