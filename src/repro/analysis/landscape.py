"""Section 6.1 / Table 1 / Figure 3 / Table 5: the library landscape.

Reproduces, per library: average usage (count and share), the
internal/external inclusion split, the CDN share of external inclusions,
the top CDN hosts (Table 5), the dominant version, and the number of
reported vulnerabilities — plus the Figure 3 usage-trend series
(including the jQuery-Migrate dip of Aug–Dec 2020).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..crawler.store import ObservationStore
from ..errors import VersionError
from ..semver import parse_version
from ..vulndb import VulnerabilityDatabase
from ..webgen.libraries import TOP15_ORDER


@dataclasses.dataclass
class LibraryRow:
    """One row of Table 1."""

    library: str
    average_users: float
    usage_share: float
    internal_share: float
    external_share: float
    cdn_share_of_external: float
    dominant_version: Optional[str]
    dominant_version_share: float
    latest_observed: Optional[str]
    versions_found: int
    vulnerability_count: int


@dataclasses.dataclass
class LandscapeResult:
    """Table 1 + Figure 3 + Table 5 data."""

    rows: List[LibraryRow]
    #: library -> weekly usage-share series (Figure 3)
    usage_series: Dict[str, List[float]]
    #: library -> [(cdn host, share of external inclusions)] (Table 5)
    top_cdns: Dict[str, List[Tuple[str, float]]]
    dates: List[str]

    def row(self, library: str) -> LibraryRow:
        for row in self.rows:
            if row.library == library:
                return row
        raise KeyError(library)


def _dominant_version(
    versions: Tuple[Tuple[str, int], ...], user_total: int
) -> Tuple[Optional[str], float, Optional[str], int]:
    """(dominant version, its share of users, latest observed, #versions)
    from one library's ``store.version_totals()`` entry."""
    if not versions:
        return None, 0.0, None, 0
    dominant, count = versions[0]
    latest = None
    try:
        latest = max((version for version, _ in versions), key=parse_version)
    except VersionError:
        pass
    return dominant, count / max(user_total, 1), latest, len(versions)


def analyze(
    store: ObservationStore,
    database: VulnerabilityDatabase,
    libraries: Tuple[str, ...] = TOP15_ORDER,
    top_cdn_count: int = 3,
) -> LandscapeResult:
    """Build Table 1 / Figure 3 / Table 5 from the observation store.

    Reads packed columns by id; count ties break by symbol string.
    """
    aggregates = store.ordered_weeks()
    dates = [agg.week.date.isoformat() for agg in aggregates]
    symbols = store.symbols
    version_totals = store.version_totals()
    host_totals: Dict[int, Dict[int, int]] = {}  # library id -> host id -> count
    for agg in aggregates:
        for pair_id, count in agg.cdn_hosts.items_ids():
            lib_id, host_id = symbols.libhost.component_ids(pair_id)
            hosts = host_totals.setdefault(lib_id, {})
            hosts[host_id] = hosts.get(host_id, 0) + count
    rows: List[LibraryRow] = []
    usage_series: Dict[str, List[float]] = {}
    top_cdns: Dict[str, List[Tuple[str, float]]] = {}

    for library in libraries:
        lib_id = symbols.library.lookup(library)
        if lib_id is None:  # never observed: an id past every column reads 0
            lib_id = len(symbols.library)
        users = [agg.library_users.get_id(lib_id) for agg in aggregates]
        shares = [
            u / max(agg.collected, 1) for u, agg in zip(users, aggregates)
        ]
        usage_series[library] = shares
        average_users = sum(users) / max(len(users), 1)
        usage_share = sum(shares) / max(len(shares), 1)

        internal = sum(agg.internal_counts.get_id(lib_id) for agg in aggregates)
        external = sum(agg.external_counts.get_id(lib_id) for agg in aggregates)
        via_cdn = sum(agg.cdn_counts.get_id(lib_id) for agg in aggregates)
        inclusions = max(internal + external, 1)

        hosts = host_totals.get(lib_id, {}).items()
        ranked_hosts = sorted(
            ((symbols.cdn_host.decode(host_id), count) for host_id, count in hosts),
            key=lambda kv: (-kv[1], kv[0]),
        )
        top_cdns[library] = [
            (host, count / max(external, 1)) for host, count in ranked_hosts[:top_cdn_count]
        ]

        dominant, dom_share, latest, n_versions = _dominant_version(
            version_totals.get(library, ()), sum(users)
        )
        rows.append(
            LibraryRow(
                library=library,
                average_users=average_users,
                usage_share=usage_share,
                internal_share=internal / inclusions,
                external_share=external / inclusions,
                cdn_share_of_external=via_cdn / max(external, 1),
                dominant_version=dominant,
                dominant_version_share=dom_share,
                latest_observed=latest,
                versions_found=n_versions,
                vulnerability_count=len(database.for_library(library)),
            )
        )

    rows.sort(key=lambda r: -r.average_users)
    return LandscapeResult(
        rows=rows, usage_series=usage_series, top_cdns=top_cdns, dates=dates
    )


def migrate_dip(result: LandscapeResult) -> Tuple[float, float, float]:
    """The jQuery-Migrate usage dip (Figure 3(a)).

    Returns:
        ``(share before Aug 2020, minimum share Aug–Dec 2020, share after
        Dec 2020)`` — the paper observed roughly a 10-percentage-point
        drop and recovery.
    """
    shares = result.usage_series.get("jquery-migrate", [])
    dates = result.dates
    before = [s for s, d in zip(shares, dates) if "2020-06" <= d < "2020-08"]
    during = [s for s, d in zip(shares, dates) if "2020-09" <= d < "2020-12"]
    after = [s for s, d in zip(shares, dates) if "2021-01" <= d < "2021-04"]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(before), min(during) if during else 0.0, mean(after)
