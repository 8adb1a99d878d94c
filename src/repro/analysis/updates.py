"""Section 7 / RQ2: how vulnerable libraries get updated (or don't).

Core metric — the *window of vulnerability*: for every advisory with a
released patch, and every site observed on an affected version once the
patch exists, the days until the site's observed version first escapes
the affected range.  The paper reports a mean of 531.2 days across
advisories (with 25,337 updating websites), rising to 701.2 days when
the understated CVEs are measured against their True Vulnerable
Versions (vs 510 days against the stated ranges).

Also: the Figure 6 / 7 / 15 per-version usage series, including the
WordPress-driven December 2020 update wave.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..crawler.store import ObservationStore
from ..errors import VersionError
from ..semver import RangeSet
from ..vulndb import (
    Advisory,
    MatchMode,
    RangeAccuracy,
    VulnerabilityDatabase,
    classify_accuracy,
)
from ..webgen.libraries import TOP15_ORDER


@dataclasses.dataclass
class AdvisoryDelay:
    """Update-delay statistics for one advisory."""

    advisory: Advisory
    mode: MatchMode
    updated_sites: int
    censored_sites: int
    mean_delay_days: Optional[float]
    median_delay_days: Optional[float]


@dataclasses.dataclass
class DelayResult:
    """Aggregate RQ2 numbers."""

    per_advisory: List[AdvisoryDelay]
    mode: MatchMode

    @property
    def mean_delay_days(self) -> float:
        """Mean of per-advisory mean delays (the paper's 531.2 days)."""
        values = [
            d.mean_delay_days
            for d in self.per_advisory
            if d.mean_delay_days is not None
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    @property
    def total_updated_sites(self) -> int:
        return sum(d.updated_sites for d in self.per_advisory)

    @property
    def total_censored_sites(self) -> int:
        return sum(d.censored_sites for d in self.per_advisory)


def _version_at(
    trajectory: Sequence[Tuple[int, int]], ordinal: int
) -> Optional[int]:
    version = None
    for week, value in trajectory:
        if week <= ordinal:
            version = value
        else:
            break
    return version


def _contains(range_set: RangeSet, version: str) -> bool:
    try:
        return range_set.contains(version)
    except VersionError:
        return False


#: One site's ``(week ordinal, version id)`` changes for one library.
Trajectory = List[Tuple[int, int]]


def library_trajectories(store: ObservationStore, library: str) -> List[Trajectory]:
    """Every site's trajectory of one library, read from the packed
    store once; each advisory of the library then walks the same list."""
    lib_id = store.symbols.library.lookup(library)
    return [
        list(zip(changes[::2], changes[1::2]))
        for changes in store.trajectories.library_changes(lib_id)
    ]


def advisory_delay(
    store: ObservationStore,
    advisory: Advisory,
    mode: MatchMode = MatchMode.CVE,
    *,
    trajectories: Optional[List[Trajectory]] = None,
) -> AdvisoryDelay:
    """Window-of-vulnerability statistics for one advisory.

    Sites enter the at-risk cohort if they are observed on an affected
    version at (or first after) the patch-availability date; they leave
    it at the first observed version outside the affected range.  Sites'
    ``(week, version id)`` changes are walked by id: ``trajectories``
    is :func:`library_trajectories` of the advisory's library, read
    here when not given.
    """
    calendar = store.calendar
    patched_on = advisory.patched_on
    if patched_on is None:
        return AdvisoryDelay(
            advisory=advisory,
            mode=mode,
            updated_sites=0,
            censored_sites=0,
            mean_delay_days=None,
            median_delay_days=None,
        )
    start_date = max(patched_on, calendar.start)
    start_ordinal = calendar.week_for_date(start_date).ordinal
    affected = (
        advisory.effective_range if mode is MatchMode.TVV else advisory.stated_range
    )

    decode = store.symbols.version.decode
    affected_id = functools.lru_cache(maxsize=None)(  # per version id, this call
        lambda ver_id: _contains(affected, decode(ver_id))
    )
    if trajectories is None:
        trajectories = library_trajectories(store, advisory.library)
    delays: List[int] = []
    censored = 0
    for trajectory in trajectories:
        current = _version_at(trajectory, start_ordinal)
        if current is None or not affected_id(current):
            continue
        fixed_ordinal: Optional[int] = None
        for week, ver_id in trajectory:
            if week > start_ordinal and not affected_id(ver_id):
                fixed_ordinal = week
                break
        if fixed_ordinal is None:
            censored += 1
        else:
            delay = (calendar.week_at(fixed_ordinal).date - start_date).days
            delays.append(max(delay, 0))

    mean = sum(delays) / len(delays) if delays else None
    median = None
    if delays:
        ordered = sorted(delays)
        median = float(ordered[len(ordered) // 2])
    return AdvisoryDelay(
        advisory=advisory,
        mode=mode,
        updated_sites=len(delays),
        censored_sites=censored,
        mean_delay_days=mean,
        median_delay_days=median,
    )


def update_delays(
    store: ObservationStore,
    database: VulnerabilityDatabase,
    mode: MatchMode = MatchMode.CVE,
    libraries: Tuple[str, ...] = TOP15_ORDER,
) -> DelayResult:
    """RQ2 across all patched advisories on the given libraries."""
    patched = [
        a for a in database if a.library in libraries and a.patched_on is not None
    ]
    by_library = {
        library: library_trajectories(store, library)
        for library in {a.library for a in patched}
    }
    results = [
        advisory_delay(store, a, mode=mode, trajectories=by_library[a.library])
        for a in patched
    ]
    return DelayResult(per_advisory=results, mode=mode)


@dataclasses.dataclass
class UnderstatementPenalty:
    """Extra delay caused by understated CVE ranges (Section 7 end)."""

    stated_mean_days: float
    true_mean_days: float

    @property
    def extra_days(self) -> float:
        return self.true_mean_days - self.stated_mean_days


def understatement_penalty(
    store: ObservationStore, database: VulnerabilityDatabase
) -> UnderstatementPenalty:
    """Delays for the understated CVEs, stated vs true ranges.

    The paper: 510 days when measured against the (wrong) CVE ranges,
    701.2 days against the True Vulnerable Versions.
    """
    understated = [
        a
        for a in database
        if a.patched_on is not None
        and classify_accuracy(a) is RangeAccuracy.UNDERSTATED
    ]
    stated: List[float] = []
    true: List[float] = []
    for advisory in understated:
        by_cve = advisory_delay(store, advisory, MatchMode.CVE)
        by_tvv = advisory_delay(store, advisory, MatchMode.TVV)
        if by_cve.mean_delay_days is not None:
            stated.append(by_cve.mean_delay_days)
        if by_tvv.mean_delay_days is not None:
            true.append(by_tvv.mean_delay_days)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return UnderstatementPenalty(
        stated_mean_days=mean(stated), true_mean_days=mean(true)
    )


@dataclasses.dataclass
class VersionTrends:
    """Figures 6 / 7(a) / 15: weekly counts for selected versions."""

    library: str
    dates: List[str]
    series: Dict[str, List[int]]


def affected_version_trends(
    store: ObservationStore,
    advisory: Advisory,
    top: int = 5,
) -> VersionTrends:
    """Figure 6/15: usage trends of an advisory's top affected versions."""
    library = advisory.library
    affected = [
        v
        for v in store.observed_versions(library)
        if _contains(advisory.stated_range, v)
    ][:top]
    aggregates = store.ordered_weeks()
    return VersionTrends(
        library=library,
        dates=[agg.week.date.isoformat() for agg in aggregates],
        series={v: store.version_series(library, v) for v in affected},
    )


def version_trends(
    store: ObservationStore, library: str, versions: Sequence[str]
) -> VersionTrends:
    """Arbitrary per-version series (Figure 7(a))."""
    aggregates = store.ordered_weeks()
    return VersionTrends(
        library=library,
        dates=[agg.week.date.isoformat() for agg in aggregates],
        series={v: store.version_series(library, v) for v in versions},
    )


def wordpress_jquery_trends(
    store: ObservationStore, versions: Sequence[str]
) -> VersionTrends:
    """Figure 7(b): jQuery versions among WordPress sites."""
    aggregates = store.ordered_weeks()
    return VersionTrends(
        library="jquery@wordpress",
        dates=[agg.week.date.isoformat() for agg in aggregates],
        series={
            v: [agg.wordpress_jquery_versions.get(v, 0) for agg in aggregates]
            for v in versions
        },
    )


def december_2020_wave(store: ObservationStore) -> Dict[str, float]:
    """Quantify the WordPress auto-update wave (Figure 7).

    Returns the change in weekly site counts of jQuery 1.12.4 and 3.5.1
    between November 2020 and February 2021, normalized by the November
    1.12.4 count — the paper observes a sharp, simultaneous swap.
    """
    trends = version_trends(store, "jquery", ["1.12.4", "3.5.1"])
    def window_mean(version: str, lo: str, hi: str) -> float:
        values = [
            c
            for c, d in zip(trends.series[version], trends.dates)
            if lo <= d < hi
        ]
        return sum(values) / len(values) if values else 0.0

    before_old = window_mean("1.12.4", "2020-10", "2020-12")
    after_old = window_mean("1.12.4", "2021-01", "2021-03")
    before_new = window_mean("3.5.1", "2020-10", "2020-12")
    after_new = window_mean("3.5.1", "2021-01", "2021-03")
    base = max(before_old, 1.0)
    return {
        "old_drop": (before_old - after_old) / base,
        "new_rise": (after_new - before_new) / base,
    }
