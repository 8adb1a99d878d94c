"""Section 6.4 / RQ3: accuracy of CVE version information.

Three artifacts:

* **Table 2 verdicts** — classify every advisory's stated range against
  the True Vulnerable Versions (understated / overstated / correct),
  optionally *discovering* the TVV ranges by running the PoC lab rather
  than trusting the recorded ones.
* **Figures 4/13** — per-advisory interval comparison over the release
  catalog: which versions the CVE discloses, which are newly revealed
  (understated), which are exonerated (overstated).
* **Figures 5/14 + refinement** — weekly counts of affected websites
  under the stated vs true ranges, and the refined prevalence (41.2% →
  43.2%, with the gap growing over the years).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..crawler.columns import ColumnCounter
from ..crawler.store import ObservationStore
from ..semver import ReleaseCatalog, Version, builtin_catalogs
from ..vulndb import (
    Advisory,
    MatchMode,
    RangeAccuracy,
    VulnerabilityDatabase,
    classify_accuracy,
)


@dataclasses.dataclass
class AccuracyVerdict:
    """One advisory's Table 2 row."""

    advisory: Advisory
    verdict: RangeAccuracy
    #: catalogued versions the CVE claims affected
    stated_versions: Tuple[str, ...]
    #: catalogued versions truly affected (TVV)
    true_versions: Tuple[str, ...]
    #: truly vulnerable but undisclosed (understated direction)
    newly_revealed: Tuple[str, ...]
    #: disclosed but not actually vulnerable (overstated direction)
    exonerated: Tuple[str, ...]


@dataclasses.dataclass
class AccuracySummary:
    """Aggregate Section 6.4 verdicts."""

    verdicts: List[AccuracyVerdict]

    def counts(self, cve_only: bool = True) -> Dict[RangeAccuracy, int]:
        result = {v: 0 for v in RangeAccuracy}
        for verdict in self.verdicts:
            if cve_only and not verdict.advisory.has_cve_id:
                continue
            result[verdict.verdict] += 1
        return result

    @property
    def incorrect_cves(self) -> int:
        counts = self.counts(cve_only=True)
        return counts[RangeAccuracy.UNDERSTATED] + counts[RangeAccuracy.OVERSTATED]

    @property
    def total_cves(self) -> int:
        return sum(1 for v in self.verdicts if v.advisory.has_cve_id)


def classify_all(
    database: VulnerabilityDatabase,
    libraries: Optional[Tuple[str, ...]] = None,
    catalogs: Optional[Dict[str, ReleaseCatalog]] = None,
) -> AccuracySummary:
    """Table 2 verdicts from the recorded TVV ranges."""
    catalogs = catalogs or builtin_catalogs()
    verdicts: List[AccuracyVerdict] = []
    for advisory in database:
        if libraries is not None and advisory.library not in libraries:
            continue
        catalog = catalogs.get(advisory.library)
        if catalog is None:
            continue
        verdict = classify_accuracy(advisory, catalog)
        stated = tuple(
            str(r.version) for r in catalog.in_range(advisory.stated_range)
        )
        if advisory.true_range is not None:
            true = tuple(
                str(r.version) for r in catalog.in_range(advisory.true_range)
            )
        else:
            true = stated
        stated_set, true_set = set(stated), set(true)
        verdicts.append(
            AccuracyVerdict(
                advisory=advisory,
                verdict=verdict,
                stated_versions=stated,
                true_versions=true,
                newly_revealed=tuple(
                    v for v in true if v not in stated_set
                ),
                exonerated=tuple(v for v in stated if v not in true_set),
            )
        )
    return AccuracySummary(verdicts=verdicts)


@dataclasses.dataclass
class AffectedSeries:
    """Figures 5/14: weekly affected-site counts, stated vs true range."""

    advisory: Advisory
    dates: List[str]
    stated_counts: List[int]
    true_counts: List[int]

    @property
    def average_stated(self) -> float:
        return sum(self.stated_counts) / max(len(self.stated_counts), 1)

    @property
    def average_true(self) -> float:
        return sum(self.true_counts) / max(len(self.true_counts), 1)

    @property
    def average_undisclosed(self) -> float:
        """Average sites vulnerable but not flagged by the stated range."""
        gaps = [
            max(t - s, 0) for s, t in zip(self.stated_counts, self.true_counts)
        ]
        return sum(gaps) / max(len(gaps), 1)


def _mode_columns(store: ObservationStore) -> Tuple[List[ColumnCounter], ...]:
    """Each week's stated- and true-range advisory columns, in week order."""
    aggregates = store.ordered_weeks()
    return tuple(
        [agg.advisory_sites[mode] for agg in aggregates]
        for mode in (MatchMode.CVE, MatchMode.TVV)
    )


def _weekly_counts(
    store: ObservationStore, columns: List[ColumnCounter], identifier: str
) -> List[int]:
    """One advisory's cell of each column, read by its symbol id."""
    advisory_id = store.symbols.advisory.lookup(identifier)
    if advisory_id is None:
        return [0] * len(columns)
    return [column.get_id(advisory_id) for column in columns]


def affected_series(
    store: ObservationStore, advisory: Advisory
) -> AffectedSeries:
    """Weekly affected counts for one advisory under both range sets."""
    stated, true = _mode_columns(store)
    return AffectedSeries(
        advisory=advisory,
        dates=[agg.week.date.isoformat() for agg in store.ordered_weeks()],
        stated_counts=_weekly_counts(store, stated, advisory.identifier),
        true_counts=_weekly_counts(store, true, advisory.identifier),
    )


@dataclasses.dataclass
class RefinementResult:
    """The Section 6.4 takeaway numbers."""

    average_share_cve: float
    average_share_tvv: float
    #: per-year gap (TVV minus CVE), percentage points — the paper saw
    #: it grow from 0.1 (2018) to 2.9 (2022)
    yearly_gap: Dict[int, float]
    #: average number of affected-by-incorrect-CVE sites per week
    affected_by_incorrect: float


def refinement(
    store: ObservationStore, database: VulnerabilityDatabase
) -> RefinementResult:
    """Refined vulnerable-website estimate under TVV."""
    from .vulnerable import prevalence

    result = prevalence(store)
    yearly_gap = {}
    for year in sorted(result.yearly_share[MatchMode.CVE]):
        cve = result.yearly_share[MatchMode.CVE][year]
        tvv = result.yearly_share[MatchMode.TVV].get(year, cve)
        yearly_gap[year] = (tvv - cve) * 100.0

    # Sites affected by incorrect version info: union approximated by the
    # largest per-advisory |TVV - CVE| weekly gap among incorrect CVEs.
    incorrect = [
        a
        for a in database
        if classify_accuracy(a) in (RangeAccuracy.UNDERSTATED, RangeAccuracy.OVERSTATED)
    ]
    stated_columns, true_columns = _mode_columns(store)
    gaps = []
    for advisory in incorrect:
        stated = _weekly_counts(store, stated_columns, advisory.identifier)
        true = _weekly_counts(store, true_columns, advisory.identifier)
        gaps.append(
            sum(abs(t - s) for s, t in zip(stated, true)) / max(len(stated), 1)
        )
    return RefinementResult(
        average_share_cve=result.average_share[MatchMode.CVE],
        average_share_tvv=result.average_share[MatchMode.TVV],
        yearly_gap=yearly_gap,
        affected_by_incorrect=max(gaps) if gaps else 0.0,
    )


@dataclasses.dataclass
class IntervalComparison:
    """Figures 4/13: version-axis bands for one advisory."""

    advisory: Advisory
    all_versions: Tuple[str, ...]
    disclosed: Tuple[bool, ...]
    truly_vulnerable: Tuple[bool, ...]

    def understated_band(self) -> Tuple[str, ...]:
        return tuple(
            v
            for v, d, t in zip(self.all_versions, self.disclosed, self.truly_vulnerable)
            if t and not d
        )

    def overstated_band(self) -> Tuple[str, ...]:
        return tuple(
            v
            for v, d, t in zip(self.all_versions, self.disclosed, self.truly_vulnerable)
            if d and not t
        )


def interval_comparison(
    advisory: Advisory, catalog: Optional[ReleaseCatalog] = None
) -> IntervalComparison:
    """Figure 4/13 band data for one advisory."""
    if catalog is None:
        catalog = builtin_catalogs()[advisory.library]
    versions = tuple(str(v) for v in catalog.versions)
    disclosed = tuple(advisory.stated_range.contains(v) for v in versions)
    effective = advisory.effective_range
    truly = tuple(effective.contains(v) for v in versions)
    return IntervalComparison(
        advisory=advisory,
        all_versions=versions,
        disclosed=disclosed,
        truly_vulnerable=truly,
    )
