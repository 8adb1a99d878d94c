"""Section 6.2 / RQ1 / Figure 12: vulnerable-website prevalence.

The paper's headline: an average of 41.2% of websites carry at least one
known-vulnerable client-side library (43.2% under the corrected True
Vulnerable Versions), and the per-website vulnerability-count CDF shifts
right under TVV (mean 0.79 → 0.97).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..crawler.store import ObservationStore
from ..vulndb import MatchMode


@dataclasses.dataclass
class PrevalenceResult:
    """Weekly and average vulnerable-site shares under both modes."""

    dates: List[str]
    weekly_share: Dict[MatchMode, List[float]]
    average_share: Dict[MatchMode, float]
    #: average share per calendar year, per mode (the paper notes the
    #: CVE/TVV gap growing from 0.1% in 2018 to 2.9% in 2022)
    yearly_share: Dict[MatchMode, Dict[int, float]]

    @property
    def refinement_gap(self) -> float:
        """TVV share minus CVE share (paper: about +2 points)."""
        return self.average_share[MatchMode.TVV] - self.average_share[MatchMode.CVE]


@dataclasses.dataclass
class VulnCountCdf:
    """Figure 12: CDF of vulnerabilities per website."""

    #: mode -> sorted [(count, cumulative fraction of site-weeks)]
    cdf: Dict[MatchMode, List[Tuple[int, float]]]
    mean: Dict[MatchMode, float]
    median: Dict[MatchMode, float]

    def fraction_at_most(self, mode: MatchMode, count: int) -> float:
        result = 0.0
        for value, cumulative in self.cdf[mode]:
            if value <= count:
                result = cumulative
            else:
                break
        return result


def prevalence(store: ObservationStore) -> PrevalenceResult:
    """Weekly vulnerable-site shares (RQ1, Section 6.4 refinement)."""
    aggregates = store.ordered_weeks()
    dates = [agg.week.date.isoformat() for agg in aggregates]
    weekly: Dict[MatchMode, List[float]] = {MatchMode.CVE: [], MatchMode.TVV: []}
    yearly_sums: Dict[MatchMode, Dict[int, List[float]]] = {
        MatchMode.CVE: {},
        MatchMode.TVV: {},
    }
    for agg in aggregates:
        denominator = max(agg.collected, 1)
        for mode in (MatchMode.CVE, MatchMode.TVV):
            share = agg.vulnerable_sites[mode] / denominator
            weekly[mode].append(share)
            yearly_sums[mode].setdefault(agg.week.year, []).append(share)
    average = {
        mode: (sum(values) / len(values) if values else 0.0)
        for mode, values in weekly.items()
    }
    yearly = {
        mode: {
            year: sum(values) / len(values)
            for year, values in by_year.items()
            if values
        }
        for mode, by_year in yearly_sums.items()
    }
    return PrevalenceResult(
        dates=dates, weekly_share=weekly, average_share=average, yearly_share=yearly
    )


def vulnerability_cdf(store: ObservationStore) -> VulnCountCdf:
    """Figure 12 from the per-week vulnerability-count histograms."""
    cdf: Dict[MatchMode, List[Tuple[int, float]]] = {}
    mean: Dict[MatchMode, float] = {}
    median: Dict[MatchMode, float] = {}
    for mode in (MatchMode.CVE, MatchMode.TVV):
        histogram: Dict[int, int] = {}
        for agg in store.ordered_weeks():
            for count, sites in agg.vuln_count_hist[mode].items():
                histogram[count] = histogram.get(count, 0) + sites
        total = sum(histogram.values())
        if total == 0:
            cdf[mode] = []
            mean[mode] = 0.0
            median[mode] = 0.0
            continue
        running = 0
        points: List[Tuple[int, float]] = []
        median_value = 0.0
        for count in sorted(histogram):
            running += histogram[count]
            cumulative = running / total
            points.append((count, cumulative))
            if median_value == 0.0 and cumulative >= 0.5:
                median_value = float(count)
        cdf[mode] = points
        mean[mode] = sum(c * n for c, n in histogram.items()) / total
        median[mode] = median_value
    return VulnCountCdf(cdf=cdf, mean=mean, median=median)
