"""Full study report: every table/figure rendered to text."""

from __future__ import annotations

from typing import List

from ..vulndb import MatchMode
from .series import render_series
from .tables import Table, format_count, format_percent


class StudyReport:
    """Renders a completed :class:`~repro.core.Study` to text.

    Args:
        study: A study on which ``run()`` has completed.
    """

    def __init__(self, study) -> None:
        self.study = study

    # ------------------------------------------------------------------
    def headline(self) -> str:
        return "\n".join(self.study.results().summary_lines())

    def table1(self) -> str:
        result = self.study.landscape()
        table = Table(
            [
                "library",
                "avg users",
                "usage",
                "internal",
                "CDN(ext)",
                "dominant",
                "dom share",
                "#vulns",
            ],
            title="Table 1 — Top-15 JavaScript library usage",
        )
        for row in result.rows:
            table.add_row(
                row.library,
                format_count(row.average_users),
                format_percent(row.usage_share),
                format_percent(row.internal_share),
                format_percent(row.cdn_share_of_external),
                row.dominant_version or "-",
                format_percent(row.dominant_version_share),
                row.vulnerability_count,
            )
        return table.render()

    def table2(self) -> str:
        summary = self.study.cve_accuracy_summary()
        table = Table(
            ["advisory", "library", "stated", "true", "verdict"],
            title="Table 2 — CVE range accuracy",
        )
        for verdict in summary.verdicts:
            advisory = verdict.advisory
            table.add_row(
                advisory.identifier,
                advisory.library,
                advisory.stated_range.describe(),
                advisory.true_range.describe() if advisory.true_range else "=",
                verdict.verdict.value,
            )
        return table.render()

    def figure2(self) -> str:
        collection = self.study.collection_series()
        resources = self.study.resource_usage()
        lines: List[str] = ["Figure 2(a) — collected websites per week"]
        lines.append(render_series(collection.dates, collection.collected, "collected"))
        lines.append("")
        lines.append("Figure 2(b) — resource usage (average share)")
        for resource, share in resources.ranked():
            lines.append(f"  {resource:15s} {format_percent(share)}")
        return "\n".join(lines)

    def figure7(self) -> str:
        trends = self.study.version_trends(
            "jquery", ["1.12.4", "3.5.0", "3.5.1", "3.6.0"]
        )
        lines = ["Figure 7(a) — jQuery 1.12.4 vs patched versions"]
        for version, series in trends.series.items():
            lines.append(render_series(trends.dates, series, f"jquery {version}"))
        return "\n".join(lines)

    def figure8(self) -> str:
        usage = self.study.flash_usage()
        lines = ["Figure 8 — Adobe Flash usage"]
        lines.append(render_series(usage.dates, usage.total, "flash sites (all)"))
        lines.append(render_series(usage.dates, usage.top10k, "flash sites (top10k)"))
        lines.append(
            f"average after EOL: {format_count(usage.average_after_eol)} sites"
        )
        return "\n".join(lines)

    def section7(self) -> str:
        delays = self.study.update_delays()
        table = Table(
            ["advisory", "updated", "censored", "mean days"],
            title="Section 7 — window of vulnerability",
        )
        for entry in delays.per_advisory:
            table.add_row(
                entry.advisory.identifier,
                entry.updated_sites,
                entry.censored_sites,
                f"{entry.mean_delay_days:,.0f}" if entry.mean_delay_days else "-",
            )
        footer = (
            f"\nmean across advisories: {delays.mean_delay_days:,.1f} days "
            f"({delays.total_updated_sites:,} updating sites)"
        )
        return table.render() + footer

    def analysis_index(self) -> str:
        """Registered analyses, rendered from the registry.

        Iterates :mod:`repro.analysis.api` instead of hand-wiring the
        module call shapes: every registered analysis appears with its
        paper artifact and the scenario pack the data came from.
        """
        from ..analysis.api import available_analyses, get_analysis

        pack = self.study.config.pack.describe()
        table = Table(
            ["analysis", "paper artifact"],
            title=f"Registered analyses (scenario pack: {pack})",
        )
        for name in available_analyses():
            table.add_row(name, get_analysis(name).title)
        return table.render()

    def render(self) -> str:
        """The full report."""
        sections = [
            "=" * 72,
            "Reproduction report — vulnerable client-side resources",
            "=" * 72,
            self.headline(),
            "",
            self.figure2(),
            "",
            self.table1(),
            "",
            self.table2(),
            "",
            self.figure7(),
            "",
            self.section7(),
            "",
            self.figure8(),
            "",
            self.analysis_index(),
        ]
        return "\n".join(sections)
