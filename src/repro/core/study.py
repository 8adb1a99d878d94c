"""The top-level study pipeline.

Typical use::

    from repro import Study, ScenarioConfig

    study = Study(ScenarioConfig(population=5000))
    study.run()                       # build ecosystem, crawl 201 weeks
    print(study.results().summary_lines())
    table1 = study.landscape()        # Table 1 / Figure 3 / Table 5
    delays = study.update_delays()    # Section 7

``mode="manifest"`` (the default) runs the fast observation path;
``mode="full"`` drives real HTTP fetches + HTML fingerprinting over the
virtual network — the two are observation-equivalent (tested).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import (
    cve_accuracy,
    dominant,
    external,
    flash as flash_analysis,
    integrity_check,
    landscape as landscape_analysis,
    overview,
    updates as updates_analysis,
    vulnerable,
    wordpress as wordpress_analysis,
)
from ..config import ScenarioConfig, default_scenario
from ..crawler import Crawler, CrawlReport, ObservationStore
from ..durable import atomic_write_bytes
from ..errors import AnalysisError
from ..options import RunOptions
from ..poclab import ValidationLab
from ..vulndb import (
    MatchMode,
    VersionMatcher,
    VulnerabilityDatabase,
    default_database,
)
from ..webgen import WebEcosystem
from .results import StudyResults


class Study:
    """One end-to-end reproduction run.

    Args:
        config: Scenario configuration (population, seed, behaviour).
        database: Vulnerability database override (defaults to the
            paper's Table 2/4 + Flash data).
        mode: ``"manifest"`` (fast) or ``"full"`` (HTTP + fingerprint).
        options: How the study runs (:class:`~repro.RunOptions`),
            grouped by concern — execution (workers, backend, shard
            size, profile cache), resilience (fault plan, retries,
            failure policy), durability (checkpoint dir, resume), and
            observability (``metrics_out``).  They
            never touch ``config``: no option changes the dataset.
    """

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        database: Optional[VulnerabilityDatabase] = None,
        mode: str = "manifest",
        options: Optional[RunOptions] = None,
    ) -> None:
        self.options = options if options is not None else RunOptions()
        self.config = config or default_scenario()
        self.database = database or default_database()
        if self.config.cve_drift.enabled:
            # Scenario-pack drift is dataset identity: the matcher built
            # below ingests against the drifted stated ranges, so store
            # bytes change with the drift config (and only then).
            from ..vulndb.drift import drifted_database

            self.database = drifted_database(self.database, self.config.cve_drift)
        self.matcher = VersionMatcher(self.database)
        self.mode = mode
        self.ecosystem = WebEcosystem(self.config)
        self.store = ObservationStore(self.config.calendar, self.matcher)
        self._crawl_report: Optional[CrawlReport] = None

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def run(self, weeks=None) -> CrawlReport:
        """Crawl ``weeks`` (default: the whole calendar) into this study's store.

        A week whose pages the store already holds is refused with
        :class:`~repro.errors.CrawlError` before anything is probed (a
        second crawl would count them twice); use a new ``Study`` to
        crawl it again.  Each run folds its shards into the store, so
        a window may precede the one crawled before it: crawling the
        last month and then the four weeks before it saves the store
        that crawling the two windows in calendar order saves.

        With ``options.observability.metrics_out`` set, the report's
        canonical metrics document is written there after the crawl —
        deterministic JSON, byte-identical across backends and
        kill/resume (see :mod:`repro.obs`).
        """
        crawler = Crawler(
            self.ecosystem,
            store=self.store,
            mode=self.mode,
            options=self.options,
        )
        self._crawl_report = crawler.run(weeks=weeks)
        metrics_out = self.options.observability.metrics_out
        if metrics_out:
            atomic_write_bytes(
                metrics_out,
                self._crawl_report.metrics.canonical_json().encode("utf-8"),
            )
        return self._crawl_report

    @property
    def crawl_report(self) -> CrawlReport:
        if self._crawl_report is None:
            raise AnalysisError("Study.run() has not been called yet")
        return self._crawl_report

    def _require_run(self) -> ObservationStore:
        if self._crawl_report is None:
            raise AnalysisError("Study.run() has not been called yet")
        return self.store

    # ------------------------------------------------------------------
    # Analyses (one method per paper artifact family)
    # ------------------------------------------------------------------
    def collection_series(self) -> overview.CollectionSeries:
        """Figure 2(a)."""
        return overview.collection_series(self._require_run())

    def resource_usage(self) -> overview.ResourceUsage:
        """Figure 2(b)."""
        return overview.resource_usage(self._require_run())

    def landscape(self) -> landscape_analysis.LandscapeResult:
        """Table 1 / Figure 3 / Table 5."""
        return landscape_analysis.analyze(self._require_run(), self.database)

    def prevalence(self) -> vulnerable.PrevalenceResult:
        """RQ1 / Section 6.2 + 6.4 refinement."""
        return vulnerable.prevalence(self._require_run())

    def vulnerability_cdf(self) -> vulnerable.VulnCountCdf:
        """Figure 12."""
        return vulnerable.vulnerability_cdf(self._require_run())

    def dominant_versions(self) -> List[dominant.DominantVersion]:
        """Section 6.3."""
        from ..webgen.libraries import TOP15_ORDER

        return dominant.dominant_versions(
            self._require_run(), self.matcher, TOP15_ORDER
        )

    def discontinued(self) -> List[dominant.DiscontinuedUsage]:
        return dominant.discontinued_usage(self._require_run())

    def cookie_migration(self) -> dominant.MigrationResult:
        return dominant.cookie_migration(self._require_run())

    def cve_accuracy_summary(self) -> cve_accuracy.AccuracySummary:
        """Table 2 verdicts (recorded TVV), top-15 libraries only."""
        from ..webgen.libraries import TOP15_ORDER

        return cve_accuracy.classify_all(self.database, libraries=TOP15_ORDER)

    def poc_lab(self) -> ValidationLab:
        """The Section 6.4 validation lab (sweeps discover TVVs)."""
        return ValidationLab(self.database)

    def affected_series(self, advisory_id: str) -> cve_accuracy.AffectedSeries:
        """Figures 5/14 for one advisory."""
        return cve_accuracy.affected_series(
            self._require_run(), self.database.get(advisory_id)
        )

    def refinement(self) -> cve_accuracy.RefinementResult:
        """Section 6.4 takeaways."""
        return cve_accuracy.refinement(self._require_run(), self.database)

    def sri(self) -> external.SriResult:
        """Figure 10 + crossorigin stats."""
        return external.sri_adoption(self._require_run())

    def untrusted(self) -> external.UntrustedResult:
        """Table 6."""
        return external.untrusted_hosting(self._require_run())

    def update_delays(self, mode: MatchMode = MatchMode.CVE):
        """RQ2 / Section 7."""
        return updates_analysis.update_delays(
            self._require_run(), self.database, mode=mode
        )

    def understatement_penalty(self):
        """Section 7's 701.2 vs 510 days comparison."""
        return updates_analysis.understatement_penalty(
            self._require_run(), self.database
        )

    def version_trends(self, library: str, versions) -> updates_analysis.VersionTrends:
        """Figures 6 / 7(a) / 15."""
        return updates_analysis.version_trends(
            self._require_run(), library, versions
        )

    def wordpress_jquery_trends(self, versions) -> updates_analysis.VersionTrends:
        """Figure 7(b)."""
        return updates_analysis.wordpress_jquery_trends(
            self._require_run(), versions
        )

    def flash_usage(self) -> flash_analysis.FlashUsageResult:
        """Figure 8."""
        return flash_analysis.flash_usage(self._require_run())

    def flash_script_access(self) -> flash_analysis.ScriptAccessResult:
        """Figure 11."""
        return flash_analysis.script_access(self._require_run())

    def flash_case_study(self) -> List[flash_analysis.CaseStudyRow]:
        """Section 8's top-10K survivors."""
        return flash_analysis.top10k_case_study(
            self._require_run(), self.ecosystem.population, self.ecosystem
        )

    def wordpress_usage(self) -> wordpress_analysis.WordPressUsage:
        """Figure 9."""
        return wordpress_analysis.usage(self._require_run())

    def wordpress_cves(self) -> List[wordpress_analysis.WordPressCveRow]:
        """Table 4."""
        return wordpress_analysis.cve_exposure(self._require_run(), self.database)

    def hash_audit(self, max_domains: Optional[int] = 200):
        """Section 9 validity experiment."""
        return integrity_check.hash_audit(self.ecosystem, max_domains=max_domains)

    # ------------------------------------------------------------------
    # Registered-analysis API (repro.analysis.api)
    # ------------------------------------------------------------------
    def analysis_context(self):
        """The :class:`~repro.analysis.AnalysisContext` for this study."""
        from ..analysis.api import AnalysisContext

        return AnalysisContext(
            config=self.config, database=self.database, matcher=self.matcher
        )

    def run_registered(self, names: Optional[Tuple[str, ...]] = None) -> Dict:
        """Run registered analyses by name → canonical-dict results.

        The uniform path the orchestrator fold and sweep engine use;
        ``names=None`` runs every registered analysis.
        """
        from ..analysis.api import run_analyses

        return run_analyses(self._require_run(), self.analysis_context(), names)

    # ------------------------------------------------------------------
    # Headline summary
    # ------------------------------------------------------------------
    def results(self) -> StudyResults:
        """The paper's headline numbers for this run."""
        store = self._require_run()
        prevalence_result = self.prevalence()
        cdf = self.vulnerability_cdf()
        jquery_share = store.average(
            lambda a: a.library_users.get("jquery", 0) / max(a.collected, 1)
        )
        wordpress_share = store.average(
            lambda a: a.wordpress_sites / max(a.collected, 1)
        )
        sri_result = self.sri()
        delays = self.update_delays()
        accuracy = self.cve_accuracy_summary()
        flash_result = self.flash_usage()
        return StudyResults(
            population=self.config.population,
            scale_factor=self.config.scale_factor,
            average_weekly_collected=store.average_collected(),
            vulnerable_share=dict(prevalence_result.average_share),
            mean_vulns_per_site=dict(cdf.mean),
            jquery_usage_share=jquery_share,
            wordpress_share=wordpress_share,
            flash_average_after_eol=flash_result.average_after_eol,
            sri_missing_share=sri_result.average_missing_share,
            mean_update_delay_days=delays.mean_delay_days,
            updated_sites=delays.total_updated_sites,
            incorrect_cves=accuracy.incorrect_cves,
            # The paper's "27 CVEs" counts all validated advisories (26
            # CVE reports + the unassigned jQuery-Migrate advisory).
            total_cves=len(accuracy.verdicts),
        )
