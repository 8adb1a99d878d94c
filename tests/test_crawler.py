"""Crawler: fetcher, filter, store, and full/manifest equivalence."""

import pytest

from repro.config import ScenarioConfig
from repro.crawler import AccessibilityFilter, Crawler, Fetcher
from repro.crawler.crawl import profile_from_manifest
from repro.crawler.fetch import FetchOutcome
from repro.errors import CrawlError
from repro.fingerprint import FingerprintEngine
from repro.netsim import StaticHost, VirtualNetwork, text_response
from repro.netsim.network import HostCondition
from repro.netsim.server import FunctionHost
from repro.webgen import WebEcosystem
from repro.webgen.domains import Reachability


class TestFetcher:
    def _network(self):
        network = VirtualNetwork()
        network.attach(
            "ok.example", StaticHost("ok.example", {"/": "<html>" + "x" * 500 + "</html>"})
        )
        return network

    def test_ok(self):
        result = Fetcher(self._network()).fetch_domain("ok.example")
        assert result.ok and result.status == 200 and result.size > 400

    def test_dns_failure(self):
        result = Fetcher(self._network()).fetch_domain("nxdomain.example")
        assert result.outcome is FetchOutcome.DNS_FAILURE
        assert not result.ok

    def test_http_error(self):
        network = self._network()
        result = Fetcher(network).fetch("https://ok.example/missing")
        assert result.outcome is FetchOutcome.HTTP_ERROR
        assert result.status == 404

    def test_retry_then_fail(self):
        network = self._network()
        network.failures.set_condition(
            "ok.example", HostCondition(connect_failure_rate=1.0)
        )
        result = Fetcher(network, retries=1).fetch_domain("ok.example")
        assert result.outcome is FetchOutcome.CONNECT_FAILURE
        assert result.attempts == 2

    def test_redirect_followed(self):
        network = VirtualNetwork()
        network.attach(
            "a.example",
            FunctionHost(
                "a.example",
                lambda req: text_response(
                    "", status=301, headers={"location": "https://b.example/"}
                ),
            ),
        )
        network.attach("b.example", StaticHost("b.example", {"/": "landed"}))
        result = Fetcher(network).fetch_domain("a.example")
        assert result.ok and result.text == "landed"

    def test_redirect_loop(self):
        network = VirtualNetwork()
        network.attach(
            "loop.example",
            FunctionHost(
                "loop.example",
                lambda req: text_response(
                    "", status=302, headers={"location": "https://loop.example/"}
                ),
            ),
        )
        result = Fetcher(network, max_redirects=3).fetch_domain("loop.example")
        assert result.outcome is FetchOutcome.REDIRECT_LOOP


class TestFetcherEdgeCases:
    """Boundary settings: zero retries, zero redirects, terminal 5xx."""

    def _flaky_network(self, condition):
        network = VirtualNetwork()
        network.attach("edge.example", StaticHost("edge.example", {"/": "body"}))
        network.failures.set_condition("edge.example", condition)
        return network

    @pytest.mark.parametrize(
        "condition, expected_outcome",
        [
            (
                HostCondition(connect_failure_rate=1.0),
                FetchOutcome.CONNECT_FAILURE,
            ),
            (HostCondition(timeout_rate=1.0), FetchOutcome.TIMEOUT),
        ],
        ids=["connect-failure", "timeout"],
    )
    def test_zero_retries_fails_after_one_attempt(
        self, condition, expected_outcome
    ):
        network = self._flaky_network(condition)
        result = Fetcher(network, retries=0).fetch_domain("edge.example")
        assert result.outcome is expected_outcome
        assert result.attempts == 1

    def test_zero_redirect_budget_rejects_any_redirect(self):
        network = VirtualNetwork()
        network.attach(
            "hop.example",
            FunctionHost(
                "hop.example",
                lambda req: text_response(
                    "", status=301, headers={"location": "https://end.example/"}
                ),
            ),
        )
        network.attach("end.example", StaticHost("end.example", {"/": "landed"}))
        result = Fetcher(network, max_redirects=0).fetch_domain("hop.example")
        assert result.outcome is FetchOutcome.REDIRECT_LOOP
        assert result.attempts == 1

    def test_redirect_chain_ending_in_5xx_is_terminal(self):
        # a 301s to b; b always answers 503.  The 5xx is an HTTP-level
        # outcome, not a transport failure, so even with a retry budget
        # the fetcher must not retry it.
        network = VirtualNetwork()
        network.attach(
            "a.example",
            FunctionHost(
                "a.example",
                lambda req: text_response(
                    "", status=301, headers={"location": "https://b.example/"}
                ),
            ),
        )
        network.attach("b.example", StaticHost("b.example", {"/": "fine"}))
        network.failures.set_condition(
            "b.example", HostCondition(server_error_rate=1.0)
        )
        result = Fetcher(network, retries=1).fetch_domain("a.example")
        assert result.outcome is FetchOutcome.HTTP_ERROR
        assert result.status == 503
        assert result.attempts == 1
        assert result.final_url == "https://b.example/"


class TestFilter:
    def test_filter_removes_dead_and_antibot(self):
        config = ScenarioConfig(population=300, seed=9)
        ecosystem = WebEcosystem(config)
        retained, report = AccessibilityFilter(ecosystem).run()
        assert report.total_domains == 300
        assert 0 < report.removed < 300
        for domain in ecosystem.population:
            if domain.reachability is Reachability.DEAD:
                assert domain.name not in retained
            if domain.reachability is Reachability.ANTIBOT:
                assert domain.name not in retained
            if domain.reachability is Reachability.STABLE:
                assert domain.name in retained

    def test_retained_fraction_near_paper(self):
        config = ScenarioConfig(population=1000, seed=10)
        _, report = AccessibilityFilter(WebEcosystem(config)).run()
        # The paper retained ~78% of the Alexa 1M on average.
        assert 0.65 < report.retained_fraction < 0.90


class TestCrawler:
    def test_unknown_mode_rejected(self):
        config = ScenarioConfig(population=50, seed=1)
        with pytest.raises(CrawlError):
            Crawler(WebEcosystem(config), mode="warp")

    def test_manifest_crawl_populates_store(self, study):
        report = study.crawl_report
        assert report.pages_collected > 0
        assert study.store.total_observations == report.pages_collected
        assert report.filter_report is not None

    def test_full_and_manifest_paths_equivalent(self):
        """The honest HTTP path and the fast path observe identically."""
        config = ScenarioConfig(population=120, seed=31)
        weeks = None

        eco_full = WebEcosystem(config)
        full = Crawler(eco_full, mode="full")
        report_full = full.run(weeks=eco_full.calendar.weeks[:6])

        eco_fast = WebEcosystem(config)
        fast = Crawler(eco_fast, mode="manifest")
        report_fast = fast.run(weeks=eco_fast.calendar.weeks[:6])

        assert report_full.pages_collected == report_fast.pages_collected
        for ordinal in range(6):
            a = full.store.weeks[ordinal]
            b = fast.store.weeks[ordinal]
            assert a.collected == b.collected
            assert dict(a.library_users) == dict(b.library_users)
            assert dict(a.version_counts) == dict(b.version_counts)
            assert dict(a.resource_counts) == dict(b.resource_counts)
            assert a.vulnerable_sites == b.vulnerable_sites
            assert a.wordpress_sites == b.wordpress_sites
            assert a.flash_sites == b.flash_sites
            assert a.sites_external_no_integrity == b.sites_external_no_integrity

    def test_reachable_fast_models_server_errors(self):
        """Regression: 5xx answers are terminal on the fast path too.

        With a nonzero flaky server-error rate, manifest-mode
        reachability must still match the full HTTP path (a 503 is an
        HTTP error the fetcher does not retry).
        """
        from repro.config import AccessibilityConfig
        from repro.crawler.persistence import store_to_bytes

        acc = AccessibilityConfig(flaky_server_error_rate=0.4)
        config = ScenarioConfig(population=200, seed=77, accessibility=acc)
        weeks = config.calendar.weeks[:6]

        eco_full = WebEcosystem(config)
        full = Crawler(eco_full, mode="full")
        report_full = full.run(weeks=weeks)

        eco_fast = WebEcosystem(config)
        fast = Crawler(eco_fast, mode="manifest")
        report_fast = fast.run(weeks=weeks)

        # Guard against vacuity: the schedule must actually draw 5xx.
        flaky = [
            d
            for d in eco_full.population
            if d.reachability is Reachability.FLAKY
        ]
        draws = sum(
            1
            for d in flaky
            for w in range(len(weeks))
            for attempt in (0, 1)
            if eco_full.network.failures.outcome(d.name, w, attempt)
            == "server_error"
        )
        assert draws > 0

        assert report_full.pages_collected == report_fast.pages_collected
        assert report_full.fetch_failures == report_fast.fetch_failures
        assert store_to_bytes(full.store) == store_to_bytes(fast.store)

    def test_profile_cache_counters(self):
        """Hit/miss accounting: one lookup per collected manifest page."""
        from repro.crawler.persistence import store_to_bytes
        from repro.options import ExecutionOptions, RunOptions

        config = ScenarioConfig(population=100, seed=7)
        weeks = config.calendar.weeks[:5]

        eco_on = WebEcosystem(config)
        on = Crawler(eco_on, mode="manifest", apply_filter=False)
        report_on = on.run(weeks=weeks)
        assert report_on.cache_hits > 0
        assert (
            report_on.cache_hits + report_on.cache_misses
            == report_on.pages_collected
        )
        assert 0.0 < report_on.cache_hit_rate < 1.0

        eco_off = WebEcosystem(config)
        off = Crawler(
            eco_off,
            mode="manifest",
            apply_filter=False,
            options=RunOptions(
                execution=ExecutionOptions(profile_cache=False)
            ),
        )
        report_off = off.run(weeks=weeks)
        assert report_off.cache_hits == 0 and report_off.cache_misses == 0
        assert store_to_bytes(on.store) == store_to_bytes(off.store)

    def test_manifest_mode_builds_no_engine(self):
        config = ScenarioConfig(population=50, seed=1)
        crawler = Crawler(WebEcosystem(config), mode="manifest")
        assert crawler.engine is None
        assert crawler.cdn_catalog is not None
        full = Crawler(WebEcosystem(config), mode="full")
        assert full.engine is not None
        assert full.cdn_catalog is full.engine.cdn_catalog

    def test_profile_from_manifest_equals_fingerprint(self, engine):
        """Per-page equivalence of the two observation paths."""
        config = ScenarioConfig(population=80, seed=13)
        ecosystem = WebEcosystem(config)
        checked = 0
        for domain in ecosystem.population:
            if domain.reachability in (Reachability.DEAD, Reachability.ANTIBOT):
                continue
            for ordinal in (0, 100, 200):
                manifest = ecosystem.manifest(domain, ordinal)
                fast = profile_from_manifest(manifest, engine.cdn_catalog)
                html = ecosystem.landing_page(domain, ordinal)
                full = engine.fingerprint(html, f"https://{domain.name}/")
                key = lambda p: sorted(
                    (d.library, d.version or "", d.external, d.cdn_host or "",
                     d.has_integrity, d.crossorigin or "")
                    for d in p.libraries
                )
                assert key(fast) == key(full), (domain.name, ordinal)
                assert fast.resource_types == full.resource_types
                assert fast.wordpress_version == full.wordpress_version
                assert len(fast.flash_embeds) == len(full.flash_embeds)
                assert sorted(fast.untrusted_scripts) == sorted(full.untrusted_scripts)
                checked += 1
        assert checked > 100


class TestStoreAggregates:
    def test_weekly_collected_below_population(self, store, small_config):
        for agg in store.ordered_weeks():
            assert agg.collected <= small_config.population

    def test_library_users_bounded_by_collected(self, store):
        for agg in store.ordered_weeks():
            for library, users in agg.library_users.items():
                assert users <= agg.collected, library

    def test_version_counts_sum_at_most_users(self, store):
        for agg in store.ordered_weeks():
            by_library = {}
            for (library, _), count in agg.version_counts.items():
                by_library[library] = by_library.get(library, 0) + count
            for library, total in by_library.items():
                assert total <= agg.library_users.get(library, 0), library

    def test_vuln_hist_consistent_with_vulnerable_sites(self, store):
        from repro.vulndb import MatchMode

        for agg in store.ordered_weeks():
            for mode in (MatchMode.CVE, MatchMode.TVV):
                hist = agg.vuln_count_hist[mode]
                vulnerable = sum(n for count, n in hist.items() if count > 0)
                assert vulnerable == agg.vulnerable_sites[mode]
                assert sum(hist.values()) == agg.collected

    def test_trajectories_compressed(self, store):
        for libs in store.trajectories.values():
            for trajectory in libs.values():
                for (w1, v1), (w2, v2) in zip(trajectory, trajectory[1:]):
                    assert w1 < w2
                    assert v1 != v2

    def test_ingest_unknown_week_rejected(self, study):
        from repro.errors import StoreError
        from repro.fingerprint import PageProfile
        from repro.timeline import Week
        import datetime

        bogus = Week(index=999, ordinal=999, date=datetime.date(2030, 1, 1))
        with pytest.raises(StoreError):
            study.store.ingest(
                study.ecosystem.population[0], bogus, PageProfile(page_host="x")
            )
