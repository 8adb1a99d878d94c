"""Regression analysis, store persistence, CLI."""

import re

import pytest

from repro.analysis.regressions import Regression, find_regressions
from repro.crawler.persistence import load_store, save_store
from repro.errors import StoreError
from repro.vulndb import MatchMode

from conftest import assert_same_reads


class TestRegressions:
    def test_no_false_positives_on_monotone_trajectories(self, store, matcher):
        result = find_regressions(store, matcher)
        # The generator never downgrades, so any regression here would be
        # a pipeline bug.
        assert result.downgrade_count == 0
        assert result.sites_with_updates > 0

    def test_detects_injected_downgrade(self, store, matcher):
        # Clone the trajectories and inject a rollback past a patch
        # boundary: 3.5.1 -> 1.12.4 re-enters four jQuery CVE ranges.
        hacked = store.trajectories.to_dict()
        hacked[999_999] = {"jquery": [(0, "3.5.1"), (50, "1.12.4")]}

        class _FakeStore:
            trajectories = hacked

        result = find_regressions(_FakeStore(), matcher)
        assert result.downgrade_count == 1
        regression = result.regressions[0]
        assert regression.is_security_regression
        assert "CVE-2020-11022" in regression.reintroduced
        assert result.by_library() == {"jquery": 1}

    def test_downgrade_without_security_impact(self, matcher):
        class _FakeStore:
            trajectories = {1: {"jquery": [(0, "3.6.0"), (10, "3.5.1")]}}

        result = find_regressions(_FakeStore(), matcher)
        assert result.downgrade_count == 1
        # 3.5.1 has no stated-range CVEs, so no security regression.
        assert not result.regressions[0].is_security_regression


class TestPersistence:
    def test_roundtrip(self, store, study, tmp_path):
        path = tmp_path / "store.bin"
        save_store(store, path)
        loaded = load_store(path, study.config.calendar)

        assert loaded.total_observations == store.total_observations
        assert loaded.observed_domains == store.observed_domains
        for ordinal in (0, 100, 200):
            a = store.weeks[ordinal]
            b = loaded.weeks[ordinal]
            assert a.collected == b.collected
            assert dict(a.version_counts) == dict(b.version_counts)
            assert dict(a.library_users) == dict(b.library_users)
            assert a.vulnerable_sites == b.vulnerable_sites
            assert dict(a.advisory_sites[MatchMode.TVV]) == dict(
                b.advisory_sites[MatchMode.TVV]
            )
        assert loaded.trajectories == store.trajectories
        assert loaded.flash_spans == store.flash_spans
        assert_same_reads(loaded, store, study.config)

    def test_analyses_identical_after_reload(self, store, study, tmp_path):
        from repro.analysis.vulnerable import prevalence

        path = tmp_path / "store.bin"
        save_store(store, path)
        loaded = load_store(path, study.config.calendar)
        assert (
            prevalence(loaded).average_share == prevalence(store).average_share
        )

    def test_store_writes_fsync_file_and_directory(
        self, store, tmp_path, monkeypatch
    ):
        import os
        import stat

        real_fsync = os.fsync
        synced = []

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        save_store(store, tmp_path / "store.bin")
        # The file's bytes first, then the directory holding its name.
        assert synced == [False, True]

    def test_nested_json_store_is_a_typed_error(self, study, tmp_path):
        path = tmp_path / "nested.json"
        path.write_bytes(b"[" * 200_000)
        with pytest.raises(StoreError, match="not a binary store blob") as caught:
            load_store(path, study.config.calendar)
        assert "magic b'[[[['" in caught.value.message
        assert caught.value.path == str(path)

    def test_backwards_trajectory_is_a_typed_store_error(self):
        # Two blocks crawled into one store out of calendar order — the
        # last month, then the four weeks before it: sites that changed
        # version between the two windows record a change at an earlier
        # week than their last one.  (A Study merges each run's shards,
        # so it never builds such a store.)
        from repro import ScenarioConfig
        from repro.crawler import Crawler
        from repro.crawler.persistence import store_to_bytes
        from repro.webgen import WebEcosystem

        config = ScenarioConfig(population=60, seed=21)
        crawler = Crawler(WebEcosystem(config), mode="manifest")
        domains = crawler.ecosystem.population.domains
        month = config.calendar.last_month()
        earlier = config.calendar.weeks[-8:-4]
        crawler.crawl_block(month, domains)
        store_to_bytes(crawler.store)  # one pass encodes
        crawler.crawl_block(earlier, domains)
        with pytest.raises(StoreError) as caught:
            store_to_bytes(crawler.store)
        found = re.fullmatch(
            r"site rank (\d+): the (.+) trajectory runs backwards "
            r"\(week (\d+) recorded after week (\d+)\)",
            caught.value.message,
        )
        assert found, caught.value.message
        rank, subject, week, previous = found.groups()
        assert int(rank) in crawler.store.observed_domains
        assert subject == "WordPress" or subject in crawler.store.symbols.library.symbols
        assert earlier[0].ordinal <= int(week) <= earlier[-1].ordinal
        assert month[0].ordinal <= int(previous) <= month[-1].ordinal


class TestRepeatedRuns:
    def test_second_run_over_crawled_weeks_is_refused(self, monkeypatch):
        from repro import ScenarioConfig, Study
        from repro.crawler.fetch import Fetcher
        from repro.crawler.filtering import AccessibilityFilter
        from repro.crawler.persistence import store_to_bytes
        from repro.errors import CrawlError

        study = Study(ScenarioConfig(population=60, seed=21))
        weeks = study.config.calendar.weeks
        study.run(weeks=weeks[:2])
        before = store_to_bytes(study.store)
        collected = study.store.weeks[0].collected

        def untouched(*args, **kwargs):
            raise AssertionError("a refused run must not probe or fetch")

        monkeypatch.setattr(AccessibilityFilter, "run", untouched)
        monkeypatch.setattr(Fetcher, "fetch_domain", untouched)
        with pytest.raises(CrawlError, match=r"week ordinals \[1\] "):
            study.run(weeks=weeks[1:3])
        with pytest.raises(CrawlError, match=r"week ordinals \[0, 1\] "):
            study.run(weeks=weeks[:2])
        assert study.store.weeks[0].collected == collected
        assert store_to_bytes(study.store) == before


class TestCli:
    def test_scan_vulnerable_file(self, tmp_path, capsys):
        from repro.cli import main

        page = tmp_path / "page.html"
        page.write_text('<script src="/js/jquery-1.12.4.min.js"></script>')
        exit_code = main(["scan", str(page)])
        output = capsys.readouterr().out
        assert exit_code == 1  # findings present
        assert "vulnerable-library" in output

    def test_scan_clean_file(self, tmp_path, capsys):
        from repro.cli import main

        pages = {
            "page.html": "<html><body>nothing here</body></html>",
            # Commented-out markup is not on the page, inline scripts
            # included.
            "commented.html": (
                "<html><body><!-- <script>/*! Bootstrap v3.3.7 */</script> -->"
                "</body></html>"
            ),
        }
        for name, html in pages.items():
            page = tmp_path / name
            page.write_text(html)
            assert main(["scan", str(page)]) == 0, name

    def test_scan_missing_file(self, capsys):
        from repro.cli import main

        assert main(["scan", "/no/such/file.html"]) == 2

    def test_validate(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        output = capsys.readouterr().out
        assert "understated" in output and "CVE-2020-7656" in output

    def test_run_small(self, tmp_path, capsys):
        from repro.cli import main

        store_path = tmp_path / "s.bin"
        code = main(
            [
                "run",
                "--population",
                "60",
                "--seed",
                "5",
                "--save-store",
                str(store_path),
            ]
        )
        assert code == 0
        assert store_path.exists()
        output = capsys.readouterr().out
        assert "Table 1" in output

    def test_run_weeks_and_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--population",
                "60",
                "--seed",
                "5",
                "--weeks",
                "6",
                "--workers",
                "2",
                "--backend",
                "serial",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "x 6 weeks" in captured.err
        assert "serial backend, 2 workers" in captured.err
        assert " in " in captured.err and "s (" in captured.err  # timing

    def test_run_invalid_weeks(self, capsys):
        from repro.cli import main

        assert main(["run", "--population", "60", "--weeks", "0"]) == 2

    def test_run_invalid_population(self, capsys):
        from repro.cli import main

        assert main(["run", "--population", "0", "--weeks", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: population must be positive\n"
        assert captured.out == ""

    def test_run_with_fault_plan_reports_degradation(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--population",
                "60",
                "--seed",
                "5",
                "--weeks",
                "3",
                "--workers",
                "2",
                "--backend",
                "serial",
                "--fault-plan",
                "seed=1,crash=1.0",
                "--max-shard-retries",
                "1",
            ]
        )
        assert code == 0  # a degraded run still completes and reports
        captured = capsys.readouterr()
        assert "fault plan [seed=1,crash=1]" in captured.err
        assert "shards dropped" in captured.err
        assert "simulated backoff" in captured.err
        assert "injected worker crash" in captured.err

    def test_run_rejects_bad_fault_plan_and_retries(self, capsys):
        from repro.cli import main

        assert main(["run", "--fault-plan", "bogus=1"]) == 2
        assert "unknown fault-plan key" in capsys.readouterr().err
        assert main(["run", "--max-shard-retries", "-1"]) == 2
