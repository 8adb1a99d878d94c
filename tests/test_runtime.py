"""Runtime layer: shard planning, store merging, backend equivalence.

The pipeline's determinism contract — same seed, same dataset, on every
backend and worker count — is enforced here, together with the exact
merge semantics (``merge(split(store)) == store``) and the persistence
codec's behaviour under merge.
"""

from __future__ import annotations

import pytest

from repro import ScenarioConfig, Study
from repro.crawler import Crawler, ObservationStore
from repro.crawler.persistence import store_from_bytes, store_to_bytes
from repro.errors import ConfigError, CrawlError, StoreError
from repro.fingerprint import FingerprintEngine
from repro.obs import Instruments
from repro.options import ExecutionOptions, RunOptions
from repro.runtime import (
    ProcessBackend,
    SerialBackend,
    ShardTask,
    execute_shard,
    get_backend,
    plan_shards,
)
from repro.vulndb import MatchMode, VersionMatcher, default_database
from repro.webgen import WebEcosystem

from conftest import count_calls


def _square(x):
    return x * x


class TestPlanner:
    @pytest.mark.parametrize(
        "n_weeks,n_domains,workers,shard_size",
        [
            (201, 500, 1, 0),
            (201, 500, 4, 0),
            (10, 3, 8, 0),
            (1, 100, 8, 0),
            (7, 7, 3, 5),
            (50, 200, 2, 999),
        ],
    )
    def test_covers_every_cell_exactly_once(
        self, n_weeks, n_domains, workers, shard_size
    ):
        shards = plan_shards(n_weeks, n_domains, workers, shard_size)
        seen = set()
        for shard in shards:
            for w in range(shard.week_start, shard.week_start + shard.week_count):
                for d in range(
                    shard.domain_start, shard.domain_start + shard.domain_count
                ):
                    assert (w, d) not in seen
                    seen.add((w, d))
        assert len(seen) == n_weeks * n_domains

    def test_week_runs_are_contiguous_and_balanced(self):
        shards = plan_shards(100, 2, workers=6)
        assert len(shards) >= 6
        # Trajectory-merge invariant: weeks form contiguous runs.
        for shard in shards:
            assert shard.week_count > 0 and shard.domain_count > 0
        cells = [s.cells for s in shards]
        assert max(cells) - min(cells) <= max(1, max(cells) // 2)

    def test_shard_size_bounds_cells(self):
        shards = plan_shards(40, 30, workers=1, shard_size=100)
        assert all(s.cells <= 100 for s in shards)
        assert len(shards) >= (40 * 30) // 100

    def test_empty_grid(self):
        assert plan_shards(0, 100, 4) == []
        assert plan_shards(100, 0, 4) == []

    def test_invalid_args_rejected(self):
        with pytest.raises(CrawlError):
            plan_shards(10, 10, workers=0)
        with pytest.raises(CrawlError):
            plan_shards(10, 10, workers=1, shard_size=-1)


class TestExecutionConfig:
    """The execution options: backend resolution, validation, backends."""

    def test_defaults_are_serial(self):
        options = ExecutionOptions()
        assert options.resolved_backend == "serial"

    def test_auto_promotes_with_workers(self):
        assert ExecutionOptions(workers=4).resolved_backend == "process"
        assert (
            ExecutionOptions(backend="serial", workers=4).resolved_backend
            == "serial"
        )

    def test_validation(self):
        for backend in ("gpu", "thread", "async"):
            with pytest.raises(ConfigError, match="unknown execution backend"):
                ExecutionOptions(backend=backend)
        with pytest.raises(ConfigError):
            ExecutionOptions(workers=0)
        with pytest.raises(ConfigError):
            ExecutionOptions(shard_size=-5)

    def test_get_backend(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process", 2), ProcessBackend)
        assert isinstance(get_backend("auto", 1), SerialBackend)
        assert isinstance(get_backend("auto", 2), ProcessBackend)
        # Validation is normalized in get_backend: unknown names and bad
        # worker counts both raise the typed ConfigError, for every
        # backend, before any constructor runs.
        for name in ("quantum", "thread", "async"):
            with pytest.raises(ConfigError, match="unknown execution backend"):
                get_backend(name)
        for name in ("serial", "process", "auto"):
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                get_backend(name, workers=0)

    def test_backends_map_in_task_order(self):
        tasks = list(range(7))
        expected = [x * x for x in tasks]
        assert SerialBackend().map(_square, tasks) == expected
        assert ProcessBackend(workers=2).map(_square, tasks) == expected


def _fresh_store(config):
    return ObservationStore(config.calendar, VersionMatcher(default_database()))


def _crawl_serial(config, weeks, mode="manifest"):
    ecosystem = WebEcosystem(config)
    store = _fresh_store(config)
    crawler = Crawler(ecosystem, store=store, mode=mode, apply_filter=False)
    crawler.crawl_block(weeks, list(ecosystem.population))
    return store


def _crawl_split(config, weeks, splits, mode="manifest"):
    """Crawl the same space as shards (per ``splits``) and merge."""
    merged = _fresh_store(config)
    for week_lo, week_hi, domain_lo, domain_hi in splits:
        ecosystem = WebEcosystem(config)
        store = _fresh_store(config)
        crawler = Crawler(ecosystem, store=store, mode=mode, apply_filter=False)
        domains = list(ecosystem.population)[domain_lo:domain_hi]
        crawler.crawl_block(weeks[week_lo:week_hi], domains)
        merged.merge(store)
    return merged


class TestStoreMerge:
    """merge(split(store)) round-trips exactly, on both split axes."""

    @pytest.fixture(scope="class")
    def split_config(self):
        return ScenarioConfig(population=100, seed=55)

    @pytest.fixture(scope="class")
    def split_weeks(self, split_config):
        return split_config.calendar.weeks[:24]

    @pytest.fixture(scope="class")
    def serial_store(self, split_config, split_weeks):
        return _crawl_serial(split_config, split_weeks)

    @pytest.mark.parametrize(
        "splits",
        [
            # domain-axis split (3 uneven chunks)
            [(0, 24, 0, 30), (0, 24, 30, 75), (0, 24, 75, 100)],
            # week-axis split (contiguous runs)
            [(0, 7, 0, 100), (7, 8, 0, 100), (8, 24, 0, 100)],
            # grid split
            [
                (0, 11, 0, 40),
                (0, 11, 40, 100),
                (11, 24, 0, 40),
                (11, 24, 40, 100),
            ],
        ],
        ids=["domains", "weeks", "grid"],
    )
    def test_merge_split_roundtrip(
        self, split_config, split_weeks, serial_store, splits
    ):
        merged = _crawl_split(split_config, split_weeks, splits)
        assert merged.total_observations == serial_store.total_observations
        assert merged.observed_domains == serial_store.observed_domains
        assert merged.trajectories == serial_store.trajectories
        assert merged.wp_trajectories == serial_store.wp_trajectories
        assert merged.flash_spans == serial_store.flash_spans
        assert dict(merged.untrusted_site_sets) == dict(
            serial_store.untrusted_site_sets
        )
        for ordinal, agg in serial_store.weeks.items():
            other = merged.weeks[ordinal]
            assert other.collected == agg.collected
            assert dict(other.version_counts) == dict(agg.version_counts)
            assert dict(other.library_users) == dict(agg.library_users)
            assert {k: dict(v) for k, v in other.cdn_hosts.items()} == {
                k: dict(v) for k, v in agg.cdn_hosts.items()
            }
            assert other.wordpress_sites == agg.wordpress_sites
            assert other.flash_sites == agg.flash_sites
            # Both vulnerability join caches merge exactly.
            for mode in (MatchMode.CVE, MatchMode.TVV):
                assert other.vulnerable_sites[mode] == agg.vulnerable_sites[mode]
                assert dict(other.vuln_count_hist[mode]) == dict(
                    agg.vuln_count_hist[mode]
                )
                assert dict(other.advisory_sites[mode]) == dict(
                    agg.advisory_sites[mode]
                )
        # Full canonical equality via the persistence codec.
        assert store_to_bytes(merged) == store_to_bytes(serial_store)

    def test_merge_is_associative(self, split_config, split_weeks, serial_store):
        splits = [(0, 24, 0, 30), (0, 24, 30, 75), (0, 24, 75, 100)]
        partials = []
        for week_lo, week_hi, domain_lo, domain_hi in splits:
            ecosystem = WebEcosystem(split_config)
            store = _fresh_store(split_config)
            Crawler(
                ecosystem, store=store, mode="manifest", apply_filter=False
            ).crawl_block(
                split_weeks[week_lo:week_hi],
                list(ecosystem.population)[domain_lo:domain_hi],
            )
            partials.append(store_to_bytes(store))

        def fold(order):
            acc = _fresh_store(split_config)
            for i in order:
                acc.merge(
                    store_from_bytes(partials[i], split_config.calendar)
                )
            return store_to_bytes(acc)

        assert fold([0, 1, 2]) == fold([2, 0, 1]) == store_to_bytes(serial_store)

    def test_merge_calendar_mismatch_rejected(self, split_config):
        from repro.timeline import StudyCalendar

        a = _fresh_store(split_config)
        other_cal = StudyCalendar(scheduled_weeks=10, pruned=())
        b = ObservationStore(other_cal, VersionMatcher(default_database()))
        with pytest.raises(StoreError):
            a.merge(b)

    def test_week_aggregate_merge_wrong_week_rejected(self, split_config):
        store = _fresh_store(split_config)
        with pytest.raises(StoreError):
            store.weeks[0].merge(store.weeks[1])


class TestBackendEquivalence:
    """Identical seed + config => identical results on every backend."""

    CONFIG = ScenarioConfig(population=150, seed=90)
    WEEKS = CONFIG.calendar.weeks[:10]

    @pytest.fixture(scope="class")
    def serial_study(self):
        study = Study(self.CONFIG)
        study.run(weeks=self.WEEKS)
        return study

    @pytest.mark.parametrize(
        "backend,workers,shard_size",
        [
            ("serial", 3, 0),
            ("process", 2, 0),
            ("serial", 2, 200),  # force week-axis sharding too
        ],
    )
    def test_sharded_matches_serial(self, serial_study, backend, workers, shard_size):
        study = Study(
            self.CONFIG,
            options=RunOptions(
                execution=ExecutionOptions(
                    workers=workers, backend=backend, shard_size=shard_size
                )
            ),
        )
        report = study.run(weeks=self.WEEKS)
        assert report.pages_collected == serial_study.crawl_report.pages_collected
        assert report.fetch_failures == serial_study.crawl_report.fetch_failures
        assert report.domains_crawled == serial_study.crawl_report.domains_crawled
        assert store_to_bytes(study.store) == store_to_bytes(serial_study.store)
        assert study.results() == serial_study.results()

    def test_full_mode_sharded_matches_serial(self):
        config = ScenarioConfig(population=80, seed=13)
        weeks = config.calendar.weeks[:6]
        serial = Study(config, mode="full")
        serial.run(weeks=weeks)
        sharded = Study(
            config,
            mode="full",
            options=RunOptions(
                execution=ExecutionOptions(workers=3, backend="serial")
            ),
        )
        sharded.run(weeks=weeks)
        assert store_to_bytes(sharded.store) == store_to_bytes(serial.store)


class TestIncrementalEquivalence:
    """The profile cache never changes the dataset, on any backend.

    A full crawl with the cache enabled must persist byte-identically to
    a cache-disabled crawl, across serial/process backends and
    odd shard sizes (shard boundaries reset the per-shard cache, so
    uneven shards exercise different hit patterns over the same data).
    """

    CONFIG = ScenarioConfig(population=80, seed=13)
    WEEKS = CONFIG.calendar.weeks[:6]

    @pytest.fixture(scope="class")
    def uncached_full(self):
        study = Study(
            self.CONFIG,
            mode="full",
            options=RunOptions(execution=ExecutionOptions(profile_cache=False)),
        )
        study.run(weeks=self.WEEKS)
        return study

    @pytest.mark.parametrize(
        "backend,workers,shard_size",
        [
            ("serial", 1, 0),
            ("serial", 1, 37),  # odd shard size, serial dispatch path
            ("serial", 3, 0),
            ("process", 2, 0),
            ("serial", 2, 113),  # odd shard size, forces week splits
        ],
    )
    def test_cached_full_crawl_matches_uncached(
        self, uncached_full, backend, workers, shard_size
    ):
        study = Study(
            self.CONFIG,
            mode="full",
            options=RunOptions(
                execution=ExecutionOptions(
                    workers=workers,
                    backend=backend,
                    shard_size=shard_size,
                    profile_cache=True,
                )
            ),
        )
        report = study.run(weeks=self.WEEKS)
        baseline = uncached_full.crawl_report
        assert report.pages_collected == baseline.pages_collected
        assert report.fetch_failures == baseline.fetch_failures
        assert report.cache_hits > 0
        # Byte-identical persisted stores: cache on == cache off.
        assert store_to_bytes(study.store) == store_to_bytes(uncached_full.store)

    def test_cache_disabled_reports_zero_counters(self, uncached_full):
        report = uncached_full.crawl_report
        assert report.cache_hits == 0
        assert report.cache_misses == 0
        assert report.cache_hit_rate == 0.0

    def test_incremental_override_reaches_workers(self):
        """The crawler's profile-cache option must travel into shards."""
        from repro.crawler import Crawler

        config = ScenarioConfig(population=60, seed=5)
        weeks = config.calendar.weeks[:4]
        ecosystem = WebEcosystem(config)
        crawler = Crawler(
            ecosystem,
            mode="manifest",
            apply_filter=False,
            options=RunOptions(
                execution=ExecutionOptions(
                    backend="serial", workers=2, profile_cache=False
                )
            ),
        )
        report = crawler.run(weeks=weeks)
        assert report.cache_hits == 0 and report.cache_misses == 0

    def test_shard_task_carries_the_profile_cache_option(self):
        """A shard's crawler reads its cache switch from the task."""
        config = ScenarioConfig(population=60, seed=5)
        weeks = tuple(w.ordinal for w in config.calendar.weeks[:4])
        names = tuple(d.name for d in WebEcosystem(config).population)

        def shard(profile_cache):
            payload = execute_shard(
                ShardTask(
                    config,
                    "manifest",
                    weeks,
                    names,
                    options=RunOptions(
                        execution=ExecutionOptions(profile_cache=profile_cache)
                    ),
                )
            )
            return (
                Instruments.from_payload(payload["metrics"]),
                store_to_bytes(payload["store"]),
            )

        (cached, cached_store), (uncached, uncached_store) = (
            shard(True),
            shard(False),
        )
        assert cached.counter("cache.hits") > 0
        assert uncached.counter("cache.hits") == 0
        assert uncached.counter("cache.misses") == 0
        assert uncached_store == cached_store

    def test_cache_hit_skips_render_and_fingerprint(self, monkeypatch):
        """A full-mode cache hit neither renders nor fingerprints.

        Counted calls, not wall time: over 150 domains x 10 weeks the
        uncached crawl renders and fingerprints each of its 1,288 pages
        once; the cached one does both only for the 143 pages whose
        site state it has not seen (1,155 hits, 145 misses), and saves
        the same store bytes.
        """
        calls = count_calls(
            monkeypatch,
            (WebEcosystem, "landing_page"),
            (FingerprintEngine, "fingerprint"),
        )
        config = ScenarioConfig(population=150, seed=77)

        def crawl(cache):
            for name in calls:
                calls[name] = 0
            crawler = Crawler(
                WebEcosystem(config),
                mode="full",
                apply_filter=False,
                options=RunOptions(
                    execution=ExecutionOptions(profile_cache=cache)
                ),
            )
            report = crawler.run(weeks=config.calendar.weeks[:10])
            return report, dict(calls), store_to_bytes(crawler.store)

        cold, cold_calls, cold_store = crawl(False)
        warm, warm_calls, warm_store = crawl(True)
        assert cold.pages_collected == warm.pages_collected == 1_288
        assert cold.fetch_failures == warm.fetch_failures
        assert cold_calls == {"landing_page": 1_288, "fingerprint": 1_288}
        assert (warm.cache_hits, warm.cache_misses) == (1_155, 145)
        assert warm.cache_hit_rate > 0.5
        assert warm_calls == {"landing_page": 143, "fingerprint": 143}
        assert warm_store == cold_store

    def test_manifest_mode_cached_matches_uncached(self):
        config = ScenarioConfig(population=100, seed=55)
        weeks = config.calendar.weeks[:8]
        def cache(enabled):
            return RunOptions(execution=ExecutionOptions(profile_cache=enabled))

        off = Study(config, options=cache(False))
        off.run(weeks=weeks)
        on = Study(config, options=cache(True))
        report = on.run(weeks=weeks)
        assert report.cache_hits > 0
        # Manifest mode looks up once per collected page.
        assert (
            report.cache_hits + report.cache_misses == report.pages_collected
        )
        assert store_to_bytes(on.store) == store_to_bytes(off.store)


class TestPersistenceUnderMerge:
    def test_merged_store_dict_roundtrip(self):
        config = ScenarioConfig(population=90, seed=21)
        weeks = config.calendar.weeks[:12]
        serial = _crawl_serial(config, weeks)
        merged = _crawl_split(
            config, weeks, [(0, 12, 0, 45), (0, 12, 45, 90)]
        )
        blob = store_to_bytes(merged)
        assert blob == store_to_bytes(serial)
        reloaded = store_from_bytes(blob, config.calendar)
        assert store_to_bytes(reloaded) == blob
        assert reloaded.trajectories == serial.trajectories
