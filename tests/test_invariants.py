"""Property-based invariant harness for the sharded, fault-tolerant crawl.

Fuzzes seeds × shard sizes × backends × fault plans (via the stdlib-only
generators in ``proptest.py``) and asserts the pipeline's standing
contracts *exactly* — byte-identical persisted stores, not statistical
similarity:

* faults off: every backend and shard size produces the bit-identical
  store a serial pass produces;
* faults on: two runs with the same (scenario seed, fault plan) produce
  identical :class:`~repro.crawler.CrawlReport`\\ s — including
  dropped-shard accounting and simulated backoff — and identical stores,
  on every backend;
* ``ObservationStore.merge`` is associative and commutative over random
  contiguous grid partitions;
* the profile cache never changes bytes, even under injected 5xx /
  timeout schedules;
* conservation: every ``weeks × domains`` cell is accounted for as a
  page, a fetch failure, or a dropped cell;
* the canonical metrics document (:mod:`repro.obs`) obeys the same
  tiers: byte-identical across backends for a fixed shard plan (even
  degraded and killed-and-resumed runs), dataset-tier identical across
  shard sizes, worker counts, and cache settings.

All of it runs without wall-clock sleeps (enforced below) on one CPU.
"""

from __future__ import annotations

import time

import pytest

import proptest

from repro import FaultPlan, ScenarioConfig
from repro.config import AccessibilityConfig
from repro.crawler import Crawler, ObservationStore
from repro.crawler.persistence import store_from_bytes, store_to_bytes
from repro.options import (
    DurabilityOptions,
    ExecutionOptions,
    ResilienceOptions,
    RunOptions,
)
from repro.vulndb import VersionMatcher, default_database
from repro.webgen import WebEcosystem


@pytest.fixture(autouse=True)
def forbid_real_sleeps(monkeypatch):
    """The chaos layer's backoff is simulated; real sleeps are a bug."""

    def _no_sleep(seconds):
        raise AssertionError(
            f"time.sleep({seconds!r}) called during a chaos test - "
            f"backoff must use the simulated clock"
        )

    monkeypatch.setattr(time, "sleep", _no_sleep)


def _fresh_store(config):
    return ObservationStore(config.calendar, VersionMatcher(default_database()))


def _serial_baseline(config, weeks, mode="manifest"):
    ecosystem = WebEcosystem(config)
    store = _fresh_store(config)
    Crawler(ecosystem, store=store, mode=mode, apply_filter=False).crawl_block(
        weeks, list(ecosystem.population)
    )
    return store_to_bytes(store)


def _run_crawler(
    config,
    weeks,
    mode="manifest",
    backend="serial",
    workers=1,
    shard_size=0,
    max_retries=2,
    plan=None,
    profile_cache=True,
    checkpoint_dir=None,
    resume=False,
):
    crawler = Crawler(
        WebEcosystem(config),
        mode=mode,
        apply_filter=False,
        options=RunOptions(
            execution=ExecutionOptions(
                backend=backend,
                workers=workers,
                shard_size=shard_size,
                profile_cache=profile_cache,
            ),
            resilience=ResilienceOptions(
                fault_plan=plan, max_shard_retries=max_retries
            ),
            durability=DurabilityOptions(
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
                resume=resume,
            ),
        ),
    )
    report = crawler.run(weeks=weeks)
    return report, store_to_bytes(crawler.store)


class TestBackendIdentityFaultFree:
    """Faults off: execution shape can never change a byte."""

    def test_stores_identical_across_backends_and_shard_sizes(self):
        def prop(rng, seed):
            config = ScenarioConfig(
                population=rng.choice((30, 40, 50)), seed=seed
            )
            n_weeks = rng.randint(3, 5)
            weeks = config.calendar.weeks[:n_weeks]
            baseline = _serial_baseline(config, weeks)
            for backend in ("serial", "process"):
                workers = rng.randint(2, 3)
                shard_size = rng.choice((0, rng.randint(7, 60)))
                report, store = _run_crawler(
                    config,
                    weeks,
                    backend=backend,
                    workers=workers,
                    shard_size=shard_size,
                )
                assert store == baseline, (
                    f"{backend} x{workers} shard_size={shard_size} diverged"
                )
                assert not report.degraded
                assert report.shard_retries == 0
                assert report.backoff_seconds == 0.0

        proptest.forall(prop)


class TestFaultDeterminism:
    """Same (scenario seed, plan) => the identical degraded run."""

    def test_fault_runs_reproduce_exactly(self):
        def prop(rng, seed):
            config = ScenarioConfig(population=40, seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            plan = proptest.fault_plan(rng, [w.ordinal for w in weeks])
            shard_size = rng.randint(10, 50)
            max_retries = rng.randint(0, 2)

            first = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                max_retries=max_retries,
                plan=plan,
            )
            second = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                max_retries=max_retries,
                plan=plan,
            )
            report, store = first
            report2, store2 = second
            # CrawlReport equality covers the dropped-shard accounting,
            # retry counts, simulated backoff, and error lines.
            assert report == report2
            assert store == store2

            # The same plan on the process backend drops the same shards
            # and produces the same bytes.
            report3, store3 = _run_crawler(
                config,
                weeks,
                backend="process",
                workers=3,
                shard_size=shard_size,
                max_retries=max_retries,
                plan=plan,
            )
            assert store3 == store
            assert report3.dropped_shards == report.dropped_shards
            assert report3.dropped_cells == report.dropped_cells
            assert report3.shard_retries == report.shard_retries
            assert report3.backoff_seconds == report.backoff_seconds
            # Error lines match up to the backend name baked into each
            # shard description.
            assert tuple(
                line.replace("backend process", "backend serial")
                for line in report3.shard_errors
            ) == report.shard_errors

        proptest.forall(prop)

    def test_every_cell_is_accounted_for(self):
        """pages + fetch failures + dropped cells == the full grid."""

        def prop(rng, seed):
            config = ScenarioConfig(population=40, seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            plan = proptest.fault_plan(rng, [w.ordinal for w in weeks])
            report, _ = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=rng.randint(10, 40),
                max_retries=rng.randint(0, 1),
                plan=plan,
            )
            grid = len(weeks) * config.population
            assert (
                report.pages_collected
                + report.fetch_failures
                + report.dropped_cells
                == grid
            )

        proptest.forall(prop)


class TestMergeAlgebra:
    """merge() is associative and commutative over contiguous partitions."""

    def test_random_grid_partitions_reassemble_exactly(self):
        def prop(rng, seed):
            config = ScenarioConfig(population=40, seed=seed)
            n_weeks = rng.randint(3, 5)
            weeks = config.calendar.weeks[:n_weeks]
            baseline = _serial_baseline(config, weeks)

            splits = proptest.grid_splits(rng, n_weeks, config.population)
            partials = []
            for week_lo, week_hi, domain_lo, domain_hi in splits:
                ecosystem = WebEcosystem(config)
                store = _fresh_store(config)
                Crawler(
                    ecosystem, store=store, mode="manifest", apply_filter=False
                ).crawl_block(
                    weeks[week_lo:week_hi],
                    list(ecosystem.population)[domain_lo:domain_hi],
                )
                partials.append(store_to_bytes(store))

            def fold(order):
                acc = _fresh_store(config)
                for i in order:
                    acc.merge(store_from_bytes(partials[i], config.calendar))
                return store_to_bytes(acc)

            identity = list(range(len(partials)))
            shuffled = identity[:]
            rng.shuffle(shuffled)
            assert fold(identity) == baseline
            assert fold(shuffled) == baseline

        proptest.forall(prop)


class TestCacheIdentityUnderFaults:
    """The profile cache never changes bytes — even mid-surge."""

    def test_cache_on_off_identical_under_5xx_and_timeouts(self):
        def prop(rng, seed):
            accessibility = AccessibilityConfig(flaky_server_error_rate=0.25)
            config = ScenarioConfig(
                population=36, seed=seed, accessibility=accessibility
            )
            weeks = config.calendar.weeks[:4]
            ordinals = [w.ordinal for w in weeks]
            surge_lo = rng.randrange(len(ordinals) - 1)
            plan = FaultPlan(
                seed=rng.randrange(1 << 16),
                surge_weeks=tuple(ordinals[surge_lo : surge_lo + 2]),
                surge_server_error_rate=0.4,
                surge_timeout_rate=0.3,
            )
            mode = rng.choice(("full", "manifest"))
            shard_size = rng.choice((0, rng.randint(20, 60)))
            on = _run_crawler(
                config,
                weeks,
                mode=mode,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                plan=plan,
                profile_cache=True,
            )
            off = _run_crawler(
                config,
                weeks,
                mode=mode,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                plan=plan,
                profile_cache=False,
            )
            assert on[1] == off[1], f"{mode} cache on/off diverged"
            assert on[0].fetch_failures == off[0].fetch_failures
            assert off[0].cache_hits == 0 and off[0].cache_misses == 0

        proptest.forall(prop)

    def test_full_and_manifest_agree_under_surge(self):
        """The surge mirrors the fetcher's semantics in manifest mode."""

        def prop(rng, seed):
            config = ScenarioConfig(population=30, seed=seed)
            weeks = config.calendar.weeks[:3]
            plan = FaultPlan(
                seed=seed,
                surge_weeks=tuple(w.ordinal for w in weeks[1:]),
                surge_connect_failure_rate=0.2,
                surge_timeout_rate=0.3,
                surge_server_error_rate=0.4,
            )
            full = _run_crawler(config, weeks, mode="full", plan=plan)
            manifest = _run_crawler(config, weeks, mode="manifest", plan=plan)
            assert full[1] == manifest[1]
            assert full[0].fetch_failures == manifest[0].fetch_failures

        proptest.forall(prop)


class TestProcessBackendFaultPath:
    """Injected faults must survive the pickle boundary (one small case)."""

    def test_injected_crash_crosses_process_pool(self):
        config = ScenarioConfig(population=20, seed=7)
        weeks = config.calendar.weeks[:2]
        plan = FaultPlan(seed=1, crash_rate=1.0)
        report, store = _run_crawler(
            config,
            weeks,
            backend="process",
            workers=2,
            max_retries=1,
            plan=plan,
        )
        # crash_rate=1.0 crashes every attempt: everything drops, the
        # run still completes, and the accounting is exact.
        assert report.degraded
        assert report.pages_collected == 0 and report.fetch_failures == 0
        assert report.dropped_cells == len(weeks) * config.population
        assert all("injected worker crash" in line for line in report.shard_errors)
        serial_report, serial_store = _run_crawler(
            config,
            weeks,
            backend="serial",
            workers=2,
            max_retries=1,
            plan=plan,
        )
        assert store == serial_store
        assert report.dropped_shards == serial_report.dropped_shards
        assert report.backoff_seconds == serial_report.backoff_seconds


class TestMetricsIdentity:
    """repro.obs determinism tiers, property-tested end to end."""

    def test_canonical_document_identical_across_backends(self):
        """Fixed (plan, cache): every backend exports the same bytes.

        Includes one-worker serial plans, whose one shard runs in this
        process and hands its live store to the fold.
        """

        def prop(rng, seed):
            config = ScenarioConfig(population=rng.choice((30, 40)), seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            workers = rng.randint(1, 3)
            shard_size = rng.choice((0, rng.randint(10, 60)))
            plan = None
            if rng.random() < 0.4:
                plan = proptest.fault_plan(rng, [w.ordinal for w in weeks])
            docs = {}
            for backend in ("serial", "process"):
                report, _ = _run_crawler(
                    config,
                    weeks,
                    backend=backend,
                    workers=workers,
                    shard_size=shard_size,
                    plan=plan,
                )
                docs[backend] = report.metrics.canonical_json()
                assert "backend" not in docs[backend]
            assert docs["serial"] == docs["process"], (
                f"workers={workers} shard_size={shard_size} "
                f"plan={'yes' if plan else 'no'}"
            )

        proptest.forall(prop)

    def test_dataset_tier_invariant_under_every_execution_knob(self):
        """Per-page facts never move with sharding, workers, or cache."""
        import json

        def prop(rng, seed):
            config = ScenarioConfig(population=40, seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]

            def dataset(**kwargs):
                report, _ = _run_crawler(config, weeks, **kwargs)
                document = json.loads(report.metrics.canonical_json())
                return json.dumps(document["dataset"], sort_keys=True)

            baseline = dataset()
            for _ in range(2):
                variant = dataset(
                    backend=rng.choice(("serial", "process")),
                    workers=rng.randint(1, 3),
                    shard_size=rng.choice((0, rng.randint(7, 50))),
                    profile_cache=rng.choice((True, False)),
                )
                assert variant == baseline

        proptest.forall(prop)

    def test_conservation_holds_inside_the_metrics_document(self):
        """The exported counters obey the cell-conservation law too."""
        import json

        def prop(rng, seed):
            config = ScenarioConfig(population=40, seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            plan = proptest.fault_plan(rng, [w.ordinal for w in weeks])
            report, _ = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=rng.randint(10, 40),
                max_retries=rng.randint(0, 1),
                plan=plan,
            )
            document = json.loads(report.metrics.canonical_json())
            dataset = document["dataset"]
            assert (
                dataset["pages_collected"]
                + dataset["fetch_failures"]
                + dataset["dropped_cells"]
                == len(weeks) * config.population
            )
            # And the document always passes its own schema.
            from repro.obs import validate_metrics

            assert validate_metrics(document) == []

        proptest.forall(prop)

    def test_killed_and_resumed_run_exports_identical_bytes(self, tmp_path):
        """Kill/resume cannot move a single canonical byte.

        The resumed run replays journaled shards and re-executes the
        rest, yet its ``--metrics-out`` document — including the derived
        retry/backoff accounting — is byte-identical to the
        uninterrupted run's.
        """

        def prop(rng, seed):
            config = ScenarioConfig(population=30, seed=seed)
            weeks = config.calendar.weeks[:3]
            plan = None
            if rng.random() < 0.5:
                plan = FaultPlan(seed=seed, crash_rate=0.3)
            shard_size = rng.randint(15, 50)

            uninterrupted = tmp_path / f"whole-{seed}"
            report1, store1 = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                plan=plan,
                checkpoint_dir=uninterrupted,
            )

            # "Kill" a second, identical run by damaging its journal:
            # delete a random subset of entries and truncate a survivor.
            killed = tmp_path / f"killed-{seed}"
            _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                plan=plan,
                checkpoint_dir=killed,
            )
            entries = sorted((killed / "journal").glob("shard-*.wal"))
            for entry in entries:
                if rng.random() < 0.5:
                    entry.unlink()
                elif rng.random() < 0.3:
                    entry.write_bytes(entry.read_bytes()[:40])
            report2, store2 = _run_crawler(
                config,
                weeks,
                backend=rng.choice(("serial", "process")),
                workers=2,
                plan=plan,
                checkpoint_dir=killed,
                resume=True,
            )
            assert store2 == store1
            assert (
                report2.metrics.canonical_json()
                == report1.metrics.canonical_json()
            )
            assert report2.metrics == report1.metrics

        proptest.forall(prop)


class TestBinaryEncodingIdentity:
    """store_to_bytes is canonical: equal stores, equal blobs.

    The dict-based contracts above compare decoded structures; these
    compare the *binary encoding itself* across every execution shape.
    A serial store and a sharded-and-merged one intern symbols in
    different orders, so blob equality proves the canonical remap is
    airtight, not just the logical content.
    """

    def _crawl_store(self, config, weeks, **kwargs):
        crawler = Crawler(
            WebEcosystem(config),
            mode=kwargs.pop("mode", "manifest"),
            apply_filter=False,
            options=RunOptions(
                execution=ExecutionOptions(
                    backend=kwargs.pop("backend", "serial"),
                    workers=kwargs.pop("workers", 1),
                    shard_size=kwargs.pop("shard_size", 0),
                    profile_cache=kwargs.pop("profile_cache", True),
                ),
                durability=DurabilityOptions(
                    checkpoint_dir=kwargs.pop("checkpoint_dir", None),
                    resume=kwargs.pop("resume", False),
                ),
            ),
        )
        crawler.run(weeks=weeks)
        return crawler.store

    def test_blob_identical_across_backends_shards_and_cache(self):
        def prop(rng, seed):
            config = ScenarioConfig(population=rng.choice((30, 40)), seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            baseline = store_to_bytes(self._crawl_store(config, weeks))
            for backend in ("serial", "process"):
                blob = store_to_bytes(
                    self._crawl_store(
                        config,
                        weeks,
                        backend=backend,
                        workers=2,
                        shard_size=rng.choice((0, rng.randint(10, 50))),
                        profile_cache=rng.choice((True, False)),
                    )
                )
                assert blob == baseline, f"{backend} blob diverged"

        proptest.forall(prop)

    def test_blob_identical_after_kill_and_resume(self, tmp_path):
        def prop(rng, seed):
            config = ScenarioConfig(population=30, seed=seed)
            weeks = config.calendar.weeks[:3]
            shard_size = rng.randint(15, 50)
            baseline = store_to_bytes(
                self._crawl_store(
                    config,
                    weeks,
                    backend="serial",
                    workers=2,
                    shard_size=shard_size,
                )
            )
            root = tmp_path / f"bin-{seed}"
            self._crawl_store(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=shard_size,
                checkpoint_dir=str(root),
            )
            # "Kill": delete a random subset of journal entries, then
            # resume on a random backend.
            for entry in sorted((root / "journal").glob("shard-*.wal")):
                if rng.random() < 0.5:
                    entry.unlink()
            resumed = self._crawl_store(
                config,
                weeks,
                backend=rng.choice(("serial", "process")),
                workers=2,
                checkpoint_dir=str(root),
                resume=True,
            )
            assert store_to_bytes(resumed) == baseline

        proptest.forall(prop)


class TestWindowExtension:
    """A fleet tick crawls only the weeks after its base's.

    Consecutive week windows, each crawled by a fresh ``Study`` seeded
    with the decoded store of the window before (as the orchestrator's
    crawl job extends its base), must end in the bytes of one ``Study``
    crawling their union: windows are independent, on a one-shard plan
    and on a checkpointed two-shard plan alike.
    """

    @staticmethod
    def _study(config, mode, checkpoint_dir=None):
        from repro import Study

        options = RunOptions()
        if checkpoint_dir is not None:
            options = RunOptions(
                execution=ExecutionOptions(workers=2, backend="serial"),
                durability=DurabilityOptions(
                    checkpoint_dir=str(checkpoint_dir), resume=True
                ),
            )
        return Study(config, mode=mode, options=options)

    @pytest.mark.parametrize("mode", ["manifest", "full"])
    def test_extended_windows_equal_one_crawl_of_their_union(
        self, tmp_path, mode
    ):
        def prop(rng, seed):
            config = ScenarioConfig(population=rng.choice((24, 32)), seed=seed)
            total = rng.randint(3, 5)
            weeks = config.calendar.weeks[:total]
            cuts = sorted(rng.sample(range(1, total), rng.randint(1, 2)))
            bounds = [0] + cuts + [total]
            windows = list(zip(bounds, bounds[1:]))
            whole = self._study(config, mode)
            whole.run(weeks=weeks)
            expected = store_to_bytes(whole.store)
            for checkpointed in (False, True):
                blob = None
                for lo, hi in windows:
                    study = self._study(
                        config,
                        mode,
                        tmp_path / f"{mode}-{seed}-{lo}" if checkpointed else None,
                    )
                    if blob is not None:
                        study.store = store_from_bytes(
                            blob, study.config.calendar, study.matcher
                        )
                    study.run(weeks=weeks[lo:hi])
                    blob = store_to_bytes(study.store)
                assert blob == expected, (
                    f"windows {windows} (checkpointed={checkpointed}) "
                    f"diverged from one crawl of weeks [0, {total})"
                )

        proptest.forall(prop)


class TestTrajectoryMergePartitions:
    """Satellite: trajectory merge is partition-invariant on the bytes.

    Synthetic per-site version histories — mixing unreadable versions
    (``None`` library versions, empty WordPress versions, both of which
    exercise the fallback paths) with real ones — are ingested serially
    and as randomly sized contiguous week shards merged in random
    order.  The binary encodings must match exactly.
    """

    _WP_CHOICES = (None, "", "5.1", "5.2")
    _LIB_CHOICES = (None, "1.12.4", "3.5.1")

    def _profiles(self, rng, n_sites, n_weeks):
        from repro.fingerprint.profile import LibraryDetection, PageProfile

        grid = {}
        for rank in range(1, n_sites + 1):
            for w in range(n_weeks):
                libraries = ()
                if rng.random() < 0.8:
                    libraries = (
                        LibraryDetection(
                            library="jquery",
                            version=rng.choice(self._LIB_CHOICES),
                            source_url="/js/jquery.js",
                            host=None,
                            external=False,
                        ),
                    )
                grid[(rank, w)] = PageProfile(
                    page_host=f"site{rank}.example",
                    libraries=libraries,
                    wordpress_version=rng.choice(self._WP_CHOICES),
                )
        return grid

    def test_week_partitions_merge_to_identical_bytes(self):
        from repro.webgen.domains import Domain, Reachability

        def prop(rng, seed):
            config = ScenarioConfig(population=10, seed=1)
            n_weeks = rng.randint(4, 6)
            n_sites = rng.randint(3, 6)
            weeks = config.calendar.weeks[:n_weeks]
            domains = {
                rank: Domain(
                    rank=rank,
                    name=f"site{rank}.example",
                    reachability=Reachability.STABLE,
                )
                for rank in range(1, n_sites + 1)
            }
            grid = self._profiles(rng, n_sites, n_weeks)

            serial = _fresh_store(config)
            for w, week in enumerate(weeks):
                for rank in range(1, n_sites + 1):
                    serial.ingest(domains[rank], week, grid[(rank, w)])
            baseline = store_to_bytes(serial)

            # Random contiguous week partition, merged in random order.
            cuts = sorted(
                rng.sample(range(1, n_weeks), rng.randint(1, n_weeks - 1))
            )
            spans = list(zip([0] + cuts, cuts + [n_weeks]))
            partials = []
            for lo, hi in spans:
                shard = _fresh_store(config)
                for w in range(lo, hi):
                    for rank in range(1, n_sites + 1):
                        shard.ingest(domains[rank], weeks[w], grid[(rank, w)])
                partials.append(shard)
            rng.shuffle(partials)
            merged = _fresh_store(config)
            for partial in partials:
                merged.merge(partial)
            assert store_to_bytes(merged) == baseline

        proptest.forall(prop)


class TestLedgerRoundTrip:
    """Checkpoint, damage the journal at random, resume: same bytes.

    The strongest form of the resume contract: for random scenarios,
    shard sizes, and fault plans, a run whose journal then loses a
    random subset of entries (plus one deliberately corrupted survivor)
    resumes — on a random backend — into the byte-identical store the
    uninterrupted run produced, with exact replay/re-execute/quarantine
    accounting.
    """

    def test_damaged_journal_resumes_byte_identical(self, tmp_path):
        def prop(rng, seed):
            config = ScenarioConfig(
                population=rng.choice((30, 40)), seed=seed
            )
            n_weeks = rng.randint(3, 4)
            weeks = config.calendar.weeks[:n_weeks]
            plan = None
            if rng.random() < 0.5:
                plan = FaultPlan(seed=seed, crash_rate=0.3)
            root = tmp_path / f"run-{seed}"
            report1, baseline = _run_crawler(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=rng.randint(20, 60),
                plan=plan,
                checkpoint_dir=root,
            )
            total_shards = report1.shards_reexecuted
            entries = sorted((root / "journal").glob("shard-*.wal"))
            # Dropped shards never journal, so entries <= shards.
            assert len(entries) <= total_shards
            assert report1.bytes_journaled == sum(
                e.stat().st_size for e in entries
            )

            # Damage: delete a random subset, truncate one survivor.
            doomed = [e for e in entries if rng.random() < 0.5]
            survivors = [e for e in entries if e not in doomed]
            corrupted = 0
            if survivors:
                victim = rng.choice(survivors)
                victim.write_bytes(victim.read_bytes()[:40])
                corrupted = 1
            for entry in doomed:
                entry.unlink()

            backend = rng.choice(("serial", "process"))
            report2, store = _run_crawler(
                config,
                weeks,
                backend=backend,
                workers=2 if backend != "serial" else 1,
                plan=plan,
                checkpoint_dir=root,
                resume=True,
            )
            replayed = len(survivors) - corrupted
            assert store == baseline, (
                f"resume on {backend} diverged (deleted {len(doomed)}, "
                f"corrupted {corrupted})"
            )
            assert report2.shards_replayed == replayed
            assert report2.shards_reexecuted == total_shards - replayed
            assert report2.entries_quarantined == corrupted
            assert report2.pages_collected == report1.pages_collected
            assert report2.fetch_failures == report1.fetch_failures
            assert report2.dropped_cells == report1.dropped_cells

        proptest.forall(prop)


class TestServingIdentity:
    """Served bytes are a pure function of the dataset, not its history.

    The serving layer reads decoded symbols and packed columns straight
    out of the store, so any intern-order or merge-order leak in an
    endpoint would surface here: two stores holding the same dataset but
    built through different execution shapes must answer an identical
    seeded request replay with identical response digests.
    """

    def _serve_digests(self, store, mix, requests=120, **kwargs):
        from repro.serve import LoadGenerator, ServeApp

        app = ServeApp(store, database=default_database(), **kwargs)
        return LoadGenerator(app, mix).run(requests).digests

    def test_served_bytes_identical_across_provenance(self, tmp_path):
        from repro.serve import build_mix

        helper = TestBinaryEncodingIdentity()

        def prop(rng, seed):
            config = ScenarioConfig(population=30, seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            database = default_database()

            baseline_store = helper._crawl_store(config, weeks)
            mix = build_mix(baseline_store, database, seed=seed)
            baseline = self._serve_digests(baseline_store, mix)

            # Sharded runs intern symbols in shard-merge order.
            for backend in ("serial", "process"):
                store = helper._crawl_store(
                    config,
                    weeks,
                    backend=backend,
                    workers=2,
                    shard_size=rng.choice((0, rng.randint(10, 50))),
                )
                assert self._serve_digests(store, mix) == baseline, (
                    f"serving a {backend}-built store diverged"
                )

            # A killed-and-resumed run merges journal replays with fresh
            # execution — the messiest provenance the ledger produces.
            root = tmp_path / f"serve-{seed}"
            helper._crawl_store(
                config,
                weeks,
                backend="serial",
                workers=2,
                shard_size=rng.randint(15, 50),
                checkpoint_dir=str(root),
            )
            for entry in sorted((root / "journal").glob("shard-*.wal")):
                if rng.random() < 0.5:
                    entry.unlink()
            resumed = helper._crawl_store(
                config,
                weeks,
                backend=rng.choice(("serial", "process")),
                workers=2,
                checkpoint_dir=str(root),
                resume=True,
            )
            assert self._serve_digests(resumed, mix) == baseline, (
                "serving a killed-and-resumed store diverged"
            )

        proptest.forall(prop)

    def test_served_bytes_identical_with_cache_off(self):
        from repro.serve import build_mix

        helper = TestBinaryEncodingIdentity()

        def prop(rng, seed):
            config = ScenarioConfig(population=30, seed=seed)
            weeks = config.calendar.weeks[:3]
            store = helper._crawl_store(config, weeks)
            # /metrics reports cache configuration, so exclude it when
            # comparing across cache settings; every data endpoint must
            # still match byte-for-byte.
            mix = build_mix(
                store, default_database(), seed=seed, include_metrics=False
            )
            cached = self._serve_digests(store, mix)
            uncached = self._serve_digests(store, mix, cache_ttl=0.0)
            cold = self._serve_digests(store, mix, precompute=False)
            assert uncached == cached, "disabling the cache changed bytes"
            assert cold == cached, "skipping precompute changed bytes"

        proptest.forall(prop)
