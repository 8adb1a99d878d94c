"""Adaptive shard planning: weighted plans, cost models, ``plan_from``.

The weighted planner trades *where* the domain cut points fall for
balance, never *what* is covered: every plan — uniform or weighted — is
an exact partition of the ``weeks × domains`` grid, and the dataset the
crawl produces is byte-identical whichever plan executed it.  These
properties are enforced here end to end:

* any weighted plan is an exact partition (no gaps, no overlaps,
  ``shards[i].index == i``, contiguous week runs, ``shard_size`` bound);
* balanced-vs-uniform plans yield byte-identical stores and identical
  dataset-tier metrics, on every backend, fault-free and under chaos;
* ``plan_from`` round-trips: run → canonical metrics → replan → rerun
  is the same dataset, with plan provenance recorded in the manifest
  and kill/resume adopting the weighted plan unchanged;
* malformed or mismatched metrics documents fail with typed
  :class:`~repro.errors.ConfigError`\\ s, never silently degrade.
"""

from __future__ import annotations

import json

import pytest

import proptest

from repro import FaultPlan, ScenarioConfig
from repro.config import ExecutionConfig
from repro.crawler import Crawler
from repro.crawler.persistence import store_to_bytes
from repro.errors import ConfigError
from repro.obs import (
    COST_PER_CACHE_MISS,
    COST_PER_CELL,
    COST_PER_PAGE,
    METRICS_FORMAT,
    planner_profile,
    shard_cost_units,
)
from repro.runtime import CostModel, plan_shards
from repro.webgen import WebEcosystem


def _random_cost_vector(rng, n_domains):
    """Costs with the lumpiness real crawls show: dead cheap to heavy."""
    return tuple(
        rng.choice((0, 1, 1, 2, 5, 40, 200)) * CostModel.SCALE // 4
        for _ in range(n_domains)
    )


def _assert_exact_partition(shards, n_weeks, n_domains, shard_size=0):
    seen = set()
    for position, shard in enumerate(shards):
        assert shard.index == position
        assert shard.week_count > 0 and shard.domain_count > 0
        if shard_size:
            assert shard.cells <= shard_size
        for w in range(shard.week_start, shard.week_start + shard.week_count):
            for d in range(
                shard.domain_start, shard.domain_start + shard.domain_count
            ):
                assert (w, d) not in seen, f"cell ({w}, {d}) covered twice"
                seen.add((w, d))
    assert len(seen) == n_weeks * n_domains, "plan left cells uncovered"


class TestWeightedPartitionProperty:
    """Any weighted plan is an exact partition of the crawl grid."""

    def test_weighted_plans_partition_exactly(self):
        def prop(rng, seed):
            n_weeks = rng.randint(1, 12)
            n_domains = rng.randint(1, 120)
            workers = rng.randint(1, 6)
            shard_size = rng.choice((0, 0, rng.randint(5, 80)))
            model = CostModel(
                domain_cost=_random_cost_vector(rng, n_domains),
                source="prop",
            )
            weighted = plan_shards(
                n_weeks, n_domains, workers, shard_size, cost_model=model
            )
            _assert_exact_partition(weighted, n_weeks, n_domains, shard_size)

            uniform = plan_shards(n_weeks, n_domains, workers, shard_size)
            _assert_exact_partition(uniform, n_weeks, n_domains, shard_size)
            if shard_size == 0:
                # Same shard count as the uniform plan: the model moves
                # cut points, it never changes how many shards exist.
                assert len(weighted) == len(uniform)
            # Both plans cover the same grid: identical coverage sets.
            def coverage(shards):
                return {
                    (w, d)
                    for s in shards
                    for w in range(s.week_start, s.week_start + s.week_count)
                    for d in range(
                        s.domain_start, s.domain_start + s.domain_count
                    )
                }

            assert coverage(weighted) == coverage(uniform)

        proptest.forall(prop)

    def test_weighted_plan_is_lpt_ordered(self):
        def prop(rng, seed):
            n_weeks = rng.randint(2, 8)
            n_domains = rng.randint(10, 100)
            model = CostModel(
                domain_cost=_random_cost_vector(rng, n_domains),
                source="prop",
            )
            shards = plan_shards(
                n_weeks, n_domains, workers=rng.randint(2, 5), cost_model=model
            )
            estimates = [
                shard.week_count
                * sum(
                    model.domain_cost[d]
                    for d in range(
                        shard.domain_start,
                        shard.domain_start + shard.domain_count,
                    )
                )
                for shard in shards
            ]
            assert estimates == sorted(estimates, reverse=True)

        proptest.forall(prop)

    def test_uniform_cost_model_reproduces_uniform_plan_cells(self):
        # All-equal costs must cut exactly where the uniform planner
        # cuts (the weighted quantile formula degenerates to _cuts).
        for workers in (1, 2, 3, 5):
            uniform = plan_shards(6, 90, workers)
            weighted = plan_shards(
                6, 90, workers, cost_model=CostModel.uniform(90)
            )
            assert [
                (s.week_start, s.week_count, s.domain_start, s.domain_count)
                for s in uniform
            ] == sorted(
                (s.week_start, s.week_count, s.domain_start, s.domain_count)
                for s in weighted
            )

    def test_zero_cost_vector_falls_back_to_uniform_cuts(self):
        shards = plan_shards(
            4, 40, workers=4, cost_model=CostModel(domain_cost=(0,) * 40)
        )
        _assert_exact_partition(shards, 4, 40)
        assert len(shards) == 4

    def test_mismatched_model_width_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cost model covers"):
            plan_shards(4, 40, workers=2, cost_model=CostModel.uniform(39))


class TestCostModelFromMetrics:
    def _document(self, shards, weeks=4, domains=40):
        return {
            "format": METRICS_FORMAT,
            "planner": {
                "grid": {"weeks": weeks, "domains": domains},
                "shards": shards,
            },
        }

    def _row(self, **overrides):
        row = {
            "index": 0,
            "week_start": 0,
            "week_count": 4,
            "domain_start": 0,
            "domain_count": 40,
            "cells": 160,
            "pages": 100,
            "failures": 10,
            "cache_misses": 5,
            "scripts": 50,
            "attempts": 1,
            "cost_units": shard_cost_units(160, 100, 10, 5, 50),
        }
        row.update(overrides)
        return row

    def test_profile_round_trip_builds_densities(self):
        cheap = self._row(
            index=0, domain_start=0, domain_count=20, cells=80,
            pages=0, failures=0, cache_misses=0, scripts=0,
            cost_units=shard_cost_units(80),
        )
        heavy = self._row(
            index=1, domain_start=20, domain_count=20, cells=80,
            pages=80, failures=0, cache_misses=80, scripts=160,
            cost_units=shard_cost_units(80, 80, 0, 80, 160),
        )
        model = CostModel.from_metrics_document(
            self._document([cheap, heavy]), 40
        )
        assert len(model.domain_cost) == 40
        # Heavy columns must cost strictly more than dead ones.
        assert min(model.domain_cost[20:]) > max(model.domain_cost[:20])
        assert model.domain_cost[0] == COST_PER_CELL * CostModel.SCALE
        per_cell = (
            COST_PER_CELL
            + COST_PER_PAGE
            + COST_PER_CACHE_MISS
            + 2 * 2  # two scripts per cell at COST_PER_SCRIPT each
        )
        assert model.domain_cost[20] == per_cell * CostModel.SCALE

    def test_domain_grid_mismatch_is_a_config_error(self):
        with pytest.raises(ConfigError, match="does not transfer"):
            CostModel.from_metrics_document(self._document([self._row()]), 41)

    def test_wrong_format_and_missing_planner_are_config_errors(self):
        with pytest.raises(ConfigError, match="format"):
            planner_profile({"format": METRICS_FORMAT - 1, "planner": {}})
        with pytest.raises(ConfigError, match="planner"):
            planner_profile({"format": METRICS_FORMAT})
        with pytest.raises(ConfigError):
            planner_profile(
                {"format": METRICS_FORMAT, "planner": {"grid": {}, "shards": [{}]}}
            )


def _run(config, weeks, plan_from=None, backend="serial", workers=2,
         fault_plan=None, checkpoint_dir=None, resume=False):
    crawler = Crawler(
        WebEcosystem(config),
        mode="manifest",
        apply_filter=False,
        execution=ExecutionConfig(
            backend=backend, workers=workers, plan_from=plan_from
        ),
        fault_plan=fault_plan,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    report = crawler.run(weeks=weeks)
    return report, store_to_bytes(crawler.store)


def _planned_tail_idle(planner, workers):
    """Tail idle of a pool fed a plan's shards in plan order.

    The greedy earliest-free-worker schedule (how the dispatcher feeds a
    pool) over the canonical per-shard ``cost_units`` of a metrics
    document's planner section: the cost units the workers spend
    finished while the last shard still runs.
    """
    free = [0] * workers
    for row in sorted(planner["shards"], key=lambda row: row["index"]):
        slot = min(range(workers), key=free.__getitem__)
        free[slot] += row["cost_units"]
    makespan = max(free)
    return sum(makespan - busy for busy in free)


class TestPlanFromEndToEnd:
    """run → metrics → replan → rerun: the same dataset, better balance."""

    def test_replan_shrinks_the_planned_tail_idle(self, tmp_path):
        """Pass 2 replans from pass 1's canonical metrics at the same
        shard count, and is strictly better balanced: less planned pool
        idle, and a lower cost imbalance.  Over 1,000 domains x 16 weeks
        on 4 workers the tail idle falls from 9,348 to 1,172 cost units
        and the imbalance from 1,074 to 1,009 permille.
        """
        config = ScenarioConfig(population=1_000, seed=20230926)
        weeks = config.calendar.weeks[:16]
        report1, store1 = _run(config, weeks, workers=4)
        profile = tmp_path / "pass1.json"
        profile.write_text(report1.metrics.canonical_json())
        report2, store2 = _run(config, weeks, plan_from=str(profile), workers=4)
        planner1 = json.loads(report1.metrics.canonical_json())["planner"]
        planner2 = json.loads(report2.metrics.canonical_json())["planner"]
        assert len(planner2["shards"]) == len(planner1["shards"])
        assert _planned_tail_idle(planner2, 4) < _planned_tail_idle(planner1, 4)
        assert planner2["imbalance_permille"] < planner1["imbalance_permille"]
        assert store2 == store1

    def test_adaptive_rerun_is_byte_identical(self, tmp_path):
        def prop(rng, seed):
            config = ScenarioConfig(population=rng.choice((30, 40)), seed=seed)
            weeks = config.calendar.weeks[: rng.randint(3, 4)]
            report1, store1 = _run(config, weeks)
            metrics_path = tmp_path / f"metrics-{seed}.json"
            metrics_path.write_text(report1.metrics.canonical_json())

            backend = rng.choice(("serial", "process"))
            report2, store2 = _run(
                config, weeks, plan_from=str(metrics_path), backend=backend
            )
            assert store2 == store1, f"weighted plan on {backend} diverged"
            doc1 = json.loads(report1.metrics.canonical_json())
            doc2 = json.loads(report2.metrics.canonical_json())
            # Dataset tier: identical across plans.  The planner section
            # legitimately differs (it records the plan that ran).
            assert doc1["dataset"] == doc2["dataset"]
            assert doc2["planner"]["grid"] == doc1["planner"]["grid"]
            assert len(doc2["planner"]["shards"]) == len(
                doc1["planner"]["shards"]
            )

        proptest.forall(prop)

    def test_adaptive_rerun_under_faults_is_deterministic(self, tmp_path):
        config = ScenarioConfig(population=40, seed=23)
        weeks = config.calendar.weeks[:3]
        report1, _ = _run(config, weeks)
        metrics_path = tmp_path / "faulty.json"
        metrics_path.write_text(report1.metrics.canonical_json())
        plan = FaultPlan(seed=23, crash_rate=0.4)

        runs = [
            _run(
                config,
                weeks,
                plan_from=str(metrics_path),
                backend=backend,
                fault_plan=plan,
            )
            for backend in ("serial", "process")
        ]
        baseline_report, baseline_store = runs[0]
        for report, store in runs[1:]:
            assert store == baseline_store
            assert report.dropped_shards == baseline_report.dropped_shards
            assert report.shard_retries == baseline_report.shard_retries
            assert report.backoff_seconds == baseline_report.backoff_seconds

    def test_manifest_records_plan_provenance_and_resume_adopts_it(
        self, tmp_path
    ):
        import hashlib

        from repro.runtime import RunLedger

        config = ScenarioConfig(population=30, seed=11)
        weeks = config.calendar.weeks[:3]
        report1, baseline = _run(config, weeks)
        metrics_path = tmp_path / "profile.json"
        metrics_path.write_text(report1.metrics.canonical_json())
        digest = hashlib.sha256(metrics_path.read_bytes()).hexdigest()

        root = tmp_path / "ledger"
        _run(
            config,
            weeks,
            plan_from=str(metrics_path),
            backend="serial",
            checkpoint_dir=str(root),
        )
        manifest = RunLedger(str(root))._load_manifest()
        assert manifest.plan_source == "weighted"
        assert manifest.plan_from_digest == digest

        # Kill: drop journal entries.  Resume *without* plan_from — the
        # manifest's weighted plan must be adopted unchanged.
        entries = sorted((root / "journal").glob("shard-*.wal"))
        assert entries
        entries[0].unlink()
        report3, resumed = _run(
            config,
            weeks,
            backend="serial",
            workers=1,
            checkpoint_dir=str(root),
            resume=True,
        )
        assert resumed == baseline
        assert report3.shards_replayed >= 1

    def test_unreadable_and_malformed_plan_sources_fail_typed(self, tmp_path):
        config = ScenarioConfig(population=20, seed=5)
        weeks = config.calendar.weeks[:2]
        with pytest.raises(ConfigError, match="cannot read"):
            _run(config, weeks, plan_from=str(tmp_path / "missing.json"))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ConfigError, match="not a JSON document"):
            _run(config, weeks, plan_from=str(garbled))
        # A valid document recorded over a different population.
        other = ScenarioConfig(population=60, seed=5)
        other_report, _ = _run(other, other.calendar.weeks[:2])
        foreign = tmp_path / "foreign.json"
        foreign.write_text(other_report.metrics.canonical_json())
        with pytest.raises(ConfigError, match="does not transfer"):
            _run(config, weeks, plan_from=str(foreign))
