"""Multi-run orchestrator: fleet wall-time, cross-run cache value,
resume cost.

Three questions matter for the orchestrator to earn its keep:

* fleet overhead — the queue's durable record writes (fsync + rename
  per transition) must be noise next to the jobs themselves;
* cross-run cache value — the second crawl extends the first crawl's
  store with the next weeks and reads the first crawl's profile
  generation, so more than half its profile builds
  (``profile_from_manifest`` calls; manifest mode renders no page)
  must be cache hits (most sites are unchanged since tick N's last
  week);
* resume cost — re-running a finished fleet (the recovery no-op) must
  be near-free: every job short-circuits on its verified ``DONE.json``.

Convergence (byte-identical artifacts, interrupted or not) is proven in
the test suite; here we only measure.
"""

import json
import os

from _helpers import record

from repro.orchestrator import DONE, FleetPlan, Orchestrator

_POPULATION = int(os.environ.get("REPRO_ORCH_POPULATION", "60"))
_SEED = 7
_TICKS = 2
_WEEKS_PER_TICK = 2


def _plan() -> FleetPlan:
    return FleetPlan.build(
        population=_POPULATION,
        seed=_SEED,
        ticks=_TICKS,
        weeks_per_tick=_WEEKS_PER_TICK,
    )


def test_fleet_cold(benchmark, tmp_path):
    """Full fleet from an empty queue: every job executes."""
    runs = iter(range(100))

    def fleet():
        orchestrator = Orchestrator(tmp_path / f"q-{next(runs)}", _plan())
        orchestrator.run()
        return orchestrator

    orchestrator = benchmark.pedantic(fleet, rounds=1, iterations=1)
    counters = orchestrator.instruments.counters
    record(
        benchmark,
        jobs=len(_plan().jobs),
        jobs_done=counters.get("orchestrator.jobs_done", 0),
        retries=counters.get("orchestrator.job_retries", 0),
    )
    assert counters["orchestrator.jobs_done"] == len(_plan().jobs)


def test_cross_run_profile_cache(benchmark, tmp_path):
    """Hit rate of the second crawl against the first tick's generation.

    The acceptance bar: > 50% of the second crawl's profile renders
    come from the cross-run store, not from re-rendering.
    """
    root = tmp_path / "q"

    def fleet():
        records = Orchestrator(root, _plan()).run()
        assert all(r.state == DONE for r in records.values())
        return json.loads(
            (root / "artifacts" / "crawl-001" / "metrics.json").read_text()
        )

    metrics = benchmark.pedantic(fleet, rounds=1, iterations=1)
    counters = metrics["execution"]["counters"]
    hits = counters.get("profile_store.hits", 0)
    misses = counters.get("profile_store.misses", 0)
    hit_rate = hits / max(hits + misses, 1)
    record(
        benchmark,
        store_hits=hits,
        store_misses=misses,
        hit_rate=hit_rate,
    )
    assert hit_rate > 0.5, (
        f"cross-run profile cache hit rate {hit_rate:.2%} on the second "
        f"crawl job; expected > 50%"
    )


def test_fleet_rerun_is_near_free(benchmark, tmp_path):
    """Re-driving a finished fleet: the recovery-scan no-op path."""
    root = tmp_path / "q"
    Orchestrator(root, _plan()).run()  # finish once, off the clock

    def rerun():
        return Orchestrator(root, _plan()).run()

    records = benchmark.pedantic(rerun, rounds=1, iterations=1)
    assert all(r.state == DONE for r in records.values())
    record(benchmark, jobs=len(records))
