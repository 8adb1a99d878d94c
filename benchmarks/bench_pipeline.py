"""Pipeline throughput: fingerprinting, crawling, and sharded scaling."""

import os
import time

import pytest

from _helpers import record

from repro import ScenarioConfig, Study
from repro.config import ExecutionConfig
from repro.crawler import Crawler
from repro.fingerprint import FingerprintEngine
from repro.webgen import WebEcosystem

try:
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None


def test_fingerprint_throughput(benchmark):
    config = ScenarioConfig(population=200, seed=3)
    ecosystem = WebEcosystem(config)
    engine = FingerprintEngine()
    pages = [
        (ecosystem.landing_page(domain, 100), f"https://{domain.name}/")
        for domain in list(ecosystem.population)[:100]
    ]

    def fingerprint_all():
        return [engine.fingerprint(html, url) for html, url in pages]

    profiles = benchmark(fingerprint_all)
    record(benchmark, pages_per_round=len(profiles))
    assert len(profiles) == 100


def test_full_crawl_week(benchmark):
    """One full-mode crawl week (HTTP + fingerprint for every domain)."""
    config = ScenarioConfig(population=300, seed=4)
    ecosystem = WebEcosystem(config)

    def crawl_week():
        crawler = Crawler(ecosystem, mode="full", apply_filter=False)
        return crawler.run(weeks=ecosystem.calendar.weeks[:1])

    report = benchmark(crawl_week)
    assert report.pages_collected > 100


def test_manifest_crawl_week(benchmark):
    config = ScenarioConfig(population=300, seed=4)
    ecosystem = WebEcosystem(config)

    def crawl_week():
        crawler = Crawler(ecosystem, mode="manifest", apply_filter=False)
        return crawler.run(weeks=ecosystem.calendar.weeks[:1])

    report = benchmark(crawl_week)
    assert report.pages_collected > 100


# ----------------------------------------------------------------------
# Sharded execution: full-calendar manifest runs, serial vs parallel.
# ----------------------------------------------------------------------

_SCALE_POPULATION = 2_000
_SCALE_SEED = 20230926


def _timed_run(workers, backend):
    from repro.options import ExecutionOptions, RunOptions

    study = Study(
        ScenarioConfig(population=_SCALE_POPULATION, seed=_SCALE_SEED),
        options=RunOptions(
            execution=ExecutionOptions(workers=workers, backend=backend)
        ),
    )
    started = time.perf_counter()
    report = study.run()
    return study, report, time.perf_counter() - started


def test_sharded_manifest_crawl_serial(benchmark):
    """Baseline: full-calendar manifest crawl on the serial backend."""

    def crawl():
        _, report, _ = _timed_run(workers=1, backend="serial")
        return report

    report = benchmark.pedantic(crawl, rounds=1, iterations=1)
    record(benchmark, pages=report.pages_collected)
    assert report.weeks_crawled == 201


def test_sharded_manifest_crawl_process(benchmark):
    """Parallel variant: same crawl sharded over a process pool."""
    workers = min(4, os.cpu_count() or 1)

    def crawl():
        _, report, _ = _timed_run(workers=workers, backend="process")
        return report

    report = benchmark.pedantic(crawl, rounds=1, iterations=1)
    record(benchmark, pages=report.pages_collected, workers=workers)
    assert report.weeks_crawled == 201


# ----------------------------------------------------------------------
# Columnar-store scale: the full population x the full calendar.
# ----------------------------------------------------------------------

#: Population for the columnar scale run.  The acceptance target is the
#: paper-scale 100k x 201 grid on one CPU; CI smokes the same path at
#: 10k via this env knob.
_COLUMNAR_POPULATION = int(
    os.environ.get("REPRO_COLUMNAR_POPULATION", "100000")
)


def test_columnar_scale_crawl(benchmark):
    """Full-calendar manifest crawl at columnar scale, serial, one CPU.

    Records ``cells_per_sec`` (grid cells = weeks x domains over wall
    time) and ``peak_rss_bytes`` — the two numbers the columnar store
    exists to move: packed aggregates and interned symbols keep the
    100k x 201 run inside commodity memory instead of drowning in
    per-key Python objects.
    """
    population = _COLUMNAR_POPULATION
    config = ScenarioConfig(population=population, seed=_SCALE_SEED)

    def crawl():
        ecosystem = WebEcosystem(config)
        crawler = Crawler(ecosystem, mode="manifest", apply_filter=False)
        started = time.perf_counter()
        report = crawler.run()
        return crawler.store, report, time.perf_counter() - started

    store, report, elapsed = benchmark.pedantic(crawl, rounds=1, iterations=1)
    cells = report.weeks_crawled * population
    peak_rss_bytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        if resource is not None
        else 0
    )
    record(
        benchmark,
        population=population,
        cells=cells,
        cells_per_sec=cells / elapsed,
        peak_rss_bytes=peak_rss_bytes,
        crawl_seconds=elapsed,
    )
    print(
        f"\ncolumnar scale: {population:,} domains x "
        f"{report.weeks_crawled} weeks = {cells:,} cells in {elapsed:.1f}s "
        f"({cells / elapsed:,.0f} cells/s, peak RSS "
        f"{peak_rss_bytes / 1_048_576:,.0f} MiB)"
    )
    assert report.weeks_crawled == 201
    assert report.pages_collected > 0
    # The store itself serializes: the binary blob is the deliverable.
    from repro.crawler.persistence import store_to_bytes

    blob = store_to_bytes(store)
    record(benchmark, store_blob_bytes=len(blob))


# ----------------------------------------------------------------------
# Adaptive execution: per-shard spread and metrics-driven replanning.
# ----------------------------------------------------------------------

#: Scale for the adaptive/spread benches; CI shrinks via these knobs.
_ADAPTIVE_POPULATION = int(os.environ.get("REPRO_ADAPTIVE_POPULATION", "2000"))
_ADAPTIVE_WEEKS = int(os.environ.get("REPRO_ADAPTIVE_WEEKS", "30"))
_ADAPTIVE_WORKERS = 4


def _adaptive_run(backend="serial", plan_from=None, workers=_ADAPTIVE_WORKERS):
    """One manifest crawl; returns (report, per-shard durations in plan order)."""
    config = ScenarioConfig(population=_ADAPTIVE_POPULATION, seed=_SCALE_SEED)
    crawler = Crawler(
        WebEcosystem(config),
        mode="manifest",
        apply_filter=False,
        execution=ExecutionConfig(
            backend=backend, workers=workers, plan_from=plan_from
        ),
    )
    started = time.perf_counter()
    report = crawler.run(weeks=config.calendar.weeks[:_ADAPTIVE_WEEKS])
    elapsed = time.perf_counter() - started
    events = [
        e
        for e in report.metrics.events
        if e.name == "shard" and e.status == "ok"
    ]
    durations = [
        e.duration_us / 1e6
        for e in sorted(events, key=lambda e: e.shard_index)
    ]
    return report, durations, elapsed


def _pool_schedule(durations, workers):
    """Greedy earliest-free-worker schedule over measured durations.

    Tasks are assigned in plan order (exactly how the dispatcher feeds a
    pool); returns ``(makespan, tail_idle)`` where tail idle is the
    total time workers sit finished while the tail shard still runs.
    """
    free = [0.0] * workers
    for duration in durations:
        slot = min(range(workers), key=free.__getitem__)
        free[slot] += duration
    makespan = max(free)
    return makespan, sum(makespan - f for f in free)


def _planned_tail_idle(planner):
    """Tail idle of the pool schedule over a plan's canonical per-shard
    ``cost_units`` (the metrics document's planner section)."""
    rows = sorted(planner["shards"], key=lambda row: row["index"])
    costs = [row["cost_units"] for row in rows]
    return int(_pool_schedule(costs, _ADAPTIVE_WORKERS)[1])


def test_shard_duration_spread(benchmark):
    """Per-shard duration spread (min/median/max, tail idle), per backend.

    The serial backend measures each shard uncontended — its spread is
    the plan's intrinsic imbalance; the process backend shows how that
    imbalance plus contention translates into tail idle.
    """
    import statistics

    def sweep():
        spreads = {}
        for backend in ("serial", "process"):
            _, durations, elapsed = _adaptive_run(backend=backend)
            makespan, tail_idle = _pool_schedule(
                durations, _ADAPTIVE_WORKERS
            )
            spreads[backend] = {
                "shards": len(durations),
                "min_s": min(durations),
                "median_s": statistics.median(durations),
                "max_s": max(durations),
                "tail_idle_s": tail_idle,
                "wall_s": elapsed,
            }
        return spreads

    spreads = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for backend, spread in spreads.items():
        assert spread["shards"] >= 1
        assert spread["max_s"] >= spread["median_s"] >= spread["min_s"] > 0
        record(
            benchmark,
            **{
                f"{backend}_{key}": value
                for key, value in spread.items()
            },
        )
        print(
            f"\n{backend}: {spread['shards']} shards, "
            f"min/median/max {spread['min_s']:.3f}/"
            f"{spread['median_s']:.3f}/{spread['max_s']:.3f}s, "
            f"tail idle {spread['tail_idle_s']:.3f}s, "
            f"wall {spread['wall_s']:.2f}s"
        )


def test_adaptive_two_pass(benchmark, tmp_path):
    """Two-pass adaptive replan: the planned tail-shard idle must shrink.

    Pass 1 runs the uniform plan and writes its canonical metrics; pass
    2 replans from that document (``--plan-from``) at the same shard
    count.  The gate runs a deterministic pool schedule over each plan's
    canonical per-shard ``cost_units`` (the planner section), so it
    cannot flake on timing noise.  The same schedule over the measured
    wall durations (serial backend, so each shard runs uncontended) is
    recorded alongside in ``BENCH_pipeline.json``: ``tail_idle_seconds``
    and ``plan_imbalance`` (adaptive) next to their uniform baselines.
    """
    import json

    def two_pass():
        report1, durations1, _ = _adaptive_run()
        profile = tmp_path / "adaptive_profile.json"
        profile.write_text(report1.metrics.canonical_json())
        report2, durations2, _ = _adaptive_run(plan_from=str(profile))
        return report1, durations1, report2, durations2

    report1, durations1, report2, durations2 = benchmark.pedantic(
        two_pass, rounds=1, iterations=1
    )
    assert len(durations1) == len(durations2), "shard counts must match"
    planner1 = json.loads(report1.metrics.canonical_json())["planner"]
    planner2 = json.loads(report2.metrics.canonical_json())["planner"]
    _, tail_idle_uniform = _pool_schedule(durations1, _ADAPTIVE_WORKERS)
    _, tail_idle_adaptive = _pool_schedule(durations2, _ADAPTIVE_WORKERS)
    cost_idle_uniform = _planned_tail_idle(planner1)
    cost_idle_adaptive = _planned_tail_idle(planner2)
    record(
        benchmark,
        shards=len(durations1),
        tail_idle_seconds=tail_idle_adaptive,
        tail_idle_seconds_uniform=tail_idle_uniform,
        tail_idle_cost_units=cost_idle_adaptive,
        tail_idle_cost_units_uniform=cost_idle_uniform,
        plan_imbalance=planner2["imbalance_permille"] / 1000,
        plan_imbalance_uniform=planner1["imbalance_permille"] / 1000,
    )
    print(
        f"\ntwo-pass adaptive: {len(durations1)} shards, tail idle "
        f"{cost_idle_uniform:,} -> {cost_idle_adaptive:,} cost units "
        f"(measured {tail_idle_uniform:.3f}s -> {tail_idle_adaptive:.3f}s), "
        f"imbalance {planner1['imbalance_permille']}‰ -> "
        f"{planner2['imbalance_permille']}‰"
    )
    # The replanned run must be strictly better balanced: less planned
    # pool idle AND a lower canonical cost imbalance.
    assert cost_idle_adaptive < cost_idle_uniform
    assert planner2["imbalance_permille"] < planner1["imbalance_permille"]


def test_parallel_speedup_and_equivalence():
    """Process backend beats serial wall-clock on a multi-core runner,
    while producing a bit-identical store."""
    from repro.crawler.persistence import store_to_dict

    cores = os.cpu_count() or 1
    serial_study, serial_report, serial_elapsed = _timed_run(1, "serial")
    workers = min(4, cores)
    parallel_study, parallel_report, parallel_elapsed = _timed_run(
        workers, "process"
    )

    assert parallel_report.pages_collected == serial_report.pages_collected
    assert store_to_dict(parallel_study.store) == store_to_dict(
        serial_study.store
    )
    print(
        f"\nserial: {serial_elapsed:.2f}s, "
        f"process x{workers}: {parallel_elapsed:.2f}s "
        f"(speedup {serial_elapsed / parallel_elapsed:.2f}x on {cores} cores)"
    )
    if cores < 2:
        pytest.skip("speedup assertion needs a multi-core runner")
    assert parallel_elapsed < serial_elapsed
