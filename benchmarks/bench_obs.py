"""Observability overhead: the metrics layer must be (nearly) free.

The layer is the whole instruments layer of a full-mode crawl —
counters, per-page histograms, fetch/fingerprint wall timers, span
events.

Whole-run A/B timing is hopeless on a 1-CPU container (allocator and
scheduler noise runs 10-25%, see bench_ledger's history), so the
overhead is measured directly instead: a recording subclass captures
every instruments operation the crawl performs, and the exact op stream
is replayed against a fresh :class:`~repro.obs.Instruments` (plus the
timer reads the instrumented wrappers add).  The replay time *is* the
layer's added work.

It is gated per operation, not as a share of crawl time: a faster crawl
raises the share with the instruments unchanged.  Two gates:

* **Ops per page.**  The crawl's op stream is a pure function of the
  scenario, so its length and page count are pinned exactly: an
  instrument call added to the per-page path shows here, however
  cheap.
* **Microseconds per op.**  The mean replay cost per op stays under
  ``_US_PER_OP_BOUND``.  Twelve runs in fresh interpreters on a 2-vCPU
  host under Python 3.11 measured 0.46-0.76 us per op (mean 0.66); the
  bound is about twice the largest, room for a slower interpreter or
  runner, while a layer grown heavier per call still fails.

The share of crawl time is still recorded, for the history.
"""

import time

from _helpers import record

from repro import IncrementalConfig, ScenarioConfig
from repro.crawler import Crawler
from repro.obs import Instruments
from repro.webgen import WebEcosystem

_POPULATION = 150
_SEED = 77
_WEEKS = 10
#: (instrument ops, pages) of the 150-domain, 10-week full-mode crawl.
_OPS_AND_PAGES = (13_944, 1_288)
_US_PER_OP_BOUND = 1.5


class RecordingInstruments(Instruments):
    """An Instruments that logs every operation the crawl performs."""

    __slots__ = ("ops",)

    def __init__(self):
        super().__init__(enabled=True)
        self.ops = []

    def inc(self, name, value=1):
        self.ops.append(("inc", name, value, None))
        super().inc(name, value)

    def observe(self, name, value, edges):
        self.ops.append(("observe", name, value, edges))
        super().observe(name, value, edges)

    def add_wall_us(self, name, micros):
        self.ops.append(("wall", name, micros, None))
        super().add_wall_us(name, micros)

    def note(self, name, value):
        self.ops.append(("note", name, value, None))
        super().note(name, value)

    def event(self, name, status, shard_index, shard_key, attempt,
              fields=None, backend=""):
        self.ops.append(
            ("event", (name, status, shard_index, shard_key, attempt,
                       fields, backend), None, None)
        )
        super().event(name, status, shard_index, shard_key, attempt,
                      fields=fields, backend=backend)


def _replay(ops):
    """Apply the recorded op stream to a fresh Instruments, timed.

    Each ``wall`` op also pays two ``perf_counter_ns`` reads — the
    instrumented fetch/fingerprint wrappers bracket the real work with
    exactly that, and it is part of the layer's cost.
    """
    ins = Instruments()
    started = time.perf_counter()
    for kind, a, b, c in ops:
        if kind == "inc":
            ins.inc(a, b)
        elif kind == "observe":
            ins.observe(a, b, c)
        elif kind == "wall":
            time.perf_counter_ns()
            ins.add_wall_us(a, b)
            time.perf_counter_ns()
        elif kind == "note":
            ins.note(a, b)
        else:
            name, status, shard_index, shard_key, attempt, fields, backend = a
            ins.event(name, status, shard_index, shard_key, attempt,
                      fields=fields, backend=backend)
    return ins, time.perf_counter() - started


def test_metrics_overhead_under_budget(benchmark):
    """Pinned ops per page, and replayed work per op under its bound."""
    config = ScenarioConfig(population=_POPULATION, seed=_SEED)
    holder = {}

    def crawl():
        ecosystem = WebEcosystem(config)
        # Cache off: price the layer against a crawl doing real
        # render+fingerprint work per cell, not near-free cache hits.
        crawler = Crawler(
            ecosystem,
            mode="full",
            apply_filter=False,
            incremental=IncrementalConfig(profile_cache=False),
        )
        recording = RecordingInstruments()
        weeks = config.calendar.weeks[:_WEEKS]
        started = time.perf_counter()
        crawler.crawl_block(weeks, list(ecosystem.population), recording)
        holder["crawl_seconds"] = time.perf_counter() - started
        holder["recording"] = recording
        return recording

    recording = benchmark.pedantic(crawl, rounds=1, iterations=1)
    crawl_seconds = holder["crawl_seconds"]

    replayed, replay_seconds = _replay(recording.ops)
    # The replay must reproduce the recording exactly — otherwise the
    # measured work is not the work the crawl performed.
    assert replayed == recording
    assert replayed.counter("crawl.pages") > 0

    ops = len(recording.ops)
    pages = replayed.counter("crawl.pages")
    us_per_op = replay_seconds / ops * 1e6
    record(
        benchmark,
        pages=pages,
        instrument_ops=ops,
        ops_per_page=ops / pages,
        crawl_seconds=crawl_seconds,
        instruments_seconds=replay_seconds,
        us_per_op=us_per_op,
        us_per_op_bound=_US_PER_OP_BOUND,
        overhead_share=replay_seconds / crawl_seconds,
    )
    assert (ops, pages) == _OPS_AND_PAGES, (
        f"{ops} instrument ops over {pages} pages; pinned "
        f"{_OPS_AND_PAGES[0]} over {_OPS_AND_PAGES[1]}"
    )
    assert us_per_op < _US_PER_OP_BOUND, (
        f"instruments replay {us_per_op:.2f} us per op exceeds "
        f"{_US_PER_OP_BOUND} ({ops} ops, {replay_seconds:.4f}s)"
    )


def test_disabled_detail_records_core_counters_only(benchmark):
    """The --no-metrics path: counters still fill, detail stays empty."""
    config = ScenarioConfig(population=_POPULATION, seed=_SEED)

    def crawl():
        ecosystem = WebEcosystem(config)
        crawler = Crawler(ecosystem, mode="full", apply_filter=False)
        ins = Instruments(enabled=False)
        crawler.crawl_block(
            config.calendar.weeks[:_WEEKS], list(ecosystem.population), ins
        )
        return ins

    ins = benchmark.pedantic(crawl, rounds=1, iterations=1)
    record(
        benchmark,
        pages=ins.counter("crawl.pages"),
        histograms=len(ins.histograms),
        events=len(ins.events),
    )
    assert ins.counter("crawl.pages") > 0
    assert not ins.histograms and not ins.events and not ins.process
