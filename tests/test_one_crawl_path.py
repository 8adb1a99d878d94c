"""Every crawl takes one path: plan, dispatch, fold.

A one-shard serial run executes its shard in process, on the worker's
cached ecosystem, exactly as each shard of a multi-shard serial run
does.  These tests pin what that one path does differently from the
direct crawl it replaced, and what the store codec costs on it:

* a study's own ecosystem is probed but never crawled, so a second
  ``Study.run`` probes a pristine network whatever the worker count;
* an empty grid reports no shard, with or without a checkpoint;
* a window crawled after a later one folds into the in-order store;
* a shard run in process hands its live store to the fold: the codec
  runs only to journal a store, to replay one, or to cross a process.
"""

from __future__ import annotations

import pytest

from repro import ScenarioConfig, Study
from repro.config import AccessibilityConfig
from repro.crawler import Crawler, persistence
from repro.crawler.persistence import store_from_bytes, store_to_bytes
from repro.crawler.store import ObservationStore
from repro.options import DurabilityOptions, ExecutionOptions, RunOptions
from repro.runtime.worker import ShardTask, execute_shard
from repro.vulndb import VersionMatcher, default_database
from repro.webgen import WebEcosystem

from conftest import count_calls

#: Many flaky domains, so a probe from consumed request ordinals draws
#: another verdict than one from a pristine network.
_FLAKY = ScenarioConfig(
    population=60,
    seed=21,
    accessibility=AccessibilityConfig(flaky=0.6, flaky_failure_rate=0.9),
)
_CONFIG = ScenarioConfig(population=60, seed=21)
#: Shards of at most 80 cells over 4 weeks: 20 retained domains each.
_SHARDS = 3


def _study(
    config=_CONFIG,
    mode="manifest",
    workers=1,
    backend="serial",
    shard_size=0,
    checkpoint=None,
):
    return Study(
        config,
        mode=mode,
        options=RunOptions(
            execution=ExecutionOptions(
                workers=workers, backend=backend, shard_size=shard_size
            ),
            durability=DurabilityOptions(
                checkpoint_dir=str(checkpoint) if checkpoint else None,
                resume=checkpoint is not None,
            ),
        ),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_second_run_probes_a_pristine_network(workers):
    study = _study(_FLAKY, mode="full", workers=workers)
    for weeks in (_FLAKY.calendar.last_month(), _FLAKY.calendar.weeks[-8:-4]):
        report = study.run(weeks=weeks)
        assert study.ecosystem.network.is_pristine()
    assert (report.domains_crawled, report.pages_collected) == (36, 104)


def test_empty_grid_reports_no_shard(tmp_path):
    def run(**kwargs):
        ecosystem = WebEcosystem(ScenarioConfig(population=20, seed=3))
        return Crawler(ecosystem, mode="manifest", **kwargs).run(weeks=[])

    plain = run()
    durable = run(
        options=RunOptions(
            durability=DurabilityOptions(checkpoint_dir=str(tmp_path / "run"))
        )
    )
    assert plain.metrics.counter("shards.completed") == 0
    assert not [event for event in plain.metrics.events if event.name == "shard"]
    assert plain.metrics.canonical_json() == durable.metrics.canonical_json()


@pytest.mark.parametrize("mode", ["manifest", "full"])
def test_earlier_window_folds_into_the_in_order_store(mode):
    month = _CONFIG.calendar.last_month()
    earlier = _CONFIG.calendar.weeks[-8:-4]

    def saved(*windows):
        study = Study(_CONFIG, mode=mode)
        for weeks in windows:
            study.run(weeks=weeks)
        return store_to_bytes(study.store)

    assert saved(month, earlier) == saved(earlier, month)


# ----------------------------------------------------------------------
# Store codec traffic, per path
# ----------------------------------------------------------------------
def _codec_run(monkeypatch, **study_kwargs):
    """Crawl four weeks, counting store encodes and decodes; returns
    ``(report, saved store, counts)``."""
    with monkeypatch.context() as patch:
        calls = count_calls(
            patch,
            (persistence, "store_to_bytes"),
            (persistence, "store_from_bytes"),
        )
        study = _study(**study_kwargs)
        report = study.run(weeks=_CONFIG.calendar.weeks[:4])
        counts = dict(calls)
    return report, store_to_bytes(study.store), counts


@pytest.fixture(scope="module")
def reference():
    study = Study(_CONFIG)
    study.run(weeks=_CONFIG.calendar.weeks[:4])
    return store_to_bytes(study.store)


def test_one_shard_run_neither_encodes_nor_decodes(monkeypatch, reference):
    report, saved, counts = _codec_run(monkeypatch)
    assert report.metrics.counter("shards.completed") == 1
    assert counts == {"store_to_bytes": 0, "store_from_bytes": 0}
    assert saved == reference


def test_checkpointed_run_encodes_each_shard_once(
    monkeypatch, tmp_path, reference
):
    root = tmp_path / "run"
    report, saved, counts = _codec_run(
        monkeypatch, checkpoint=root, workers=2, shard_size=80
    )
    assert report.shards_reexecuted == _SHARDS
    # One encode per journal entry; the fold merges the live stores.
    assert counts == {"store_to_bytes": _SHARDS, "store_from_bytes": 0}
    assert saved == reference

    for entry in sorted((root / "journal").glob("shard-*.wal"))[1:]:
        entry.unlink()
    report, saved, counts = _codec_run(
        monkeypatch, checkpoint=root, workers=2, shard_size=80
    )
    assert (report.shards_replayed, report.shards_reexecuted) == (1, 2)
    # The replayed entry is decoded; the re-executed shards journal.
    assert counts == {"store_to_bytes": 2, "store_from_bytes": 1}
    assert saved == reference


def test_process_backend_decodes_each_payload(monkeypatch, reference):
    report, saved, counts = _codec_run(
        monkeypatch, workers=2, backend="process", shard_size=80
    )
    assert report.metrics.counter("shards.completed") == _SHARDS
    # The pool processes encode; this process decodes each payload.
    assert counts == {"store_to_bytes": 0, "store_from_bytes": _SHARDS}
    assert saved == reference


def test_live_and_decoded_shard_stores_merge_to_the_same_bytes():
    weeks = tuple(w.ordinal for w in _CONFIG.calendar.weeks[:4])
    names = tuple(d.name for d in WebEcosystem(_CONFIG).population)
    halves = (names[:30], names[30:])
    live = [
        execute_shard(
            ShardTask(_CONFIG, "manifest", weeks, half, shard_index=index)
        )["store"]
        for index, half in enumerate(halves)
    ]
    decoded = [
        store_from_bytes(store_to_bytes(store), _CONFIG.calendar)
        for store in live
    ]
    # A live store interns in ingest order, a decoded one in the codec's
    # canonical order.
    assert all(isinstance(store, ObservationStore) for store in live)
    assert (
        live[0].symbols.version.symbols != decoded[0].symbols.version.symbols
    )

    def folded(partials):
        store = ObservationStore(
            _CONFIG.calendar, VersionMatcher(default_database())
        )
        for partial in partials:
            store.merge(partial)
        return store_to_bytes(store)

    assert folded(live) == folded(decoded) == folded([live[0], decoded[1]])
