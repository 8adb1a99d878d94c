"""The accessibility probe runs once per dataset and process.

:meth:`AccessibilityFilter.run` from a pristine network is a pure
function of dataset identity and the empty-page threshold, so its
verdict is kept per process.  These tests count probe fetches:

* three Studies of one dataset that differ only in profile-store
  paths, as an orchestrated fleet's ticks do, probe once;
* another seed, scenario pack or threshold probes again, and the
  memo keeps at most eight verdicts;
* a network that is not pristine — request ordinals consumed by a
  crawl over it, or a transport surge — is probed for real, and gets
  what the probe without the memo returns.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro import Study
from repro.config import AccessibilityConfig, ScenarioConfig
from repro.crawler import Crawler, filtering
from repro.crawler.fetch import Fetcher
from repro.crawler.filtering import AccessibilityFilter
from repro.crawler.persistence import store_to_bytes
from repro.netsim.network import HostCondition
from repro.options import ExecutionOptions, RunOptions
from repro.scenarios import apply_pack
from repro.webgen import WebEcosystem

_BASE = ScenarioConfig(population=50, seed=17)

#: Many flaky domains, so a probe that starts from consumed request
#: ordinals draws a different verdict than one from a pristine network.
_FLAKY = ScenarioConfig(
    population=60,
    seed=21,
    accessibility=AccessibilityConfig(flaky=0.6, flaky_failure_rate=0.9),
)


@pytest.fixture()
def fetches(monkeypatch):
    """An empty verdict memo, and a count of ``fetch_domain`` calls."""
    monkeypatch.setattr(filtering, "_VERDICT_CACHE", collections.OrderedDict())
    calls = collections.Counter()
    original = Fetcher.fetch_domain

    def counting(self, name):
        calls["fetch_domain"] += 1
        return original(self, name)

    monkeypatch.setattr(Fetcher, "fetch_domain", counting)
    return calls


def _with_store_paths(tmp_path, tick: int) -> RunOptions:
    return RunOptions(
        execution=ExecutionOptions(
            profile_store_read=tuple(
                str(tmp_path / f"gen-{t:03d}") for t in range(tick)
            ),
            profile_store_write=str(tmp_path / f"gen-{tick:03d}"),
        )
    )


def _probe_fetches(fetches, study_or_filter):
    """Run a Study (manifest mode fetches nothing itself) or a filter;
    return its filter result and the fetches it made."""
    before = fetches["fetch_domain"]
    if isinstance(study_or_filter, Study):
        report = study_or_filter.run(
            weeks=study_or_filter.config.calendar.weeks[:2]
        )
        result = (report.filter_report, store_to_bytes(study_or_filter.store))
    else:
        result = study_or_filter.run()
    return result, fetches["fetch_domain"] - before


def test_fleet_ticks_probe_once(fetches, tmp_path):
    results = []
    counts = []
    for tick in range(3):
        study = Study(_BASE, options=_with_store_paths(tmp_path, tick))
        result, count = _probe_fetches(fetches, study)
        results.append(result)
        counts.append(count)
    assert counts == [4 * _BASE.population, 0, 0]
    assert results[1] == results[0] and results[2] == results[0]


def test_reuse_returns_fresh_objects_and_leaves_the_probe_state(fetches):
    first = WebEcosystem(_BASE)
    retained, report = AccessibilityFilter(first).run()
    second = WebEcosystem(_BASE)
    second.set_week(3)
    second.network.set_clock(9)
    (again, report_again), count = _probe_fetches(
        fetches, AccessibilityFilter(second)
    )
    assert count == 0
    assert (again, report_again) == (retained, report)
    assert again is not retained and report_again is not report
    again.clear()
    report_again.retained = -1
    assert AccessibilityFilter(WebEcosystem(_BASE)).run() == (retained, report)
    # Exactly where a probe leaves an ecosystem: the last probed week,
    # clock rewound, no request ordinal consumed.
    assert second.current_week == first.current_week
    assert second.current_week == _BASE.calendar.last_month()[-1].ordinal
    assert second.network.clock == first.network.clock == 0
    assert second.network.is_pristine() and first.network.is_pristine()
    assert sorted(second.network._hosts) == sorted(first.network._hosts)


@pytest.mark.parametrize(
    "variant",
    [
        dataclasses.replace(_BASE, seed=18),
        apply_pack(_BASE, "bundled-deps"),
        dataclasses.replace(
            _BASE, accessibility=AccessibilityConfig(empty_page_threshold=2000)
        ),
    ],
    ids=["seed", "pack", "threshold"],
)
def test_another_dataset_or_threshold_probes_again(fetches, variant):
    _, count = _probe_fetches(fetches, AccessibilityFilter(WebEcosystem(_BASE)))
    assert count == 4 * _BASE.population
    threshold = variant.accessibility.empty_page_threshold
    result, count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(variant), threshold)
    )
    assert count == 4 * variant.population
    # ... and that verdict is then kept too.
    again, count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(variant), threshold)
    )
    assert count == 0 and again == result


def test_explicit_threshold_is_part_of_the_key(fetches):
    ecosystem = WebEcosystem(_BASE)
    _, count = _probe_fetches(fetches, AccessibilityFilter(ecosystem, 400))
    assert count == 4 * _BASE.population
    (_, strict), count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(_BASE), 5000)
    )
    assert count == 4 * _BASE.population
    assert strict.removed_empty > 0


def _second_run_reports(monkeypatch, memo_max: int):
    monkeypatch.setattr(filtering, "_VERDICT_CACHE_MAX", memo_max)
    study = Study(_FLAKY, mode="full")
    month = _FLAKY.calendar.last_month()
    first = study.run(weeks=month)
    # A study's shards crawl the worker's own ecosystem, so its probed
    # network stays pristine.  A block crawled straight over it
    # consumes request ordinals of the probed weeks: the second probe
    # starts from another failure schedule.  The second run crawls the
    # four weeks before the last month, since a Study refuses weeks it
    # has already crawled.
    assert study.ecosystem.network.is_pristine()
    Crawler(study.ecosystem).crawl_block(
        month, study.ecosystem.population.domains
    )
    assert not study.ecosystem.network.is_pristine()
    second = study.run(weeks=_FLAKY.calendar.weeks[-8:-4])
    return first.filter_report, second.filter_report, second.pages_collected


def test_network_that_is_not_pristine_is_probed(fetches, monkeypatch):
    reference = _second_run_reports(monkeypatch, memo_max=0)
    assert not filtering._VERDICT_CACHE
    fetches.clear()
    memoised = _second_run_reports(monkeypatch, memo_max=8)
    assert fetches["fetch_domain"] >= 2 * 4 * _FLAKY.population
    assert memoised == reference
    first, second, _ = memoised
    assert second != first  # the bypass matters on this dataset


def test_surge_bypasses_the_memo(fetches):
    pristine = AccessibilityFilter(WebEcosystem(_FLAKY)).run()

    def surged():
        ecosystem = WebEcosystem(_FLAKY)
        ecosystem.network.failures.surge = {
            week.ordinal: HostCondition(connect_failure_rate=1.0)
            for week in _FLAKY.calendar.last_month()
        }
        return AccessibilityFilter(ecosystem)

    for _ in range(2):
        (retained, report), count = _probe_fetches(fetches, surged())
        assert count == 4 * _FLAKY.population
        assert retained == set()
        assert report.removed_unreachable == _FLAKY.population
    # The surged verdicts were not kept; the pristine one still is.
    again, count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(_FLAKY))
    )
    assert count == 0 and again == pristine


def test_memo_keeps_the_eight_latest_verdicts(fetches):
    configs = [ScenarioConfig(population=5, seed=seed) for seed in range(9)]
    for config in configs:
        AccessibilityFilter(WebEcosystem(config)).run()
    assert len(filtering._VERDICT_CACHE) == 8
    for config in configs[1:] + configs[:1]:
        _, count = _probe_fetches(
            fetches, AccessibilityFilter(WebEcosystem(config))
        )
        # Only the evicted oldest verdict is probed again.
        assert count == (20 if config is configs[0] else 0)
