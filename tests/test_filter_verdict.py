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

Every real probe is checked against :func:`_oracle`, the all-weeks
loop the probe replaced: the verdict and report must be the oracle's,
and the probe must fetch each domain in the weeks up to and including
its first good one (all four when there is none).
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


def _oracle(probe: AccessibilityFilter):
    """The all-weeks probe: every domain fetched in every week of the
    last month, each outcome recorded.  Returns the verdict the old loop
    computed from them and the fetches the probe should make; the
    network's request ordinals are put back as they were found."""
    ecosystem = probe.ecosystem
    network = ecosystem.network
    ordinals = dict(network._request_ordinals)
    last_month = ecosystem.calendar.last_month()
    domains = ecosystem.population.domains
    bad_streak = {d.name: 0 for d in domains}
    last_reason = {d.name: "" for d in domains}
    outcomes = {d.name: [] for d in domains}
    fetcher = Fetcher(network, retries=0)
    for week in last_month:
        ecosystem.set_week(week.ordinal)
        for domain in domains:
            # fetch(), not fetch_domain(): the fixture counts the probe's.
            bad, reason = probe._is_bad(fetcher.fetch(f"https://{domain.name}/"))
            outcomes[domain.name].append(bad)
            if bad:
                bad_streak[domain.name] += 1
                last_reason[domain.name] = reason
            else:
                bad_streak[domain.name] = 0
    network._request_ordinals.clear()
    network._request_ordinals.update(ordinals)

    retained = set()
    removed = collections.Counter()
    for domain in domains:
        if bad_streak[domain.name] >= len(last_month):
            reason = last_reason[domain.name]
            removed[reason if reason in ("error", "empty") else "unreachable"] += 1
        else:
            retained.add(domain.name)
    report = filtering.FilterReport(
        total_domains=len(domains),
        retained=len(retained),
        removed=len(domains) - len(retained),
        removed_error=removed["error"],
        removed_empty=removed["empty"],
        removed_unreachable=removed["unreachable"],
    )
    expected_fetches = sum(
        weeks.index(False) + 1 if False in weeks else len(weeks)
        for weeks in outcomes.values()
    )
    return (retained, report), expected_fetches


def _pristine_fetches(config: ScenarioConfig, threshold: int = 400) -> int:
    """The fetches a probe of ``config`` from a pristine network makes."""
    return _oracle(AccessibilityFilter(WebEcosystem(config), threshold))[1]


@pytest.fixture()
def fetches(monkeypatch):
    """An empty verdict memo, a count of ``fetch_domain`` calls, and of
    real probes, each checked against the oracle as it runs."""
    monkeypatch.setattr(filtering, "_VERDICT_CACHE", collections.OrderedDict())
    calls = collections.Counter()
    original = Fetcher.fetch_domain
    original_probe = AccessibilityFilter._probe

    def counting(self, name):
        calls["fetch_domain"] += 1
        return original(self, name)

    def checked_probe(self):
        expected, expected_fetches = _oracle(self)
        before = calls["fetch_domain"]
        result = original_probe(self)
        assert result == expected
        assert calls["fetch_domain"] - before == expected_fetches
        calls["probes"] += 1
        return result

    monkeypatch.setattr(Fetcher, "fetch_domain", counting)
    monkeypatch.setattr(AccessibilityFilter, "_probe", checked_probe)
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
    assert counts == [_pristine_fetches(_BASE), 0, 0]
    assert counts[0] < 4 * _BASE.population
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
    assert count == _pristine_fetches(_BASE)
    threshold = variant.accessibility.empty_page_threshold
    result, count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(variant), threshold)
    )
    assert count == _pristine_fetches(variant, threshold)
    # ... and that verdict is then kept too.
    again, count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(variant), threshold)
    )
    assert count == 0 and again == result


def test_explicit_threshold_is_part_of_the_key(fetches):
    ecosystem = WebEcosystem(_BASE)
    _, count = _probe_fetches(fetches, AccessibilityFilter(ecosystem, 400))
    assert count == _pristine_fetches(_BASE, 400)
    (_, strict), count = _probe_fetches(
        fetches, AccessibilityFilter(WebEcosystem(_BASE), 5000)
    )
    assert count == _pristine_fetches(_BASE, 5000)
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
    # Both probes ran for real, each fetching what the oracle says.
    assert fetches["probes"] == 2
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
        assert count == (_pristine_fetches(config) if config is configs[0] else 0)
