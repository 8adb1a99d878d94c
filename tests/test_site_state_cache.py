"""The per-process dataset cache: one population and one state per domain.

A :class:`~repro.webgen.domains.DomainPopulation` and every
:class:`~repro.webgen.site.SiteState` are pure functions of dataset
identity (:func:`~repro.config.scenario_digest`), the library
calibration table the sites are built from, and the domain, so every
ecosystem of one dataset shares one population and one set of states.
These tests count builds, never time them:

* a two-tick fleet — a Study per tick and one worker ecosystem, each
  tick with its own profile-store paths — builds each state once and
  draws one population;
* a three-tick fleet builds one worker ecosystem, since the worker
  keys its ecosystems on the dataset and reads run options from the
  shard task;
* two ecosystems of one config share states;
* another seed or another scenario-pack parameter builds its own
  states, and a run after another dataset's run saves the same store
  bytes as a run from an empty cache;
* a patched calibration table (as the ablation benchmarks patch it)
  builds its own states and population, and its manifests show it;
  a Study under it crawls its own worker ecosystem, not the one a
  calibrated run of the same config left cached.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

import repro.webgen.libraries as libraries_module

from repro import Study
from repro.config import ScenarioConfig, scenario_digest
from repro.crawler.persistence import store_to_bytes
from repro.orchestrator import FleetPlan, Orchestrator
from repro.runtime import worker as worker_module
from repro.scenarios import apply_pack
from repro.webgen import WebEcosystem
from repro.webgen import ecosystem as ecosystem_module
from repro.webgen.domains import DomainPopulation
from repro.webgen.site import SiteState

from conftest import count_calls


@pytest.fixture()
def builds(monkeypatch):
    """Empty caches, and a count of state builds per (dataset, rank)."""
    counts = collections.Counter()

    class CountingSiteState(SiteState):
        def __init__(self, domain, config, *args, **kwargs):
            counts[(scenario_digest(config), domain.rank)] += 1
            super().__init__(domain, config, *args, **kwargs)

    monkeypatch.setattr(ecosystem_module, "SiteState", CountingSiteState)
    monkeypatch.setattr(
        ecosystem_module, "_DATASET_CACHE", collections.OrderedDict()
    )
    monkeypatch.setattr(
        worker_module, "_ECOSYSTEM_CACHE", collections.OrderedDict()
    )
    return counts


def _touch_all(ecosystem: WebEcosystem) -> None:
    for domain in ecosystem.population:
        ecosystem.manifest(domain, 0)


@pytest.fixture()
def populations(monkeypatch):
    """A count of population draws per population size."""
    counts = collections.Counter()

    class CountingPopulation(DomainPopulation):
        def __init__(self, size, accessibility, rng, total_weeks):
            counts[size] += 1
            super().__init__(size, accessibility, rng, total_weeks)

    monkeypatch.setattr(ecosystem_module, "DomainPopulation", CountingPopulation)
    return counts


def test_fleet_builds_each_state_once(builds, populations, tmp_path):
    plan = FleetPlan.build(population=24, seed=7, ticks=2, weeks_per_tick=2)
    records = Orchestrator(tmp_path / "q", plan).run()
    assert records
    assert builds, "the fleet built no site state"
    assert len({digest for digest, _ in builds}) == 1
    assert set(builds.values()) == {1}
    # A Study per tick and one worker ecosystem: one population draw.
    assert populations == {24: 1}


def test_fleet_builds_one_worker_ecosystem(builds, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, (WebEcosystem, "__init__"))
    plan = FleetPlan.build(population=24, seed=7, ticks=3, weeks_per_tick=2)
    assert Orchestrator(tmp_path / "q", plan).run()
    # One ecosystem per tick's Study, and one that the shards of every
    # tick crawl, although each tick runs with its own profile-store
    # paths.
    assert calls["__init__"] == 3 + 1


def test_ecosystems_of_one_dataset_share_one_population(builds, populations):
    config = ScenarioConfig(population=30, seed=9)
    first = WebEcosystem(config)
    second = WebEcosystem(ScenarioConfig(population=30, seed=9))
    assert second.population is first.population
    assert second.network is not first.network
    assert populations == {30: 1}


def test_two_ecosystems_of_one_config_share_states(builds):
    base = ScenarioConfig(population=40, seed=5)
    reference = WebEcosystem(base)
    _touch_all(reference)
    # An equal config, another object (its calendar too).
    ecosystem = WebEcosystem(ScenarioConfig(population=40, seed=5))
    assert ecosystem.config is not base
    assert ecosystem.network is not reference.network
    for domain in ecosystem.population:
        assert ecosystem.site_state(domain) is reference.site_state(domain)
    assert len(builds) == len(reference.population)
    assert set(builds.values()) == {1}


def _pack(share: float) -> ScenarioConfig:
    return apply_pack(
        ScenarioConfig(population=60, seed=11), "bundled-deps", {"share": share}
    )


def _store_bytes(config: ScenarioConfig) -> bytes:
    study = Study(config)
    study.run(weeks=config.calendar.weeks[:2])
    return store_to_bytes(study.store)


def test_other_datasets_build_their_own_states(builds):
    target = _pack(0.3)
    others = (_pack(0.15), dataclasses.replace(target, seed=12))
    reference = WebEcosystem(target)
    _touch_all(reference)
    for config in others:
        ecosystem = WebEcosystem(config)
        for domain in ecosystem.population:
            state = ecosystem.site_state(domain)
            twin = reference.population.by_name(domain.name)
            if twin is not None:
                assert state is not reference.site_state(twin)
    digests = {digest for digest, _ in builds}
    assert digests == {scenario_digest(c) for c in (target,) + others}
    assert set(builds.values()) == {1}


def _fully_visible():
    """The calibration the full-visibility ablation patches in."""
    return {
        name: dataclasses.replace(profile, version_visible_rate=1.0)
        for name, profile in _ORIGINAL_PROFILES().items()
    }


_ORIGINAL_PROFILES = libraries_module.library_profiles


def test_patched_calibration_builds_its_own_dataset(builds, populations, monkeypatch):
    config = ScenarioConfig(population=60, seed=77)
    reference = WebEcosystem(config)
    _touch_all(reference)
    monkeypatch.setattr(libraries_module, "library_profiles", _fully_visible)
    patched = WebEcosystem(config)
    assert patched.population is not reference.population
    assert populations == {60: 2}
    hidden = 0
    for domain in patched.population:
        state = patched.site_state(domain)
        assert state is not reference.site_state(domain)
        assert builds[(scenario_digest(config), domain.rank)] == 2
        before = reference.manifest(domain, 0).libraries
        after = patched.manifest(domain, 0).libraries
        # Only visibility moves; every inclusion is now versioned.
        assert [
            dataclasses.replace(inc, version_visible=True) for inc in before
        ] == list(after)
        assert all(inc.version_visible for inc in after)
        hidden += sum(not inc.version_visible for inc in before)
    assert hidden > 0
    # Restoring the table finds the calibrated dataset again.
    monkeypatch.setattr(libraries_module, "library_profiles", _ORIGINAL_PROFILES)
    again = WebEcosystem(config)
    assert again.population is reference.population


def test_patched_calibration_crawls_its_own_sites(builds, monkeypatch):
    # A Study crawls on the worker's cached ecosystem: a calibrated run
    # must not leave the ablated one its sites.
    config = ScenarioConfig(population=60, seed=77)
    calibrated = _store_bytes(config)
    monkeypatch.setattr(libraries_module, "library_profiles", _fully_visible)
    patched = _store_bytes(config)
    worker_module._ECOSYSTEM_CACHE.clear()
    ecosystem_module._DATASET_CACHE.clear()
    assert patched == _store_bytes(config) != calibrated


def test_store_bytes_do_not_depend_on_earlier_datasets(builds):
    target = _pack(0.3)
    cold = _store_bytes(target)
    ecosystem_module._DATASET_CACHE.clear()
    _store_bytes(_pack(0.15))
    _store_bytes(dataclasses.replace(target, seed=12))
    assert _store_bytes(target) == cold
