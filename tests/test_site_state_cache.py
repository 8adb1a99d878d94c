"""The per-process site-state cache: one build per domain per dataset.

A :class:`~repro.webgen.site.SiteState` is a pure function of dataset
identity (:func:`~repro.config.scenario_digest`) and the domain, so
every ecosystem of one dataset shares one set of states.  These tests
count builds, never time them:

* a two-tick fleet — a Study and a worker ecosystem per tick, each
  tick with its own profile-store paths — builds each state once;
* configs that differ only in execution, incremental or observability
  knobs share states;
* another seed or another scenario-pack parameter builds its own
  states, and a run after another dataset's run saves the same store
  bytes as a run from an empty cache.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro import Study
from repro.config import (
    ExecutionConfig,
    IncrementalConfig,
    ObservabilityConfig,
    ScenarioConfig,
    scenario_digest,
)
from repro.crawler.persistence import store_to_bytes
from repro.orchestrator import FleetPlan, Orchestrator
from repro.runtime import worker as worker_module
from repro.scenarios import apply_pack
from repro.webgen import WebEcosystem
from repro.webgen import ecosystem as ecosystem_module
from repro.webgen.site import SiteState


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
        ecosystem_module, "_SITE_STATE_CACHE", collections.OrderedDict()
    )
    monkeypatch.setattr(
        worker_module, "_ECOSYSTEM_CACHE", collections.OrderedDict()
    )
    return counts


def _touch_all(ecosystem: WebEcosystem) -> None:
    for domain in ecosystem.population:
        ecosystem.manifest(domain, 0)


def test_fleet_builds_each_state_once(builds, tmp_path):
    plan = FleetPlan.build(population=24, seed=7, ticks=2, weeks_per_tick=2)
    records = Orchestrator(tmp_path / "q", plan).run()
    assert records
    assert builds, "the fleet built no site state"
    assert len({digest for digest, _ in builds}) == 1
    assert set(builds.values()) == {1}


def test_execution_incremental_observability_share_states(builds, tmp_path):
    base = ScenarioConfig(population=40, seed=5)
    variants = (
        dataclasses.replace(
            base, execution=ExecutionConfig(backend="process", workers=3)
        ),
        dataclasses.replace(
            base,
            incremental=IncrementalConfig(
                profile_cache=False,
                profile_store_read=(str(tmp_path / "gen-000"),),
                profile_store_write=str(tmp_path / "gen-001"),
            ),
        ),
        dataclasses.replace(
            base, observability=ObservabilityConfig(metrics=False)
        ),
    )
    reference = WebEcosystem(base)
    _touch_all(reference)
    for config in variants:
        ecosystem = WebEcosystem(config)
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


def test_store_bytes_do_not_depend_on_earlier_datasets(builds):
    target = _pack(0.3)
    cold = _store_bytes(target)
    ecosystem_module._SITE_STATE_CACHE.clear()
    _store_bytes(_pack(0.15))
    _store_bytes(dataclasses.replace(target, seed=12))
    assert _store_bytes(target) == cold
