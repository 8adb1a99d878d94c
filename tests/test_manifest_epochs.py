"""Weekly manifests are built once per content epoch, and equal a fresh build.

A :class:`~repro.webgen.site.SiteState` splits the calendar into content
epochs at its change weeks and memoises one manifest per epoch.  These
tests hold the memo to ``_build_manifest``, which builds without it:

* ``manifest(o) == _build_manifest(o)`` for every domain and every
  calendar week, visiting the weeks forward, backward and in a seeded
  shuffle, for the baseline, every registered scenario pack, and a
  Flash config whose insecure ``always`` share falls over time; and
  for weeks outside the calendar;
* a forward visit builds once per epoch, not once per week, and never
  fewer times than the content actually changes.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from repro import ScenarioConfig
from repro.config import FlashConfig
from repro.scenarios import apply_pack, available_packs
from repro.webgen import WebEcosystem
from repro.webgen import ecosystem as ecosystem_module
from repro.webgen.site import SiteState

_SEED = 20231018


def _configs():
    for name in available_packs():
        yield name, apply_pack(ScenarioConfig(population=40, seed=_SEED), name)
    # Many Flash sites, a falling ``always`` share: sites flip from
    # ``always`` to their own setting part-way through the study.
    falling = FlashConfig(
        initial_share=0.6,
        persistent_share=0.8,
        always_share_start=0.5,
        always_share_end=0.05,
    )
    yield "falling-flash", ScenarioConfig(population=40, seed=_SEED, flash=falling)


_CONFIGS = dict(_configs())


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_manifest_equals_a_fresh_build_in_any_visit_order(name):
    config = _CONFIGS[name]
    ecosystem = WebEcosystem(config)
    weeks = [week.ordinal for week in config.calendar]
    shuffled = list(weeks)
    random.Random(_SEED).shuffle(shuffled)
    for domain in ecosystem.population:
        state = ecosystem.site_state(domain)
        fresh = {week: state._build_manifest(week) for week in weeks}
        for order in (weeks, weeks[::-1], shuffled):
            for week in order:
                assert state.manifest(week) == fresh[week], (name, domain.rank, week)
        # Weeks outside the calendar are built, never served from an
        # epoch's memo (week 0 then -1: an epoch-0 memo would be wrong).
        for week in (0, -1, -7, len(weeks) - 1, len(weeks), len(weeks) + 40):
            assert state.manifest(week) == state._build_manifest(week), week


def test_script_access_flips_are_epoch_boundaries():
    """The falling-Flash config exercises a mid-study ``always`` flip."""
    config = _CONFIGS["falling-flash"]
    ecosystem = WebEcosystem(config)
    flips = 0
    for domain in ecosystem.population:
        state = ecosystem.site_state(domain)
        previous = None
        for week in config.calendar:
            flash = state._build_manifest(week.ordinal).flash
            if (
                previous is not None
                and flash is not None
                and flash.script_access != previous.script_access
            ):
                flips += 1
                assert week.ordinal in state.change_weeks
            previous = flash
    assert flips > 0


@pytest.fixture()
def counted_builds(monkeypatch):
    """Fresh site states, and a count of manifest builds per rank."""
    counts = collections.Counter()
    original = SiteState._build_manifest
    monkeypatch.setattr(
        ecosystem_module, "_DATASET_CACHE", collections.OrderedDict()
    )

    def counting(self, ordinal):
        counts[self.domain.rank] += 1
        return original(self, ordinal)

    monkeypatch.setattr(SiteState, "_build_manifest", counting)
    return counts


@pytest.mark.parametrize("name", ["baseline", "bundled-deps", "falling-flash"])
def test_forward_visit_builds_once_per_epoch(counted_builds, name):
    config = dataclasses.replace(_CONFIGS[name], seed=_SEED + 1)
    ecosystem = WebEcosystem(config)
    weeks = [week.ordinal for week in config.calendar]
    states = [ecosystem.site_state(domain) for domain in ecosystem.population]
    manifests = {
        state.domain.rank: [state.manifest(week) for week in weeks]
        for state in states
    }
    content_runs = 0
    for state in states:
        epochs = 1 + len(state.change_weeks)
        assert counted_builds[state.domain.rank] == epochs
        assert all(0 < week < len(weeks) for week in state.change_weeks)
        assert list(state.change_weeks) == sorted(set(state.change_weeks))
        runs = manifests[state.domain.rank]
        content_runs += 1 + sum(1 for a, b in zip(runs, runs[1:]) if a != b)
    builds = sum(counted_builds.values())
    # Never fewer builds than the content changes, far fewer than weeks.
    assert content_runs <= builds < len(states) * len(weeks) // 10
