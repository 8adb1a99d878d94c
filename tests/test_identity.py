"""Run identity: canonical digests of the scenario config and fault plan.

A checkpoint or job queue is resumable only while its recorded digests
can be recomputed, so the digests hash canonical JSON of declared field
values — not pickle bytes, which follow module paths and the
interpreter's pickle protocol.  The goldens below are computed in fresh
interpreters under two hash seeds; any change to them is a deliberate
identity change.  A checkpoint recorded under an old scenario digest is
refused with a mismatch on ``scenario_digest``; a change to how the
digests are computed (not to what they cover) also needs a
``LEDGER_FORMAT`` bump.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Study
from repro.config import PackSelection, ScenarioConfig, scenario_digest
from repro.errors import ConfigError
from repro.options import (
    DurabilityOptions,
    ExecutionOptions,
    ObservabilityOptions,
    ResilienceOptions,
    RunOptions,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.ledger import fault_plan_digest
from repro.timeline import DEFAULT_PRUNED_WEEKS, StudyCalendar

_SCENARIO_GOLDEN = (
    "fe09ae16540494d24e57fc44cc69a6c3816f13c99a50d6121e002580e455d212"
)
_FAULT_PLAN_GOLDEN = (
    "3be7c94db575aeeb68fc55d033389848ece829058d7fddca635c39690f355205"
)

_DIGESTS_SCRIPT = """
from repro.config import ScenarioConfig, scenario_digest
from repro.runtime.faults import FaultPlan
from repro.runtime.ledger import fault_plan_digest

print(scenario_digest(ScenarioConfig(population=1000, seed=1)))
print(fault_plan_digest(
    FaultPlan(seed=3, crash_rate=0.25, surge_weeks=(1, 2), queue_tear_rate=0.5)
))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_digest_goldens_in_fresh_interpreters(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [_SCENARIO_GOLDEN, _FAULT_PLAN_GOLDEN]


def test_no_fault_plan_digests_as_none():
    assert fault_plan_digest(None) == "none"
    assert fault_plan_digest(FaultPlan()) != "none"


def _nudged(section, name):
    """``section`` with field ``name`` moved by one small step."""
    value = getattr(section, name)
    if isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1
    elif isinstance(value, float):
        new = value + 0.01
    elif isinstance(value, str):
        new = value + "-other"
    else:
        new = value + (("share", "0.5"),)
    try:
        return dataclasses.replace(section, **{name: new})
    except ConfigError:
        # The behaviour mix must sum to 1: take the step from another
        # fraction.
        other = "responsive" if name != "responsive" else "frozen"
        return dataclasses.replace(
            section, **{name: new, other: getattr(section, other) - 0.01}
        )


def _dataset_variants(base):
    """One config per dataset field, differing from ``base`` in it."""
    variants = {}
    for section in dataclasses.fields(base):
        if section.name == "calendar":
            continue
        value = getattr(base, section.name)
        if not dataclasses.is_dataclass(value):
            variants[section.name] = dataclasses.replace(
                base, **{section.name: value + 1}
            )
            continue
        for field in dataclasses.fields(value):
            variants[f"{section.name}.{field.name}"] = dataclasses.replace(
                base, **{section.name: _nudged(value, field.name)}
            )
    calendars = {
        "calendar.pruned": StudyCalendar(
            pruned=DEFAULT_PRUNED_WEEKS[:-1] + (199,)
        ),
        "calendar.start": StudyCalendar(start=datetime.date(2018, 3, 12)),
        "calendar.scheduled_weeks": StudyCalendar(scheduled_weeks=208),
    }
    for name, calendar in calendars.items():
        variants[name] = dataclasses.replace(base, calendar=calendar)
    return variants


def test_every_dataset_field_moves_the_digest():
    base = ScenarioConfig(population=100, seed=5)
    variants = _dataset_variants(base)
    assert len(variants) > 40
    assert "pack.params" in variants and "calendar.pruned" in variants
    digests = {name: scenario_digest(config) for name, config in variants.items()}
    digests["base"] = scenario_digest(base)
    assert len(set(digests.values())) == len(digests)


def test_pack_parameters_move_the_digest():
    base = ScenarioConfig(population=100, seed=5)
    one, two = (
        dataclasses.replace(
            base, pack=PackSelection("bundled-deps", (("share", value),))
        )
        for value in ('"0.3"', '"0.5"')
    )
    assert len({scenario_digest(c) for c in (base, one, two)}) == 3


def test_run_knobs_and_equal_calendars_share_the_digest(tmp_path):
    base = ScenarioConfig(population=100, seed=5)
    recalendared = dataclasses.replace(base, calendar=StudyCalendar())
    assert base.calendar is not recalendared.calendar
    assert scenario_digest(recalendared) == scenario_digest(base)
    # Run knobs live on RunOptions, never on the config: a study under
    # every one of them digests its dataset as a default study does.
    knobs = RunOptions(
        execution=ExecutionOptions(
            backend="process",
            workers=4,
            shard_size=7,
            profile_cache=False,
            profile_store_read=("gen-000",),
            profile_store_write="gen-001",
        ),
        resilience=ResilienceOptions(
            fault_plan=FaultPlan(seed=1, crash_rate=0.5),
            max_shard_retries=0,
            on_shard_failure="degrade",
        ),
        durability=DurabilityOptions(
            checkpoint_dir=str(tmp_path / "run"), resume=True
        ),
        observability=ObservabilityOptions(
            metrics_out=str(tmp_path / "m.json")
        ),
    )
    assert scenario_digest(Study(base, options=knobs).config) == (
        scenario_digest(base)
    )