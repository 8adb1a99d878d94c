"""The canonical encoder against the ``isinstance`` chain it replaced.

:func:`repro.canonical.to_canonical_dict` dispatches on ``type(value)``
through a table of per-class encoders.  On every input below it must
return what ``tests/reference_canonical.py`` returns, type for type
(an IntEnum member stays one; a plain int would dump the same JSON), and
the same ``json.dumps`` bytes:

* every registered analysis's result on generated stores: a manifest
  crawl, a full crawl and a scenario-pack crawl per seed;
* generated nested values: dataclasses inside dataclasses, dicts keyed
  by Enum, IntEnum, str-mixin Enum, int and str, sets and frozensets of
  tuples, dates and datetimes, float subclasses, numpy scalars, and
  objects the value-level fallback decides (``describe()``, ``.text``,
  ``str()``), including instances of one class that decide differently;
* ``canonical_digest`` of scenario configs and fault plans.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import json
import math
from typing import ClassVar, Dict, List

import numpy as np

import proptest
import reference_canonical
from repro import ScenarioConfig, Study
from repro.analysis.api import available_analyses, get_analysis
from repro.canonical import canonical_digest, to_canonical_dict
from repro.config import AccessibilityConfig, BehaviorMix
from repro.scenarios import apply_pack, available_packs


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _assert_same(got, want, path: str = "$") -> None:
    """Equal, and of the same type at every node (dict key order too)."""
    assert type(got) is type(want), (path, type(got), type(want))
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{index}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), path
    else:
        assert got == want, path


def _assert_encodes_alike(value) -> None:
    want = reference_canonical.to_canonical_dict(value)
    got = to_canonical_dict(value)
    _assert_same(got, want)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert json.dumps(got) == json.dumps(want)


# ----------------------------------------------------------------------
# Registered analyses on generated stores
# ----------------------------------------------------------------------
def _assert_analyses_alike(study: Study) -> None:
    context = study.analysis_context()
    for name in available_analyses():
        _assert_encodes_alike(get_analysis(name).run(study.store, context))


class TestAnalysisResults:
    def test_generated_stores(self):
        def prop(rng, seed):
            config = ScenarioConfig(population=rng.choice((24, 32, 40)), seed=seed)
            start = rng.randrange(len(config.calendar.weeks) - 6)
            weeks = config.calendar.weeks[start : start + rng.randint(2, 6)]
            pack = rng.choice([p for p in available_packs() if p != "baseline"])
            for study in (
                Study(config),
                Study(config, mode="full"),
                Study(apply_pack(config, pack)),
            ):
                study.run(weeks=weeks)
                _assert_analyses_alike(study)

        proptest.forall(prop)


# ----------------------------------------------------------------------
# Generated nested values
# ----------------------------------------------------------------------
class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"


class Coded(int, enum.Enum):
    """An int-mixin Enum whose value is not its int: the int rule comes
    before the Enum rule, so a member encodes as itself, dumping ``1``."""

    def __new__(cls, number: int, label: str) -> "Coded":
        member = int.__new__(cls, number)
        member._value_ = label
        return member

    ONE = (1, "one")
    TWO = (2, "two")


class Ratio(float):
    pass


class Label(str):
    pass


@dataclasses.dataclass(frozen=True)
class Leaf:
    number: int
    share: float
    label: str
    when: datetime.date
    kind: Color
    registry: ClassVar[str] = "not a field"


@dataclasses.dataclass
class Node:
    leaf: Leaf
    children: List[object]
    index: Dict[object, object]
    extra: object = None


@dataclasses.dataclass
class Branch(Node):
    weight: float = 0.5


class Described:
    def __init__(self, text: str) -> None:
        self._text = text

    def describe(self) -> str:
        return f"range {self._text}"


class Texted:
    def __init__(self, text: str) -> None:
        self.text = text


class Shifting:
    """Instances of one class that the fallback decides differently:
    by ``describe()``, by ``.text``, or by ``str()``."""

    def __init__(self, style: int) -> None:
        if style == 0:
            self.describe = lambda: "described"
        elif style == 1:
            self.text = "1.2.3"
        elif style == 2:
            self.text = 7  # not a str: falls through to str()

    def __str__(self) -> str:
        return "shifting"


def _scalar(rng):
    kind = rng.randrange(16)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return rng.randint(-10**12, 10**12)
    if kind == 3:
        return rng.choice(("", "a", "é", "x y", "1"))
    if kind == 4:
        return rng.choice((0.0, -1.5, 1e-300, math.inf, math.nan, rng.random()))
    if kind == 5:
        return Ratio(rng.random())
    if kind == 6:
        return Label(rng.choice(("p", "q")))
    if kind == 7:
        return rng.choice(list(Color) + list(Level) + list(Tag) + list(Coded))
    if kind == 8:
        return datetime.date(2018, 1, 1) + datetime.timedelta(days=rng.randrange(1500))
    if kind == 9:
        return datetime.datetime(2020, 2, 29, rng.randrange(24), rng.randrange(60))
    if kind == 10:
        return rng.choice(
            (np.float64(rng.random()), np.int64(rng.randrange(100)), np.bool_(True),
             np.float32(0.25), np.str_("np"))
        )
    if kind == 11:
        return Described(str(rng.randrange(5)))
    if kind == 12:
        return Texted(f"{rng.randrange(3)}.{rng.randrange(9)}")
    if kind == 13:
        return Shifting(rng.randrange(4))
    if kind == 14:
        return rng.choice((Leaf, Color, int))  # classes, not instances
    return _leaf(rng)


def _key(rng):
    return rng.choice(
        (rng.choice(list(Color)), rng.choice(list(Level)), rng.choice(list(Tag)),
         rng.choice(list(Coded)), rng.randrange(4), str(rng.randrange(4)),
         rng.choice(("red", "alpha", "one", "2")))
    )


def _leaf(rng) -> Leaf:
    return Leaf(
        number=rng.randrange(100),
        share=rng.random(),
        label=rng.choice(("a", "b")),
        when=datetime.date(2020, 1, 1) + datetime.timedelta(days=rng.randrange(99)),
        kind=rng.choice(list(Color)),
    )


def _value(rng, depth: int = 0):
    if depth >= 4:
        return _scalar(rng)
    kind = rng.randrange(8)
    if kind == 0:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 1:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 2:
        return {_key(rng): _value(rng, depth + 1) for _ in range(rng.randrange(6))}
    if kind == 3:
        items = {(rng.randrange(5), rng.choice("xyz")) for _ in range(rng.randrange(6))}
        return rng.choice((set, frozenset))(items)
    if kind == 4:
        cls = rng.choice((Node, Branch))
        return cls(
            leaf=_leaf(rng),
            children=[_value(rng, depth + 1) for _ in range(rng.randrange(3))],
            index={_key(rng): _value(rng, depth + 1) for _ in range(rng.randrange(4))},
            extra=_value(rng, depth + 1),
        )
    return _scalar(rng)


class TestNestedValues:
    def test_generated_values(self):
        def prop(rng, seed):
            for _ in range(300):
                _assert_encodes_alike(_value(rng))

        proptest.forall(prop)

    def test_each_fallback_value_decides_for_itself(self):
        """Instances of one class, each taking another branch."""
        values = [Shifting(style) for style in (1, 0, 2, 3)]
        for value in values + [values]:
            _assert_encodes_alike(value)
        assert to_canonical_dict(values) == [
            "1.2.3", "described", "shifting", "shifting"
        ]

    def test_int_rule_comes_before_the_enum_rule(self):
        for member in (Level.HIGH, Coded.ONE, Tag.BETA):
            _assert_encodes_alike(member)
            assert to_canonical_dict(member) is member
        assert json.dumps(to_canonical_dict([Coded.TWO])) == "[2]"


# ----------------------------------------------------------------------
# Identity digests
# ----------------------------------------------------------------------
def _reference_digest(value) -> str:
    text = json.dumps(
        reference_canonical.to_canonical_dict(value),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDigests:
    def test_scenario_configs_and_fault_plans(self):
        def prop(rng, seed):
            base = ScenarioConfig(population=rng.randint(1, 5000), seed=seed)
            variants = [
                base,
                dataclasses.replace(
                    base,
                    accessibility=AccessibilityConfig(flaky=rng.random()),
                    behavior=BehaviorMix(),
                ),
            ] + [apply_pack(base, pack) for pack in available_packs()]
            weeks = [week.ordinal for week in base.calendar.weeks[:10]]
            plans = [proptest.fault_plan(rng, weeks) for _ in range(5)]
            for value in variants + plans:
                assert canonical_digest(value) == _reference_digest(value)
                _assert_encodes_alike(value)

        proptest.forall(prop)
