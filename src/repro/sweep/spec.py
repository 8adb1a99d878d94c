"""Sweep grids: declarative (pack, params) points over one scenario.

A *sweep* runs the same ``(population, seed)`` scenario once per grid
point, where each point is a scenario pack plus one concrete parameter
assignment.  The grid is declared as text::

    baseline;bundled-deps:share=0.1|0.3;counterfactual:intervention=no-auto-update

``";"`` separates pack segments; a segment is ``pack`` or
``pack:name=v1|v2,name2=v3`` where ``|`` lists alternative values and
``,`` separates parameters — the segment expands to the cartesian
product of its parameter values.  Every point is a *full scenario*: it
gets its own :func:`~repro.config.scenario_digest` (the pack
selection is part of dataset identity), its own checkpointed crawl, and
its own analyses document, before the fold compares them.

Points keep their parameter values as the raw grid strings.  That keeps
:class:`SweepPoint` pure data (a fleet plan embeds it verbatim in
``queue.json``) while type coercion stays where it is declared — in the
pack's :class:`~repro.scenarios.registry.PackParam` table, applied when
the point is resolved into a config or digest.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Tuple

from ..config import ScenarioConfig, scenario_digest
from ..errors import ConfigError

#: Version of the folded sweep document (``fleet-sweep.json``).
SWEEP_FORMAT = 1


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point: a pack name plus raw parameter assignments.

    Attributes:
        pack: Registered scenario-pack name.
        params: Sorted ``(name, raw value)`` pairs exactly as they
            appeared in the grid spec; coercion happens against the
            pack's declared parameter table on resolution.
    """

    pack: str
    params: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if list(self.params) != sorted(self.params):
            raise ConfigError(
                f"sweep point params must be sorted by name, got "
                f"{self.params!r}"
            )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human/registry spelling, e.g. ``bundled-deps(share=0.3)``."""
        if not self.params:
            return self.pack
        inner = ",".join(f"{name}={value}" for name, value in self.params)
        return f"{self.pack}({inner})"

    def raw_params(self) -> Dict[str, str]:
        return dict(self.params)

    # ------------------------------------------------------------------
    def config(self, population: int, seed: int) -> ScenarioConfig:
        """The point's full scenario config (pack applied and stamped)."""
        from ..scenarios import apply_pack

        base = ScenarioConfig(population=population, seed=seed)
        return apply_pack(base, self.pack, self.raw_params())

    def pack_digest(self) -> str:
        """Digest of the pack identity with this point's params resolved."""
        from ..scenarios import pack_digest

        return pack_digest(self.pack, self.raw_params())

    def scenario_digest(self, population: int, seed: int) -> str:
        """The dataset identity this point's crawl will run under."""
        return scenario_digest(self.config(population, seed))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "pack": self.pack,
            "params": [[name, value] for name, value in self.params],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepPoint":
        return cls(
            pack=payload["pack"],
            params=tuple(
                (name, value) for name, value in payload["params"]
            ),
        )


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A validated grid: ordered, duplicate-free sweep points."""

    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigError("a sweep needs at least one grid point")
        seen = set()
        for point in self.points:
            key = (point.pack, point.params)
            if key in seen:
                raise ConfigError(
                    f"duplicate sweep point {point.describe()}; every grid "
                    f"point must be a distinct scenario"
                )
            seen.add(key)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "SweepSpec":
        """Parse a grid spec into points (validating packs and params).

        Grammar: ``segment(;segment)*`` with ``segment`` being
        ``pack`` or ``pack:name=v1|v2(,name=...)*``.  Each segment
        expands to the cartesian product of its parameter value lists,
        in spec order (later parameters vary fastest).

        Raises:
            ConfigError: Malformed spec, unknown pack, undeclared
                parameter, or a value failing the declared type/choices.
        """
        from ..scenarios import get_pack

        points: List[SweepPoint] = []
        for segment in text.split(";"):
            segment = segment.strip()
            if not segment:
                raise ConfigError(
                    f"empty pack segment in sweep grid {text!r}; expected "
                    f"'pack' or 'pack:name=v1|v2,...' between ';'"
                )
            pack_name, _, assignment_text = segment.partition(":")
            pack_name = pack_name.strip()
            spec = get_pack(pack_name)  # unknown packs list the vocabulary
            names: List[str] = []
            value_lists: List[List[str]] = []
            if assignment_text:
                for assignment in assignment_text.split(","):
                    name, eq, values = assignment.partition("=")
                    name = name.strip()
                    if not eq or not name or not values.strip():
                        raise ConfigError(
                            f"bad sweep assignment {assignment!r} in segment "
                            f"{segment!r}; expected name=value|value|..."
                        )
                    if name in names:
                        raise ConfigError(
                            f"parameter {name!r} assigned twice in segment "
                            f"{segment!r}"
                        )
                    declared = spec.param(name)  # undeclared names raise
                    candidates = [v.strip() for v in values.split("|")]
                    for raw in candidates:
                        declared.parse(raw)  # type/choices check, eagerly
                    names.append(name)
                    value_lists.append(candidates)
            for combo in itertools.product(*value_lists):
                params = tuple(sorted(zip(names, combo)))
                points.append(SweepPoint(pack=pack_name, params=params))
        return cls(points=tuple(points))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return "; ".join(point.describe() for point in self.points)

    def scenario_digests(
        self, population: int, seed: int
    ) -> Tuple[str, ...]:
        """Per-point dataset identities, in grid order."""
        return tuple(
            point.scenario_digest(population, seed) for point in self.points
        )
