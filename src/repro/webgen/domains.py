"""The domain population: an Alexa-style ranked list with reachability.

Domains get deterministic names, a rank (1 = most popular), and a
reachability profile drawn from the scenario's
:class:`~repro.config.AccessibilityConfig` — the source of the paper's
"average 782,300 of 1M collected each week" and of the domains its
filter removes.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import AccessibilityConfig

_TLDS = (".com", ".net", ".org", ".io", ".co", ".info", ".ru", ".de", ".cn", ".jp")
_TLD_WEIGHTS = (0.42, 0.10, 0.09, 0.06, 0.05, 0.04, 0.08, 0.06, 0.06, 0.04)


class Reachability(enum.Enum):
    """How a domain behaves to the crawler over the study."""

    STABLE = "stable"
    FLAKY = "flaky"
    ANTIBOT = "antibot"
    DIES = "dies"
    DEAD = "dead"


@dataclasses.dataclass(frozen=True)
class Domain:
    """One ranked domain.

    Attributes:
        rank: Alexa-style rank, 1-based.
        name: Hostname (e.g. ``site000017.example-17.com``).
        reachability: Crawl-facing behaviour class.
        death_week: Kept-week ordinal at which a ``DIES`` domain stops
            resolving; None otherwise.
    """

    rank: int
    name: str
    reachability: Reachability
    death_week: Optional[int] = None

    @property
    def tier(self) -> str:
        """Popularity tier: ``top1k``, ``top10k``, ``top100k``, ``rest``."""
        if self.rank <= 1_000:
            return "top1k"
        if self.rank <= 10_000:
            return "top10k"
        if self.rank <= 100_000:
            return "top100k"
        return "rest"

    def alive_at(self, week_ordinal: int) -> bool:
        if self.reachability is Reachability.DEAD:
            return False
        if self.reachability is Reachability.DIES:
            return self.death_week is None or week_ordinal < self.death_week
        return True


def _domain_name(rank: int, rng: np.random.Generator) -> str:
    tld = _TLDS[int(rng.choice(len(_TLDS), p=_TLD_WEIGHTS))]
    return f"site{rank:07d}{tld}"


class DomainPopulation:
    """The full ranked domain list for one scenario.

    Args:
        size: Number of domains (rank 1..size).
        accessibility: Reachability mix.
        rng: Seeded generator; consumed deterministically.
        total_weeks: Number of kept snapshot weeks (bounds death weeks).
    """

    def __init__(
        self,
        size: int,
        accessibility: AccessibilityConfig,
        rng: np.random.Generator,
        total_weeks: int,
    ) -> None:
        self.size = size
        self.accessibility = accessibility
        draws = rng.random(size)
        death_draws = rng.integers(1, max(2, total_weeks), size=size)
        acc = accessibility
        domains: List[Domain] = []
        # Lower-ranked domains are less stable (the paper observed
        # instability concentrated in the tail), so weight the dead /
        # dying probability by rank percentile.
        for index in range(size):
            rank = index + 1
            percentile = rank / size  # 0 (top) .. 1 (tail)
            dead_p = acc.initially_dead * (0.4 + 1.2 * percentile)
            dies_p = acc.dies_during_study * (0.4 + 1.2 * percentile)
            antibot_p = acc.antibot
            flaky_p = acc.flaky * (0.5 + percentile)
            draw = draws[index]
            death_week: Optional[int] = None
            if draw < dead_p:
                kind = Reachability.DEAD
            elif draw < dead_p + dies_p:
                kind = Reachability.DIES
                death_week = int(death_draws[index])
            elif draw < dead_p + dies_p + antibot_p:
                kind = Reachability.ANTIBOT
            elif draw < dead_p + dies_p + antibot_p + flaky_p:
                kind = Reachability.FLAKY
            else:
                kind = Reachability.STABLE
            domains.append(
                Domain(
                    rank=rank,
                    name=_domain_name(rank, rng),
                    reachability=kind,
                    death_week=death_week,
                )
            )
        self._domains: Tuple[Domain, ...] = tuple(domains)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Domain]:
        return iter(self._domains)

    def __getitem__(self, index: int) -> Domain:
        return self._domains[index]

    @property
    def domains(self) -> Tuple[Domain, ...]:
        return self._domains

    def by_name(self, name: str) -> Optional[Domain]:
        # Names embed the rank, so this is O(1) without an index.
        if name.startswith("site"):
            try:
                rank = int(name[4:11])
            except ValueError:
                return None
            if 1 <= rank <= self.size and self._domains[rank - 1].name == name:
                return self._domains[rank - 1]
        return None

    def alive_count(self, week_ordinal: int) -> int:
        """Domains that resolve at the given kept-week ordinal."""
        return sum(1 for d in self._domains if d.alive_at(week_ordinal))
