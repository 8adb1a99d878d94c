"""Version regressions: sites that update and then roll back.

The paper's future work asks to "examine cases in which websites have
updated to patched versions but subsequently experienced regressions,
potentially due to compatibility concerns".  This analysis walks the
observed per-site version trajectories and reports:

* **downgrades** — any observed move to a strictly lower version;
* **security regressions** — downgrades that re-enter an advisory's
  affected range after the site had escaped it (the site became
  vulnerable *again*);
* the libraries where regressions concentrate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..crawler.store import ObservationStore
from ..errors import VersionError
from ..semver import parse_version
from ..vulndb import MatchMode, VersionMatcher


@dataclasses.dataclass(frozen=True)
class Regression:
    """One observed downgrade."""

    domain_rank: int
    library: str
    from_version: str
    to_version: str
    week_ordinal: int
    reintroduced: Tuple[str, ...]  # advisories made applicable again

    @property
    def is_security_regression(self) -> bool:
        return bool(self.reintroduced)


@dataclasses.dataclass
class RegressionResult:
    """All regressions found in a crawl."""

    regressions: List[Regression]
    sites_with_updates: int

    @property
    def downgrade_count(self) -> int:
        return len(self.regressions)

    def by_library(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for regression in self.regressions:
            counts[regression.library] = counts.get(regression.library, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def find_regressions(
    store: ObservationStore,
    matcher: VersionMatcher,
    mode: MatchMode = MatchMode.CVE,
) -> RegressionResult:
    """Scan all trajectories for downgrades and security regressions."""
    regressions: List[Regression] = []
    sites_with_updates = 0
    for rank, libraries in store.trajectories.items():
        any_change = False
        for library, trajectory in libraries.items():
            if len(trajectory) > 1:
                any_change = True
            for (week_a, before), (week_b, after) in zip(trajectory, trajectory[1:]):
                try:
                    went_down = parse_version(after) < parse_version(before)
                except VersionError:
                    continue
                if not went_down:
                    continue
                before_ids = {
                    h.identifier for h in matcher.match(library, before, mode)
                }
                after_ids = {
                    h.identifier for h in matcher.match(library, after, mode)
                }
                regressions.append(
                    Regression(
                        domain_rank=rank,
                        library=library,
                        from_version=before,
                        to_version=after,
                        week_ordinal=week_b,
                        reintroduced=tuple(sorted(after_ids - before_ids)),
                    )
                )
        if any_change:
            sites_with_updates += 1
    return RegressionResult(
        regressions=regressions, sites_with_updates=sites_with_updates
    )
