"""The queryable vulnerability database.

Mirrors the role of the paper's cross-referenced sources (NVD, MITRE,
cvedetails.com, Snyk): a single store the analysis pipeline queries by
library, identifier, date, or affected version.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import VulnDBError
from ..semver import VersionLike
from .model import Advisory


class VulnerabilityDatabase:
    """An indexed collection of :class:`Advisory` records."""

    def __init__(self, advisories: Iterable[Advisory] = ()) -> None:
        self._by_id: Dict[str, Advisory] = {}
        self._by_library: Dict[str, List[Advisory]] = {}
        for advisory in advisories:
            self.add(advisory)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, advisory: Advisory) -> None:
        """Register an advisory.

        Raises:
            VulnDBError: On a duplicate identifier.
        """
        key = advisory.identifier.upper()
        if key in self._by_id:
            raise VulnDBError(f"duplicate advisory {advisory.identifier}")
        self._by_id[key] = advisory
        self._by_library.setdefault(advisory.library.lower(), []).append(advisory)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Advisory]:
        return iter(self._by_id.values())

    def __contains__(self, identifier: object) -> bool:
        return isinstance(identifier, str) and identifier.upper() in self._by_id

    def get(self, identifier: str) -> Advisory:
        """Fetch one advisory by id.

        Raises:
            VulnDBError: If unknown.
        """
        try:
            return self._by_id[identifier.upper()]
        except KeyError:
            raise VulnDBError(f"unknown advisory {identifier!r}") from None

    def libraries(self) -> Tuple[str, ...]:
        """Library names with at least one advisory."""
        return tuple(sorted(self._by_library))

    def for_library(self, library: str) -> Tuple[Advisory, ...]:
        """All advisories for a library (disclosure order)."""
        records = self._by_library.get(library.lower(), [])
        return tuple(
            sorted(records, key=lambda a: a.disclosed or datetime.date.min)
        )

    def affecting(
        self,
        library: str,
        version: VersionLike,
        use_true_range: bool = False,
        as_of: Optional[datetime.date] = None,
    ) -> Tuple[Advisory, ...]:
        """Advisories whose range contains ``version``.

        Args:
            library: Library name.
            version: The version in use.
            use_true_range: Match against TVV ranges instead of stated
                CVE ranges.
            as_of: Only consider advisories disclosed on or before this
                date (a site is not "known vulnerable" before disclosure).
        """
        hits = []
        for advisory in self.for_library(library):
            if as_of is not None and advisory.disclosed and advisory.disclosed > as_of:
                continue
            if advisory.affects(version, use_true_range=use_true_range):
                hits.append(advisory)
        return tuple(hits)

    def disclosed_between(
        self, start: datetime.date, end: datetime.date
    ) -> Tuple[Advisory, ...]:
        return tuple(
            a
            for a in self._by_id.values()
            if a.disclosed is not None and start <= a.disclosed <= end
        )


def default_database(
    include_wordpress: bool = True, include_flash: bool = True
) -> VulnerabilityDatabase:
    """The paper's full advisory set (Tables 2 and 4 + Flash sample)."""
    from .data import library_advisories
    from .flash_data import flash_advisories
    from .wordpress_data import wordpress_advisories

    records = list(library_advisories())
    if include_wordpress:
        records.extend(wordpress_advisories())
    if include_flash:
        records.extend(flash_advisories())
    return VulnerabilityDatabase(records)
