"""Matching observed (library, version) pairs against the database.

The pipeline fingerprints millions of page observations; the matcher
turns each detected library version into a list of
:class:`VulnerabilityHit` records under one of two modes:

* ``MatchMode.CVE`` — trust the stated CVE ranges (Sections 6.2/7);
* ``MatchMode.TVV`` — use the paper's corrected True Vulnerable Versions
  (Section 6.4's refinement).

Results are memoized per (library, version, mode, disclosure-cutoff
month) because the same pair recurs across many domains and weeks.
Ingest asks for both modes at once through :meth:`VersionMatcher.lookup`,
memoized per (library, version).
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
from typing import Dict, Optional, Tuple

from ..semver import Version, parse_version
from ..errors import VersionError
from .model import Advisory
from .store import VulnerabilityDatabase


class MatchMode(enum.Enum):
    """Which affected-range set to match against."""

    CVE = "cve"
    TVV = "tvv"


@dataclasses.dataclass(frozen=True)
class VulnerabilityHit:
    """One advisory matching one observed library version."""

    advisory: Advisory
    library: str
    version: Version
    mode: MatchMode

    @property
    def identifier(self) -> str:
        return self.advisory.identifier


#: ``(CVE hit count, TVV hit count, CVE advisory ids, TVV advisory ids)``
#: for one (library, version); the ids in hit order.
ModeSummary = Tuple[int, int, Tuple[str, ...], Tuple[str, ...]]


class VersionMatcher:
    """Memoized vulnerability lookup for observed library versions."""

    def __init__(self, database: VulnerabilityDatabase) -> None:
        self.database = database
        self._cache: Dict[
            Tuple[str, str, MatchMode, Optional[datetime.date]],
            Tuple[VulnerabilityHit, ...],
        ] = {}
        self._lookups: Dict[Tuple[str, Optional[str]], ModeSummary] = {}

    def match(
        self,
        library: str,
        version: str,
        mode: MatchMode = MatchMode.CVE,
        as_of: Optional[datetime.date] = None,
    ) -> Tuple[VulnerabilityHit, ...]:
        """Advisories affecting ``library``@``version``.

        Args:
            library: Canonical library name.
            version: Observed version string; unparseable versions match
                nothing (the paper can only assess identified versions).
            mode: Stated-CVE or TVV ranges.
            as_of: Ignore advisories disclosed after this date.
        """
        key = (library.lower(), version, mode, as_of)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        try:
            parsed = parse_version(version)
        except VersionError:
            self._cache[key] = ()
            return ()
        advisories = self.database.affecting(
            library,
            parsed,
            use_true_range=(mode is MatchMode.TVV),
            as_of=as_of,
        )
        hits = tuple(
            VulnerabilityHit(advisory=a, library=library.lower(), version=parsed, mode=mode)
            for a in advisories
        )
        self._cache[key] = hits
        return hits

    def match_unversioned(
        self,
        library: str,
        mode: MatchMode = MatchMode.CVE,
        as_of: Optional[datetime.date] = None,
    ) -> Tuple[VulnerabilityHit, ...]:
        """Advisories that affect a library regardless of version.

        When the fingerprint engine identifies a library but cannot read
        its version, only advisories whose affected range is unbounded
        ("all versions", e.g. Prototype's CVE-2020-27511 TVV) can still
        be attributed — the paper counts every Prototype site for it.
        """
        key = (library.lower(), "<unversioned>", mode, as_of)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        hits = []
        for advisory in self.database.for_library(library):
            if as_of is not None and advisory.disclosed and advisory.disclosed > as_of:
                continue
            target = (
                advisory.effective_range if mode is MatchMode.TVV
                else advisory.stated_range
            )
            unbounded = any(
                r.lower is None and r.upper is None for r in target.ranges
            )
            if unbounded:
                hits.append(
                    VulnerabilityHit(
                        advisory=advisory,
                        library=library.lower(),
                        version=Version("0"),
                        mode=mode,
                    )
                )
        result = tuple(hits)
        self._cache[key] = result
        return result

    def lookup(self, library: str, version: Optional[str]) -> ModeSummary:
        """Both modes' hits for one detection, without a disclosure cutoff.

        ``version=None`` is an unreadable version and answers as
        :meth:`match_unversioned`; any other version as :meth:`match`.
        Memoized per ``(library, version)``, so a detection costs one
        dictionary probe once its pair has been seen.
        """
        key = (library, version)
        summary = self._lookups.get(key)
        if summary is None:
            if version is None:
                cve = self.match_unversioned(library, MatchMode.CVE)
                tvv = self.match_unversioned(library, MatchMode.TVV)
            else:
                cve = self.match(library, version, MatchMode.CVE)
                tvv = self.match(library, version, MatchMode.TVV)
            summary = self._lookups[key] = (
                len(cve),
                len(tvv),
                tuple(hit.identifier for hit in cve),
                tuple(hit.identifier for hit in tvv),
            )
        return summary

    def count(
        self,
        library: str,
        version: str,
        mode: MatchMode = MatchMode.CVE,
        as_of: Optional[datetime.date] = None,
    ) -> int:
        """Number of advisories affecting the pair."""
        return len(self.match(library, version, mode=mode, as_of=as_of))

    def is_vulnerable(
        self,
        library: str,
        version: str,
        mode: MatchMode = MatchMode.CVE,
        as_of: Optional[datetime.date] = None,
    ) -> bool:
        return self.count(library, version, mode=mode, as_of=as_of) > 0

    def cache_size(self) -> int:
        return len(self._cache)
