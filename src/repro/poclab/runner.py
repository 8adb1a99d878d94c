"""The version-validation sweep (Section 6.4's experiment).

For each advisory with a PoC, run the PoC against every catalogued
release of the library and record which versions are exploitable.  The
result is the *discovered* vulnerable set; comparing it with the range
stated in the CVE report yields the understated/overstated verdicts of
Table 2 — mechanically, not by trusting the recorded TVV data.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..semver import RangeSet, Version
from ..semver.ranges import Bound, VersionRange
from ..vulndb import Advisory, RangeAccuracy, VulnerabilityDatabase
from .environment import EnvironmentFactory
from .poc import PocProgram, default_pocs


@dataclasses.dataclass
class DiscoveredRange:
    """The sweep outcome for one advisory."""

    advisory_id: str
    library: str
    vulnerable_versions: Tuple[str, ...]
    safe_versions: Tuple[str, ...]

    def as_range_set(self) -> RangeSet:
        """The tightest contiguous [min, next-safe) range set.

        Works for the paper's advisories, whose true vulnerable sets are
        contiguous in version order.
        """
        if not self.vulnerable_versions:
            from ..semver import NoVersions

            return NoVersions()
        versions = sorted(Version(v) for v in self.vulnerable_versions)
        low, high = versions[0], versions[-1]
        return RangeSet(
            [
                VersionRange(
                    lower=Bound(low, inclusive=True),
                    upper=Bound(high, inclusive=True),
                )
            ],
            source=f">= {low} and <= {high}",
        )


@dataclasses.dataclass
class SweepVerdict:
    """Discovered range vs the CVE-stated range."""

    advisory: Advisory
    discovered: DiscoveredRange
    verdict: RangeAccuracy
    newly_revealed: Tuple[str, ...]
    exonerated: Tuple[str, ...]


class ValidationLab:
    """Runs PoC sweeps and classifies CVE range accuracy.

    Args:
        database: The advisory database to validate against.
        factory: Environment factory (release catalogs).
    """

    def __init__(
        self,
        database: VulnerabilityDatabase,
        factory: Optional[EnvironmentFactory] = None,
    ) -> None:
        self.database = database
        self.factory = factory or EnvironmentFactory()
        self._pocs: Dict[str, PocProgram] = {
            p.advisory_id.upper(): p for p in default_pocs()
        }

    def available_pocs(self) -> Tuple[str, ...]:
        return tuple(sorted(self._pocs))

    # ------------------------------------------------------------------
    def sweep(self, advisory_id: str) -> DiscoveredRange:
        """Run one advisory's PoC across every catalogued release."""
        poc = self._pocs[advisory_id.upper()]
        vulnerable: List[str] = []
        safe: List[str] = []
        for environment in self.factory.sweep(poc.library):
            if poc.execute(environment):
                vulnerable.append(environment.version)
            else:
                safe.append(environment.version)
        return DiscoveredRange(
            advisory_id=poc.advisory_id,
            library=poc.library,
            vulnerable_versions=tuple(vulnerable),
            safe_versions=tuple(safe),
        )

    def classify(self, advisory_id: str) -> SweepVerdict:
        """Compare a sweep's discovery against the CVE-stated range."""
        advisory = self.database.get(advisory_id)
        discovered = self.sweep(advisory_id)
        catalog = self.factory.catalog(advisory.library)
        stated = {
            str(r.version) for r in catalog.in_range(advisory.stated_range)
        }
        found = set(discovered.vulnerable_versions)

        if not advisory.is_patched:
            # No fixed release exists: probe a hypothetical next release
            # (the unmerged-fix case, Prototype's CVE-2020-27511) — if it
            # is still exploitable and outside the stated range, the
            # report understates the exposure.
            poc = self._pocs[advisory_id.upper()]
            top = catalog.latest.version
            probe_version = f"{top.major}.{top.minor}.{top.patch + 1}"
            probe_env = self.factory.create(advisory.library, probe_version)
            if poc.execute(probe_env) and not advisory.stated_range.contains(
                probe_version
            ):
                found.add(probe_version)
                discovered = DiscoveredRange(
                    advisory_id=discovered.advisory_id,
                    library=discovered.library,
                    vulnerable_versions=discovered.vulnerable_versions
                    + (probe_version,),
                    safe_versions=discovered.safe_versions,
                )
        newly = tuple(sorted(found - stated, key=Version))
        exonerated = tuple(sorted(stated - found, key=Version))
        if newly:
            verdict = RangeAccuracy.UNDERSTATED
        elif exonerated:
            verdict = RangeAccuracy.OVERSTATED
        else:
            verdict = RangeAccuracy.CORRECT
        return SweepVerdict(
            advisory=advisory,
            discovered=discovered,
            verdict=verdict,
            newly_revealed=newly,
            exonerated=exonerated,
        )

    def classify_all(self) -> List[SweepVerdict]:
        """Sweep every advisory that has a PoC."""
        verdicts = []
        for advisory_id in self.available_pocs():
            if advisory_id in self.database:
                verdicts.append(self.classify(advisory_id))
        return verdicts

    def summary(self) -> Dict[RangeAccuracy, int]:
        """Verdict counts over all PoC-validated advisories."""
        counts = {v: 0 for v in RangeAccuracy}
        for verdict in self.classify_all():
            counts[verdict.verdict] += 1
        return counts
