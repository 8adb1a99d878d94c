"""Advisory records and CVE-range accuracy classification.

An :class:`Advisory` captures one published vulnerability: the affected
range *as stated by the CVE report* and, where the paper's PoC
experiments corrected it, the *True Vulnerable Versions* (TVV) range.

Section 6.4 classifies incorrect CVE ranges:

* **understated** — truly vulnerable versions exist outside the stated
  range (developers on those versions are falsely reassured);
* **overstated** — the stated range claims versions that are not actually
  vulnerable (developers are pushed into unnecessary updates).

A range can err in both directions (e.g. Moment's CVE-2016-4055); the
paper assigns the security-relevant direction, so understatement
dominates.  :func:`classify_accuracy` implements that rule.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
from typing import Optional, Sequence, Tuple

from ..errors import VulnDBError
from ..semver import RangeSet, ReleaseCatalog, Version, parse_version


class AttackType(enum.Enum):
    """Vulnerability classes observed across the paper's 28 advisories."""

    XSS = "Cross-site Scripting"
    PROTOTYPE_POLLUTION = "Prototype Pollution"
    ARBITRARY_CODE_INJECTION = "Arbitrary Code Injection"
    RESOURCE_EXHAUSTION = "Resource Exhaustion"
    REDOS = "Regular Expression Denial of Service"
    MISSING_AUTHORIZATION = "Missing Authorization"
    SQL_INJECTION = "SQL Injection"
    PRIVILEGE_ESCALATION = "Privilege Escalation"
    MEMORY_CORRUPTION = "Memory Corruption"
    OTHER = "Other"


class RangeAccuracy(enum.Enum):
    """Section 6.4 verdict on a CVE's stated affected range."""

    CORRECT = "correct"
    UNDERSTATED = "understated"
    OVERSTATED = "overstated"
    UNVERIFIED = "unverified"


@dataclasses.dataclass(frozen=True)
class Advisory:
    """One published vulnerability report.

    Attributes:
        identifier: CVE id, or an advisory slug when no CVE was assigned
            (the jQuery-Migrate XSS has none).
        library: Canonical library name the advisory applies to.
        stated_range: Affected versions as stated by the report.
        true_range: True Vulnerable Versions established by PoC
            validation; ``None`` when the paper found the stated range
            correct or could not validate it.
        patched_versions: First fixed release(s); empty when no patch
            exists (Prototype's CVE-2020-27511).
        disclosed: Public disclosure date of the report.
        patched_on: Release date of the fix, if any.
        attack_type: Vulnerability class.
        cvss: CVSS base score when published.
        poc_available: Whether working PoC code exists (pre-existing or
            reimplemented by the paper).
        notes: Free-form provenance notes.
    """

    identifier: str
    library: str
    stated_range: RangeSet
    true_range: Optional[RangeSet] = None
    patched_versions: Tuple[str, ...] = ()
    disclosed: Optional[datetime.date] = None
    patched_on: Optional[datetime.date] = None
    attack_type: AttackType = AttackType.OTHER
    cvss: Optional[float] = None
    poc_available: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.identifier:
            raise VulnDBError("advisory requires an identifier")
        if not self.library:
            raise VulnDBError(f"{self.identifier}: advisory requires a library")

    @property
    def has_cve_id(self) -> bool:
        return self.identifier.upper().startswith("CVE-")

    @property
    def is_patched(self) -> bool:
        return bool(self.patched_versions)

    @property
    def effective_range(self) -> RangeSet:
        """The best-known affected range (TVV when available)."""
        return self.true_range if self.true_range is not None else self.stated_range

    def affects(self, version: object, use_true_range: bool = False) -> bool:
        """Whether ``version`` is affected.

        Args:
            version: Version string or :class:`Version`.
            use_true_range: Consult the TVV range instead of the stated
                range (falls back to stated when no TVV is recorded).
        """
        target = self.effective_range if use_true_range else self.stated_range
        return target.contains(parse_version(version))  # type: ignore[arg-type]


def _probe_versions(
    catalog: Optional[ReleaseCatalog], extra: Sequence[str] = ()
) -> Tuple[Version, ...]:
    probes = []
    if catalog is not None:
        probes.extend(catalog.versions)
        # Sentinels beyond the catalogued history catch open-ended ranges
        # ("all versions" vs "<= latest").
        top = catalog.versions[-1]
        probes.append(Version(f"{top.major + 1}.0.0"))
        probes.append(Version("0.0.1"))
    probes.extend(parse_version(v) for v in extra)
    return tuple(probes)


def classify_accuracy(
    advisory: Advisory, catalog: Optional[ReleaseCatalog] = None
) -> RangeAccuracy:
    """Classify a CVE's stated range against its TVV range.

    Evaluates both ranges over the library's release catalog (plus
    sentinel versions below and above the catalogued history).  If any
    truly vulnerable version falls outside the stated range the report is
    *understated* — the dangerous direction, which dominates mixed cases
    per the paper.  Otherwise, stated versions that are not truly
    vulnerable make it *overstated*.

    Args:
        advisory: The advisory to classify.
        catalog: Release catalog to probe; when omitted the built-in
            catalog for the advisory's library is used if available.
    """
    if advisory.true_range is None:
        return RangeAccuracy.CORRECT
    if catalog is None:
        from ..semver.catalog import builtin_catalogs

        catalog = builtin_catalogs().get(advisory.library)
    probes = _probe_versions(catalog)
    if not probes:
        return RangeAccuracy.UNVERIFIED
    understated = any(
        advisory.true_range.contains(v) and not advisory.stated_range.contains(v)
        for v in probes
    )
    if understated:
        return RangeAccuracy.UNDERSTATED
    overstated = any(
        advisory.stated_range.contains(v) and not advisory.true_range.contains(v)
        for v in probes
    )
    if overstated:
        return RangeAccuracy.OVERSTATED
    return RangeAccuracy.CORRECT
