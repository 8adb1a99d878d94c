"""Finding and report types for the site scanner."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Tuple

from ..vulndb import AttackType


class Severity(enum.IntEnum):
    """Ordered severity scale (higher = worse)."""

    INFO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


#: Attack class -> finding severity; shared with the serving layer's
#: trajectory-based domain scans so both report identical severities.
ATTACK_SEVERITY = {
    AttackType.XSS: Severity.HIGH,
    AttackType.ARBITRARY_CODE_INJECTION: Severity.CRITICAL,
    AttackType.PROTOTYPE_POLLUTION: Severity.HIGH,
    AttackType.SQL_INJECTION: Severity.CRITICAL,
    AttackType.PRIVILEGE_ESCALATION: Severity.CRITICAL,
    AttackType.MEMORY_CORRUPTION: Severity.CRITICAL,
    AttackType.REDOS: Severity.MEDIUM,
    AttackType.RESOURCE_EXHAUSTION: Severity.MEDIUM,
    AttackType.MISSING_AUTHORIZATION: Severity.HIGH,
    AttackType.OTHER: Severity.MEDIUM,
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One actionable issue on a scanned page.

    Attributes:
        rule: Stable rule identifier (e.g. ``vulnerable-library``).
        severity: Ordered severity.
        title: One-line human summary.
        detail: Longer explanation with the evidence.
        remediation: The concrete action to take.
        library: Library involved, when applicable.
        version: Detected version, when applicable.
        advisories: CVE/advisory identifiers backing the finding.
        exploitable: A working PoC exists against this exact version.
        undisclosed: The stated CVE range misses this version — only the
            paper's True Vulnerable Versions flag it (Section 6.4).
    """

    rule: str
    severity: Severity
    title: str
    detail: str
    remediation: str
    library: Optional[str] = None
    version: Optional[str] = None
    advisories: Tuple[str, ...] = ()
    exploitable: bool = False
    undisclosed: bool = False


@dataclasses.dataclass
class ScanReport:
    """All findings for one page, sorted most severe first."""

    page_url: str
    findings: List[Finding]

    def __post_init__(self) -> None:
        self.findings.sort(key=lambda f: (-f.severity, f.rule, f.library or ""))

    def __len__(self) -> int:
        return len(self.findings)

    @property
    def worst(self) -> Severity:
        if not self.findings:
            return Severity.INFO
        return max(f.severity for f in self.findings)

    def by_rule(self) -> Dict[str, List[Finding]]:
        grouped: Dict[str, List[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return grouped

    def counts(self) -> Dict[Severity, int]:
        counts = {severity: 0 for severity in Severity}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def summary_line(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[severity]} {severity.name.lower()}"
            for severity in sorted(Severity, reverse=True)
            if counts[severity]
        ]
        inner = ", ".join(parts) if parts else "no issues"
        return f"{self.page_url}: {inner}"
