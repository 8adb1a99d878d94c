"""The site scanner: one page in, prioritized findings out.

Rules (each maps to a paper observation):

* ``vulnerable-library`` — a detected (library, version) matches an
  advisory; severity scales with attack class, PoC availability, and
  whether the *stated* CVE range would have missed it (Section 6.4's
  understated reports earn an ``undisclosed`` flag and a bump).
* ``discontinued-library`` — jQuery-Cookie / SWFObject style projects
  that no longer receive fixes (Section 6.3; the paper suggests CDNs
  should warn about these).
* ``unversioned-library`` — the version is not readable from the URL,
  so no vulnerability audit is possible (the paper's Wappalyzer gap).
* ``missing-sri`` / ``crossorigin-credentials`` — Section 6.5 hygiene.
* ``untrusted-host`` — libraries loaded from collaborative-VCS hosting.
* ``flash-eol`` / ``flash-script-access`` — Section 8.
* ``outdated-platform`` — WordPress core behind the latest release.
"""

from __future__ import annotations

import datetime
from typing import List, Optional

from ..fingerprint import FingerprintEngine, PageProfile
from ..poclab.poc import default_pocs
from ..poclab.environment import Environment
from ..semver import builtin_catalogs, parse_version
from ..errors import VersionError
from ..vulndb import (
    Advisory,
    MatchMode,
    VersionMatcher,
    VulnerabilityDatabase,
    default_database,
)
from ..vulndb.flash_data import FLASH_END_OF_LIFE
from ..webgen.libraries import library_profiles
from .findings import ATTACK_SEVERITY, Finding, ScanReport, Severity


class SiteScanner:
    """Scans landing pages for the issues the paper measures.

    Args:
        database: Advisory source (defaults to the paper's set).
        engine: Fingerprint engine override.
        as_of: Treat this date as "today" for disclosure cutoffs and the
            latest-release comparison; defaults to the real today.
    """

    def __init__(
        self,
        database: Optional[VulnerabilityDatabase] = None,
        engine: Optional[FingerprintEngine] = None,
        as_of: Optional[datetime.date] = None,
    ) -> None:
        self.database = database or default_database()
        self.engine = engine or FingerprintEngine()
        self.matcher = VersionMatcher(self.database)
        self.as_of = as_of
        self._catalogs = builtin_catalogs()
        self._profiles = library_profiles()
        self._pocs = {p.advisory_id.upper(): p for p in default_pocs()}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def scan_html(self, html: str, page_url: str) -> ScanReport:
        """Fingerprint and assess one page given its HTML."""
        profile = self.engine.fingerprint(html, page_url)
        return self.assess(profile, page_url)

    def scan_url(self, network, url: str) -> ScanReport:
        """Fetch a page over a virtual network and assess it."""
        from ..crawler.fetch import Fetcher

        result = Fetcher(network).fetch(url)
        if not result.ok:
            return ScanReport(
                page_url=url,
                findings=[
                    Finding(
                        rule="unreachable",
                        severity=Severity.INFO,
                        title=f"page not reachable ({result.outcome.value})",
                        detail=f"fetching {url} failed: {result.outcome.value}",
                        remediation="verify the host serves the landing page",
                    )
                ],
            )
        return self.scan_html(result.text, url)

    # ------------------------------------------------------------------
    # Assessment
    # ------------------------------------------------------------------
    def assess(self, profile: PageProfile, page_url: str) -> ScanReport:
        """Turn a fingerprint profile into findings."""
        findings: List[Finding] = []
        for detection in profile.libraries:
            findings.extend(self._assess_library(detection))
        findings.extend(self._assess_hygiene(profile))
        findings.extend(self._assess_flash(profile))
        findings.extend(self._assess_platform(profile))
        return ScanReport(page_url=page_url, findings=findings)

    # -- libraries -------------------------------------------------------
    def _is_exploitable(self, advisory: Advisory, library: str, version: str) -> bool:
        poc = self._pocs.get(advisory.identifier.upper())
        if poc is None:
            return False
        try:
            return poc.execute(Environment(library, version))
        except Exception:
            return False

    def _assess_library(self, detection) -> List[Finding]:
        findings: List[Finding] = []
        library = detection.library
        version = detection.version
        profile = self._profiles.get(library)

        if profile is not None and profile.discontinued:
            successor = (
                f"; migrate to {profile.migrates_to}" if profile.migrates_to else ""
            )
            findings.append(
                Finding(
                    rule="discontinued-library",
                    severity=Severity.MEDIUM,
                    title=f"{library} is no longer maintained",
                    detail=(
                        f"{library} receives no fixes; newly found bugs "
                        "will never be patched (paper Section 6.3)."
                    ),
                    remediation=f"replace {library}{successor}",
                    library=library,
                    version=version,
                )
            )

        if version is None:
            findings.append(
                Finding(
                    rule="unversioned-library",
                    severity=Severity.LOW,
                    title=f"{library} version not identifiable",
                    detail=(
                        f"the {library} inclusion URL carries no version, "
                        "so its vulnerability status cannot be audited."
                    ),
                    remediation="serve the library from a versioned URL",
                    library=library,
                )
            )
            return findings

        stated_hits = self.matcher.match(library, version, MatchMode.CVE, self.as_of)
        true_hits = self.matcher.match(library, version, MatchMode.TVV, self.as_of)
        stated_ids = {h.identifier for h in stated_hits}
        for hit in true_hits:
            advisory = hit.advisory
            severity = ATTACK_SEVERITY.get(advisory.attack_type, Severity.MEDIUM)
            exploitable = self._is_exploitable(advisory, library, version)
            undisclosed = advisory.identifier not in stated_ids
            if exploitable and severity < Severity.CRITICAL:
                severity = Severity(severity + 1)
            fixed = self._remediation_for(advisory, library, version)
            suffix = (
                " — NOT flagged by the CVE's stated range (understated report)"
                if undisclosed
                else ""
            )
            findings.append(
                Finding(
                    rule="vulnerable-library",
                    severity=severity,
                    title=f"{library} {version} affected by {advisory.identifier}",
                    detail=(
                        f"{advisory.attack_type.value}: {advisory.notes or 'see advisory'}"
                        f"{suffix}"
                    ),
                    remediation=fixed,
                    library=library,
                    version=version,
                    advisories=(advisory.identifier,),
                    exploitable=exploitable,
                    undisclosed=undisclosed,
                )
            )
        return findings

    def _remediation_for(
        self, advisory: Advisory, library: str, version: str
    ) -> str:
        """The smallest safe *upgrade* escaping the true range."""
        if not advisory.patched_versions and advisory.true_range is None:
            return f"no fixed release exists; replace {library}"
        catalog = self._catalogs.get(library)
        if catalog is not None:
            target = catalog.first_outside(advisory.effective_range, after=version)
            if target is not None:
                return f"update to {target.version} or later"
        if advisory.patched_versions:
            return f"update to {' / '.join(advisory.patched_versions)}"
        return f"no fixed release exists; replace {library}"

    # -- hygiene ----------------------------------------------------------
    def _assess_hygiene(self, profile: PageProfile) -> List[Finding]:
        findings: List[Finding] = []
        for detection in profile.external_without_integrity():
            findings.append(
                Finding(
                    rule="missing-sri",
                    severity=Severity.LOW,
                    title=f"external {detection.library} without Subresource Integrity",
                    detail=(
                        f"{detection.source_url} is loaded cross-origin "
                        "without an integrity attribute; a compromised host "
                        "gains full page privileges (paper Section 6.5)."
                    ),
                    remediation="add integrity= and crossorigin=anonymous",
                    library=detection.library,
                    version=detection.version,
                )
            )
        for detection in profile.libraries:
            if detection.crossorigin == "use-credentials":
                findings.append(
                    Finding(
                        rule="crossorigin-credentials",
                        severity=Severity.MEDIUM,
                        title=f"{detection.library} fetched with use-credentials",
                        detail=(
                            "cross-origin library requests carry user "
                            "credentials — cross-origin data leakage risk."
                        ),
                        remediation='use crossorigin="anonymous"',
                        library=detection.library,
                        version=detection.version,
                    )
                )
        for entry in profile.untrusted_scripts:
            host, url = entry[0], entry[1]
            has_integrity = bool(entry[2]) if len(entry) > 2 else False
            severity = Severity.LOW if has_integrity else Severity.MEDIUM
            findings.append(
                Finding(
                    rule="untrusted-host",
                    severity=severity,
                    title=f"script loaded from VCS hosting ({host})",
                    detail=(
                        f"{url} is served from collaborative version "
                        "control; maintainers and contributors are "
                        "unvetted (paper Section 6.5)."
                    ),
                    remediation="self-host the file or pin it with SRI",
                )
            )
        return findings

    # -- flash -------------------------------------------------------------
    def _assess_flash(self, profile: PageProfile) -> List[Finding]:
        findings: List[Finding] = []
        for embed in profile.flash_embeds:
            findings.append(
                Finding(
                    rule="flash-eol",
                    severity=Severity.HIGH,
                    title="Adobe Flash content embedded after end of life",
                    detail=(
                        f"{embed.swf_url}: Flash stopped receiving security "
                        f"fixes on {FLASH_END_OF_LIFE.isoformat()}; only "
                        "fringe browsers still execute it (paper Section 8)."
                    ),
                    remediation="replace the movie with HTML5",
                )
            )
            if embed.insecure:
                findings.append(
                    Finding(
                        rule="flash-script-access",
                        severity=Severity.HIGH,
                        title="AllowScriptAccess=always on a Flash embed",
                        detail=(
                            "a cross-origin .swf may call JavaScript and "
                            "manipulate the DOM of this page (WHATWG "
                            "advises never using 'always')."
                        ),
                        remediation="drop the parameter or set sameDomain/never",
                    )
                )
        return findings

    # -- platform ------------------------------------------------------------
    def _assess_platform(self, profile: PageProfile) -> List[Finding]:
        if not profile.wordpress_version:
            return []
        catalog = self._catalogs.get("wordpress")
        if catalog is None:
            return []
        reference_date = self.as_of or catalog.latest.date
        latest = catalog.latest_as_of(reference_date) or catalog.latest
        try:
            current = parse_version(profile.wordpress_version)
        except VersionError:
            return []
        if current >= latest.version:
            return []
        hits = self.matcher.match(
            "wordpress", profile.wordpress_version, MatchMode.CVE, self.as_of
        )
        severity = Severity.HIGH if hits else Severity.LOW
        advisory_ids = tuple(h.identifier for h in hits)
        return [
            Finding(
                rule="outdated-platform",
                severity=severity,
                title=(
                    f"WordPress {profile.wordpress_version} behind latest "
                    f"({latest.version})"
                ),
                detail=(
                    f"{len(advisory_ids)} known core CVEs affect this version"
                    if advisory_ids
                    else "no catalogued core CVE, but updates also refresh "
                    "bundled libraries (the paper's main update driver)"
                ),
                remediation="enable auto-updates or update the core now",
                advisories=advisory_ids,
            )
        ]
