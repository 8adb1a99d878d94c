"""Actionable security advice for a single website.

The paper closes with recommendations (Section 9): warn developers
about discontinued projects, fix inaccurate CVE ranges, and surface the
window of vulnerability.  This package turns those recommendations into
a Retire.js-style scanner over the same fingerprinting pipeline the
study uses:

* :class:`SiteScanner` fingerprints one landing page (HTML text or a
  URL on a virtual network) and emits :class:`Finding` objects —
  vulnerable library versions (with stated *and* true ranges),
  discontinued projects, missing SRI, misconfigured ``crossorigin``,
  Flash past end of life, insecure ``AllowScriptAccess`` — each with a
  severity and a concrete remediation;
* exploitability is assessed with the PoC lab: a finding whose advisory
  has a working proof of concept against the *exact detected version*
  is flagged ``exploitable``.

Example::

    from repro.advisor import SiteScanner

    scanner = SiteScanner()
    report = scanner.scan_html(html, "https://example.com/")
    for finding in report.findings:
        print(finding.severity.name, finding.title, finding.remediation)

The names below load on first use (:mod:`repro._lazy`).
:mod:`.findings` (with :data:`~.findings.ATTACK_SEVERITY`) is what the
serving layer reads; it loads neither the scanner's fingerprint engine
nor the PoC lab.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".findings": "Finding ScanReport Severity",
        ".scanner": "SiteScanner",
    },
)

__all__ = ["SiteScanner", "Finding", "ScanReport", "Severity"]
