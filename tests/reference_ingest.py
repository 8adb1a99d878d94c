"""Reference page ingest, as ``ObservationStore.ingest`` once ran it.

Kept as the oracle for the store's one-lookup ingest: each detection
here asks the matcher twice (``match``/``match_unversioned`` once per
:class:`~repro.vulndb.MatchMode`) and collects advisory identifiers
through generator passes.  The body is the old method verbatim, as a
function of ``self`` (the store).
The module name keeps pytest from collecting it.
"""

from __future__ import annotations

from typing import Set

from repro.errors import StoreError
from repro.fingerprint import PageProfile
from repro.timeline import Week
from repro.vulndb import MatchMode
from repro.webgen.domains import Domain


def ingest(self, domain: Domain, week: Week, profile: PageProfile) -> None:
    """Record one successfully fingerprinted landing page."""
    ordinal = week.ordinal
    agg = self.weeks.get(ordinal)
    if agg is None:
        raise StoreError(f"week ordinal {ordinal} not in calendar")
    rank = domain.rank
    symbols = self.symbols
    lib_intern = symbols.library.intern
    ver_intern = symbols.version.intern
    tok_intern = symbols.token.intern
    libver = symbols.libver
    libhost = symbols.libhost
    self.total_observations += 1
    self._versions_cache = None
    self.observed_domains.add(rank)
    agg.collected += 1

    resource_counts = agg.resource_counts
    for resource in profile.resource_types:
        resource_counts.inc_id(tok_intern(resource))

    is_wordpress = profile.uses_wordpress
    if is_wordpress:
        agg.wordpress_sites += 1
        # Normalize the unreadable-version fallback *before* the
        # trajectory dedup compare, so a site whose version stays
        # unreadable records one "?" change, not one per week.
        wp_id = ver_intern(profile.wordpress_version or "?")
        agg.wordpress_versions.inc_id(wp_id)
        self.wp_trajectories.observe(rank, ordinal, wp_id)

    seen_libraries: Set[int] = set()
    has_external = False
    has_external_no_integrity = False
    cve_vulns = 0
    tvv_vulns = 0
    cve_ids: Set[str] = set()
    tvv_ids: Set[str] = set()

    for detection in profile.libraries:
        library = detection.library
        lib_id = lib_intern(library)
        if lib_id not in seen_libraries:
            seen_libraries.add(lib_id)
            agg.library_users.inc_id(lib_id)
            if is_wordpress:
                agg.library_wordpress_users.inc_id(lib_id)
        if detection.internal:
            agg.internal_counts.inc_id(lib_id)
        else:
            agg.external_counts.inc_id(lib_id)
            agg.external_inclusions += 1
            has_external = True
            if detection.via_cdn:
                agg.cdn_counts.inc_id(lib_id)
                host_id = symbols.cdn_host.intern(detection.cdn_host or "?")
                agg.cdn_hosts.inc_id(libhost.intern_ids(lib_id, host_id))
            if detection.has_integrity:
                agg.integrity_inclusions += 1
                if detection.crossorigin is not None:
                    agg.crossorigin_values.inc_id(
                        tok_intern(detection.crossorigin)
                    )
            else:
                has_external_no_integrity = True

        version = detection.version
        if version is None:
            # Version unreadable: only unbounded ("all versions")
            # advisories still apply.
            cve_hits = self.matcher.match_unversioned(library, MatchMode.CVE)
            tvv_hits = self.matcher.match_unversioned(library, MatchMode.TVV)
            cve_vulns += len(cve_hits)
            tvv_vulns += len(tvv_hits)
            cve_ids.update(h.identifier for h in cve_hits)
            tvv_ids.update(h.identifier for h in tvv_hits)
            continue
        ver_id = ver_intern(version)
        agg.version_counts.inc_id(libver.intern_ids(lib_id, ver_id))
        if is_wordpress and library == "jquery":
            agg.wordpress_jquery_versions.inc_id(ver_id)

        self.trajectories.observe(rank, lib_id, ordinal, ver_id)

        cve_hits = self.matcher.match(library, version, MatchMode.CVE)
        tvv_hits = self.matcher.match(library, version, MatchMode.TVV)
        cve_vulns += len(cve_hits)
        tvv_vulns += len(tvv_hits)
        cve_ids.update(h.identifier for h in cve_hits)
        tvv_ids.update(h.identifier for h in tvv_hits)

    if has_external:
        agg.sites_with_external += 1
        if has_external_no_integrity:
            agg.sites_external_no_integrity += 1

    adv_intern = symbols.advisory.intern
    cve_advisories = agg.advisory_sites[MatchMode.CVE]
    for identifier in cve_ids:
        cve_advisories.inc_id(adv_intern(identifier))
    tvv_advisories = agg.advisory_sites[MatchMode.TVV]
    for identifier in tvv_ids:
        tvv_advisories.inc_id(adv_intern(identifier))
    if cve_vulns:
        agg.vulnerable_sites[MatchMode.CVE] += 1
    if tvv_vulns:
        agg.vulnerable_sites[MatchMode.TVV] += 1
    agg.vuln_count_hist[MatchMode.CVE].inc(cve_vulns)
    agg.vuln_count_hist[MatchMode.TVV].inc(tvv_vulns)

    if profile.uses_flash:
        agg.flash_sites += 1
        agg.flash_by_tier.inc_id(tok_intern(domain.tier))
        self.flash_spans.observe(rank, ordinal)
        for embed in profile.flash_embeds:
            if embed.script_access_specified:
                agg.flash_access_specified += 1
                if embed.insecure:
                    agg.flash_access_always += 1
            if embed.visible:
                agg.flash_visible += 1
            break  # one embed per site in the generated pages

    if profile.untrusted_scripts:
        agg.untrusted_sites += 1
        uhost_intern = symbols.untrusted_host.intern
        url_intern = symbols.url.intern
        any_integrity = False
        for entry in profile.untrusted_scripts:
            host, url = entry[0], entry[1]
            agg.untrusted_hosts.inc_id(uhost_intern(host))
            self.untrusted_site_sets.add_id(uhost_intern(host), rank)
            self.untrusted_url_counts.inc_id(url_intern(url))
            if len(entry) > 2 and entry[2]:
                any_integrity = True
        if any_integrity:
            agg.untrusted_sites_with_integrity += 1
