"""The observation store: streaming aggregation of crawl results.

The paper's raw dataset is 157.2M HTML files; nobody analyses that
directly.  :class:`ObservationStore` ingests one fingerprinted page
observation at a time and maintains exactly the aggregates the paper's
tables and figures need, plus per-site version *trajectories* for the
update-delay analysis — so memory stays proportional to (weeks ×
libraries × versions) + (sites × libraries), not to page count.

Since the columnar refactor the interior is packed: every recurring
identifier is interned to a dense id in a run-wide
:class:`~repro.crawler.symbols.SymbolTable`, weekly counters live in
``array('q')`` columns indexed by those ids, and per-site structures
(trajectories, Flash spans, untrusted-site sets) are packed int
arrays keyed by rank.  The column containers present the same
mapping protocol the old nested-dict store exposed, plus id-level
reads for the hot analyses, and the exact-merge semantics the
invariant suite enforces are preserved (merging remaps ids through
symbols, never copies them).

Vulnerability joins happen at ingest through a memoized
:class:`~repro.vulndb.VersionMatcher`, under both the stated-CVE and the
True-Vulnerable-Versions modes: one :meth:`~repro.vulndb.VersionMatcher.lookup`
per detection answers both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..errors import StoreError
from ..timeline import StudyCalendar, Week
from ..vulndb import MatchMode, VersionMatcher
from .columns import (
    ColumnCounter,
    FlashSpans,
    IntCounter,
    NestedPairCounter,
    PackedTrajectories,
    PackedWpTrajectories,
    PairColumnCounter,
    SiteSets,
)
from .symbols import SymbolTable

if TYPE_CHECKING:  # the write side's types: the codec loads no generator
    from ..fingerprint import PageProfile
    from ..webgen.domains import Domain

_CVE = MatchMode.CVE
_TVV = MatchMode.TVV

#: library -> ((version, site-weeks), ...); see ObservationStore.version_totals
VersionTotals = Dict[str, Tuple[Tuple[str, int], ...]]

#: Column fields of a WeekAggregate, merged generically (pure addition
#: under symbol remapping).
_COLUMN_FIELDS = (
    "resource_counts",
    "library_users",
    "version_counts",
    "internal_counts",
    "external_counts",
    "cdn_counts",
    "cdn_hosts",
    "crossorigin_values",
    "wordpress_versions",
    "wordpress_jquery_versions",
    "library_wordpress_users",
    "flash_by_tier",
    "untrusted_hosts",
)

#: Plain-int fields of a WeekAggregate, merged by addition.
_SCALAR_FIELDS = (
    "sites_with_external",
    "sites_external_no_integrity",
    "integrity_inclusions",
    "external_inclusions",
    "wordpress_sites",
    "flash_sites",
    "flash_access_specified",
    "flash_access_always",
    "flash_visible",
    "untrusted_sites",
    "untrusted_sites_with_integrity",
)


class WeekAggregate:
    """Everything counted for one kept week, in packed columns.

    Counter attributes keep their historical names and mapping-style
    read surface (``.get``/``.items``/``dict(...)``); underneath they
    are dense-id-indexed ``array('q')`` columns over the owning
    store's :class:`~repro.crawler.symbols.SymbolTable`.
    """

    __slots__ = ("week", "collected", "vulnerable_sites", "vuln_count_hist",
                 "advisory_sites") + _COLUMN_FIELDS + _SCALAR_FIELDS

    def __init__(self, week: Week, symbols: SymbolTable) -> None:
        self.week = week
        self.collected = 0
        self.resource_counts = ColumnCounter(symbols.token)
        #: library -> sites using it this week
        self.library_users = ColumnCounter(symbols.library)
        #: (library, version) -> site count
        self.version_counts = PairColumnCounter(symbols.libver)
        #: library -> inclusion-kind counters
        self.internal_counts = ColumnCounter(symbols.library)
        self.external_counts = ColumnCounter(symbols.library)
        self.cdn_counts = ColumnCounter(symbols.library)
        #: library -> CDN host -> count
        self.cdn_hosts = NestedPairCounter(symbols.libhost)
        #: crossorigin values among integrity-carrying inclusions
        self.crossorigin_values = ColumnCounter(symbols.token)
        #: WordPress
        self.wordpress_versions = ColumnCounter(symbols.version)
        #: jQuery versions observed on WordPress sites (Figure 7(b))
        self.wordpress_jquery_versions = ColumnCounter(symbols.version)
        #: library -> sites using it that are WordPress sites
        self.library_wordpress_users = ColumnCounter(symbols.library)
        #: Flash
        self.flash_by_tier = ColumnCounter(symbols.token)
        #: untrusted (VCS-hosted) scripts
        self.untrusted_hosts = ColumnCounter(symbols.untrusted_host)
        for name in _SCALAR_FIELDS:
            setattr(self, name, 0)
        #: vulnerability aggregates per match mode
        self.vulnerable_sites: Dict[MatchMode, int] = {
            MatchMode.CVE: 0,
            MatchMode.TVV: 0,
        }
        self.vuln_count_hist: Dict[MatchMode, IntCounter] = {
            MatchMode.CVE: IntCounter(),
            MatchMode.TVV: IntCounter(),
        }
        #: advisory id -> affected-site count, per mode
        self.advisory_sites: Dict[MatchMode, ColumnCounter] = {
            MatchMode.CVE: ColumnCounter(symbols.advisory),
            MatchMode.TVV: ColumnCounter(symbols.advisory),
        }

    # ------------------------------------------------------------------
    def merge(self, other: "WeekAggregate") -> None:
        """Fold another aggregate for the *same week* into this one.

        Every field is a count over disjoint observation sets, so the
        merge is pure addition — commutative and associative.  Columns
        remap the other aggregate's symbol ids through their symbols,
        so the two aggregates may belong to different stores.
        """
        if other.week.ordinal != self.week.ordinal:
            raise StoreError(
                f"cannot merge week {other.week.ordinal} into "
                f"week {self.week.ordinal}"
            )
        self.collected += other.collected
        for name in _COLUMN_FIELDS:
            getattr(self, name).merge_from(getattr(other, name))
        for name in _SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for mode, count in other.vulnerable_sites.items():
            self.vulnerable_sites[mode] = self.vulnerable_sites.get(mode, 0) + count
        for mode, hist in other.vuln_count_hist.items():
            self.vuln_count_hist[mode].merge_from(hist)
        for mode, sites in other.advisory_sites.items():
            self.advisory_sites[mode].merge_from(sites)


def _merge_changes(
    a: List[Tuple[int, str]], b: List[Tuple[int, str]]
) -> List[Tuple[int, str]]:
    """Merge two change-compressed trajectories exactly.

    Each input lists ``(week ordinal, version)`` *changes* observed over
    a contiguous, non-interleaved span of weeks.  Concatenating by week
    order and dropping entries that repeat the previous version yields
    precisely the trajectory a serial pass over the union would have
    recorded (the shard planner guarantees the no-interleave invariant).

    The packed trajectory containers implement the same algorithm over
    id arrays; this decoded-form helper remains the reference (and is
    exercised against them by the invariant suite).
    """
    merged: List[Tuple[int, str]] = []
    for change in sorted(a + b):
        if not merged or merged[-1][1] != change[1]:
            merged.append(change)
    return merged


class ObservationStore:
    """Aggregates fingerprinted observations for the analyses.

    Args:
        calendar: The study calendar (defines the week axis).
        matcher: Memoized vulnerability matcher used at ingest.
    """

    def __init__(self, calendar: StudyCalendar, matcher: VersionMatcher) -> None:
        self.calendar = calendar
        self.matcher = matcher
        self.symbols = SymbolTable()
        self.weeks: Dict[int, WeekAggregate] = {
            w.ordinal: WeekAggregate(w, self.symbols) for w in calendar
        }
        #: domain rank -> library -> [(week ordinal, version)] (changes only)
        self.trajectories = PackedTrajectories(self.symbols)
        #: domain rank -> [(week ordinal, wordpress version)]
        self.wp_trajectories = PackedWpTrajectories(self.symbols)
        #: domain rank -> (first flash week, last flash week)
        self.flash_spans = FlashSpans()
        #: untrusted host -> set of site ranks (whole study; Table 6)
        self.untrusted_site_sets = SiteSets(self.symbols.untrusted_host)
        self.untrusted_url_counts = ColumnCounter(self.symbols.url)
        #: domain ranks ever observed (post-filter universe)
        self.observed_domains: Set[int] = set()
        self.total_observations = 0
        #: memoized version_totals payload; rebuilt lazily after any
        #: ingest/merge invalidation (one week scan per rebuild instead
        #: of one per reporting call)
        self._versions_cache: Optional[VersionTotals] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
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
        lookup = self.matcher.lookup
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

            # Both modes' hits in one memoized probe; an unreadable
            # version (None) matches only unbounded ("all versions")
            # advisories.
            version = detection.version
            cve_count, tvv_count, cve_hit_ids, tvv_hit_ids = lookup(
                library, version
            )
            cve_vulns += cve_count
            tvv_vulns += tvv_count
            cve_ids.update(cve_hit_ids)
            tvv_ids.update(tvv_hit_ids)
            if version is None:
                continue
            ver_id = ver_intern(version)
            agg.version_counts.inc_id(libver.intern_ids(lib_id, ver_id))
            if is_wordpress and library == "jquery":
                agg.wordpress_jquery_versions.inc_id(ver_id)

            self.trajectories.observe(rank, lib_id, ordinal, ver_id)

        if has_external:
            agg.sites_with_external += 1
            if has_external_no_integrity:
                agg.sites_external_no_integrity += 1

        # MatchMode members hash through Python-level Enum.__hash__, so
        # each mode-keyed structure is probed at most once per page.
        adv_intern = symbols.advisory.intern
        if cve_ids:
            cve_advisories = agg.advisory_sites[_CVE]
            for identifier in cve_ids:
                cve_advisories.inc_id(adv_intern(identifier))
        if tvv_ids:
            tvv_advisories = agg.advisory_sites[_TVV]
            for identifier in tvv_ids:
                tvv_advisories.inc_id(adv_intern(identifier))
        if cve_vulns:
            agg.vulnerable_sites[_CVE] += 1
        if tvv_vulns:
            agg.vulnerable_sites[_TVV] += 1
        hist = agg.vuln_count_hist
        hist[_CVE].inc(cve_vulns)
        hist[_TVV].inc(tvv_vulns)

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

    # ------------------------------------------------------------------
    # Merging (sharded crawls)
    # ------------------------------------------------------------------
    def merge(self, other: "ObservationStore") -> "ObservationStore":
        """Fold another store over *disjoint observations* into this one.

        This is the reduce step of the sharded pipeline: partial stores
        produced by shard workers fold into one store that is exactly
        equal — aggregate for aggregate, trajectory for trajectory — to
        the store a serial crawl over the union would have produced.
        The operation is associative, so shards may arrive in any order.
        The other store's symbol ids are remapped through this store's
        table at every step (shard-local id assignments never leak).

        Requirements (guaranteed by the shard planner): the two stores
        share the same calendar, no ``(week, domain)`` page observation
        appears in both, and for any domain observed in both the two
        stores' week spans do not interleave.

        Returns:
            ``self``, mutated in place.
        """
        mine = [(w.ordinal, w.date) for w in self.calendar]
        theirs = [(w.ordinal, w.date) for w in other.calendar]
        if mine != theirs:
            raise StoreError("cannot merge stores with different calendars")

        self.total_observations += other.total_observations
        self._versions_cache = None
        self.observed_domains |= other.observed_domains

        for ordinal, agg in other.weeks.items():
            self.weeks[ordinal].merge(agg)

        self.trajectories.merge_from(other.trajectories)
        self.wp_trajectories.merge_from(other.wp_trajectories)
        self.flash_spans.merge_from(other.flash_spans)
        self.untrusted_site_sets.merge_from(other.untrusted_site_sets)
        self.untrusted_url_counts.merge_from(other.untrusted_url_counts)
        return self

    # ------------------------------------------------------------------
    # Axis helpers for the analyses
    # ------------------------------------------------------------------
    def ordered_weeks(self) -> List[WeekAggregate]:
        return [self.weeks[w.ordinal] for w in self.calendar]

    def series(self, getter) -> List[float]:
        """Apply ``getter(aggregate)`` across weeks in order."""
        return [getter(agg) for agg in self.ordered_weeks()]

    def average(self, getter) -> float:
        """Mean of a weekly statistic over weeks with data."""
        values = [getter(agg) for agg in self.ordered_weeks() if agg.collected > 0]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def version_series(self, library: str, version: str) -> List[int]:
        """Weekly site counts for one (library, version)."""
        pair_id = self.symbols.libver.lookup((library, version))
        if pair_id is None:
            return [0 for _ in self.ordered_weeks()]
        return [
            agg.version_counts.get_id(pair_id) for agg in self.ordered_weeks()
        ]

    def library_series(self, library: str) -> List[int]:
        lib_id = self.symbols.library.lookup(library)
        if lib_id is None:
            return [0 for _ in self.ordered_weeks()]
        return [agg.library_users.get_id(lib_id) for agg in self.ordered_weeks()]

    def version_totals(self) -> VersionTotals:
        """Library -> ``((version, site-weeks), ...)``, sorted by
        ``(-site-weeks, version)`` so ties never follow intern order.

        Memoized for every consumer (landscape, dominant versions, the
        serve layer): the first call after an ingest/merge invalidation
        scans the weekly version columns once.  Do not mutate it.
        """
        if self._versions_cache is None:
            totals: Dict[int, int] = {}
            for agg in self.ordered_weeks():
                for pair_id, count in agg.version_counts.items_ids():
                    totals[pair_id] = totals.get(pair_id, 0) + count
            decode = self.symbols.libver.decode
            per_library: Dict[str, List[Tuple[str, int]]] = {}
            for pair_id, count in totals.items():
                library, version = decode(pair_id)
                per_library.setdefault(library, []).append((version, count))
            self._versions_cache = {
                library: tuple(sorted(pairs, key=lambda kv: (-kv[1], kv[0])))
                for library, pairs in per_library.items()
            }
        return self._versions_cache

    def observed_versions(self, library: str) -> List[str]:
        """All versions of a library ever observed, most site-weeks first.

        Count ties break by version string (see :meth:`version_totals`,
        whose memo this reads).
        """
        return [version for version, _ in self.version_totals().get(library, ())]

    def average_collected(self) -> float:
        return self.average(lambda a: a.collected)
