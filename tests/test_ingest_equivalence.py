"""The store's ingest against the reference ingest, and the one-lookup matcher.

* **Ingest.** Two stores ingest the same observation streams, one
  through :meth:`ObservationStore.ingest` and one through the old
  two-lookups-per-detection body (``tests/reference_ingest.py``).  They
  must encode to the same ``store_to_bytes`` blob and hold the same
  symbol tables in the same intern order.  The streams mix manifest-mode
  and full-mode profiles, and the test asserts that they cover every
  branch the vulnerability join and the delivery counters take.
* **Matcher.** :meth:`VersionMatcher.lookup` agrees with ``match`` and
  ``match_unversioned`` for every built-in catalog version of every
  library, for an unreadable version (``None``) and for an unparseable
  one.
"""

from __future__ import annotations

import pytest

import reference_ingest
from repro import ScenarioConfig
from repro.crawler import ObservationStore
from repro.crawler.crawl import profile_from_manifest
from repro.crawler.persistence import store_to_bytes
from repro.crawler.symbols import PAIR_DOMAINS, STRING_DOMAINS
from repro.fingerprint import FingerprintEngine, LibraryDetection, PageProfile
from repro.fingerprint.cdn import default_cdn_catalog
from repro.scenarios import apply_pack
from repro.semver import builtin_catalogs
from repro.vulndb import MatchMode, VersionMatcher, default_database
from repro.vulndb.drift import drifted_database
from repro.webgen import WebEcosystem

_SEED = 20231017


def _mixed_stream(config, ordinals):
    """Every live page of ``ordinals``, week by week (each site's weeks
    ascend, as a crawl shard's do); every third site is rendered and
    fingerprinted, the others are profiled from the manifest."""
    ecosystem = WebEcosystem(config)
    catalog = default_cdn_catalog()
    engine = FingerprintEngine()
    for ordinal in ordinals:
        week = config.calendar.week_at(ordinal)
        for domain in ecosystem.population:
            if not domain.alive_at(ordinal):
                continue
            if domain.rank % 3 == 0:
                html = ecosystem.landing_page(domain, ordinal)
                profile = engine.fingerprint(html, f"https://{domain.name}/")
            else:
                manifest = ecosystem.manifest(domain, ordinal)
                profile = profile_from_manifest(manifest, catalog)
            yield domain, week, profile


def _hand_built(config):
    """Pages for the combinations the synthetic web draws rarely."""
    ecosystem = WebEcosystem(config)
    domains = list(ecosystem.population)[:3]
    week = config.calendar.week_at(3)
    cdn = "cdnjs.cloudflare.com"
    pages = (
        PageProfile(
            page_host=domains[0].name,
            libraries=(
                LibraryDetection(
                    "jquery", "1.12.4", "https://x/jquery.js", cdn, True,
                    cdn_host=cdn, has_integrity=True, crossorigin="anonymous",
                ),
                # The same library twice: identifiers must not double count.
                LibraryDetection("jquery", "1.12.4", "/jquery.js", None, False),
                LibraryDetection("prototype", None, "/prototype.js", None, False),
                LibraryDetection("prototype", None, "/p2.js", None, False),
                LibraryDetection("moment", "not-a-version", "/moment.js", None, False),
                LibraryDetection(
                    "bootstrap", "3.3.7", "https://y/b.js", cdn, True,
                    cdn_host=cdn, has_integrity=True, crossorigin="use-credentials",
                ),
            ),
            wordpress_version="4.9.8",
            untrusted_scripts=(
                ("malsup.github.com", "https://malsup.github.com/a.js", True),
                ("malsup.github.com", "https://malsup.github.com/b.js", False),
            ),
        ),
        PageProfile(
            page_host=domains[1].name,
            libraries=(
                LibraryDetection("jquery-ui", None, "/ui.js", None, False),
                LibraryDetection("underscore", "1.8.3", "/u.js", None, False),
            ),
            untrusted_scripts=(
                ("wp-r.github.io", "https://wp-r.github.io/x.js", False),
            ),
        ),
        PageProfile(page_host=domains[2].name, wordpress_version=None),
    )
    for domain, profile in zip(domains, pages):
        yield domain, week, profile


def _streams():
    """``{name: (calendar, database, [(domain, week, profile), ...])}``."""
    base = ScenarioConfig(population=160, seed=_SEED)
    bundled = apply_pack(ScenarioConfig(population=120, seed=_SEED), "bundled-deps")
    drift = apply_pack(ScenarioConfig(population=80, seed=_SEED), "cve-range-drift")
    database = default_database()
    return {
        "baseline": (
            base.calendar,
            database,
            list(_mixed_stream(base, range(0, len(base.calendar), 25))),
        ),
        "bundled-deps": (
            bundled.calendar,
            database,
            list(_mixed_stream(bundled, (0, 2, 90, 200))),
        ),
        "cve-range-drift": (
            drift.calendar,
            drifted_database(database, drift.cve_drift),
            list(_mixed_stream(drift, (5, 100))),
        ),
        "hand-built": (base.calendar, database, list(_hand_built(base))),
    }


@pytest.fixture(scope="module")
def streams():
    return _streams()


def _symbol_tables(store):
    table = {}
    for name in STRING_DOMAINS:
        table[name] = list(getattr(store.symbols, name).symbols)
    for name, _, _ in PAIR_DOMAINS:
        domain = getattr(store.symbols, name)
        table[name] = [domain.decode(i) for i in range(len(domain))]
    return table


def test_streams_cover_every_join_branch(streams):
    pages = [page for _, _, stream in streams.values() for page in stream]
    detections = [d for _, _, p in pages for d in p.libraries]
    assert any(d.version is None for d in detections)
    assert any(
        p.uses_wordpress and d.library == "jquery" and d.version
        for _, _, p in pages
        for d in p.libraries
    )
    assert any(p.uses_flash for _, _, p in pages)
    untrusted = [entry for _, _, p in pages for entry in p.untrusted_scripts]
    assert any(entry[2] for entry in untrusted)
    assert any(not entry[2] for entry in untrusted)
    assert any(d.via_cdn and d.crossorigin is not None for d in detections)
    assert any(d.evidence == "manifest" for d in detections)
    assert any(d.evidence not in ("manifest", "") for d in detections)


def _ingest_both(calendar, store_matcher, reference_matcher, pages):
    store = ObservationStore(calendar, store_matcher)
    reference = ObservationStore(calendar, reference_matcher)
    for domain, week, profile in pages:
        reference_ingest.ingest(reference, domain, week, profile)
    for domain, week, profile in pages:
        store.ingest(domain, week, profile)
    assert _symbol_tables(store) == _symbol_tables(reference)
    assert store_to_bytes(store) == store_to_bytes(reference)
    return store


@pytest.mark.parametrize(
    "name", ["baseline", "bundled-deps", "cve-range-drift", "hand-built"]
)
def test_ingest_matches_reference(streams, name):
    calendar, database, pages = streams[name]
    store = _ingest_both(
        calendar, VersionMatcher(database), VersionMatcher(database), pages
    )
    # The stream reached the vulnerability join in both modes.
    cve = sum(agg.vulnerable_sites[MatchMode.CVE] for agg in store.ordered_weeks())
    tvv = sum(agg.vulnerable_sites[MatchMode.TVV] for agg in store.ordered_weeks())
    assert cve and tvv


def test_ingest_matches_reference_with_a_shared_warm_matcher(streams):
    calendar, database, pages = streams["baseline"]
    matcher = VersionMatcher(database)
    _ingest_both(calendar, matcher, matcher, pages)


def _expected(matcher, library, version):
    if version is None:
        cve = matcher.match_unversioned(library, MatchMode.CVE)
        tvv = matcher.match_unversioned(library, MatchMode.TVV)
    else:
        cve = matcher.match(library, version, MatchMode.CVE)
        tvv = matcher.match(library, version, MatchMode.TVV)
    return (
        len(cve),
        len(tvv),
        tuple(h.identifier for h in cve),
        tuple(h.identifier for h in tvv),
    )


def test_lookup_agrees_with_match_for_every_catalog_version():
    database = default_database()
    matcher = VersionMatcher(database)
    oracle = VersionMatcher(database)
    libraries = set(builtin_catalogs()) | {a.library for a in database}
    checked = 0
    hits = 0
    for library in sorted(libraries):
        catalog = builtin_catalogs().get(library)
        versions = [r.version.text for r in catalog] if catalog else []
        for version in versions + [None, "not-a-version", "99.99.99"]:
            got = matcher.lookup(library, version)
            assert got == _expected(oracle, library, version), (library, version)
            assert matcher.lookup(library, version) is got  # memoised
            checked += 1
            hits += bool(got[0] or got[1])
    assert checked > 250
    assert hits > 50
