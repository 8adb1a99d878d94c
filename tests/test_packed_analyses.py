"""The hot analyses on packed id columns, against their loop references.

Table 1 / Table 5 (``landscape.analyze``), Table 4
(``wordpress.cve_exposure``) and the window of vulnerability
(``updates.advisory_delay``) walk the store's packed id columns once
per call.  This file pins them three ways:

* a golden digest of every registered analysis over the shared crawled
  store (conftest's ``store``) after a binary round trip (canonical
  symbol ids), with floats written at 12 significant digits so that
  the digest does not depend on how the interpreter sums floats (from
  Python 3.12 on, ``sum()`` compensates rounding error, which moves
  some results in their last bits), plus the exact digest on the
  interpreters whose ``sum()`` does not compensate;
* crawled == round-tripped: no result may depend on the order in which
  symbols were interned, which differs between a crawled store and the
  same store decoded from bytes;
* the loop versions the packed code replaced, kept below as references
  that read the store through its decoded mapping views, compared on
  small hand-built stores that reach the edge cases (a TOP15 library
  never observed, the WordPress ``"?"`` version, unparseable versions,
  an advisory without a patch date, count ties) and on the shared
  store, under both match modes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Dict, List, Optional, Tuple

import pytest

from repro import ScenarioConfig, Study
from repro.analysis import landscape, updates, wordpress
from repro.analysis.api import run_analyses
from repro.crawler import ObservationStore
from repro.crawler.persistence import store_from_bytes, store_to_bytes
from repro.errors import VersionError
from repro.fingerprint.profile import LibraryDetection, PageProfile
from repro.semver import parse_version
from repro.vulndb import MatchMode, VersionMatcher, default_database
from repro.webgen.domains import Domain, Reachability
from repro.webgen.libraries import TOP15_ORDER

#: sha256 of ``json.dumps(run_analyses(round-tripped shared store),
#: sort_keys=True)`` with every float written as ``f"{x:.12g}"``,
#: recorded before the analyses moved onto packed columns.  On a
#: decoded store ids follow symbol order, so the symbol-keyed
#: tie-breaks of the packed code agree with the old id-order ones and
#: not one number may move.  The same digest holds with plain,
#: compensated and exactly rounded float sums (results differ by at
#: most 5e-14 relative between them).
GOLDEN_ANALYSES_SHA256 = (
    "879e18fc0f7bca55e16d7b81bd9eeb0d04db98c4ba11747778d7c0eb867cb125"
)
#: The same document with full-precision floats, which holds only where
#: ``sum()`` adds floats without compensation (before Python 3.12).
EXACT_ANALYSES_SHA256 = (
    "0340395e686254da4edb0b6d83e351cb52cb3728855950b19f7420d6157face4"
)


def _roundtrip(store: ObservationStore) -> ObservationStore:
    return store_from_bytes(store_to_bytes(store), store.calendar, store.matcher)


def _digest(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _portable(document):
    """``document`` with every float replaced by its 12-digit string."""
    if isinstance(document, float):
        return f"{document:.12g}"
    if isinstance(document, dict):
        return {key: _portable(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        return [_portable(value) for value in document]
    return document


# ----------------------------------------------------------------------
# Loop references: the decoded-view implementations the packed code
# replaced (landscape with the symbol-keyed tie-breaks).
# ----------------------------------------------------------------------
def reference_dominant_version(store, library):
    totals: Dict[str, int] = {}
    user_total = 0
    for agg in store.ordered_weeks():
        user_total += agg.library_users.get(library, 0)
        for (lib, version), count in agg.version_counts.items():
            if lib == library:
                totals[version] = totals.get(version, 0) + count
    if not totals:
        return None, 0.0, None, 0
    dominant, count = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    latest = None
    try:
        latest = max(totals, key=lambda v: parse_version(v))
    except VersionError:
        pass
    return dominant, count / max(user_total, 1), latest, len(totals)


def reference_landscape(store, database, libraries=TOP15_ORDER, top_cdn_count=3):
    aggregates = store.ordered_weeks()
    dates = [agg.week.date.isoformat() for agg in aggregates]
    rows = []
    usage_series = {}
    top_cdns = {}
    for library in libraries:
        users = [agg.library_users.get(library, 0) for agg in aggregates]
        shares = [u / max(agg.collected, 1) for u, agg in zip(users, aggregates)]
        usage_series[library] = shares
        average_users = sum(users) / max(len(users), 1)
        usage_share = sum(shares) / max(len(shares), 1)
        internal = sum(agg.internal_counts.get(library, 0) for agg in aggregates)
        external = sum(agg.external_counts.get(library, 0) for agg in aggregates)
        via_cdn = sum(agg.cdn_counts.get(library, 0) for agg in aggregates)
        inclusions = max(internal + external, 1)
        cdn_host_totals: Dict[str, int] = {}
        for agg in aggregates:
            for host, count in agg.cdn_hosts.get(library, {}).items():
                cdn_host_totals[host] = cdn_host_totals.get(host, 0) + count
        ranked_hosts = sorted(cdn_host_totals.items(), key=lambda kv: (-kv[1], kv[0]))
        top_cdns[library] = [
            (host, count / max(external, 1))
            for host, count in ranked_hosts[:top_cdn_count]
        ]
        dominant, dom_share, latest, n_versions = reference_dominant_version(
            store, library
        )
        rows.append(
            landscape.LibraryRow(
                library=library,
                average_users=average_users,
                usage_share=usage_share,
                internal_share=internal / inclusions,
                external_share=external / inclusions,
                cdn_share_of_external=via_cdn / max(external, 1),
                dominant_version=dominant,
                dominant_version_share=dom_share,
                latest_observed=latest,
                versions_found=n_versions,
                vulnerability_count=len(database.for_library(library)),
            )
        )
    rows.sort(key=lambda r: -r.average_users)
    return landscape.LandscapeResult(
        rows=rows, usage_series=usage_series, top_cdns=top_cdns, dates=dates
    )


def reference_cve_exposure(store, database):
    advisories = [a for a in database if a.library == "wordpress"]
    rows = []
    aggregates = store.ordered_weeks()
    for advisory in advisories:
        affected_weekly: List[float] = []
        share_weekly: List[float] = []
        for agg in aggregates:
            affected = 0
            total = 0
            for version, count in agg.wordpress_versions.items():
                total += count
                try:
                    if version != "?" and advisory.stated_range.contains(version):
                        affected += count
                except VersionError:
                    continue
            affected_weekly.append(affected)
            share_weekly.append(affected / max(total, 1))
        rows.append(
            wordpress.WordPressCveRow(
                advisory=advisory,
                average_affected=sum(affected_weekly) / max(len(affected_weekly), 1),
                share_of_wordpress_sites=sum(share_weekly) / max(len(share_weekly), 1),
            )
        )
    rows.sort(
        key=lambda r: (r.advisory.disclosed or r.advisory.patched_on), reverse=True
    )
    return rows


def _reference_version_at(trajectory, ordinal) -> Optional[str]:
    version = None
    for week, value in trajectory:
        if week <= ordinal:
            version = value
        else:
            break
    return version


def _reference_contains(range_set, version) -> bool:
    try:
        return range_set.contains(version)
    except VersionError:
        return False


def reference_advisory_delay(store, advisory, mode=MatchMode.CVE):
    calendar = store.calendar
    patched_on = advisory.patched_on
    if patched_on is None:
        return updates.AdvisoryDelay(
            advisory=advisory,
            mode=mode,
            updated_sites=0,
            censored_sites=0,
            mean_delay_days=None,
            median_delay_days=None,
        )
    start_date = max(patched_on, calendar.start)
    start_ordinal = calendar.week_for_date(start_date).ordinal
    affected = (
        advisory.effective_range if mode is MatchMode.TVV else advisory.stated_range
    )
    delays: List[int] = []
    censored = 0
    for libs in store.trajectories.values():
        trajectory = libs.get(advisory.library)
        if not trajectory:
            continue
        current = _reference_version_at(trajectory, start_ordinal)
        if current is None or not _reference_contains(affected, current):
            continue
        fixed_ordinal = None
        for week, version in trajectory:
            if week <= start_ordinal:
                continue
            if not _reference_contains(affected, version):
                fixed_ordinal = week
                break
        if fixed_ordinal is None:
            censored += 1
        else:
            delay = (calendar.week_at(fixed_ordinal).date - start_date).days
            delays.append(max(delay, 0))
    mean = sum(delays) / len(delays) if delays else None
    median = None
    if delays:
        median = float(sorted(delays)[len(delays) // 2])
    return updates.AdvisoryDelay(
        advisory=advisory,
        mode=mode,
        updated_sites=len(delays),
        censored_sites=censored,
        mean_delay_days=mean,
        median_delay_days=median,
    )


# ----------------------------------------------------------------------
# Small hand-built stores
# ----------------------------------------------------------------------
Lib = Tuple[str, Optional[str], Optional[str]]  # (library, version, cdn host)

#: rank -> [(week index, libraries, WordPress version or None)].  Ranks
#: are ingested in this order, so "4.0.0" and "z.cdn.example" are
#: interned before the equal-count "3.3.7" and "a.cdn.example" they tie
#: with; "?" (an unreadable WordPress version, ingested as "") and
#: "not-a-version" never fall in a range; jquery's "1.12.4" on rank 5
#: first appears after every jquery patch date, so that site is never at
#: risk.
SITES: Dict[int, List[Tuple[int, Tuple[Lib, ...], Optional[str]]]] = {
    1: [
        (
            0,
            (
                ("jquery", "1.12.4", "code.jquery.com"),
                ("bootstrap", "4.0.0", "z.cdn.example"),
            ),
            "5.8.1",
        ),
        (60, (("jquery", "1.12.4", "code.jquery.com"),), "5.8.1"),
        (120, (("jquery", "3.5.1", "code.jquery.com"),), "5.9"),
        (190, (("jquery", "3.6.0", None),), "5.9"),
    ],
    2: [
        (0, (("jquery", "1.12.4", None), ("bootstrap", "3.3.7", "a.cdn.example")), ""),
        (130, (("jquery", "1.12.4", None),), ""),
        (200, (("jquery", "1.12.4", None),), "4.9.8"),
    ],
    3: [
        (0, (("jquery", "1.8.3", None),), "not-a-version"),
        (60, (("jquery", "3.4.1", "cdnjs.cloudflare.com"),), "3.0"),
        (140, (("jquery", "3.6.0", "cdnjs.cloudflare.com"),), "3.0"),
    ],
    4: [
        (0, (("jquery", "3.5.1", None), ("jquery-migrate", None, None)), None),
        (100, (("jquery", "not-a-version", None),), None),
    ],
    5: [
        (150, (("jquery", "1.12.4", None),), "5.8.1"),
    ],
}


def _ingest(store: ObservationStore, rank: int) -> None:
    weeks = store.calendar.weeks
    domain = Domain(
        rank=rank, name=f"site{rank}.example", reachability=Reachability.STABLE
    )
    for index, libraries, wp_version in SITES[rank]:
        detections = tuple(
            LibraryDetection(
                library=library,
                version=version,
                source_url=f"https://{cdn or 'self'}/{library}.js",
                host=cdn,
                external=cdn is not None,
                cdn_host=cdn,
            )
            for library, version, cdn in libraries
        )
        profile = PageProfile(
            page_host=domain.name, libraries=detections, wordpress_version=wp_version
        )
        store.ingest(domain, weeks[index], profile)


def _hand_built() -> ObservationStore:
    config = ScenarioConfig(population=20, seed=5)
    store = ObservationStore(config.calendar, VersionMatcher(default_database()))
    for rank in SITES:
        _ingest(store, rank)
    return store


@pytest.fixture(scope="module")
def small_full_study():
    """A full-mode crawl whose intern order differs from symbol order."""
    study = Study(ScenarioConfig(population=60, seed=11), mode="full")
    study.run(weeks=study.config.calendar.weeks[:10])
    return study


@pytest.fixture(
    scope="module",
    params=["hand-built", "hand-built-decoded", "shared", "shared-decoded"],
)
def any_store(request):
    if request.param.startswith("hand-built"):
        store = _hand_built()
    else:
        store = request.getfixturevalue("store")
    return _roundtrip(store) if request.param.endswith("decoded") else store


def _advisories(database):
    """Every advisory, plus jquery's with the patch date removed."""
    unpatched = [
        dataclasses.replace(a, patched_on=None)
        for a in database
        if a.library == "jquery"
    ]
    return list(database) + unpatched


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def round_tripped_results(study):
    return run_analyses(_roundtrip(study.store), study.analysis_context())


class TestGolden:
    def test_round_tripped_shared_store_digest(self, round_tripped_results):
        assert _digest(_portable(round_tripped_results)) == GOLDEN_ANALYSES_SHA256

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="sum() compensates float rounding from Python 3.12 on",
    )
    def test_round_tripped_shared_store_exact_digest(self, round_tripped_results):
        assert _digest(round_tripped_results) == EXACT_ANALYSES_SHA256


class TestInternOrderIndependence:
    def test_shared_store(self, study):
        context = study.analysis_context()
        assert run_analyses(study.store, context) == run_analyses(
            _roundtrip(study.store), context
        )

    def test_small_full_mode_store(self, small_full_study):
        context = small_full_study.analysis_context()
        assert run_analyses(small_full_study.store, context) == run_analyses(
            _roundtrip(small_full_study.store), context
        )

    def test_hand_built_store_breaks_ties_by_symbol(self, database):
        result = landscape.analyze(_hand_built(), database)
        bootstrap = result.row("bootstrap")
        assert bootstrap.dominant_version == "3.3.7"  # ties "4.0.0", 1 each
        assert [host for host, _ in result.top_cdns["bootstrap"]] == [
            "a.cdn.example",
            "z.cdn.example",
        ]


class TestLoopReferences:
    def test_landscape(self, any_store, database):
        assert landscape.analyze(any_store, database) == reference_landscape(
            any_store, database
        )

    def test_landscape_covers_an_unobserved_top15_library(self, database):
        store = _hand_built()
        assert store.symbols.library.lookup("polyfill") is None
        row = landscape.analyze(store, database).row("polyfill")
        assert (row.dominant_version, row.versions_found, row.average_users) == (
            None,
            0,
            0.0,
        )

    def test_cve_exposure(self, any_store, database):
        assert wordpress.cve_exposure(any_store, database) == reference_cve_exposure(
            any_store, database
        )

    def test_hand_built_store_has_unreadable_wordpress_versions(self, database):
        store = _hand_built()
        first_week = store.ordered_weeks()[0].wordpress_versions
        assert {"?", "not-a-version"} <= set(first_week)
        rows = wordpress.cve_exposure(store, database)
        assert any(row.average_affected for row in rows)

    @pytest.mark.parametrize("mode", [MatchMode.CVE, MatchMode.TVV])
    def test_advisory_delay(self, any_store, database, mode):
        for advisory in _advisories(database):
            got = updates.advisory_delay(any_store, advisory, mode)
            want = reference_advisory_delay(any_store, advisory, mode)
            assert got == want, advisory.identifier

    def test_hand_built_store_reaches_every_delay_outcome(self, database):
        store = _hand_built()
        delays = [
            updates.advisory_delay(store, advisory, mode)
            for advisory in _advisories(database)
            if advisory.library == "jquery"
            for mode in (MatchMode.CVE, MatchMode.TVV)
        ]
        assert any(d.updated_sites for d in delays)
        assert any(d.censored_sites for d in delays)
        assert any(d.advisory.patched_on is None for d in delays)
