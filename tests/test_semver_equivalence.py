"""Version comparison and release lookups against the old implementations.

* **Comparison.** :class:`Version` compares through one key computed at
  parse time.  ``==``, ``<`` and ``hash`` must equal the old padded-tuple
  methods (``tests/reference_semver.py``) on seeded version pairs and on
  every built-in catalog version.  Hash values must not move at all:
  they decide set iteration order.
* **Catalog lookups.** :meth:`ReleaseCatalog.newest_two_as_of` is a
  precomputed table; it must name the same two releases the web
  generator once sorted out of :meth:`released_on_or_before` at every
  refresh, and :meth:`latest_as_of` the release the old ``max`` chose.
* **Range membership.** :meth:`RangeSet.contains` compares comparison
  keys directly; it must agree with membership built from the
  reference ``lt`` and ``eq`` on every stated and true range of the
  built-in database, over the library's catalog, the classifier's two
  sentinels, every bound and its spellings, and seeded versions.
"""

from __future__ import annotations

import datetime
import itertools

import proptest
import reference_semver
from repro.semver import ReleaseCatalog, Version, builtin_catalogs, parse_range
from repro.timeline import default_calendar
from repro.vulndb import default_database
from repro.vulndb.model import _probe_versions

_TAGS = (None, None, None, "rc1", "beta", "a")


def _version_text(rng) -> str:
    """1–5 components, often with trailing zeros, a ``v`` or a tag."""
    count = rng.randint(1, 5)
    parts = [rng.choice((0, 0, 1, 2, 3, 12)) for _ in range(count)]
    if rng.random() < 0.3:
        zeros = rng.randint(1, count)
        parts[count - zeros:] = [0] * zeros
    text = ".".join(str(part) for part in parts)
    if rng.random() < 0.2:
        text = rng.choice("vV") + text
    tag = rng.choice(_TAGS)
    if tag is not None:
        text += rng.choice(("-", ".", "")) + tag
    return text


_FIXED_PAIRS = (
    ("1.2", "1.2.0"),
    ("1.2", "1.2.0.0"),
    ("v1.2", "1.2.0"),
    ("0", "0.0.0.0.0"),
    ("1.2.0-rc1", "1.2rc1"),
    ("1.2-rc1", "1.2"),
    ("1.2-beta", "1.2-rc1"),
    ("1.2a", "1.2-beta"),
    ("1.2.0.1", "1.2.1"),
    ("2", "1.99.99.99.99"),
)


def _assert_same_comparison(a: Version, b: Version) -> None:
    assert (a == b) is reference_semver.eq(a, b), (a, b)
    assert (a < b) is reference_semver.lt(a, b), (a, b)
    assert (b < a) is reference_semver.lt(b, a), (a, b)
    assert (a <= b) is (reference_semver.lt(a, b) or reference_semver.eq(a, b))
    assert (a > b) is reference_semver.lt(b, a), (a, b)
    assert hash(a) == reference_semver.hash_of(a), a


class TestVersionComparison:
    def test_fixed_pairs(self):
        for left, right in _FIXED_PAIRS:
            _assert_same_comparison(Version(left), Version(right))

    def test_seeded_pairs(self):
        def prop(rng, seed):
            versions = [Version(_version_text(rng)) for _ in range(150)]
            for a, b in itertools.combinations(versions, 2):
                _assert_same_comparison(a, b)
            for a in versions:
                _assert_same_comparison(a, a)
                _assert_same_comparison(a, Version(a))

        proptest.forall(prop)

    def test_every_catalog_version(self):
        versions = [
            release.version
            for catalog in builtin_catalogs().values()
            for release in catalog
        ]
        for a, b in itertools.product(versions, repeat=2):
            _assert_same_comparison(a, b)

    def test_catalog_sort_order_unchanged(self):
        for catalog in builtin_catalogs().values():
            ordered = sorted(
                catalog, key=lambda r: reference_semver.Ordered(r.version)
            )
            assert tuple(ordered) == tuple(catalog)


def _probe_dates(catalog: ReleaseCatalog):
    """Every calendar week's date, every release date and the day before."""
    dates = {week.date for week in default_calendar()}
    for release in catalog:
        dates.add(release.date)
        dates.add(release.date - datetime.timedelta(days=1))
    return sorted(dates)


def _assert_lookups_match(catalog: ReleaseCatalog, dates) -> None:
    for date in dates:
        assert catalog.released_on_or_before(
            date
        ) == reference_semver.released_on_or_before(catalog, date)
        expected = reference_semver.newest_two(catalog, date)
        newest, runner_up = catalog.newest_two_as_of(date)
        assert newest is (expected[-1] if expected else None), (catalog.library, date)
        assert runner_up is (expected[-2] if len(expected) > 1 else None), (
            catalog.library,
            date,
        )
        assert catalog.latest_as_of(date) is reference_semver.latest_as_of(
            catalog, date
        )


class TestCatalogLookups:
    def test_builtin_catalogs(self):
        for catalog in builtin_catalogs().values():
            _assert_lookups_match(catalog, _probe_dates(catalog))

    def test_seeded_catalogs(self):
        """Random histories: out-of-order dates, shared dates, pre-releases."""
        origin = datetime.date(2010, 1, 1)

        def prop(rng, seed):
            for _ in range(20):
                versions = {}
                for _ in range(rng.randint(1, 30)):
                    version = Version(_version_text(rng))
                    versions.setdefault(version, version)
                releases = [
                    (version, origin + datetime.timedelta(days=rng.randint(0, 60)))
                    for version in versions
                ]
                catalog = ReleaseCatalog("seeded", releases)
                _assert_lookups_match(catalog, _probe_dates(catalog))

        proptest.forall(prop)


def _reference_contains(range_set, version) -> bool:
    """Union membership from the reference comparisons alone."""
    for version_range in range_set.ranges:
        lower, upper = version_range.lower, version_range.upper
        if lower is not None:
            if reference_semver.lt(version, lower.version):
                continue
            if not lower.inclusive and reference_semver.eq(version, lower.version):
                continue
        if upper is not None:
            if reference_semver.lt(upper.version, version):
                continue
            if not upper.inclusive and reference_semver.eq(version, upper.version):
                continue
        return True
    return False


def _bound_spellings(range_set):
    """Each bound, padded with a zero, trimmed of one, and as a pre-release."""
    for version_range in range_set.ranges:
        for bound in (version_range.lower, version_range.upper):
            if bound is None:
                continue
            release = ".".join(str(part) for part in bound.version.release)
            yield bound.version
            yield Version(release + ".0")
            yield Version(release + "-rc1")
            if len(bound.version.release) > 1 and bound.version.release[-1] == 0:
                yield Version(release.rsplit(".", 1)[0])


def _assert_membership(range_set, versions) -> None:
    for version in versions:
        want = _reference_contains(range_set, version)
        assert range_set.contains(version) is want, (range_set, version)
        assert range_set.contains(version.text) is want, (range_set, version)


class TestRangeMembership:
    def test_database_ranges(self):
        catalogs = builtin_catalogs()
        ranges = []
        for advisory in default_database():
            catalog = catalogs.get(advisory.library)
            probes = list(_probe_versions(catalog)) if catalog is not None else []
            for range_set in (advisory.stated_range, advisory.true_range):
                if range_set is not None:
                    ranges.append(range_set)
                    _assert_membership(
                        range_set, probes + list(_bound_spellings(range_set))
                    )

        def prop(rng, seed):
            versions = [Version(_version_text(rng)) for _ in range(60)]
            for range_set in ranges:
                _assert_membership(range_set, versions)

        proptest.forall(prop)

    def test_bounds_inclusive_and_exclusive(self):
        versions = [
            Version(text)
            for text in ("1.2", "1.2.0", "1.2.0.0", "v1.2", "1.2-rc1", "1.2.0rc1",
                         "1.1.9", "1.2.0.1", "1.3", "1.3.0", "1.3-beta", "0")
        ]
        specs = ("< 1.2", "<= 1.2.0", "> 1.2.0", ">= 1.2", "== 1.2.0", "1.2",
                 "1.2.0 ~ 1.3", ">= 1.2 and < 1.3.0", "> 1.2-rc1 and <= 1.3",
                 "< 1.2, >= 1.3", "all versions", "none")
        for spec in specs:
            range_set = parse_range(spec)
            _assert_membership(range_set, versions)
            for version_range in range_set.ranges:
                for version in versions:
                    single = type(range_set)([version_range])
                    assert version_range.contains(version) is _reference_contains(
                        single, version
                    ), (spec, version)
        assert parse_range("<= 1.2").contains("1.2.0")
        assert not parse_range("< 1.2").contains("1.2.0")
        assert parse_range(">= 1.2.0").contains("1.2")
        assert not parse_range("> 1.2.0").contains("1.2")
