"""Per-library release catalogs.

A :class:`ReleaseCatalog` is an ordered list of a library's releases with
their release dates.  Catalogs feed three consumers:

* the web-ecosystem generator, which samples versions that existed at a
  given snapshot date;
* the PoC lab, which sweeps every catalogued version of a library when
  validating a CVE's affected range (the paper built 85 jQuery
  environments this way);
* the update-delay analysis, which needs patch-release dates.

The built-in catalogs cover the paper's top-15 client-side libraries plus
WordPress.  Release dates are the public release dates of the upstream
projects (to month precision for old, analysis-irrelevant releases; exact
for the releases that bound a CVE range in the paper's Table 2).
"""

from __future__ import annotations

import bisect
import dataclasses
import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from .ranges import RangeSet
from .version import Version, VersionLike, parse_version


@dataclasses.dataclass(frozen=True)
class Release:
    """One published release of a library."""

    version: Version
    date: datetime.date

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.version} ({self.date.isoformat()})"


class ReleaseCatalog:
    """The ordered release history of one library.

    Args:
        library: Canonical library name (e.g. ``"jquery"``).
        releases: Iterable of ``(version, date)`` pairs; versions may be
            strings.  Stored sorted by version.

    Raises:
        CatalogError: On duplicate versions or an empty catalog.
    """

    def __init__(
        self,
        library: str,
        releases: Iterable[Tuple[VersionLike, datetime.date]],
    ) -> None:
        parsed: List[Release] = []
        seen = set()
        for version, date in releases:
            v = parse_version(version)
            if v in seen:
                raise CatalogError(f"{library}: duplicate release {v}")
            seen.add(v)
            parsed.append(Release(version=v, date=date))
        if not parsed:
            raise CatalogError(f"{library}: catalog has no releases")
        parsed.sort(key=lambda r: r.version)
        self.library = library
        self._releases: Tuple[Release, ...] = tuple(parsed)
        self._versions: Tuple[Version, ...] = tuple(r.version for r in parsed)
        self._by_version: Dict[Version, Release] = {r.version: r for r in parsed}
        self._by_date: Tuple[Release, ...] = tuple(
            sorted(parsed, key=lambda r: (r.date, r.version))
        )
        self._dates: Tuple[datetime.date, ...] = tuple(r.date for r in self._by_date)
        # ``_newest_two[i]``: the newest and second-newest release, by
        # version, among the first ``i`` releases by date (None where
        # fewer exist).  Versions are unique, so each slot names one
        # specific release.
        newest: Optional[Release] = None
        runner_up: Optional[Release] = None
        newest_two: List[Tuple[Optional[Release], Optional[Release]]] = [(None, None)]
        for release in self._by_date:
            if newest is None or newest.version < release.version:
                newest, runner_up = release, newest
            elif runner_up is None or runner_up.version < release.version:
                runner_up = release
            newest_two.append((newest, runner_up))
        self._newest_two = tuple(newest_two)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._releases)

    def __iter__(self) -> Iterator[Release]:
        return iter(self._releases)

    def __contains__(self, version: object) -> bool:
        if not isinstance(version, (str, Version)):
            return False
        try:
            return parse_version(version) in self._by_version
        except Exception:
            return False

    @property
    def versions(self) -> Tuple[Version, ...]:
        """All versions in ascending version order."""
        return self._versions

    @property
    def latest(self) -> Release:
        """The highest-versioned release."""
        return self._releases[-1]

    @property
    def first(self) -> Release:
        return self._releases[0]

    def get(self, version: VersionLike) -> Release:
        """The release for an exact version.

        Raises:
            CatalogError: If the version was never released.
        """
        v = parse_version(version)
        try:
            return self._by_version[v]
        except KeyError:
            raise CatalogError(f"{self.library}: unknown version {v}") from None

    def date_of(self, version: VersionLike) -> datetime.date:
        return self.get(version).date

    # ------------------------------------------------------------------
    # Time-scoped queries
    # ------------------------------------------------------------------
    def released_on_or_before(self, date: datetime.date) -> Tuple[Release, ...]:
        """Releases available at ``date``, in release-date order."""
        return self._by_date[: bisect.bisect_right(self._dates, date)]

    def newest_two_as_of(
        self, date: datetime.date
    ) -> Tuple[Optional[Release], Optional[Release]]:
        """The highest and second-highest versions released at ``date``.

        Either is None when fewer releases were out by then.
        """
        return self._newest_two[bisect.bisect_right(self._dates, date)]

    def latest_as_of(self, date: datetime.date) -> Optional[Release]:
        """The highest version already released at ``date``."""
        return self.newest_two_as_of(date)[0]

    def released_between(
        self, start: datetime.date, end: datetime.date
    ) -> Tuple[Release, ...]:
        """Releases with ``start <= date <= end`` in date order."""
        return tuple(r for r in self._by_date if start <= r.date <= end)

    # ------------------------------------------------------------------
    # Range / neighbourhood queries
    # ------------------------------------------------------------------
    def in_range(self, range_set: RangeSet) -> Tuple[Release, ...]:
        """Catalogued releases whose version is inside ``range_set``."""
        return tuple(r for r in self._releases if range_set.contains(r.version))

    def successors(self, version: VersionLike) -> Tuple[Release, ...]:
        """Releases strictly newer than ``version`` (version order)."""
        v = parse_version(version)
        idx = bisect.bisect_right(list(self._versions), v)
        return self._releases[idx:]

    def next_release(self, version: VersionLike) -> Optional[Release]:
        succ = self.successors(version)
        return succ[0] if succ else None

    def first_outside(
        self, range_set: RangeSet, after: Optional[VersionLike] = None
    ) -> Optional[Release]:
        """The lowest catalogued release *not* in ``range_set``.

        Used to find the patched release for a vulnerability: the first
        version above ``after`` (or above the range) that escapes the
        affected set.

        Args:
            range_set: The affected versions.
            after: Only consider releases above this version.
        """
        floor = parse_version(after) if after is not None else None
        for release in self._releases:
            if floor is not None and release.version <= floor:
                continue
            if not range_set.contains(release.version):
                return release
        return None


def _d(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


# ----------------------------------------------------------------------
# Built-in release data.
#
# Versions that bound a CVE range in the paper's Table 2 carry their exact
# upstream release dates; other entries are to month precision.
# ----------------------------------------------------------------------

_JQUERY = [
    ("1.0", "2006-08-26"), ("1.0.1", "2006-08-31"), ("1.0.2", "2006-10-09"),
    ("1.0.3", "2006-10-27"), ("1.0.4", "2006-12-12"),
    ("1.1", "2007-01-14"), ("1.1.1", "2007-01-22"), ("1.1.2", "2007-02-27"),
    ("1.1.3", "2007-07-01"), ("1.1.4", "2007-08-24"),
    ("1.2", "2007-09-10"), ("1.2.1", "2007-09-16"), ("1.2.2", "2008-01-15"),
    ("1.2.3", "2008-02-08"), ("1.2.4", "2008-05-19"), ("1.2.5", "2008-05-24"),
    ("1.2.6", "2008-05-24"),
    ("1.3", "2009-01-14"), ("1.3.1", "2009-01-21"), ("1.3.2", "2009-02-19"),
    ("1.4", "2010-01-14"), ("1.4.1", "2010-01-25"), ("1.4.2", "2010-02-19"),
    ("1.4.3", "2010-10-16"), ("1.4.4", "2010-11-11"),
    ("1.5", "2011-01-31"), ("1.5.1", "2011-02-24"), ("1.5.2", "2011-03-31"),
    ("1.6", "2011-05-03"), ("1.6.1", "2011-05-12"), ("1.6.2", "2011-06-30"),
    ("1.6.3", "2011-09-01"), ("1.6.4", "2011-09-18"),
    ("1.7", "2011-11-03"), ("1.7.1", "2011-11-21"), ("1.7.2", "2012-03-21"),
    ("1.8.0", "2012-08-09"), ("1.8.1", "2012-08-30"), ("1.8.2", "2012-09-20"),
    ("1.8.3", "2012-11-13"),
    ("1.9.0", "2013-01-15"), ("1.9.1", "2013-02-04"),
    ("1.10.0", "2013-05-24"), ("1.10.1", "2013-05-30"), ("1.10.2", "2013-07-03"),
    ("1.11.0", "2014-01-23"), ("1.11.1", "2014-05-01"), ("1.11.2", "2014-12-17"),
    ("1.11.3", "2015-04-28"),
    ("1.12.0", "2016-01-08"), ("1.12.1", "2016-02-22"), ("1.12.2", "2016-03-17"),
    ("1.12.3", "2016-04-05"), ("1.12.4", "2016-05-20"),
    ("2.0.0", "2013-04-18"), ("2.0.1", "2013-05-30"), ("2.0.2", "2013-07-03"),
    ("2.0.3", "2013-07-03"),
    ("2.1.0", "2014-01-23"), ("2.1.1", "2014-05-01"), ("2.1.2", "2014-12-17"),
    ("2.1.3", "2014-12-18"), ("2.1.4", "2015-04-28"),
    ("2.2.0", "2016-01-08"), ("2.2.1", "2016-02-22"), ("2.2.2", "2016-03-17"),
    ("2.2.3", "2016-04-05"), ("2.2.4", "2016-05-20"),
    ("3.0.0", "2016-06-09"), ("3.1.0", "2016-07-07"), ("3.1.1", "2016-09-22"),
    ("3.2.0", "2017-03-16"), ("3.2.1", "2017-03-20"),
    ("3.3.0", "2018-01-19"), ("3.3.1", "2018-01-20"),
    ("3.4.0", "2019-04-10"), ("3.4.1", "2019-05-01"),
    ("3.5.0", "2020-04-10"), ("3.5.1", "2020-05-04"),
    ("3.6.0", "2021-03-02"),
]

_BOOTSTRAP = [
    ("2.0.0", "2012-01-31"), ("2.0.4", "2012-06-01"), ("2.1.0", "2012-08-20"),
    ("2.2.0", "2012-10-29"), ("2.3.0", "2013-02-07"), ("2.3.1", "2013-02-28"),
    ("2.3.2", "2013-07-26"),
    ("3.0.0", "2013-08-19"), ("3.0.3", "2013-12-05"), ("3.1.0", "2014-01-30"),
    ("3.1.1", "2014-02-13"), ("3.2.0", "2014-06-26"),
    ("3.3.0", "2014-10-29"), ("3.3.1", "2014-11-12"), ("3.3.2", "2015-01-19"),
    ("3.3.4", "2015-03-16"), ("3.3.5", "2015-06-15"), ("3.3.6", "2015-11-24"),
    ("3.3.7", "2016-07-25"),
    ("3.4.0", "2018-12-13"), ("3.4.1", "2019-02-13"),
    ("4.0.0", "2018-01-18"), ("4.1.0", "2018-04-09"), ("4.1.1", "2018-04-10"),
    ("4.1.2", "2018-07-12"), ("4.1.3", "2018-07-24"),
    ("4.2.1", "2018-12-21"), ("4.3.1", "2019-02-13"),
    ("4.4.1", "2019-11-28"), ("4.5.0", "2020-05-13"), ("4.5.3", "2020-10-13"),
    ("4.6.0", "2020-12-09"), ("4.6.1", "2021-10-26"),
    ("5.0.0", "2021-05-05"), ("5.0.2", "2021-06-22"), ("5.1.0", "2021-08-04"),
    ("5.1.1", "2021-09-07"), ("5.1.2", "2021-10-05"), ("5.1.3", "2021-10-09"),
]

_JQUERY_MIGRATE = [
    ("1.0.0", "2013-01-15"), ("1.1.0", "2013-02-16"), ("1.1.1", "2013-02-16"),
    ("1.2.0", "2013-05-01"), ("1.2.1", "2013-05-08"),
    ("1.3.0", "2015-09-08"), ("1.4.0", "2016-05-19"), ("1.4.1", "2016-05-20"),
    ("3.0.0", "2016-06-09"), ("3.0.1", "2017-09-20"),
    ("3.1.0", "2019-05-02"), ("3.3.0", "2020-05-05"), ("3.3.1", "2020-07-06"),
    ("3.3.2", "2020-11-11"),
]

_JQUERY_UI = [
    ("1.7.0", "2009-03-06"), ("1.7.2", "2009-06-12"),
    ("1.8.0", "2010-03-23"), ("1.8.9", "2011-01-20"), ("1.8.16", "2011-08-18"),
    ("1.8.23", "2012-08-15"), ("1.8.24", "2012-09-28"),
    ("1.9.0", "2012-10-08"), ("1.9.2", "2012-11-23"),
    ("1.10.0", "2013-01-17"), ("1.10.1", "2013-02-15"), ("1.10.2", "2013-03-14"),
    ("1.10.3", "2013-05-03"), ("1.10.4", "2014-01-17"),
    ("1.11.0", "2014-06-26"), ("1.11.1", "2014-08-13"), ("1.11.2", "2014-10-16"),
    ("1.11.3", "2015-02-12"), ("1.11.4", "2015-03-11"),
    ("1.12.0", "2016-07-08"), ("1.12.1", "2016-09-14"),
    ("1.13.0", "2021-10-07"), ("1.13.1", "2022-01-20"),
]

_MODERNIZR = [
    ("2.0.6", "2011-07-13"), ("2.5.3", "2012-03-13"), ("2.6.2", "2012-09-16"),
    ("2.7.1", "2013-11-27"), ("2.8.3", "2014-07-30"),
    ("3.0.0", "2015-06-01"), ("3.3.1", "2016-01-20"), ("3.5.0", "2017-03-16"),
    ("3.6.0", "2018-01-25"), ("3.7.1", "2019-03-11"), ("3.8.0", "2019-11-26"),
    ("3.11.2", "2020-06-23"), ("3.11.8", "2021-11-30"),
]

_JS_COOKIE = [
    ("2.0.0", "2015-04-28"), ("2.1.0", "2015-10-05"), ("2.1.1", "2016-02-01"),
    ("2.1.2", "2016-05-13"), ("2.1.3", "2016-09-07"), ("2.1.4", "2017-01-10"),
    ("2.2.0", "2017-12-06"), ("2.2.1", "2019-05-23"),
    ("3.0.0", "2021-06-08"), ("3.0.1", "2021-08-10"),
]

_UNDERSCORE = [
    ("1.3.2", "2012-01-10"), ("1.4.4", "2013-01-30"), ("1.5.2", "2013-09-07"),
    ("1.6.0", "2014-02-10"), ("1.7.0", "2014-08-26"), ("1.8.2", "2015-02-19"),
    ("1.8.3", "2015-04-01"), ("1.9.1", "2018-06-01"), ("1.10.2", "2020-03-30"),
    ("1.11.0", "2020-08-28"), ("1.12.0", "2020-11-24"),
    ("1.12.1", "2021-03-19"), ("1.13.0", "2021-04-09"), ("1.13.1", "2021-04-15"),
    ("1.13.2", "2021-11-01"),
]

_ISOTOPE = [
    ("1.5.25", "2012-05-01"), ("2.0.0", "2014-03-05"), ("2.2.2", "2015-10-01"),
    ("3.0.0", "2016-09-28"), ("3.0.1", "2016-10-13"), ("3.0.2", "2017-01-20"),
    ("3.0.3", "2017-03-01"), ("3.0.4", "2017-05-25"), ("3.0.5", "2018-01-23"),
    ("3.0.6", "2018-10-09"),
]

_POPPER = [
    ("1.12.9", "2017-12-18"), ("1.14.3", "2018-04-25"), ("1.14.7", "2019-02-11"),
    ("1.15.0", "2019-04-25"), ("1.16.0", "2019-12-06"), ("1.16.1", "2020-01-22"),
    ("2.0.0", "2020-02-27"), ("2.4.0", "2020-05-22"), ("2.9.2", "2021-04-20"),
    ("2.10.2", "2021-10-14"), ("2.11.2", "2021-12-14"),
]

_MOMENT = [
    ("2.8.1", "2014-08-01"), ("2.10.6", "2015-07-29"), ("2.11.2", "2016-02-07"),
    ("2.13.0", "2016-04-18"), ("2.15.2", "2016-11-05"), ("2.17.1", "2016-12-03"),
    ("2.18.1", "2017-03-22"), ("2.19.3", "2017-11-29"), ("2.20.1", "2017-12-19"),
    ("2.22.2", "2018-06-01"), ("2.24.0", "2019-01-21"), ("2.26.0", "2020-05-19"),
    ("2.29.0", "2020-09-22"), ("2.29.1", "2020-10-06"),
]

_REQUIREJS = [
    ("2.1.22", "2015-12-02"), ("2.2.0", "2016-04-15"), ("2.3.2", "2016-10-10"),
    ("2.3.3", "2017-01-12"), ("2.3.5", "2017-10-13"), ("2.3.6", "2018-08-27"),
]

_SWFOBJECT = [
    ("1.5", "2007-03-01"), ("2.0", "2007-12-05"), ("2.1", "2008-04-01"),
    ("2.2", "2009-07-16"),
]

_PROTOTYPE = [
    ("1.5.0", "2007-01-18"), ("1.5.1", "2007-05-01"),
    ("1.6.0", "2007-11-06"), ("1.6.0.1", "2008-01-08"), ("1.6.0.2", "2008-01-25"),
    ("1.6.0.3", "2008-09-29"), ("1.6.1", "2009-08-31"),
    ("1.7.0", "2010-11-16"), ("1.7.1", "2012-07-23"), ("1.7.2", "2014-04-03"),
    ("1.7.3", "2015-09-22"),
]

_JQUERY_COOKIE = [
    ("1.0", "2010-04-01"), ("1.3.1", "2013-01-27"), ("1.4.0", "2014-01-07"),
    ("1.4.1", "2014-04-10"),
]

_POLYFILL = [
    ("1", "2014-11-01"), ("2", "2015-10-01"), ("3", "2017-11-20"),
]

_WORDPRESS = [
    ("2.8.3", "2009-08-03"), ("3.1.3", "2011-05-25"), ("3.3.2", "2012-04-20"),
    ("3.5.2", "2013-06-21"), ("3.7.37", "2021-05-13"),
    ("4.1.34", "2021-05-13"), ("4.7.2", "2017-01-26"), ("4.9.8", "2018-08-02"),
    ("5.0", "2018-12-06"), ("5.0.3", "2019-01-09"), ("5.1", "2019-02-21"),
    ("5.2", "2019-05-07"), ("5.2.4", "2019-10-14"), ("5.3", "2019-11-12"),
    ("5.4", "2020-03-31"), ("5.4.2", "2020-06-10"),
    ("5.5", "2020-08-11"), ("5.5.1", "2020-09-01"), ("5.5.3", "2020-10-30"),
    ("5.6", "2020-12-08"), ("5.6.1", "2021-02-03"),
    ("5.7", "2021-03-09"), ("5.7.2", "2021-05-12"),
    ("5.8", "2021-07-20"), ("5.8.1", "2021-09-09"), ("5.8.2", "2021-11-10"),
    ("5.8.3", "2022-01-06"), ("5.9", "2022-01-25"),
]

_RAW_CATALOGS: Dict[str, List[Tuple[str, str]]] = {
    "jquery": _JQUERY,
    "bootstrap": _BOOTSTRAP,
    "jquery-migrate": _JQUERY_MIGRATE,
    "jquery-ui": _JQUERY_UI,
    "modernizr": _MODERNIZR,
    "js-cookie": _JS_COOKIE,
    "underscore": _UNDERSCORE,
    "isotope": _ISOTOPE,
    "popper": _POPPER,
    "moment": _MOMENT,
    "requirejs": _REQUIREJS,
    "swfobject": _SWFOBJECT,
    "prototype": _PROTOTYPE,
    "jquery-cookie": _JQUERY_COOKIE,
    "polyfill": _POLYFILL,
    "wordpress": _WORDPRESS,
}

_CACHE: Dict[str, ReleaseCatalog] = {}


def builtin_catalogs() -> Dict[str, ReleaseCatalog]:
    """All built-in catalogs keyed by canonical library name."""
    for name in _RAW_CATALOGS:
        if name not in _CACHE:
            _CACHE[name] = ReleaseCatalog(
                name, [(v, _d(d)) for v, d in _RAW_CATALOGS[name]]
            )
    return dict(_CACHE)


def catalog_for(library: str) -> ReleaseCatalog:
    """The built-in catalog for ``library``.

    Raises:
        CatalogError: If no catalog is bundled for that library.
    """
    catalogs = builtin_catalogs()
    key = library.lower()
    if key not in catalogs:
        raise CatalogError(f"no built-in release catalog for {library!r}")
    return catalogs[key]
