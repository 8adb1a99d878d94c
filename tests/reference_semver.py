"""Reference version comparison and release lookups, as ``repro.semver`` once ran them.

Kept as the oracle for :class:`repro.semver.Version`'s precomputed
comparison key and for :class:`repro.semver.ReleaseCatalog`'s top-two
lookup.  The comparison functions are the old ``Version`` methods
verbatim, as functions of ``self`` without the ``isinstance`` guard;
they read the parsed ``_release`` and ``_pre`` fields, which parsing
still sets as before.
The module name keeps pytest from collecting it.
"""

from __future__ import annotations

import bisect
from typing import Tuple


def _padded(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    width = max(len(a), len(b))
    return a + (0,) * (width - len(a)), b + (0,) * (width - len(b))


def eq(self, other) -> bool:
    a, b = _padded(self._release, other._release)
    return a == b and self._pre == other._pre


def lt(self, other) -> bool:
    a, b = _padded(self._release, other._release)
    if a != b:
        return a < b
    # Same numeric release: pre-release sorts first.
    if (self._pre is None) != (other._pre is None):
        return self._pre is not None
    if self._pre is None:
        return False
    return self._pre < other._pre


def hash_of(self) -> int:
    # Trim trailing zeros so 1.2 == 1.2.0 hash identically.
    release = self._release
    while len(release) > 1 and release[-1] == 0:
        release = release[:-1]
    return hash((release, self._pre))


class Ordered:
    """Sort adapter: orders versions by the reference ``lt``."""

    __slots__ = ("version",)

    def __init__(self, version) -> None:
        self.version = version

    def __lt__(self, other: "Ordered") -> bool:
        return lt(self.version, other.version)


def released_on_or_before(catalog, date):
    """The old lookup: a fresh date list and a bisect on every call."""
    by_date = catalog._by_date
    hi = bisect.bisect_right([r.date for r in by_date], date)
    return by_date[:hi]


def newest_two(catalog, date):
    """What ``_build_version_timeline`` once sorted at every refresh."""
    available = released_on_or_before(catalog, date)
    return sorted(available, key=lambda r: Ordered(r.version))[-2:]


def latest_as_of(catalog, date):
    """The old ``ReleaseCatalog.latest_as_of``: a ``max`` over the prefix."""
    available = released_on_or_before(catalog, date)
    if not available:
        return None
    return max(available, key=lambda r: Ordered(r.version))
