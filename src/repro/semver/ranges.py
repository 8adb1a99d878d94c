"""Version range specifiers.

The paper's Table 2 expresses affected versions in a handful of shapes:

* ``< 1.9.0`` / ``<= 1.7.3`` — one-sided bounds,
* ``1.0.3 ~ 3.5.0`` — an interval, inclusive below and exclusive above
  (matching CVE prose such as "greater than or equal to 1.0.3 and before
  3.5.0"),
* ``>= 1.5.0 and < 2.2.4`` — explicit compound bounds,
* ``All versions`` — every release of a library,
* unions written with commas, e.g. Bootstrap's ``< 3.4.1, < 4.3.1``.

:func:`parse_range` accepts all of these and returns a :class:`RangeSet`
(a union of :class:`VersionRange` intervals).  Containment checks take a
version string or :class:`Version`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import VersionError
from .version import Version, VersionLike, parse_version


@dataclasses.dataclass(frozen=True)
class Bound:
    """One endpoint of an interval."""

    version: Version
    inclusive: bool


@dataclasses.dataclass(frozen=True)
class VersionRange:
    """A contiguous interval of versions.

    ``lower``/``upper`` of ``None`` mean unbounded on that side.
    """

    lower: Optional[Bound] = None
    upper: Optional[Bound] = None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None:
            if self.lower.version > self.upper.version:
                raise VersionError(
                    f"empty range: lower {self.lower.version} above "
                    f"upper {self.upper.version}"
                )

    def contains(self, value: VersionLike) -> bool:
        return self._contains_key(parse_version(value)._key)

    def _contains_key(self, key: tuple) -> bool:
        """Membership of a :class:`Version` comparison key: the order
        ``Version.__lt__`` and ``__eq__`` define, read off the keys."""
        lower = self.lower
        if lower is not None:
            if lower.inclusive:
                if key < lower.version._key:
                    return False
            elif key <= lower.version._key:
                return False
        upper = self.upper
        if upper is not None:
            if upper.inclusive:
                if key > upper.version._key:
                    return False
            elif key >= upper.version._key:
                return False
        return True

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (str, Version)):
            return False
        return self.contains(value)

    def describe(self) -> str:
        """A human-readable rendering matching the paper's notation."""
        if self.lower is None and self.upper is None:
            return "all versions"
        parts: List[str] = []
        if self.lower is not None:
            op = ">=" if self.lower.inclusive else ">"
            parts.append(f"{op} {self.lower.version}")
        if self.upper is not None:
            op = "<=" if self.upper.inclusive else "<"
            parts.append(f"{op} {self.upper.version}")
        return " and ".join(parts)

    def __str__(self) -> str:
        return self.describe()


class RangeSet:
    """A union of :class:`VersionRange` intervals."""

    __slots__ = ("_ranges", "_source")

    def __init__(
        self, ranges: Iterable[VersionRange], source: Optional[str] = None
    ) -> None:
        self._ranges: Tuple[VersionRange, ...] = tuple(ranges)
        self._source = source

    @property
    def ranges(self) -> Tuple[VersionRange, ...]:
        return self._ranges

    @property
    def source(self) -> Optional[str]:
        """The specifier text this set was parsed from, if any."""
        return self._source

    @property
    def is_empty(self) -> bool:
        return not self._ranges

    def contains(self, value: VersionLike) -> bool:
        key = parse_version(value)._key
        for version_range in self._ranges:
            if version_range._contains_key(key):
                return True
        return False

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (str, Version)):
            return False
        return self.contains(value)

    def filter(self, versions: Sequence[VersionLike]) -> List[Version]:
        """The subset of ``versions`` inside this set, parsed and in order."""
        matched = [parse_version(v) for v in versions]
        return sorted(v for v in matched if self.contains(v))

    def describe(self) -> str:
        if self._source:
            return self._source
        if not self._ranges:
            return "no versions"
        return ", ".join(r.describe() for r in self._ranges)

    def __str__(self) -> str:
        return self.describe()

    def __repr__(self) -> str:
        return f"RangeSet({self.describe()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)


def AllVersions() -> RangeSet:
    """A set containing every version."""
    return RangeSet([VersionRange()], source="all versions")


def NoVersions() -> RangeSet:
    """The empty set of versions."""
    return RangeSet([], source="no versions")


_COMPARATOR_RE = re.compile(r"^(<=|>=|<|>|==|=)\s*(.+)$")
_TILDE_RE = re.compile(r"^(.+?)\s*[~∼–-]\s*(?=[vV]?\d)(.+)$")


def _parse_clause(clause: str) -> VersionRange:
    clause = clause.strip()
    if not clause:
        raise VersionError("empty range clause")
    lowered = clause.lower()
    if lowered in ("all", "all versions", "*", "any"):
        return VersionRange()

    # "A ~ B" interval: inclusive lower, exclusive upper.
    tilde = _TILDE_RE.match(clause)
    if tilde and "~" in clause or (tilde and "∼" in clause):
        lo, hi = tilde.group(1), tilde.group(2)
        return VersionRange(
            lower=Bound(parse_version(lo), inclusive=True),
            upper=Bound(parse_version(hi), inclusive=False),
        )

    # "X and Y" compound bounds.
    if " and " in lowered:
        left, right = re.split(r"\s+and\s+", clause, maxsplit=1, flags=re.IGNORECASE)
        a = _parse_clause(left)
        b = _parse_clause(right)
        lower = a.lower or b.lower
        upper = a.upper or b.upper
        if (a.lower and b.lower) or (a.upper and b.upper):
            raise VersionError(f"conflicting bounds in range: {clause!r}")
        return VersionRange(lower=lower, upper=upper)

    match = _COMPARATOR_RE.match(clause)
    if match:
        op, rest = match.group(1), match.group(2).strip()
        version = parse_version(rest)
        if op == "<":
            return VersionRange(upper=Bound(version, inclusive=False))
        if op == "<=":
            return VersionRange(upper=Bound(version, inclusive=True))
        if op == ">":
            return VersionRange(lower=Bound(version, inclusive=False))
        if op == ">=":
            return VersionRange(lower=Bound(version, inclusive=True))
        # == / =
        return VersionRange(
            lower=Bound(version, inclusive=True),
            upper=Bound(version, inclusive=True),
        )

    # Bare version: exact match.
    version = parse_version(clause)
    return VersionRange(
        lower=Bound(version, inclusive=True),
        upper=Bound(version, inclusive=True),
    )


def parse_range(text: str) -> RangeSet:
    """Parse a version-range specifier into a :class:`RangeSet`.

    Args:
        text: A specifier such as ``"< 3.4.0"``, ``"1.2.0 ~ 3.5.0"``,
            ``">= 1.5.0 and < 2.2.4"``, ``"all versions"``, ``"none"``,
            or a comma-separated union of those.

    Raises:
        VersionError: If any clause cannot be parsed.
    """
    if not isinstance(text, str) or not text.strip():
        raise VersionError(f"invalid range specifier: {text!r}")
    stripped = text.strip()
    if stripped.lower() in ("none", "no versions"):
        return NoVersions()
    clauses = [c for c in stripped.split(",") if c.strip()]
    ranges = [_parse_clause(clause) for clause in clauses]
    return RangeSet(ranges, source=stripped)
