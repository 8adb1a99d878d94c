"""Version parsing and total ordering.

A :class:`Version` is an immutable value parsed from strings like
``"1.12.4"``, ``"v2.2"``, ``"1.6.0.1"``, or ``"3.0.0-rc1"``.  Ordering
follows semantic-versioning rules generalized to any number of numeric
components: numeric components compare left to right with missing
components treated as zero, and a pre-release orders *before* the same
numeric release (``3.0.0-rc1 < 3.0.0``).
"""

from __future__ import annotations

import functools
import re
from typing import Optional, Tuple, Union

from ..errors import VersionError

_VERSION_RE = re.compile(
    r"""
    ^\s*
    [vV]?                                   # optional v prefix
    (?P<numbers>\d+(?:\.\d+)*)              # dotted numeric components
    (?:[-.]?(?P<pre>(?:alpha|beta|rc|pre|a|b)[\d.]*))?   # pre-release tag
    \s*$
    """,
    re.VERBOSE | re.IGNORECASE,
)

VersionLike = Union[str, "Version"]


@functools.total_ordering
class Version:
    """An immutable, totally ordered library version.

    Args:
        text: The version string to parse.

    Raises:
        VersionError: If ``text`` is not a recognizable version string.
    """

    __slots__ = ("_text", "_release", "_pre", "_key")

    def __init__(self, text: str) -> None:
        if isinstance(text, Version):  # defensive copy-construction
            self._text = text._text
            self._release = text._release
            self._pre = text._pre
            self._key = text._key
            return
        if not isinstance(text, str):
            raise VersionError(f"version must be a string, got {type(text)!r}")
        match = _VERSION_RE.match(text)
        if match is None:
            raise VersionError(f"unparseable version string: {text!r}")
        self._text = text.strip()
        self._release: Tuple[int, ...] = tuple(
            int(part) for part in match.group("numbers").split(".")
        )
        pre = match.group("pre")
        self._pre: Optional[str] = pre.lower() if pre else None
        # The comparison key: the release with trailing zeros trimmed
        # (so 1.2 == 1.2.0; components are non-negative, so trimmed
        # tuples order exactly as zero-padded ones), then 0 for a
        # pre-release and 1 for a final release, then the tag.
        release = self._release
        while len(release) > 1 and release[-1] == 0:
            release = release[:-1]
        self._key: Tuple[Tuple[int, ...], int, str] = (
            release,
            0 if self._pre is not None else 1,
            self._pre or "",
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def release(self) -> Tuple[int, ...]:
        """The numeric components, e.g. ``(1, 12, 4)``."""
        return self._release

    @property
    def major(self) -> int:
        return self._release[0]

    @property
    def minor(self) -> int:
        return self._release[1] if len(self._release) > 1 else 0

    @property
    def patch(self) -> int:
        return self._release[2] if len(self._release) > 2 else 0

    @property
    def prerelease(self) -> Optional[str]:
        """The pre-release tag (lowercased), or None for a final release."""
        return self._pre

    @property
    def is_prerelease(self) -> bool:
        return self._pre is not None

    @property
    def text(self) -> str:
        """The original (stripped) version string."""
        return self._text

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "Version") -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key < other._key

    def __hash__(self) -> int:
        # The trimmed release, so 1.2 == 1.2.0 hash identically.
        return hash((self._key[0], self._pre))

    def __repr__(self) -> str:
        return f"Version({self._text!r})"

    def __str__(self) -> str:
        return self._text

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def bump_patch(self) -> "Version":
        parts = list(self._release) + [0] * (3 - len(self._release))
        parts[2] += 1
        return Version(".".join(str(p) for p in parts))

    def truncated(self, components: int) -> "Version":
        """A copy keeping only the first ``components`` numeric parts."""
        if components <= 0:
            raise VersionError("components must be positive")
        kept = self._release[:components]
        return Version(".".join(str(p) for p in kept))


@functools.lru_cache(maxsize=4096)
def _version_from_text(text: str) -> Version:
    return Version(text)


def parse_version(value: VersionLike) -> Version:
    """Coerce a string or :class:`Version` to a :class:`Version`.

    Parses of the same string share one immutable instance (the crawl
    re-parses a small set of hot version strings millions of times);
    unparseable strings raise without being cached.
    """
    if isinstance(value, Version):
        return value
    if isinstance(value, str):
        return _version_from_text(value)
    return Version(value)
