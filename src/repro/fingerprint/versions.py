"""Version extraction heuristics for script URLs.

The paper observes that library versions are typically visible in the
URL — as part of the file name (``jquery-1.12.4.min.js``), as a path
segment (``/ajax/libs/jquery/1.12.4/jquery.min.js``), or in a query
parameter (WordPress's ``jquery.min.js?ver=1.12.4``).  These helpers
implement those three heuristics in priority order.
"""

from __future__ import annotations

import functools
import re
from typing import Optional, Pattern

_QUERY_VER_RE = re.compile(r"(?:^|[?&])ver(?:sion)?=([vV]?\d[\w.-]*)")
_PATH_SEGMENT_RE = re.compile(r"/[vV]?(\d+(?:\.\d+)+(?:\.\d+)*)/")
_AT_VERSION_RE = re.compile(r"@[vV]?(\d+(?:\.\d+)+(?:\.\d+)*)(?:/|$)")
_MAJOR_SEGMENT_RE = re.compile(r"/v(\d+)(?:/|$)")
_TRAILING_JUNK_RE = re.compile(r"[.-](?:min|slim|pack(?:ed)?|bundle|full)$", re.IGNORECASE)


def _clean(version: str) -> Optional[str]:
    version = version.strip().lstrip("vV")
    version = _TRAILING_JUNK_RE.sub("", version)
    version = version.rstrip(".-")
    if not version or not version[0].isdigit():
        return None
    return version


def version_from_query(query: str) -> Optional[str]:
    """A version carried in ``?ver=`` / ``?version=``."""
    match = _QUERY_VER_RE.search(query or "")
    if match:
        return _clean(match.group(1))
    return None


def version_from_path_segment(path: str) -> Optional[str]:
    """A dotted version used as its own path segment or ``@version``."""
    match = _PATH_SEGMENT_RE.search(path or "")
    if match:
        return _clean(match.group(1))
    # jsDelivr/unpkg "package@1.2.3/" style.
    at = _AT_VERSION_RE.search(path or "")
    if at:
        return _clean(at.group(1))
    # Single-component /v3/ style (polyfill.io).
    major = _MAJOR_SEGMENT_RE.search(path or "")
    if major:
        return major.group(1)
    return None


@functools.lru_cache(maxsize=256)
def _filename_pattern(library_token: str) -> Pattern[str]:
    return re.compile(
        re.escape(library_token)
        + r"[.-]v?(\d[\w.]*?)(?:[.-](?:min|slim|pack|bundle))*\.js$",
        re.IGNORECASE,
    )


def version_from_filename(filename: str, library_token: str) -> Optional[str]:
    """A version suffixed to the library token in the file name.

    Args:
        filename: Final path segment, e.g. ``jquery-1.12.4.min.js``.
        library_token: The file-name token identifying the library,
            e.g. ``jquery`` or ``jquery.ui``.
    """
    match = _filename_pattern(library_token).search(filename or "")
    if match:
        return _clean(match.group(1))
    return None


def extract_version(
    path: str, query: str, filename: str, library_token: str
) -> Optional[str]:
    """Best-effort version from a script URL, in heuristic priority.

    Order: file-name suffix, ``?ver=`` query, dotted path segment.  The
    file name is most specific.  The query outranks path segments because
    WordPress-style URLs (``/c/5.8.1/wp-includes/.../jquery.min.js?ver=3.5.1``)
    carry the *platform* version in the path but the library version in
    the query.
    """
    version = version_from_filename(filename, library_token)
    if version is None:
        version = version_from_query(query)
    if version is None:
        version = version_from_path_segment(path)
    return version
