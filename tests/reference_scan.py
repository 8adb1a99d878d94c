"""Reference HTML scans: the three separate regex passes the engine once ran.

Kept as the oracle for :func:`repro.fingerprint.html_scan.scan_page`.
The one-pass scan must give exactly what these give when every one of
them reads the same comment-stripped text (``strip_comments=False``).
The module name keeps pytest from collecting it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.fingerprint.html_scan import Tag

_TAG_NAMES = (
    "script",
    "link",
    "meta",
    "style",
    "img",
    "object",
    "embed",
    "param",
    "iframe",
    "svg",
)

_TAG_RE = re.compile(
    r"<(?P<name>" + "|".join(_TAG_NAMES) + r")\b(?P<attrs>[^>]*)>",
    re.IGNORECASE,
)

_ATTR_RE = re.compile(
    r"""
    (?P<name>[a-zA-Z_:][-a-zA-Z0-9_:.]*)
    (?:\s*=\s*
        (?:
            "(?P<dq>[^"]*)"
          | '(?P<sq>[^']*)'
          | (?P<uq>[^\s"'>`]+)
        )
    )?
    """,
    re.VERBOSE,
)

_SCRIPT_BODY_RE = re.compile(
    r"<script\b[^>]*>(?P<body>.*?)</script\s*>",
    re.IGNORECASE | re.DOTALL,
)

_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)


def strip_comments(html: str) -> str:
    return _COMMENT_RE.sub("", html)


def _parse_attrs(raw: str) -> Dict[str, str]:
    attrs: Dict[str, str] = {}
    for match in _ATTR_RE.finditer(raw):
        name = match.group("name").lower()
        value = match.group("dq")
        if value is None:
            value = match.group("sq")
        if value is None:
            value = match.group("uq")
        attrs[name] = value if value is not None else ""
    return attrs


def scan_tags(html: str, strip_comments: bool = True) -> List[Tag]:
    if strip_comments:
        html = _COMMENT_RE.sub("", html)
    tags: List[Tag] = []
    for match in _TAG_RE.finditer(html):
        raw_attrs = match.group("attrs") or ""
        tags.append(
            Tag(
                name=match.group("name").lower(),
                attrs=_parse_attrs(raw_attrs.rstrip("/")),
                position=match.start(),
            )
        )
    return tags


def inline_scripts(html: str) -> List[str]:
    bodies = []
    for match in _SCRIPT_BODY_RE.finditer(html):
        body = match.group("body").strip()
        if body:
            bodies.append(body)
    return bodies


def object_groups(
    html: str, strip_comments: bool = True
) -> List[Tuple[Tag, List[Tag]]]:
    """As the engine once ran it: ``</object>`` positions come from
    ``html`` and tag positions from ``scan_tags(html, strip_comments)``,
    so they disagree whenever a comment is stripped."""
    groups: List[Tuple[Tag, List[Tag]]] = []
    close_positions = [
        m.start() for m in re.finditer(r"</object\s*>", html, re.IGNORECASE)
    ]
    tags = scan_tags(html, strip_comments)
    current: Optional[Tuple[Tag, List[Tag]]] = None
    close_iter = iter(close_positions)
    next_close = next(close_iter, None)
    for tag in tags:
        while next_close is not None and tag.position > next_close:
            if current is not None:
                groups.append(current)
                current = None
            next_close = next(close_iter, None)
        if tag.name == "object":
            if current is not None:
                groups.append(current)
            current = (tag, [])
        elif tag.name == "param" and current is not None:
            current[1].append(tag)
    if current is not None:
        groups.append(current)
    return groups


def reference_scan(stripped: str):
    """``(tags, inline_scripts, object_groups)`` of already-stripped text."""
    return (
        scan_tags(stripped, strip_comments=False),
        inline_scripts(stripped),
        object_groups(stripped, strip_comments=False),
    )
