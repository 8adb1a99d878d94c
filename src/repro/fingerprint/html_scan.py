"""Lightweight HTML tag scanner.

A purpose-built scanner (not a full HTML5 parser).  One tokenizer pass
over a page yields everything fingerprinting reads from it:

* the tags it cares about — ``script``, ``link``, ``meta``, ``style``,
  ``img``, ``object``, ``embed``, ``param``, ``iframe``, ``svg`` — with
  their attributes;
* the bodies of inline ``<script>`` blocks;
* each ``<object>`` paired with the ``<param>`` tags nested in it.

It tolerates the usual real-page mess: attribute values with or without
quotes, mixed case, self-closing slashes, and unclosed tags.

Every scan sees the comment-stripped text.  ``<!-- -->`` blocks are
removed once, before the pass, so commented-out markup is never
fingerprinted and every position (tags, ``</object>`` closes, script
bodies) refers to that one text.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

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

# One token: a fingerprint-relevant opening tag, or a ``</script>`` or
# ``</object>`` close (``script_end`` tells the two closes apart).
_TOKEN_RE = re.compile(
    r"<(?:(?P<name>" + "|".join(_TAG_NAMES) + r")\b(?P<attrs>[^>]*)>"
    r"|/(?:(?P<script_end>script)|object)\s*>)",
    re.IGNORECASE,
)

# Markup inside an attribute value (``alt="<script>"``): a tag's match
# runs to the first ``>``, so a ``<script`` opener or a close found in
# its attributes ends where the tag ends.
_SCRIPT_OPEN_RE = re.compile(r"<script\b", re.IGNORECASE)
_CLOSE_AT_END_RE = re.compile(r"</(?:(script)|object)\s*\Z", re.IGNORECASE)

_ATTR_RE = re.compile(
    r"""
    ([a-zA-Z_:][-a-zA-Z0-9_:.]*)
    (?:\s*=\s*
        (?:
            "([^"]*)"
          | '([^']*)'
          | ([^\s"'>`]+)
        )
    )?
    """,
    re.VERBOSE,
)

_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)


class Tag(NamedTuple):
    """One scanned tag: lowercase name, lowercase-keyed attributes."""

    name: str
    attrs: Dict[str, str]
    position: int

    def get(self, attribute: str, default: str = "") -> str:
        return self.attrs.get(attribute.lower(), default)

    def has(self, attribute: str) -> bool:
        return attribute.lower() in self.attrs


_new_tag = tuple.__new__

ObjectGroup = Tuple[Tag, List[Tag]]


class PageScan(NamedTuple):
    """What one pass over a page found.

    Attributes:
        tags: Fingerprint-relevant tags in document order.
        inline_scripts: Non-empty, whitespace-trimmed inline script
            bodies.
        object_groups: ``(object_tag, params)`` pairs; a ``<param>``
            before any object, or after a closing ``</object>``,
            attaches to no object (Flash ``<embed>`` fallbacks carry
            their own attributes).
    """

    tags: List[Tag]
    inline_scripts: List[str]
    object_groups: List[ObjectGroup]


def scan_page(html: str, strip_comments: bool = True) -> PageScan:
    """Scan a page in one pass.

    Args:
        html: Raw page text.
        strip_comments: Remove ``<!-- -->`` blocks first so commented-out
            markup is not fingerprinted.
    """
    if strip_comments and "<!--" in html:
        html = _COMMENT_RE.sub("", html)
    tags: List[Tag] = []
    bodies: List[str] = []
    object_closes: List[int] = []
    body_start = -1  # where the open inline script's body begins
    saw_object = False
    parse_attrs = _ATTR_RE.findall
    for match in _TOKEN_RE.finditer(html):
        name, raw, script_end = match.groups()
        if name is None:
            if script_end is None:
                object_closes.append(match.start())
            elif body_start >= 0:
                body = html[body_start : match.start()].strip()
                if body:
                    bodies.append(body)
                body_start = -1
            continue
        name = name.lower()
        # At most one of the three value groups matches; the others are "".
        attrs = {
            key.lower(): dq or sq or uq
            for key, dq, sq, uq in parse_attrs(raw.rstrip("/"))
        }
        # tuple.__new__ skips the generated NamedTuple.__new__ frame.
        tags.append(_new_tag(Tag, (name, attrs, match.start())))
        if name == "object":
            saw_object = True
        # Markup in the attributes: an opener there starts a body after
        # this tag; a close there ends the open body (one that began
        # before it) or the open object.
        markup = "<" in raw
        if body_start < 0 and (
            name == "script" or markup and _SCRIPT_OPEN_RE.search(raw)
        ):
            body_start = match.end()
        close = _CLOSE_AT_END_RE.search(raw) if markup else None
        if close is not None:
            at = match.start("attrs") + close.start()
            if close.group(1) is None:
                object_closes.append(at)
            elif 0 <= body_start < at:
                body = html[body_start:at].strip()
                if body:
                    bodies.append(body)
                body_start = -1
    groups = _group_objects(tags, object_closes) if saw_object else []
    return PageScan(tags, bodies, groups)


def _group_objects(tags: List[Tag], closes: List[int]) -> List[ObjectGroup]:
    groups: List[ObjectGroup] = []
    current: Optional[ObjectGroup] = None
    close_iter = iter(closes)
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


def scan_tags(html: str, strip_comments: bool = True) -> List[Tag]:
    """Extract fingerprint-relevant tags from an HTML document.

    Args:
        html: Raw page text.
        strip_comments: Remove ``<!-- -->`` blocks first so commented-out
            markup is not fingerprinted.
    """
    return scan_page(html, strip_comments).tags
