"""URL parsing, normalization, and joining.

A small, dependency-free URL type sufficient for crawling and
fingerprinting: scheme, host, port, path, query, fragment.  Relative
references resolve against a base with :func:`urljoin` following the
common subset of RFC 3986 used by real pages (absolute URLs,
protocol-relative ``//host/path``, root-relative ``/path``, and
path-relative ``lib/x.js``).
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Optional, Tuple

from ..errors import NetworkError

_DEFAULT_PORTS = {"http": 80, "https": 443}

_URL_RE = re.compile(
    r"""
    ^
    (?:(?P<scheme>[a-zA-Z][a-zA-Z0-9+.-]*):)?   # scheme
    (?://(?P<authority>[^/?#]*))?               # //host[:port]
    (?P<path>[^?#]*)                            # path
    (?:\?(?P<query>[^#]*))?                     # query
    (?:\#(?P<fragment>.*))?                     # fragment
    $
    """,
    re.VERBOSE,
)


@dataclasses.dataclass(frozen=True)
class Url:
    """A parsed URL.

    ``host`` is lowercase; ``port`` is None when the scheme default is
    used; ``path`` always starts with ``/`` for URLs with an authority.
    """

    scheme: str
    host: str
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = ""

    @property
    def origin(self) -> str:
        """``scheme://host[:port]`` — the security origin."""
        if self.port is not None and self.port != _DEFAULT_PORTS.get(self.scheme):
            return f"{self.scheme}://{self.host}:{self.port}"
        return f"{self.scheme}://{self.host}"

    @property
    def request_target(self) -> str:
        """Path plus query, as sent on the request line."""
        if self.query:
            return f"{self.path}?{self.query}"
        return self.path

    @property
    def filename(self) -> str:
        """The final path segment (may be empty)."""
        return self.path.rsplit("/", 1)[-1]

    def __str__(self) -> str:
        text = f"{self.origin}{self.path}"
        if self.query:
            text += f"?{self.query}"
        if self.fragment:
            text += f"#{self.fragment}"
        return text


def _split_authority(authority: str) -> Tuple[str, Optional[int]]:
    if "@" in authority:  # strip userinfo
        authority = authority.rsplit("@", 1)[1]
    if ":" in authority:
        host, _, port_text = authority.rpartition(":")
        if port_text.isdigit():
            return host.lower(), int(port_text)
    return authority.lower(), None


def parse_url(text: str, default_scheme: str = "https") -> Url:
    """Parse an absolute URL.

    Args:
        text: The URL text.  ``//host/path`` (protocol-relative) and bare
            ``host/path`` forms are completed with ``default_scheme``.
        default_scheme: Scheme assumed for scheme-less input.

    Raises:
        NetworkError: If no hostname can be extracted.
    """
    if not isinstance(text, str) or not text.strip():
        raise NetworkError(f"invalid URL: {text!r}")
    return _parse_url_cached(text.strip(), default_scheme)


@functools.lru_cache(maxsize=4096)
def _parse_url_cached(text: str, default_scheme: str) -> Url:
    # Url is frozen, so handing the same instance to every caller is
    # safe; failures raise before anything is cached.
    match = _URL_RE.match(text)
    if match is None:  # pragma: no cover - regex matches almost anything
        raise NetworkError(f"invalid URL: {text!r}")
    scheme = (match.group("scheme") or "").lower()
    authority = match.group("authority")
    path = match.group("path") or ""
    if authority is None:
        # "example.com/x" style: treat first segment as host if it looks
        # like a hostname.
        head, _, rest = path.partition("/")
        if "." in head and " " not in head:
            authority = head
            path = "/" + rest if rest else "/"
        else:
            raise NetworkError(f"URL has no host: {text!r}")
    if not scheme:
        scheme = default_scheme
    host, port = _split_authority(authority)
    if not host:
        raise NetworkError(f"URL has no host: {text!r}")
    if not path:
        path = "/"
    return Url(
        scheme=scheme,
        host=host,
        port=port,
        path=path,
        query=match.group("query") or "",
        fragment=match.group("fragment") or "",
    )


def _merge_paths(base_path: str, ref_path: str) -> str:
    if ref_path.startswith("/"):
        merged = ref_path
    else:
        directory = base_path.rsplit("/", 1)[0]
        merged = f"{directory}/{ref_path}"
    # Normalize ./ and ../ segments.
    segments = []
    for segment in merged.split("/"):
        if segment == "." or segment == "":
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if merged.endswith("/") and not normalized.endswith("/"):
        normalized += "/"
    return normalized


def urljoin(base: Url, reference: str) -> Url:
    """Resolve ``reference`` against ``base``.

    Handles absolute URLs, protocol-relative (``//host/x``),
    root-relative (``/x``), and path-relative (``x/y.js``) references.
    """
    if isinstance(base, Url) and isinstance(reference, str):
        return _urljoin_cached(base, reference)
    return _urljoin_uncached(base, reference)


@functools.lru_cache(maxsize=8192)
def _urljoin_cached(base: Url, reference: str) -> Url:
    return _urljoin_uncached(base, reference)


def _urljoin_uncached(base: Url, reference: str) -> Url:
    reference = reference.strip()
    if not reference:
        return base
    if reference.startswith("//"):
        return parse_url(f"{base.scheme}:{reference}")
    match = _URL_RE.match(reference)
    if match and match.group("scheme"):
        return parse_url(reference)
    path_part = match.group("path") if match else reference
    query = (match.group("query") or "") if match else ""
    fragment = (match.group("fragment") or "") if match else ""
    if not path_part and (query or fragment):
        return dataclasses.replace(base, query=query, fragment=fragment)
    return dataclasses.replace(
        base,
        path=_merge_paths(base.path or "/", path_part),
        query=query,
        fragment=fragment,
    )
