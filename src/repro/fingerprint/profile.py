"""Structured fingerprinting output for one page.

:func:`profile_from_canonical` decodes a profile from its canonical
encoding (:func:`repro.canonical.to_canonical_dict`), which is how the
crawler's cross-run profile store keeps profiles on disk.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple


class ScriptAccess(enum.Enum):
    """Values of Flash's ``AllowScriptAccess`` parameter.

    ``sameDomain`` is the browser default when the parameter is absent;
    ``always`` is the insecure option WHATWG advises against.
    """

    ALWAYS = "always"
    SAME_DOMAIN = "samedomain"
    NEVER = "never"

    @classmethod
    def parse(cls, value: str) -> "ScriptAccess":
        normalized = value.strip().lower()
        for member in cls:
            if member.value == normalized:
                return member
        return cls.SAME_DOMAIN


@dataclasses.dataclass(frozen=True)
class LibraryDetection:
    """One JavaScript library identified on a page.

    Attributes:
        library: Canonical library name (e.g. ``"jquery"``).
        version: Detected version string, or None when unidentifiable.
        source_url: The script URL as written in the page.
        host: Host serving the file; None for same-origin relative URLs.
        external: True when served from a different origin than the page.
        cdn_host: The CDN hostname when served via a known CDN.
        untrusted_host: True for collaborative-VCS hosting
            (GitHub/GitLab/Bitbucket pages).
        has_integrity: ``integrity`` attribute present (SRI).
        crossorigin: Value of the ``crossorigin`` attribute, if present.
        evidence: Which signature clause matched (diagnostics).
    """

    library: str
    version: Optional[str]
    source_url: str
    host: Optional[str]
    external: bool
    cdn_host: Optional[str] = None
    untrusted_host: bool = False
    has_integrity: bool = False
    crossorigin: Optional[str] = None
    evidence: str = ""

    @property
    def internal(self) -> bool:
        return not self.external

    @property
    def via_cdn(self) -> bool:
        return self.cdn_host is not None


@dataclasses.dataclass(frozen=True)
class FlashEmbed:
    """One Adobe Flash movie embedded in a page."""

    swf_url: str
    tag: str  # "object" or "embed"
    script_access: Optional[ScriptAccess]
    script_access_specified: bool
    external: bool
    visible: bool = True

    @property
    def insecure(self) -> bool:
        """True when ``AllowScriptAccess`` is explicitly ``always``."""
        return self.script_access is ScriptAccess.ALWAYS


@dataclasses.dataclass
class PageProfile:
    """Everything fingerprinted from one landing page.

    ``resource_types`` uses the paper's Figure 2(b) vocabulary:
    ``javascript``, ``css``, ``favicon``, ``imported-html``, ``xml``,
    ``svg``, ``flash``, ``axd``.
    """

    page_host: str
    resource_types: FrozenSet[str] = frozenset()
    libraries: Tuple[LibraryDetection, ...] = ()
    flash_embeds: Tuple[FlashEmbed, ...] = ()
    wordpress_version: Optional[str] = None
    script_count: int = 0
    external_script_count: int = 0
    #: (host, url, has_integrity) triples of external scripts served from
    #: collaborative version-control hosting (GitHub/GitLab/Bitbucket
    #: pages), whether or not a library signature matched them.
    untrusted_scripts: Tuple[Tuple[str, str, bool], ...] = ()

    @property
    def uses_wordpress(self) -> bool:
        return self.wordpress_version is not None

    @property
    def uses_flash(self) -> bool:
        return bool(self.flash_embeds) or "flash" in self.resource_types

    def external_without_integrity(self) -> Tuple[LibraryDetection, ...]:
        """External library inclusions missing the ``integrity`` attribute."""
        return tuple(
            d for d in self.libraries if d.external and not d.has_integrity
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (for the snapshot store)."""
        return {
            "host": self.page_host,
            "resources": sorted(self.resource_types),
            "libraries": [
                {
                    "library": d.library,
                    "version": d.version,
                    "external": d.external,
                    "cdn": d.cdn_host,
                    "untrusted": d.untrusted_host,
                    "integrity": d.has_integrity,
                    "crossorigin": d.crossorigin,
                }
                for d in self.libraries
            ],
            "flash": [
                {
                    "swf": e.swf_url,
                    "tag": e.tag,
                    "script_access": e.script_access.value if e.script_access else None,
                    "specified": e.script_access_specified,
                    "insecure": e.insecure,
                }
                for e in self.flash_embeds
            ],
            "wordpress": self.wordpress_version,
        }


# ----------------------------------------------------------------------
# Decoding the canonical encoding
# ----------------------------------------------------------------------
def _str(value: object) -> str:
    if type(value) is not str:
        raise ValueError(f"expected a string, got {type(value).__name__}")
    return value


def _optional_str(value: object) -> Optional[str]:
    return None if value is None else _str(value)


def _bool(value: object) -> bool:
    if type(value) is not bool:
        raise ValueError(f"expected a bool, got {type(value).__name__}")
    return value


def _int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an int, got {type(value).__name__}")
    return value


def _list(value: object) -> list:
    if type(value) is not list:
        raise ValueError(f"expected a list, got {type(value).__name__}")
    return value


def _script_access(value: object) -> Optional[ScriptAccess]:
    # ScriptAccess(value) raises ValueError for an unknown value.
    return None if value is None else ScriptAccess(_str(value))


def _untrusted_script(value: object) -> Tuple[str, str, bool]:
    items = _list(value)
    if len(items) != 3:
        raise ValueError("expected a (host, url, integrity) triple")
    return (_str(items[0]), _str(items[1]), _bool(items[2]))


_Decoder = Callable[[object], object]
_Field = Tuple[str, _Decoder]


def _schema(cls: type, decoders: Dict[str, _Decoder]) -> Tuple[_Field, ...]:
    """``cls``'s fields in declaration order, each with its decoder."""
    names = [field.name for field in dataclasses.fields(cls)]
    if sorted(names) != sorted(decoders):
        raise TypeError(f"{cls.__name__} decoder fields differ from the dataclass")
    return tuple((name, decoders[name]) for name in names)


def _decode(cls: type, schema: Sequence[_Field], data: object):
    if type(data) is not dict or len(data) != len(schema):
        raise ValueError(f"expected a {cls.__name__} object with {len(schema)} fields")
    try:
        return cls(*[decode(data[name]) for name, decode in schema])
    except KeyError as exc:
        raise ValueError(f"{cls.__name__} lacks field {exc}") from None


_DETECTION_SCHEMA = _schema(
    LibraryDetection,
    {
        "library": _str,
        "version": _optional_str,
        "source_url": _str,
        "host": _optional_str,
        "external": _bool,
        "cdn_host": _optional_str,
        "untrusted_host": _bool,
        "has_integrity": _bool,
        "crossorigin": _optional_str,
        "evidence": _str,
    },
)

_FLASH_SCHEMA = _schema(
    FlashEmbed,
    {
        "swf_url": _str,
        "tag": _str,
        "script_access": _script_access,
        "script_access_specified": _bool,
        "external": _bool,
        "visible": _bool,
    },
)

_PROFILE_SCHEMA = _schema(
    PageProfile,
    {
        "page_host": _str,
        "resource_types": lambda v: frozenset(_str(t) for t in _list(v)),
        "libraries": lambda v: tuple(
            _decode(LibraryDetection, _DETECTION_SCHEMA, d) for d in _list(v)
        ),
        "flash_embeds": lambda v: tuple(
            _decode(FlashEmbed, _FLASH_SCHEMA, e) for e in _list(v)
        ),
        "wordpress_version": _optional_str,
        "script_count": _int,
        "external_script_count": _int,
        "untrusted_scripts": lambda v: tuple(_untrusted_script(t) for t in _list(v)),
    },
)


def profile_from_canonical(data: object) -> PageProfile:
    """The :class:`PageProfile` whose canonical encoding is ``data``.

    The inverse of :func:`repro.canonical.to_canonical_dict` on
    profiles, read back through JSON:
    ``profile_from_canonical(to_canonical_dict(p)) == p``.

    ``data`` is untrusted (the profile store reads it from a directory
    shared across runs), so the decoder checks every field: exactly the
    dataclass's keys, each of its type (``bool`` is not an ``int``),
    and a known :class:`ScriptAccess` value.

    Raises:
        ValueError: ``data`` is not the encoding of a profile.
    """
    return _decode(PageProfile, _PROFILE_SCHEMA, data)
