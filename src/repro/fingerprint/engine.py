"""The fingerprint engine: static HTML in, :class:`PageProfile` out.

This is the stand-in for Wappalyzer in the paper's pipeline (Section
4.2): regex-driven identification of client-side resources and their
versions from a single landing page.
"""

from __future__ import annotations

import functools
import re
import time
from typing import List, Optional, Sequence, Set, Tuple

from ..netsim.url import Url, parse_url, urljoin
from .cdn import CdnCatalog, default_cdn_catalog
from .html_scan import PageScan, Tag, scan_page
from .profile import FlashEmbed, LibraryDetection, PageProfile, ScriptAccess
from .signatures import LibrarySignature, default_signatures
from .untrusted import is_untrusted_host

_WP_GENERATOR_RE = re.compile(r"WordPress\s+(?P<version>\d[\d.]*)", re.IGNORECASE)
_HIDDEN_STYLE_RE = re.compile(
    r"display\s*:\s*none|visibility\s*:\s*hidden|left\s*:\s*-\d{3,}", re.IGNORECASE
)


@functools.lru_cache(maxsize=4096)
def _normalize_host(host: Optional[str]) -> Optional[str]:
    if host is None:
        return None
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host


class FingerprintEngine:
    """Identifies technologies on static HTML landing pages.

    Args:
        signatures: Library signatures, most specific first; defaults to
            the built-in top-15 set.
        cdn_catalog: CDN host catalog for delivery classification.
        instruments: Optional :class:`~repro.obs.Instruments`; when set,
            every page fingerprinted records its count, script volume,
            and wall time (``fingerprint.*`` counters,
            ``wall.fingerprint_us``).
    """

    def __init__(
        self,
        signatures: Optional[Sequence[LibrarySignature]] = None,
        cdn_catalog: Optional[CdnCatalog] = None,
        instruments=None,
    ) -> None:
        self.signatures: Tuple[LibrarySignature, ...] = tuple(
            signatures if signatures is not None else default_signatures()
        )
        self.cdn_catalog = cdn_catalog or default_cdn_catalog()
        self.instruments = instruments

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def fingerprint(self, html: str, page_url: str) -> PageProfile:
        """Fingerprint one landing page.

        Args:
            html: The page text.
            page_url: Absolute URL the page was fetched from; relative
                script references resolve against it.
        """
        if self.instruments is None:
            return self._fingerprint(html, page_url)
        started = time.perf_counter_ns()
        profile = self._fingerprint(html, page_url)
        instruments = self.instruments
        instruments.add_wall_us(
            "fingerprint", (time.perf_counter_ns() - started) // 1000
        )
        instruments.inc("fingerprint.pages")
        instruments.inc("fingerprint.scripts", profile.script_count)
        return profile

    def _fingerprint(self, html: str, page_url: str) -> PageProfile:
        base = parse_url(page_url) if isinstance(page_url, str) else page_url
        page_host = _normalize_host(base.host)
        scan = scan_page(html)

        resource_types: Set[str] = set()
        libraries: List[LibraryDetection] = []
        untrusted_scripts: List[Tuple[str, str, bool]] = []
        script_count = 0
        external_count = 0
        wordpress_version: Optional[str] = None
        wordpress_markers = False

        for tag in scan.tags:
            name = tag.name
            attrs = tag.attrs  # keys are lowercase: read it as a plain dict
            if name == "script":
                src = attrs.get("src")
                if src:
                    script_count += 1
                    try:
                        resolved: Optional[Url] = urljoin(base, src)
                    except Exception:
                        resolved = None
                    if resolved is not None:
                        host = _normalize_host(resolved.host)
                        external = host is not None and host != page_host
                        if external:
                            external_count += 1
                            if host and is_untrusted_host(host):
                                untrusted_scripts.append(
                                    (host, src, "integrity" in attrs)
                                )
                        detection = self._detect_library(
                            tag, src, resolved, host, external
                        )
                        if detection is not None:
                            libraries.append(detection)
                    resource_types.add("javascript")
                    self._classify_url_resource(src, resource_types)
                    if "/wp-content/" in src or "/wp-includes/" in src:
                        wordpress_markers = True
                else:
                    resource_types.add("javascript")
            elif name == "style":
                resource_types.add("css")
            elif name == "link":
                self._inspect_link(tag, resource_types)
                href = attrs.get("href")
                if href and ("/wp-content/" in href or "/wp-includes/" in href):
                    wordpress_markers = True
            elif name == "meta":
                if attrs.get("name", "").lower() == "generator":
                    match = _WP_GENERATOR_RE.search(attrs.get("content", ""))
                    if match:
                        wordpress_version = match.group("version")
            elif name == "img":
                src = attrs.get("src")
                if src:
                    self._classify_url_resource(src, resource_types)
            elif name == "svg":
                resource_types.add("svg")

        # Inline banners: catch internally inlined library copies that
        # have no URL (only for libraries not already seen).
        seen = {d.library for d in libraries}
        for body in scan.inline_scripts:
            resource_types.add("javascript")
            for signature in self.signatures:
                if signature.inline_pattern is None or signature.library in seen:
                    continue
                matched = signature.match_inline(body)
                if matched is None:
                    continue
                version, evidence = matched
                libraries.append(
                    LibraryDetection(
                        library=signature.library,
                        version=version,
                        source_url="",
                        host=page_host,
                        external=False,
                        evidence=evidence,
                    )
                )
                seen.add(signature.library)
                break

        flash_embeds = self._inspect_flash(scan, base, page_host)
        if flash_embeds:
            resource_types.add("flash")

        if wordpress_version is None and wordpress_markers:
            wordpress_version = ""  # platform detected, version unknown

        return PageProfile(
            page_host=page_host or "",
            resource_types=frozenset(resource_types),
            libraries=tuple(libraries),
            flash_embeds=tuple(flash_embeds),
            wordpress_version=wordpress_version or None,
            script_count=script_count,
            external_script_count=external_count,
            untrusted_scripts=tuple(untrusted_scripts),
        )

    # ------------------------------------------------------------------
    # Script inspection
    # ------------------------------------------------------------------
    def _detect_library(
        self,
        tag: Tag,
        src: str,
        resolved: Url,
        host: Optional[str],
        external: bool,
    ) -> Optional[LibraryDetection]:
        # Literal-substring prefilter: only signatures whose anchor
        # appears in the (lowercased) path+query pay for regex matching.
        lower_target = (
            resolved.path + ("?" + resolved.query if resolved.query else "")
        ).lower()

        for signature in self.signatures:
            if not signature.could_match_url(lower_target):
                continue
            matched = signature.match_url(
                host, resolved.path, resolved.query, resolved.filename
            )
            if matched is None:
                continue
            version, evidence = matched
            return LibraryDetection(
                library=signature.library,
                version=version,
                source_url=src,
                host=host,
                external=external,
                cdn_host=self.cdn_catalog.match(host) if external else None,
                untrusted_host=external and is_untrusted_host(host),
                has_integrity="integrity" in tag.attrs,
                crossorigin=tag.attrs.get("crossorigin"),
                evidence=evidence,
            )
        return None

    # ------------------------------------------------------------------
    # Non-script resources
    # ------------------------------------------------------------------
    @staticmethod
    def _inspect_link(tag: Tag, resource_types: Set[str]) -> None:
        attrs = tag.attrs
        rel = attrs.get("rel", "").lower()
        href = attrs.get("href")
        link_type = attrs.get("type", "").lower()
        if "stylesheet" in rel:
            resource_types.add("css")
        if "icon" in rel:
            resource_types.add("favicon")
        if "xml" in link_type or (href and href.lower().split("?")[0].endswith(".xml")):
            resource_types.add("xml")
        if href:
            FingerprintEngine._classify_url_resource(href, resource_types)

    @staticmethod
    def _classify_url_resource(url: str, resource_types: Set[str]) -> None:
        path = url.split("?", 1)[0].lower()
        if path.endswith(".php"):
            resource_types.add("imported-html")
        elif path.endswith(".svg"):
            resource_types.add("svg")
        elif path.endswith(".axd") or ".axd" in path:
            resource_types.add("axd")
        elif path.endswith(".xml"):
            resource_types.add("xml")
        elif path.endswith(".swf"):
            resource_types.add("flash")
        elif path.endswith(".css"):
            resource_types.add("css")

    # ------------------------------------------------------------------
    # Flash
    # ------------------------------------------------------------------
    def _inspect_flash(
        self, scan: PageScan, base: Url, page_host: Optional[str]
    ) -> List[FlashEmbed]:
        embeds: List[FlashEmbed] = []

        for obj, params in scan.object_groups:
            movie: Optional[str] = None
            access_value: Optional[str] = None
            data = obj.get("data")
            if data and data.lower().split("?")[0].endswith(".swf"):
                movie = data
            for param in params:
                pname = param.get("name").lower()
                if pname == "movie" and param.get("value"):
                    movie = param.get("value")
                elif pname == "allowscriptaccess":
                    access_value = param.get("value")
            if movie is None:
                continue
            embeds.append(
                self._build_embed(obj, movie, access_value, "object", base, page_host)
            )

        for tag in scan.tags:
            if tag.name != "embed":
                continue
            src = tag.get("src")
            if not src or not src.lower().split("?")[0].endswith(".swf"):
                continue
            access_value = (
                tag.get("allowscriptaccess") if tag.has("allowscriptaccess") else None
            )
            embeds.append(
                self._build_embed(tag, src, access_value, "embed", base, page_host)
            )
        return embeds

    @staticmethod
    def _build_embed(
        tag: Tag,
        movie: str,
        access_value: Optional[str],
        kind: str,
        base: Url,
        page_host: Optional[str],
    ) -> FlashEmbed:
        try:
            resolved = urljoin(base, movie)
            external = _normalize_host(resolved.host) != page_host
        except Exception:
            external = False
        width = tag.get("width")
        height = tag.get("height")
        style = tag.get("style")
        visible = True
        if width in ("0", "1") or height in ("0", "1"):
            visible = False
        elif style and _HIDDEN_STYLE_RE.search(style):
            visible = False
        return FlashEmbed(
            swf_url=movie,
            tag=kind,
            script_access=ScriptAccess.parse(access_value) if access_value else None,
            script_access_specified=access_value is not None,
            external=external,
            visible=visible,
        )
