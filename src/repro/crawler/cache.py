"""Content-addressed profile cache for incremental crawling.

Most sites change rarely (42% of the population is frozen, another 41%
updates with a 0.6% weekly hazard), so re-rendering and re-fingerprinting
every landing page every week mostly reproduces last week's
:class:`~repro.fingerprint.PageProfile`.  The cache makes crawl cost
proportional to *changes* instead: each domain-week derives a cheap
site-state key from the ground-truth manifest — before any HTML is
rendered — and an unchanged key reuses the previous week's profile.

The key is the manifest's content fields themselves (all immutable and
hashable), not a lossy hash: equal keys therefore *prove* the rendered
page and its fingerprint would be identical, because page rendering and
manifest-mode profiling are pure functions of those fields plus the
domain's constant name and rank.  A manifest carries no week: every
week of one content epoch shares one manifest object, so within an
epoch the key's fields are the very same objects and compare at once.

Scope: one cache per :meth:`~repro.crawler.Crawler.crawl_block` call,
i.e. per shard.  Shards already crawl each domain's weeks contiguously
(the PR-1 planning invariant), so "previous crawled week" is exact
within a shard, and shards stay independent — the bit-identical-stores
determinism contract across backends and worker counts is untouched.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..fingerprint import PageProfile
from ..webgen.site import SiteManifest

#: The manifest fields a landing page's content is a pure function of.
SiteStateKey = Tuple[object, ...]


def site_state_key(manifest: SiteManifest) -> SiteStateKey:
    """The content-address of one domain-week's landing page.

    Everything :func:`~repro.webgen.html.render_page` and
    :func:`~repro.crawler.crawl.profile_from_manifest` read from the
    manifest, except the constant per-domain identity (name, rank) that
    the cache already keys on.
    """
    return (
        manifest.wordpress_version,
        manifest.libraries,
        manifest.extra_scripts,
        manifest.resource_types,
        manifest.flash,
        manifest.vendored,
    )


class ProfileCache:
    """Single-entry-per-domain profile cache with hit/miss counters.

    Args:
        enabled: When False every lookup misses and nothing is stored,
            so the crawler's cache-off path needs no branching.

    Attributes:
        hits: Lookups that returned a reusable profile.
        misses: Lookups that found no entry (or a stale one).
    """

    __slots__ = ("enabled", "hits", "misses", "_entries")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._entries: Dict[int, Tuple[SiteStateKey, PageProfile]] = {}

    def lookup(self, rank: int, key: SiteStateKey) -> Optional[PageProfile]:
        """The cached profile for ``rank`` if its state still equals ``key``."""
        if not self.enabled:
            return None
        entry = self._entries.get(rank)
        if entry is not None and entry[0] == key:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store(self, rank: int, key: SiteStateKey, profile: PageProfile) -> None:
        """Remember ``profile`` as ``rank``'s latest crawled state."""
        if self.enabled:
            self._entries[rank] = (key, profile)

    def record(self, instruments) -> None:
        """Flush the hit/miss counters into an :class:`~repro.obs.Instruments`.

        Always writes both keys (``cache.hits``/``cache.misses``), even
        at zero, so the metrics document has a stable shape whether the
        cache was enabled or not.
        """
        instruments.inc("cache.hits", self.hits)
        instruments.inc("cache.misses", self.misses)

    def __len__(self) -> int:
        return len(self._entries)
