"""The weekly crawler (Section 4).

Reproduces the paper's collection pipeline against the virtual network:
fetch every domain's landing page each kept week, filter inaccessible
domains (error pages or <400-byte bodies for the four consecutive weeks
of the last month), fingerprint the survivors, and aggregate into an
:class:`ObservationStore` the analyses read.

Public API: :class:`Fetcher`, :class:`Crawler`, :class:`CrawlReport`,
:class:`ObservationStore`, :class:`AccessibilityFilter`.

The package splits in two.  The store codec (:mod:`.store`,
:mod:`.columns`, :mod:`.symbols`, :mod:`.persistence`) is the read
side: it imports no generator and no fingerprint engine.  The crawl
engine (:mod:`.crawl`, :mod:`.fetch`, :mod:`.filtering`,
:mod:`.profilestore`) is the write side.  The names below load on
first use (:mod:`repro._lazy`), so importing the codec does not load
the engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".cache": "ProfileCache site_state_key",
        ".crawl": "Crawler CrawlReport",
        ".fetch": "FetchResult Fetcher",
        ".filtering": "AccessibilityFilter",
        ".store": "ObservationStore WeekAggregate",
    },
)

__all__ = [
    "Fetcher",
    "FetchResult",
    "ObservationStore",
    "WeekAggregate",
    "AccessibilityFilter",
    "Crawler",
    "CrawlReport",
    "ProfileCache",
    "site_state_key",
]
